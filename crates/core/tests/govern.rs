//! Governance invariance: a governed run's decoded output must equal an
//! ungoverned run's byte for byte, for every policy and worker count.
//!
//! Parking and unparking workers changes where and when work executes —
//! never what is computed — so the `results[subframe][user]` matrix
//! (payload bytes, CRC flags) has to be identical whether zero, some or
//! all workers were governed away. The matrix covers the four paper
//! policies at worker counts {1, 4, host-max}.

use std::time::Duration;

use lte_power::{NapPolicy, WorkloadEstimator};
use lte_sched::host_parallelism;
use lte_uplink::govern::run_pool_governed;

#[test]
fn governed_output_is_byte_identical_across_policies_and_worker_counts() {
    // A flat slope steep enough that targets move with the ramp's user
    // load — the estimator's accuracy is irrelevant to identity, only
    // that governance actually parks workers along the way.
    let estimator = WorkloadEstimator::from_slopes([[0.004; 3]; 4]);
    let mut counts = vec![1usize, 4, host_parallelism()];
    counts.sort_unstable();
    counts.dedup();
    for workers in counts {
        for policy in NapPolicy::ALL {
            let run = run_pool_governed(
                workers,
                10,
                Duration::from_millis(1),
                2012,
                &estimator,
                policy,
            )
            .expect("spawn pools");
            assert!(
                run.identical,
                "governed {policy} on {workers} workers diverged from the ungoverned run"
            );
            assert_eq!(run.decisions, 10, "one decision per dispatched subframe");
        }
    }
}

#[test]
fn napidle_governed_run_parks_worker_time_at_low_load() {
    // Four workers, light ramp load, proactive targets well below the
    // worker count: the nap analogue must bank real parked time.
    let estimator = WorkloadEstimator::from_slopes([[0.0001; 3]; 4]);
    let run = run_pool_governed(
        4,
        20,
        Duration::from_millis(2),
        7,
        &estimator,
        NapPolicy::NapIdle,
    )
    .expect("spawn pools");
    assert!(run.identical, "output must stay byte-identical");
    assert!(
        run.parked_nanos > 0,
        "NAP+IDLE at low load must park worker time"
    );
}

#[test]
fn nonap_governed_run_parks_nothing() {
    let estimator = WorkloadEstimator::from_slopes([[0.0001; 3]; 4]);
    let run = run_pool_governed(
        4,
        10,
        Duration::from_millis(1),
        7,
        &estimator,
        NapPolicy::NoNap,
    )
    .expect("spawn pools");
    assert!(run.identical);
    assert_eq!(
        run.parked_nanos, 0,
        "a non-proactive policy never caps the pool"
    );
}

//! Strong-scaling assertion: with enough real cores, the fine-grained
//! task graph must beat the serial reference on the steady-state
//! 100-PRB four-user load.
//!
//! Speedup > 1 is a physical claim about concurrent execution, so the
//! test only asserts it where it is physically possible: hosts with at
//! least four cores of available parallelism. On smaller hosts (such as
//! single-core CI containers) it verifies the matrix still runs and
//! stays byte-identical, and skips the speedup assertion with a message
//! rather than faking one.

use lte_sched::host_parallelism;
use lte_uplink::perf::{effective_workers, run_scaling, ScalingConfig};

#[test]
fn four_workers_beat_serial_on_the_steady_state_load() {
    let host = host_parallelism();
    let cfg = ScalingConfig {
        subframes: 48,
        worker_counts: vec![4],
        seed: 7,
        window: Some(4),
        pin_workers: false,
    };
    let report = run_scaling(&cfg).expect("scaling run");
    let point = &report.points[0];
    assert_eq!(point.workers_requested, 4);
    assert_eq!(point.workers_effective, effective_workers(4));
    assert!(point.byte_identical, "scaling point must verify bit-exact");
    assert!(point.subframes_per_sec > 0.0);

    if host < 4 {
        eprintln!(
            "skipping the speedup assertion: strong scaling needs >= 4 effective workers, \
             host parallelism is {host}"
        );
        return;
    }
    assert!(
        point.speedup > 1.0,
        "4 effective workers must beat serial on the 100-PRB load, got {:.3}x \
         (parallel {:.1} sf/s vs serial {:.1} sf/s)",
        point.speedup,
        point.subframes_per_sec,
        report.serial_subframes_per_sec
    );
}

//! Deployment-layer determinism and isolation proofs.
//!
//! Two properties anchor the multi-cell engine:
//!
//! * **worker-count independence** — `DEPLOY.json` is a pure function
//!   of the seed and configuration: 1, 2 and many workers must produce
//!   `cmp`-identical bytes;
//! * **zero-coupling equivalence** — with interference off, an N-cell
//!   deployment is exactly N independent single-cell deployments: the
//!   per-cell fingerprints and measurement surfaces of cell `i` match a
//!   1-cell run homed on the same identity with the same population.

use lte_uplink::deploy::{run_deploy, DeployConfig};
use lte_uplink::TrafficModel;

fn base(cells: usize, ues: usize, workers: usize) -> DeployConfig {
    let mut cfg = DeployConfig::new(cells, ues, 4, 7);
    cfg.workers = workers;
    cfg
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8);
    // Uncoupled cells, and coupled cells: users synthesized on the pool,
    // then the interference fields and their injection.
    let mut coupled = base(3, 3000, 1);
    coupled.coupling_milli = 20;
    for cfg in [base(3, 3000, 1), coupled] {
        let jsons: Vec<String> = [1usize, 2, max]
            .iter()
            .map(|&workers| {
                let cfg = DeployConfig {
                    workers,
                    ..cfg.clone()
                };
                run_deploy(&cfg).expect("deploy runs").to_json()
            })
            .collect();
        let c = cfg.coupling_milli;
        assert_eq!(jsons[0], jsons[1], "coupling {c}: 1 vs 2 workers diverged");
        assert_eq!(
            jsons[0], jsons[2],
            "coupling {c}: 1 vs {max} workers diverged"
        );
    }
}

#[test]
fn zero_coupling_equals_independent_single_cell_runs() {
    let n_cell = run_deploy(&base(3, 3000, 2)).expect("3-cell run");
    for (i, cell) in n_cell.per_cell.iter().enumerate() {
        let mut solo = base(1, cell.population, 2);
        solo.first_cell = i;
        let solo = run_deploy(&solo).expect("1-cell run");
        assert_eq!(solo.per_cell.len(), 1);
        assert_eq!(
            solo.per_cell[0].fingerprint, cell.fingerprint,
            "cell {i} of the 3-cell deployment is not reproduced by an \
             isolated single-cell run"
        );
        assert_eq!(solo.per_cell[0].ebler, cell.ebler);
        assert_eq!(solo.per_cell[0].offered, cell.offered);
        assert_eq!(solo.per_cell[0].deferred, cell.deferred);
    }
}

#[test]
fn coupling_perturbs_the_received_field() {
    let isolated = run_deploy(&base(2, 2000, 2)).expect("isolated run");
    let mut coupled_cfg = base(2, 2000, 2);
    coupled_cfg.coupling_milli = 400;
    let coupled = run_deploy(&coupled_cfg).expect("coupled run");
    assert_ne!(
        isolated.fingerprint, coupled.fingerprint,
        "a 0.4-amplitude neighbour must perturb the decoded bytes"
    );
    // Interference can only hurt: the coupled run decodes no more
    // blocks than the isolated one.
    assert!(coupled.aggregate.total.ack <= isolated.aggregate.total.ack);
    // The coupled run is still deterministic.
    let again = run_deploy(&coupled_cfg).expect("coupled rerun");
    assert_eq!(coupled.to_json(), again.to_json());
}

#[test]
fn mmtc_deployment_defers_past_the_grant_budget() {
    let mut cfg = base(2, 40_000, 2);
    cfg.traffic = TrafficModel::BurstyIot;
    let report = run_deploy(&cfg).expect("mMTC run");
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"lte-sim-deploy-v1\""));
    assert!(json.contains("\"traffic\": \"bursty-iot\""));
    assert_eq!(report.per_cell.len(), 2);
    let offered: u64 = report.per_cell.iter().map(|c| c.offered).sum();
    let deferred: u64 = report.per_cell.iter().map(|c| c.deferred).sum();
    let scheduled: u64 = report.per_cell.iter().map(|c| c.scheduled).sum();
    assert_eq!(offered, deferred + scheduled);
    assert!(
        deferred > scheduled,
        "a 40k-UE machine-type deployment must defer most of its offered load"
    );
    // Deferred grants surface as DTX on the measurement box.
    assert_eq!(report.aggregate.total.dtx, deferred);
    // The clean channel decodes: no NACKs at the synthesis SNR.
    assert_eq!(report.aggregate.total.nack, 0);
}

#[test]
fn identity_ranges_past_usize_are_errors_not_panics() {
    // `first_cell + cells` overflows in the first two: the run must
    // refuse the configuration, never wrap past the identity check or
    // panic.
    for (first_cell, cells) in [(usize::MAX, 1), (1, usize::MAX), (0, usize::MAX)] {
        let mut cfg = base(cells, 10, 1);
        cfg.first_cell = first_cell;
        let err = run_deploy(&cfg).expect_err("an identity range past the 504 identities");
        assert!(err.contains("physical-cell identities"), "{err}");
    }
}

#[test]
fn populations_split_round_robin_and_identities_are_distinct() {
    let report = run_deploy(&base(3, 10, 1)).expect("tiny run");
    let pops: Vec<usize> = report.per_cell.iter().map(|c| c.population).collect();
    assert_eq!(pops, vec![4, 3, 3]);
    let ids: Vec<usize> = report.per_cell.iter().map(|c| c.cell_id).collect();
    assert_eq!(ids, vec![0, 1, 2]);
    // Distinct identities scramble differently, so the per-cell
    // fingerprints differ even under identical schedules.
    assert_ne!(
        report.per_cell[0].fingerprint,
        report.per_cell[1].fingerprint
    );
}

//! Governance overhead guard: a per-subframe decision must stay far
//! below the subframe budget.
//!
//! The governor runs once per dispatched subframe — every millisecond
//! on a real base station — so `PolicyGovernor::decide` plus the
//! simulator-side boundary bookkeeping must cost microseconds, not
//! milliseconds. The bench prints the one-shot mean decision cost and
//! asserts a generous ceiling so a quadratic audit trail or an
//! accidental allocation storm fails loudly instead of shipping.

use std::hint::black_box;
use std::time::Instant;

use lte_bench::bench;
use lte_dsp::Modulation;
use lte_power::{
    CoreController, Governor, NapPolicy, PolicyGovernor, SubframeObservation, UserLoad,
    WorkloadEstimator,
};

/// A ten-user subframe — the busy end of the paper's load range.
fn users() -> Vec<UserLoad> {
    (0..10)
        .map(|i| UserLoad {
            prbs: 4 + 2 * i,
            layers: 1 + i % 4,
            modulation: Modulation::ALL[i % 3],
        })
        .collect()
}

fn governor() -> PolicyGovernor {
    PolicyGovernor::new(
        NapPolicy::NapIdle,
        WorkloadEstimator::from_slopes([[0.004; 3]; 4]),
        CoreController::paper(),
    )
}

fn main() {
    let users = users();

    // One-shot gate: mean cost of a decision over a long governed run,
    // audit trail included. 50 µs is ~100× the measured cost on a
    // laptop-class core and still 20× below a 1 ms subframe budget.
    let reps = 20_000usize;
    let mut gov = governor();
    let start = Instant::now();
    for subframe in 0..reps {
        black_box(gov.decide(&SubframeObservation {
            subframe,
            users: &users,
            measured_activity: Some(0.3),
        }));
    }
    let per_decision = start.elapsed() / reps as u32;
    println!(
        "governor_overhead: {per_decision:?} per decision over {reps} subframes \
         (gate: < 50 µs)"
    );
    assert!(
        per_decision.as_micros() < 50,
        "a per-subframe governance decision must stay in the microsecond range, \
         got {per_decision:?}"
    );

    let mut gov = governor();
    let mut subframe = 0usize;
    bench("governor_overhead/decide_10_users", || {
        subframe += 1;
        gov.decide(&SubframeObservation {
            subframe,
            users: &users,
            measured_activity: Some(0.3),
        })
    });
}

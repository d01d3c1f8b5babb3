//! Service-level objectives over rolling windows.
//!
//! An [`SloSpec`] declares the budgets a sustained run must hold —
//! deadline-miss rate, shed rate, and a p99 completion-latency bound —
//! and an [`SloTracker`] evaluates one [`WindowObservation`] per window
//! against them, computing SRE-style **burn rates** (observed error rate
//! over budgeted error rate; > 1 means the window consumed budget faster
//! than allowed). The spec carries plain numbers: callers map their own
//! counters (deadline overruns, shed users) into an observation.
//!
//! [`SloWindows`] is the one window policy every long-running driver
//! closes its windows through: it holds the open window's counts, takes
//! each window's p99 from a roll of the driver's live latency
//! [`Histogram`], keeps the merged run total of those rolls, and judges
//! the window with its tracker.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::metrics::f64_json;

/// Budgets for one soak run. All rates are fractions in `[0, 1]` per
/// window; a `None` latency bound disables that objective.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Max fraction of subframes that may miss their deadline budget.
    pub max_miss_rate: f64,
    /// Max fraction of offered user jobs that may be shed.
    pub max_shed_rate: f64,
    /// p99 completion-latency bound, in the unit the caller's latency
    /// histogram records (cycles for the simulator).
    pub p99_latency_budget: Option<u64>,
}

impl SloSpec {
    /// The paper-shaped default: at most 1 % deadline misses, at most
    /// 1 % shed jobs, no latency bound until the caller knows its unit.
    pub fn default_budgets() -> Self {
        Self {
            max_miss_rate: 0.01,
            max_shed_rate: 0.01,
            p99_latency_budget: None,
        }
    }
}

/// What one completed window actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowObservation {
    /// Subframes dispatched in the window.
    pub subframes: u64,
    /// Subframes that missed their deadline budget.
    pub deadline_misses: u64,
    /// User jobs offered in the window: those that ran plus those shed.
    pub jobs: u64,
    /// User jobs shed by overload.
    pub shed_jobs: u64,
    /// The window's p99 completion latency (same unit as the spec).
    pub p99_latency: u64,
}

/// Which objective a window violated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloViolation {
    /// Deadline-miss rate exceeded `max_miss_rate`.
    MissRate {
        /// Observed miss fraction.
        observed: f64,
        /// Budgeted miss fraction.
        budget: f64,
    },
    /// Shed rate exceeded `max_shed_rate`.
    ShedRate {
        /// Observed shed fraction.
        observed: f64,
        /// Budgeted shed fraction.
        budget: f64,
    },
    /// p99 latency exceeded the latency budget.
    P99Latency {
        /// Observed p99 latency.
        observed: u64,
        /// Budgeted p99 latency.
        budget: u64,
    },
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloViolation::MissRate { observed, budget } => {
                write!(f, "miss-rate {observed:.4} > budget {budget:.4}")
            }
            SloViolation::ShedRate { observed, budget } => {
                write!(f, "shed-rate {observed:.4} > budget {budget:.4}")
            }
            SloViolation::P99Latency { observed, budget } => {
                write!(f, "p99 latency {observed} > budget {budget}")
            }
        }
    }
}

/// One window's SLO evaluation: burn rates plus any violations.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowVerdict {
    /// Window ordinal (0-based).
    pub window: u64,
    /// Miss-rate burn: observed miss rate / budgeted miss rate.
    pub miss_burn: f64,
    /// Shed-rate burn: observed shed rate / budgeted shed rate.
    pub shed_burn: f64,
    /// Latency burn: observed p99 / budgeted p99 (0 when unbounded).
    pub latency_burn: f64,
    /// Objectives this window broke (empty = healthy).
    pub violations: Vec<SloViolation>,
}

impl WindowVerdict {
    /// `true` when every objective held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Flat deterministic JSON (fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"window\":{},\"miss_burn\":{},\"shed_burn\":{},\
             \"latency_burn\":{},\"violations\":{}}}",
            self.window,
            f64_json(self.miss_burn),
            f64_json(self.shed_burn),
            f64_json(self.latency_burn),
            self.violations.len(),
        )
    }
}

/// Evaluates window observations against an [`SloSpec`] and counts the
/// violations for the end-of-run exit status.
pub struct SloTracker {
    spec: SloSpec,
    windows: u64,
    violating_windows: u64,
    violations: u64,
}

/// Observed error rate over budgeted error rate; saturates to 0 when
/// nothing was observed and to `observed > 0 ? inf-free large : 0` via
/// a plain ratio when the budget is zero but errors occurred.
fn burn(observed: f64, budget: f64) -> f64 {
    if observed == 0.0 {
        0.0
    } else if budget <= 0.0 {
        // Zero budget, nonzero errors: report the raw observed rate
        // scaled by 1e6 so it is finite, comparable, and obviously red.
        observed * 1e6
    } else {
        observed / budget
    }
}

impl SloTracker {
    /// A tracker with no windows observed yet.
    pub fn new(spec: SloSpec) -> Self {
        Self {
            spec,
            windows: 0,
            violating_windows: 0,
            violations: 0,
        }
    }

    /// Evaluates one completed window.
    pub fn observe(&mut self, obs: &WindowObservation) -> WindowVerdict {
        let window = self.windows;
        self.windows += 1;
        let miss_rate = if obs.subframes == 0 {
            0.0
        } else {
            obs.deadline_misses as f64 / obs.subframes as f64
        };
        let shed_rate = if obs.jobs == 0 {
            0.0
        } else {
            obs.shed_jobs as f64 / obs.jobs as f64
        };
        let mut violations = Vec::new();
        if miss_rate > self.spec.max_miss_rate {
            violations.push(SloViolation::MissRate {
                observed: miss_rate,
                budget: self.spec.max_miss_rate,
            });
        }
        if shed_rate > self.spec.max_shed_rate {
            violations.push(SloViolation::ShedRate {
                observed: shed_rate,
                budget: self.spec.max_shed_rate,
            });
        }
        let latency_burn = match self.spec.p99_latency_budget {
            None => 0.0,
            Some(budget) => {
                if obs.p99_latency > budget {
                    violations.push(SloViolation::P99Latency {
                        observed: obs.p99_latency,
                        budget,
                    });
                }
                if budget == 0 {
                    0.0
                } else {
                    obs.p99_latency as f64 / budget as f64
                }
            }
        };
        if !violations.is_empty() {
            self.violating_windows += 1;
            self.violations += violations.len() as u64;
        }
        WindowVerdict {
            window,
            miss_burn: burn(miss_rate, self.spec.max_miss_rate),
            shed_burn: burn(shed_rate, self.spec.max_shed_rate),
            latency_burn,
            violations,
        }
    }

    /// Windows that broke at least one objective.
    pub fn violating_windows(&self) -> u64 {
        self.violating_windows
    }

    /// Objective violations across every window.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

/// A driver's SLO windows: the open window's counts, the verdicts, and
/// the run's latency as the merge of every window's roll.
pub struct SloWindows {
    /// The open window's counts, kept by the driver; its `p99_latency`
    /// is taken from the roll when the window closes.
    pub open: WindowObservation,
    /// Judges each closed window. A reload replaces it: window numbering
    /// and violations restart under the new budgets.
    pub tracker: SloTracker,
    total: HistogramSnapshot,
}

impl SloWindows {
    /// No window closed yet, the first one open and empty.
    pub fn new(spec: SloSpec) -> Self {
        Self {
            open: WindowObservation::default(),
            tracker: SloTracker::new(spec),
            total: HistogramSnapshot::empty(),
        }
    }

    /// Closes the open window: rolls `latency` — everything the driver
    /// recorded since the last roll — into the run total, judges the
    /// window's counts on the roll's p99, and opens an empty window.
    /// Returns the closed window's counts, latency and verdict.
    pub fn close(
        &mut self,
        latency: &Histogram,
    ) -> (WindowObservation, HistogramSnapshot, WindowVerdict) {
        let window = latency.snapshot_and_reset();
        self.total.merge(&window);
        let counts = WindowObservation {
            p99_latency: window.quantile(0.99),
            ..std::mem::take(&mut self.open)
        };
        let verdict = self.tracker.observe(&counts);
        (counts, window, verdict)
    }

    /// The run's latency: every closed window's roll, plus what `latency`
    /// recorded after the last one.
    pub fn run_latency(&self, latency: &Histogram) -> HistogramSnapshot {
        let mut run = self.total.clone();
        run.merge(&latency.snapshot());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            max_miss_rate: 0.01,
            max_shed_rate: 0.02,
            p99_latency_budget: Some(1_000),
        }
    }

    #[test]
    fn healthy_window_has_no_violations() {
        let mut t = SloTracker::new(spec());
        let v = t.observe(&WindowObservation {
            subframes: 1_000,
            deadline_misses: 5,
            jobs: 10_000,
            shed_jobs: 100,
            p99_latency: 900,
        });
        assert!(v.ok());
        assert_eq!(v.miss_burn, 0.5);
        assert_eq!(v.shed_burn, 0.5);
        assert_eq!(v.latency_burn, 0.9);
        assert_eq!((t.violating_windows(), t.violations()), (0, 0));
    }

    #[test]
    fn each_objective_trips_independently() {
        let mut t = SloTracker::new(spec());
        let v = t.observe(&WindowObservation {
            subframes: 100,
            deadline_misses: 2, // 2% > 1%
            jobs: 1_000,
            shed_jobs: 30, // 3% > 2%
            p99_latency: 1_500,
        });
        assert_eq!(v.violations.len(), 3);
        assert_eq!(t.violating_windows(), 1);
        assert_eq!(t.violations(), 3);
        assert_eq!(v.miss_burn, 2.0);
        assert_eq!(v.latency_burn, 1.5);
    }

    #[test]
    fn empty_window_is_healthy() {
        let mut t = SloTracker::new(spec());
        let v = t.observe(&WindowObservation::default());
        assert!(v.ok());
        assert_eq!(v.miss_burn, 0.0);
    }

    #[test]
    fn zero_budget_burn_is_finite() {
        let s = SloSpec {
            max_miss_rate: 0.0,
            max_shed_rate: 0.0,
            p99_latency_budget: None,
        };
        let mut t = SloTracker::new(s);
        let v = t.observe(&WindowObservation {
            subframes: 10,
            deadline_misses: 1,
            ..Default::default()
        });
        assert!(v.miss_burn.is_finite());
        assert!(!v.ok());
    }

    /// Each window is judged on the rows recorded since the last close,
    /// not on every row since the start of the run.
    #[test]
    fn each_window_is_judged_on_its_own_rows() {
        let mut slo = SloWindows::new(SloSpec {
            p99_latency_budget: Some(100_000),
            ..SloSpec::default_budgets()
        });
        let live = Histogram::new();
        live.record(1_000_000);
        let (_, _, first) = slo.close(&live);
        assert_eq!(
            first.violations,
            [SloViolation::P99Latency {
                observed: 1_000_000,
                budget: 100_000
            }]
        );
        live.record(10_000);
        let (counts, latency, second) = slo.close(&live);
        assert!(second.ok(), "window 1 judged on the run: {second:?}");
        assert_eq!((second.window, latency.count), (1, 1));
        assert_eq!(counts.p99_latency, 10_000);
        assert_eq!(slo.tracker.violating_windows(), 1);
    }

    /// The open counts close into one window and start over; a value
    /// recorded after the last close still reaches the run's latency.
    #[test]
    fn closing_moves_the_counts_and_the_run_total_keeps_every_row() {
        let mut slo = SloWindows::new(spec());
        let live = Histogram::new();
        slo.open.subframes = 100;
        slo.open.deadline_misses = 2;
        slo.open.jobs = 400;
        live.record(500);
        let (counts, _, verdict) = slo.close(&live);
        assert_eq!(
            (counts.subframes, counts.deadline_misses, counts.jobs),
            (100, 2, 400)
        );
        assert_eq!(verdict.miss_burn, 2.0);
        assert_eq!(slo.open, WindowObservation::default());
        live.record(700);
        live.record(900);
        let run = slo.run_latency(&live);
        assert_eq!((run.count, run.min, run.max, run.sum), (3, 500, 900, 2_100));
        assert_eq!(
            live.snapshot().count,
            2,
            "reading the run total rolls nothing"
        );
    }

    #[test]
    fn verdict_json_is_stable() {
        let mut t = SloTracker::new(spec());
        let v = t.observe(&WindowObservation {
            subframes: 1_000,
            deadline_misses: 0,
            jobs: 4_000,
            shed_jobs: 0,
            p99_latency: 500,
        });
        assert_eq!(
            v.to_json(),
            "{\"window\":0,\"miss_burn\":0.0,\"shed_burn\":0.0,\
             \"latency_burn\":0.5,\"violations\":0}"
        );
    }
}

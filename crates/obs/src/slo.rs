//! Service-level objectives over rolling windows.
//!
//! An [`SloSpec`] declares the budgets a sustained run must hold —
//! deadline-miss rate, shed rate, and a p99 completion-latency bound —
//! and an [`SloTracker`] evaluates one [`WindowObservation`] per window
//! against them, computing SRE-style **burn rates** (observed error rate
//! over budgeted error rate; > 1 means the window consumed budget faster
//! than allowed). The spec carries plain numbers, so the tracker stays
//! dependency-free: callers map their own counters (deadline overruns,
//! shed users) into an observation.

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

/// Evaluates window observations against an [`SloSpec`] and remembers
/// every violation for the end-of-run exit status.
pub struct SloTracker {
    spec: SloSpec,
    windows: u64,
    violating_windows: u64,
    violations: Vec<(u64, SloViolation)>,
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
            violations: Vec::new(),
        }
    }

    /// The spec under evaluation.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
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
            self.violations
                .extend(violations.iter().map(|v| (window, *v)));
        }
        WindowVerdict {
            window,
            miss_burn: burn(miss_rate, self.spec.max_miss_rate),
            shed_burn: burn(shed_rate, self.spec.max_shed_rate),
            latency_burn,
            violations,
        }
    }

    /// Windows evaluated so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Windows that broke at least one objective.
    pub fn violating_windows(&self) -> u64 {
        self.violating_windows
    }

    /// Every `(window, violation)` pair, in observation order.
    pub fn violations(&self) -> &[(u64, SloViolation)] {
        &self.violations
    }

    /// `true` when no window ever violated an objective.
    pub fn healthy(&self) -> bool {
        self.violations.is_empty()
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
        assert!(t.healthy());
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
        assert!(!t.healthy());
        assert_eq!(t.violating_windows(), 1);
        assert_eq!(t.violations().len(), 3);
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

//! Occupancy output of the discrete-event simulator.

use lte_obs::Stage;

use super::config::SimConfig;

/// Occupancy statistics for one dispatch-period bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BucketStats {
    /// Cycles spent in useful compute (the Eq. 1 sums).
    pub busy_cycles: u64,
    /// Cycles spent spinning: idle work search plus barrier waits.
    pub spin_cycles: u64,
    /// Cycles spent napping (clock-gated).
    pub nap_cycles: u64,
    /// Nap wake pulses taken in this bucket (total).
    pub wake_pulses: u64,
    /// The subset of wake pulses that only checked a status flag
    /// (proactively napped cores). The paper attributes IDLE's extra
    /// power to the remaining, costlier work-polling pulses.
    pub wake_pulses_status: u64,
    /// The policy's active-core target during this bucket.
    pub active_target: usize,
    /// Jobs completed in this bucket.
    pub jobs_completed: u64,
}

impl BucketStats {
    /// Activity per Eq. 2: useful cycles over total worker cycles.
    pub fn activity(&self, n_workers: usize, bucket_cycles: u64) -> f64 {
        self.busy_cycles as f64 / (n_workers as u64 * bucket_cycles) as f64
    }
}

/// The simulator's output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Per-dispatch-period occupancy.
    pub buckets: Vec<BucketStats>,
    /// Completion latency (cycles from dispatch) of every job, in
    /// completion order.
    pub job_latencies: Vec<u64>,
    /// Simulated end time in cycles.
    pub end_time: u64,
    /// Total jobs executed.
    pub jobs_total: usize,
    /// Largest number of *subframes* with unfinished jobs at any instant
    /// — the paper: "A base station therefore processes no more than two
    /// to three subframes concurrently."
    pub max_concurrent_subframes: usize,
    /// Total busy cycles per core over the run — shows how proactive
    /// policies concentrate work on the low-numbered (always-active)
    /// cores.
    pub busy_per_core: Vec<u64>,
    /// Busy cycles attributed to each coarse stage, indexed in
    /// [`Stage::SIM`] order (estimation, weights, combine, finish).
    /// The four entries sum exactly to the run's total busy cycles.
    pub stage_cycles: [u64; 4],
    /// Successful steals per core.
    pub steals_per_core: Vec<u64>,
    /// Work searches per core that found nothing to run or steal.
    pub steal_fails_per_core: Vec<u64>,
    /// Tasks (including continuations) executed per core.
    pub tasks_per_core: Vec<u64>,
    /// Nap wake pulses taken per core.
    pub wake_pulses_per_core: Vec<u64>,
    /// Subframes that completed after their deadline budget (only
    /// counted when [`Simulator::with_deadline`] attached one).
    ///
    /// [`Simulator::with_deadline`]: super::Simulator::with_deadline
    pub overruns: u64,
    /// User jobs shed because an older subframe was past its deadline.
    pub shed_jobs: u64,
    /// Tasks that hit a seeded panic and were re-executed (chaos runs).
    pub poisoned_tasks: u64,
    /// Jobs whose user-thread ownership was adopted by a surviving core
    /// after their owner fail-stopped.
    pub adopted_jobs: u64,
}

impl SimReport {
    /// Latency percentile in cycles (`p` in 0..=100); 0 for empty runs.
    pub fn latency_percentile(&self, p: usize) -> u64 {
        if self.job_latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.job_latencies.clone();
        sorted.sort_unstable();
        let idx = (sorted.len() - 1).min(sorted.len() * p.min(100) / 100);
        sorted[idx]
    }

    /// Mean activity over the whole run (Eq. 2 with a run-length window).
    pub fn mean_activity(&self, cfg: &SimConfig) -> f64 {
        let busy: u64 = self.buckets.iter().map(|b| b.busy_cycles).sum();
        let total = cfg.n_workers as u64 * cfg.dispatch_period * self.buckets.len().max(1) as u64;
        busy as f64 / total as f64
    }

    /// Activity averaged over windows of `per` buckets (the paper uses
    /// 1-second windows = 200 subframes).
    pub fn windowed_activity(&self, cfg: &SimConfig, per: usize) -> Vec<f64> {
        assert!(per > 0, "window must be positive");
        self.buckets
            .chunks(per)
            .map(|w| {
                let busy: u64 = w.iter().map(|b| b.busy_cycles).sum();
                busy as f64 / (cfg.n_workers as u64 * cfg.dispatch_period * w.len() as u64) as f64
            })
            .collect()
    }

    /// Busy cycles per coarse pipeline stage, in pipeline order.
    ///
    /// The stage totals sum exactly to the run's busy cycles, i.e. to
    /// the Eq. 2 activity figure times `n_workers × cycles` capacity.
    pub fn stage_breakdown(&self) -> [(Stage, u64); 4] {
        [
            (Stage::Estimation, self.stage_cycles[0]),
            (Stage::Weights, self.stage_cycles[1]),
            (Stage::Combine, self.stage_cycles[2]),
            (Stage::Finish, self.stage_cycles[3]),
        ]
    }
}

//! The executable benchmark (§IV of the paper).
//!
//! A maintenance loop creates input parameters and data for each
//! subframe and dispatches it to the worker pool every DELTA; each user
//! becomes a dependency-ordered **task graph** whose stages fan out into
//! work-stealing tasks:
//!
//! 1. channel estimation — one task per (slot, rx antenna, layer);
//! 2. combiner weights — computed by the slot's *last* estimation task
//!    (cache-hot over the estimates it just joined), which then fans out
//! 3. antenna combining + IFFT + soft demap — one task per
//!    (slot, symbol, layer); the last one spawns
//! 4. the serial join: deinterleave, turbo (pass-through), CRC.
//!
//! No thread ever blocks at a phase barrier: each stage's completion
//! *spawns* the next stage (see the `dispatch` module, the one path from
//! the benchmark, serve and deploy loops to the pool), so independent
//! users — and independent subframes — pipeline freely through the pool.
//! The maintenance loop bounds that freedom with a configurable
//! in-flight window ([`BenchmarkConfig::max_in_flight`]) so latency
//! percentiles stay honest under backlog.
//!
//! Subframe input data are synthesised once per distinct user
//! configuration and reused (§IV-B1: data sets are "created for multiple
//! subframes and then reused across all dispatched subframes").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use lte_dsp::Xoshiro256;
use lte_fault::{DeadlineBudget, OverloadPolicy};
use lte_phy::grid::UserInput;
use lte_phy::harq::{HarqDecision, HarqEntity, HarqStats};
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::UserResult;
use lte_phy::tx::{synthesize_retransmission, synthesize_user_with_mode};
use lte_phy::verify::{GoldenRecord, VerifyError};
use lte_sched::{PoolError, TaskPool};

use crate::dispatch::Dispatcher;

/// A power-governance hook invoked at every subframe dispatch boundary,
/// before the subframe's jobs are submitted (see
/// [`UplinkBenchmark::try_run_governed`]).
pub type GovernHook<'a> = &'a mut dyn FnMut(&TaskPool, usize, &SubframeConfig);

/// Benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchmarkConfig {
    /// Worker threads (the paper maps one per core).
    pub workers: usize,
    /// Dispatch interval (the paper's DELTA; configurable so the
    /// benchmark "can run on hardware that cannot sustain a rate of one
    /// subframe per millisecond").
    pub delta: Duration,
    /// SNR for the synthesised channels, in dB.
    pub snr_db: f64,
    /// Turbo stage mode.
    pub turbo: TurboMode,
    /// RNG seed for data synthesis.
    pub seed: u64,
    /// Per-subframe deadline budget (nanoseconds from dispatch to
    /// completion) and the overload policy applied while the receiver is
    /// behind. `None` dispatches blindly, as the paper's benchmark does.
    pub deadline: Option<DeadlineBudget>,
    /// HARQ retransmissions allowed per failed transport block
    /// (0 disables the retransmission pass).
    pub harq: usize,
    /// Demap with the exact log-sum-exp LLRs instead of max-log. The
    /// `DegradeDemap` overload policy downgrades exact → max-log for
    /// subframes dispatched while the receiver is behind. Exact demap
    /// diverges (slightly) from the max-log serial reference, so
    /// [`UplinkBenchmark::verify`] only applies to max-log runs.
    pub exact_demap: bool,
    /// Upper bound on subframes simultaneously in flight. The task-graph
    /// dispatch never blocks a thread, so without a bound a slow host
    /// accumulates an unbounded backlog and the tail latencies lie about
    /// it; with a window of `w`, subframe *n* is held at the door until
    /// fewer than `w` earlier subframes remain open — the wait shows up
    /// as a later dispatch stamp, not as hidden queueing. `None` keeps
    /// the paper's blind dispatch.
    pub max_in_flight: Option<usize>,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            // The one helper (and fallback) every worker default uses.
            workers: lte_sched::host_parallelism(),
            delta: Duration::from_millis(5),
            snr_db: 30.0,
            turbo: TurboMode::Passthrough,
            seed: 42,
            deadline: None,
            harq: 0,
            exact_demap: false,
            max_in_flight: None,
        }
    }
}

/// Degradation and recovery accounting for one benchmark run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Subframes whose completion exceeded the deadline budget.
    pub overruns: u64,
    /// Whole subframes discarded by [`OverloadPolicy::DropSubframe`].
    pub dropped_subframes: u64,
    /// Users shed (individually or as part of a dropped subframe).
    pub shed_users: u64,
    /// Subframes demapped at degraded fidelity
    /// ([`OverloadPolicy::DegradeDemap`]).
    pub degraded_subframes: u64,
    /// HARQ statistics of the retransmission pass.
    pub harq: HarqStats,
}

/// Scheduler activity totals for one run, snapshotted from the pool the
/// run executed on — the observable face of the low-overhead stealing
/// machinery (LIFO slot, batched steals, parking).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolActivity {
    /// Tasks executed across all workers.
    pub executed_tasks: u64,
    /// Successful steals from other workers' deques.
    pub steals: u64,
    /// Steals that moved more than one task (steal-half batches).
    pub steal_batches: u64,
    /// Extra tasks moved by batched steals (beyond the popped one).
    pub batch_stolen_tasks: u64,
    /// Tasks executed straight from a worker's bounded LIFO slot.
    pub lifo_slot_hits: u64,
    /// Times any worker parked on the idle condvar.
    pub parks: u64,
}

impl PoolActivity {
    fn snapshot(pool: &TaskPool) -> Self {
        PoolActivity {
            executed_tasks: pool.executed_tasks(),
            steals: pool.steal_count(),
            steal_batches: pool.steal_batches(),
            batch_stolen_tasks: pool.batch_stolen_tasks(),
            lifo_slot_hits: pool.lifo_slot_hits(),
            parks: pool.parks(),
        }
    }
}

/// The outcome of a benchmark run.
#[derive(Debug)]
pub struct BenchmarkRun {
    /// Decoded results, `results[subframe][user]`. Users shed by an
    /// overload policy (and not redelivered by HARQ) are absent from
    /// their subframe's row.
    pub results: Vec<Vec<UserResult>>,
    /// Wall-clock duration of the parallel run.
    pub elapsed: Duration,
    /// Total useful processing time across workers (Eq. 1 sums).
    pub busy: Duration,
    /// Mean activity per Eq. 2 over the run.
    pub activity: f64,
    /// Fraction of delivered users whose CRC passed.
    pub crc_pass_rate: f64,
    /// Dispatch-to-completion latency per completed subframe, in
    /// nanoseconds (subframes with no submitted users are absent).
    pub latencies_ns: Vec<u64>,
    /// Completion stamp per completed subframe, nanoseconds from run
    /// start, in dispatch order (same filtering as `latencies_ns`).
    pub completions_ns: Vec<u64>,
    /// Overload shedding and HARQ recovery counters.
    pub degradation: DegradationReport,
    /// Scheduler counters for the run's pool.
    pub pool: PoolActivity,
}

/// The benchmark: input synthesis, dispatch, parallel processing and
/// golden-reference verification.
///
/// # Example
///
/// ```
/// use lte_uplink::{BenchmarkConfig, UplinkBenchmark};
/// use lte_model::{ParameterModel, RampModel};
/// use lte_phy::CellConfig;
///
/// let mut bench = UplinkBenchmark::new(CellConfig::default(), BenchmarkConfig {
///     workers: 2,
///     ..BenchmarkConfig::default()
/// });
/// let subframes = RampModel::new(1).subframes(3);
/// let run = bench.run(&subframes);
/// assert_eq!(run.results.len(), 3);
/// bench.verify(&subframes, &run).expect("parallel must match serial");
/// ```
pub struct UplinkBenchmark {
    cell: CellConfig,
    cfg: BenchmarkConfig,
    /// Synthesised inputs, reused across subframes with identical user
    /// configurations.
    input_cache: HashMap<UserConfig, Arc<UserInput>>,
    rng: Xoshiro256,
}

impl UplinkBenchmark {
    /// Creates a benchmark instance.
    pub fn new(cell: CellConfig, cfg: BenchmarkConfig) -> Self {
        UplinkBenchmark {
            cell,
            cfg,
            input_cache: HashMap::new(),
            rng: Xoshiro256::seed_from_u64(cfg.seed),
        }
    }

    /// The input data used for a user configuration (synthesised once,
    /// then reused — the paper's unique-input-data pool).
    pub fn input_for(&mut self, user: &UserConfig) -> Arc<UserInput> {
        if let Some(input) = self.input_cache.get(user) {
            return Arc::clone(input);
        }
        let input = Arc::new(synthesize_user_with_mode(
            &self.cell,
            user,
            self.cfg.turbo,
            self.cfg.snr_db,
            &mut self.rng,
        ));
        self.input_cache.insert(*user, Arc::clone(&input));
        input
    }

    /// Runs the parallel benchmark over a subframe sequence.
    ///
    /// # Panics
    ///
    /// Panics when the worker pool cannot be constructed; use
    /// [`try_run`](UplinkBenchmark::try_run) to handle that gracefully.
    pub fn run(&mut self, subframes: &[SubframeConfig]) -> BenchmarkRun {
        self.try_run(subframes)
            .expect("failed to start the worker pool")
    }

    /// Runs the parallel benchmark over a subframe sequence.
    ///
    /// # Errors
    ///
    /// Returns the [`PoolError`] when the worker pool cannot be spawned.
    pub fn try_run(&mut self, subframes: &[SubframeConfig]) -> Result<BenchmarkRun, PoolError> {
        self.try_run_governed(subframes, None)
    }

    /// Runs the parallel benchmark with an optional power-governance
    /// hook called at every subframe dispatch boundary, *before* the
    /// subframe's jobs are submitted.
    ///
    /// The hook receives the pool, the subframe index and the subframe's
    /// configuration; a governor uses it to measure the closing window's
    /// activity and apply a new active-worker target
    /// (`lte_power::governed_boundary`). Capping workers changes only
    /// *where and when* work runs — never what is computed — so governed
    /// decoded output is byte-identical to an ungoverned run. After the
    /// dispatch loop drains, the pool is restored to full width so the
    /// final snapshot and any reuse see an ungoverned pool.
    ///
    /// # Errors
    ///
    /// Returns the [`PoolError`] when the worker pool cannot be spawned.
    pub fn try_run_governed(
        &mut self,
        subframes: &[SubframeConfig],
        mut governed: Option<GovernHook<'_>>,
    ) -> Result<BenchmarkRun, PoolError> {
        let cell = self.cell;
        let turbo = self.cfg.turbo;
        let mut degradation = DegradationReport::default();

        // Pre-synthesise inputs on the maintenance thread (the paper does
        // this at initialisation); the dispatcher prewarms every cache
        // they touch before its clock starts.
        let inputs: Vec<Vec<Arc<UserInput>>> = subframes
            .iter()
            .map(|sf| sf.users.iter().map(|u| self.input_for(u)).collect())
            .collect();
        let warm: Vec<(CellConfig, &[UserConfig])> =
            subframes.iter().map(|sf| (cell, &sf.users[..])).collect();
        let mut d = Dispatcher::new(self.cfg.workers, turbo, &warm)?;

        let window = self.cfg.max_in_flight.map(|w| w.max(1));
        let busy_start = d.pool().busy_nanos();
        // The users each subframe actually submitted, for the harvest.
        let mut kept: Vec<Vec<usize>> = Vec::with_capacity(subframes.len());
        // Maintenance loop: dispatch each subframe at its deadline.
        for (sf_idx, (sf, sf_inputs)) in subframes.iter().zip(&inputs).enumerate() {
            d.pace(self.cfg.delta, sf_idx as u64);
            // In-flight window: hold this subframe at the door until
            // fewer than `window` earlier subframes remain open. The
            // wait lands in the dispatch stamp, so the latency
            // percentiles see the queueing delay instead of hiding it.
            if let Some(window) = window {
                d.wait_below(window, Duration::MAX);
            }
            if let Some(hook) = governed.as_deref_mut() {
                hook(d.pool(), sf_idx, sf);
            }

            // Overload policy: "behind" means an earlier subframe has
            // already reached its deadline budget and is still open at
            // this dispatch instant — benign pipelining inside the
            // budget does not engage the policy (same trigger as the
            // DES).
            let mut submit: Vec<usize> = (0..sf.n_users()).collect();
            let mut exact = self.cfg.exact_demap;
            if let Some(budget) = self.cfg.deadline {
                let behind = d
                    .oldest_open()
                    .is_some_and(|t| d.now_ns().saturating_sub(t) >= budget.budget);
                if behind && !submit.is_empty() {
                    match budget.policy {
                        OverloadPolicy::DropSubframe => {
                            degradation.dropped_subframes += 1;
                            submit.clear();
                        }
                        OverloadPolicy::ShedUsers => submit = kept_after_shed(&sf.users, None),
                        OverloadPolicy::DegradeDemap => {
                            exact = false;
                            degradation.degraded_subframes += 1;
                        }
                    }
                    degradation.shed_users += (sf.n_users() - submit.len()) as u64;
                }
            }
            d.dispatch(submit.iter().map(|&u| (&cell, &sf_inputs[u])), exact);
            kept.push(submit);
        }
        let finished = d.finish();
        if governed.is_some() {
            d.pool().set_active_workers(self.cfg.workers);
        }
        let elapsed = Duration::from_nanos(d.now_ns());
        let busy = Duration::from_nanos(d.pool().busy_nanos() - busy_start);
        let activity = busy.as_secs_f64() / (self.cfg.workers as f64 * elapsed.as_secs_f64());

        // Subframes that submitted no user carry no latency.
        let closed = finished.iter().filter(|row| !row.results.is_empty());
        let latencies_ns: Vec<u64> = closed
            .clone()
            .map(|row| row.done_ns.saturating_sub(row.dispatched_ns))
            .collect();
        let completions_ns: Vec<u64> = closed.map(|row| row.done_ns).collect();
        if let Some(budget) = self.cfg.deadline {
            degradation.overruns =
                latencies_ns.iter().filter(|&&l| l > budget.budget).count() as u64;
        }

        // One slot per scheduled user: shed users, and users lost to a
        // panicking task, stay empty.
        let mut rows: Vec<Vec<Option<UserResult>>> = Vec::with_capacity(subframes.len());
        for ((row, kept), sf) in finished.into_iter().zip(&kept).zip(subframes) {
            let mut slots: Vec<Option<UserResult>> = sf.users.iter().map(|_| None).collect();
            kept.iter()
                .zip(row.results)
                .for_each(|(&u, result)| slots[u] = result);
            rows.push(slots);
        }

        // HARQ pass: every failed or shed transport block is retried
        // with chase combining, up to the retransmission budget. Shed
        // users enter HARQ from their original (buffered) transmission.
        if self.cfg.harq > 0 {
            let mut entity = HarqEntity::new(self.cfg.harq);
            for (sf_idx, row) in rows.iter_mut().enumerate() {
                for (user_idx, slot) in row.iter_mut().enumerate() {
                    if slot.as_ref().is_some_and(|r| r.crc_ok) {
                        continue;
                    }
                    let input = &inputs[sf_idx][user_idx];
                    let mut decision = entity.on_reception(0, &cell, input, turbo, d.planner());
                    while matches!(decision, HarqDecision::Retransmit { .. }) {
                        let retx = synthesize_retransmission(
                            &cell,
                            &input.config,
                            turbo,
                            &input.ground_truth,
                            self.cfg.snr_db,
                            &mut self.rng,
                        );
                        decision = entity.on_reception(0, &cell, &retx, turbo, d.planner());
                    }
                    if let HarqDecision::Delivered { result, .. } = decision {
                        *slot = Some(result);
                    }
                }
            }
            degradation.harq = entity.stats;
        }

        let results: Vec<Vec<UserResult>> = rows
            .into_iter()
            .map(|row| row.into_iter().flatten().collect())
            .collect();
        let total_users: usize = results.iter().map(|r| r.len()).sum();
        let passed: usize = results
            .iter()
            .flat_map(|r| r.iter())
            .filter(|r| r.crc_ok)
            .count();
        Ok(BenchmarkRun {
            crc_pass_rate: if total_users == 0 {
                1.0
            } else {
                passed as f64 / total_users as f64
            },
            results,
            elapsed,
            busy,
            activity,
            latencies_ns,
            completions_ns,
            degradation,
            pool: PoolActivity::snapshot(d.pool()),
        })
    }

    /// Verifies a parallel run against the serial golden reference
    /// (§IV-D).
    ///
    /// # Errors
    ///
    /// Returns the first divergence found.
    pub fn verify(
        &mut self,
        subframes: &[SubframeConfig],
        run: &BenchmarkRun,
    ) -> Result<(), VerifyError> {
        let inputs: Vec<Vec<UserInput>> = subframes
            .iter()
            .map(|sf| {
                sf.users
                    .iter()
                    .map(|u| (*self.input_for(u)).clone())
                    .collect()
            })
            .collect();
        let golden = GoldenRecord::build(&self.cell, &inputs, self.cfg.turbo);
        golden.verify(&run.results)
    }
}

/// The `ShedUsers` overload policy: the users of a subframe that survive
/// a shed, as ascending indices. Users go cheapest-first — lowest PRB
/// count, then lowest index. With `count = None` the policy decides how
/// many: until at most half the PRB load remains, always at least one,
/// never the last one. `Some(n)` sheds `n` (at most everyone) in the same
/// order, for the soak, whose DES has already decided the count from its
/// cycle capacity.
pub(crate) fn kept_after_shed(users: &[UserConfig], count: Option<usize>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..users.len()).collect();
    order.sort_by_key(|&i| (users[i].prbs, i));
    let n_shed = match count {
        Some(n) => n.min(users.len()),
        None => {
            let total: usize = users.iter().map(|u| u.prbs).sum();
            let (mut kept, mut shed) = (total, 0);
            while users.len() - shed > 1 && (shed == 0 || kept * 2 > total) {
                kept -= users[order[shed]].prbs;
                shed += 1;
            }
            shed
        }
    };
    order.drain(..n_shed);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_model::{ParameterModel, RampModel};

    fn quick_cfg() -> BenchmarkConfig {
        BenchmarkConfig {
            workers: 4,
            delta: Duration::from_millis(1),
            snr_db: 30.0,
            turbo: TurboMode::Passthrough,
            seed: 7,
            ..BenchmarkConfig::default()
        }
    }

    #[test]
    fn parallel_matches_serial_golden_reference() {
        let mut bench = UplinkBenchmark::new(CellConfig::with_antennas(2), quick_cfg());
        let subframes = RampModel::new(3).subframes(5);
        let run = bench.run(&subframes);
        bench
            .verify(&subframes, &run)
            .expect("parallel and serial must agree bit-exactly");
    }

    #[test]
    fn high_snr_run_passes_crc() {
        let mut bench = UplinkBenchmark::new(CellConfig::with_antennas(2), quick_cfg());
        // Small fixed allocation, clean channel.
        let subframes = vec![SubframeConfig::new(vec![UserConfig::new(
            4,
            1,
            lte_dsp::Modulation::Qpsk,
        )])];
        let run = bench.run(&subframes);
        assert_eq!(run.crc_pass_rate, 1.0);
    }

    #[test]
    fn input_cache_reuses_data() {
        let mut bench = UplinkBenchmark::new(CellConfig::default(), quick_cfg());
        let u = UserConfig::new(6, 2, lte_dsp::Modulation::Qam16);
        let a = bench.input_for(&u);
        let b = bench.input_for(&u);
        assert!(Arc::ptr_eq(&a, &b), "same config must reuse input data");
    }

    #[test]
    fn activity_is_positive_and_bounded() {
        let mut bench = UplinkBenchmark::new(CellConfig::with_antennas(2), quick_cfg());
        let subframes = RampModel::new(4).subframes(3);
        let run = bench.run(&subframes);
        assert!(run.activity > 0.0, "some work must have happened");
        // Helping threads can make busy/elapsed slightly exceed worker
        // count × wall in theory; sanity-bound it.
        assert!(run.activity < 1.5, "activity {} absurd", run.activity);
    }

    #[test]
    fn empty_subframe_sequence() {
        let mut bench = UplinkBenchmark::new(CellConfig::default(), quick_cfg());
        let run = bench.run(&[]);
        assert!(run.results.is_empty());
        assert_eq!(run.crc_pass_rate, 1.0);
    }

    #[test]
    fn zero_workers_is_a_clean_error() {
        let mut bench = UplinkBenchmark::new(
            CellConfig::default(),
            BenchmarkConfig {
                workers: 0,
                ..quick_cfg()
            },
        );
        assert!(matches!(
            bench.try_run(&RampModel::new(1).subframes(1)),
            Err(lte_sched::PoolError::ZeroWorkers)
        ));
    }

    #[test]
    fn windowed_pipeline_matches_golden_reference() {
        // A tight in-flight window with a zero dispatch interval keeps
        // several subframes in the pipeline at once; results must still
        // be byte-identical to the serial reference.
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                delta: Duration::ZERO,
                max_in_flight: Some(2),
                ..quick_cfg()
            },
        );
        let subframes = RampModel::new(3).subframes(6);
        let run = bench.run(&subframes);
        bench
            .verify(&subframes, &run)
            .expect("pipelined subframes must stay bit-exact");
        // Every subframe completed and carries a latency stamp.
        assert_eq!(run.latencies_ns.len(), 6);
    }

    #[test]
    fn window_of_one_serialises_subframes() {
        // With a window of 1 a subframe is only admitted after its
        // predecessor fully completed: completions are monotone in
        // dispatch order and nothing overlaps.
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                delta: Duration::ZERO,
                max_in_flight: Some(1),
                ..quick_cfg()
            },
        );
        let subframes = RampModel::new(2).subframes(4);
        let run = bench.run(&subframes);
        bench.verify(&subframes, &run).expect("bit-exact");
        for pair in run.completions_ns.windows(2) {
            assert!(pair[0] <= pair[1], "window=1 must serialise completions");
        }
    }

    /// A user whose task graph panics — a truncated reference symbol
    /// trips the matched filter's length check in its slot-0 estimation
    /// tasks — is lost, not waited for: a window of one must still
    /// admit the next subframe, and the lost user is absent from its
    /// row. The run goes on a helper thread so a hang fails the test.
    #[test]
    fn panicking_user_graph_does_not_wedge_a_windowed_run() {
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let mut bench = UplinkBenchmark::new(
                CellConfig::with_antennas(2),
                BenchmarkConfig {
                    max_in_flight: Some(1),
                    ..quick_cfg()
                },
            );
            let bad = UserConfig::new(4, 1, lte_dsp::Modulation::Qpsk);
            let mut input = (*bench.input_for(&bad)).clone();
            let reference = &input.slots[0].reference;
            let (n_rx, n_sc) = (reference.n_rx(), reference.n_sc());
            input.slots[0].reference = lte_phy::grid::RxSymbol::zeros(n_rx, n_sc - 1);
            bench.input_cache.insert(bad, Arc::new(input));
            let good = UserConfig::new(6, 1, lte_dsp::Modulation::Qpsk);
            let subframes = [
                SubframeConfig::new(vec![bad]),
                SubframeConfig::new(vec![good]),
            ];
            let run = bench.try_run(&subframes).expect("the pool starts");
            let rows: Vec<usize> = run.results.iter().map(Vec::len).collect();
            let _ = done.send((rows, run.completions_ns.len()));
        });
        let (rows, closed) = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("a lost user must not hang a windowed run");
        helper.join().unwrap();
        assert_eq!(rows, [0, 1], "the lost user is absent, the next decodes");
        assert_eq!(closed, 2, "both subframes close");
    }

    #[test]
    fn exact_demap_decodes_at_high_snr() {
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                exact_demap: true,
                ..quick_cfg()
            },
        );
        let subframes = vec![SubframeConfig::new(vec![UserConfig::new(
            4,
            1,
            lte_dsp::Modulation::Qam16,
        )])];
        let run = bench.run(&subframes);
        assert_eq!(run.crc_pass_rate, 1.0);
    }

    /// Overload setup: zero dispatch interval means every subframe after
    /// the first is dispatched while its predecessor is still in flight,
    /// so the policy triggers on (nearly) every subframe.
    fn pressured_cfg(policy: OverloadPolicy) -> BenchmarkConfig {
        BenchmarkConfig {
            workers: 2,
            delta: Duration::ZERO,
            deadline: Some(DeadlineBudget { budget: 1, policy }),
            ..quick_cfg()
        }
    }

    /// Six identical three-user subframes — enough PHY work per subframe
    /// that a zero-delta dispatch is always behind.
    fn pressured_subframes() -> Vec<SubframeConfig> {
        vec![
            SubframeConfig::new(vec![
                UserConfig::new(2, 1, lte_dsp::Modulation::Qpsk),
                UserConfig::new(4, 1, lte_dsp::Modulation::Qpsk),
                UserConfig::new(8, 2, lte_dsp::Modulation::Qam16),
            ]);
            6
        ]
    }

    #[test]
    fn drop_policy_sheds_whole_subframes_and_harq_redelivers() {
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                harq: 2,
                ..pressured_cfg(OverloadPolicy::DropSubframe)
            },
        );
        let subframes = pressured_subframes();
        let run = bench.run(&subframes);
        let d = &run.degradation;
        assert!(d.dropped_subframes > 0, "pressure must drop subframes");
        assert!(d.overruns > 0, "a 1 ns budget is always overrun");
        // HARQ redelivers every shed user from its buffered first
        // transmission, so no transport block is lost.
        let delivered: usize = run.results.iter().map(Vec::len).sum();
        let expected: usize = subframes.iter().map(SubframeConfig::n_users).sum();
        assert_eq!(delivered, expected, "HARQ must redeliver dropped users");
        assert!(d.harq.transmissions >= d.shed_users);
    }

    fn users_with_prbs(prbs: &[usize]) -> Vec<UserConfig> {
        prbs.iter()
            .map(|&p| UserConfig::new(p, 1, lte_dsp::Modulation::Qpsk))
            .collect()
    }

    #[test]
    fn shed_policy_invariants_hold_on_random_subframes() {
        let mut rng = Xoshiro256::seed_from_u64(0x5ED);
        for case in 0..200 {
            let n = 2 + rng.next_below(9) as usize;
            let prbs: Vec<usize> = (0..n).map(|_| 2 + rng.next_below(40) as usize).collect();
            let users = users_with_prbs(&prbs);
            let kept = kept_after_shed(&users, None);
            let total: usize = prbs.iter().sum();
            let kept_prbs: usize = kept.iter().map(|&i| prbs[i]).sum();
            // Always shed one, always keep one.
            assert!(
                !kept.is_empty() && kept.len() < n,
                "case {case}: {prbs:?} -> {kept:?}"
            );
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "ascending indices");
            // At most half the PRB load remains, unless only one is left.
            assert!(
                kept_prbs * 2 <= total || kept.len() == 1,
                "case {case}: {prbs:?}"
            );
            // Cheapest first: every shed user sorts before every kept one,
            // and shedding stopped as soon as the rule allowed.
            let key = |i: usize| (prbs[i], i);
            let cheapest_kept = kept.iter().map(|&i| key(i)).min().unwrap();
            let shed: Vec<usize> = (0..n).filter(|i| !kept.contains(i)).collect();
            let dearest_shed = shed.iter().map(|&i| key(i)).max().unwrap();
            assert!(
                dearest_shed < cheapest_kept,
                "case {case}: {prbs:?} -> {kept:?}"
            );
            assert!(
                shed.len() == 1 || (kept_prbs + dearest_shed.0) * 2 > total,
                "case {case}: shed more than needed, {prbs:?} -> {kept:?}"
            );
        }
    }

    #[test]
    fn shed_policy_edges() {
        // A single user (or none) is never shed.
        assert_eq!(kept_after_shed(&users_with_prbs(&[7]), None), [0]);
        assert!(kept_after_shed(&[], None).is_empty());
        // All-equal PRBs: the index breaks the tie, half the load goes.
        assert_eq!(kept_after_shed(&users_with_prbs(&[5; 4]), None), [2, 3]);
        assert_eq!(kept_after_shed(&users_with_prbs(&[5; 5]), None), [3, 4]);
        // Two users: one is shed even though half the load already fits.
        assert_eq!(kept_after_shed(&users_with_prbs(&[9, 9]), None), [1]);
        // A count decided elsewhere sheds exactly that many, same order.
        let users = users_with_prbs(&[8, 2, 8, 2, 30]);
        assert_eq!(kept_after_shed(&users, Some(0)), [0, 1, 2, 3, 4]);
        assert_eq!(kept_after_shed(&users, Some(3)), [2, 4]);
        assert!(kept_after_shed(&users, Some(9)).is_empty());
        assert_eq!(kept_after_shed(&users, None), [4]);
    }

    #[test]
    fn shed_policy_drops_cheapest_users_and_keeps_one() {
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            pressured_cfg(OverloadPolicy::ShedUsers),
        );
        let subframes = pressured_subframes();
        let run = bench.run(&subframes);
        assert!(run.degradation.shed_users > 0, "pressure must shed users");
        let delivered: usize = run.results.iter().map(Vec::len).sum();
        let expected: usize = subframes.iter().map(SubframeConfig::n_users).sum();
        assert_eq!(
            delivered + run.degradation.shed_users as usize,
            expected,
            "every user is either delivered or counted as shed"
        );
        for (sf, row) in subframes.iter().zip(&run.results) {
            if sf.n_users() > 0 {
                assert!(!row.is_empty(), "shedding must keep at least one user");
            }
        }
    }

    #[test]
    fn degrade_policy_counts_degraded_subframes() {
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                exact_demap: true,
                ..pressured_cfg(OverloadPolicy::DegradeDemap)
            },
        );
        let subframes = pressured_subframes();
        let run = bench.run(&subframes);
        assert!(run.degradation.degraded_subframes > 0);
        // Degrading fidelity sheds nothing: every user is delivered.
        let delivered: usize = run.results.iter().map(Vec::len).sum();
        let expected: usize = subframes.iter().map(SubframeConfig::n_users).sum();
        assert_eq!(delivered, expected);
    }

    #[test]
    fn harq_pass_recovers_low_snr_failures() {
        // At -6 dB QPSK single shots mostly fail; chase combining over
        // independently faded retransmissions recovers them.
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                snr_db: -6.0,
                harq: 6,
                ..quick_cfg()
            },
        );
        let subframes = vec![
            SubframeConfig::new(vec![
                UserConfig::new(2, 1, lte_dsp::Modulation::Qpsk),
                UserConfig::new(3, 1, lte_dsp::Modulation::Qpsk),
            ]);
            3
        ];
        let run = bench.run(&subframes);
        let d = &run.degradation;
        assert!(
            d.harq.transmissions > 0,
            "low SNR must push blocks into HARQ"
        );
        assert!(
            run.crc_pass_rate > 0.5,
            "combining should recover most blocks, got {}",
            run.crc_pass_rate
        );
    }
}

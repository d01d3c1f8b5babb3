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
//! *spawns* the next stage (see `spawn_user_graph`), so independent
//! users — and independent subframes — pipeline freely through the
//! pool. The maintenance loop bounds that freedom with a configurable
//! in-flight window ([`BenchmarkConfig::max_in_flight`]) so latency
//! percentiles stay honest under backlog.
//!
//! Subframe input data are synthesised once per distinct user
//! configuration and reused (§IV-B1: data sets are "created for multiple
//! subframes and then reused across all dispatched subframes").

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::prewarm_subblock;
use lte_dsp::llr::{demap_block_exact_into, demap_block_into};
use lte_dsp::{Complex32, Xoshiro256};
use lte_fault::{DeadlineBudget, OverloadPolicy};
use lte_phy::combiner::{combine_symbol_into, CombinerWeights};
use lte_phy::estimator::estimate_path_into;
use lte_phy::grid::UserInput;
use lte_phy::harq::{HarqDecision, HarqEntity, HarqStats};
use lte_phy::params::{
    CellConfig, SubframeConfig, TurboMode, UserConfig, DATA_SYMBOLS_PER_SLOT, SLOTS_PER_SUBFRAME,
};
use lte_phy::receiver::{finish_user_with_arena, UserResult, UserScratch};
use lte_phy::tx::{prewarm_references, synthesize_retransmission, synthesize_user_with_mode};
use lte_phy::verify::{GoldenRecord, VerifyError};
use lte_sched::{PoolError, PoolHandle, TaskPool};

/// A power-governance hook invoked at every subframe dispatch boundary,
/// before the subframe's jobs are submitted (see
/// [`UplinkBenchmark::try_run_governed`]).
pub type GovernHook<'a> = &'a mut dyn FnMut(&TaskPool, usize, &SubframeConfig);

/// Live telemetry sinks for a benchmark run, recorded from worker-side
/// completion callbacks with no locking and no allocation.
///
/// * `latency` — subframe completion latency in nanoseconds (dispatch to
///   last user done), recorded by the worker that closes the subframe.
/// * `ebler` — per-user decode outcomes keyed by layer count, mirroring
///   the R&S BLER measurement surface: every delivered user records
///   ack/nack from its *first* transmission (HARQ recoveries are a
///   separate counter), every shed user records dtx at shed time.
///
/// Attach one instance across several runs to aggregate, or snapshot and
/// reset between runs to window.
pub struct BenchmarkTelemetry {
    /// Subframe completion latency histogram (nanoseconds).
    pub latency: lte_obs::Histogram,
    /// Decode-outcome surface, streams keyed by `layers - 1`.
    pub ebler: lte_obs::EblerAccumulator,
}

impl BenchmarkTelemetry {
    /// A sink with one EBLER stream per spatial-multiplexing order.
    #[must_use]
    pub fn new(streams: usize) -> Self {
        BenchmarkTelemetry {
            latency: lte_obs::Histogram::new(),
            ebler: lte_obs::EblerAccumulator::new(streams),
        }
    }

    /// The EBLER stream for a user: its spatial-multiplexing order,
    /// clamped to the surface width.
    #[must_use]
    pub fn stream_for(&self, layers: usize) -> usize {
        layers.saturating_sub(1).min(self.ebler.streams() - 1)
    }
}

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

/// Waits for a dispatch deadline without pegging a host CPU: sleeps to
/// within `SPIN_SLACK` of the deadline (OS timers overshoot by up to a
/// timer tick), then spins the final stretch for precision.
pub(crate) fn pace_until(deadline: Instant) {
    const SPIN_SLACK: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN_SLACK {
            std::thread::sleep(left - SPIN_SLACK);
        } else {
            break;
        }
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Offset of dispatch boundary `tick` from the run start at interval
/// `delta`, in 64-bit nanoseconds: exact for any tick count a
/// run-until-drained service can reach, saturating (≈ 584 years) rather
/// than wrapping or panicking beyond that.
pub(crate) fn tick_offset(delta: Duration, tick: u64) -> Duration {
    let delta_ns = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(delta_ns.saturating_mul(tick))
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
    /// Optional live telemetry sinks, shared with completion callbacks.
    telemetry: Option<Arc<BenchmarkTelemetry>>,
}

impl UplinkBenchmark {
    /// Creates a benchmark instance.
    pub fn new(cell: CellConfig, cfg: BenchmarkConfig) -> Self {
        UplinkBenchmark {
            cell,
            cfg,
            input_cache: HashMap::new(),
            rng: Xoshiro256::seed_from_u64(cfg.seed),
            telemetry: None,
        }
    }

    /// Attaches live telemetry sinks. Completion callbacks record each
    /// subframe's latency and every user's decode outcome into the
    /// shared sinks as they happen — atomic stores only, no allocation,
    /// no effect on the decoded output.
    pub fn attach_telemetry(&mut self, sinks: Arc<BenchmarkTelemetry>) {
        self.telemetry = Some(sinks);
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
        let pool = TaskPool::new(self.cfg.workers)?;
        let handle = pool.handle();
        let planner = Arc::new(FftPlanner::new());
        let cell = self.cell;
        let turbo = self.cfg.turbo;
        let telemetry = self.telemetry.clone();
        let mut degradation = DegradationReport::default();

        // Result slots, one per (subframe, user), plus per-subframe open
        // counters and completion stamps for the deadline accounting.
        let results: Arc<Vec<Vec<OnceLock<UserResult>>>> = Arc::new(
            subframes
                .iter()
                .map(|sf| (0..sf.n_users()).map(|_| OnceLock::new()).collect())
                .collect(),
        );
        let open: Arc<Vec<AtomicUsize>> = Arc::new(
            subframes
                .iter()
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );
        let done_at: Arc<Vec<OnceLock<u64>>> = Arc::new(
            subframes
                .iter()
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>(),
        );

        // Pre-synthesise inputs on the maintenance thread (the paper does
        // this at initialisation).
        let inputs: Vec<Vec<Arc<UserInput>>> = subframes
            .iter()
            .map(|sf| sf.users.iter().map(|u| self.input_for(u)).collect())
            .collect();

        // Prewarm every cache the steady-state path reads — FFT plans,
        // sub-block interleavers and DM-RS reference sequences — so no
        // worker ever takes a cache's write lock after the first
        // dispatch.
        for sf in subframes {
            planner.prewarm(sf.users.iter().map(|u| u.prbs));
            prewarm_subblock(sf.users.iter().map(|u| u.bits_per_subframe()));
            for u in &sf.users {
                prewarm_references(&cell, u);
            }
        }

        // In-flight accounting for the pipelining window: a counter of
        // dispatched-but-incomplete subframes guarded by a mutex, with a
        // condvar the completion callbacks signal. A condvar sleep (not
        // a poll) keeps the maintenance thread off the CPU while it
        // waits — on small hosts a polling dispatcher would steal cycles
        // from the very workers it is waiting for.
        let window = self.cfg.max_in_flight.map(|w| w.max(1));
        let in_flight: Arc<(Mutex<usize>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));

        let start = Instant::now();
        let busy_start = pool.busy_nanos();
        let mut dispatched_at = vec![0u64; subframes.len()];
        // Maintenance loop: dispatch each subframe at its deadline.
        for (sf_idx, sf_inputs) in inputs.iter().enumerate() {
            pace_until(start + tick_offset(self.cfg.delta, sf_idx as u64));
            // In-flight window: hold this subframe at the door until
            // fewer than `window` earlier subframes remain open. The
            // wait lands in the dispatch stamp below, so the latency
            // percentiles see the queueing delay instead of hiding it.
            if let Some(window) = window {
                let (lock, cv) = &*in_flight;
                let mut count = lock.lock().unwrap_or_else(PoisonError::into_inner);
                while *count >= window {
                    count = cv.wait(count).unwrap_or_else(PoisonError::into_inner);
                }
            }
            if let Some(hook) = governed.as_deref_mut() {
                hook(&pool, sf_idx, &subframes[sf_idx]);
            }
            dispatched_at[sf_idx] = start.elapsed().as_nanos() as u64;

            // Overload policy: "behind" means an earlier subframe has
            // already reached its deadline budget and is still open at
            // this dispatch instant — benign pipelining inside the
            // budget does not engage the policy (same trigger as the
            // DES).
            let mut submit: Vec<usize> = (0..sf_inputs.len()).collect();
            let mut exact = self.cfg.exact_demap;
            if let Some(budget) = self.cfg.deadline {
                let behind = (0..sf_idx).any(|i| {
                    open[i].load(Ordering::SeqCst) > 0
                        && dispatched_at[sf_idx].saturating_sub(dispatched_at[i]) >= budget.budget
                });
                if behind && !sf_inputs.is_empty() {
                    match budget.policy {
                        OverloadPolicy::DropSubframe => {
                            degradation.dropped_subframes += 1;
                            degradation.shed_users += submit.len() as u64;
                            if let Some(t) = &telemetry {
                                for &i in &submit {
                                    t.ebler.record_dtx(
                                        t.stream_for(subframes[sf_idx].users[i].layers),
                                    );
                                }
                            }
                            submit.clear();
                        }
                        OverloadPolicy::ShedUsers => {
                            let users = &subframes[sf_idx].users;
                            submit = kept_after_shed(users, None);
                            if let Some(t) = &telemetry {
                                for (i, user) in users.iter().enumerate() {
                                    if !submit.contains(&i) {
                                        t.ebler.record_dtx(t.stream_for(user.layers));
                                    }
                                }
                            }
                            degradation.shed_users += (users.len() - submit.len()) as u64;
                        }
                        OverloadPolicy::DegradeDemap => {
                            exact = false;
                            degradation.degraded_subframes += 1;
                        }
                    }
                }
            }

            // The open count must be in place before any graph can finish.
            open[sf_idx].store(submit.len(), Ordering::SeqCst);
            let tracked = window.is_some() && !submit.is_empty();
            if tracked {
                *in_flight.0.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            }
            for user_idx in submit {
                let results = Arc::clone(&results);
                let open = Arc::clone(&open);
                let done_at = Arc::clone(&done_at);
                let in_flight = tracked.then(|| Arc::clone(&in_flight));
                let tel = telemetry.clone();
                let dispatched = dispatched_at[sf_idx];
                let layers = subframes[sf_idx].users[user_idx].layers;
                spawn_user_graph(
                    &handle,
                    &cell,
                    &sf_inputs[user_idx],
                    turbo,
                    &planner,
                    exact,
                    Box::new(move |result| {
                        if let Some(t) = &tel {
                            t.ebler.record_decode(
                                t.stream_for(layers),
                                result.crc_ok,
                                result.payload.len() as u64,
                            );
                        }
                        results[sf_idx][user_idx]
                            .set(result)
                            .expect("each user slot is written once");
                        if open[sf_idx].fetch_sub(1, Ordering::SeqCst) == 1 {
                            let completed = start.elapsed().as_nanos() as u64;
                            let _ = done_at[sf_idx].set(completed);
                            if let Some(t) = &tel {
                                t.latency.record(completed.saturating_sub(dispatched));
                            }
                            if let Some(in_flight) = &in_flight {
                                let (lock, cv) = &**in_flight;
                                *lock.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
                                cv.notify_one();
                            }
                        }
                    }),
                );
            }
        }
        pool.wait_all();
        if governed.is_some() {
            pool.set_active_workers(self.cfg.workers);
        }
        let elapsed = start.elapsed();
        let busy = Duration::from_nanos(pool.busy_nanos() - busy_start);
        let activity = busy.as_secs_f64() / (self.cfg.workers as f64 * elapsed.as_secs_f64());

        if let Some(budget) = self.cfg.deadline {
            for (sf_idx, done) in done_at.iter().enumerate() {
                if let Some(&completed) = done.get() {
                    if completed.saturating_sub(dispatched_at[sf_idx]) > budget.budget {
                        degradation.overruns += 1;
                    }
                }
            }
        }
        let latencies_ns: Vec<u64> = done_at
            .iter()
            .enumerate()
            .filter_map(|(i, done)| {
                done.get()
                    .map(|&completed| completed.saturating_sub(dispatched_at[i]))
            })
            .collect();
        let completions_ns: Vec<u64> = done_at.iter().filter_map(|d| d.get().copied()).collect();

        let mut rows: Vec<Vec<Option<UserResult>>> = Arc::try_unwrap(results)
            .expect("pool drained, no outstanding references")
            .into_iter()
            .map(|row| row.into_iter().map(OnceLock::into_inner).collect())
            .collect();

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
                    let mut decision =
                        entity.on_reception(0, &cell, input, turbo, planner.as_ref());
                    while matches!(decision, HarqDecision::Retransmit { .. }) {
                        let retx = synthesize_retransmission(
                            &cell,
                            &input.config,
                            turbo,
                            &input.ground_truth,
                            self.cfg.snr_db,
                            &mut self.rng,
                        );
                        decision = entity.on_reception(0, &cell, &retx, turbo, planner.as_ref());
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
            pool: PoolActivity::snapshot(&pool),
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

/// A flat buffer whose disjoint ranges are written concurrently by pool
/// tasks and read only after a completion counter joins every writer.
///
/// The paper's task decomposition makes the ranges disjoint by
/// construction — every (slot, rx, layer) or (slot, symbol, layer)
/// tuple maps to its own block — so tasks need neither a mutex to park
/// results in nor a per-task allocation to hold them.
struct SharedBuf<T> {
    cells: Vec<UnsafeCell<T>>,
}

// SAFETY: writers touch disjoint ranges (enforced by the dispatcher's
// index arithmetic), and readers only run after the pool scope joins
// all writers, which synchronises the stores.
unsafe impl<T: Send> Sync for SharedBuf<T> {}

impl<T: Copy> SharedBuf<T> {
    fn new(len: usize, fill: T) -> Self {
        let mut cells = Vec::new();
        cells.resize_with(len, || UnsafeCell::new(fill));
        SharedBuf { cells }
    }

    /// A mutable view of `start..start + len`.
    ///
    /// # Safety
    ///
    /// No other live reference may overlap the range for the lifetime
    /// of the returned slice.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.cells.len(), "range out of bounds");
        let base = UnsafeCell::raw_get(self.cells.as_ptr().add(start));
        std::slice::from_raw_parts_mut(base, len)
    }
}

/// Shared state of one user's dependency-ordered task graph.
///
/// This replaces the old two-barrier design (estimate tasks → scope
/// join → weights on the user thread → combine tasks → scope join →
/// serial tail), where each user *blocked a worker* for its whole
/// pipeline. Here the last task of each stage spawns the next stage, so
/// no thread ever waits:
///
/// ```text
/// est(slot 0, rx, layer) ┐
///        …               ├─ last one → weights(0) → combine(0, sym, layer) ┐
/// est(slot 0, rx, layer) ┘                                  …              ├─┐
/// est(slot 1, rx, layer) ┐                                                 ┘ │
///        …               ├─ last one → weights(1) → combine(1, sym, layer) ┐ ├─ last → finish
/// est(slot 1, rx, layer) ┘                                  …              ├─┘
///                                                                          ┘
/// ```
///
/// Byte-identity with the serial reference holds because every task
/// computes the same arithmetic on the same inputs into its own
/// disjoint output range; the counters only decide *when* stages run,
/// never *what* they compute.
type UserDone = Box<dyn FnOnce(UserResult) + Send>;

struct UserGraph {
    cell: CellConfig,
    input: Arc<UserInput>,
    turbo: TurboMode,
    exact_demap: bool,
    planner: Arc<FftPlanner>,
    /// Flat `[slot][rx][layer][subcarrier]` channel-estimate buffer.
    est_buf: SharedBuf<Complex32>,
    /// Estimation tasks still outstanding, per slot.
    est_remaining: [AtomicUsize; SLOTS_PER_SUBFRAME],
    /// Per-slot combiner weights, set by the slot's last estimation task
    /// before any of the slot's combine tasks exist.
    weights: [OnceLock<CombinerWeights>; SLOTS_PER_SUBFRAME],
    /// Flat LLR buffer in the transmitter's bit order.
    llr_buf: SharedBuf<f32>,
    /// Combine tasks still outstanding across both slots.
    combine_remaining: AtomicUsize,
    /// Completion callback, taken exactly once by the join task.
    on_done: Mutex<Option<UserDone>>,
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

/// Spawns one user's dependency-ordered task graph onto the pool and
/// returns immediately; `on_done` runs on a worker thread once the
/// user's result is ready. [`TaskPool::wait_all`] covers every task of
/// the graph, including ones spawned after the call returns.
///
/// `exact_demap` selects the log-sum-exp demapper over max-log.
///
/// Steady-state allocation discipline: every task draws its working
/// buffers from its worker's thread-local [`UserScratch`] arena and
/// writes results into a shared flat buffer; the per-user cost is the
/// graph node (two flat buffers) and the boxed task closures.
pub(crate) fn spawn_user_graph(
    handle: &PoolHandle,
    cell: &CellConfig,
    input: &Arc<UserInput>,
    turbo: TurboMode,
    planner: &Arc<FftPlanner>,
    exact_demap: bool,
    on_done: Box<dyn FnOnce(UserResult) + Send>,
) {
    // The graph (and its two flat buffers) is built by a small *root*
    // task on whichever worker picks the user up, not at dispatch time:
    // under a deep admission backlog the dispatcher may queue hundreds
    // of subframes ahead of the workers, and eager construction would
    // hold every queued user's estimate and LLR buffers live at once.
    let cell = *cell;
    let input = Arc::clone(input);
    let planner = Arc::clone(planner);
    let root = handle.clone();
    handle.spawn(move || {
        let user = input.config;
        let n_rx = cell.n_rx;
        let n_layers = user.layers;
        let n_sc = user.subcarriers();
        let chunk_bits = n_sc * user.modulation.bits_per_symbol();
        let n_chunks = SLOTS_PER_SUBFRAME * DATA_SYMBOLS_PER_SLOT * n_layers;
        let graph = Arc::new(UserGraph {
            cell,
            input,
            turbo,
            exact_demap,
            planner,
            est_buf: SharedBuf::new(SLOTS_PER_SUBFRAME * n_rx * n_layers * n_sc, Complex32::ZERO),
            est_remaining: std::array::from_fn(|_| AtomicUsize::new(n_rx * n_layers)),
            weights: std::array::from_fn(|_| OnceLock::new()),
            llr_buf: SharedBuf::new(n_chunks * chunk_bits, 0f32),
            combine_remaining: AtomicUsize::new(n_chunks),
            on_done: Mutex::new(Some(on_done)),
        });
        for slot in 0..SLOTS_PER_SUBFRAME {
            for rx in 0..n_rx {
                for layer in 0..n_layers {
                    let graph = Arc::clone(&graph);
                    let inner = root.clone();
                    root.spawn(move || estimate_task(&inner, &graph, slot, rx, layer));
                }
            }
        }
    });
}

/// One channel-estimation task: (slot, rx, layer). The slot's last
/// estimator also computes the combiner weights — cache-hot over the
/// estimates it just joined — and fans out the slot's combine tasks.
fn estimate_task(
    handle: &PoolHandle,
    graph: &Arc<UserGraph>,
    slot: usize,
    rx: usize,
    layer: usize,
) {
    let user = &graph.input.config;
    let n_rx = graph.cell.n_rx;
    let n_layers = user.layers;
    let n_sc = user.subcarriers();
    let idx = (slot * n_rx + rx) * n_layers + layer;
    // SAFETY: each (slot, rx, layer) tuple owns its range.
    let out = unsafe { graph.est_buf.slice_mut(idx * n_sc, n_sc) };
    UserScratch::with(|s| {
        estimate_path_into(
            &graph.cell,
            &graph.input,
            slot,
            rx,
            layer,
            &graph.planner,
            &mut s.arena,
            out,
        );
    });
    if graph.est_remaining[slot].fetch_sub(1, Ordering::SeqCst) == 1 {
        let base = slot * n_rx * n_layers * n_sc;
        // SAFETY: the counter joined every writer of this slot's range;
        // other slots' writers touch disjoint ranges.
        let flat = unsafe { graph.est_buf.slice_mut(base, n_rx * n_layers * n_sc) };
        let w = UserScratch::with(|s| {
            s.weights_from_flat_estimate(n_rx, n_layers, n_sc, flat, graph.input.noise_var)
        });
        assert!(
            graph.weights[slot].set(w).is_ok(),
            "weights are computed once per slot"
        );
        for sym in 0..DATA_SYMBOLS_PER_SLOT {
            for layer in 0..n_layers {
                let graph = Arc::clone(graph);
                let inner = handle.clone();
                handle.spawn(move || combine_task(&inner, &graph, slot, sym, layer));
            }
        }
    }
}

/// One combine + demap task: (slot, symbol, layer), writing straight
/// into the flat LLR buffer in the transmitter's bit order. The last
/// one spawns the serial join.
fn combine_task(
    handle: &PoolHandle,
    graph: &Arc<UserGraph>,
    slot: usize,
    sym: usize,
    layer: usize,
) {
    let user = &graph.input.config;
    let n_sc = user.subcarriers();
    let chunk_bits = n_sc * user.modulation.bits_per_symbol();
    let idx = (slot * DATA_SYMBOLS_PER_SLOT + sym) * user.layers + layer;
    let weights = graph.weights[slot]
        .get()
        .expect("weights are set before the slot's combines are spawned");
    // SAFETY: each (slot, symbol, layer) tuple owns its range.
    let out = unsafe { graph.llr_buf.slice_mut(idx * chunk_bits, chunk_bits) };
    UserScratch::with(|s| {
        let mut combined = s.arena.take_c32(n_sc);
        combine_symbol_into(
            &graph.input,
            weights,
            slot,
            sym,
            layer,
            &graph.planner,
            &mut s.arena,
            &mut combined,
        );
        let mut llrs = s.arena.take_f32(chunk_bits);
        if graph.exact_demap {
            demap_block_exact_into(user.modulation, &combined, graph.input.noise_var, &mut llrs);
        } else {
            demap_block_into(user.modulation, &combined, graph.input.noise_var, &mut llrs);
        }
        out.copy_from_slice(&llrs);
        s.arena.recycle_f32(llrs);
        s.arena.recycle_c32(combined);
    });
    if graph.combine_remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        let graph = Arc::clone(graph);
        handle.spawn(move || finish_task(&graph));
    }
}

/// The serial join: deinterleave → turbo (pass-through) → CRC on the
/// completed LLR buffer, then the completion callback.
fn finish_task(graph: &UserGraph) {
    let total = graph.input.config.bits_per_subframe();
    // SAFETY: the combine counter joined every writer; this task is the
    // only remaining accessor.
    let llrs = unsafe { graph.llr_buf.slice_mut(0, total) };
    let result = UserScratch::with(|s| {
        finish_user_with_arena(
            &graph.cell,
            &graph.input,
            graph.turbo,
            llrs,
            &mut s.arena,
            &mut s.turbo,
        )
    });
    let cb = graph
        .on_done
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
        .expect("the join task runs once");
    cb(result);
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
    fn tick_offset_neither_truncates_nor_overflows() {
        let ms = Duration::from_millis(1);
        assert_eq!(tick_offset(ms, 0), Duration::ZERO);
        assert_eq!(tick_offset(ms, 7), Duration::from_millis(7));
        assert_eq!(tick_offset(Duration::ZERO, u64::MAX), Duration::ZERO);
        // Past 2^32 ticks (49.7 days at 1 ms) the offset keeps growing;
        // a 32-bit tick would wrap this one back to 1 ms.
        let tick = u32::MAX as u64 + 2;
        assert_eq!(tick_offset(ms, tick), Duration::from_millis(tick));
        // Beyond 64-bit nanoseconds the offset saturates.
        let cap = Duration::from_nanos(u64::MAX);
        assert_eq!(tick_offset(Duration::from_secs(1), u64::MAX / 2), cap);
        assert_eq!(tick_offset(Duration::MAX, 1), cap);
        assert_eq!(tick_offset(Duration::MAX, 0), Duration::ZERO);
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

    #[test]
    fn telemetry_sinks_see_every_user_and_subframe() {
        let sinks = Arc::new(BenchmarkTelemetry::new(4));
        let mut bench = UplinkBenchmark::new(CellConfig::with_antennas(2), quick_cfg());
        bench.attach_telemetry(Arc::clone(&sinks));
        let subframes = RampModel::new(2).subframes(4);
        let run = bench.run(&subframes);
        bench
            .verify(&subframes, &run)
            .expect("telemetry must not change the decoded output");
        let latency = sinks.latency.snapshot();
        assert_eq!(latency.count, run.latencies_ns.len() as u64);
        let surface = sinks.ebler.snapshot();
        let expected: u64 = subframes.iter().map(|sf| sf.n_users() as u64).sum();
        assert_eq!(surface.total.measured(), expected);
        assert_eq!(surface.total.dtx, 0);
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
    fn telemetry_counts_shed_users_as_dtx() {
        let sinks = Arc::new(BenchmarkTelemetry::new(4));
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            pressured_cfg(OverloadPolicy::ShedUsers),
        );
        bench.attach_telemetry(Arc::clone(&sinks));
        let run = bench.run(&pressured_subframes());
        let surface = sinks.ebler.snapshot();
        assert_eq!(surface.total.dtx, run.degradation.shed_users);
        let expected: u64 = pressured_subframes()
            .iter()
            .map(|sf| sf.n_users() as u64)
            .sum();
        assert_eq!(surface.total.measured(), expected);
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

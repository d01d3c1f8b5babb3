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
//! The maintenance loop is the `dispatch` module's tick loop, which serve
//! runs too; the benchmark is that loop with a fixed source, its
//! pre-synthesised rows. It bounds the pipelining with a configurable
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
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::UserResult;
use lte_phy::tx::synthesize_user_with_mode;
use lte_phy::verify::{GoldenRecord, VerifyError};
use lte_sched::{PoolError, TaskPool};

use crate::dispatch::{Dispatcher, Tick};

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
            max_in_flight: None,
        }
    }
}

/// Scheduler activity totals for one run, snapshotted from the pool the
/// run executed on — the observable face of the low-overhead stealing
/// machinery (single-task steals, parking).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolActivity {
    /// Tasks executed across all workers.
    pub executed_tasks: u64,
    /// Successful steals from other workers' deques.
    pub steals: u64,
    /// Always 0: the pool has no LIFO slot (kept for existing readers).
    pub lifo_slot_hits: u64,
    /// Times any worker parked on the idle condvar.
    pub parks: u64,
}

impl PoolActivity {
    fn snapshot(pool: &TaskPool) -> Self {
        PoolActivity {
            executed_tasks: pool.executed_tasks(),
            steals: pool.steal_count(),
            lifo_slot_hits: 0,
            parks: pool.parks(),
        }
    }
}

/// The outcome of a benchmark run.
#[derive(Debug)]
pub struct BenchmarkRun {
    /// Decoded results, `results[subframe][user]`. A user whose task
    /// graph was lost to a panicking task is absent from its row.
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
    /// nanoseconds (subframes without users are absent).
    pub latencies_ns: Vec<u64>,
    /// Completion stamp per completed subframe, nanoseconds from run
    /// start, in dispatch order (same filtering as `latencies_ns`).
    pub completions_ns: Vec<u64>,
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

        // Pre-synthesise inputs on the maintenance thread (the paper does
        // this at initialisation); the dispatcher prewarms every cache
        // they touch before its clock starts.
        let inputs: Vec<Vec<Arc<UserInput>>> = subframes
            .iter()
            .map(|sf| sf.users.iter().map(|u| self.input_for(u)).collect())
            .collect();
        let warm: Vec<(CellConfig, &[UserConfig])> =
            subframes.iter().map(|sf| (cell, &sf.users[..])).collect();
        let mut d = Dispatcher::new(self.cfg.workers, self.cfg.turbo, &warm)?;

        let window = self.cfg.max_in_flight.map(|w| w.max(1));
        let busy_start = d.pool().busy_nanos();
        // The maintenance loop over the pre-synthesised rows, with no stall
        // timeout; the hook governs each boundary before its dispatch.
        let (delta, ticks) = (self.cfg.delta, inputs.len() as u64);
        let ticked = d.run_ticks(&cell, delta, ticks, window, Duration::MAX, |d, b| {
            let sf_idx = b.tick as usize;
            if let Some(hook) = governed.as_deref_mut() {
                hook(d.pool(), sf_idx, &subframes[sf_idx]);
            }
            Tick::Row(&inputs[sf_idx][..])
        });
        let finished = ticked.expect("a wait without a timeout never stalls").rows;
        if governed.is_some() {
            d.pool().set_active_workers(self.cfg.workers);
        }
        let elapsed = Duration::from_nanos(d.now_ns());
        let busy = Duration::from_nanos(d.pool().busy_nanos() - busy_start);
        let activity = busy.as_secs_f64() / (self.cfg.workers as f64 * elapsed.as_secs_f64());

        // Subframes without users carry no latency.
        let closed = finished.iter().filter(|row| !row.results.is_empty());
        let latencies_ns: Vec<u64> = closed
            .clone()
            .map(|row| row.done_ns.saturating_sub(row.dispatched_ns))
            .collect();
        let completions_ns: Vec<u64> = closed.map(|row| row.done_ns).collect();

        // Users lost to a panicking task left their slots empty.
        let results: Vec<Vec<UserResult>> = finished
            .into_iter()
            .map(|row| row.results.into_iter().flatten().collect())
            .collect();
        let decoded = || results.iter().flatten();
        let crc_pass_rate = match decoded().count() {
            0 => 1.0,
            users => decoded().filter(|r| r.crc_ok).count() as f64 / users as f64,
        };
        Ok(BenchmarkRun {
            crc_pass_rate,
            results,
            elapsed,
            busy,
            activity,
            latencies_ns,
            completions_ns,
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
        self.verify_rows(subframes, &run.results)
    }

    /// [`verify`](Self::verify) over bare result rows: `results[i]` holds
    /// `subframes[i]`'s users, decoded from this benchmark's inputs.
    pub(crate) fn verify_rows(
        &mut self,
        subframes: &[SubframeConfig],
        results: &[Vec<UserResult>],
    ) -> Result<(), VerifyError> {
        let mut input = |u| (*self.input_for(u)).clone();
        let inputs: Vec<Vec<UserInput>> = subframes
            .iter()
            .map(|sf| sf.users.iter().map(&mut input).collect())
            .collect();
        GoldenRecord::build(&self.cell, &inputs, self.cfg.turbo).verify(results)
    }
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

    /// A subframe without users between two loaded ones keeps its
    /// (empty) row in place and carries no latency stamp.
    #[test]
    fn an_empty_subframe_keeps_its_row_between_loaded_ones() {
        let mut bench = UplinkBenchmark::new(CellConfig::default(), quick_cfg());
        let steady = crate::perf::steady_state_subframe();
        let n = steady.n_users();
        let subframes = [steady.clone(), SubframeConfig::new(Vec::new()), steady];
        let run = bench.run(&subframes);
        let rows: Vec<usize> = run.results.iter().map(Vec::len).collect();
        assert_eq!(rows, [n, 0, n]);
        assert_eq!(run.latencies_ns.len(), 2);
        assert_eq!(run.completions_ns.len(), 2);
        bench
            .verify(&subframes, &run)
            .expect("rows line up with the serial reference");
    }
}

//! The one path from the benchmark, serve and deploy loops to the pool.
//!
//! The paper's maintenance loop (§IV-B) dispatches each subframe to the
//! worker pool every DELTA. The benchmark, the serve loop and the
//! multi-cell deployment all do it through a [`Dispatcher`], which owns
//! the run's [`TaskPool`], [`FftPlanner`] and start instant. Its unit is
//! a *row* — one subframe, or one tick of every cell — whose users each
//! become one task graph (`spawn_user_graph`). A row is stamped at
//! dispatch and when its last user lands; [`Dispatcher::finish`] hands
//! back every row's results and stamps. Work that is not a user's
//! receive graph — the deployment's per-user synthesis and per-cell
//! interference — goes through [`Dispatcher::run_tasks`] as plain
//! closures that each return a value.
//!
//! A user's completion is a guard whose `Drop` closes the user, so a
//! graph lost to a panicking task (which the pool counts and drops)
//! closes its row with the slot empty instead of wedging its caller.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use lte_dsp::fft::FftPlanner;
use lte_dsp::llr::demap_block_into;
use lte_dsp::Complex32;
use lte_obs::Histogram;
use lte_phy::combiner::{combine_symbol_into, CombinerWeights};
use lte_phy::estimator::estimate_path_into;
use lte_phy::grid::UserInput;
use lte_phy::params::{
    CellConfig, TurboMode, UserConfig, DATA_SYMBOLS_PER_SLOT, SLOTS_PER_SUBFRAME,
};
use lte_phy::receiver::{finish_user_with_arena, UserResult, UserScratch};
use lte_phy::tx::prewarm_cell;
use lte_sched::{PoolError, PoolHandle, TaskPool};

/// One run's pool, planner and clock, and the rows dispatched
/// since the last [`finish`](Dispatcher::finish).
pub(crate) struct Dispatcher {
    pool: TaskPool,
    planner: Arc<FftPlanner>,
    turbo: TurboMode,
    shared: Arc<Shared>,
    rows: Vec<Arc<Row>>,
}

/// What the completion guards report into.
struct Shared {
    start: Instant,
    /// Rows dispatched with users and not yet closed.
    open_rows: Mutex<usize>,
    row_closed: Condvar,
    /// Rows closed so far: a progress count that publishes nothing.
    closed_rows: AtomicU64,
    /// Dispatch-to-close latency of every row with users, nanoseconds.
    latency: Histogram,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Every update is one increment or decrement, so the count stays
    /// valid whichever thread panicked holding it.
    fn open_rows(&self) -> MutexGuard<'_, usize> {
        self.open_rows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One dispatched row.
struct Row {
    slots: Vec<OnceLock<UserResult>>,
    /// Users neither landed nor lost.
    open: AtomicUsize,
    dispatched_ns: u64,
    /// Written by the guard that closes the row, read after the pool
    /// drained, which orders the write before the read.
    done_ns: AtomicU64,
}

/// A row handed back by [`Dispatcher::finish`].
pub(crate) struct Finished {
    /// One slot per user, in dispatch order; `None` where a panicking
    /// task lost the user's graph.
    pub(crate) results: Vec<Option<UserResult>>,
    /// Nanoseconds from the run's start to the dispatch.
    pub(crate) dispatched_ns: u64,
    /// Nanoseconds from the run's start to the last user closing (to
    /// the dispatch, for a row without users).
    pub(crate) done_ns: u64,
}

/// One user's claim on its row. [`land`](Completion::land) fills the
/// user's slot; dropping the guard, landed or not, closes the user, and
/// the row's last one stamps it, records its latency and releases its
/// window slot.
struct Completion {
    shared: Arc<Shared>,
    row: Arc<Row>,
    user: usize,
}

impl Completion {
    fn land(self, result: UserResult) {
        self.row.slots[self.user]
            .set(result)
            .expect("each user slot is written once");
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.row.open.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        let done = self.shared.now_ns();
        self.row.done_ns.store(done, Ordering::Relaxed);
        let latency = done.saturating_sub(self.row.dispatched_ns);
        self.shared.latency.record(latency);
        self.shared.closed_rows.fetch_add(1, Ordering::Relaxed);
        *self.shared.open_rows() -= 1;
        self.shared.row_closed.notify_all();
    }
}

impl Dispatcher {
    /// A dispatcher over a fresh pool of `workers` threads whose graphs
    /// run the `turbo` stage mode. It first fills every cache the `warm`
    /// cells' users read (FFT plans, sub-block interleavers, DM-RS
    /// references), so no worker takes a cache's write lock after the
    /// first dispatch, and only then starts the run's clock.
    ///
    /// # Errors
    ///
    /// Returns the [`PoolError`] when the pool cannot be spawned.
    pub(crate) fn new(
        workers: usize,
        turbo: TurboMode,
        warm: &[(CellConfig, &[UserConfig])],
    ) -> Result<Self, PoolError> {
        let pool = TaskPool::new(workers)?;
        let planner = Arc::new(FftPlanner::new());
        for (cell, users) in warm {
            prewarm_cell(cell, users, &planner);
        }
        let shared = Shared {
            start: Instant::now(),
            open_rows: Mutex::new(0),
            row_closed: Condvar::new(),
            closed_rows: AtomicU64::new(0),
            latency: Histogram::new(),
        };
        Ok(Dispatcher {
            pool,
            planner,
            turbo,
            shared: Arc::new(shared),
            rows: Vec::new(),
        })
    }

    /// The run's pool (for governance, chaos drills and counters).
    pub(crate) fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// Nanoseconds since the run's start.
    pub(crate) fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    /// Waits for dispatch boundary `tick` at interval `delta` without
    /// pegging a host CPU: sleeps to within `SPIN_SLACK` of it (OS timers
    /// overshoot by up to a timer tick), then spins the final stretch for
    /// precision.
    pub(crate) fn pace(&self, delta: Duration, tick: u64) {
        const SPIN_SLACK: Duration = Duration::from_micros(200);
        let deadline = self.shared.start + tick_offset(delta, tick);
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            if left <= SPIN_SLACK {
                break;
            }
            std::thread::sleep(left - SPIN_SLACK);
        }
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    /// Dispatch-to-close latency of every closed row with users.
    pub(crate) fn latency(&self) -> &Histogram {
        &self.shared.latency
    }

    /// Rows with users closed so far.
    pub(crate) fn closed_rows(&self) -> u64 {
        self.shared.closed_rows.load(Ordering::Relaxed)
    }

    /// Spawns one task graph per `(cell, input)` of `row`, in row
    /// order, and returns the row's index in the next
    /// [`finish`](Dispatcher::finish). A row without users closes at
    /// once and holds no window slot.
    pub(crate) fn dispatch<'a>(
        &mut self,
        row: impl ExactSizeIterator<Item = (&'a CellConfig, &'a Arc<UserInput>)>,
    ) -> usize {
        let now = self.shared.now_ns();
        // The open count is in place before any graph can finish.
        let state = Arc::new(Row {
            slots: (0..row.len()).map(|_| OnceLock::new()).collect(),
            open: AtomicUsize::new(row.len()),
            dispatched_ns: now,
            done_ns: AtomicU64::new(now),
        });
        if row.len() > 0 {
            *self.shared.open_rows() += 1;
        }
        let handle = self.pool.handle();
        for (user, (cell, input)) in row.enumerate() {
            let done = Completion {
                shared: Arc::clone(&self.shared),
                row: Arc::clone(&state),
                user,
            };
            spawn_user_graph(&handle, cell, input, self.turbo, &self.planner, done);
        }
        self.rows.push(state);
        self.rows.len() - 1
    }

    /// Runs each of `tasks` as one pool task, spawned as the iterator
    /// yields it, and waits asleep until every one has finished. The
    /// calling thread runs none of them, so the pool's worker count stays
    /// the run's thread count. Slot `i` holds task `i`'s value, or `None`
    /// where the task panicked (the pool counts and drops it).
    pub(crate) fn run_tasks<T, F>(&self, tasks: impl IntoIterator<Item = F>) -> Vec<Option<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (done, landed) = mpsc::channel();
        let mut slots = Vec::new();
        for (i, task) in tasks.into_iter().enumerate() {
            let done = done.clone();
            self.pool.spawn(move || {
                let value = task();
                done.send((i, value))
                    .expect("the receiver outlives every task");
            });
            slots.push(None);
        }
        drop(done);
        // Ends when the last task's sender is gone: sent, or dropped by
        // the unwinding of a task that panicked.
        for (i, value) in landed {
            slots[i] = Some(value);
        }
        slots
    }

    /// Waits until fewer than `window` rows are open, asleep on a condvar
    /// so the wait takes no CPU from the workers. `false` when `timeout`
    /// passes first; what that stall means is the caller's decision.
    pub(crate) fn wait_below(&self, window: usize, timeout: Duration) -> bool {
        let open = self.shared.open_rows();
        let cv = &self.shared.row_closed;
        let waited = cv.wait_timeout_while(open, timeout, |open| *open >= window);
        !waited.unwrap_or_else(PoisonError::into_inner).1.timed_out()
    }

    /// Waits for the pool to drain and hands back every row dispatched
    /// since the last call, in dispatch order.
    pub(crate) fn finish(&mut self) -> Vec<Finished> {
        self.pool.wait_all();
        let finished = |row: Arc<Row>| {
            let row = Arc::into_inner(row).expect("a drained pool holds no completion guard");
            Finished {
                results: row.slots.into_iter().map(OnceLock::into_inner).collect(),
                dispatched_ns: row.dispatched_ns,
                done_ns: row.done_ns.into_inner(),
            }
        };
        self.rows.drain(..).map(finished).collect()
    }
}

/// Offset of dispatch boundary `tick` from the run start at interval
/// `delta`, in 64-bit nanoseconds: exact for any tick count a
/// run-until-drained service can reach, saturating (≈ 584 years) rather
/// than wrapping or panicking beyond that.
fn tick_offset(delta: Duration, tick: u64) -> Duration {
    let delta_ns = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(delta_ns.saturating_mul(tick))
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
// index arithmetic), and a buffer is read only by the last writer to
// finish — the task whose `SeqCst` `fetch_sub` takes the buffer's
// completion counter (`est_remaining[slot]`, `combine_remaining`) to
// zero — or by a task it spawns after that. Every writer's decrement is
// a release that this read-modify-write acquires, so the stores happen
// before the reads.
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
struct UserGraph {
    cell: CellConfig,
    input: Arc<UserInput>,
    turbo: TurboMode,
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
    /// The user's completion, taken exactly once by the join task; a
    /// graph dropped before its join closes the user as lost.
    done: Mutex<Option<Completion>>,
}

/// Spawns one user's dependency-ordered task graph onto the pool and
/// returns immediately; `done` lands on a worker thread once the user's
/// result is ready. [`TaskPool::wait_all`] covers every task of the
/// graph, including ones spawned after the call returns.
///
/// Steady-state allocation discipline: every task draws its working
/// buffers from its worker's thread-local [`UserScratch`] arena and
/// writes results into a shared flat buffer; the per-user cost is the
/// graph node (two flat buffers) and the boxed task closures.
fn spawn_user_graph(
    handle: &PoolHandle,
    cell: &CellConfig,
    input: &Arc<UserInput>,
    turbo: TurboMode,
    planner: &Arc<FftPlanner>,
    done: Completion,
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
            planner,
            est_buf: SharedBuf::new(SLOTS_PER_SUBFRAME * n_rx * n_layers * n_sc, Complex32::ZERO),
            est_remaining: std::array::from_fn(|_| AtomicUsize::new(n_rx * n_layers)),
            weights: std::array::from_fn(|_| OnceLock::new()),
            llr_buf: SharedBuf::new(n_chunks * chunk_bits, 0f32),
            combine_remaining: AtomicUsize::new(n_chunks),
            done: Mutex::new(Some(done)),
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
        let w = CombinerWeights::from_flat(n_rx, n_layers, n_sc, flat, graph.input.noise_var);
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
        demap_block_into(user.modulation, &combined, graph.input.noise_var, &mut llrs);
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
/// completed LLR buffer, then the user's completion.
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
    graph
        .done
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("the join task runs once")
        .land(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_dsp::{Modulation, Xoshiro256};
    use lte_phy::tx::synthesize_user_with_mode;

    fn small_inputs(n: usize) -> (CellConfig, Vec<Arc<UserInput>>) {
        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let inputs = (0..n)
            .map(|_| {
                let input =
                    synthesize_user_with_mode(&cell, &user, TurboMode::Passthrough, 30.0, &mut rng);
                Arc::new(input)
            })
            .collect();
        (cell, inputs)
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
    fn open_rows_never_exceed_the_window() {
        let (cell, inputs) = small_inputs(3);
        for window in [1, 2, 3] {
            let mut d = Dispatcher::new(2, TurboMode::Passthrough, &[]).unwrap();
            for _ in 0..12 {
                d.wait_below(window, Duration::MAX);
                d.dispatch(inputs.iter().map(|i| (&cell, i)));
            }
            let rows = d.finish();
            for row in &rows {
                assert!(row
                    .results
                    .iter()
                    .all(|r| r.as_ref().is_some_and(|r| r.crc_ok)));
                // The rows open at this row's dispatch instant: a row
                // closes (is stamped) before it releases its slot, and
                // a row is stamped after its slot was granted.
                let open = rows
                    .iter()
                    .filter(|r| {
                        r.dispatched_ns <= row.dispatched_ns && row.dispatched_ns < r.done_ns
                    })
                    .count();
                assert!(open <= window, "{open} rows open under window {window}");
            }
        }
    }

    #[test]
    fn run_tasks_returns_values_in_task_order_and_loses_only_panics() {
        lte_sched::silence_injected_panics();
        let d = Dispatcher::new(2, TurboMode::Passthrough, &[]).unwrap();
        let values = d.run_tasks((0..40u64).map(|i| {
            move || {
                if i == 17 {
                    std::panic::panic_any(lte_sched::InjectedPanic);
                }
                (i, std::thread::current().name().map(str::to_owned))
            }
        }));
        assert_eq!(values.len(), 40);
        for (i, value) in values.iter().enumerate() {
            match value {
                None => assert_eq!(i, 17, "only the panicking task is lost"),
                Some((k, thread)) => {
                    assert_eq!(*k, i as u64);
                    let thread = thread.as_deref().unwrap_or_default();
                    assert!(
                        thread.starts_with("lte-worker-"),
                        "task {i} ran on {thread}"
                    );
                }
            }
        }
        assert!(values[17].is_none());
        assert!(d.run_tasks(Vec::<fn() -> u8>::new()).is_empty());
    }

    #[test]
    fn a_row_without_users_closes_at_dispatch() {
        let (cell, inputs) = small_inputs(1);
        let mut d = Dispatcher::new(1, TurboMode::Passthrough, &[]).unwrap();
        d.dispatch(std::iter::empty());
        assert!(
            d.wait_below(1, Duration::ZERO),
            "an empty row holds no slot"
        );
        // One real row fills a window of one; the empty row beside it
        // still neither waits nor counts.
        let busy = d.dispatch(inputs.iter().map(|i| (&cell, i)));
        d.dispatch(std::iter::empty());
        d.wait_below(1, Duration::MAX);
        let rows = d.finish();
        assert_eq!(busy, 1);
        assert_eq!(d.closed_rows(), 1, "only the row with a user closed late");
        for i in [0, 2] {
            assert!(rows[i].results.is_empty());
            assert_eq!(rows[i].done_ns, rows[i].dispatched_ns);
        }
        assert!(rows[1].results[0].is_some());
    }
}

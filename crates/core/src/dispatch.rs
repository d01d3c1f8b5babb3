//! The one path from the benchmark, serve and deploy loops to the pool.
//!
//! The paper's maintenance loop (§IV-B) dispatches each subframe to the
//! worker pool every DELTA. That loop lives here, once:
//! [`Dispatcher::run_ticks`] paces each tick, bounds the rows in flight
//! (with a stall watchdog), asks the driver's per-tick source for the
//! tick's row and dispatches it. The benchmark runs it over a fixed list
//! of pre-synthesised rows; serve runs it with its front door (admission,
//! escalation, shedding, governance) as the source. Deploy, which neither
//! paces nor bounds, dispatches and finishes one row per tick itself.
//!
//! A [`Dispatcher`] owns the run's [`TaskPool`], [`FftPlanner`] and start
//! instant. Its unit is a *row* — one subframe, or one tick of every
//! cell — whose users each become one task graph (`spawn_user_graph`). A
//! row is stamped at dispatch and when its last user lands;
//! [`Dispatcher::finish`] hands back every row's results and stamps. Work
//! that is not a user's receive graph — the deployment's per-user
//! synthesis and per-cell interference — goes through
//! [`Dispatcher::run_tasks`] as plain closures that each return a value.
//!
//! A user's graph is a recycled node the dispatcher owns ([`UserGraph`]):
//! its estimate, weights and LLR buffers outlive the user and serve the
//! next one, so a warm run builds none of them. Every graph task is the
//! pool's unboxed `(state, word)` task: a user's root is its row and its
//! index, every later task its node and a packed [`Step`].
//!
//! A user's completion is a guard whose `Drop` closes the user, so a
//! graph lost to a panicking task (which the pool counts and drops)
//! closes its row with the slot empty instead of wedging its caller.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use lte_dsp::fft::FftPlanner;
use lte_dsp::llr::demap_block_to;
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
use lte_sched::{PoolError, PoolHandle, TaskPool, TaskState};

/// Watchdog restarts a run may force before a stalled slot wait gives up.
const MAX_RESTARTS: u64 = 3;

/// One run's pool, planner and clock, and the rows dispatched
/// since the last [`finish`](Dispatcher::finish).
pub(crate) struct Dispatcher {
    pool: TaskPool,
    shared: Arc<Shared>,
    rows: Vec<Arc<Row>>,
    /// Watchdog restarts forced so far, by stalls and drills alike.
    restarts: Cell<u64>,
}

/// What every row and graph node of a run reads, and what the
/// completion guards report into.
struct Shared {
    start: Instant,
    /// Rows dispatched with users and not yet closed.
    open_rows: Mutex<usize>,
    row_closed: Condvar,
    /// Dispatch-to-close latency of every row with users, nanoseconds.
    latency: Histogram,
    handle: PoolHandle,
    planner: Arc<FftPlanner>,
    turbo: TurboMode,
    /// Every graph node built since the last [`Dispatcher::finish`], in
    /// use or free: a node is free when this list holds its only count
    /// (see [`Shared::graph`]).
    graphs: Mutex<Vec<Arc<UserGraph>>>,
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

    /// A graph node prepared for `done`'s user: the free node whose
    /// buffers fit it most tightly, else the largest free node (the one
    /// that grows least), else a new node. Best fit keeps a mixed-shape
    /// run from growing every node to its largest user.
    fn graph(&self, done: Completion) -> Arc<UserGraph> {
        let user = &done.row.users[done.user];
        let need = Capacity::of(&user.cell, &user.input.config);
        let mut graphs = self.graphs.lock().unwrap_or_else(PoisonError::into_inner);
        // `get_mut` succeeds only once every task of the node's last user
        // has dropped its count, and it acquires their writes.
        let free = graphs
            .iter_mut()
            .enumerate()
            .filter_map(|(i, graph)| Some((i, Arc::get_mut(graph)?.capacity())));
        let best = free.max_by_key(|&(_, have)| match have.covers(need) {
            true => (true, usize::MAX - have.total()),
            false => (false, have.total()),
        });
        let i = match best {
            Some((i, _)) => i,
            None => {
                graphs.push(Arc::new(UserGraph::new(self, user)));
                graphs.len() - 1
            }
        };
        let graph = &mut graphs[i];
        Arc::get_mut(graph)
            .expect("the chosen node is free")
            .prepare(done);
        Arc::clone(graph)
    }
}

/// One dispatched row.
struct Row {
    shared: Arc<Shared>,
    users: Vec<RowUser>,
    /// Users neither landed nor lost.
    open: AtomicUsize,
    dispatched_ns: u64,
    /// Written by the guard that closes the row, read after the pool
    /// drained, which orders the write before the read.
    done_ns: AtomicU64,
}

/// One user of a row: what its graph receives and where its result lands.
struct RowUser {
    cell: CellConfig,
    input: Arc<UserInput>,
    result: OnceLock<UserResult>,
}

impl TaskState for Row {
    /// User `user`'s root task: takes a graph node and fans out the
    /// user's estimation tasks. It runs on whichever worker picks the
    /// user up, not at dispatch: under a deep admission backlog the
    /// dispatcher may queue hundreds of subframes ahead of the workers,
    /// and only users a worker has started hold a node.
    fn run(self: Arc<Self>, user: usize) {
        let shared = Arc::clone(&self.shared);
        spawn_user_graph(&shared, Completion { row: self, user });
    }
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
    row: Arc<Row>,
    user: usize,
}

impl Completion {
    fn land(self, result: UserResult) {
        self.row.users[self.user]
            .result
            .set(result)
            .expect("each user slot is written once");
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.row.open.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        let shared = &self.row.shared;
        let done = shared.now_ns();
        self.row.done_ns.store(done, Ordering::Relaxed);
        let latency = done.saturating_sub(self.row.dispatched_ns);
        shared.latency.record(latency);
        *shared.open_rows() -= 1;
        shared.row_closed.notify_all();
    }
}

/// What a driver's source hands [`Dispatcher::run_ticks`] for one tick.
pub(crate) enum Tick<R> {
    /// The run is over: no later tick is paced or dispatched.
    Stop,
    /// Nothing to dispatch this tick.
    Idle,
    /// This tick's row: one user graph per input.
    Row(R),
}

/// One tick's dispatch boundary: the tick, counted from the run's start,
/// and the watchdog restarts its wait for a row slot forced.
#[derive(Clone, Copy)]
pub(crate) struct Boundary {
    pub(crate) tick: u64,
    pub(crate) stalls: u64,
}

/// What a tick loop hands back once the pool drained.
pub(crate) struct Ticked {
    /// The tick limit, or the tick whose source said stop.
    pub(crate) ticks: u64,
    /// Nanoseconds from the run's start to the end of the last tick.
    pub(crate) stopped_ns: u64,
    pub(crate) rows: Vec<Finished>,
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
            latency: Histogram::new(),
            handle: pool.handle(),
            planner,
            turbo,
            graphs: Mutex::new(Vec::new()),
        };
        Ok(Dispatcher {
            pool,
            shared: Arc::new(shared),
            rows: Vec::new(),
            restarts: Cell::new(0),
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
    fn pace(&self, delta: Duration, tick: u64) {
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

    /// The paper's maintenance loop, the one every pacing driver runs.
    /// Each of up to `ticks` ticks waits for its boundary at interval
    /// `delta`, then until fewer than `window` rows are open, then asks
    /// `source` for the tick and dispatches the row it returns on `cell`.
    /// The loop ends early when the source says stop, and drains the pool
    /// once at the end.
    ///
    /// The loop opens no row while it waits, so a wait for a slot that
    /// passes `stall` has seen no row close: the watchdog answers it with
    /// a [`restart`](Self::restart) and waits again, up to
    /// [`MAX_RESTARTS`] restarts a run.
    ///
    /// # Errors
    ///
    /// Fails when a wait stalls with the restart budget spent; the rows
    /// in flight are left to the pool.
    pub(crate) fn run_ticks<R: AsRef<[Arc<UserInput>]>>(
        &mut self,
        cell: &CellConfig,
        delta: Duration,
        ticks: u64,
        window: Option<usize>,
        stall: Duration,
        mut source: impl FnMut(&Self, Boundary) -> Tick<R>,
    ) -> Result<Ticked, String> {
        let mut tick = 0;
        while tick < ticks {
            self.pace(delta, tick);
            let mut stalls = 0;
            while window.is_some_and(|window| !self.wait_below(window, stall)) {
                if self.restarts.get() >= MAX_RESTARTS {
                    return Err(format!(
                        "pipeline stalled: no completion progress after \
                         {MAX_RESTARTS} watchdog restarts"
                    ));
                }
                self.restart();
                stalls += 1;
            }
            match source(self, Boundary { tick, stalls }) {
                Tick::Stop => break,
                Tick::Idle => {}
                Tick::Row(row) => {
                    self.dispatch(row.as_ref().iter().map(|input| (cell, input)));
                }
            }
            tick += 1;
        }
        Ok(Ticked {
            ticks: tick,
            stopped_ns: self.now_ns(),
            rows: self.finish(),
        })
    }

    /// Forces one watchdog restart, drawing on the run's budget: restores
    /// the pool to full width in case a governor had parked cores. It
    /// kills no worker: a kill would queue behind every waiting task, so
    /// it could never reach a worker wedged inside one.
    pub(crate) fn restart(&self) {
        self.pool.set_active_workers(self.pool.n_workers());
        self.restarts.set(self.restarts.get() + 1);
    }

    /// Spawns one task graph per `(cell, input)` of `row`, in row
    /// order, and returns the row's index in the next
    /// [`finish`](Dispatcher::finish). A row without users closes at
    /// once and holds no window slot.
    pub(crate) fn dispatch<'a>(
        &mut self,
        row: impl Iterator<Item = (&'a CellConfig, &'a Arc<UserInput>)>,
    ) -> usize {
        let now = self.shared.now_ns();
        let users: Vec<RowUser> = row
            .map(|(cell, input)| RowUser {
                cell: *cell,
                input: Arc::clone(input),
                result: OnceLock::new(),
            })
            .collect();
        // The open count is in place before any graph can finish.
        let state = Arc::new(Row {
            shared: Arc::clone(&self.shared),
            open: AtomicUsize::new(users.len()),
            users,
            dispatched_ns: now,
            done_ns: AtomicU64::new(now),
        });
        if !state.users.is_empty() {
            *self.shared.open_rows() += 1;
        }
        for user in 0..state.users.len() {
            self.shared.handle.spawn_on(Arc::clone(&state), user);
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
    fn wait_below(&self, window: usize, timeout: Duration) -> bool {
        let open = self.shared.open_rows();
        let cv = &self.shared.row_closed;
        let waited = cv.wait_timeout_while(open, timeout, |open| *open >= window);
        !waited.unwrap_or_else(PoisonError::into_inner).1.timed_out()
    }

    /// Waits for the pool to drain and hands back every row dispatched
    /// since the last call, in dispatch order. The drained graph nodes go
    /// too: a driver that finishes between rows (deploy's tick) does not
    /// hold their buffers through its serial phase, and one that finishes
    /// once per run recycles them for the whole run.
    pub(crate) fn finish(&mut self) -> Vec<Finished> {
        self.pool.wait_all();
        self.shared
            .graphs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        let finished = |row: Arc<Row>| {
            let row = Arc::into_inner(row).expect("a drained pool holds no completion guard");
            let mut results = Vec::with_capacity(row.users.len());
            results.extend(row.users.into_iter().map(|u| u.result.into_inner()));
            Finished {
                results,
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

// SAFETY: writers touch disjoint ranges (enforced by the graph's index
// arithmetic), and a range is read only after its writers are joined —
// by the task whose `SeqCst` `fetch_sub` takes the range's completion
// counter (`est_remaining[slot]`, `combine_remaining`) to zero, or by a
// task it spawns after that. Every writer's decrement is a release that
// this read-modify-write acquires, so the stores happen before the
// reads. Across users a node is reused only once `Arc::get_mut` has
// shown that no task of its previous user is left.
unsafe impl<T: Send + Sync> Sync for SharedBuf<T> {}

impl<T> SharedBuf<T> {
    fn new() -> Self {
        SharedBuf { cells: Vec::new() }
    }

    /// Grows the buffer to at least `len` elements made by `fill`, to
    /// exactly `len` (a node keeps what it grows to). It never shrinks
    /// and never rewrites an element it already has: a user's tasks
    /// write every element of the prefix they use before the join that
    /// reads it, so stale values from an earlier user are never read and
    /// need no clearing.
    fn grow(&mut self, len: usize, mut fill: impl FnMut() -> T) {
        if let Some(more) = len.checked_sub(self.cells.len()) {
            self.cells.reserve_exact(more);
            self.cells.resize_with(len, || UnsafeCell::new(fill()));
        }
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    /// The first element of `start..start + len`, bounds-checked.
    fn range(&self, start: usize, len: usize) -> *mut T {
        let end = start.checked_add(len).expect("range end overflows");
        UnsafeCell::raw_get(self.cells[start..end].as_ptr())
    }

    /// A mutable view of `start..start + len`.
    ///
    /// # Safety
    ///
    /// No other live reference may overlap the range for the lifetime
    /// of the returned slice.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        let base = self.range(start, len);
        // SAFETY: `range` checked the bounds; exclusivity is the caller's.
        unsafe { std::slice::from_raw_parts_mut(base, len) }
    }

    /// A shared view of `start..start + len`.
    ///
    /// # Safety
    ///
    /// No mutable reference may overlap the range for the lifetime of
    /// the returned slice.
    unsafe fn slice(&self, start: usize, len: usize) -> &[T] {
        let base = self.range(start, len);
        // SAFETY: `range` checked the bounds; the absence of writers is
        // the caller's.
        unsafe { std::slice::from_raw_parts(base, len) }
    }
}

/// Buffer lengths a user needs, or a node holds: the flat estimate and
/// LLR buffers (each slot's weights hold half the estimate's length).
#[derive(Clone, Copy)]
struct Capacity {
    est: usize,
    llr: usize,
}

impl Capacity {
    fn of(cell: &CellConfig, user: &UserConfig) -> Self {
        Capacity {
            est: SLOTS_PER_SUBFRAME * cell.n_rx * user.layers * user.subcarriers(),
            llr: user.bits_per_subframe(),
        }
    }

    fn covers(self, need: Capacity) -> bool {
        self.est >= need.est && self.llr >= need.llr
    }

    fn total(self) -> usize {
        self.est + self.llr
    }
}

/// One task of a user's graph, packed into the pool task's word. An
/// index names the task's (slot, rx, layer) or (slot, symbol, layer)
/// tuple in row-major order, which is also the task's block of the flat
/// buffer it writes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Estimate(usize),
    Combine(usize),
    Finish,
}

impl Step {
    fn word(self) -> usize {
        match self {
            Step::Estimate(i) => i << 2,
            Step::Combine(i) => (i << 2) | 1,
            Step::Finish => 2,
        }
    }

    fn of(word: usize) -> Self {
        match word & 3 {
            0 => Step::Estimate(word >> 2),
            1 => Step::Combine(word >> 2),
            _ => Step::Finish,
        }
    }
}

/// One user's dependency-ordered task graph: a node the dispatcher
/// recycles from user to user (see [`Shared::graph`]).
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
///
/// The node's buffers belong to it, not to a user: a free node is
/// prepared for the next user (inputs set, counters reset, buffers grown
/// if they must be) and its tasks then write every element the user
/// reads, so no subframe allocates them.
struct UserGraph {
    handle: PoolHandle,
    planner: Arc<FftPlanner>,
    turbo: TurboMode,
    cell: CellConfig,
    input: Arc<UserInput>,
    /// Flat `[slot][rx][layer][subcarrier]` channel-estimate buffer.
    est_buf: SharedBuf<Complex32>,
    /// Estimation tasks still outstanding, per slot.
    est_remaining: [AtomicUsize; SLOTS_PER_SUBFRAME],
    /// Per-slot combiner weights, solved in place by the slot's last
    /// estimation task before any of the slot's combine tasks exist.
    weights: SharedBuf<CombinerWeights>,
    /// Flat LLR buffer in the transmitter's bit order.
    llr_buf: SharedBuf<f32>,
    /// Combine tasks still outstanding across both slots.
    combine_remaining: AtomicUsize,
    /// The user's completion, taken exactly once by the join task, or by
    /// the task whose panic loses the graph.
    done: Mutex<Option<Completion>>,
}

impl UserGraph {
    /// An empty node for `user`'s shape, to be [`prepare`](Self::prepare)d.
    fn new(shared: &Shared, user: &RowUser) -> Self {
        let mut weights = SharedBuf::new();
        weights.grow(SLOTS_PER_SUBFRAME, CombinerWeights::empty);
        UserGraph {
            handle: shared.handle.clone(),
            planner: Arc::clone(&shared.planner),
            turbo: shared.turbo,
            cell: user.cell,
            input: Arc::clone(&user.input),
            est_buf: SharedBuf::new(),
            est_remaining: std::array::from_fn(|_| AtomicUsize::new(0)),
            weights,
            llr_buf: SharedBuf::new(),
            combine_remaining: AtomicUsize::new(0),
            done: Mutex::new(None),
        }
    }

    fn capacity(&self) -> Capacity {
        Capacity {
            est: self.est_buf.len(),
            llr: self.llr_buf.len(),
        }
    }

    /// Readies this free node for `done`'s user: its inputs, counters and
    /// completion, and buffers at least as long as the user needs.
    fn prepare(&mut self, done: Completion) {
        let user = &done.row.users[done.user];
        self.cell = user.cell;
        self.input = Arc::clone(&user.input);
        let config = self.input.config;
        let need = Capacity::of(&self.cell, &config);
        let est_per_slot = self.cell.n_rx * config.layers;
        let chunks = SLOTS_PER_SUBFRAME * DATA_SYMBOLS_PER_SLOT * config.layers;
        // The task ranges tile each buffer's prefix exactly: every element
        // a reader sees has one writer in this user's graph.
        debug_assert_eq!(
            SLOTS_PER_SUBFRAME * est_per_slot * config.subcarriers(),
            need.est,
            "estimation ranges cover 2·n_rx·L·n_sc"
        );
        debug_assert_eq!(
            chunks * self.chunk_bits(),
            need.llr,
            "combine ranges cover bits_per_subframe()"
        );
        for remaining in &mut self.est_remaining {
            *remaining.get_mut() = est_per_slot;
        }
        *self.combine_remaining.get_mut() = chunks;
        self.est_buf.grow(need.est, || Complex32::ZERO);
        self.llr_buf.grow(need.llr, || 0.0);
        *self.done.get_mut().unwrap_or_else(PoisonError::into_inner) = Some(done);
    }

    /// LLRs one combine task writes: one symbol of one layer.
    fn chunk_bits(&self) -> usize {
        let user = &self.input.config;
        user.subcarriers() * user.modulation.bits_per_symbol()
    }

    fn spawn(self: &Arc<Self>, step: Step) {
        self.handle.spawn_on(Arc::clone(self), step.word());
    }

    /// One channel-estimation task: (slot, rx, layer). The slot's last
    /// estimator also solves the slot's combiner weights — cache-hot over
    /// the estimates it just joined — and fans out the slot's combine
    /// tasks.
    fn estimate(self: &Arc<Self>, idx: usize) {
        let user = &self.input.config;
        let (n_rx, n_layers, n_sc) = (self.cell.n_rx, user.layers, user.subcarriers());
        let per_slot = n_rx * n_layers;
        let (slot, rx, layer) = (idx / per_slot, idx / n_layers % n_rx, idx % n_layers);
        debug_assert!(slot < SLOTS_PER_SUBFRAME, "estimation task {idx} exists");
        // SAFETY: estimation task `idx` alone writes block `idx`, and no
        // reader of the slot exists before its counter reaches zero below.
        let out = unsafe { self.est_buf.slice_mut(idx * n_sc, n_sc) };
        UserScratch::with(|s| {
            estimate_path_into(
                &self.cell,
                &self.input,
                slot,
                rx,
                layer,
                &self.planner,
                &mut s.arena,
                out,
            );
        });
        if self.est_remaining[slot].fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        let len = per_slot * n_sc;
        // SAFETY: the counter joined every writer of this slot's blocks;
        // the other slot's writers touch disjoint blocks.
        let paths = unsafe { self.est_buf.slice(slot * len, len) };
        let chunks = DATA_SYMBOLS_PER_SLOT * n_layers;
        debug_assert!(
            self.combine_remaining.load(Ordering::Relaxed) >= chunks,
            "no combine of this slot has run"
        );
        // SAFETY: the slot's weights have one writer per user, this task,
        // and their readers — the slot's combine tasks — are spawned
        // below; the node's previous user has no task left.
        let weights = unsafe { &mut self.weights.slice_mut(slot, 1)[0] };
        weights.compute_flat(n_rx, n_layers, n_sc, paths, self.input.noise_var);
        for chunk in slot * chunks..(slot + 1) * chunks {
            self.spawn(Step::Combine(chunk));
        }
    }

    /// One combine + demap task: (slot, symbol, layer), demapping straight
    /// into its block of the LLR buffer in the transmitter's bit order.
    /// The last one spawns the serial join.
    fn combine(self: &Arc<Self>, idx: usize) {
        let user = &self.input.config;
        let n_sc = user.subcarriers();
        let chunks = DATA_SYMBOLS_PER_SLOT * user.layers;
        let (slot, sym, layer) = (
            idx / chunks,
            idx / user.layers % DATA_SYMBOLS_PER_SLOT,
            idx % user.layers,
        );
        debug_assert!(slot < SLOTS_PER_SUBFRAME, "combine task {idx} exists");
        debug_assert_eq!(
            self.est_remaining[slot].load(Ordering::Relaxed),
            0,
            "a slot's combines run after its weights"
        );
        // SAFETY: the slot's weights were written before this task was
        // spawned and are not written again for this user.
        let weights = unsafe { &self.weights.slice(slot, 1)[0] };
        let chunk_bits = self.chunk_bits();
        // SAFETY: combine task `idx` alone writes block `idx`, and the
        // join reads it only after the counter below reaches zero.
        let out = unsafe { self.llr_buf.slice_mut(idx * chunk_bits, chunk_bits) };
        UserScratch::with(|s| {
            let mut combined = s.arena.take_c32(n_sc);
            combine_symbol_into(
                &self.input,
                weights,
                slot,
                sym,
                layer,
                &self.planner,
                &mut s.arena,
                &mut combined,
            );
            demap_block_to(user.modulation, &combined, self.input.noise_var, out);
            s.arena.recycle_c32(combined);
        });
        if self.combine_remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.spawn(Step::Finish);
        }
    }

    /// The serial join: deinterleave → turbo (pass-through) → CRC on the
    /// completed LLR buffer, then the user's completion.
    fn finish(&self) {
        debug_assert_eq!(
            self.combine_remaining.load(Ordering::Relaxed),
            0,
            "the join runs after every combine"
        );
        let total = self.input.config.bits_per_subframe();
        // SAFETY: the combine counter joined every writer; this task is
        // the graph's only one left.
        let llrs = unsafe { self.llr_buf.slice(0, total) };
        let result = UserScratch::with(|s| {
            finish_user_with_arena(
                &self.cell,
                &self.input,
                self.turbo,
                llrs,
                &mut s.arena,
                &mut s.turbo,
            )
        });
        self.take_done()
            .expect("the join task runs once")
            .land(result);
    }

    fn take_done(&self) -> Option<Completion> {
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

impl TaskState for UserGraph {
    fn run(self: Arc<Self>, word: usize) {
        let lost = LoseOnUnwind(&self);
        #[cfg(test)]
        tests::inject_panic(&self, word);
        match Step::of(word) {
            Step::Estimate(idx) => self.estimate(idx),
            Step::Combine(idx) => self.combine(idx),
            Step::Finish => self.finish(),
        }
        std::mem::forget(lost);
    }
}

/// Armed while a graph task runs: dropped only by a panic's unwinding,
/// it closes the user as lost at once. The node itself stays in use
/// until the user's other tasks have dropped their counts.
struct LoseOnUnwind<'a>(&'a UserGraph);

impl Drop for LoseOnUnwind<'_> {
    fn drop(&mut self) {
        drop(self.0.take_done());
    }
}

/// Starts `done`'s user: takes a recycled graph node for it and spawns
/// the user's estimation tasks, which spawn the rest of the graph.
/// [`TaskPool::wait_all`] covers every task of the graph, and the
/// completion lands on a worker thread once the user's result is ready.
fn spawn_user_graph(shared: &Shared, done: Completion) {
    let graph = shared.graph(done);
    let user = &graph.input.config;
    for idx in 0..SLOTS_PER_SUBFRAME * graph.cell.n_rx * user.layers {
        graph.spawn(Step::Estimate(idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_dsp::{Modulation, Xoshiro256};
    use lte_phy::tx::synthesize_user_with_mode;
    use lte_phy::verify::GoldenRecord;
    use lte_sched::InjectedPanic;
    use std::sync::{Barrier, RwLock};

    /// `(input, step)` pairs whose graph task panics with
    /// [`InjectedPanic`] before doing its work. Keyed by the input's
    /// address, so concurrent tests never hit each other's entries.
    static POISONED: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

    pub(super) fn inject_panic(graph: &UserGraph, word: usize) {
        let key = (Arc::as_ptr(&graph.input) as usize, word);
        if POISONED.lock().unwrap().contains(&key) {
            std::panic::panic_any(InjectedPanic);
        }
    }

    /// Synthesizes `users` on the default cell, one input each.
    fn inputs_for(users: &[UserConfig], seed: u64) -> (CellConfig, Vec<UserInput>) {
        let cell = CellConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let inputs = users
            .iter()
            .map(|u| synthesize_user_with_mode(&cell, u, TurboMode::Passthrough, 30.0, &mut rng))
            .collect();
        (cell, inputs)
    }

    /// Users of changing shapes: the second is larger than any before
    /// it, the rest smaller, with other layer counts and modulations.
    fn mixed_users() -> Vec<UserConfig> {
        vec![
            UserConfig::new(6, 1, Modulation::Qpsk),
            UserConfig::new(50, 2, Modulation::Qam64),
            UserConfig::new(25, 4, Modulation::Qam16),
            UserConfig::new(10, 1, Modulation::Qpsk),
            UserConfig::new(15, 3, Modulation::Qam64),
            UserConfig::new(4, 2, Modulation::Qam16),
            UserConfig::new(50, 2, Modulation::Qam64),
            UserConfig::new(2, 1, Modulation::Qpsk),
        ]
    }

    /// A node recycled from a larger user to smaller ones (and back) is
    /// never cleared, yet every result matches the serial golden record
    /// byte for byte: each user's tasks write every element they read.
    #[test]
    fn recycled_graphs_leak_no_stale_bytes_across_shapes() {
        let (cell, inputs) = inputs_for(&mixed_users(), 21);
        let golden =
            GoldenRecord::build(&cell, std::slice::from_ref(&inputs), TurboMode::Passthrough);
        let shared: Vec<Arc<UserInput>> = inputs.into_iter().map(Arc::new).collect();
        for workers in [1, 2] {
            let mut d = Dispatcher::new(workers, TurboMode::Passthrough, &[]).unwrap();
            // One user per row, each admitted after the last closed: at one
            // worker every user reuses the run's single node.
            for input in &shared {
                d.wait_below(1, Duration::MAX);
                d.dispatch(std::iter::once((&cell, input)));
            }
            // Then all of them at once, so two workers overlap users.
            for _ in 0..3 {
                d.dispatch(shared.iter().map(|input| (&cell, input)));
            }
            d.pool().wait_all();
            let nodes = d.shared.graphs.lock().unwrap().len();
            if workers == 1 {
                assert_eq!(nodes, 1, "one worker recycles one node");
            } else {
                assert!(
                    nodes <= shared.len(),
                    "{nodes} nodes for {} users",
                    shared.len()
                );
            }
            let rows = d.finish();
            assert!(
                d.shared.graphs.lock().unwrap().is_empty(),
                "finish drops the nodes"
            );
            let results: Vec<UserResult> = rows
                .into_iter()
                .flat_map(|row| row.results)
                .map(|r| r.expect("no user is lost"))
                .collect();
            let expected = golden.subframe(0);
            for (i, result) in results.iter().enumerate() {
                let user = i % expected.len();
                assert_eq!(result, &expected[user], "{workers} workers, result {i}");
            }
        }
    }

    /// A graph lost to an [`InjectedPanic`] — in an estimation task, in a
    /// slot-1 combine after slot 0's LLRs landed, or in the join — closes
    /// its user as lost at once, so a window of one still admits the next
    /// row, and the users that later reuse its node decode byte-exact.
    #[test]
    fn a_graph_lost_to_an_injected_panic_neither_wedges_nor_corrupts_its_node() {
        lte_sched::silence_injected_panics();
        let users = mixed_users();
        let (cell, inputs) = inputs_for(&users, 22);
        let golden =
            GoldenRecord::build(&cell, std::slice::from_ref(&inputs), TurboMode::Passthrough);
        let shared: Vec<Arc<UserInput>> = inputs.into_iter().map(Arc::new).collect();
        // Users 1, 2 and 4 lose their graphs at three different steps.
        let slot1_combine = DATA_SYMBOLS_PER_SLOT * users[2].layers + 1;
        let poisoned = [
            (1, Step::Estimate(3)),
            (2, Step::Combine(slot1_combine)),
            (4, Step::Finish),
        ];
        POISONED.lock().unwrap().extend(
            poisoned
                .iter()
                .map(|&(u, step)| (Arc::as_ptr(&shared[u]) as usize, step.word())),
        );
        let mut d = Dispatcher::new(1, TurboMode::Passthrough, &[]).unwrap();
        for input in &shared {
            assert!(
                d.wait_below(1, Duration::from_secs(10)),
                "a lost graph must not hold its row open"
            );
            d.dispatch(std::iter::once((&cell, input)));
        }
        d.pool().wait_all();
        assert_eq!(d.shared.graphs.lock().unwrap().len(), 1);
        let rows = d.finish();
        assert_eq!(d.pool().poisoned_tasks(), poisoned.len() as u64);
        for (u, row) in rows.iter().enumerate() {
            let lost = poisoned.iter().any(|&(p, _)| p == u);
            match &row.results[0] {
                None => assert!(lost, "user {u} was lost"),
                Some(result) => {
                    assert!(!lost, "user {u} should have been lost");
                    assert_eq!(result, &golden.subframe(0)[u], "user {u}");
                }
            }
        }
    }

    #[test]
    fn steps_round_trip_through_the_task_word() {
        for step in [
            Step::Estimate(0),
            Step::Estimate(63),
            Step::Combine(0),
            Step::Combine(47),
            Step::Finish,
        ] {
            assert_eq!(Step::of(step.word()), step);
        }
    }

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

    /// The tick loop asks its source once per tick until it says stop,
    /// opens a row on loaded ticks only, and runs the source — so the
    /// dispatch after it — only while fewer than `window` rows are open.
    #[test]
    fn open_rows_never_exceed_the_window() {
        let (cell, inputs) = small_inputs(3);
        for window in [1, 2, 3] {
            let mut d = Dispatcher::new(2, TurboMode::Passthrough, &[]).unwrap();
            let shared = Arc::clone(&d.shared);
            let mut asked = Vec::new();
            let ticked = d.run_ticks(
                &cell,
                Duration::ZERO,
                100,
                Some(window),
                Duration::MAX,
                |_, b| {
                    let open = *shared.open_rows();
                    assert!(open < window, "tick {}: {open} rows open", b.tick);
                    asked.push(b.tick);
                    match b.tick {
                        18 => Tick::Stop,
                        t if t % 3 == 1 => Tick::Idle,
                        _ => Tick::Row(&inputs[..]),
                    }
                },
            );
            let ticked = ticked.expect("no wait stalls");
            assert_eq!(asked, (0..=18).collect::<Vec<u64>>());
            assert_eq!(ticked.ticks, 18);
            let rows = ticked.rows;
            assert_eq!(rows.len(), 12, "the six idle ticks open no row");
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

    /// Holds worker `i` of `d`'s two-worker pool in a task until
    /// `gates[i]`'s write guard drops, and returns once both are held.
    fn hold_both_workers(d: &Dispatcher, gates: &Arc<[RwLock<()>; 2]>) {
        let inside = Arc::new(Barrier::new(3));
        for _ in 0..2 {
            let (gates, inside) = (Arc::clone(gates), Arc::clone(&inside));
            d.pool().spawn(move || {
                let name = std::thread::current().name().map(str::to_owned);
                let worker = name.and_then(|n| n.strip_prefix("lte-worker-")?.parse().ok());
                let worker: usize = worker.expect("runs on a pool worker");
                // A worker waiting here takes no other task, so each of
                // the two blockers holds its own worker.
                inside.wait();
                drop(gates[worker].read());
            });
        }
        inside.wait();
    }

    /// With every worker held, no row closes: each slot wait stalls, the
    /// watchdog restarts the pipeline `MAX_RESTARTS` times and the next
    /// stall ends the run. The restarts kill no worker; released, the
    /// pool runs the row and drops without hanging.
    #[test]
    fn a_stalled_pipeline_restarts_then_gives_up() {
        let (cell, inputs) = small_inputs(1);
        let mut d = Dispatcher::new(2, TurboMode::Passthrough, &[]).unwrap();
        let gates = Arc::new([RwLock::new(()), RwLock::new(())]);
        let held = gates.each_ref().map(|gate| gate.write().unwrap());
        hold_both_workers(&d, &gates);
        let stall = Duration::from_millis(20);
        let mut asked = Vec::new();
        let ticked = d.run_ticks(&cell, Duration::ZERO, 10, Some(1), stall, |_, b| {
            asked.push(b.tick);
            Tick::Row(&inputs[..])
        });
        let err = ticked.err().expect("a held pool stalls the run");
        assert_eq!(
            err,
            format!(
                "pipeline stalled: no completion progress after {MAX_RESTARTS} watchdog restarts"
            )
        );
        assert_eq!(asked, [0], "tick 1 never got a slot");
        drop(held);
        d.pool().wait_all();
        assert_eq!(d.pool().worker_respawns(), 0, "a restart kills no worker");
        let closed = d.latency().snapshot().count;
        assert_eq!(closed, 1, "the stalled row closes once released");
    }

    /// A governor that parked the one worker left free stalls the
    /// pipeline; the watchdog's restart restores the pool to full width,
    /// the row closes, and the tick that waited tells its source.
    #[test]
    fn a_restart_clears_a_parked_pool_and_the_waiting_tick_reports_it() {
        let (cell, inputs) = small_inputs(1);
        let mut d = Dispatcher::new(2, TurboMode::Passthrough, &[]).unwrap();
        let gates = Arc::new([RwLock::new(()), RwLock::new(())]);
        let [held0, held1] = gates.each_ref().map(|gate| gate.write().unwrap());
        hold_both_workers(&d, &gates);
        // Released above the cap, worker 1 parks; worker 0 stays held.
        d.pool().set_active_workers(1);
        drop(held1);
        let mut held0 = Some(held0);
        let stall = Duration::from_millis(200);
        let mut stalls = Vec::new();
        let ticked = d.run_ticks(&cell, Duration::ZERO, 2, Some(1), stall, |_, b| {
            stalls.push(b.stalls);
            if b.tick == 1 {
                // Free worker 0 so the final drain completes.
                held0.take();
            }
            Tick::Row(&inputs[..])
        });
        let ticked = ticked.expect("the restart clears the stall");
        assert_eq!(ticked.rows.len(), 2);
        assert_eq!(stalls[0], 0);
        assert!(
            (1..=MAX_RESTARTS).contains(&stalls[1]),
            "tick 1 reports {} restarts",
            stalls[1]
        );
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
        let closed = d.latency().snapshot().count;
        assert_eq!(closed, 1, "only the row with a user closed late");
        for i in [0, 2] {
            assert!(rows[i].results.is_empty());
            assert_eq!(rows[i].done_ns, rows[i].dispatched_ns);
        }
        assert!(rows[1].results[0].is_some());
    }
}

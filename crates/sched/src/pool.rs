//! A real work-stealing thread pool mirroring the paper's Pthreads runtime.
//!
//! Structure (§IV-B/C of the paper):
//!
//! * a **global user queue** — each user's root task enters it from the
//!   coordinator (any thread that is not one of this pool's workers),
//!   and idle workers check it *before* stealing fine-grained tasks, so
//!   new subframes start promptly;
//! * **per-worker task deques** — a worker's tasks spawn their
//!   successors onto its deque, which the owner pops newest first (so a
//!   dependency chain runs back-to-back on one core with hot caches) and
//!   idle workers steal from oldest first, one task at a time (the
//!   paper's "if no work exists in its own queue, it tries to steal work
//!   from another worker thread"). Both queue kinds are the private
//!   `deque` module's mutex-guarded `VecDeque`: correct and ordered, not
//!   lock-free;
//! * **spin-then-park idling** — a worker that finds no work anywhere
//!   retries briefly, then parks on a condvar with exponentially growing
//!   timeouts instead of burning a core, and is woken by the next spawn;
//! * **one kind of work, the detached task** — a closure or a
//!   [`TaskState`] word, one representation either way — that blocks no
//!   thread: a task spawns its successors, and [`TaskPool::wait_all`]
//!   counts every spawned task, so a subframe drains with no barrier;
//! * **cycle accounting** — every task is timed on the worker that ran
//!   it, the analogue of the paper's `get_cycle_count()`, so Eq. 2
//!   activity is computed for real runs too; every pool-wide total is
//!   the sum of the per-worker counters.
//!
//! A worker's work search is: own deque → global queue → round-robin
//! steal of one task from the other workers' deques — the discipline the
//! discrete-event simulator models.

use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lte_obs::MetricsRegistry;

use crate::deque::Deque;

/// State that pool tasks run on with no allocation per task: the task
/// `(Arc<S>, word)` ([`PoolHandle::spawn_on`]) calls `S::run(state, word)`.
pub trait TaskState: Send + Sync + 'static {
    /// Runs the task that `word` names.
    fn run(self: Arc<Self>, word: usize);
}

/// The pool's one task representation: an owned state — a closure's
/// `Box` or a [`TaskState`]'s `Arc` — behind an erased pointer, one word,
/// and the function that rebuilds the state and runs it or drops it.
pub(crate) struct Task {
    state: NonNull<()>,
    word: usize,
    consume: unsafe fn(NonNull<()>, usize, bool),
}

// SAFETY: a task owns its state, which is `Send`: a closure `F: Send` or
// an `Arc<S>` with `S: Send + Sync`.
unsafe impl Send for Task {}

impl Task {
    fn closure<F: FnOnce() + Send + 'static>(f: F) -> Self {
        /// # Safety
        ///
        /// `state` is the `Box<F>` that `Task::closure` leaked, consumed once.
        unsafe fn consume<F: FnOnce()>(state: NonNull<()>, _: usize, run: bool) {
            let f = state.cast::<F>().as_ptr();
            debug_assert!(f.is_aligned(), "a task's state pointer is its own");
            // SAFETY: the contract above.
            let f = unsafe { Box::from_raw(f) };
            if run {
                f();
            }
        }
        let state = NonNull::from(Box::leak(Box::new(f))).cast();
        Task {
            state,
            word: 0,
            consume: consume::<F>,
        }
    }

    fn shared<S: TaskState>(state: Arc<S>, word: usize) -> Self {
        /// # Safety
        ///
        /// `state` is the count that `Task::shared` leaked, consumed once.
        unsafe fn consume<S: TaskState>(state: NonNull<()>, word: usize, run: bool) {
            let s = state.cast::<S>().as_ptr().cast_const();
            debug_assert!(s.is_aligned(), "a task's state pointer is its own");
            // SAFETY: the contract above.
            let s = unsafe { Arc::from_raw(s) };
            if run {
                s.run(word);
            }
        }
        let state = NonNull::new(Arc::into_raw(state).cast_mut()).expect("an Arc is non-null");
        Task {
            state: state.cast(),
            word,
            consume: consume::<S>,
        }
    }

    fn run(self) {
        let task = ManuallyDrop::new(self);
        // SAFETY: `consume` and `state` come from one constructor, and
        // `ManuallyDrop` keeps `Drop` from consuming the state again.
        unsafe { (task.consume)(task.state, task.word, true) }
    }
}

impl Drop for Task {
    fn drop(&mut self) {
        // SAFETY: as in `run`; a task runs or drops, never both.
        unsafe { (self.consume)(self.state, self.word, false) }
    }
}

/// Consecutive empty work searches a worker tolerates (yielding between
/// attempts) before it parks on the idle condvar.
const SPIN_RETRIES: u32 = 3;
/// First parking timeout; doubles on every consecutive park up to
/// [`PARK_MAX`]. Timeouts (rather than indefinite parks) also paper over
/// the pool's own missed-wakeup window: [`Inner::wake_idle`] notifies
/// without taking `idle_lock`, so a worker that has checked the queues
/// but not yet parked sleeps through that notify.
const PARK_BASE: Duration = Duration::from_micros(50);
/// Parking timeout ceiling.
const PARK_MAX: Duration = Duration::from_millis(2);
/// Parking timeout of a governor-deactivated worker (the `nap` wake-poll
/// analogue): bounded so a raised limit — or shutdown — is noticed
/// promptly even if a wakeup is missed.
const GOVERNOR_PARK: Duration = Duration::from_micros(200);

/// Why a pool could not be constructed.
#[derive(Debug)]
pub enum PoolError {
    /// `n_workers == 0` was requested.
    ZeroWorkers,
    /// The OS refused to spawn a worker thread.
    Spawn(std::io::Error),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ZeroWorkers => write!(f, "task pool needs at least one worker"),
            PoolError::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::ZeroWorkers => None,
            PoolError::Spawn(e) => Some(e),
        }
    }
}

/// The host's available hardware parallelism, falling back to **1**
/// (extra threads on an unknowable host only add contention noise): the
/// one source of every default worker count, so no two layers disagree.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Panic payload that fail-stops the worker executing it; the pool's
/// supervision loop catches it, counts a respawn and revives the worker
/// in place (its deque — and any tasks on it — survive).
///
/// Injected by chaos campaigns via [`TaskPool::inject_worker_kill`].
#[derive(Debug)]
pub struct WorkerKill;

/// Panic payload for seeded task-level fault injection: caught by the
/// pool, counted under `poisoned_tasks`, never kills the worker.
#[derive(Debug)]
pub struct InjectedPanic;

/// Installs (once, process-wide) a panic hook that suppresses the
/// default stderr report for [`WorkerKill`] / [`InjectedPanic`]
/// payloads, delegating everything else to the previous hook. Chaos
/// campaigns inject panics by the hundred; real failures stay loud.
pub fn silence_injected_panics() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected =
                info.payload().is::<WorkerKill>() || info.payload().is::<InjectedPanic>();
            if !injected {
                previous(info);
            }
        }));
    });
}

thread_local! {
    /// `(pool, index)` of this worker thread — the pool as the address of
    /// its [`Inner`], which the worker keeps alive (and so unique). Read
    /// only through [`worker_of`].
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Per-worker activity counters, all updated with relaxed atomics from
/// the worker's own thread. The pool-wide totals are their sums.
#[derive(Default)]
struct WorkerStats {
    busy_nanos: AtomicU64,
    executed_tasks: AtomicU64,
    steals: AtomicU64,
    steal_failures: AtomicU64,
    parks: AtomicU64,
}

struct Inner {
    /// The global user queue, fed by every thread that is not one of
    /// this pool's workers.
    global: Deque<Task>,
    /// Every worker's local deque, indexed by worker.
    deques: Vec<Deque<Task>>,
    shutdown: AtomicBool,
    /// Spawned tasks not yet finished: what [`TaskPool::wait_all`]
    /// waits on.
    pending: AtomicUsize,
    poisoned_tasks: AtomicU64,
    worker_respawns: AtomicU64,
    worker_stats: Vec<WorkerStats>,
    /// Workers parked (or about to park) on `idle_cv`; while it is zero
    /// a spawn skips the condvar entirely.
    idle_workers: AtomicUsize,
    /// Governor cap: only workers with `index < active_limit` search for
    /// new work; the rest drain their local deque and park (the paper's
    /// proactive `nap`). Always in `[1, n_workers]`.
    active_limit: AtomicUsize,
    /// Total nanoseconds workers have spent parked by the governor cap —
    /// the real-pool analogue of the DES nap-cycle accounting.
    governor_parked_nanos: AtomicU64,
    /// `(instant, busy_nanos)` at the previous boundary measurement, for
    /// [`TaskPool::boundary_activity`].
    boundary: Mutex<(Instant, u64)>,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Inner {
    /// Drops one unit of `pending`, waking `wait_all` on the last.
    /// Callers account the finished task *before* this.
    fn finish_pending(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // `wait_all` holds `done_lock` from its read of `pending`
            // until its wait releases it, so either it reads zero or this
            // acquire blocks until it is parked: no notify is missed.
            drop(lock(&self.done_lock));
            self.done_cv.notify_all();
        }
    }

    /// Wakes parked workers if — and only if — any worker is parked.
    fn wake_idle(&self) {
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Sums one counter over the workers.
    fn total(&self, counter: impl Fn(&WorkerStats) -> &AtomicU64) -> u64 {
        self.worker_stats
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Worker `w`'s work search: its own deque (newest first), the global
    /// user queue (§IV-C: checked before stealing), then one task stolen
    /// from the other workers' deques, round-robin from `w + 1`.
    fn find_task(&self, w: usize) -> Option<Task> {
        if let Some(task) = self.deques[w].pop().or_else(|| self.global.steal()) {
            return Some(task);
        }
        let n = self.deques.len();
        let task = (1..n).find_map(|i| self.deques[(w + i) % n].steal())?;
        self.worker_stats[w].steals.fetch_add(1, Ordering::Relaxed);
        Some(task)
    }
}

/// Locks ignoring poison: the pool's mutexes guard `()` or one plain
/// `(Instant, u64)` pair, which no panic can leave half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One bounded condvar wait, poison ignored as in [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// The calling thread's worker index in *this* pool: `None` on every
/// other thread, another pool's worker included.
fn worker_of(inner: &Inner) -> Option<usize> {
    let (pool, index) = WORKER.with(Cell::get)?;
    (pool == inner as *const Inner as usize).then_some(index)
}

/// Enqueues a detached task: onto the calling worker's own deque when on
/// one of this pool's worker threads, or onto the global user queue
/// otherwise.
fn spawn_inner(inner: &Inner, task: Task) {
    inner.pending.fetch_add(1, Ordering::SeqCst);
    match worker_of(inner) {
        Some(w) => inner.deques[w].push(task),
        None => inner.global.push(task),
    }
    inner.wake_idle();
}

/// A cloneable, `'static` handle for spawning detached tasks onto the
/// pool, from which a task spawns its successors. It owns no worker
/// threads: dropping the [`TaskPool`] still shuts the workers down.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<Inner>,
}

impl PoolHandle {
    /// Spawns a detached task (see [`TaskPool::spawn`]).
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        spawn_inner(&self.inner, Task::closure(task));
    }

    /// Spawns the detached task `(state, word)` (see [`TaskState`]), with
    /// no allocation: the task holds one more count on `state`.
    pub fn spawn_on<S: TaskState>(&self, state: Arc<S>, word: usize) {
        spawn_inner(&self.inner, Task::shared(state, word));
    }
}

/// A work-stealing thread pool with a global user queue and per-worker
/// task deques.
///
/// # Example
///
/// ```
/// use lte_sched::TaskPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = TaskPool::new(4).expect("spawn workers");
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..10 {
///     // One root task per user enters the global queue; running on a
///     // worker, it fans its children out onto that worker's deque.
///     let (c, handle) = (Arc::clone(&counter), pool.handle());
///     pool.spawn(move || {
///         for _ in 0..8 {
///             let c = Arc::clone(&c);
///             handle.spawn(move || {
///                 c.fetch_add(1, Ordering::Relaxed);
///             });
///         }
///     });
/// }
/// pool.wait_all();
/// assert_eq!(counter.load(Ordering::Relaxed), 80);
/// ```
pub struct TaskPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    n_workers: usize,
}

impl TaskPool {
    /// Spawns a pool with `n_workers` OS threads.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::ZeroWorkers`] for an empty pool and
    /// [`PoolError::Spawn`] when the OS refuses a worker thread (any
    /// already-spawned workers are shut down and joined first).
    pub fn new(n_workers: usize) -> Result<Self, PoolError> {
        if n_workers == 0 {
            return Err(PoolError::ZeroWorkers);
        }
        let inner = Arc::new(Inner {
            global: Deque::new(),
            deques: (0..n_workers).map(|_| Deque::new()).collect(),
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            poisoned_tasks: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            worker_stats: (0..n_workers).map(|_| WorkerStats::default()).collect(),
            idle_workers: AtomicUsize::new(0),
            active_limit: AtomicUsize::new(n_workers),
            governor_parked_nanos: AtomicU64::new(0),
            boundary: Mutex::new((Instant::now(), 0)),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let thread_inner = Arc::clone(&inner);
            match std::thread::Builder::new()
                .name(format!("lte-worker-{i}"))
                .spawn(move || worker_entry(thread_inner, i))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    inner.shutdown.store(true, Ordering::SeqCst);
                    inner.idle_cv.notify_all();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(PoolError::Spawn(e));
                }
            }
        }
        Ok(TaskPool {
            inner,
            workers,
            n_workers,
        })
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// A cloneable handle for spawning detached continuation tasks.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Spawns a detached task: no thread blocks on its completion, but
    /// [`TaskPool::wait_all`] counts it. It enters the spawning worker's
    /// deque, or the global user queue from any other thread.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        spawn_inner(&self.inner, Task::closure(task));
    }

    /// Blocks until every spawned task has completed.
    pub fn wait_all(&self) {
        let inner = &self.inner;
        let mut guard = lock(&inner.done_lock);
        while inner.pending.load(Ordering::SeqCst) > 0 {
            // `finish_pending` wakes this wait; the timeout is a backstop.
            guard = wait(&inner.done_cv, guard, Duration::from_millis(10));
        }
    }

    /// Total nanoseconds of useful task execution so far — the
    /// `get_cycle_count()` sum of Eq. 1.
    pub fn busy_nanos(&self) -> u64 {
        self.inner.total(|s| &s.busy_nanos)
    }

    /// Total tasks executed so far.
    pub fn executed_tasks(&self) -> u64 {
        self.inner.total(|s| &s.executed_tasks)
    }

    /// Number of successful steals from other workers' deques so far.
    pub fn steal_count(&self) -> u64 {
        self.inner.total(|s| &s.steals)
    }

    /// Times any worker parked on the idle condvar.
    pub fn parks(&self) -> u64 {
        self.inner.total(|s| &s.parks)
    }

    /// Tasks that panicked and were contained by the pool.
    pub fn poisoned_tasks(&self) -> u64 {
        self.inner.poisoned_tasks.load(Ordering::Relaxed)
    }

    /// Workers revived after a [`WorkerKill`] fail-stop.
    pub fn worker_respawns(&self) -> u64 {
        self.inner.worker_respawns.load(Ordering::Relaxed)
    }

    /// Chaos injection: spawns a task that fail-stops whichever worker
    /// executes it. [`wait_all`](TaskPool::wait_all) counts it; the
    /// worker revives in place and counts the respawn just after.
    pub fn inject_worker_kill(&self) {
        self.spawn(|| std::panic::panic_any(WorkerKill));
    }

    /// Publishes pool totals and per-worker counters into `metrics`
    /// under `pool.*` / `pool.worker.<i>.*` keys.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        metrics.set_counter("pool.busy_nanos", self.busy_nanos());
        metrics.set_counter("pool.executed_tasks", self.executed_tasks());
        metrics.set_counter("pool.steals", self.steal_count());
        let failures = self.inner.total(|s| &s.steal_failures);
        metrics.set_counter("pool.steal_failures", failures);
        metrics.set_counter("pool.parks", self.parks());
        metrics.set_counter("pool.poisoned_tasks", self.poisoned_tasks());
        metrics.set_counter("pool.worker_respawns", self.worker_respawns());
        metrics.set_counter("pool.workers", self.n_workers as u64);
        metrics.set_counter("pool.active_workers", self.active_workers() as u64);
        metrics.set_counter("pool.governor_parked_nanos", self.governor_parked_nanos());
        for (i, s) in self.inner.worker_stats.iter().enumerate() {
            let set = |key: &str, counter: &AtomicU64| {
                let value = counter.load(Ordering::Relaxed);
                metrics.set_counter(&format!("pool.worker.{i}.{key}"), value);
            };
            set("busy_nanos", &s.busy_nanos);
            set("executed_tasks", &s.executed_tasks);
            set("steals", &s.steals);
            set("steal_failures", &s.steal_failures);
            set("parks", &s.parks);
        }
    }

    /// Caps execution to the first `n` workers (clamped to
    /// `[1, n_workers]`) — the elastic-control analogue of the paper's
    /// proactive core deactivation. Workers at or above the cap finish
    /// their local work, then park; their deques remain stealable, so
    /// applying a target at a subframe boundary cannot change results.
    pub fn set_active_workers(&self, n: usize) {
        let n = n.clamp(1, self.n_workers);
        self.inner.active_limit.store(n, Ordering::SeqCst);
        // Parked workers re-check the limit on wake; the bounded park
        // timeout covers any missed notification.
        self.inner.wake_idle();
    }

    /// Workers currently allowed to search for work.
    pub fn active_workers(&self) -> usize {
        self.inner.active_limit.load(Ordering::SeqCst)
    }

    /// Total nanoseconds workers have spent parked under the governor
    /// cap — the real-pool "deactivated core time" of Tables I–II.
    pub fn governor_parked_nanos(&self) -> u64 {
        self.inner.governor_parked_nanos.load(Ordering::Relaxed)
    }

    /// Eq. 2 activity since the previous call (or construction):
    /// Δ`busy_nanos` over `n_workers × Δt` — the measured side of the
    /// Fig. 12 estimated-vs-measured comparison at subframe boundaries.
    pub fn boundary_activity(&self) -> f64 {
        let mut last = lock(&self.inner.boundary);
        let now = Instant::now();
        let busy = self.busy_nanos();
        let (t0, busy0) = *last;
        *last = (now, busy);
        let window = now.duration_since(t0).as_nanos() as f64;
        if window <= 0.0 {
            return 0.0;
        }
        busy.saturating_sub(busy0) as f64 / (self.n_workers as f64 * window)
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.idle_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Executes one task on worker `w` with cycle accounting and panic
/// containment: a panicking task is counted under `poisoned_tasks` and
/// swallowed. The task's unit of `pending` is released after the
/// accounting (so `wait_all` returns to counters that include it) and
/// even on a panic. A [`WorkerKill`] payload is re-raised last, so it
/// fail-stops the worker (which [`worker_entry`] revives).
fn run_timed(inner: &Inner, w: usize, task: Task) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| task.run()));
    let stats = &inner.worker_stats[w];
    let nanos = start.elapsed().as_nanos() as u64;
    stats.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    stats.executed_tasks.fetch_add(1, Ordering::Relaxed);
    let kill = match result {
        Ok(()) => None,
        Err(payload) if payload.is::<WorkerKill>() => Some(payload),
        Err(_) => {
            inner.poisoned_tasks.fetch_add(1, Ordering::Relaxed);
            None
        }
    };
    inner.finish_pending();
    if let Some(payload) = kill {
        resume_unwind(payload);
    }
}

/// Worker thread body: a supervision loop around [`worker_loop`]. A
/// [`WorkerKill`] models a core dying; the loop is re-entered with the
/// same deque, so queued tasks survive the "death".
fn worker_entry(inner: Arc<Inner>, index: usize) {
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&inner) as usize, index))));
    while catch_unwind(AssertUnwindSafe(|| worker_loop(&inner, index))).is_err() {
        inner.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_loop(inner: &Inner, index: usize) {
    let stats = &inner.worker_stats[index];
    // Consecutive failed work searches; reset by any successful find.
    let mut idle_streak: u32 = 0;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Governor gate: a worker at or above the active limit drains
        // its local work, then parks until the limit rises. It never
        // takes from the global queue or steals, so a target changes
        // where work runs, never what is computed; its deque stays
        // stealable, so nothing it holds is stranded.
        if index >= inner.active_limit.load(Ordering::SeqCst) {
            if let Some(t) = inner.deques[index].pop() {
                idle_streak = 0;
                run_timed(inner, index, t);
                continue;
            }
            let park_start = Instant::now();
            inner.idle_workers.fetch_add(1, Ordering::SeqCst);
            let mut guard = lock(&inner.idle_lock);
            if index >= inner.active_limit.load(Ordering::SeqCst)
                && !inner.shutdown.load(Ordering::SeqCst)
            {
                guard = wait(&inner.idle_cv, guard, GOVERNOR_PARK);
            }
            drop(guard);
            inner.idle_workers.fetch_sub(1, Ordering::SeqCst);
            inner
                .governor_parked_nanos
                .fetch_add(park_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            continue;
        }
        if let Some(t) = inner.find_task(index) {
            idle_streak = 0;
            run_timed(inner, index, t);
            continue;
        }
        // Nothing to do: count the failed search, then back off — a few
        // cheap yields first (work often arrives within microseconds),
        // then park on the idle condvar with exponentially growing
        // timeouts (the IDLE policy analogue).
        stats.steal_failures.fetch_add(1, Ordering::Relaxed);
        idle_streak = idle_streak.saturating_add(1);
        if idle_streak <= SPIN_RETRIES {
            std::thread::yield_now();
            continue;
        }
        let exp = (idle_streak - SPIN_RETRIES - 1).min(10);
        let timeout = PARK_MAX.min(PARK_BASE * 2u32.saturating_pow(exp));
        inner.idle_workers.fetch_add(1, Ordering::SeqCst);
        let mut guard = lock(&inner.idle_lock);
        if inner.global.is_empty() && !inner.shutdown.load(Ordering::SeqCst) {
            stats.parks.fetch_add(1, Ordering::Relaxed);
            guard = wait(&inner.idle_cv, guard, timeout);
        }
        drop(guard);
        inner.idle_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Spawns one root task from the calling (non-worker) thread; on its
    /// worker the root spawns `children` copies of `child`, the shape of
    /// a user's task graph.
    fn fan_out(pool: &TaskPool, children: usize, child: impl Fn() + Send + Sync + 'static) {
        let handle = pool.handle();
        let child = Arc::new(child);
        pool.spawn(move || {
            for _ in 0..children {
                let child = Arc::clone(&child);
                handle.spawn(move || child());
            }
        });
    }

    #[test]
    fn executes_every_root_task_and_child() {
        let pool = TaskPool::new(4).unwrap();
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            fan_out(&pool, 3, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(counter.load(Ordering::SeqCst), 300);
        assert_eq!(pool.executed_tasks(), 400);
    }

    /// A [`TaskState`] task is `(Arc<S>, word)`: it runs with its word and
    /// holds one count while queued. A task dropped unrun — a pool shut
    /// down with work queued, closure or state — releases what it owns.
    #[test]
    fn state_tasks_run_with_their_word_and_unrun_tasks_release_their_state() {
        struct Sum(AtomicUsize);
        impl TaskState for Sum {
            fn run(self: Arc<Self>, word: usize) {
                self.0.fetch_add(word, Ordering::SeqCst);
            }
        }
        let sum = Arc::new(Sum(AtomicUsize::new(0)));
        let pool = TaskPool::new(2).unwrap();
        let handle = pool.handle();
        for word in 1..=100 {
            handle.spawn_on(Arc::clone(&sum), word);
        }
        pool.wait_all();
        assert_eq!(sum.0.load(Ordering::SeqCst), 5050);
        assert_eq!(Arc::strong_count(&sum), 1, "a run task released its count");

        // The one worker holds a task until shutdown, so what is queued
        // behind it is dropped unrun with the pool.
        let pool = TaskPool::new(1).unwrap();
        let (inner, (started, running)) = (Arc::clone(&pool.inner), std::sync::mpsc::channel());
        pool.spawn(move || {
            started.send(()).unwrap();
            while !inner.shutdown.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        running.recv().unwrap();
        for word in 0..10 {
            pool.handle().spawn_on(Arc::clone(&sum), word);
            let held = Arc::clone(&sum);
            pool.spawn(move || drop(held));
        }
        assert_eq!(Arc::strong_count(&sum), 21);
        drop(pool);
        assert_eq!(sum.0.load(Ordering::SeqCst), 5050, "no queued task ran");
        assert_eq!(
            Arc::strong_count(&sum),
            1,
            "unrun tasks released their state"
        );
    }

    #[test]
    fn accounting_accumulates() {
        let pool = TaskPool::new(2).unwrap();
        fan_out(&pool, 4, || std::thread::sleep(Duration::from_millis(5)));
        pool.wait_all();
        assert!(pool.busy_nanos() >= 4 * 5_000_000, "{}", pool.busy_nanos());
        assert_eq!(pool.executed_tasks(), 5, "the root and its four children");
    }

    #[test]
    fn parallel_speedup_on_sleep_tasks() {
        // 8 × 20 ms of sleeping on 8 workers should take well under the
        // 160 ms serial time.
        let pool = TaskPool::new(8).unwrap();
        let start = Instant::now();
        fan_out(&pool, 8, || std::thread::sleep(Duration::from_millis(20)));
        pool.wait_all();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(120),
            "took {elapsed:?}, expected parallel execution"
        );
    }

    #[test]
    fn stealing_happens_under_load() {
        // With several workers and sleeping tasks spawned by one root
        // task, other workers must steal to overlap the sleeps.
        let pool = TaskPool::new(4).unwrap();
        fan_out(&pool, 12, || std::thread::sleep(Duration::from_millis(3)));
        pool.wait_all();
        assert!(
            pool.steal_count() > 0,
            "parallel sleeps require successful steals"
        );
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = TaskPool::new(4).unwrap();
        fan_out(&pool, 4, || ());
        pool.wait_all();
        drop(pool); // must not hang
    }

    #[test]
    fn many_root_tasks_stress() {
        let pool = TaskPool::new(4).unwrap();
        let total = Arc::new(AtomicU32::new(0));
        for j in 0..200 {
            let t = Arc::clone(&total);
            fan_out(&pool, j % 7 + 1, move || {
                t.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        let expect: u32 = (0..200).map(|j| j % 7 + 1).sum();
        assert_eq!(total.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(matches!(TaskPool::new(0), Err(PoolError::ZeroWorkers)));
    }

    #[test]
    fn spawned_tasks_counted_by_wait_all() {
        let pool = TaskPool::new(2).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..50 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn spawned_chains_complete() {
        // Each chain link spawns the next from inside a worker, onto that
        // worker's deque.
        let pool = TaskPool::new(2).unwrap();
        let handle = pool.handle();
        let hits = Arc::new(AtomicU32::new(0));
        fn link(handle: PoolHandle, hits: Arc<AtomicU32>, depth: u32) {
            hits.fetch_add(1, Ordering::SeqCst);
            if depth > 0 {
                let next = handle.clone();
                handle.spawn(move || link(next.clone(), hits, depth - 1));
            }
        }
        for _ in 0..4 {
            let handle = handle.clone();
            let hits = Arc::clone(&hits);
            pool.spawn(move || link(handle.clone(), hits, 24));
        }
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 4 * 25);
    }

    #[test]
    fn a_fan_out_from_one_worker_loses_no_task() {
        // One worker spawns ten tasks in a row onto its own deque; every
        // one must run.
        let pool = TaskPool::new(1).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        fan_out(&pool, 10, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn idle_workers_park_instead_of_spinning() {
        let pool = TaskPool::new(4).unwrap();
        pool.spawn(|| ());
        pool.wait_all();
        // Give the workers time to exhaust their spin retries.
        std::thread::sleep(Duration::from_millis(30));
        assert!(pool.parks() > 0, "an empty pool must park its workers");
    }

    #[test]
    fn poisoned_child_task_does_not_hang_wait_all() {
        silence_injected_panics();
        let pool = TaskPool::new(4).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let (h, handle) = (Arc::clone(&hits), pool.handle());
        pool.spawn(move || {
            for _ in 0..15 {
                let h = Arc::clone(&h);
                handle.spawn(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
            handle.spawn(|| std::panic::panic_any(InjectedPanic));
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 15);
        assert_eq!(pool.poisoned_tasks(), 1);
        // The panic stayed inside the pool: no worker died for it.
        assert_eq!(pool.worker_respawns(), 0);
    }

    /// Regression for the accounting race: a task used to release its
    /// unit of `pending` *before* `run_timed` counted it, so `wait_all`
    /// could return while a stolen task's `poisoned_tasks` /
    /// `executed_tasks` adds were still in flight and the caller read
    /// counters one task short. Each round is the seeded-panic property
    /// case (root tasks fanning children out over 4 workers); the
    /// counters must be exact the moment `wait_all` returns, every round.
    #[test]
    fn accounting_lands_before_wait_all_returns_under_seeded_panics() {
        use lte_fault::FaultPlan;
        silence_injected_panics();
        const ROUNDS: usize = 250;
        const ROOTS: usize = 4;
        const TASKS: usize = 8;
        let plan = FaultPlan {
            task_panic_permille: 150,
            ..FaultPlan::quiet(0xFA17)
        };
        let pool = TaskPool::new(4).unwrap();
        let (mut planned, mut executed) = (0u64, 0u64);
        for round in 0..ROUNDS {
            for root in 0..ROOTS {
                let panics: Vec<bool> = (0..TASKS)
                    .map(|task| plan.task_panics(round, root * TASKS + task))
                    .collect();
                planned += panics.iter().filter(|&&p| p).count() as u64;
                executed += 1 + TASKS as u64;
                let handle = pool.handle();
                pool.spawn(move || {
                    for panics in panics {
                        handle.spawn(move || {
                            if panics {
                                std::panic::panic_any(InjectedPanic);
                            }
                        });
                    }
                });
            }
            pool.wait_all();
            assert_eq!(pool.poisoned_tasks(), planned, "round {round}");
            assert_eq!(pool.executed_tasks(), executed, "round {round}");
        }
        assert!(planned > 0, "the plan must actually inject panics");
    }

    #[test]
    fn poisoned_spawned_task_does_not_hang_wait_all() {
        silence_injected_panics();
        let pool = TaskPool::new(2).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..10 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                if i == 3 {
                    std::panic::panic_any(InjectedPanic);
                }
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 9);
        assert_eq!(pool.poisoned_tasks(), 1);
    }

    #[test]
    fn killed_worker_respawns_without_losing_tasks() {
        silence_injected_panics();
        let pool = TaskPool::new(4).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for round in 0..8 {
            if round == 3 || round == 5 {
                pool.inject_worker_kill();
            }
            for _ in 0..5 {
                let h = Arc::clone(&hits);
                fan_out(&pool, 5, move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.wait_all();
        }
        assert_eq!(
            hits.load(Ordering::SeqCst),
            8 * 25,
            "no task lost or doubled"
        );
        // `wait_all` covered the kill tasks themselves; the supervisor
        // counts each respawn a moment later.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.worker_respawns() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.worker_respawns(), 2);
        // The pool is still fully functional after both revivals.
        let h = Arc::clone(&hits);
        fan_out(&pool, 1, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 8 * 25 + 1);
    }

    #[test]
    fn per_worker_counters_sum_to_totals() {
        let pool = TaskPool::new(4).unwrap();
        for _ in 0..8 {
            fan_out(&pool, 16, || std::thread::sleep(Duration::from_micros(200)));
        }
        pool.wait_all();
        // Idle workers keep searching and parking after `wait_all`, so
        // those two totals are bracketed by reads before and after the
        // per-worker sums; every other counter stands still and must be
        // exact. The exported per-worker keys are what is summed.
        let failures = || pool.inner.total(|s| &s.steal_failures);
        let (failures_before, parks_before) = (failures(), pool.parks());
        let metrics = lte_obs::MetricsRegistry::new();
        pool.export_metrics(&metrics);
        let sum = |key: &str| {
            (0..pool.n_workers())
                .map(|i| match metrics.get(&format!("pool.worker.{i}.{key}")) {
                    Some(lte_obs::MetricValue::Counter(v)) => v,
                    other => panic!("pool.worker.{i}.{key} is {other:?}"),
                })
                .sum::<u64>()
        };
        assert_eq!(sum("executed_tasks"), pool.executed_tasks());
        assert_eq!(pool.executed_tasks(), 8 * (1 + 16));
        assert_eq!(sum("busy_nanos"), pool.busy_nanos());
        assert!(pool.busy_nanos() >= 8 * 16 * 200_000);
        assert_eq!(sum("steals"), pool.steal_count());
        let summed = sum("steal_failures");
        assert!(failures_before <= summed && summed <= failures());
        let parks = sum("parks");
        assert!(parks_before <= parks && parks <= pool.parks());
    }

    #[test]
    fn metrics_export_covers_every_worker() {
        let pool = TaskPool::new(3).unwrap();
        fan_out(&pool, 6, || std::thread::sleep(Duration::from_micros(100)));
        pool.wait_all();
        let metrics = lte_obs::MetricsRegistry::new();
        pool.export_metrics(&metrics);
        assert_eq!(
            metrics.get("pool.workers"),
            Some(lte_obs::MetricValue::Counter(3))
        );
        for key in ["pool.steals", "pool.parks", "pool.poisoned_tasks"] {
            assert!(metrics.get(key).is_some(), "missing {key}");
        }
        for i in 0..3 {
            // Each worker's counters are reachable both directly and
            // through the registry's prefix query.
            let per_worker = metrics.counters_with_prefix(&format!("pool.worker.{i}."));
            for key in [
                "busy_nanos",
                "executed_tasks",
                "steals",
                "steal_failures",
                "parks",
            ] {
                let full = format!("pool.worker.{i}.{key}");
                assert!(metrics.get(&full).is_some(), "missing {full}");
                assert!(
                    per_worker.iter().any(|(name, _)| *name == full),
                    "prefix query missing {full}"
                );
            }
        }
        let json = metrics.to_json();
        assert!(json.contains("\"pool.executed_tasks\": 7"), "{json}");
    }

    #[test]
    fn governor_cap_clamps_and_parks() {
        let pool = TaskPool::new(4).unwrap();
        assert_eq!(pool.active_workers(), 4);
        pool.set_active_workers(1);
        assert_eq!(pool.active_workers(), 1);
        // Can never drop below one active worker.
        pool.set_active_workers(0);
        assert_eq!(pool.active_workers(), 1);
        // Give the gated workers a moment to accumulate parked time.
        std::thread::sleep(Duration::from_millis(5));
        assert!(pool.governor_parked_nanos() > 0, "parked time must accrue");
        pool.set_active_workers(14);
        assert_eq!(pool.active_workers(), 4);
    }

    #[test]
    fn capped_pool_still_completes_all_work() {
        let pool = TaskPool::new(4).unwrap();
        pool.set_active_workers(1);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            fan_out(&pool, 2, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        // Only the one active worker took root tasks off the global queue.
        for i in 1..4 {
            let executed = pool.inner.worker_stats[i]
                .executed_tasks
                .load(Ordering::Relaxed);
            assert_eq!(executed, 0, "worker {i}");
        }
        pool.set_active_workers(4);
    }

    /// Worker identity is per pool: a task on pool A that spawns through
    /// B's handle used to land in A's local queue — A's worker then
    /// finished it against A's pending count (which wrapped below zero)
    /// while B's never dropped, and neither `wait_all` returned. The
    /// pools run on a helper thread so that hang fails the test instead.
    #[test]
    fn spawning_onto_another_pool_from_a_worker_lands_on_that_pool() {
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let a = TaskPool::new(4).unwrap();
            let b = TaskPool::new(2).unwrap();
            // From A's worker 2 or 3 a spawn onto B also used to index
            // B's two-entry per-worker state out of range: four roots
            // on A, so every A worker is likely to run one.
            for _ in 0..4 {
                let handle = b.handle();
                a.spawn(move || {
                    for _ in 0..2 {
                        handle.spawn(|| ());
                    }
                });
            }
            a.wait_all();
            b.wait_all();
            let _ = done.send((a.executed_tasks(), b.executed_tasks()));
        });
        let (on_a, on_b) = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("a cross-pool spawn must strand neither pool's wait_all");
        helper.join().unwrap();
        assert_eq!(on_a, 4, "A ran its own roots and nothing of B's");
        assert_eq!(on_b, 8, "B ran every task spawned onto it from A");
    }

    #[test]
    fn boundary_activity_tracks_busy_windows() {
        let pool = TaskPool::new(2).unwrap();
        // First call establishes the window baseline.
        let _ = pool.boundary_activity();
        let idle = {
            std::thread::sleep(Duration::from_millis(2));
            pool.boundary_activity()
        };
        assert!(idle < 0.5, "idle window must read (near) zero: {idle}");
        for _ in 0..4 {
            pool.spawn(|| {
                let start = Instant::now();
                while start.elapsed() < Duration::from_millis(2) {
                    std::hint::spin_loop();
                }
            });
        }
        pool.wait_all();
        let busy = pool.boundary_activity();
        assert!(busy > 0.0, "busy window must read positive: {busy}");
        assert!(busy <= 1.5, "activity is a fraction of capacity: {busy}");
    }
}

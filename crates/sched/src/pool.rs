//! A real work-stealing thread pool mirroring the paper's Pthreads runtime.
//!
//! Structure (§IV-B/C of the paper):
//!
//! * a **global user queue** of jobs — idle workers check it *before*
//!   stealing fine-grained tasks, so new subframes start promptly;
//! * **per-worker task deques** — a user thread (the worker that dequeued
//!   a job) spawns its tasks onto *its own* deque and pops them LIFO;
//!   idle workers steal FIFO from other workers' deques — the paper's
//!   "each worker thread has a local task queue, and if no work exists
//!   in its own queue, it tries to steal work from another worker
//!   thread". Every queue here, the global one included, is a
//!   mutex-guarded `VecDeque` on `std` (the private `deque` module), as
//!   plain as the paper's Pthreads queues: correct and ordered, not
//!   lock-free;
//! * **a bounded per-worker LIFO slot** — the most recently spawned
//!   continuation task is kept in a one-element slot private to the
//!   worker, so a dependency chain (estimate → weights → combine →
//!   finish) runs back-to-back on one core with hot caches instead of
//!   round-tripping through the deque;
//! * **batched steals** — a thief takes up to half the victim's deque in
//!   one operation (at most 32 tasks), amortising the steal
//!   synchronisation over many fine-grained tasks;
//! * **spin-then-park idling** — a worker that finds no work anywhere
//!   retries briefly, then parks on a condvar with exponentially growing
//!   timeouts instead of burning a core, and is woken by the next
//!   submit/spawn;
//! * **task scopes** ([`TaskPool::scope`]) — the fork-join barrier
//!   between pipeline phases: the caller helps execute until all tasks
//!   of the scope complete;
//! * **detached tasks** ([`TaskPool::spawn`], [`PoolHandle::spawn`]) —
//!   dependency-graph continuations that block no thread: a task's
//!   completion spawns its successors, and [`TaskPool::wait_all`] counts
//!   every spawned task, so a whole subframe pipeline can drain without
//!   any user thread standing at a barrier;
//! * **cycle accounting** — every executed task is timed, the analogue of
//!   the paper's `get_cycle_count()` instrumentation, so the activity
//!   metric (Eq. 2) can be computed for real runs too.
//!
//! One deliberate difference from the paper's implementation is noted on
//! [`TaskPool::scope`]: a waiting user thread here may help execute other
//! users' tasks instead of pure spinning, which only improves utilisation
//! and cannot change results (tasks write disjoint outputs).

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lte_obs::{Histogram, MetricsRegistry};

use crate::deque::Deque;

type Job = Box<dyn FnOnce(&TaskPool) + Send + 'static>;
type Task = Box<dyn FnOnce() + Send + 'static>;

/// What a finished task releases. [`run_timed`] does the release *after*
/// the task's accounting, so whoever it unblocks — `wait_all`, a scope
/// barrier — reads counters that already include the task.
enum Release {
    /// A detached task: one unit of `pending_jobs`.
    Pending,
    /// A scope member: one unit of that scope's barrier.
    Barrier(Arc<AtomicUsize>),
    /// Nobody waits on it (the injected worker kill).
    Nothing,
}

/// A task as the deques hold it.
struct Queued {
    run: Task,
    release: Release,
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
/// when it cannot be determined.
///
/// This is the single source of truth for every default-worker
/// decision — pool defaults, benchmark defaults and the CLI all route
/// through here, so two layers can never disagree on the worker count
/// when `available_parallelism` fails.
/// The fallback is 1 (not some optimistic core count): on a host whose
/// parallelism is unknowable, spawning extra threads only adds
/// contention noise to the measurements the pool exists to make.
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
    /// The bounded (one-element) LIFO slot holding this worker's most
    /// recently spawned task. Private to the worker — never stolen — so
    /// a continuation chain keeps its working set in cache.
    static LIFO_SLOT: RefCell<Option<Queued>> = const { RefCell::new(None) };
    /// `(pool, index)` of the worker thread currently running, if any —
    /// the pool as the address of its [`Inner`], which the worker keeps
    /// alive (and so unique) for as long as the thread runs. Read only
    /// through [`worker_of`].
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    /// Nanoseconds this thread has spent inside [`TaskPool::scope`] for
    /// the job currently executing — subtracted from the job's own
    /// elapsed time so barrier waits and helping are not double-counted
    /// as useful work.
    static SCOPE_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Per-worker activity counters, all updated with relaxed atomics from
/// the worker's own thread (plus foreign threads helping via `scope`).
#[derive(Default)]
struct WorkerStats {
    busy_nanos: AtomicU64,
    executed_tasks: AtomicU64,
    steals: AtomicU64,
    steal_failures: AtomicU64,
    slot_hits: AtomicU64,
    steal_batches: AtomicU64,
    parks: AtomicU64,
}

/// A point-in-time copy of one worker's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Nanoseconds of useful task execution on this worker.
    pub busy_nanos: u64,
    /// Tasks this worker executed (its own plus stolen ones).
    pub executed_tasks: u64,
    /// Successful steals from other workers' deques.
    pub steals: u64,
    /// Work searches that found nothing anywhere.
    pub steal_failures: u64,
    /// Tasks this worker took from its bounded LIFO slot.
    pub slot_hits: u64,
    /// Steals that moved more than one task in a batch.
    pub steal_batches: u64,
    /// Times this worker parked on the idle condvar.
    pub parks: u64,
}

/// Distribution telemetry for the pool: lock-free histograms fed from
/// the workers' hot paths once attached via
/// [`TaskPool::attach_telemetry`]. Detached pools pay one relaxed
/// atomic load per potential record site and nothing else.
#[derive(Default)]
pub struct PoolTelemetry {
    /// Tasks moved per successful batched steal (the popped task plus
    /// the batch unloaded onto the thief's deque).
    pub steal_batch_tasks: Histogram,
    /// Nanoseconds per worker park: idle-backoff parks and governor
    /// naps alike.
    pub park_nanos: Histogram,
    /// Global job-queue depth sampled at every job submission.
    pub queue_depth: Histogram,
}

impl PoolTelemetry {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }
}

struct Inner {
    /// The global user queue.
    jobs: Deque<Job>,
    /// Tasks submitted from threads that are not workers of this pool.
    overflow: Deque<Queued>,
    /// Every worker's local deque, indexed by worker.
    deques: Vec<Deque<Queued>>,
    shutdown: AtomicBool,
    pending_jobs: AtomicUsize,
    busy_nanos: AtomicU64,
    executed_tasks: AtomicU64,
    steal_count: AtomicU64,
    steal_failures: AtomicU64,
    steal_batches: AtomicU64,
    batch_stolen_tasks: AtomicU64,
    lifo_slot_hits: AtomicU64,
    parks: AtomicU64,
    poisoned_tasks: AtomicU64,
    poisoned_jobs: AtomicU64,
    worker_respawns: AtomicU64,
    worker_stats: Vec<WorkerStats>,
    /// Workers currently parked (or about to park) on `idle_cv`; wakeups
    /// are skipped entirely while this is zero, so the submit hot path
    /// pays no condvar traffic when every worker is busy.
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
    /// Distribution telemetry, attached at most once after construction.
    telemetry: OnceLock<Arc<PoolTelemetry>>,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Inner {
    /// Drops one unit of `pending_jobs`, waking `wait_all` on the last.
    /// Callers account the finished job or task *before* this.
    fn finish_pending(&self) {
        if self.pending_jobs.fetch_sub(1, Ordering::SeqCst) == 1 {
            // `wait_all` holds `done_lock` from its read of
            // `pending_jobs` until the condvar wait releases it. So the
            // decrement above either precedes that read (the waiter sees
            // zero and never parks) or falls inside that span — then
            // this acquire blocks until the waiter is parked, and the
            // notify below cannot be missed.
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

    /// Grabs one task from anywhere: the overflow queue, then the
    /// workers' deques (round-robin from `start`). A steal from a deque
    /// takes up to half the victim's queue when the calling thread is a
    /// worker of this pool, with a deque of its own to unload the batch
    /// into.
    fn steal_task(&self, start: usize) -> Option<Queued> {
        if let Some(t) = self.overflow.steal() {
            return Some(t);
        }
        let me = worker_of(self);
        let n = self.deques.len();
        for i in 0..n {
            let victim = &self.deques[(start + i) % n];
            let stolen = match me {
                // Batched steal: the oldest task comes back for
                // immediate execution, the rest of the batch lands on
                // our own deque.
                Some(w) => victim.steal_half_into(&self.deques[w]),
                None => victim.steal().map(|t| (t, 0)),
            };
            let Some((task, moved)) = stolen else {
                continue;
            };
            self.steal_count.fetch_add(1, Ordering::Relaxed);
            if moved > 0 {
                self.steal_batches.fetch_add(1, Ordering::Relaxed);
                self.batch_stolen_tasks
                    .fetch_add(moved as u64, Ordering::Relaxed);
            }
            if let Some(t) = self.telemetry.get() {
                t.steal_batch_tasks.record(moved as u64 + 1);
            }
            if let Some(w) = me {
                self.worker_stats[w].steals.fetch_add(1, Ordering::Relaxed);
                if moved > 0 {
                    self.worker_stats[w]
                        .steal_batches
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            return Some(task);
        }
        None
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

/// The calling thread's worker index in *this* pool. `None` on every
/// foreign thread — another pool's worker included, which must not put
/// this pool's tasks in its own LIFO slot or index this pool's
/// per-worker state with its own index.
fn worker_of(inner: &Inner) -> Option<usize> {
    let (pool, index) = WORKER.with(Cell::get)?;
    (pool == inner as *const Inner as usize).then_some(index)
}

/// Takes the next locally available task: the LIFO slot first (hot
/// continuation), then the worker's own deque.
fn pop_local(inner: &Inner) -> Option<Queued> {
    let w = worker_of(inner)?;
    if let Some(task) = LIFO_SLOT.with(|slot| slot.borrow_mut().take()) {
        inner.lifo_slot_hits.fetch_add(1, Ordering::Relaxed);
        inner.worker_stats[w]
            .slot_hits
            .fetch_add(1, Ordering::Relaxed);
        return Some(task);
    }
    inner.deques[w].pop()
}

/// Enqueues a detached task: into the calling worker's LIFO slot when on
/// one of this pool's worker threads (displacing any previous occupant
/// onto the stealable deque), or onto the shared overflow queue
/// otherwise.
fn spawn_inner(inner: &Inner, task: Task) {
    inner.pending_jobs.fetch_add(1, Ordering::SeqCst);
    let wrapped = Queued {
        run: task,
        release: Release::Pending,
    };
    match worker_of(inner) {
        Some(w) => {
            let displaced = LIFO_SLOT.with(|slot| slot.borrow_mut().replace(wrapped));
            if let Some(old) = displaced {
                // The displaced task becomes stealable: other workers may
                // be hungry for it.
                inner.deques[w].push(old);
                inner.wake_idle();
            }
            // A task in the slot needs no wakeup: this worker is running.
        }
        None => {
            inner.overflow.push(wrapped);
            inner.wake_idle();
        }
    }
}

/// A cloneable, `'static` handle for spawning detached tasks onto the
/// pool — the edge type of dependency-graph continuations: a task
/// captures a handle and spawns its successors when it completes.
///
/// Handles keep the pool's shared state alive but own no worker threads;
/// dropping the owning [`TaskPool`] still shuts the workers down.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<Inner>,
    n_workers: usize,
}

impl PoolHandle {
    /// Number of worker threads in the pool this handle points at.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Spawns a detached task (see [`TaskPool::spawn`]).
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        spawn_inner(&self.inner, Box::new(task));
    }
}

/// A work-stealing thread pool with a global user-job queue and
/// per-worker task deques.
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
///     let c = Arc::clone(&counter);
///     pool.submit_job(move |pool| {
///         // A job fans out tasks and joins them.
///         let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
///             .map(|_| {
///                 let c = Arc::clone(&c);
///                 Box::new(move || {
///                     c.fetch_add(1, Ordering::Relaxed);
///                 }) as Box<dyn FnOnce() + Send>
///             })
///             .collect();
///         pool.scope(tasks);
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
            jobs: Deque::new(),
            overflow: Deque::new(),
            deques: (0..n_workers).map(|_| Deque::new()).collect(),
            shutdown: AtomicBool::new(false),
            pending_jobs: AtomicUsize::new(0),
            busy_nanos: AtomicU64::new(0),
            executed_tasks: AtomicU64::new(0),
            steal_count: AtomicU64::new(0),
            steal_failures: AtomicU64::new(0),
            steal_batches: AtomicU64::new(0),
            batch_stolen_tasks: AtomicU64::new(0),
            lifo_slot_hits: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            poisoned_tasks: AtomicU64::new(0),
            poisoned_jobs: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            worker_stats: (0..n_workers).map(|_| WorkerStats::default()).collect(),
            idle_workers: AtomicUsize::new(0),
            active_limit: AtomicUsize::new(n_workers),
            governor_parked_nanos: AtomicU64::new(0),
            boundary: Mutex::new((Instant::now(), 0)),
            telemetry: OnceLock::new(),
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
            n_workers: self.n_workers,
        }
    }

    /// Enqueues a user job on the global queue. The job runs on some
    /// worker (its "user thread") and receives a pool handle for nested
    /// [`scope`](TaskPool::scope) fan-outs.
    pub fn submit_job(&self, job: impl FnOnce(&TaskPool) + Send + 'static) {
        self.inner.pending_jobs.fetch_add(1, Ordering::SeqCst);
        self.inner.jobs.push(Box::new(job));
        if let Some(t) = self.inner.telemetry.get() {
            t.queue_depth.record(self.inner.jobs.len() as u64);
        }
        self.inner.wake_idle();
    }

    /// Attaches distribution telemetry (steal-batch sizes, park
    /// durations, queue depth). At most one sink per pool; a second
    /// attach returns `false` and the original keeps recording.
    pub fn attach_telemetry(&self, telemetry: Arc<PoolTelemetry>) -> bool {
        self.inner.telemetry.set(telemetry).is_ok()
    }

    /// Spawns a detached task: no thread blocks on its completion, but
    /// [`TaskPool::wait_all`] counts it. On one of this pool's worker
    /// threads the task goes into the worker's bounded LIFO slot
    /// (displacing any previous occupant onto the stealable deque), on
    /// any other thread onto the overflow queue — the building block of
    /// dependency-ordered task graphs where each task spawns its
    /// successors instead of a user thread standing at a barrier.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        spawn_inner(&self.inner, Box::new(task));
    }

    /// Runs a set of tasks to completion, helping execute them from the
    /// calling thread (fork-join barrier).
    ///
    /// When called from one of this pool's worker threads the tasks go
    /// onto *that worker's* deque (LIFO for the owner, stealable FIFO by
    /// others), as in the paper; from any other thread, onto the overflow
    /// queue. The caller may also pick up *other* pending tasks while it
    /// waits — a benign deviation from the paper's pure spin wait that
    /// can only improve core utilisation.
    pub fn scope(&self, tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        let remaining = Arc::new(AtomicUsize::new(tasks.len()));
        let queue = match worker_of(&self.inner) {
            Some(w) => &self.inner.deques[w],
            None => &self.inner.overflow,
        };
        for task in tasks {
            queue.push(Queued {
                run: task,
                release: Release::Barrier(Arc::clone(&remaining)),
            });
        }
        self.inner.wake_idle();
        // Help until the barrier resolves: slot and own deque first,
        // then steal.
        let scope_start = Instant::now();
        while remaining.load(Ordering::SeqCst) > 0 {
            let task = pop_local(&self.inner).or_else(|| self.inner.steal_task(0));
            match task {
                Some(t) => run_timed(&self.inner, t),
                None => std::hint::spin_loop(),
            }
        }
        SCOPE_NANOS.with(|c| c.set(c.get() + scope_start.elapsed().as_nanos() as u64));
    }

    /// Blocks until every submitted job and spawned task has completed.
    pub fn wait_all(&self) {
        let inner = &self.inner;
        let mut guard = lock(&inner.done_lock);
        while inner.pending_jobs.load(Ordering::SeqCst) > 0 {
            // `finish_pending` wakes this wait; the timeout is a backstop.
            guard = wait(&inner.done_cv, guard, Duration::from_millis(10));
        }
    }

    /// Total nanoseconds of useful task/job execution so far — the
    /// `get_cycle_count()` sum of Eq. 1.
    pub fn busy_nanos(&self) -> u64 {
        self.inner.busy_nanos.load(Ordering::Relaxed)
    }

    /// Total tasks executed so far.
    pub fn executed_tasks(&self) -> u64 {
        self.inner.executed_tasks.load(Ordering::Relaxed)
    }

    /// Number of successful steals from other workers' deques so far.
    pub fn steal_count(&self) -> u64 {
        self.inner.steal_count.load(Ordering::Relaxed)
    }

    /// Number of work searches that found nothing anywhere so far.
    pub fn steal_failures(&self) -> u64 {
        self.inner.steal_failures.load(Ordering::Relaxed)
    }

    /// Steals that moved more than one task (steal-half batches).
    pub fn steal_batches(&self) -> u64 {
        self.inner.steal_batches.load(Ordering::Relaxed)
    }

    /// Extra tasks moved by batched steals (beyond the popped one).
    pub fn batch_stolen_tasks(&self) -> u64 {
        self.inner.batch_stolen_tasks.load(Ordering::Relaxed)
    }

    /// Tasks executed straight from a worker's bounded LIFO slot.
    pub fn lifo_slot_hits(&self) -> u64 {
        self.inner.lifo_slot_hits.load(Ordering::Relaxed)
    }

    /// Times any worker parked on the idle condvar.
    pub fn parks(&self) -> u64 {
        self.inner.parks.load(Ordering::Relaxed)
    }

    /// Tasks that panicked and were contained by the pool.
    pub fn poisoned_tasks(&self) -> u64 {
        self.inner.poisoned_tasks.load(Ordering::Relaxed)
    }

    /// Job bodies that panicked and were contained by the pool.
    pub fn poisoned_jobs(&self) -> u64 {
        self.inner.poisoned_jobs.load(Ordering::Relaxed)
    }

    /// Workers revived after a [`WorkerKill`] fail-stop.
    pub fn worker_respawns(&self) -> u64 {
        self.inner.worker_respawns.load(Ordering::Relaxed)
    }

    /// Chaos injection: enqueues a task that fail-stops whichever worker
    /// executes it. The supervision loop revives the worker in place
    /// (same deque, so no queued task is lost) and counts the respawn.
    pub fn inject_worker_kill(&self) {
        self.inner.overflow.push(Queued {
            run: Box::new(|| std::panic::panic_any(WorkerKill)),
            release: Release::Nothing,
        });
        self.inner.idle_cv.notify_all();
    }

    /// A point-in-time copy of worker `i`'s counters.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_workers()`.
    pub fn worker_snapshot(&self, i: usize) -> WorkerSnapshot {
        let s = &self.inner.worker_stats[i];
        WorkerSnapshot {
            busy_nanos: s.busy_nanos.load(Ordering::Relaxed),
            executed_tasks: s.executed_tasks.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
            steal_failures: s.steal_failures.load(Ordering::Relaxed),
            slot_hits: s.slot_hits.load(Ordering::Relaxed),
            steal_batches: s.steal_batches.load(Ordering::Relaxed),
            parks: s.parks.load(Ordering::Relaxed),
        }
    }

    /// Publishes pool totals and per-worker counters into `metrics`
    /// under `pool.*` / `pool.worker.<i>.*` keys.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        metrics.set_counter("pool.busy_nanos", self.busy_nanos());
        metrics.set_counter("pool.executed_tasks", self.executed_tasks());
        metrics.set_counter("pool.steals", self.steal_count());
        metrics.set_counter("pool.steal_failures", self.steal_failures());
        metrics.set_counter("pool.steal_batches", self.steal_batches());
        metrics.set_counter("pool.batch_stolen_tasks", self.batch_stolen_tasks());
        metrics.set_counter("pool.lifo_slot_hits", self.lifo_slot_hits());
        metrics.set_counter("pool.parks", self.parks());
        metrics.set_counter("pool.poisoned_tasks", self.poisoned_tasks());
        metrics.set_counter("pool.poisoned_jobs", self.poisoned_jobs());
        metrics.set_counter("pool.worker_respawns", self.worker_respawns());
        metrics.set_counter("pool.workers", self.n_workers as u64);
        metrics.set_counter("pool.active_workers", self.active_workers() as u64);
        metrics.set_counter("pool.governor_parked_nanos", self.governor_parked_nanos());
        // Scratch-arena traffic (process-wide): `fresh` counts buffers
        // that had to grow, `reused` counts pool hits. In steady state
        // `fresh` must stop moving — the observable form of the
        // zero-allocation guarantee.
        let arena = lte_dsp::arena::stats();
        metrics.set_counter("pool.arena.fresh", arena.fresh);
        metrics.set_counter("pool.arena.reused", arena.reused);
        for i in 0..self.n_workers {
            let s = self.worker_snapshot(i);
            metrics.set_counter(&format!("pool.worker.{i}.busy_nanos"), s.busy_nanos);
            metrics.set_counter(&format!("pool.worker.{i}.executed_tasks"), s.executed_tasks);
            metrics.set_counter(&format!("pool.worker.{i}.steals"), s.steals);
            metrics.set_counter(&format!("pool.worker.{i}.steal_failures"), s.steal_failures);
            metrics.set_counter(&format!("pool.worker.{i}.slot_hits"), s.slot_hits);
            metrics.set_counter(&format!("pool.worker.{i}.steal_batches"), s.steal_batches);
            metrics.set_counter(&format!("pool.worker.{i}.parks"), s.parks);
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

    /// Eq. 2 activity over the wall-clock window since the previous call
    /// (or since pool construction): Δ`busy_nanos` over
    /// `n_workers × Δt`. Designed for subframe-boundary sampling, where
    /// it is the measured side of the Fig. 12 estimated-vs-measured
    /// comparison.
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
        // Only the owning pool (the one holding the worker join handles)
        // may initiate shutdown. `worker_loop` builds a borrowed handle
        // with no threads for jobs to fan out through; that handle is
        // dropped on every worker exit — including a WorkerKill unwind —
        // and must not tear down the pool it borrows.
        if self.workers.is_empty() {
            return;
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.idle_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Executes one task with cycle accounting and panic containment: a
/// panicking task is counted under `poisoned_tasks` and swallowed — the
/// worker (or helping user thread) survives. Accounting comes first,
/// then the task's [`Release`] (which therefore happens even when the
/// task panicked, so a poisoned task can hang neither a scope nor
/// `wait_all`), and last the one exception to containment: the
/// [`WorkerKill`] chaos payload is re-raised so it fail-stops the
/// executing worker (the supervision loop in [`worker_entry`] then
/// revives it).
fn run_timed(inner: &Inner, task: Queued) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(task.run));
    let nanos = start.elapsed().as_nanos() as u64;
    inner.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    inner.executed_tasks.fetch_add(1, Ordering::Relaxed);
    let me = worker_of(inner);
    if let Some(w) = me {
        let s = &inner.worker_stats[w];
        s.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        s.executed_tasks.fetch_add(1, Ordering::Relaxed);
    }
    if result.is_err() {
        inner.poisoned_tasks.fetch_add(1, Ordering::Relaxed);
    }
    match task.release {
        Release::Pending => inner.finish_pending(),
        Release::Barrier(remaining) => {
            remaining.fetch_sub(1, Ordering::SeqCst);
        }
        Release::Nothing => {}
    }
    if let Err(payload) = result {
        if payload.is::<WorkerKill>() && me.is_some() {
            resume_unwind(payload);
        }
    }
}

/// Worker thread body: a supervision loop around [`worker_loop`]. A
/// [`WorkerKill`] unwinding out of the work loop models a core dying;
/// the supervisor counts the respawn and re-enters the loop on the same
/// thread with the same LIFO slot and — by index — the same deque, so
/// queued tasks survive the "death".
fn worker_entry(inner: Arc<Inner>, index: usize) {
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&inner) as usize, index))));
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| worker_loop(&inner, index)));
        match result {
            Ok(()) => return, // clean shutdown
            Err(_) => {
                inner.worker_respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    let n_workers = inner.deques.len();
    let pool_handle = TaskPool {
        inner: Arc::clone(inner),
        workers: Vec::new(), // handle owns no threads; Drop join is a no-op
        n_workers,
    };
    // Consecutive failed work searches; reset by any successful find.
    let mut idle_streak: u32 = 0;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Governor gate: a worker at or above the active limit drains
        // its local work (slot + own deque — the remainder of the
        // subframe it was already running), then parks until the limit
        // rises. It never takes a new job or steals, so a target applied
        // at a subframe boundary changes where work runs, never what is
        // computed. Its deque stays stealable throughout, so nothing it
        // holds can be stranded.
        if index >= inner.active_limit.load(Ordering::SeqCst) {
            if let Some(t) = pop_local(inner) {
                idle_streak = 0;
                run_timed(inner, t);
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
            let parked_ns = park_start.elapsed().as_nanos() as u64;
            inner
                .governor_parked_nanos
                .fetch_add(parked_ns, Ordering::Relaxed);
            if let Some(t) = inner.telemetry.get() {
                t.park_nanos.record(parked_ns);
            }
            continue;
        }
        // LIFO slot and own deque first, …
        if let Some(t) = pop_local(inner) {
            idle_streak = 0;
            run_timed(inner, t);
            continue;
        }
        // … then the global user queue (§IV-C: checked before stealing), …
        if let Some(job) = inner.jobs.steal() {
            idle_streak = 0;
            let scope_before = SCOPE_NANOS.with(Cell::get);
            let start = Instant::now();
            // Contain job panics so one poisoned user cannot hang
            // `wait_all`: the pending count always drops (after the
            // accounting, as in `run_timed`), then a WorkerKill (raised
            // while this job helped at a barrier) still fail-stops the
            // worker.
            let result = catch_unwind(AssertUnwindSafe(|| job(&pool_handle)));
            let scoped = SCOPE_NANOS.with(Cell::get) - scope_before;
            let useful = (start.elapsed().as_nanos() as u64).saturating_sub(scoped);
            inner.busy_nanos.fetch_add(useful, Ordering::Relaxed);
            let kill = match result {
                Err(payload) if payload.is::<WorkerKill>() => Some(payload),
                Err(_) => {
                    inner.poisoned_jobs.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Ok(()) => None,
            };
            inner.finish_pending();
            if let Some(payload) = kill {
                resume_unwind(payload);
            }
            continue;
        }
        // … then steal tasks from anyone (batched when possible).
        if let Some(t) = inner.steal_task(index + 1) {
            idle_streak = 0;
            run_timed(inner, t);
            continue;
        }
        // Nothing to do: count the failed search, then back off — a few
        // cheap yields first (work often arrives within microseconds),
        // then park on the idle condvar with exponentially growing
        // timeouts (the IDLE policy analogue).
        inner.steal_failures.fetch_add(1, Ordering::Relaxed);
        inner.worker_stats[index]
            .steal_failures
            .fetch_add(1, Ordering::Relaxed);
        idle_streak = idle_streak.saturating_add(1);
        if idle_streak <= SPIN_RETRIES {
            std::thread::yield_now();
            continue;
        }
        let exp = (idle_streak - SPIN_RETRIES - 1).min(10);
        let timeout = PARK_MAX.min(PARK_BASE * 2u32.saturating_pow(exp));
        inner.idle_workers.fetch_add(1, Ordering::SeqCst);
        let mut guard = lock(&inner.idle_lock);
        if inner.jobs.is_empty()
            && inner.overflow.is_empty()
            && !inner.shutdown.load(Ordering::SeqCst)
        {
            inner.parks.fetch_add(1, Ordering::Relaxed);
            inner.worker_stats[index]
                .parks
                .fetch_add(1, Ordering::Relaxed);
            let park_start = Instant::now();
            guard = wait(&inner.idle_cv, guard, timeout);
            if let Some(t) = inner.telemetry.get() {
                t.park_nanos.record(park_start.elapsed().as_nanos() as u64);
            }
        }
        drop(guard);
        inner.idle_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn telemetry_observes_queue_depth_and_steals() {
        let pool = TaskPool::new(4).unwrap();
        let telemetry = Arc::new(PoolTelemetry::new());
        assert!(pool.attach_telemetry(Arc::clone(&telemetry)));
        // Second sink is refused; the first keeps recording.
        assert!(!pool.attach_telemetry(Arc::new(PoolTelemetry::new())));
        for _ in 0..64 {
            pool.submit_job(|p| {
                let tasks: Vec<Task> = (0..8)
                    .map(|_| Box::new(|| std::hint::black_box(())) as Task)
                    .collect();
                p.scope(tasks);
            });
        }
        pool.wait_all();
        let depth = telemetry.queue_depth.snapshot();
        assert_eq!(depth.count, 64, "one depth sample per submitted job");
        // Parks/steals depend on timing; the histograms must simply be
        // well-formed (recording crashed nothing, counts are coherent).
        let parks = telemetry.park_nanos.snapshot();
        assert!(parks.quantile(0.99) >= parks.min);
    }

    #[test]
    fn executes_all_jobs() {
        let pool = TaskPool::new(4).unwrap();
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit_job(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let pool = TaskPool::new(4).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        pool.submit_job(move |p| {
            let tasks: Vec<Task> = (0..64)
                .map(|_| {
                    let h = Arc::clone(&h);
                    Box::new(move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    }) as Task
                })
                .collect();
            p.scope(tasks);
            assert_eq!(h.load(Ordering::SeqCst), 64, "barrier must be complete");
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_from_non_worker_thread_works() {
        // Calling scope() from the main thread (no local deque) routes
        // through the overflow queue.
        let pool = TaskPool::new(2).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let tasks: Vec<Task> = (0..16)
            .map(|_| {
                let h = Arc::clone(&hits);
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }) as Task
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn nested_phases_preserve_order() {
        // Phase 2 tasks must observe every phase 1 effect.
        let pool = TaskPool::new(8).unwrap();
        let phase1 = Arc::new(AtomicU32::new(0));
        let violations = Arc::new(AtomicU32::new(0));
        for _ in 0..20 {
            let p1 = Arc::clone(&phase1);
            let bad = Arc::clone(&violations);
            pool.submit_job(move |p| {
                let before = p1.load(Ordering::SeqCst);
                let mine = 8;
                let tasks: Vec<Task> = (0..mine)
                    .map(|_| {
                        let p1 = Arc::clone(&p1);
                        Box::new(move || {
                            p1.fetch_add(1, Ordering::SeqCst);
                        }) as Task
                    })
                    .collect();
                p.scope(tasks);
                if p1.load(Ordering::SeqCst) < before + mine {
                    bad.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        pool.wait_all();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn accounting_accumulates() {
        let pool = TaskPool::new(2).unwrap();
        pool.submit_job(|p| {
            let tasks: Vec<Task> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        std::thread::sleep(Duration::from_millis(5));
                    }) as Task
                })
                .collect();
            p.scope(tasks);
        });
        pool.wait_all();
        assert!(
            pool.busy_nanos() >= 4 * 5_000_000 / 2,
            "{}",
            pool.busy_nanos()
        );
        assert_eq!(pool.executed_tasks(), 4);
    }

    #[test]
    fn parallel_speedup_on_sleep_tasks() {
        // 8 × 20 ms of sleeping on 8 workers should take well under the
        // 160 ms serial time.
        let pool = TaskPool::new(8).unwrap();
        let start = Instant::now();
        pool.submit_job(|p| {
            let tasks: Vec<Task> = (0..8)
                .map(|_| Box::new(|| std::thread::sleep(Duration::from_millis(20))) as Task)
                .collect();
            p.scope(tasks);
        });
        pool.wait_all();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(120),
            "took {elapsed:?}, expected parallel execution"
        );
    }

    #[test]
    fn stealing_happens_under_load() {
        // With several workers and sleeping tasks spawned on one user
        // thread, other workers must steal to overlap the sleeps.
        let pool = TaskPool::new(4).unwrap();
        pool.submit_job(|p| {
            let tasks: Vec<Task> = (0..12)
                .map(|_| Box::new(|| std::thread::sleep(Duration::from_millis(3))) as Task)
                .collect();
            p.scope(tasks);
        });
        pool.wait_all();
        assert!(
            pool.steal_count() > 0,
            "parallel sleeps require successful steals"
        );
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = TaskPool::new(1).unwrap();
        pool.submit_job(|p| p.scope(Vec::new()));
        pool.wait_all();
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = TaskPool::new(4).unwrap();
        pool.submit_job(|_| {});
        pool.wait_all();
        drop(pool); // must not hang
    }

    #[test]
    fn many_jobs_stress() {
        let pool = TaskPool::new(4).unwrap();
        let total = Arc::new(AtomicU32::new(0));
        for j in 0..200 {
            let total = Arc::clone(&total);
            pool.submit_job(move |p| {
                let tasks: Vec<Task> = (0..(j % 7 + 1))
                    .map(|_| {
                        let t = Arc::clone(&total);
                        Box::new(move || {
                            t.fetch_add(1, Ordering::SeqCst);
                        }) as Task
                    })
                    .collect();
                p.scope(tasks);
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
    fn spawned_chains_complete_and_hit_the_lifo_slot() {
        // Each chain link spawns the next from inside a worker: the
        // continuation should ride the LIFO slot, not the deque.
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
        assert!(
            pool.lifo_slot_hits() > 0,
            "continuations must use the LIFO slot"
        );
    }

    #[test]
    fn lifo_slot_displacement_loses_no_task() {
        // Spawning twice in a row from one worker displaces the first
        // task from the slot to the deque; both must still run.
        let pool = TaskPool::new(1).unwrap();
        let handle = pool.handle();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            for _ in 0..10 {
                let h = Arc::clone(&h);
                handle.spawn(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn batched_steals_move_multiple_tasks() {
        // A single job floods its worker's deque with slow tasks; the
        // other three workers have no job of their own, so their steals
        // hit a deep deque and must move batches.
        let pool = TaskPool::new(4).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        pool.submit_job(move |p| {
            let tasks: Vec<Task> = (0..128)
                .map(|_| {
                    let h = Arc::clone(&h);
                    Box::new(move || {
                        h.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(300));
                    }) as Task
                })
                .collect();
            p.scope(tasks);
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 128);
        assert!(
            pool.steal_batches() > 0,
            "a flooded deque must trigger batch steals"
        );
        assert!(pool.batch_stolen_tasks() >= pool.steal_batches());
    }

    #[test]
    fn idle_workers_park_instead_of_spinning() {
        let pool = TaskPool::new(4).unwrap();
        pool.submit_job(|_| {});
        pool.wait_all();
        // Give the workers time to exhaust their spin retries.
        std::thread::sleep(Duration::from_millis(30));
        assert!(pool.parks() > 0, "an empty pool must park its workers");
    }

    #[test]
    fn poisoned_task_does_not_hang_the_scope() {
        silence_injected_panics();
        let pool = TaskPool::new(4).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        pool.submit_job(move |p| {
            let mut tasks: Vec<Task> = (0..15)
                .map(|_| {
                    let h = Arc::clone(&h);
                    Box::new(move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    }) as Task
                })
                .collect();
            tasks.push(Box::new(|| std::panic::panic_any(InjectedPanic)) as Task);
            p.scope(tasks);
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 15);
        assert_eq!(pool.poisoned_tasks(), 1);
        // The panic stayed inside the pool: no worker died for it.
        assert_eq!(pool.worker_respawns(), 0);
    }

    /// Regression for the accounting race: a task used to release its
    /// scope barrier (or its `pending_jobs` unit) *before* `run_timed`
    /// counted it, so `wait_all` could return while a stolen task's
    /// `poisoned_tasks` / `executed_tasks` adds were still in flight and
    /// the caller read counters one task short. Each round is the
    /// seeded-panic property case (jobs fanning scopes out over 4
    /// workers) plus detached spawns; the counters must be exact the
    /// moment `wait_all` returns, every round.
    #[test]
    fn accounting_lands_before_wait_all_returns_under_seeded_panics() {
        use lte_fault::FaultPlan;
        silence_injected_panics();
        const ROUNDS: usize = 250;
        const JOBS: usize = 4;
        const TASKS: usize = 8;
        let plan = FaultPlan {
            task_panic_permille: 150,
            ..FaultPlan::quiet(0xFA17)
        };
        let pool = TaskPool::new(4).unwrap();
        let body = |panics: bool| {
            move || {
                if panics {
                    std::panic::panic_any(InjectedPanic);
                }
            }
        };
        let (mut planned, mut executed) = (0u64, 0u64);
        for round in 0..ROUNDS {
            for job in 0..JOBS {
                let panics: Vec<bool> = (0..TASKS)
                    .map(|task| plan.task_panics(round, job * TASKS + task))
                    .collect();
                planned += panics.iter().filter(|&&p| p).count() as u64;
                executed += TASKS as u64;
                // The job's last task goes out detached instead of
                // through the scope, so both release kinds are covered.
                let detached = panics[TASKS - 1];
                pool.spawn(body(detached));
                pool.submit_job(move |p| {
                    let scoped = &panics[..TASKS - 1];
                    p.scope(scoped.iter().map(|&x| Box::new(body(x)) as Task).collect());
                });
            }
            pool.wait_all();
            assert_eq!(pool.poisoned_tasks(), planned, "round {round}");
            assert_eq!(pool.executed_tasks(), executed, "round {round}");
        }
        assert!(planned > 0, "the plan must actually inject panics");
        assert_eq!(pool.poisoned_jobs(), 0);
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
    fn poisoned_job_does_not_hang_wait_all() {
        silence_injected_panics();
        let pool = TaskPool::new(2).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..10 {
            let h = Arc::clone(&hits);
            pool.submit_job(move |_| {
                if i == 3 {
                    std::panic::panic_any(InjectedPanic);
                }
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 9);
        assert_eq!(pool.poisoned_jobs(), 1);
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
            for _ in 0..25 {
                let h = Arc::clone(&hits);
                pool.submit_job(move |_| {
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
        // Kills travel through the overflow queue, which `wait_all` does
        // not track — give the workers a moment to consume them.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.worker_respawns() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.worker_respawns(), 2);
        // The pool is still fully functional after both revivals.
        let h = Arc::clone(&hits);
        pool.submit_job(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_all();
        assert_eq!(hits.load(Ordering::SeqCst), 8 * 25 + 1);
    }

    #[test]
    fn per_worker_counters_sum_to_totals() {
        let pool = TaskPool::new(4).unwrap();
        for _ in 0..8 {
            pool.submit_job(|p| {
                let tasks: Vec<Task> = (0..16)
                    .map(|_| Box::new(|| std::thread::sleep(Duration::from_micros(200))) as Task)
                    .collect();
                p.scope(tasks);
            });
        }
        pool.wait_all();
        let per_worker: Vec<WorkerSnapshot> = (0..pool.n_workers())
            .map(|i| pool.worker_snapshot(i))
            .collect();
        let tasks: u64 = per_worker.iter().map(|s| s.executed_tasks).sum();
        assert_eq!(tasks, pool.executed_tasks());
        assert_eq!(tasks, 8 * 16);
        let steals: u64 = per_worker.iter().map(|s| s.steals).sum();
        assert_eq!(steals, pool.steal_count());
        let batches: u64 = per_worker.iter().map(|s| s.steal_batches).sum();
        assert_eq!(batches, pool.steal_batches());
        let busy: u64 = per_worker.iter().map(|s| s.busy_nanos).sum();
        // Worker task time is a subset of total busy time (which also
        // counts job bodies run outside any single task).
        assert!(busy > 0 && busy <= pool.busy_nanos());
    }

    #[test]
    fn metrics_export_covers_every_worker() {
        let pool = TaskPool::new(3).unwrap();
        pool.submit_job(|p| {
            let tasks: Vec<Task> = (0..6)
                .map(|_| Box::new(|| std::thread::sleep(Duration::from_micros(100))) as Task)
                .collect();
            p.scope(tasks);
        });
        pool.wait_all();
        let metrics = lte_obs::MetricsRegistry::new();
        pool.export_metrics(&metrics);
        assert_eq!(
            metrics.get("pool.workers"),
            Some(lte_obs::MetricValue::Counter(3))
        );
        for key in [
            "pool.steal_batches",
            "pool.batch_stolen_tasks",
            "pool.lifo_slot_hits",
            "pool.parks",
        ] {
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
                "slot_hits",
                "steal_batches",
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
        assert!(json.contains("\"pool.executed_tasks\": 6"), "{json}");
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
            pool.submit_job(move |pool| {
                let c2 = Arc::clone(&c);
                pool.spawn(move || {
                    c2.fetch_add(1, Ordering::SeqCst);
                });
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        pool.set_active_workers(4);
    }

    /// Worker identity is per pool: a task on pool A that spawns through
    /// B's handle used to land in A's LIFO slot — A's worker then
    /// finished it against A's `pending_jobs` (which wrapped below zero)
    /// while B's never dropped, and neither `wait_all` returned. The
    /// pools run on a helper thread so that hang fails the test instead.
    #[test]
    fn spawning_onto_another_pool_from_a_worker_lands_on_that_pool() {
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let a = TaskPool::new(4).unwrap();
            let b = Arc::new(TaskPool::new(2).unwrap());
            let handle = b.handle();
            a.spawn(move || handle.spawn(|| ()));
            // From A's worker 2 or 3 this also used to index B's
            // two-entry per-worker stats out of range.
            let scoped = Arc::clone(&b);
            a.submit_job(move |_| {
                scoped.scope((0..8).map(|_| Box::new(|| ()) as Task).collect());
            });
            a.wait_all();
            b.wait_all();
            let _ = done.send((a.executed_tasks(), b.executed_tasks()));
        });
        let (on_a, on_b) = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("a cross-pool spawn must strand neither pool's wait_all");
        helper.join().unwrap();
        assert_eq!(on_a, 1, "A ran its own task and nothing of B's");
        assert_eq!(on_b, 9, "B's spawned task and its 8 scoped tasks");
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
            pool.submit_job(|_| {
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

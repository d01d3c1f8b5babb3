//! The discrete-event machine: cores, the event heap, and the governed
//! stepping session.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use lte_fault::FaultPlan;
use lte_obs::{Event as TraceEvent, FaultKind, NoopRecorder, Recorder, Stage};

use super::config::{SimConfig, SubframeLoad};
use super::report::{BucketStats, SimReport};
use crate::cycles::{shed_order, SimJob};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Estimation,
    Weights,
    Combine,
    Finish,
}

struct JobState {
    spec: SimJob,
    phase: Phase,
    pending: usize,
    user_core: usize,
    ready_continuation: bool,
    dispatched_at: u64,
    subframe: usize,
    done: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Work {
    /// A stealable phase task of `job`.
    Task { job: usize, cost: u64 },
    /// The combiner-weight continuation of `job`.
    Weights { job: usize },
    /// The serial tail of `job`.
    Finish { job: usize },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CoreState {
    SpinIdle,
    Busy,
    WaitBarrier,
    NapReactive,
    NapProactive,
    /// Fail-stopped by a chaos plan; never transitions out.
    Dead,
}

/// Maps the simulator's internal state onto the trace vocabulary.
fn trace_state(state: CoreState) -> lte_obs::CoreState {
    match state {
        CoreState::Busy => lte_obs::CoreState::Busy,
        CoreState::SpinIdle => lte_obs::CoreState::Spin,
        CoreState::WaitBarrier => lte_obs::CoreState::Barrier,
        CoreState::NapReactive => lte_obs::CoreState::NapReactive,
        CoreState::NapProactive => lte_obs::CoreState::NapProactive,
        CoreState::Dead => lte_obs::CoreState::Dead,
    }
}

/// Index of a coarse stage in [`SimReport::stage_cycles`].
fn stage_slot(stage: Stage) -> usize {
    match stage {
        Stage::Estimation => 0,
        Stage::Weights => 1,
        Stage::Combine => 2,
        Stage::Finish => 3,
        other => unreachable!("simulator never runs fine-grained stage {other}"),
    }
}

struct Core {
    state: CoreState,
    state_since: u64,
    deque: VecDeque<Work>,
    current: Option<Work>,
    /// Stage attribution of the in-flight work (busy state only).
    current_stage: Option<Stage>,
    /// Subframe attribution of the in-flight work (busy state only).
    current_subframe: Option<u32>,
    owned_job: Option<usize>,
    wake_seq: u64,
    wake_pending: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Dispatch { subframe: usize },
    TaskDone { core: usize },
    Wake { core: usize, seq: u64 },
    CoreDeath { core: usize },
}

/// The discrete-event simulator. Construct with a config, feed it a
/// subframe sequence with [`Simulator::run`].
///
/// Generic over the trace [`Recorder`]; [`Simulator::new`] uses the
/// zero-cost [`NoopRecorder`], [`Simulator::with_recorder`] attaches a
/// real sink.
pub struct Simulator<R: Recorder = NoopRecorder> {
    cfg: SimConfig,
    recorder: R,
    cores: Vec<Core>,
    jobs: Vec<JobState>,
    user_queue: VecDeque<usize>,
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,
    event_seq: u64,
    now: u64,
    target: usize,
    buckets: Vec<BucketStats>,
    job_latencies: Vec<u64>,
    jobs_completed: usize,
    dispatched_all: bool,
    steal_cursor: usize,
    /// Unfinished-job count per subframe index (for concurrency stats).
    open_jobs_per_subframe: Vec<usize>,
    /// Lower bound on the oldest dispatched subframe that still has
    /// unfinished jobs (advanced lazily; drives the overload trigger).
    oldest_open_subframe: usize,
    /// Dispatch time per subframe (for latency spans).
    subframe_dispatched_at: Vec<u64>,
    busy_per_core: Vec<u64>,
    stage_cycles: [u64; 4],
    steals_per_core: Vec<u64>,
    steal_fails_per_core: Vec<u64>,
    tasks_per_core: Vec<u64>,
    wake_pulses_per_core: Vec<u64>,
    open_subframes: usize,
    max_concurrent_subframes: usize,
    /// Per-subframe deadline budget in cycles, if attached.
    deadline: Option<u64>,
    /// Seeded chaos plan (core death, slow cores, task poisoning).
    chaos: Option<FaultPlan>,
    /// Jobs whose user core died mid-flight, bundled with their stranded
    /// work, awaiting adoption by a surviving core.
    orphan_owners: VecDeque<(usize, Vec<Work>)>,
    /// Per-subframe count of tasks drawn against the chaos plan (the
    /// deterministic task ordinal for `FaultPlan::task_panics`).
    tasks_drawn_per_subframe: Vec<usize>,
    overruns: u64,
    shed_jobs: u64,
    poisoned_tasks: u64,
    adopted_jobs: u64,
    /// Per-subframe active-core targets injected by a governor through
    /// [`SimSession::set_target`]; `None` falls back to the load's own
    /// `active_target`.
    target_overrides: Vec<Option<usize>>,
}

impl Simulator {
    /// Creates a simulator with tracing disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0` or `cfg.dispatch_period == 0`.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator::with_recorder(cfg, NoopRecorder)
    }
}

impl<R: Recorder> Simulator<R> {
    /// Creates a simulator that emits trace events into `recorder`.
    ///
    /// Pass `&recorder` (or an `Arc`) to keep the sink afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0` or `cfg.dispatch_period == 0`.
    pub fn with_recorder(cfg: SimConfig, recorder: R) -> Self {
        assert!(cfg.n_workers > 0, "need at least one worker");
        assert!(cfg.dispatch_period > 0, "dispatch period must be positive");
        let cores = (0..cfg.n_workers)
            .map(|_| Core {
                state: CoreState::SpinIdle,
                state_since: 0,
                deque: VecDeque::new(),
                current: None,
                current_stage: None,
                current_subframe: None,
                owned_job: None,
                wake_seq: 0,
                wake_pending: false,
            })
            .collect();
        Simulator {
            cfg,
            recorder,
            cores,
            jobs: Vec::new(),
            user_queue: VecDeque::new(),
            events: BinaryHeap::new(),
            event_seq: 0,
            now: 0,
            target: cfg.n_workers,
            buckets: Vec::new(),
            job_latencies: Vec::new(),
            jobs_completed: 0,
            dispatched_all: false,
            steal_cursor: 0,
            open_jobs_per_subframe: Vec::new(),
            oldest_open_subframe: 0,
            subframe_dispatched_at: Vec::new(),
            busy_per_core: vec![0; cfg.n_workers],
            stage_cycles: [0; 4],
            steals_per_core: vec![0; cfg.n_workers],
            steal_fails_per_core: vec![0; cfg.n_workers],
            tasks_per_core: vec![0; cfg.n_workers],
            wake_pulses_per_core: vec![0; cfg.n_workers],
            open_subframes: 0,
            max_concurrent_subframes: 0,
            deadline: None,
            chaos: None,
            orphan_owners: VecDeque::new(),
            tasks_drawn_per_subframe: Vec::new(),
            overruns: 0,
            shed_jobs: 0,
            poisoned_tasks: 0,
            adopted_jobs: 0,
            target_overrides: Vec::new(),
        }
    }

    /// Attaches a per-subframe deadline budget: subframes finishing past
    /// `budget_cycles` after dispatch count as overruns, and new
    /// subframes dispatched while an older subframe is already past its
    /// deadline shed their cheapest users. Benign pipelining — a
    /// subframe or two in flight but still inside the budget — sheds
    /// nothing.
    pub fn with_deadline(mut self, budget_cycles: u64) -> Self {
        self.deadline = Some(budget_cycles);
        self
    }

    /// Attaches a seeded chaos plan. The DES honours the plan's
    /// `dead_core` (fail-stop + orphan adoption), `slow_cores` (task-time
    /// multipliers) and `task_panic_permille` (poisoned tasks burn their
    /// cost, are counted, and re-execute).
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Runs the subframe sequence to completion and reports occupancy.
    ///
    /// Equivalent to stepping a [`SimSession`] to exhaustion without
    /// overriding any targets: the event pop order — and therefore the
    /// report and the trace — is identical to an ungoverned run.
    pub fn run(self, subframes: &[SubframeLoad]) -> SimReport {
        let mut session = self.session(subframes);
        while session.advance().is_some() {}
        session.finish()
    }

    /// Prepares a governed stepping session over `subframes`: seeds the
    /// dispatch schedule (and any chaos plan) without executing anything.
    /// Drive it with [`SimSession::advance`] / [`SimSession::set_target`]
    /// and collect the report with [`SimSession::finish`].
    pub fn session(mut self, subframes: &[SubframeLoad]) -> SimSession<'_, R> {
        self.buckets = vec![BucketStats::default(); subframes.len().max(1)];
        self.open_jobs_per_subframe = vec![0; subframes.len()];
        self.oldest_open_subframe = 0;
        self.subframe_dispatched_at = vec![0; subframes.len()];
        self.tasks_drawn_per_subframe = vec![0; subframes.len()];
        self.target_overrides = vec![None; subframes.len()];
        if let Some(plan) = self.chaos.clone() {
            if let Some(dc) = plan.dead_core {
                if dc.core < self.cfg.n_workers {
                    self.push_event(dc.at_cycle, Event::CoreDeath { core: dc.core });
                }
            }
            if self.recorder.enabled() {
                for sc in &plan.slow_cores {
                    if sc.core < self.cfg.n_workers {
                        self.recorder.record(TraceEvent::Fault {
                            kind: FaultKind::SlowCore,
                            core: sc.core as u32,
                            subframe: u32::MAX,
                            t: 0,
                        });
                    }
                }
            }
        }
        for (i, _) in subframes.iter().enumerate() {
            self.push_event(
                i as u64 * self.cfg.dispatch_period,
                Event::Dispatch { subframe: i },
            );
        }
        if subframes.is_empty() {
            self.dispatched_all = true;
        }
        SimSession {
            sim: self,
            subframes,
            pending: None,
            last_measure: (0, 0),
        }
    }

    fn push_event(&mut self, t: u64, ev: Event) {
        self.event_seq += 1;
        self.events.push(Reverse((t, self.event_seq, ev)));
    }

    fn all_work_done(&self) -> bool {
        self.dispatched_all && self.jobs_completed == self.jobs.len()
    }

    /// Splits a state interval across buckets and accumulates it.
    fn account(&mut self, state: CoreState, from: u64, to: u64) {
        if to <= from {
            return;
        }
        let width = self.cfg.dispatch_period;
        let last = self.buckets.len() - 1;
        let mut t = from;
        while t < to {
            let idx = ((t / width) as usize).min(last);
            let bucket_end = if idx == last {
                to
            } else {
                ((t / width) + 1) * width
            };
            let span = bucket_end.min(to) - t;
            let b = &mut self.buckets[idx];
            match state {
                CoreState::Busy => b.busy_cycles += span,
                CoreState::SpinIdle | CoreState::WaitBarrier => b.spin_cycles += span,
                // A dead core is power-gated: account it like a nap so
                // occupancy still tiles workers × time.
                CoreState::NapReactive | CoreState::NapProactive | CoreState::Dead => {
                    b.nap_cycles += span
                }
            }
            t = bucket_end.min(to);
        }
    }

    fn bucket_idx(&self, t: u64) -> usize {
        ((t / self.cfg.dispatch_period) as usize).min(self.buckets.len() - 1)
    }

    /// Transitions a core to a new state, accounting the old interval
    /// and emitting it as a trace span.
    fn set_state(&mut self, core: usize, state: CoreState) {
        let (old, since) = (self.cores[core].state, self.cores[core].state_since);
        let now = self.now;
        self.account(old, since, now);
        if old == CoreState::Busy && now > since {
            self.busy_per_core[core] += now - since;
            if let Some(stage) = self.cores[core].current_stage {
                self.stage_cycles[stage_slot(stage)] += now - since;
            }
        }
        if self.recorder.enabled() && now > since {
            let busy = old == CoreState::Busy;
            self.recorder.record(TraceEvent::CoreSpan {
                core: core as u32,
                state: trace_state(old),
                start: since,
                end: now,
                stage: if busy {
                    self.cores[core].current_stage
                } else {
                    None
                },
                subframe: if busy {
                    self.cores[core].current_subframe
                } else {
                    None
                },
            });
        }
        let c = &mut self.cores[core];
        c.state = state;
        c.state_since = now;
        if state != CoreState::Busy {
            c.current_stage = None;
            c.current_subframe = None;
        }
    }

    /// True when the oldest still-open subframe has already blown its
    /// deadline budget at the current instant — the receiver is genuinely
    /// behind, not just pipelining a subframe or two.
    fn deadline_pressure(&mut self, dispatching: usize, budget_cycles: u64) -> bool {
        while self.oldest_open_subframe < dispatching
            && self.open_jobs_per_subframe[self.oldest_open_subframe] == 0
        {
            self.oldest_open_subframe += 1;
        }
        self.oldest_open_subframe < dispatching
            && self.now - self.subframe_dispatched_at[self.oldest_open_subframe] >= budget_cycles
    }

    /// Sheds the cheapest users of an incoming subframe when the
    /// receiver is behind (an older subframe already past its deadline
    /// budget at dispatch). Returns the job list that actually runs.
    fn shed_if_behind(&mut self, subframe: usize, jobs: Vec<SimJob>) -> Vec<SimJob> {
        let Some(budget) = self.deadline else {
            return jobs;
        };
        if self.open_subframes == 0 || jobs.is_empty() {
            return jobs;
        }
        if !self.deadline_pressure(subframe, budget) {
            return jobs;
        }
        // Shed cheapest users until the remainder fits the budget's
        // cycle capacity; always shed at least one and always keep at
        // least one.
        let capacity = budget.saturating_mul(self.target as u64);
        let mut total: u64 = jobs.iter().map(|j| j.total_cycles()).sum();
        let mut shed = vec![false; jobs.len()];
        let mut n_shed = 0;
        for i in shed_order(&jobs) {
            if (total <= capacity && n_shed > 0) || n_shed + 1 == jobs.len() {
                break;
            }
            total -= jobs[i].total_cycles();
            shed[i] = true;
            n_shed += 1;
            if self.recorder.enabled() {
                self.recorder.record(TraceEvent::Fault {
                    kind: FaultKind::UserShed,
                    core: u32::MAX,
                    subframe: subframe as u32,
                    t: self.now,
                });
            }
        }
        self.shed_jobs += n_shed as u64;
        jobs.into_iter()
            .zip(shed)
            .filter_map(|(j, s)| (!s).then_some(j))
            .collect()
    }

    fn handle_dispatch(&mut self, subframe: usize, subframes: &[SubframeLoad]) {
        let load = &subframes[subframe];
        let requested = self.target_overrides[subframe].unwrap_or(load.active_target);
        self.target = if self.cfg.nap.proactive {
            requested.clamp(1, self.cfg.n_workers)
        } else {
            self.cfg.n_workers
        };
        let idx = self.bucket_idx(self.now);
        self.buckets[idx].active_target = self.target;
        self.subframe_dispatched_at[subframe] = self.now;
        let jobs = self.shed_if_behind(subframe, load.jobs.clone());
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::Dispatch {
                subframe: subframe as u32,
                t: self.now,
                jobs: jobs.len() as u32,
                active_target: self.target as u32,
            });
        }
        if !jobs.is_empty() {
            self.open_jobs_per_subframe[subframe] = jobs.len();
            self.open_subframes += 1;
            self.max_concurrent_subframes = self.max_concurrent_subframes.max(self.open_subframes);
        }
        for job in &jobs {
            let id = self.jobs.len();
            self.jobs.push(JobState {
                spec: job.clone(),
                phase: Phase::Estimation,
                pending: 0,
                user_core: usize::MAX,
                ready_continuation: false,
                dispatched_at: self.now,
                subframe,
                done: false,
            });
            self.user_queue.push_back(id);
        }
        if subframe + 1 == subframes.len() {
            self.dispatched_all = true;
        }
        // A proactive target drop naps spinning cores above the line;
        // new work wakes the rest.
        self.renap_spinners_above_target();
        self.notify_spinners();
    }

    /// The proactive active-core line, shifted up to compensate for dead
    /// cores below it so a chaos plan cannot starve the machine.
    fn effective_target(&self) -> usize {
        let dead_below = self
            .cores
            .iter()
            .take(self.target)
            .filter(|c| c.state == CoreState::Dead)
            .count();
        (self.target + dead_below).min(self.cfg.n_workers)
    }

    /// Proactively naps spinning cores whose id is at or above the target.
    fn renap_spinners_above_target(&mut self) {
        if !self.cfg.nap.proactive {
            return;
        }
        for core in self.effective_target()..self.cfg.n_workers {
            if self.cores[core].state == CoreState::SpinIdle && self.cores[core].owned_job.is_none()
            {
                self.enter_nap(core, CoreState::NapProactive);
            }
        }
    }

    /// Schedules immediate work-search wakeups for all spinning cores.
    fn notify_spinners(&mut self) {
        for core in 0..self.cfg.n_workers {
            if self.cores[core].state == CoreState::SpinIdle && !self.cores[core].wake_pending {
                self.cores[core].wake_pending = true;
                self.cores[core].wake_seq += 1;
                let seq = self.cores[core].wake_seq;
                self.push_event(self.now, Event::Wake { core, seq });
            }
        }
    }

    fn enter_nap(&mut self, core: usize, kind: CoreState) {
        debug_assert!(matches!(
            kind,
            CoreState::NapReactive | CoreState::NapProactive
        ));
        self.set_state(core, kind);
        if !self.all_work_done() {
            self.cores[core].wake_seq += 1;
            self.cores[core].wake_pending = true;
            let seq = self.cores[core].wake_seq;
            let t = self.now + self.cfg.wake_period;
            self.push_event(t, Event::Wake { core, seq });
        }
    }

    fn handle_wake(&mut self, core: usize, seq: u64) {
        if self.cores[core].wake_seq != seq {
            return; // stale wakeup
        }
        self.cores[core].wake_pending = false;
        match self.cores[core].state {
            CoreState::NapReactive | CoreState::NapProactive => {
                let status_only = self.cores[core].state == CoreState::NapProactive;
                let idx = self.bucket_idx(self.now);
                self.buckets[idx].wake_pulses += 1;
                if status_only {
                    self.buckets[idx].wake_pulses_status += 1;
                }
                self.wake_pulses_per_core[core] += 1;
                if self.recorder.enabled() {
                    self.recorder.record(TraceEvent::WakePulse {
                        core: core as u32,
                        t: self.now,
                        status_only,
                    });
                }
                self.find_work(core);
            }
            CoreState::SpinIdle => self.find_work(core),
            _ => {}
        }
    }

    /// Fail-stops a core per the chaos plan: queued and in-flight work is
    /// re-routed to surviving owners, and the core's own job (if any) is
    /// bundled for adoption by the next free survivor.
    fn handle_core_death(&mut self, core: usize) {
        if self.cores[core].state == CoreState::Dead {
            return;
        }
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::Fault {
                kind: FaultKind::CoreDeath,
                core: core as u32,
                subframe: u32::MAX,
                t: self.now,
            });
        }
        let inflight = self.cores[core].current.take();
        self.set_state(core, CoreState::Dead);
        // Cancel any pending wake; the Dead guard voids the pending
        // TaskDone of the in-flight work.
        self.cores[core].wake_seq += 1;
        self.cores[core].wake_pending = false;
        let mut stranded: Vec<Work> = self.cores[core].deque.drain(..).collect();
        if let Some(w) = inflight {
            stranded.push(w);
        }
        let owned = self.cores[core].owned_job.take();
        let mut own_bundle: Vec<Work> = Vec::new();
        for w in stranded {
            let job = match w {
                Work::Task { job, .. } | Work::Weights { job } | Work::Finish { job } => job,
            };
            if Some(job) == owned {
                own_bundle.push(w);
                continue;
            }
            let uc = self.jobs[job].user_core;
            if self.cores[uc].state == CoreState::Dead {
                // That owner died earlier; grow its adoption bundle.
                if let Some(entry) = self.orphan_owners.iter_mut().find(|(j, _)| *j == job) {
                    entry.1.push(w);
                } else {
                    let alive = self.first_alive_core();
                    self.cores[alive].deque.push_back(w);
                }
            } else if self.cores[uc].state == CoreState::WaitBarrier {
                // The owner is waiting on exactly this work: re-run it
                // there, paying a steal latency for the migration.
                self.start_work(uc, w, self.cfg.steal_latency);
            } else {
                self.cores[uc].deque.push_back(w);
            }
        }
        if let Some(job) = owned {
            self.orphan_owners.push_back((job, own_bundle));
        }
        // Wake survivors so stranded work and orphaned ownership are
        // picked up promptly.
        self.notify_spinners();
    }

    fn start_work(&mut self, core: usize, work: Work, extra_latency: u64) {
        let (job, mut cost, stage) = match work {
            Work::Task { job, cost } => {
                let stage = match self.jobs[job].phase {
                    Phase::Estimation => Stage::Estimation,
                    Phase::Combine => Stage::Combine,
                    p => unreachable!("tasks only run in estimation/combine, not {p:?}"),
                };
                (job, cost, stage)
            }
            Work::Weights { job } => (job, self.jobs[job].spec.weights_cost, Stage::Weights),
            Work::Finish { job } => (job, self.jobs[job].spec.finish_cost, Stage::Finish),
        };
        if let Some(plan) = &self.chaos {
            if let Some(sc) = plan.slow_cores.iter().find(|s| s.core == core) {
                cost = cost.saturating_mul(u64::from(sc.factor_permille)) / 1000;
            }
        }
        self.set_state(core, CoreState::Busy);
        let subframe = self.jobs[job].subframe as u32;
        let c = &mut self.cores[core];
        c.current = Some(work);
        c.current_stage = Some(stage);
        c.current_subframe = Some(subframe);
        self.tasks_per_core[core] += 1;
        let done_at = self.now + extra_latency + self.cfg.task_overhead + cost;
        self.push_event(done_at, Event::TaskDone { core });
    }

    /// Spawns the current phase's stealable tasks onto the user core's
    /// deque and sets the pending barrier count.
    fn spawn_phase_tasks(&mut self, job_id: usize) {
        let (costs, phase) = {
            let j = &self.jobs[job_id];
            match j.phase {
                Phase::Estimation => (j.spec.est_tasks.clone(), Phase::Estimation),
                Phase::Combine => (j.spec.combine_tasks.clone(), Phase::Combine),
                _ => unreachable!("only estimation/combine spawn task sets"),
            }
        };
        let _ = phase;
        let sf = self.jobs[job_id].subframe;
        // If the owning core died before this phase spawned (its Weights
        // continuation ran elsewhere as an orphan), spawn onto the first
        // surviving core instead.
        let core = {
            let uc = self.jobs[job_id].user_core;
            if self.cores[uc].state == CoreState::Dead {
                self.first_alive_core()
            } else {
                uc
            }
        };
        self.jobs[job_id].pending = 0;
        for cost in costs {
            let mut copies = 1;
            if let Some(plan) = &self.chaos {
                let ord = self.tasks_drawn_per_subframe[sf];
                self.tasks_drawn_per_subframe[sf] += 1;
                if plan.task_panics(sf, ord) {
                    // A poisoned task burns a full execution, is counted,
                    // and re-runs: queue it twice, barrier on both.
                    copies = 2;
                    self.poisoned_tasks += 1;
                    if self.recorder.enabled() {
                        self.recorder.record(TraceEvent::Fault {
                            kind: FaultKind::TaskPanic,
                            core: core as u32,
                            subframe: sf as u32,
                            t: self.now,
                        });
                    }
                }
            }
            self.jobs[job_id].pending += copies;
            for _ in 0..copies {
                self.cores[core]
                    .deque
                    .push_back(Work::Task { job: job_id, cost });
            }
        }
        self.notify_spinners();
    }

    /// Lowest-index core that has not fail-stopped. Panics only if every
    /// core is dead, which a single-`dead_core` plan cannot produce.
    fn first_alive_core(&self) -> usize {
        self.cores
            .iter()
            .position(|c| c.state != CoreState::Dead)
            .expect("at least one core must survive")
    }

    fn handle_task_done(&mut self, core: usize) {
        if self.cores[core].state == CoreState::Dead {
            // The core died mid-task; its in-flight work was re-queued at
            // death time, so this completion is void.
            return;
        }
        let work = self.cores[core]
            .current
            .take()
            .expect("TaskDone without current work");
        match work {
            Work::Task { job, .. } => {
                self.jobs[job].pending -= 1;
                if self.jobs[job].pending == 0 {
                    self.barrier_complete(job);
                }
            }
            Work::Weights { job } => {
                self.jobs[job].phase = Phase::Combine;
                self.spawn_phase_tasks(job);
            }
            Work::Finish { job } => {
                self.jobs[job].done = true;
                self.jobs_completed += 1;
                let latency = self.now - self.jobs[job].dispatched_at;
                self.job_latencies.push(latency);
                let idx = self.bucket_idx(self.now);
                self.buckets[idx].jobs_completed += 1;
                let sf = self.jobs[job].subframe;
                self.open_jobs_per_subframe[sf] -= 1;
                if self.open_jobs_per_subframe[sf] == 0 {
                    self.open_subframes -= 1;
                    if let Some(budget) = self.deadline {
                        if self.now - self.subframe_dispatched_at[sf] > budget {
                            self.overruns += 1;
                            if self.recorder.enabled() {
                                self.recorder.record(TraceEvent::Fault {
                                    kind: FaultKind::DeadlineOverrun,
                                    core: u32::MAX,
                                    subframe: sf as u32,
                                    t: self.now,
                                });
                            }
                        }
                    }
                    if self.recorder.enabled() {
                        self.recorder.record(TraceEvent::SubframeSpan {
                            subframe: sf as u32,
                            start: self.subframe_dispatched_at[sf],
                            end: self.now,
                        });
                    }
                }
                self.cores[core].owned_job = None;
            }
        }
        self.find_work(core);
    }

    /// Called when the last task of a barrier phase finishes: makes the
    /// continuation runnable and starts it immediately if the user thread
    /// is already waiting.
    fn barrier_complete(&mut self, job_id: usize) {
        let (phase, user_core) = {
            let j = &mut self.jobs[job_id];
            j.phase = match j.phase {
                Phase::Estimation => Phase::Weights,
                Phase::Combine => Phase::Finish,
                p => p,
            };
            j.ready_continuation = true;
            (j.phase, j.user_core)
        };
        if self.cores[user_core].state == CoreState::WaitBarrier {
            self.jobs[job_id].ready_continuation = false;
            let work = match phase {
                Phase::Weights => Work::Weights { job: job_id },
                Phase::Finish => Work::Finish { job: job_id },
                _ => unreachable!(),
            };
            self.start_work(user_core, work, 0);
        }
    }

    /// The worker scheduling loop body: local queue → barrier
    /// continuation → global user queue → steal → idle (per policy).
    fn find_work(&mut self, core: usize) {
        // User threads drain their own queue, then run continuations,
        // then wait — they never steal mid-job (§IV-C).
        if let Some(job_id) = self.cores[core].owned_job {
            if let Some(task) = self.cores[core].deque.pop_back() {
                self.start_work(core, task, 0);
                return;
            }
            if self.jobs[job_id].ready_continuation {
                self.jobs[job_id].ready_continuation = false;
                let work = match self.jobs[job_id].phase {
                    Phase::Weights => Work::Weights { job: job_id },
                    Phase::Finish => Work::Finish { job: job_id },
                    _ => unreachable!("continuation only in weights/finish"),
                };
                self.start_work(core, work, 0);
                return;
            }
            self.set_state(core, CoreState::WaitBarrier);
            return;
        }

        // Adopt a job orphaned by a core death before anything else: the
        // adopter inherits ownership plus the stranded work, then re-runs
        // the scheduling loop as the new user thread.
        if let Some((job_id, stranded)) = self.orphan_owners.pop_front() {
            self.jobs[job_id].user_core = core;
            self.cores[core].owned_job = Some(job_id);
            self.adopted_jobs += 1;
            for w in stranded {
                self.cores[core].deque.push_back(w);
            }
            return self.find_work(core);
        }

        // Proactively deactivated cores go straight back to sleep.
        if self.cfg.nap.proactive && core >= self.effective_target() {
            self.enter_nap(core, CoreState::NapProactive);
            return;
        }

        // Global user queue first (§IV-C), then steal.
        if let Some(job_id) = self.user_queue.pop_front() {
            self.jobs[job_id].user_core = core;
            self.cores[core].owned_job = Some(job_id);
            self.spawn_phase_tasks(job_id);
            if let Some(task) = self.cores[core].deque.pop_back() {
                self.start_work(core, task, 0);
            }
            return;
        }
        if let Some(victim) = self.find_victim(core) {
            let task = self.cores[victim]
                .deque
                .pop_front()
                .expect("victim verified non-empty");
            self.steals_per_core[core] += 1;
            if self.recorder.enabled() {
                self.recorder.record(TraceEvent::Steal {
                    thief: core as u32,
                    victim: victim as u32,
                    t: self.now,
                });
            }
            self.start_work(core, task, self.cfg.steal_latency);
            return;
        }

        // Nothing to do.
        self.steal_fails_per_core[core] += 1;
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::StealFail {
                core: core as u32,
                t: self.now,
            });
        }
        if self.cfg.nap.reactive {
            self.enter_nap(core, CoreState::NapReactive);
        } else {
            self.set_state(core, CoreState::SpinIdle);
        }
    }

    /// Round-robin victim search, deterministic and fair.
    fn find_victim(&mut self, thief: usize) -> Option<usize> {
        let n = self.cfg.n_workers;
        for i in 0..n {
            let v = (self.steal_cursor + i) % n;
            if v != thief && !self.cores[v].deque.is_empty() {
                self.steal_cursor = (v + 1) % n;
                return Some(v);
            }
        }
        None
    }
}

/// A paused subframe boundary: the next dispatch the session will
/// execute once [`SimSession::advance`] is called again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimBoundary {
    /// Index of the subframe about to be dispatched.
    pub subframe: usize,
    /// Simulated cycle of the dispatch.
    pub t: u64,
}

/// Cumulative counters of a paused [`SimSession`] — the same quantities
/// the final [`SimReport`] carries, observable mid-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionProgress {
    /// Jobs completed so far.
    pub jobs_done: u64,
    /// Subframes past their deadline budget so far.
    pub overruns: u64,
    /// User jobs shed so far.
    pub shed_jobs: u64,
}

/// A stepping handle over a prepared simulation that pauses just before
/// every subframe dispatch, so a governor can observe the machine and
/// inject a per-subframe active-core target.
///
/// The session pops events in exactly the order [`Simulator::run`] does;
/// a session that never calls [`SimSession::set_target`] produces a
/// byte-identical report and trace. Boundary measurements are
/// non-destructive: they never split accounting buckets or trace spans.
pub struct SimSession<'a, R: Recorder = NoopRecorder> {
    sim: Simulator<R>,
    subframes: &'a [SubframeLoad],
    /// The dispatch event peeked but not yet handled: `(subframe, t)`.
    pending: Option<(usize, u64)>,
    /// `(t, busy_cycles)` at the previous boundary measurement.
    last_measure: (u64, u64),
}

impl<'a, R: Recorder> SimSession<'a, R> {
    /// Runs the machine up to the next subframe dispatch (exclusive) and
    /// returns that boundary, or `None` when every event has drained.
    ///
    /// The dispatch itself executes at the *next* `advance` (or at
    /// [`SimSession::finish`]), after the governor has had a chance to
    /// call [`SimSession::set_target`].
    pub fn advance(&mut self) -> Option<SimBoundary> {
        if let Some((subframe, t)) = self.pending.take() {
            let popped = self.sim.events.pop();
            debug_assert!(matches!(
                popped,
                Some(Reverse((_, _, Event::Dispatch { .. })))
            ));
            self.sim.now = t;
            self.sim.handle_dispatch(subframe, self.subframes);
        }
        loop {
            match self.sim.events.peek() {
                None => return None,
                Some(&Reverse((t, _, Event::Dispatch { subframe }))) => {
                    self.pending = Some((subframe, t));
                    return Some(SimBoundary { subframe, t });
                }
                Some(_) => {}
            }
            let Reverse((t, _, ev)) = self.sim.events.pop().expect("peeked event");
            self.sim.now = t;
            match ev {
                Event::Dispatch { .. } => unreachable!("dispatches pause the session"),
                Event::TaskDone { core } => self.sim.handle_task_done(core),
                Event::Wake { core, seq } => self.sim.handle_wake(core, seq),
                Event::CoreDeath { core } => self.sim.handle_core_death(core),
            }
        }
    }

    /// Overrides the active-core target of the pending subframe (the one
    /// the last [`SimSession::advance`] paused on). No-op between
    /// boundaries. Ignored unless [`NapMode::proactive`] is set, exactly
    /// like [`SubframeLoad::active_target`].
    pub fn set_target(&mut self, target: usize) {
        if let Some((subframe, _)) = self.pending {
            self.sim.target_overrides[subframe] = Some(target);
        }
    }

    /// Eq. 2 activity over the window since the previous call (or since
    /// t = 0): busy cycles divided by `n_workers ×` elapsed cycles, with
    /// in-flight busy intervals pro-rated to the boundary instant.
    pub fn boundary_activity(&mut self) -> f64 {
        let t = self.pending.map_or(self.sim.now, |(_, t)| t);
        let busy = self.busy_cycles_at(t);
        let (t0, busy0) = self.last_measure;
        self.last_measure = (t, busy);
        let window = t.saturating_sub(t0);
        if window == 0 {
            return 0.0;
        }
        (busy - busy0) as f64 / (self.sim.cfg.n_workers as u64 * window) as f64
    }

    /// Total busy cycles accumulated by every core up to instant `t`,
    /// including the open interval of cores that are busy right now.
    fn busy_cycles_at(&self, t: u64) -> u64 {
        let mut busy: u64 = self.sim.busy_per_core.iter().sum();
        for c in &self.sim.cores {
            if c.state == CoreState::Busy && t > c.state_since {
                busy += t - c.state_since;
            }
        }
        busy
    }

    /// Total deactivated (napping or fail-stopped) core cycles so far —
    /// the DES analogue of the real pool's parked-worker time.
    pub fn deactivated_cycles(&self) -> u64 {
        let t = self.pending.map_or(self.sim.now, |(_, pt)| pt);
        let mut napped: u64 = self.sim.buckets.iter().map(|b| b.nap_cycles).sum();
        for c in &self.sim.cores {
            let gated = matches!(
                c.state,
                CoreState::NapReactive | CoreState::NapProactive | CoreState::Dead
            );
            if gated && t > c.state_since {
                napped += t - c.state_since;
            }
        }
        napped
    }

    /// Worker-core count of the simulated machine.
    pub fn n_workers(&self) -> usize {
        self.sim.cfg.n_workers
    }

    /// Completion latencies (cycles from dispatch) of every job finished
    /// so far, in completion order. A windowed collector remembers how
    /// many it has already consumed and reads only the tail — the
    /// continuous-telemetry analogue of [`SimReport::job_latencies`].
    pub fn job_latencies(&self) -> &[u64] {
        &self.sim.job_latencies
    }

    /// Cumulative overload counters so far — read at a boundary to
    /// build per-window deltas without waiting for the final report.
    pub fn progress(&self) -> SessionProgress {
        SessionProgress {
            jobs_done: self.sim.job_latencies.len() as u64,
            overruns: self.sim.overruns,
            shed_jobs: self.sim.shed_jobs,
        }
    }

    /// Executes any pending dispatch, drains every remaining event, and
    /// builds the final report (identical to [`Simulator::run`]'s).
    pub fn finish(mut self) -> SimReport {
        if let Some((subframe, t)) = self.pending.take() {
            let popped = self.sim.events.pop();
            debug_assert!(matches!(
                popped,
                Some(Reverse((_, _, Event::Dispatch { .. })))
            ));
            self.sim.now = t;
            self.sim.handle_dispatch(subframe, self.subframes);
        }
        while let Some(Reverse((t, _, ev))) = self.sim.events.pop() {
            self.sim.now = t;
            match ev {
                Event::Dispatch { subframe } => self.sim.handle_dispatch(subframe, self.subframes),
                Event::TaskDone { core } => self.sim.handle_task_done(core),
                Event::Wake { core, seq } => self.sim.handle_wake(core, seq),
                Event::CoreDeath { core } => self.sim.handle_core_death(core),
            }
        }
        // Flush terminal states.
        let end = self.sim.now;
        for c in 0..self.sim.cores.len() {
            let (state, since) = (self.sim.cores[c].state, self.sim.cores[c].state_since);
            self.sim.account(state, since, end);
            if state == CoreState::Busy && end > since {
                self.sim.busy_per_core[c] += end - since;
                if let Some(stage) = self.sim.cores[c].current_stage {
                    self.sim.stage_cycles[stage_slot(stage)] += end - since;
                }
            }
            if self.sim.recorder.enabled() && end > since {
                let busy = state == CoreState::Busy;
                self.sim.recorder.record(TraceEvent::CoreSpan {
                    core: c as u32,
                    state: trace_state(state),
                    start: since,
                    end,
                    stage: if busy {
                        self.sim.cores[c].current_stage
                    } else {
                        None
                    },
                    subframe: if busy {
                        self.sim.cores[c].current_subframe
                    } else {
                        None
                    },
                });
            }
        }
        let sim = self.sim;
        debug_assert_eq!(sim.jobs_completed, sim.jobs.len(), "all jobs must finish");
        SimReport {
            buckets: sim.buckets,
            job_latencies: sim.job_latencies,
            end_time: end,
            jobs_total: sim.jobs.len(),
            max_concurrent_subframes: sim.max_concurrent_subframes,
            busy_per_core: sim.busy_per_core,
            stage_cycles: sim.stage_cycles,
            steals_per_core: sim.steals_per_core,
            steal_fails_per_core: sim.steal_fails_per_core,
            tasks_per_core: sim.tasks_per_core,
            wake_pulses_per_core: sim.wake_pulses_per_core,
            overruns: sim.overruns,
            shed_jobs: sim.shed_jobs,
            poisoned_tasks: sim.poisoned_tasks,
            adopted_jobs: sim.adopted_jobs,
        }
    }
}

//! `lte-sim serve`: the continuously-running ingest service.
//!
//! The batch drivers (the benchmark, `soak`) process a subframe
//! sequence that is fully known before the first dispatch. `serve`
//! removes that assumption: subframe work *arrives* — from a built-in
//! deterministic traffic generator or a localhost socket — flows
//! through a bounded ingest ring ([`lte_sched::IngestQueue`]), and the
//! service has to decide, live, what to admit, what to refuse and how
//! hard to mitigate:
//!
//! * **Admission control** — per-source token-bucket rate limiting
//!   ([`lte_fault::TokenBucket`]), malformed-arrival refusal, and the
//!   reject tier of the escalation ladder at the front door.
//! * **Backpressure escalation** — [`lte_fault::EscalationState`]
//!   walks reject → shed → degrade as an overload episode persists,
//!   reusing the batch path's shed-cheapest-users and degrade-demap
//!   mitigations so every admitted subframe still decodes through the
//!   identical kernels.
//! * **Power coupling** — the per-tick governor is the paper's
//!   [`lte_power::PolicyGovernor`] wrapped in a
//!   [`lte_power::PressureGovernor`]: queue occupancy raises the core
//!   floor before the backlog can turn into deadline misses.
//! * **Lifecycle robustness** — graceful drain on SIGINT/SIGTERM
//!   (stop admitting, finish in-flight, shed the rest, flush complete
//!   artifacts), hot parameter reload at a tick boundary, worker-crash
//!   recovery via the self-healing pool, and a watchdog that forces a
//!   bounded restart of the receive path when the pipeline stalls.
//!
//! Everything that decides *what is computed* — arrivals, admission,
//! escalation, shedding, deadline accounting — is a pure function of
//! `(seed, tick, queue depth)`, independent of worker count and wall
//! clock. Two same-seed campaigns therefore admit the same subframes
//! and decode them to byte-identical payloads at any worker count; the
//! wall clock only influences *when* work runs and the host-telemetry
//! section of the report.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lte_dsp::{Modulation, Xoshiro256};
use lte_fault::{EscalationLadder, EscalationState, IngestFaults, TokenBucket};
use lte_obs::{
    f64_json, Histogram, MetricsRegistry, OpenMetrics, ServiceCounters, ServiceSnapshot, SloSpec,
    SloTracker, WindowObservation, WindowVerdict,
};
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::UserResult;
use lte_phy::verify::GoldenRecord;
use lte_power::{
    governed_boundary, CoreController, NapPolicy, PolicyGovernor, PressureGovernor, UserLoad,
    WorkloadEstimator,
};
use lte_sched::pool::TaskPool;
use lte_sched::IngestQueue;

use crate::benchmark::{kept_after_shed, BenchmarkConfig, UplinkBenchmark};
use crate::dispatch::Dispatcher;
use crate::fingerprint::fingerprint_results;

/// Built-in deterministic traffic generators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TrafficModel {
    /// Every tick carries one loaded subframe — the paper's full-buffer
    /// saturation traffic.
    #[default]
    FullBuffer,
    /// Sparse machine-type baseline with periodic bursts of many tiny
    /// allocations.
    BurstyIot,
    /// A talk-spurt duty cycle: small subframes for half the period,
    /// silence (DTX) for the other half.
    Voip,
}

impl TrafficModel {
    /// Stable name used in configs and reports.
    pub fn name(self) -> &'static str {
        match self {
            TrafficModel::FullBuffer => "full-buffer",
            TrafficModel::BurstyIot => "bursty-iot",
            TrafficModel::Voip => "voip",
        }
    }

    /// The subframes this model offers at `tick` (before fault
    /// shaping). A pure function of `(seed, tick)`.
    pub fn arrivals(self, seed: u64, tick: u64) -> Vec<SubframeConfig> {
        let mut rng = Xoshiro256::seed_from_u64(mix(seed, tick));
        match self {
            TrafficModel::FullBuffer => {
                // One loaded subframe per tick: two mid-size data users
                // plus a small control-ish allocation, drawn from a
                // small palette so the input cache stays warm.
                let heavy_prbs = [16, 20, 25][rng.next_below(3) as usize];
                vec![SubframeConfig::new(vec![
                    UserConfig::new(heavy_prbs, 2, Modulation::Qam16),
                    UserConfig::new(12, 1, Modulation::Qpsk),
                    UserConfig::new(4, 1, Modulation::Qpsk),
                ])]
            }
            TrafficModel::BurstyIot => {
                let burst = tick % 32 >= 16 && tick % 32 < 20;
                if burst {
                    // A synchronized wake-up: several subframes of tiny
                    // allocations arrive in the same tick.
                    (0..3)
                        .map(|_| {
                            SubframeConfig::new(
                                (0..4)
                                    .map(|_| {
                                        let prbs = 2 + rng.next_below(2) as usize;
                                        UserConfig::new(prbs, 1, Modulation::Qpsk)
                                    })
                                    .collect(),
                            )
                        })
                        .collect()
                } else if tick.is_multiple_of(4) {
                    vec![SubframeConfig::new(vec![
                        UserConfig::new(2, 1, Modulation::Qpsk),
                        UserConfig::new(3, 1, Modulation::Qpsk),
                    ])]
                } else {
                    Vec::new()
                }
            }
            TrafficModel::Voip => {
                if tick % 40 < 20 {
                    vec![SubframeConfig::new(vec![
                        UserConfig::new(2, 1, Modulation::Qpsk),
                        UserConfig::new(2, 1, Modulation::Qpsk),
                        UserConfig::new(3, 1, Modulation::Qpsk),
                    ])]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Every user configuration [`arrivals`](TrafficModel::arrivals) can
    /// emit: the set to prewarm before the first tick.
    pub(crate) fn palette(self) -> Vec<UserConfig> {
        match self {
            TrafficModel::FullBuffer => vec![
                UserConfig::new(16, 2, Modulation::Qam16),
                UserConfig::new(20, 2, Modulation::Qam16),
                UserConfig::new(25, 2, Modulation::Qam16),
                UserConfig::new(12, 1, Modulation::Qpsk),
                UserConfig::new(4, 1, Modulation::Qpsk),
            ],
            TrafficModel::BurstyIot | TrafficModel::Voip => vec![
                UserConfig::new(2, 1, Modulation::Qpsk),
                UserConfig::new(3, 1, Modulation::Qpsk),
            ],
        }
    }
}

impl std::str::FromStr for TrafficModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "full-buffer" | "full_buffer" | "full" => Ok(TrafficModel::FullBuffer),
            "bursty-iot" | "bursty_iot" | "bursty" | "iot" => Ok(TrafficModel::BurstyIot),
            "voip" => Ok(TrafficModel::Voip),
            other => Err(format!(
                "unknown traffic model '{other}' (full-buffer, bursty-iot, voip)"
            )),
        }
    }
}

/// SplitMix64-style avalanche of `(seed, tick)` — the same shape as
/// `FaultPlan::rng_for`, so per-tick draws are order-independent.
fn mix(seed: u64, tick: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x7365_7276_6531_2121) // "serve1!!"
        .wrapping_add(tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hot-reloadable half of the service configuration: everything
/// that may change at a tick boundary without restarting the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeParams {
    /// SLO budgets per evaluation window.
    pub spec: SloSpec,
    /// Escalation-ladder fill watermarks.
    pub ladder: EscalationLadder,
    /// Episode ticks of sustained rejection before shedding engages.
    pub shed_after: u64,
    /// Further episode ticks before demap degradation engages.
    pub degrade_after: u64,
    /// Token-bucket refill in milli-admissions per tick (1000 = one
    /// subframe per tick sustained).
    pub rate_milli: u64,
    /// Token-bucket burst allowance in whole admissions.
    pub burst: u64,
    /// The built-in traffic generator.
    pub traffic: TrafficModel,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            spec: SloSpec::default_budgets(),
            ladder: EscalationLadder::default(),
            shed_after: EscalationState::DEFAULT_SHED_AFTER,
            degrade_after: EscalationState::DEFAULT_DEGRADE_AFTER,
            // 1.5 subframes/tick sustained: headroom over the nominal
            // one-per-tick service rate, a ceiling under a 2× flood.
            rate_milli: 1500,
            burst: 4,
            traffic: TrafficModel::FullBuffer,
        }
    }
}

impl ServeParams {
    /// Parses `key=value` lines (`#` comments, blank lines ignored)
    /// over the defaults. Recognised keys: `traffic`, `rate_milli`,
    /// `burst`, `reject_fill`, `shed_fill`, `degrade_fill`,
    /// `shed_after`, `degrade_after`, `max_miss_rate`,
    /// `max_shed_rate`, `p99_budget_ns`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on an unknown key or bad value.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = ServeParams::default();
        let (mut reject, mut shed, mut degrade) = (
            p.ladder.reject_fill(),
            p.ladder.shed_fill(),
            p.ladder.degrade_fill(),
        );
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key=value", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |e: &dyn std::fmt::Display| format!("line {}: {key}: {e}", lineno + 1);
            match key {
                "traffic" => p.traffic = value.parse().map_err(|e: String| bad(&e))?,
                "rate_milli" => p.rate_milli = value.parse().map_err(|e| bad(&e))?,
                "burst" => p.burst = value.parse().map_err(|e| bad(&e))?,
                "reject_fill" => reject = value.parse().map_err(|e| bad(&e))?,
                "shed_fill" => shed = value.parse().map_err(|e| bad(&e))?,
                "degrade_fill" => degrade = value.parse().map_err(|e| bad(&e))?,
                "shed_after" => p.shed_after = value.parse().map_err(|e| bad(&e))?,
                "degrade_after" => p.degrade_after = value.parse().map_err(|e| bad(&e))?,
                "max_miss_rate" => p.spec.max_miss_rate = value.parse().map_err(|e| bad(&e))?,
                "max_shed_rate" => p.spec.max_shed_rate = value.parse().map_err(|e| bad(&e))?,
                "p99_budget_ns" => {
                    p.spec.p99_latency_budget = Some(value.parse().map_err(|e| bad(&e))?);
                }
                other => return Err(format!("line {}: unknown key '{other}'", lineno + 1)),
            }
        }
        p.ladder = EscalationLadder::new(reject, shed, degrade)?;
        Ok(p)
    }
}

/// External control surface for a running serve loop: the CLI wires
/// signals into it, tests drive it programmatically.
#[derive(Debug, Default)]
pub struct ServeControl {
    drain: AtomicBool,
    reload: Mutex<Option<ServeParams>>,
}

impl ServeControl {
    /// A fresh control handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asks the loop to stop admitting and drain at the next tick.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::Relaxed);
    }

    /// Has a drain been requested?
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::Relaxed)
    }

    /// Stages new parameters to be applied at the next tick boundary.
    pub fn request_reload(&self, params: ServeParams) {
        *self.reload.lock().unwrap_or_else(PoisonError::into_inner) = Some(params);
    }

    fn take_reload(&self) -> Option<ServeParams> {
        self.reload
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Why the serve loop left the Running state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainReason {
    /// The configured tick budget completed.
    CampaignComplete,
    /// [`ServeControl::request_drain`] (e.g. SIGINT/SIGTERM).
    Requested,
}

impl DrainReason {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DrainReason::CampaignComplete => "campaign-complete",
            DrainReason::Requested => "drain-requested",
        }
    }
}

/// One lifecycle transition of the serve state machine
/// (`starting → running → draining → drained`, with reload/watchdog
/// events recorded in between).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// The tick at which the transition happened.
    pub tick: u64,
    /// The state entered or event name (`running`, `reload`,
    /// `watchdog-restart`, `draining`, `drained`).
    pub state: String,
    /// Human-readable cause.
    pub reason: String,
}

/// The watchdog's verdict about a pipeline that has not made progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchdogVerdict {
    /// Progress resumed or the wait is still within the stall budget.
    Wait,
    /// Stalled: force a bounded restart of the receive path.
    Restart,
    /// Stalled and the restart budget is exhausted: give up.
    Abort,
}

/// Decides what a stalled dispatch slot wait means. Pure, so the
/// policy is unit-testable without staging an actual hang: restart
/// while the budget lasts, abort once `restarts` reaches
/// `max_restarts`.
pub fn watchdog_verdict(
    waited: Duration,
    stall_timeout: Duration,
    progress_before: u64,
    progress_now: u64,
    restarts: u64,
    max_restarts: u64,
) -> WatchdogVerdict {
    if progress_now != progress_before || waited < stall_timeout {
        return WatchdogVerdict::Wait;
    }
    if restarts >= max_restarts {
        WatchdogVerdict::Abort
    } else {
        WatchdogVerdict::Restart
    }
}

/// Static configuration of one serve campaign (the hot-reloadable half
/// lives in [`ServeParams`]).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Tick budget (0 = run until a drain is requested).
    pub ticks: u64,
    /// Wall-clock tick period (the paper's Δ; `ZERO` = free-running).
    pub delta: Duration,
    /// Master seed for traffic, synthesis and chaos.
    pub seed: u64,
    /// Worker threads in the receive pool.
    pub workers: usize,
    /// Ingest ring capacity in subframes.
    pub queue_capacity: usize,
    /// SLO evaluation window in ticks.
    pub window: u64,
    /// Power-governance policy for the pressure-wrapped governor.
    pub policy: NapPolicy,
    /// Initial (and reload-base) service parameters.
    pub params: ServeParams,
    /// Seeded ingest chaos (stall / flood / malformed), if any.
    pub faults: Option<IngestFaults>,
    /// Inject a worker kill at this tick (self-healing drill).
    pub kill_worker_at: Option<u64>,
    /// Force a watchdog restart at this tick (restart drill; the live
    /// detection path uses `stall_timeout`).
    pub force_restart_at: Option<u64>,
    /// Apply these parameters at this tick (programmatic hot reload;
    /// the CLI reloads from `--config` instead).
    pub reload_at: Option<(u64, ServeParams)>,
    /// Queue-wait budget in ticks before a subframe counts as a
    /// deadline miss.
    pub deadline_ticks: u64,
    /// Dispatch-slot wait beyond which the watchdog calls the pipeline
    /// stalled.
    pub stall_timeout: Duration,
    /// Watchdog restarts allowed before the run aborts.
    pub max_restarts: u64,
    /// Use the exact log-sum-exp demapper until degraded (the batch
    /// path's default is max-log, `false`).
    pub exact_demap: bool,
    /// Dispatched-but-incomplete subframes allowed before dispatch
    /// blocks (bounds memory on slow hosts).
    pub max_in_flight: usize,
    /// Verify decoded bytes against the serial golden reference at
    /// drain time.
    pub verify: bool,
}

impl ServeConfig {
    /// A campaign of `ticks` ticks from `seed` with library defaults.
    pub fn new(ticks: u64, seed: u64) -> Self {
        ServeConfig {
            ticks,
            delta: Duration::ZERO,
            seed,
            workers: 4,
            queue_capacity: 16,
            window: 40,
            policy: NapPolicy::NapIdle,
            params: ServeParams::default(),
            faults: None,
            kill_worker_at: None,
            force_restart_at: None,
            reload_at: None,
            deadline_ticks: 3,
            stall_timeout: Duration::from_secs(5),
            max_restarts: 3,
            exact_demap: false,
            max_in_flight: 8,
            verify: true,
        }
    }
}

/// One SLO window's record in the report.
#[derive(Clone, Debug)]
pub struct ServeWindow {
    /// The verdict from the tracker.
    pub verdict: WindowVerdict,
    /// Was ingest chaos (stall or flood) active during the window?
    pub chaos_active: bool,
}

/// Everything a finished (drained) campaign knows about itself.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Final admission/lifecycle counter snapshot.
    pub snapshot: ServiceSnapshot,
    /// Per-window SLO verdicts with chaos annotations.
    pub windows: Vec<ServeWindow>,
    /// First tick each escalation tier engaged (reject, shed, degrade).
    pub first_tier_tick: [Option<u64>; 3],
    /// Overload episodes observed.
    pub episodes: u64,
    /// Lifecycle transitions in order.
    pub lifecycle: Vec<LifecycleEvent>,
    /// FNV-1a 64 over all completed rows, in dispatch order.
    pub fingerprint: u64,
    /// Golden verification failure, if verification ran and failed.
    pub verify_error: Option<String>,
    /// Whether golden verification ran.
    pub verified: bool,
    /// Why the loop drained.
    pub drain_reason: DrainReason,
    /// Ticks actually served before draining.
    pub ticks_run: u64,
    /// Subframes dispatched into the pool.
    pub dispatched: u64,
    /// CRC-passing user decodes.
    pub crc_pass: u64,
    /// User decodes completed.
    pub jobs_completed: u64,
    /// Worker respawns observed (self-healing drill).
    pub worker_respawns: u64,
    /// Boundaries where queue pressure raised the governor's target.
    pub boosted_boundaries: u64,
    /// Wall-clock campaign duration.
    pub elapsed: Duration,
    /// Wall-clock drain duration (drain start to artifacts ready).
    pub drain_elapsed: Duration,
    /// Host wall-clock dispatch→complete latency percentiles (ns);
    /// NOT part of the determinism contract.
    pub latency_p50_ns: u64,
    /// p99 of the same.
    pub latency_p99_ns: u64,
    /// The SERVE.json document.
    pub json: String,
    /// The OpenMetrics exposition.
    pub openmetrics: String,
}

impl ServeOutcome {
    /// `true` when every *calm* window (no ingest chaos active) met
    /// its SLOs — the health test the exit code reflects. Chaos
    /// windows are expected to burn budget; that is what they are for.
    pub fn calm_windows_healthy(&self) -> bool {
        self.windows
            .iter()
            .filter(|w| !w.chaos_active)
            .all(|w| w.verdict.ok())
    }
}

/// A queued arrival: what the front door admitted, when.
struct Admitted {
    arrival_tick: u64,
    sf: SubframeConfig,
}

/// Deterministic per-tick accounting for one SLO window.
#[derive(Default)]
struct WindowAccum {
    subframes: u64,
    misses: u64,
    jobs: u64,
    shed_jobs: u64,
    chaos_active: bool,
}

/// Runs one serve campaign to drain. See the module docs for the
/// loop's structure.
///
/// # Errors
///
/// Returns a descriptive string when the pool cannot be spawned, the
/// watchdog exhausts its restart budget, or (with `verify`) the
/// decoded bytes diverge from the serial reference.
pub fn run_serve(cfg: &ServeConfig, control: &ServeControl) -> Result<ServeOutcome, String> {
    let cell = CellConfig::with_antennas(2);
    let turbo = TurboMode::Passthrough;
    // A reload may switch to any traffic model: prewarm them all.
    let palettes = [
        TrafficModel::FullBuffer,
        TrafficModel::BurstyIot,
        TrafficModel::Voip,
    ]
    .map(TrafficModel::palette);
    let warm = palettes.each_ref().map(|p| (cell, &p[..]));
    let mut d = Dispatcher::new(cfg.workers, turbo, &warm)
        .map_err(|e| format!("failed to start the worker pool: {e}"))?;

    let mut params = cfg.params.clone();
    let mut escalation =
        EscalationState::with_delays(params.ladder, params.shed_after, params.degrade_after);
    let mut bucket = TokenBucket::per_tick(params.rate_milli, params.burst);
    let mut tracker = SloTracker::new(params.spec);

    let queue: IngestQueue<Admitted> = IngestQueue::new(cfg.queue_capacity);
    let counters = ServiceCounters::new();
    let faults = cfg
        .faults
        .clone()
        .unwrap_or_else(|| IngestFaults::quiet(cfg.seed));

    // The paper's Eq. 3 slopes, fitted offline once: serve reuses a
    // flat library calibration rather than re-running the estimator's
    // calibration campaign at startup (the governor's *composition*
    // with backpressure is what serve exercises; absolute walltime
    // fidelity stays with `lte-sim govern`).
    let estimator = WorkloadEstimator::from_slopes([[0.002, 0.003, 0.004]; 4]);
    let controller = CoreController {
        max_cores: cfg.workers,
        min_cores: 1,
        margin: 1,
    };
    let mut governor = PressureGovernor::new(
        PolicyGovernor::new(cfg.policy, estimator, controller),
        cfg.workers,
    );

    // Input pool: the batch benchmark's unique-input cache (at its
    // default, clean-decode SNR), synthesised once per distinct user
    // config in encounter order from the campaign seed, so admission
    // order (which is deterministic) fully determines every payload bit.
    let mut inputs = UplinkBenchmark::new(
        cell,
        BenchmarkConfig {
            seed: cfg.seed,
            turbo,
            ..BenchmarkConfig::default()
        },
    );

    // The inputs each dispatched row decoded, for the golden check.
    let mut rows: Vec<Vec<Arc<UserInput>>> = Vec::new();
    let mut all_max_log = true;
    let mut windows: Vec<ServeWindow> = Vec::new();
    let mut accum = WindowAccum::default();
    let mut lifecycle = vec![LifecycleEvent {
        tick: 0,
        state: "running".into(),
        reason: format!(
            "traffic={} workers={} queue={}",
            params.traffic.name(),
            cfg.workers,
            cfg.queue_capacity
        ),
    }];
    let mut first_tier_tick: [Option<u64>; 3] = [None; 3];
    // Consecutive deadline-missed pops. With service rate equal to the
    // nominal arrival rate, a flood leaves a stale backlog at constant
    // depth — below every fill watermark, yet missing every deadline.
    // A streak longer than the deadline budget forces the episode open
    // until the backlog drains and pops are fresh again.
    let mut miss_streak: u64 = 0;
    let window_len = cfg.window.max(1);

    let mut tick: u64 = 0;
    let drain_reason;
    loop {
        // ---- Tick boundary: control plane first. -------------------
        if control.drain_requested() {
            drain_reason = DrainReason::Requested;
            break;
        }
        if cfg.ticks > 0 && tick >= cfg.ticks {
            drain_reason = DrainReason::CampaignComplete;
            break;
        }
        d.pace(cfg.delta, tick);

        let staged = control.take_reload().or_else(|| {
            cfg.reload_at
                .as_ref()
                .filter(|(at, _)| *at == tick)
                .map(|(_, p)| p.clone())
        });
        if let Some(next) = staged {
            // Apply at the boundary: escalation, rate limiting and SLO
            // budgets restart under the new parameters; nothing
            // in-flight is dropped.
            params = next;
            escalation = EscalationState::with_delays(
                params.ladder,
                params.shed_after,
                params.degrade_after,
            );
            bucket = TokenBucket::per_tick(params.rate_milli, params.burst);
            tracker = SloTracker::new(params.spec);
            counters.reload();
            lifecycle.push(LifecycleEvent {
                tick,
                state: "reload".into(),
                reason: format!("traffic={}", params.traffic.name()),
            });
        }

        if cfg.kill_worker_at == Some(tick) {
            // Self-healing drill: one worker panics, supervision
            // respawns it; no admitted work is lost.
            d.pool().inject_worker_kill();
        }
        if cfg.force_restart_at == Some(tick) {
            restart_pipeline(d.pool(), cfg.workers);
            counters.watchdog_restart();
            lifecycle.push(LifecycleEvent {
                tick,
                state: "watchdog-restart".into(),
                reason: "forced (drill)".into(),
            });
        }

        // ---- Escalation decision for this tick. --------------------
        // The miss-streak guard is a safety net, not the primary
        // trigger: a growing flood should engage the fill watermarks
        // and walk the whole ladder over a deep queue, so the guard
        // waits out a full escalation's worth of ticks before it
        // declares the service stuck on a stale backlog.
        let fill = queue.fill();
        let stuck_after = cfg.deadline_ticks + params.shed_after + params.degrade_after;
        let pressure = tick_pressure(fill, miss_streak, stuck_after, params.ladder.reject_fill());
        let decision = escalation.observe(pressure);
        for (slot, engaged) in first_tier_tick.iter_mut().zip([
            decision.reject_new,
            decision.shed_users,
            decision.degrade_demap,
        ]) {
            if engaged && slot.is_none() {
                *slot = Some(tick);
            }
        }

        // ---- Arrivals through the front door. ----------------------
        accum.chaos_active |= faults.stalled(tick) || faults.flood_factor(tick) > 1;
        if !faults.stalled(tick) {
            let base = params.traffic.arrivals(cfg.seed, tick);
            let flood = faults.flood_factor(tick);
            let mut index = 0u64;
            // A flood replays the nominal offered load `flood` times in
            // the same tick; the queue treats every copy as new work.
            for _round in 0..flood {
                for sf in &base {
                    counters.arrival();
                    let malformed = faults.malformed(tick, index);
                    index += 1;
                    if malformed {
                        counters.reject_malformed();
                        continue;
                    }
                    if !bucket.try_take() {
                        counters.reject_rate_limited();
                        continue;
                    }
                    if decision.reject_new {
                        counters.reject_backpressure();
                        continue;
                    }
                    let item = Admitted {
                        arrival_tick: tick,
                        sf: sf.clone(),
                    };
                    if queue.try_push(item).is_err() {
                        counters.reject_backpressure();
                    } else {
                        counters.admit();
                    }
                }
            }
        }
        bucket.tick();
        counters.set_queue_depth(queue.depth() as u64);

        // ---- Service: pop and dispatch at most one subframe. -------
        if queue.depth() == 0 {
            // No backlog: the service is keeping up, whatever the
            // recent history says.
            miss_streak = 0;
        }
        if let Some(item) = queue.try_pop() {
            counters.set_queue_depth(queue.depth() as u64);
            accum.subframes += 1;
            let waited_ticks = tick.saturating_sub(item.arrival_tick);
            if waited_ticks > cfg.deadline_ticks {
                counters.deadline_miss();
                accum.misses += 1;
                miss_streak += 1;
            } else {
                miss_streak = 0;
            }

            // The batch path's `ShedUsers` policy, cheapest-first.
            let submit = if decision.shed_users {
                kept_after_shed(&item.sf.users, None)
            } else {
                (0..item.sf.n_users()).collect()
            };
            let shed = (item.sf.n_users() - submit.len()) as u64;
            counters.shed(shed);
            accum.shed_jobs += shed;
            let exact = cfg.exact_demap && !decision.degrade_demap;
            if decision.degrade_demap {
                counters.degraded();
            }

            // Pressure-coupled governance at the dispatch boundary:
            // the inner PolicyGovernor sees the submitted users (Eq. 4)
            // while the wrapper floors the target by queue occupancy.
            let loads: Vec<UserLoad> = submit
                .iter()
                .map(|&i| UserLoad::from(&item.sf.users[i]))
                .collect();
            governor.set_pressure(fill);
            let mut substrate = d.pool();
            governed_boundary(&mut substrate, &mut governor, tick as usize, &loads);

            // Bound the dispatch pipeline; a stall here is what the
            // watchdog turns into a bounded restart.
            loop {
                let progress = d.closed_rows();
                let waited_from = Instant::now();
                if d.wait_below(cfg.max_in_flight.max(1), cfg.stall_timeout) {
                    break;
                }
                match watchdog_verdict(
                    waited_from.elapsed(),
                    cfg.stall_timeout,
                    progress,
                    d.closed_rows(),
                    counters.snapshot().watchdog_restarts,
                    cfg.max_restarts,
                ) {
                    WatchdogVerdict::Wait => {}
                    WatchdogVerdict::Restart => {
                        restart_pipeline(d.pool(), cfg.workers);
                        counters.watchdog_restart();
                        lifecycle.push(LifecycleEvent {
                            tick,
                            state: "watchdog-restart".into(),
                            reason: format!("no completion progress in {:?}", cfg.stall_timeout),
                        });
                    }
                    WatchdogVerdict::Abort => {
                        return Err(format!(
                            "pipeline stalled: no completion progress after {} \
                             watchdog restarts",
                            cfg.max_restarts
                        ));
                    }
                }
            }

            let row: Vec<Arc<UserInput>> = submit
                .iter()
                .map(|&i| inputs.input_for(&item.sf.users[i]))
                .collect();
            accum.jobs += row.len() as u64;
            d.dispatch(row.iter().map(|input| (&cell, input)), exact);
            rows.push(row);
            all_max_log &= !exact;
        }

        // ---- Window close. -----------------------------------------
        tick += 1;
        if tick.is_multiple_of(window_len) {
            close_window(&mut tracker, &mut windows, &mut accum, d.latency());
        }
    }

    // ---- Drain. ----------------------------------------------------
    let drain_start = Instant::now();
    lifecycle.push(LifecycleEvent {
        tick,
        state: "draining".into(),
        reason: drain_reason.name().into(),
    });
    queue.close();
    let leftover = queue.drain_remaining();
    if !leftover.is_empty() {
        // Admitted but never dispatched: shed whole subframes rather
        // than overrun the drain deadline decoding a backlog.
        counters.drain_shed(leftover.len() as u64);
    }
    let finished = d.finish();
    if accum.subframes > 0 || accum.jobs > 0 || accum.chaos_active {
        close_window(&mut tracker, &mut windows, &mut accum, d.latency());
    }
    governor.inner_mut().close(None);
    let drain_elapsed = drain_start.elapsed();
    let elapsed = Duration::from_nanos(d.now_ns());
    lifecycle.push(LifecycleEvent {
        tick,
        state: "drained".into(),
        reason: format!("{} rows, {} leftover shed", rows.len(), leftover.len()),
    });

    // ---- Assemble results, fingerprint, verify. --------------------
    let mut result_rows: Vec<Vec<UserResult>> = Vec::with_capacity(finished.len());
    for row in finished {
        let results: Option<Vec<UserResult>> = row.results.into_iter().collect();
        result_rows.push(results.ok_or("a user's task graph panicked and its decode was lost")?);
        counters.completed();
    }
    let fingerprint = fingerprint_results(&result_rows);
    let decodes = || result_rows.iter().flatten();

    let mut verify_error = None;
    let verified = cfg.verify && all_max_log;
    if verified {
        let golden_inputs: Vec<Vec<UserInput>> = rows
            .iter()
            .map(|row| row.iter().map(|i| (**i).clone()).collect())
            .collect();
        let golden = GoldenRecord::build(&cell, &golden_inputs, turbo);
        if let Err(e) = golden.verify(&result_rows) {
            verify_error = Some(e.to_string());
        }
    }

    let latency_snapshot = d.latency().snapshot();
    let snapshot = counters.snapshot();
    let outcome = ServeOutcome {
        snapshot,
        windows,
        first_tier_tick,
        episodes: escalation.episodes(),
        lifecycle,
        fingerprint,
        verify_error,
        verified,
        drain_reason,
        ticks_run: tick,
        dispatched: rows.len() as u64,
        crc_pass: decodes().filter(|r| r.crc_ok).count() as u64,
        jobs_completed: decodes().count() as u64,
        worker_respawns: d.pool().worker_respawns(),
        boosted_boundaries: governor.boosted_boundaries(),
        elapsed,
        drain_elapsed,
        latency_p50_ns: latency_snapshot.quantile(0.50),
        latency_p99_ns: latency_snapshot.quantile(0.99),
        json: String::new(),
        openmetrics: String::new(),
    };
    let json = render_json(cfg, &outcome);
    let om = render_openmetrics(&outcome);
    Ok(ServeOutcome {
        json,
        openmetrics: om,
        ..outcome
    })
}

/// Closes one SLO window: evaluates the tracker and resets the
/// accumulator.
fn close_window(
    tracker: &mut SloTracker,
    windows: &mut Vec<ServeWindow>,
    accum: &mut WindowAccum,
    latency: &Histogram,
) {
    let p99 = latency.snapshot().quantile(0.99);
    let verdict = tracker.observe(&WindowObservation {
        subframes: accum.subframes,
        deadline_misses: accum.misses,
        jobs: accum.jobs,
        shed_jobs: accum.shed_jobs,
        p99_latency: p99,
    });
    windows.push(ServeWindow {
        verdict,
        chaos_active: accum.chaos_active,
    });
    *accum = WindowAccum::default();
}

/// The watchdog's bounded restart: kick one worker (the self-healing
/// supervisor respawns it, shaking loose a wedged deque) and restore
/// the pool to full width in case the governor had parked cores.
fn restart_pipeline(pool: &TaskPool, workers: usize) {
    pool.inject_worker_kill();
    pool.set_active_workers(workers);
}

/// Renders SERVE.json (schema `lte-sim-serve-v1`). Everything outside
/// the `host` section is deterministic for a given config and seed.
fn render_json(cfg: &ServeConfig, o: &ServeOutcome) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":\"lte-sim-serve-v1\",");
    out.push_str(&format!(
        "\"config\":{{\"ticks\":{},\"seed\":{},\"workers\":{},\"queue_capacity\":{},\
         \"window\":{},\"policy\":\"{}\",\"traffic\":\"{}\",\"deadline_ticks\":{},\
         \"rate_milli\":{},\"burst\":{},\"reject_fill\":{},\"shed_fill\":{},\
         \"degrade_fill\":{},\"chaos\":{}}},",
        cfg.ticks,
        cfg.seed,
        cfg.workers,
        cfg.queue_capacity,
        cfg.window,
        cfg.policy.name(),
        cfg.params.traffic.name(),
        cfg.deadline_ticks,
        cfg.params.rate_milli,
        cfg.params.burst,
        f64_json(cfg.params.ladder.reject_fill()),
        f64_json(cfg.params.ladder.shed_fill()),
        f64_json(cfg.params.ladder.degrade_fill()),
        cfg.faults.is_some(),
    ));
    out.push_str(&format!("\"service\":{},", o.snapshot.to_json()));
    out.push_str(&format!(
        "\"escalation\":{{\"first_reject_tick\":{},\"first_shed_tick\":{},\
         \"first_degrade_tick\":{},\"episodes\":{}}},",
        json_opt(o.first_tier_tick[0]),
        json_opt(o.first_tier_tick[1]),
        json_opt(o.first_tier_tick[2]),
        o.episodes,
    ));
    let windows: Vec<String> = o
        .windows
        .iter()
        .map(|w| {
            format!(
                "{{\"verdict\":{},\"chaos_active\":{}}}",
                w.verdict.to_json(),
                w.chaos_active
            )
        })
        .collect();
    out.push_str(&format!(
        "\"slo\":{{\"windows\":[{}],\"calm_windows_healthy\":{}}},",
        windows.join(","),
        o.calm_windows_healthy(),
    ));
    let lifecycle: Vec<String> = o
        .lifecycle
        .iter()
        .map(|e| {
            format!(
                "{{\"tick\":{},\"state\":\"{}\",\"reason\":\"{}\"}}",
                e.tick,
                e.state,
                e.reason.replace('"', "'")
            )
        })
        .collect();
    out.push_str(&format!("\"lifecycle\":[{}],", lifecycle.join(",")));
    out.push_str(&format!(
        "\"quality\":{{\"dispatched\":{},\"jobs_completed\":{},\"crc_pass\":{},\
         \"fingerprint\":\"{:016x}\",\"verified\":{},\"verify_error\":{}}},",
        o.dispatched,
        o.jobs_completed,
        o.crc_pass,
        o.fingerprint,
        o.verified,
        match &o.verify_error {
            Some(e) => format!("\"{}\"", e.replace('"', "'")),
            None => "null".into(),
        },
    ));
    out.push_str(&format!(
        "\"power\":{{\"policy\":\"{}\",\"boosted_boundaries\":{}}},",
        cfg.policy.name(),
        o.boosted_boundaries,
    ));
    out.push_str(&format!(
        "\"lifecycle_summary\":{{\"drain_reason\":\"{}\",\"ticks_run\":{},\
         \"worker_respawns\":{},\"watchdog_restarts\":{},\"reloads\":{}}},",
        o.drain_reason.name(),
        o.ticks_run,
        o.worker_respawns,
        o.snapshot.watchdog_restarts,
        o.snapshot.reloads,
    ));
    out.push_str(&format!(
        "\"host\":{{\"elapsed_ms\":{},\"drain_ms\":{},\"latency_p50_ns\":{},\
         \"latency_p99_ns\":{}}}}}",
        o.elapsed.as_millis(),
        o.drain_elapsed.as_millis(),
        o.latency_p50_ns,
        o.latency_p99_ns,
    ));
    out
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |t| t.to_string())
}

/// Renders the OpenMetrics exposition of the deterministic counters.
fn render_openmetrics(o: &ServeOutcome) -> String {
    let registry = MetricsRegistry::new();
    o.snapshot.export(&registry, "serve.");
    registry.set_counter("serve.dispatched", o.dispatched);
    registry.set_counter("serve.jobs_completed", o.jobs_completed);
    registry.set_counter("serve.crc_pass", o.crc_pass);
    registry.set_counter("serve.episodes", o.episodes);
    registry.set_counter("serve.ticks_run", o.ticks_run);
    registry.set_counter(
        "serve.slo_violating_windows",
        o.windows.iter().filter(|w| !w.verdict.ok()).count() as u64,
    );
    registry.set_gauge(
        "serve.calm_windows_healthy",
        if o.calm_windows_healthy() { 1.0 } else { 0.0 },
    );
    let mut om = OpenMetrics::new();
    om.registry(&registry);
    om.render()
}

/// The escalation pressure observed for one tick: the raw queue fill,
/// boosted to at least the reject watermark only once the consecutive
/// deadline-miss streak *exceeds* `stuck_after` (a full escalation's
/// worth of ticks). The boundary is deliberate: a streak that reaches
/// exactly `stuck_after` and then sees a fresh pop (resetting the
/// streak one tick before the guard) never engages the boost — the
/// guard is a safety net for a service stuck on a stale backlog, not a
/// hair trigger on transient miss runs.
fn tick_pressure(fill: f64, miss_streak: u64, stuck_after: u64, reject_fill: f64) -> f64 {
    if miss_streak > stuck_after {
        fill.max(reject_fill)
    } else {
        fill
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_streak_guard_boundary_is_strictly_greater() {
        let reject = 0.70;
        let stuck_after = 6;
        // Below the fill watermarks throughout: only the streak decides.
        let fill = 0.2;
        // Exactly at the guard threshold: no boost yet.
        assert_eq!(tick_pressure(fill, stuck_after, stuck_after, reject), fill);
        // One past it: boosted to the reject watermark.
        assert_eq!(
            tick_pressure(fill, stuck_after + 1, stuck_after, reject),
            reject
        );
        // A deeper actual fill is never reduced by the boost.
        assert_eq!(
            tick_pressure(0.9, stuck_after + 1, stuck_after, reject),
            0.9
        );
    }

    #[test]
    fn miss_streak_reset_one_tick_before_guard_never_boosts() {
        // The serve loop resets the streak on any fresh (in-deadline)
        // pop. A workload that misses `stuck_after` deadlines in a row
        // and then recovers — resetting one tick before the guard —
        // must never see boosted pressure, no matter how many times the
        // pattern repeats.
        let reject = 0.70;
        let stuck_after = 4;
        let fill = 0.3;
        let mut miss_streak = 0u64;
        for tick in 0..100u64 {
            // Miss for `stuck_after` ticks, then one fresh pop.
            if tick % (stuck_after + 1) == stuck_after {
                miss_streak = 0;
            } else {
                miss_streak += 1;
            }
            assert_eq!(
                tick_pressure(fill, miss_streak, stuck_after, reject),
                fill,
                "tick {tick} (streak {miss_streak}) must not engage the guard"
            );
        }
        // Remove the reset: the same pattern crosses the guard exactly
        // one tick after the streak passes stuck_after.
        miss_streak = 0;
        let mut first_boost = None;
        for tick in 0..100u64 {
            miss_streak += 1;
            if tick_pressure(fill, miss_streak, stuck_after, reject) > fill {
                first_boost = Some(tick);
                break;
            }
        }
        assert_eq!(first_boost, Some(stuck_after));
    }

    #[test]
    fn traffic_models_are_deterministic_and_shaped() {
        for model in [
            TrafficModel::FullBuffer,
            TrafficModel::BurstyIot,
            TrafficModel::Voip,
        ] {
            for tick in 0..64 {
                assert_eq!(
                    model.arrivals(9, tick),
                    model.arrivals(9, tick),
                    "{model:?} tick {tick} not reproducible"
                );
            }
        }
        // Full buffer never goes silent.
        assert!((0..64).all(|t| !TrafficModel::FullBuffer.arrivals(1, t).is_empty()));
        // VoIP has a real duty cycle.
        let voip_on = (0..80)
            .filter(|&t| !TrafficModel::Voip.arrivals(1, t).is_empty())
            .count();
        assert_eq!(voip_on, 40);
        // Bursty IoT actually bursts.
        let burst_tick_arrivals = TrafficModel::BurstyIot.arrivals(1, 17);
        assert!(burst_tick_arrivals.len() > 1);
    }

    #[test]
    fn params_parse_overrides_and_rejects_garbage() {
        let p = ServeParams::parse(
            "# comment\n\
             traffic = voip\n\
             rate_milli=2000\n\
             burst=8\n\
             reject_fill=0.5\n\
             shed_fill=0.6\n\
             degrade_fill=0.7\n\
             max_miss_rate=0.02\n",
        )
        .expect("valid config");
        assert_eq!(p.traffic, TrafficModel::Voip);
        assert_eq!(p.rate_milli, 2000);
        assert_eq!(p.burst, 8);
        assert_eq!(p.ladder.reject_fill(), 0.5);
        assert_eq!(p.spec.max_miss_rate, 0.02);

        assert!(ServeParams::parse("nonsense").is_err());
        assert!(ServeParams::parse("bogus_key=1").is_err());
        assert!(ServeParams::parse("reject_fill=0.9\nshed_fill=0.5").is_err());
        assert!(ServeParams::parse("traffic=warp-drive").is_err());
    }

    #[test]
    fn watchdog_verdict_waits_restarts_then_aborts() {
        let t = Duration::from_secs(1);
        // Progress happened: wait, regardless of elapsed time.
        assert_eq!(watchdog_verdict(t, t, 3, 4, 0, 3), WatchdogVerdict::Wait);
        // No progress but within the stall budget: wait.
        assert_eq!(
            watchdog_verdict(Duration::from_millis(10), t, 3, 3, 0, 3),
            WatchdogVerdict::Wait
        );
        // Stalled with restart budget: restart.
        assert_eq!(watchdog_verdict(t, t, 3, 3, 0, 3), WatchdogVerdict::Restart);
        assert_eq!(watchdog_verdict(t, t, 3, 3, 2, 3), WatchdogVerdict::Restart);
        // Budget exhausted: abort.
        assert_eq!(watchdog_verdict(t, t, 3, 3, 3, 3), WatchdogVerdict::Abort);
    }

    #[test]
    fn serve_control_drain_and_reload_round_trip() {
        let c = ServeControl::new();
        assert!(!c.drain_requested());
        c.request_drain();
        assert!(c.drain_requested());
        assert!(c.take_reload().is_none());
        c.request_reload(ServeParams::default());
        assert!(c.take_reload().is_some());
        assert!(c.take_reload().is_none(), "reload is consumed once");
    }

    #[test]
    fn quiet_voip_campaign_drains_clean_and_healthy() {
        let mut cfg = ServeConfig::new(60, 5);
        cfg.workers = 2;
        cfg.window = 20;
        cfg.params.traffic = TrafficModel::Voip;
        let outcome = run_serve(&cfg, &ServeControl::new()).expect("serve");
        assert_eq!(outcome.drain_reason, DrainReason::CampaignComplete);
        assert!(outcome.snapshot.balanced(), "every arrival accounted for");
        assert!(outcome.calm_windows_healthy());
        assert!(outcome.verified && outcome.verify_error.is_none());
        // 60 ticks of the 40-tick duty cycle: talk spurts cover ticks
        // 0–19 and 40–59, one subframe per active tick.
        assert_eq!(outcome.snapshot.admitted, 40);
        assert_eq!(
            outcome.snapshot.completed_subframes + outcome.snapshot.drain_shed_subframes,
            outcome.snapshot.admitted
        );
        assert!(outcome.json.starts_with("{\"schema\":\"lte-sim-serve-v1\""));
        assert!(outcome.openmetrics.contains("serve_crc_pass"));
    }
}

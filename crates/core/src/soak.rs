//! The `soak` command: continuous telemetry over a long governed run.
//!
//! A soak drives the evaluation ramp through the stepping DES session
//! for N subframes and folds everything observable into rolling windows
//! of W subframes:
//!
//! * **Latency** — every completed job's dispatch-to-completion latency
//!   (simulated cycles) lands in a zero-alloc HDR histogram; each window
//!   snapshot carries p50/p99/p999.
//! * **EBLER** — every dispatched user resolves to a real receiver
//!   decode (cached per distinct configuration, bit-exact and seeded),
//!   or to DTX when the overload policy sheds it; the accumulated
//!   surface mirrors the R&S `FetchStruct` shape (ack/nack/dtx %, BLER,
//!   per-stream throughput).
//! * **SLO** — each window is judged against an [`SloSpec`]
//!   (deadline-miss rate, shed rate, optional p99 budget) with SRE-style
//!   burn rates; any violating window makes the run exit nonzero.
//! * **Power** — the calibrated power model converts the run's occupancy
//!   buckets into per-window energy, energy-per-subframe and governor
//!   target-vs-achieved cores.
//!
//! Everything in `SOAK.json`, the rolling `SOAK.jsonl` stream and the
//! OpenMetrics export derives from the seeded simulation and bit-exact
//! receiver decodes — two identical soaks serialize byte-identical
//! artefacts at any host worker count. Wall-clock host telemetry
//! (per-stage decode histograms, pool steal/park/queue-depth
//! distributions) is collected by a separate bounded burst on the real
//! pool and written to its own host-metrics file, excluded from the
//! determinism contract.

use std::collections::HashMap;

use lte_dsp::fft::FftPlanner;
use lte_dsp::Xoshiro256;
use lte_fault::{DeadlineBudget, FaultPlan, OverloadPolicy};
use lte_obs::{
    f64_json, EblerAccumulator, EblerSurface, Histogram, HistogramSnapshot, MetricsRegistry,
    OpenMetrics, SloSpec, SloTracker, WindowAggregate, WindowObservation, WindowVerdict,
};
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::{process_user_pooled, process_user_traced};
use lte_phy::trace::StageHists;
use lte_phy::tx::synthesize_user;
use lte_phy::StageTimer;
use lte_power::{NapPolicy, PowerWindows};
use lte_sched::sim::{SessionProgress, Simulator};
use lte_sched::{PoolError, PoolTelemetry, TaskPool};
use std::sync::Arc;

use crate::benchmark::kept_after_shed;
use crate::experiments::ExperimentContext;

/// EBLER streams: one per layer count, so the surface separates
/// single-layer from spatially-multiplexed users like the instrument's
/// per-stream rows.
pub const EBLER_STREAMS: usize = 4;

/// SNR of un-bursted receptions in the EBLER decode cache — the
/// benchmark's clean operating point, where every configuration the
/// ramp generates decodes (so nominal NACK is zero and the surface
/// cleanly separates channel faults, which need `--chaos`, from
/// overload, which records DTX).
const NOMINAL_SNR_DB: f64 = 30.0;

/// Deep-fade SNR of bursted receptions; single-shot passthrough decodes
/// fail here, so chaos soaks measure a real nonzero BLER.
const BURST_SNR_DB: f32 = -12.0;

/// Decode repetitions per user in the host-metrics burst.
const HOST_BURST_REPS: usize = 32;

/// Everything the soak needs to know up front.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Subframes to drive through the DES session.
    pub subframes: usize,
    /// Window length in subframes.
    pub window: usize,
    /// Parameter-model / fault-plan seed.
    pub seed: u64,
    /// Nap policy governing the simulated machine.
    pub policy: NapPolicy,
    /// Overload policy behind the per-subframe deadline budget.
    pub overload: OverloadPolicy,
    /// Inject the seeded fault plan (noise bursts, dead core, panics).
    pub chaos: bool,
    /// Host workers for the wall-clock telemetry burst (0 = skip).
    pub host_workers: usize,
    /// The budgets each window is judged against.
    pub spec: SloSpec,
}

impl SoakConfig {
    /// A soak over `subframes` subframes in windows of `window`.
    pub fn new(subframes: usize, window: usize, seed: u64) -> Self {
        Self {
            subframes,
            window: window.max(1),
            seed,
            // NONAP default: the ungoverned receiver meets its deadline
            // at every load the ramp offers headroom for, so a healthy
            // soak is actually healthy. Governed policies overlap
            // subframes by design and shed under the overload policy —
            // select them explicitly to soak that regime.
            policy: NapPolicy::NoNap,
            overload: OverloadPolicy::ShedUsers,
            chaos: false,
            host_workers: 0,
            spec: SloSpec::default_budgets(),
        }
    }
}

/// One closed telemetry window.
#[derive(Clone, Debug)]
pub struct SoakWindow {
    /// Window ordinal (0-based).
    pub index: usize,
    /// Subframes dispatched in this window.
    pub subframes: u64,
    /// Completion-latency distribution (simulated cycles).
    pub latency: HistogramSnapshot,
    /// Subframes past the deadline budget.
    pub deadline_misses: u64,
    /// User jobs shed or dropped.
    pub shed_jobs: u64,
    /// Subframes discarded whole.
    pub dropped_subframes: u64,
    /// Subframes demapped at reduced fidelity.
    pub degraded_subframes: u64,
    /// The window's EBLER surface.
    pub ebler: EblerSurface,
    /// The SLO evaluation of this window.
    pub verdict: WindowVerdict,
}

impl SoakWindow {
    /// One deterministic JSON line for the rolling snapshot stream.
    pub fn to_json(&self, clock_hz: f64) -> String {
        let to_ms = |cycles: u64| f64_json(cycles as f64 / clock_hz * 1e3);
        format!(
            "{{\"window\":{},\"subframes\":{},\"jobs\":{},\
             \"p50_cycles\":{},\"p99_cycles\":{},\"p999_cycles\":{},\
             \"p50_ms\":{},\"p99_ms\":{},\"p999_ms\":{},\
             \"deadline_misses\":{},\"shed_jobs\":{},\
             \"dropped_subframes\":{},\"degraded_subframes\":{},\
             \"slo\":{},\"ebler\":{}}}",
            self.index,
            self.subframes,
            self.latency.count,
            self.latency.quantile(0.50),
            self.latency.quantile(0.99),
            self.latency.quantile(0.999),
            to_ms(self.latency.quantile(0.50)),
            to_ms(self.latency.quantile(0.99)),
            to_ms(self.latency.quantile(0.999)),
            self.deadline_misses,
            self.shed_jobs,
            self.dropped_subframes,
            self.degraded_subframes,
            self.verdict.to_json(),
            self.ebler.to_json(),
        )
    }
}

/// The final soak report (`SOAK.json`).
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// The configuration the soak ran under.
    pub config: SoakConfig,
    /// Simulated clock, Hz (for cycle → ms conversion).
    pub clock_hz: f64,
    /// Every closed window, oldest first.
    pub windows: Vec<SoakWindow>,
    /// Per-window power/governor aggregates, aligned with `windows`.
    pub power: Vec<lte_power::PowerWindowSnapshot>,
    /// Whole-run completion-latency distribution.
    pub latency: HistogramSnapshot,
    /// Whole-run EBLER surface.
    pub ebler: EblerSurface,
    /// Windows that broke at least one objective.
    pub violating_windows: u64,
    /// Total objective violations across all windows.
    pub violations: u64,
    /// Whole-run energy, joules.
    pub energy_joules: f64,
    /// Whole-run mean power, watts.
    pub mean_power_watts: f64,
}

impl SoakReport {
    /// `true` when no window broke an objective.
    pub fn healthy(&self) -> bool {
        self.violating_windows == 0
    }

    /// Renders the full deterministic report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"lte-sim-soak-v1\",\n");
        out.push_str(&format!(
            "  \"subframes\": {},\n  \"window\": {},\n  \"seed\": {},\n",
            self.config.subframes, self.config.window, self.config.seed
        ));
        out.push_str(&format!(
            "  \"policy\": \"{}\",\n  \"overload\": \"{}\",\n  \"chaos\": {},\n",
            self.config.policy,
            self.config.overload.name(),
            self.config.chaos
        ));
        out.push_str(&format!("  \"clock_hz\": {},\n", f64_json(self.clock_hz)));
        out.push_str("  \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                w.to_json(self.clock_hz),
                if i + 1 < self.windows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"power\": [\n");
        for (i, p) in self.power.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                p.to_json(),
                if i + 1 < self.power.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"latency\": {},\n", self.latency.to_json()));
        out.push_str(&format!("  \"ebler\": {},\n", self.ebler.to_json()));
        out.push_str(&format!(
            "  \"slo\": {{\"windows\": {}, \"violating_windows\": {}, \
             \"violations\": {}, \"healthy\": {}}},\n",
            self.windows.len(),
            self.violating_windows,
            self.violations,
            self.healthy()
        ));
        out.push_str(&format!(
            "  \"energy_joules\": {},\n  \"mean_power_watts\": {}\n}}\n",
            f64_json(self.energy_joules),
            f64_json(self.mean_power_watts)
        ));
        out
    }

    /// The deterministic OpenMetrics exposition of the whole run.
    pub fn to_openmetrics(&self) -> String {
        let registry = MetricsRegistry::new();
        registry.set_counter("soak.subframes", self.config.subframes as u64);
        registry.set_counter("soak.jobs", self.latency.count);
        let (mut misses, mut shed, mut dropped, mut degraded) = (0u64, 0u64, 0u64, 0u64);
        for w in &self.windows {
            misses += w.deadline_misses;
            shed += w.shed_jobs;
            dropped += w.dropped_subframes;
            degraded += w.degraded_subframes;
        }
        registry.set_counter("soak.deadline_misses", misses);
        registry.set_counter("soak.shed_jobs", shed);
        registry.set_counter("soak.dropped_subframes", dropped);
        registry.set_counter("soak.degraded_subframes", degraded);
        registry.set_counter("soak.slo.violating_windows", self.violating_windows);
        registry.set_gauge("soak.energy_joules", self.energy_joules);
        registry.set_gauge("soak.mean_power_watts", self.mean_power_watts);
        if let Some(last) = self.power.last() {
            registry.set_gauge("soak.energy_per_subframe_mj", last.energy_per_subframe_mj);
        }
        let mut om = OpenMetrics::new();
        om.registry(&registry);
        om.summary(
            "soak.latency.cycles",
            "job completion latency in simulated cycles",
            &self.latency,
        );
        om.ebler("soak.ebler", &self.ebler);
        om.render()
    }
}

/// Everything `lte-sim soak` writes.
pub struct SoakArtifacts {
    /// The final report.
    pub report: SoakReport,
    /// The rolling per-window snapshot stream (JSON lines).
    pub jsonl: String,
    /// The OpenMetrics exposition.
    pub openmetrics: String,
    /// Wall-clock host telemetry (stage + pool histograms), when the
    /// host burst ran. NOT part of the determinism contract.
    pub host_json: Option<String>,
}

/// Outcome of one cached receiver decode.
#[derive(Clone, Copy)]
struct DecodeOutcome {
    crc_ok: bool,
    payload_bits: u64,
}

/// Decodes each distinct (user configuration, bursted) pair exactly once
/// through the real receiver and replays the bit-exact outcome for every
/// later occurrence — the measurement stays PHY-true without paying a
/// full decode per subframe.
struct DecodeCache {
    cell: CellConfig,
    planner: FftPlanner,
    seed: u64,
    outcomes: HashMap<(usize, usize, usize, bool), DecodeOutcome>,
}

impl DecodeCache {
    fn new(n_rx: usize, seed: u64) -> Self {
        Self {
            cell: CellConfig::with_antennas(n_rx),
            planner: FftPlanner::new(),
            seed,
            outcomes: HashMap::new(),
        }
    }

    fn outcome(&mut self, user: &UserConfig, bursted: bool) -> DecodeOutcome {
        let key = (
            user.prbs,
            user.layers,
            user.modulation.bits_per_symbol(),
            bursted,
        );
        if let Some(&cached) = self.outcomes.get(&key) {
            return cached;
        }
        let snr = if bursted {
            f64::from(BURST_SNR_DB)
        } else {
            NOMINAL_SNR_DB
        };
        // The synthesis seed depends only on the cache key, never on
        // visit order, so the cached outcome is reproducible.
        let mut rng = Xoshiro256::seed_from_u64(
            self.seed
                ^ (key.0 as u64) << 32
                ^ (key.1 as u64) << 16
                ^ (key.2 as u64) << 8
                ^ u64::from(bursted),
        );
        let input = synthesize_user(&self.cell, user, snr, &mut rng);
        let result = process_user_pooled(&self.cell, &input, TurboMode::Passthrough, &self.planner);
        let outcome = DecodeOutcome {
            crc_ok: result.crc_ok,
            payload_bits: result.payload.len() as u64,
        };
        self.outcomes.insert(key, outcome);
        outcome
    }
}

/// Feeds one dispatched subframe's users into the EBLER accumulators:
/// `shed` of them (cheapest-first, the shed policy's order) as DTX,
/// the rest as their cached receiver decode.
fn record_subframe_ebler(
    sf: &SubframeConfig,
    shed: u64,
    plan: Option<&FaultPlan>,
    sf_idx: usize,
    cache: &mut DecodeCache,
    sinks: [&EblerAccumulator; 2],
) {
    let kept = kept_after_shed(&sf.users, Some(shed as usize));
    for (user_idx, user) in sf.users.iter().enumerate() {
        let stream = (user.layers - 1).min(EBLER_STREAMS - 1);
        if !kept.contains(&user_idx) {
            for sink in sinks {
                sink.record_dtx(stream);
            }
            continue;
        }
        let bursted = plan.is_some_and(|p| p.noise_burst(sf_idx, user_idx));
        let outcome = cache.outcome(user, bursted);
        for sink in sinks {
            sink.record_decode(stream, outcome.crc_ok, outcome.payload_bits);
        }
    }
}

/// Callback invoked as each window closes, with the window and the JSON
/// line just appended to the snapshot stream (see [`run_soak`]).
pub type WindowSink<'a> = &'a mut dyn FnMut(&SoakWindow, &str);

/// Runs the soak.
///
/// # Errors
///
/// Returns the pool-spawn error message when the host-metrics burst
/// cannot start its worker pool.
pub fn run_soak(
    cfg: &SoakConfig,
    on_window: Option<WindowSink<'_>>,
) -> Result<SoakArtifacts, String> {
    run_soak_with_stop(cfg, on_window, &|| false)
}

/// [`run_soak`] with an early-stop hook, polled at every subframe
/// boundary. When `stop` returns `true` the soak stops dispatching,
/// closes the final (partial) window over what ran, and returns
/// complete artifacts for the truncated run — the CLI wires a latched
/// SIGINT/SIGTERM into this so an interrupted soak still flushes.
///
/// # Errors
///
/// Same as [`run_soak`].
pub fn run_soak_with_stop(
    cfg: &SoakConfig,
    mut on_window: Option<WindowSink<'_>>,
    stop: &dyn Fn() -> bool,
) -> Result<SoakArtifacts, String> {
    let ctx = ExperimentContext {
        seed: cfg.seed,
        n_subframes: cfg.subframes,
        // Coarse calibration: the soak needs Eq. 5 targets, not Fig. 11
        // fidelity.
        cal_subframes: 16,
        cal_prb_step: 50,
        ..ExperimentContext::paper()
    };
    let subframes = ctx.subframes();
    let sim_cfg = ctx.sim_config(cfg.policy);
    let targets = if cfg.policy.proactive() {
        let (_curves, estimator) = ctx.run_calibration();
        ctx.estimated_targets(&estimator, &subframes)
    } else {
        vec![sim_cfg.n_workers; subframes.len()]
    };
    let loads = ctx.loads(&subframes, &targets);
    let plan = cfg.chaos.then(|| FaultPlan {
        burst_snr_db: BURST_SNR_DB,
        ..FaultPlan::smoke(cfg.seed)
    });

    // Paper-shaped deadline: a subframe may stay in flight for ~3
    // dispatch periods (the receiver legitimately works on 2-3
    // subframes concurrently), so only completions beyond that count
    // as deadline misses.
    let mut sim = Simulator::new(sim_cfg).with_degradation(DeadlineBudget {
        budget: 3 * sim_cfg.dispatch_period,
        policy: cfg.overload,
    });
    if let Some(p) = &plan {
        sim = sim.with_chaos(p.clone());
    }
    let mut session = sim.session(&loads);

    let mut cache = DecodeCache::new(ctx.n_rx, cfg.seed);
    let latency_live = Histogram::new();
    let ebler_live = EblerAccumulator::new(EBLER_STREAMS);
    let ebler_total = EblerAccumulator::new(EBLER_STREAMS);
    let mut tracker = SloTracker::new(cfg.spec);
    let mut windows: Vec<SoakWindow> = Vec::new();
    let mut jsonl = String::new();
    let mut consumed = 0usize;
    // Progress at the previous boundary (per-subframe shed attribution)
    // and at the previous window close (per-window deltas).
    let mut at_boundary = SessionProgress::default();
    let mut at_window = SessionProgress::default();
    let mut window_start = 0usize;
    let mut dispatched = 0usize;

    let mut close_window = |dispatched: usize,
                            window_start: &mut usize,
                            progress: SessionProgress,
                            at_window: &mut SessionProgress,
                            tail: &[u64],
                            consumed: &mut usize,
                            windows: &mut Vec<SoakWindow>,
                            jsonl: &mut String,
                            on_window: &mut Option<WindowSink<'_>>| {
        for &cycles in &tail[*consumed..] {
            latency_live.record(cycles);
        }
        *consumed = tail.len();
        let latency = latency_live.snapshot_and_reset();
        let ebler = ebler_live.snapshot_and_reset();
        let n_subframes = (dispatched - *window_start) as u64;
        *window_start = dispatched;
        let misses = progress.overruns - at_window.overruns;
        let shed = progress.shed_jobs - at_window.shed_jobs;
        let dropped = progress.dropped_subframes - at_window.dropped_subframes;
        let degraded = progress.degraded_subframes - at_window.degraded_subframes;
        *at_window = progress;
        let verdict = tracker.observe(&WindowObservation {
            subframes: n_subframes,
            deadline_misses: misses,
            jobs: latency.count + shed,
            shed_jobs: shed,
            p99_latency: latency.quantile(0.99),
        });
        let window = SoakWindow {
            index: windows.len(),
            subframes: n_subframes,
            latency,
            deadline_misses: misses,
            shed_jobs: shed,
            dropped_subframes: dropped,
            degraded_subframes: degraded,
            ebler,
            verdict,
        };
        let line = window.to_json(sim_cfg.clock_hz);
        jsonl.push_str(&line);
        jsonl.push('\n');
        if let Some(cb) = on_window.as_deref_mut() {
            cb(&window, &line);
        }
        windows.push(window);
    };

    // `Some(n)` once `stop` fires: only the first `n` subframes count.
    let mut truncated_at: Option<usize> = None;
    while let Some(boundary) = session.advance() {
        if stop() {
            // The final-dispatch accounting below closes the partial
            // window over everything dispatched so far; `finish` still
            // drains the remaining DES events, so cap the power
            // accounting at the truncation point.
            truncated_at = Some(dispatched);
            break;
        }
        // The advance that returned this boundary executed the previous
        // subframe's dispatch; its shed decisions are now visible.
        if boundary.subframe > 0 {
            let progress = session.progress();
            let shed = progress.shed_jobs - at_boundary.shed_jobs;
            at_boundary = progress;
            record_subframe_ebler(
                &subframes[boundary.subframe - 1],
                shed,
                plan.as_ref(),
                boundary.subframe - 1,
                &mut cache,
                [&ebler_live, &ebler_total],
            );
            if boundary.subframe % cfg.window == 0 {
                close_window(
                    dispatched,
                    &mut window_start,
                    progress,
                    &mut at_window,
                    session.job_latencies(),
                    &mut consumed,
                    &mut windows,
                    &mut jsonl,
                    &mut on_window,
                );
            }
        }
        dispatched = boundary.subframe + 1;
        for &cycles in &session.job_latencies()[consumed..] {
            latency_live.record(cycles);
        }
        consumed = session.job_latencies().len();
    }
    // The draining advance executed the final dispatch; account it and
    // close the last (possibly partial) window over the full drain.
    if dispatched > 0 {
        let progress = session.progress();
        let shed = progress.shed_jobs - at_boundary.shed_jobs;
        record_subframe_ebler(
            &subframes[dispatched - 1],
            shed,
            plan.as_ref(),
            dispatched - 1,
            &mut cache,
            [&ebler_live, &ebler_total],
        );
        close_window(
            dispatched,
            &mut window_start,
            progress,
            &mut at_window,
            session.job_latencies(),
            &mut consumed,
            &mut windows,
            &mut jsonl,
            &mut on_window,
        );
    }
    let report = session.finish();

    // Power windows from the final occupancy buckets: one bucket per
    // dispatch period, so bucket i is subframe i's power draw.
    let watts = ctx.power.power_trace(&report.buckets, &sim_cfg);
    let dt = sim_cfg.dispatch_seconds();
    let mut power = PowerWindows::new(cfg.window as u64);
    let n = truncated_at.unwrap_or(cfg.subframes).min(watts.len());
    for i in 0..n {
        let achieved = report.buckets[i].busy_cycles as f64 / sim_cfg.dispatch_period as f64;
        power.record_subframe(watts[i], dt, targets[i] as f64, achieved);
    }
    power.flush();
    let energy_joules: f64 = watts.iter().take(n).map(|w| w * dt).sum();
    let mean_power_watts = if n > 0 {
        energy_joules / (n as f64 * dt)
    } else {
        0.0
    };

    let mut latency_all = HistogramSnapshot::empty();
    for w in &windows {
        latency_all.merge(&w.latency);
    }
    let soak = SoakReport {
        config: *cfg,
        clock_hz: sim_cfg.clock_hz,
        windows,
        power: power.snapshots().to_vec(),
        latency: latency_all,
        ebler: ebler_total.snapshot(),
        violating_windows: tracker.violating_windows(),
        violations: tracker.violations().len() as u64,
        energy_joules,
        mean_power_watts,
    };
    let openmetrics = soak.to_openmetrics();
    let host_json = if cfg.host_workers > 0 {
        Some(host_metrics_burst(cfg.host_workers).map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok(SoakArtifacts {
        jsonl,
        openmetrics,
        host_json,
        report: soak,
    })
}

/// A bounded wall-clock burst on the real pool: decodes the steady-state
/// users repeatedly with per-stage timing into [`StageHists`] and the
/// pool's steal/park/queue-depth telemetry attached, then serializes
/// both. Host-time measurements live here and only here — they never
/// touch the deterministic soak artefacts.
fn host_metrics_burst(workers: usize) -> Result<String, PoolError> {
    let pool = TaskPool::new(workers)?;
    let telemetry = Arc::new(PoolTelemetry::new());
    pool.attach_telemetry(Arc::clone(&telemetry));
    let hists = Arc::new(StageHists::new());
    let cell = CellConfig::default();
    let planner = Arc::new(FftPlanner::new());
    let inputs: Vec<Arc<lte_phy::grid::UserInput>> = crate::perf::steady_state_subframe()
        .users
        .iter()
        .map(|u| {
            let mut rng = Xoshiro256::seed_from_u64(u.prbs as u64);
            Arc::new(synthesize_user(&cell, u, NOMINAL_SNR_DB, &mut rng))
        })
        .collect();
    for _ in 0..HOST_BURST_REPS {
        for input in &inputs {
            let hists = Arc::clone(&hists);
            let planner = Arc::clone(&planner);
            let input = Arc::clone(input);
            pool.submit_job(move |_| {
                let timer = StageTimer::histograms_only(&hists);
                let result =
                    process_user_traced(&cell, &input, TurboMode::Passthrough, &planner, &timer);
                std::hint::black_box(&result);
            });
        }
    }
    pool.wait_all();

    let mut out = String::from("{\"stages\":{");
    let stages = hists.snapshot_nonempty();
    for (i, (stage, snap)) in stages.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\":{}{}",
            stage.name(),
            snap.to_json(),
            if i + 1 < stages.len() { "," } else { "" }
        ));
    }
    out.push_str("},\"pool\":{");
    out.push_str(&format!(
        "\"steal_batch_tasks\":{},\"park_nanos\":{},\"queue_depth\":{}",
        telemetry.steal_batch_tasks.snapshot().to_json(),
        telemetry.park_nanos.snapshot().to_json(),
        telemetry.queue_depth.snapshot().to_json(),
    ));
    out.push_str("}}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(subframes: usize, window: usize) -> SoakConfig {
        SoakConfig::new(subframes, window, 2012)
    }

    #[test]
    fn soak_windows_cover_every_subframe_and_job() {
        let art = run_soak(&tiny(300, 100), None).expect("soak runs");
        let r = &art.report;
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows.iter().map(|w| w.subframes).sum::<u64>(), 300);
        // Every dispatched (non-shed) job's latency was recorded.
        let shed: u64 = r.windows.iter().map(|w| w.shed_jobs).sum();
        assert_eq!(r.latency.count + shed, r.ebler.total.measured());
        assert!(r.latency.count > 0);
        assert!(r.energy_joules > 0.0);
        assert_eq!(r.power.len(), 3);
        assert!(art.openmetrics.ends_with("# EOF\n"));
    }

    #[test]
    fn partial_final_window_is_flushed() {
        let art = run_soak(&tiny(250, 100), None).expect("soak runs");
        let r = &art.report;
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[2].subframes, 50);
        assert_eq!(r.power.len(), 3);
        assert_eq!(r.power[2].subframes, 50);
    }

    #[test]
    fn healthy_low_load_prefix_passes_slo() {
        // The opening stretch of the ramp is light: no misses, no sheds.
        let art = run_soak(&tiny(200, 100), None).expect("soak runs");
        assert!(art.report.healthy(), "low load must not violate");
        assert_eq!(art.report.ebler.total.dtx, 0);
        assert!((art.report.ebler.total.bler_pct).abs() < f64::EPSILON);
    }

    #[test]
    fn chaos_soak_measures_nonzero_bler() {
        let cfg = SoakConfig {
            chaos: true,
            ..tiny(300, 100)
        };
        let art = run_soak(&cfg, None).expect("soak runs");
        assert!(
            art.report.ebler.total.nack > 0,
            "seeded bursts must fail CRC"
        );
        assert!(art.report.ebler.total.bler_pct > 0.0);
    }

    #[test]
    fn soak_is_byte_deterministic() {
        let cfg = SoakConfig {
            chaos: true,
            ..tiny(220, 64)
        };
        let a = run_soak(&cfg, None).expect("soak runs");
        let b = run_soak(&cfg, None).expect("soak runs");
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.jsonl, b.jsonl);
        assert_eq!(a.openmetrics, b.openmetrics);
    }

    #[test]
    fn host_burst_is_separate_and_optional() {
        let cfg = SoakConfig {
            host_workers: 2,
            ..tiny(60, 30)
        };
        let art = run_soak(&cfg, None).expect("soak runs");
        let host = art.host_json.expect("burst ran");
        assert!(host.contains("\"stages\""));
        assert!(host.contains("\"queue_depth\""));
        // The deterministic artefacts never reference host time.
        assert!(!art.report.to_json().contains("stages"));
    }
}

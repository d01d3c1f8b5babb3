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
//!   or to DTX when overload sheds it; the accumulated
//!   surface mirrors the R&S `FetchStruct` shape (ack/nack/dtx %, BLER,
//!   per-stream throughput).
//! * **SLO** — each window is judged against [`SloSpec::default_budgets`]
//!   (deadline-miss rate, shed rate, optional p99 budget) with SRE-style
//!   burn rates; any violating window makes the run exit nonzero.
//! * **Power** — the calibrated power model converts the run's occupancy
//!   buckets into per-window energy, energy-per-subframe and governor
//!   target-vs-achieved cores.
//!
//! Everything in `SOAK.json`, the rolling `SOAK.jsonl` stream and the
//! OpenMetrics export derives from the seeded simulation and bit-exact
//! receiver decodes — two identical soaks serialize byte-identical
//! artefacts. A soak reads no wall clock and starts no worker pool:
//! host time is measured on the real receiver workloads (`lte_bench`,
//! `lte-sim trace --metrics`), not here.

use std::collections::HashMap;

use lte_dsp::fft::FftPlanner;
use lte_dsp::Xoshiro256;
use lte_fault::FaultPlan;
use lte_obs::{
    f64_json, EblerAccumulator, EblerSurface, Histogram, HistogramSnapshot, MetricsRegistry,
    OpenMetrics, SloSpec, SloWindows, WindowVerdict,
};
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::process_user_pooled;
use lte_phy::tx::synthesize_user;
use lte_power::{NapPolicy, PowerWindowSnapshot};
use lte_sched::cycles::shed_order;
use lte_sched::sim::{SessionProgress, Simulator, SubframeLoad};

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

/// Everything the soak needs to know up front.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Subframes to drive through the DES session.
    pub subframes: usize,
    /// Window length in subframes; [`run_soak`] rejects 0.
    pub window: usize,
    /// Parameter-model / fault-plan seed.
    pub seed: u64,
    /// Nap policy governing the simulated machine.
    pub policy: NapPolicy,
    /// Inject the seeded fault plan (noise bursts, dead core, panics).
    pub chaos: bool,
}

impl SoakConfig {
    /// A soak over `subframes` subframes in windows of `window`.
    pub fn new(subframes: usize, window: usize, seed: u64) -> Self {
        Self {
            subframes,
            window,
            seed,
            // NONAP default: the ungoverned receiver meets its deadline
            // at every load the ramp offers headroom for, so a healthy
            // soak is actually healthy. Governed policies overlap
            // subframes by design and shed under overload —
            // select them explicitly to soak that regime.
            policy: NapPolicy::NoNap,
            chaos: false,
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
    /// User jobs shed.
    pub shed_jobs: u64,
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
    pub power: Vec<PowerWindowSnapshot>,
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

    /// Subframes the closed windows cover: the configured length, or
    /// fewer when the soak was stopped early.
    pub(crate) fn subframes(&self) -> u64 {
        self.windows.iter().map(|w| w.subframes).sum()
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
            "  \"policy\": \"{}\",\n  \"chaos\": {},\n",
            self.config.policy, self.config.chaos
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
        registry.set_counter("soak.subframes", self.subframes());
        registry.set_counter("soak.jobs", self.latency.count);
        let (mut misses, mut shed) = (0u64, 0u64);
        for w in &self.windows {
            misses += w.deadline_misses;
            shed += w.shed_jobs;
        }
        registry.set_counter("soak.deadline_misses", misses);
        registry.set_counter("soak.shed_jobs", shed);
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
/// the first `shed` of the DES's [`shed_order`] over `load` as DTX, the
/// rest as their cached receiver decode.
fn record_subframe_ebler(
    sf: &SubframeConfig,
    load: &SubframeLoad,
    shed: u64,
    plan: Option<&FaultPlan>,
    sf_idx: usize,
    cache: &mut DecodeCache,
    sinks: [&EblerAccumulator; 2],
) {
    let mut dtx = vec![false; sf.users.len()];
    for i in shed_order(&load.jobs).into_iter().take(shed as usize) {
        dtx[i] = true;
    }
    for (user_idx, user) in sf.users.iter().enumerate() {
        let stream = (user.layers - 1).min(EBLER_STREAMS - 1);
        if dtx[user_idx] {
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

/// Callback invoked as each window closes, with the window and its line
/// of the `SOAK.jsonl` stream (see [`run_soak`]).
pub type WindowSink<'a> = &'a mut dyn FnMut(&SoakWindow, &str);

/// Runs the soak, handing each window to `on_window` as it closes.
/// `stop` is polled at every subframe boundary: when it returns `true`
/// the soak stops dispatching, closes the final (partial) window over
/// what ran, and reports the truncated run — the CLI wires a latched
/// SIGINT/SIGTERM into it so an interrupted soak still flushes.
///
/// # Errors
///
/// Returns a message naming the field when `cfg.window` is 0.
pub fn run_soak(
    cfg: &SoakConfig,
    mut on_window: Option<WindowSink<'_>>,
    stop: &dyn Fn() -> bool,
) -> Result<SoakReport, String> {
    if cfg.window == 0 {
        return Err("SoakConfig::window must be at least 1 subframe".into());
    }
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
    let mut sim = Simulator::new(sim_cfg).with_deadline(3 * sim_cfg.dispatch_period);
    if let Some(p) = &plan {
        sim = sim.with_chaos(p.clone());
    }
    let mut session = sim.session(&loads);

    let mut cache = DecodeCache::new(ctx.n_rx, cfg.seed);
    let live = Histogram::new();
    let ebler_live = EblerAccumulator::new(EBLER_STREAMS);
    let ebler_total = EblerAccumulator::new(EBLER_STREAMS);
    let mut slo = SloWindows::new(SloSpec::default_budgets());
    let mut windows: Vec<SoakWindow> = Vec::new();
    // Job latencies already recorded, and the progress at the previous
    // accounted subframe.
    let mut consumed = 0usize;
    let mut at_boundary = SessionProgress::default();

    // Accounts subframe `sf`, whose dispatch the last advance executed:
    // the jobs completed since the last call, the subframe's misses and
    // shed users so far, and its users' decodes or DTX; then closes the
    // window when `close`.
    let mut account = |progress: SessionProgress, done: &[u64], sf: usize, close: bool| {
        for &cycles in &done[consumed..] {
            live.record(cycles);
        }
        let shed = progress.shed_jobs - at_boundary.shed_jobs;
        let open = &mut slo.open;
        open.subframes += 1;
        open.deadline_misses += progress.overruns - at_boundary.overruns;
        open.jobs += (done.len() - consumed) as u64 + shed;
        open.shed_jobs += shed;
        consumed = done.len();
        at_boundary = progress;
        record_subframe_ebler(
            &subframes[sf],
            &loads[sf],
            shed,
            plan.as_ref(),
            sf,
            &mut cache,
            [&ebler_live, &ebler_total],
        );
        if close {
            let (counts, latency, verdict) = slo.close(&live);
            let window = SoakWindow {
                index: windows.len(),
                subframes: counts.subframes,
                latency,
                deadline_misses: counts.deadline_misses,
                shed_jobs: counts.shed_jobs,
                ebler: ebler_live.snapshot_and_reset(),
                verdict,
            };
            if let Some(cb) = on_window.as_deref_mut() {
                cb(&window, &window.to_json(sim_cfg.clock_hz));
            }
            windows.push(window);
        }
    };

    let mut dispatched = 0usize;
    while let Some(boundary) = session.advance() {
        if stop() {
            break;
        }
        // The advance that returned this boundary executed the previous
        // subframe's dispatch; its shed decisions are now visible.
        if let Some(sf) = boundary.subframe.checked_sub(1) {
            let close = boundary.subframe % cfg.window == 0;
            account(session.progress(), session.job_latencies(), sf, close);
        }
        dispatched = boundary.subframe + 1;
    }
    // The draining advance executed the final dispatch; account it and
    // close the last (possibly partial) window over the full drain.
    if dispatched > 0 {
        account(
            session.progress(),
            session.job_latencies(),
            dispatched - 1,
            true,
        );
    }
    let report = session.finish();

    // Power windows from the final occupancy buckets: one bucket per
    // dispatch period, so bucket i is subframe i's power draw. `finish`
    // drains every DES event, so a stopped soak caps the series at the
    // subframes it dispatched.
    let watts = ctx.power.power_trace(&report.buckets, &sim_cfg);
    let dt = sim_cfg.dispatch_seconds();
    let n = dispatched.min(watts.len());
    let series: Vec<(f64, f64, f64)> = (0..n)
        .map(|i| {
            let achieved = report.buckets[i].busy_cycles as f64 / sim_cfg.dispatch_period as f64;
            (watts[i], targets[i] as f64, achieved)
        })
        .collect();
    let energy_joules: f64 = watts.iter().take(n).map(|w| w * dt).sum();
    let mean_power_watts = if n > 0 {
        energy_joules / (n as f64 * dt)
    } else {
        0.0
    };

    Ok(SoakReport {
        config: *cfg,
        clock_hz: sim_cfg.clock_hz,
        windows,
        power: series
            .chunks(cfg.window)
            .map(|w| PowerWindowSnapshot::fold(w, dt))
            .collect(),
        latency: slo.run_latency(&live),
        ebler: ebler_total.snapshot(),
        violating_windows: slo.tracker.violating_windows(),
        violations: slo.tracker.violations(),
        energy_joules,
        mean_power_watts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(subframes: usize, window: usize) -> SoakConfig {
        SoakConfig::new(subframes, window, 2012)
    }

    #[test]
    fn soak_windows_cover_every_subframe_and_job() {
        let r = run_soak(&tiny(300, 100), None, &|| false).expect("soak runs");
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows.iter().map(|w| w.subframes).sum::<u64>(), 300);
        // Every dispatched (non-shed) job's latency was recorded.
        let shed: u64 = r.windows.iter().map(|w| w.shed_jobs).sum();
        assert_eq!(r.latency.count + shed, r.ebler.total.measured());
        assert!(r.latency.count > 0);
        assert!(r.energy_joules > 0.0);
        assert_eq!(r.power.len(), 3);
        assert!(r.to_openmetrics().ends_with("# EOF\n"));
    }

    #[test]
    fn partial_final_window_is_flushed() {
        let r = run_soak(&tiny(250, 100), None, &|| false).expect("soak runs");
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[2].subframes, 50);
        assert_eq!(r.power.len(), 3);
        assert_eq!(r.power[2].subframes, 50);
    }

    #[test]
    fn healthy_low_load_prefix_passes_slo() {
        // The opening stretch of the ramp is light: no misses, no sheds.
        let r = run_soak(&tiny(200, 100), None, &|| false).expect("soak runs");
        assert!(r.healthy(), "low load must not violate");
        assert_eq!(r.ebler.total.dtx, 0);
        assert!((r.ebler.total.bler_pct).abs() < f64::EPSILON);
    }

    #[test]
    fn chaos_soak_measures_nonzero_bler() {
        let cfg = SoakConfig {
            chaos: true,
            ..tiny(300, 100)
        };
        let r = run_soak(&cfg, None, &|| false).expect("soak runs");
        assert!(r.ebler.total.nack > 0, "seeded bursts must fail CRC");
        assert!(r.ebler.total.bler_pct > 0.0);
    }

    #[test]
    fn soak_is_byte_deterministic() {
        let cfg = SoakConfig {
            chaos: true,
            ..tiny(220, 64)
        };
        let a = run_soak(&cfg, None, &|| false).expect("soak runs");
        let b = run_soak(&cfg, None, &|| false).expect("soak runs");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_openmetrics(), b.to_openmetrics());
    }

    #[test]
    fn dtx_lands_on_the_user_the_des_sheds() {
        // 6 PRB × 4 layers × 64-QAM costs more cycles than 8 PRB × 1
        // layer × QPSK: the DES sheds the wider, cheaper user, so its
        // stream (single-layer, stream 0) records the DTX.
        let ctx = ExperimentContext::paper();
        let sf = SubframeConfig::new(vec![
            UserConfig::new(6, 4, lte_dsp::Modulation::Qam64),
            UserConfig::new(8, 1, lte_dsp::Modulation::Qpsk),
        ]);
        let load = SubframeLoad {
            jobs: sf.users.iter().map(|u| ctx.job_for(u)).collect(),
            active_target: 1,
        };
        let mut cache = DecodeCache::new(ctx.n_rx, 7);
        let ebler = EblerAccumulator::new(EBLER_STREAMS);
        record_subframe_ebler(&sf, &load, 1, None, 0, &mut cache, [&ebler, &ebler]);
        let surface = ebler.snapshot();
        assert_eq!(surface.streams[0].dtx, 2, "both sinks record the shed user");
        assert_eq!(surface.streams[0].measured(), 2);
        assert_eq!(surface.streams[3].dtx, 0, "the 4-layer user is decoded");
        assert_eq!(surface.streams[3].measured(), 2);
    }

    #[test]
    fn zero_window_is_an_error_not_a_panic() {
        // The struct literal and the constructor reject it alike.
        for cfg in [
            SoakConfig {
                window: 0,
                ..tiny(10, 1)
            },
            tiny(10, 0),
        ] {
            let err = run_soak(&cfg, None, &|| false).expect_err("window 0 is rejected");
            assert!(err.contains("window"), "{err}");
        }
    }
}

//! The `trace` command: one fully observed NAP+IDLE run.
//!
//! Produces the two artefacts of the observability layer:
//!
//! * a Chrome/Perfetto trace-event file — one track per simulated core
//!   (busy/spin/barrier/nap states, coloured by state), dispatch and
//!   wake-pulse instants, per-subframe latency spans, the modelled
//!   power trace as counter tracks, and a wall-clock track of the real
//!   receiver's pipeline stages;
//! * a flat metrics JSON snapshot — Eq. 2 activity, the per-stage cycle
//!   breakdown (which sums exactly to the busy cycles behind that
//!   activity figure), per-core steal/task/wake counters, latency
//!   percentiles, power summary, and the real worker pool's per-worker
//!   counters.

use lte_dsp::fft::FftPlanner;
use lte_dsp::Xoshiro256;
use lte_obs::{MetricsRegistry, PerfettoExporter, RingRecorder};
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::process_user_traced;
use lte_phy::trace::StageTimer;
use lte_phy::tx::synthesize_user;
use lte_power::NapPolicy;
use lte_sched::sim::{SimReport, Simulator};

use crate::dispatch::Dispatcher;
use crate::experiments::ExperimentContext;

/// Cap on the traced run length: 500 subframes = 2.5 s of simulated
/// time. Beyond that the trace-event JSON outgrows what the Perfetto UI
/// loads comfortably, and a ring large enough to hold every event would
/// dominate the run's memory.
pub const TRACE_SUBFRAME_CAP: usize = 500;

/// Everything the `trace` command produces.
pub struct TraceArtifacts {
    /// Chrome/Perfetto trace-event JSON (`{"traceEvents": [...]}`).
    pub perfetto_json: String,
    /// Flat metrics snapshot (sorted-key JSON object).
    pub metrics_json: String,
    /// The instrumented run's report.
    pub report: SimReport,
    /// Subframes actually traced (`min(ctx.n_subframes, cap)`).
    pub subframes: usize,
    /// Events discarded because the ring filled (0 in normal runs).
    pub dropped_events: u64,
}

/// Runs the instrumented study: calibrate the estimator, trace a
/// NAP+IDLE run of the evaluation sequence, meter its power, sample the
/// real receiver, and export both artefacts.
pub fn run_trace(ctx: &ExperimentContext) -> TraceArtifacts {
    let (_curves, estimator) = ctx.run_calibration();
    let all = ctx.subframes();
    let n = all.len().min(TRACE_SUBFRAME_CAP);
    let subframes = &all[..n];
    let targets = ctx.estimated_targets(&estimator, subframes);

    let cfg = ctx.sim_config(NapPolicy::NapIdle);
    let capacity = (n * cfg.n_workers * 64).clamp(1024, 4_000_000);
    let recorder = RingRecorder::new(capacity);
    let report = Simulator::with_recorder(cfg, &recorder).run(&ctx.loads(subframes, &targets));

    // The modelled power trace becomes two recorded series: the raw
    // per-dispatch samples and the paper's 100 ms RMS metering.
    let power = ctx.power.power_trace(&report.buckets, &cfg);
    let rms = lte_power::meter::rms_windows_recorded(
        &recorder,
        "power.watts",
        "power.rms_watts",
        &power,
        ctx.rms_window,
    );

    // A real receiver sample: run one representative user through the
    // serial pipeline with every stage timed (wall-clock, pid 1 track).
    let cell = CellConfig::with_antennas(ctx.n_rx);
    let user = UserConfig::new(36, 2, lte_dsp::Modulation::Qam16);
    let mut rng = Xoshiro256::seed_from_u64(ctx.seed);
    let input = synthesize_user(&cell, &user, 30.0, &mut rng);
    let timer = StageTimer::new(&recorder);
    let phy = process_user_traced(
        &cell,
        &input,
        TurboMode::Passthrough,
        &FftPlanner::new(),
        &timer,
    );

    let metrics = MetricsRegistry::new();
    fill_sim_metrics(&metrics, ctx, &report, n);
    metrics.set_gauge("power.mean_watts", lte_power::PowerModel::mean(&power));
    metrics.set_counter("power.rms_windows", rms.len() as u64);
    metrics.set_counter("phy.sample.crc_ok", u64::from(phy.crc_ok));

    // The real work-stealing pool's counters: process the same sample
    // input as parallel task graphs (the paper's task decomposition)
    // so the per-worker counters carry genuine PHY work.
    let mut d =
        Dispatcher::new(4, TurboMode::Passthrough, &[]).expect("spawn the trace sample pool");
    let shared = std::sync::Arc::new(input);
    d.dispatch((0..8).map(|_| (&cell, &shared)), false);
    d.finish();
    d.pool().export_metrics(&metrics);

    let events = recorder.events();
    let dropped = recorder.total_recorded() - events.len() as u64;
    metrics.set_counter("trace.events", events.len() as u64);
    metrics.set_counter("trace.dropped_events", dropped);

    let perfetto_json = PerfettoExporter::new(cfg.clock_hz).export(&events, cfg.n_workers);
    TraceArtifacts {
        perfetto_json,
        metrics_json: metrics.to_json(),
        report,
        subframes: n,
        dropped_events: dropped,
    }
}

/// Writes the simulator side of the snapshot: Eq. 2 activity, the
/// per-stage cycle breakdown, per-core counters and latency percentiles.
pub fn fill_sim_metrics(
    metrics: &MetricsRegistry,
    ctx: &ExperimentContext,
    report: &SimReport,
    n_subframes: usize,
) {
    let cfg = ctx.sim_config(NapPolicy::NapIdle);
    let busy: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
    let capacity = cfg.n_workers as u64 * cfg.dispatch_period * report.buckets.len().max(1) as u64;
    metrics.set_counter("sim.subframes", n_subframes as u64);
    metrics.set_counter("sim.jobs_total", report.jobs_total as u64);
    metrics.set_counter("sim.busy_cycles", busy);
    metrics.set_counter("sim.capacity_cycles", capacity);
    metrics.set_gauge("sim.activity", report.mean_activity(&cfg));
    metrics.set_counter("sim.end_time_cycles", report.end_time);
    metrics.set_counter(
        "sim.max_concurrent_subframes",
        report.max_concurrent_subframes as u64,
    );
    for p in [50, 95, 100] {
        metrics.set_counter(
            &format!("sim.latency.p{p}_cycles"),
            report.latency_percentile(p),
        );
    }
    metrics.set_counter("sim.overruns", report.overruns);
    metrics.set_counter("sim.dropped_subframes", report.dropped_subframes);
    metrics.set_counter("sim.shed_jobs", report.shed_jobs);
    metrics.set_counter("sim.degraded_subframes", report.degraded_subframes);
    metrics.set_counter("sim.poisoned_tasks", report.poisoned_tasks);
    metrics.set_counter("sim.adopted_jobs", report.adopted_jobs);
    let mut stage_total = 0;
    for (stage, cycles) in report.stage_breakdown() {
        metrics.set_counter(&format!("sim.stage.{}.cycles", stage.name()), cycles);
        stage_total += cycles;
    }
    metrics.set_counter("sim.stage.total_cycles", stage_total);
    for core in 0..cfg.n_workers {
        let prefix = format!("sim.core.{core}");
        metrics.set_counter(&format!("{prefix}.busy_cycles"), report.busy_per_core[core]);
        metrics.set_counter(&format!("{prefix}.tasks"), report.tasks_per_core[core]);
        metrics.set_counter(&format!("{prefix}.steals"), report.steals_per_core[core]);
        metrics.set_counter(
            &format!("{prefix}.steal_fails"),
            report.steal_fails_per_core[core],
        );
        metrics.set_counter(
            &format!("{prefix}.wake_pulses"),
            report.wake_pulses_per_core[core],
        );
    }
}

//! Throughput harness for the steady-state receive pipeline.
//!
//! The paper's Fig. 8 scenario holds the cell near its PRB budget with a
//! mixed user population; this module replays that load shape as fast as
//! the host allows (dispatch interval zero) and reports machine-readable
//! throughput numbers so every future PR has a perf trajectory to
//! defend:
//!
//! * parallel subframes/sec over the worker pool,
//! * serial subframes/sec over the reference path (same inputs),
//! * p50/p99 dispatch-to-completion subframe latency,
//! * scratch-arena allocation counters (fresh vs reused buffers).
//!
//! Every perf run re-verifies the parallel results against the serial
//! golden record — the throughput claim is only valid while the outputs
//! stay byte-identical (§IV-D).
//!
//! On top of the single-point harness sits a *scaling matrix*
//! ([`run_scaling`]): the same steady-state load replayed at a ladder of
//! worker counts (default: powers of two up to `available_parallelism`),
//! each point reporting throughput, speedup over the serial reference,
//! parallel efficiency, scheduler counters (steals, batch steals, LIFO
//! slot hits, parks) and a byte-identity verdict. Because speedup on a
//! host with fewer cores than requested workers is physically capped,
//! every point records both the *requested* and the *effective*
//! (`min(requested, host)`) worker count, plus the host's parallelism.
//!
//! `lte-sim perf [--quick] [--subframes N] [--out DIR] [--baseline FILE]
//! [--workers LIST] [--window N] [--pin] [--scaling-baseline FILE]`
//! writes `BENCH_PR3.json` (single point) and `BENCH_PR4.json` (scaling
//! matrix) under `--out` and, when given baselines, fails if
//! subframes/sec or max-workers speedup regresses more than 10%.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lte_dsp::fft::FftPlanner;
use lte_obs::Histogram;
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::process_user_pooled;

use crate::{BenchmarkConfig, PoolActivity, UplinkBenchmark};

/// Subframes in the default (full) measurement.
pub const FULL_SUBFRAMES: usize = 600;
/// Subframes in the `--quick` measurement.
pub const QUICK_SUBFRAMES: usize = 120;
/// Warmup subframes processed (and discarded) before timing starts, so
/// plan caches, input synthesis and scratch arenas reach steady state.
const WARMUP_SUBFRAMES: usize = 16;
/// Subframes timed on the serial reference path (enough for a stable
/// rate without doubling the harness runtime).
const SERIAL_SUBFRAMES: usize = 40;
/// Back-to-back passes of each timed phase; the report keeps the
/// fastest. A single pass is at the mercy of scheduler interference
/// (the harness often runs on small shared hosts), and since every
/// pass performs identical deterministic work, the least-perturbed
/// pass is the measurement.
const MEASURE_PASSES: usize = 3;
/// Tolerated regression against a committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.10;

/// Throughput harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Subframes in the timed parallel run.
    pub subframes: usize,
    /// Worker threads (requested; the host may cap the effective count).
    pub workers: usize,
    /// Input-synthesis seed.
    pub seed: u64,
    /// Multi-subframe pipelining window (`None` = unbounded, matching
    /// the pre-pipelining harness so baselines stay comparable).
    pub window: Option<usize>,
    /// Pin workers to CPUs round-robin.
    pub pin_workers: bool,
    /// Receiver tail mode for both the parallel and serial legs —
    /// `Decode` turns the harness into the turbo-decode benchmark.
    pub mode: TurboMode,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            subframes: FULL_SUBFRAMES,
            workers: BenchmarkConfig::default().workers,
            seed: 42,
            window: None,
            pin_workers: false,
            mode: TurboMode::Passthrough,
        }
    }
}

/// Worker threads that can actually run concurrently for a request: the
/// pool spawns every requested thread, but no more than the host's core
/// count can execute at once — the honest denominator for efficiency.
pub fn effective_workers(requested: usize) -> usize {
    requested.min(lte_sched::host_parallelism()).max(1)
}

/// One measured perf run, serialisable to `BENCH_PR3.json`.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Subframes in the timed run.
    pub subframes: usize,
    /// Worker threads requested (and spawned).
    pub workers: usize,
    /// Worker threads that can run concurrently on this host
    /// (`min(workers, host_parallelism)`).
    pub workers_effective: usize,
    /// The host's available hardware parallelism.
    pub host_parallelism: usize,
    /// Wall-clock seconds of the timed parallel run.
    pub elapsed_s: f64,
    /// Parallel throughput.
    pub subframes_per_sec: f64,
    /// Serial reference throughput over the same inputs.
    pub serial_subframes_per_sec: f64,
    /// Median per-subframe service latency, microseconds. Under the
    /// harness's saturating zero-interval dispatch a queueing delay would
    /// swamp dispatch-to-completion times, so service latency is measured
    /// as the spacing between consecutive subframe completions.
    pub p50_latency_us: f64,
    /// 99th-percentile per-subframe service latency, microseconds.
    pub p99_latency_us: f64,
    /// Fraction of users whose CRC passed (sanity: must be 1.0 at the
    /// harness SNR).
    pub crc_pass_rate: f64,
    /// Scratch-arena buffers allocated fresh during the timed run.
    pub arena_fresh: u64,
    /// Scratch-arena buffers reused from free lists during the timed run.
    pub arena_reused: u64,
}

impl PerfReport {
    /// Parallel speedup over the serial reference.
    pub fn speedup(&self) -> f64 {
        if self.serial_subframes_per_sec > 0.0 {
            self.subframes_per_sec / self.serial_subframes_per_sec
        } else {
            0.0
        }
    }

    /// The report's flat `"key": value` entries, optionally key-prefixed
    /// (`turbo_`), without commas — shared by [`Self::to_json`] and the
    /// composite PR 9 document.
    fn json_fields(&self, prefix: &str) -> Vec<String> {
        vec![
            format!("\"{prefix}subframes\": {}", self.subframes),
            format!("\"{prefix}workers\": {}", self.workers),
            format!("\"{prefix}workers_effective\": {}", self.workers_effective),
            format!("\"{prefix}host_parallelism\": {}", self.host_parallelism),
            format!("\"{prefix}elapsed_s\": {:.6}", self.elapsed_s),
            format!(
                "\"{prefix}subframes_per_sec\": {:.3}",
                self.subframes_per_sec
            ),
            format!(
                "\"{prefix}serial_subframes_per_sec\": {:.3}",
                self.serial_subframes_per_sec
            ),
            format!("\"{prefix}speedup\": {:.3}", self.speedup()),
            format!("\"{prefix}p50_latency_us\": {:.1}", self.p50_latency_us),
            format!("\"{prefix}p99_latency_us\": {:.1}", self.p99_latency_us),
            format!("\"{prefix}crc_pass_rate\": {:.4}", self.crc_pass_rate),
            format!("\"{prefix}arena_fresh\": {}", self.arena_fresh),
            format!("\"{prefix}arena_reused\": {}", self.arena_reused),
        ]
    }

    /// Renders the flat JSON document written to `BENCH_PR3.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"lte-sim-perf-v1\"");
        for field in self.json_fields("") {
            out.push_str(",\n  ");
            out.push_str(&field);
        }
        out.push_str("\n}\n");
        out
    }
}

/// Reads one numeric field out of a flat JSON perf report. Only the
/// `"key": number` shape written by [`PerfReport::to_json`] is
/// understood — enough to compare against a committed baseline without a
/// JSON dependency.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The harness's steady-state subframe: four users spanning every
/// modulation and 1–4 layers, 100 PRBs total — the sustained-load shape
/// of the paper's Fig. 8 trace near the cell budget.
pub fn steady_state_subframe() -> SubframeConfig {
    SubframeConfig::new(vec![
        UserConfig::new(25, 2, lte_dsp::Modulation::Qam16),
        UserConfig::new(10, 1, lte_dsp::Modulation::Qpsk),
        UserConfig::new(50, 2, lte_dsp::Modulation::Qam64),
        UserConfig::new(15, 4, lte_dsp::Modulation::Qam16),
    ])
}

/// Latency quantile in microseconds from the telemetry histogram.
///
/// Bucket resolution bounds the estimate to at most 1/32 (≈3.1%) above
/// the exact order statistic; the fields derived from it are
/// informational (the regression gate checks throughput, not latency).
fn quantile_us(snapshot: &lte_obs::HistogramSnapshot, q: f64) -> f64 {
    snapshot.quantile(q) as f64 / 1e3
}

/// Service-latency distribution from completion timestamps: the spacing
/// between consecutive completions (sorted), with the first subframe
/// contributing its full dispatch-to-completion time (its queue wait at
/// a zero dispatch interval is negligible).
///
/// Degenerate runs are explicit rather than accidental: zero
/// completions yield the empty snapshot (count 0, every quantile 0 —
/// see `HistogramSnapshot::quantile`), and a single completion yields
/// exactly one sample (that subframe's own latency), so p50 == p99 ==
/// the one measurement instead of a panic or a bogus tail estimate.
pub fn completion_spacing(completions_ns: &[u64]) -> lte_obs::HistogramSnapshot {
    let mut completions = completions_ns.to_vec();
    completions.sort_unstable();
    let hist = Histogram::new();
    let mut prev = 0u64;
    for &done in &completions {
        hist.record(done - prev);
        prev = done;
    }
    hist.snapshot()
}

/// Runs the throughput harness: a warmed-up parallel run, a serial
/// reference timing, and the byte-identity verification.
///
/// # Errors
///
/// Returns a message when the worker pool cannot start or the parallel
/// results diverge from the serial golden record.
pub fn run_perf(cfg: &PerfConfig) -> Result<PerfReport, String> {
    let cell = CellConfig::default();
    let subframe = steady_state_subframe();
    let bench_cfg = BenchmarkConfig {
        workers: cfg.workers,
        // Zero dispatch interval: measure the pipeline, not the pacing.
        delta: Duration::ZERO,
        turbo: cfg.mode,
        seed: cfg.seed,
        max_in_flight: cfg.window,
        pin_workers: cfg.pin_workers,
        ..BenchmarkConfig::default()
    };
    let mut bench = UplinkBenchmark::new(cell, bench_cfg);

    // Warmup: synthesise inputs, fill plan caches, populate arenas.
    let warmup = vec![subframe.clone(); WARMUP_SUBFRAMES];
    bench.try_run(&warmup).map_err(|e| e.to_string())?;

    // Timed parallel run: best of [`MEASURE_PASSES`] identical passes.
    let arena_before = lte_dsp::arena::stats();
    let subframes = vec![subframe.clone(); cfg.subframes];
    let mut run = bench.try_run(&subframes).map_err(|e| e.to_string())?;
    for _ in 1..MEASURE_PASSES {
        let pass = bench.try_run(&subframes).map_err(|e| e.to_string())?;
        if pass.elapsed < run.elapsed {
            run = pass;
        }
    }
    let arena_after = lte_dsp::arena::stats();

    // Serial reference throughput on the identical (cached) inputs,
    // through the pooled (zero-allocation) serial pipeline — also the
    // best of [`MEASURE_PASSES`] passes.
    let planner = Arc::new(FftPlanner::new());
    let serial_inputs: Vec<Arc<UserInput>> =
        subframe.users.iter().map(|u| bench.input_for(u)).collect();
    let serial_n = SERIAL_SUBFRAMES.min(cfg.subframes).max(1);
    let mut serial_elapsed = f64::INFINITY;
    for _ in 0..MEASURE_PASSES {
        let serial_start = Instant::now();
        for _ in 0..serial_n {
            for input in &serial_inputs {
                let result = process_user_pooled(&cell, input, cfg.mode, &planner);
                std::hint::black_box(&result);
            }
        }
        serial_elapsed = serial_elapsed.min(serial_start.elapsed().as_secs_f64());
    }

    // The throughput claim is only valid while parallel == serial.
    bench
        .verify(&subframes, &run)
        .map_err(|e| format!("serial/parallel divergence: {e}"))?;

    let latency = completion_spacing(&run.completions_ns);
    Ok(PerfReport {
        subframes: cfg.subframes,
        workers: cfg.workers,
        workers_effective: effective_workers(cfg.workers),
        host_parallelism: lte_sched::host_parallelism(),
        elapsed_s: run.elapsed.as_secs_f64(),
        subframes_per_sec: cfg.subframes as f64 / run.elapsed.as_secs_f64(),
        serial_subframes_per_sec: serial_n as f64 / serial_elapsed,
        p50_latency_us: quantile_us(&latency, 0.50),
        p99_latency_us: quantile_us(&latency, 0.99),
        crc_pass_rate: run.crc_pass_rate,
        arena_fresh: arena_after.fresh - arena_before.fresh,
        arena_reused: arena_after.reused - arena_before.reused,
    })
}

/// Compares a fresh report against a committed baseline document.
///
/// # Errors
///
/// Returns a message when the baseline cannot be parsed or throughput
/// regressed beyond [`REGRESSION_TOLERANCE`].
pub fn check_against_baseline(report: &PerfReport, baseline_json: &str) -> Result<(), String> {
    let baseline = json_number(baseline_json, "subframes_per_sec")
        .ok_or("baseline file has no subframes_per_sec field")?;
    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    if report.subframes_per_sec < floor {
        return Err(format!(
            "throughput regression: {:.1} subframes/sec is below the {:.1} floor \
             ({:.1} baseline − {:.0}% tolerance)",
            report.subframes_per_sec,
            floor,
            baseline,
            100.0 * REGRESSION_TOLERANCE
        ));
    }
    Ok(())
}

/// One stage's share of the serial reference pipeline's wall clock.
#[derive(Clone, Debug)]
pub struct StageShare {
    /// Stage name as reported by the trace spans.
    pub stage: &'static str,
    /// Total wall-clock microseconds across the breakdown run.
    pub total_us: f64,
    /// Fraction of the summed stage time (0..1).
    pub share: f64,
}

/// Subframes replayed through the traced serial path for a per-stage
/// time breakdown — enough rounds for stable shares without doubling
/// the harness runtime.
const BREAKDOWN_SUBFRAMES: usize = 8;

/// Measures the per-stage time breakdown of the serial reference
/// pipeline under the steady-state load: every subframe runs through
/// [`lte_phy::receiver::process_user_traced`] with a span recorder, and
/// span durations are aggregated per stage (sorted, largest first).
pub fn stage_breakdown(mode: TurboMode, seed: u64) -> Vec<StageShare> {
    use lte_obs::{Event, RingRecorder};
    use lte_phy::receiver::process_user_traced;
    use lte_phy::trace::StageTimer;

    let cell = CellConfig::default();
    let subframe = steady_state_subframe();
    let mut bench = UplinkBenchmark::new(
        cell,
        BenchmarkConfig {
            turbo: mode,
            seed,
            ..BenchmarkConfig::default()
        },
    );
    let inputs: Vec<Arc<UserInput>> = subframe.users.iter().map(|u| bench.input_for(u)).collect();
    let planner = FftPlanner::new();
    // Warm plan caches and decoder state outside the recorded window.
    for input in &inputs {
        std::hint::black_box(process_user_pooled(&cell, input, mode, &planner));
    }
    let recorder = RingRecorder::new(1 << 20);
    let timer = StageTimer::new(&recorder);
    for _ in 0..BREAKDOWN_SUBFRAMES {
        for input in &inputs {
            let result = process_user_traced(&cell, input, mode, &planner, &timer);
            std::hint::black_box(&result);
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for ev in recorder.events() {
        if let Event::StageSpan {
            stage,
            start_ns,
            end_ns,
        } = ev
        {
            let name = stage.name();
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => *t += end_ns.saturating_sub(start_ns),
                None => totals.push((name, end_ns.saturating_sub(start_ns))),
            }
        }
    }
    totals.sort_by_key(|e| std::cmp::Reverse(e.1));
    let grand: u64 = totals.iter().map(|&(_, t)| t).sum();
    totals
        .into_iter()
        .map(|(stage, t)| StageShare {
            stage,
            total_us: t as f64 / 1e3,
            share: t as f64 / grand.max(1) as f64,
        })
        .collect()
}

fn stages_json(stages: &[StageShare]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "    {{ \"stage\": \"{}\", \"total_us\": {:.1}, \"share\": {:.4} }}{comma}\n",
                s.stage, s.total_us, s.share
            ),
        );
    }
    out.push_str("  ]");
    out
}

/// Subframes in the full turbo-mode legs (turbo decode is an order of
/// magnitude heavier per subframe than pass-through, so the legs run
/// shorter while still timing thousands of code-block decodes).
pub const TURBO_FULL_SUBFRAMES: usize = 120;
/// Subframes in the `--quick` turbo-mode legs.
pub const TURBO_QUICK_SUBFRAMES: usize = 24;
/// Decoder iterations in the turbo-mode legs (the repo's default
/// operating point).
pub const TURBO_ITERATIONS: usize = 4;

/// The decode-tail perf document (`BENCH_PR9.json`): the pass-through
/// single point (same gate keys as `BENCH_PR3.json`), the turbo-mode
/// legs with SIMD dispatch and with the scalar reference forced — both
/// measured in the same process on the same inputs, so their ratio is
/// the state-parallel decoder's speedup — and a per-stage serial time
/// breakdown for each mode.
#[derive(Clone, Debug)]
pub struct DecodePerfReport {
    /// The pass-through single point (the PR 3 scenario).
    pub passthrough: PerfReport,
    /// Pass-through per-stage serial time breakdown.
    pub passthrough_stages: Vec<StageShare>,
    /// Decoder iterations in the turbo legs.
    pub turbo_iterations: usize,
    /// The turbo-mode point with native SIMD dispatch.
    pub turbo: PerfReport,
    /// The turbo-mode point with the scalar reference forced.
    pub turbo_scalar: PerfReport,
    /// Turbo-mode per-stage serial time breakdown.
    pub turbo_stages: Vec<StageShare>,
    /// The dispatch label of the native path (`avx2+fma` or `scalar`).
    pub dispatch: &'static str,
}

impl DecodePerfReport {
    /// Turbo-mode SIMD throughput over forced-scalar throughput — the
    /// headline the PR 9 gate defends.
    pub fn turbo_simd_speedup(&self) -> f64 {
        if self.turbo_scalar.subframes_per_sec > 0.0 {
            self.turbo.subframes_per_sec / self.turbo_scalar.subframes_per_sec
        } else {
            0.0
        }
    }

    /// Renders the JSON document written to `BENCH_PR9.json`. The flat
    /// gate keys (`subframes_per_sec` for the pass-through point,
    /// `turbo_subframes_per_sec` for the turbo point) come before the
    /// stage arrays so [`json_number`] resolves them at top level.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"lte-sim-perf-pr9-v1\"");
        for field in self.passthrough.json_fields("") {
            out.push_str(",\n  ");
            out.push_str(&field);
        }
        out.push_str(&format!(
            ",\n  \"turbo_iterations\": {}",
            self.turbo_iterations
        ));
        for field in self.turbo.json_fields("turbo_") {
            out.push_str(",\n  ");
            out.push_str(&field);
        }
        out.push_str(&format!(
            ",\n  \"turbo_scalar_subframes_per_sec\": {:.3}",
            self.turbo_scalar.subframes_per_sec
        ));
        out.push_str(&format!(
            ",\n  \"turbo_scalar_serial_subframes_per_sec\": {:.3}",
            self.turbo_scalar.serial_subframes_per_sec
        ));
        out.push_str(&format!(
            ",\n  \"turbo_simd_speedup\": {:.3}",
            self.turbo_simd_speedup()
        ));
        out.push_str(&format!(",\n  \"dispatch\": \"{}\"", self.dispatch));
        out.push_str(",\n  \"passthrough_stages\": ");
        out.push_str(&stages_json(&self.passthrough_stages));
        out.push_str(",\n  \"turbo_stages\": ");
        out.push_str(&stages_json(&self.turbo_stages));
        out.push_str("\n}\n");
        out
    }
}

/// Runs the full PR 9 harness: the pass-through point, the turbo-mode
/// point with SIMD dispatch, the turbo-mode point with the scalar
/// reference forced (same inputs, same process), and the per-stage
/// breakdowns.
///
/// # Errors
///
/// Returns a message when any leg's pool cannot start or its parallel
/// results diverge from the serial golden record.
pub fn run_decode_perf(
    cfg: &PerfConfig,
    turbo_subframes: usize,
) -> Result<DecodePerfReport, String> {
    let pass_cfg = PerfConfig {
        mode: TurboMode::Passthrough,
        ..*cfg
    };
    let passthrough = run_perf(&pass_cfg)?;
    let passthrough_stages = stage_breakdown(TurboMode::Passthrough, cfg.seed);

    let mode = TurboMode::Decode {
        iterations: TURBO_ITERATIONS,
    };
    let turbo_cfg = PerfConfig {
        mode,
        subframes: turbo_subframes,
        ..*cfg
    };
    let turbo = run_perf(&turbo_cfg)?;
    lte_dsp::simd::force_scalar(true);
    let scalar_result = run_perf(&turbo_cfg);
    lte_dsp::simd::force_scalar(false);
    let turbo_scalar = scalar_result.map_err(|e| format!("forced-scalar turbo leg: {e}"))?;
    let turbo_stages = stage_breakdown(mode, cfg.seed);

    Ok(DecodePerfReport {
        passthrough,
        passthrough_stages,
        turbo_iterations: TURBO_ITERATIONS,
        turbo,
        turbo_scalar,
        turbo_stages,
        dispatch: lte_dsp::simd::dispatch_label(),
    })
}

/// Compares a fresh decode-tail report against a committed
/// `BENCH_PR9.json` baseline: both the pass-through and the turbo-mode
/// throughput must hold within [`REGRESSION_TOLERANCE`].
///
/// # Errors
///
/// Returns a message when the baseline cannot be parsed or either
/// mode's throughput regressed beyond tolerance.
pub fn check_decode_against_baseline(
    report: &DecodePerfReport,
    baseline_json: &str,
) -> Result<(), String> {
    check_against_baseline(&report.passthrough, baseline_json)?;
    let baseline = json_number(baseline_json, "turbo_subframes_per_sec")
        .ok_or("baseline file has no turbo_subframes_per_sec field")?;
    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    if report.turbo.subframes_per_sec < floor {
        return Err(format!(
            "turbo throughput regression: {:.1} subframes/sec is below the {:.1} floor \
             ({:.1} baseline − {:.0}% tolerance)",
            report.turbo.subframes_per_sec,
            floor,
            baseline,
            100.0 * REGRESSION_TOLERANCE
        ));
    }
    Ok(())
}

/// Scaling-matrix configuration: the same steady-state load replayed at
/// a ladder of worker counts.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Subframes in each timed run (per worker count).
    pub subframes: usize,
    /// Worker counts to measure, in order.
    pub worker_counts: Vec<usize>,
    /// Input-synthesis seed (shared by every point, so every point sees
    /// byte-identical inputs).
    pub seed: u64,
    /// Multi-subframe pipelining window applied at every point.
    pub window: Option<usize>,
    /// Pin workers to CPUs round-robin.
    pub pin_workers: bool,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            subframes: FULL_SUBFRAMES,
            worker_counts: default_worker_ladder(),
            seed: 42,
            window: Some(4),
            pin_workers: false,
        }
    }
}

/// The default worker ladder: powers of two up to the host's available
/// parallelism, always ending at the host's core count. On a 1-core
/// host this is just `[1]` — the matrix never pretends to parallelism
/// the hardware cannot deliver.
pub fn default_worker_ladder() -> Vec<usize> {
    let host = lte_sched::host_parallelism();
    let mut ladder = Vec::new();
    let mut w = 1;
    while w <= host {
        ladder.push(w);
        w *= 2;
    }
    if *ladder.last().expect("ladder has at least 1") != host {
        ladder.push(host);
    }
    ladder
}

/// One point of the scaling matrix.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Worker threads requested (and spawned).
    pub workers_requested: usize,
    /// Worker threads that can run concurrently on this host.
    pub workers_effective: usize,
    /// Parallel throughput at this point.
    pub subframes_per_sec: f64,
    /// Speedup over the shared serial reference.
    pub speedup: f64,
    /// Parallel efficiency: speedup / effective workers.
    pub efficiency: f64,
    /// Whether this point's outputs matched the serial golden record
    /// byte for byte (run_scaling fails hard otherwise, so a committed
    /// report always shows `true` — the field keeps the claim explicit).
    pub byte_identical: bool,
    /// Scheduler counters for this point's run.
    pub pool: PoolActivity,
}

/// A measured scaling matrix, serialisable to `BENCH_PR4.json`.
#[derive(Clone, Debug)]
pub struct ScalingReport {
    /// Subframes per timed run.
    pub subframes: usize,
    /// The host's available hardware parallelism.
    pub host_parallelism: usize,
    /// Pipelining window (0 = unbounded).
    pub window: usize,
    /// Serial reference throughput shared by every point.
    pub serial_subframes_per_sec: f64,
    /// One entry per measured worker count.
    pub points: Vec<ScalingPoint>,
}

impl ScalingReport {
    /// The point with the largest requested worker count.
    pub fn max_workers_point(&self) -> &ScalingPoint {
        self.points
            .iter()
            .max_by_key(|p| p.workers_requested)
            .expect("a scaling report has at least one point")
    }

    /// Speedup at the largest worker count — the headline number the
    /// regression gate defends.
    pub fn max_workers_speedup(&self) -> f64 {
        self.max_workers_point().speedup
    }

    /// Renders the JSON document written to `BENCH_PR4.json`. The gate
    /// keys (`max_workers_speedup`, `serial_subframes_per_sec`,
    /// `host_parallelism`) come before the points array so the flat
    /// [`json_number`] parser finds the top-level values first.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"lte-sim-scaling-v1\",\n");
        out.push_str(&format!("  \"subframes\": {},\n", self.subframes));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str(&format!("  \"window\": {},\n", self.window));
        out.push_str(&format!(
            "  \"serial_subframes_per_sec\": {:.3},\n",
            self.serial_subframes_per_sec
        ));
        let top = self.max_workers_point();
        out.push_str(&format!("  \"max_workers\": {},\n", top.workers_requested));
        out.push_str(&format!("  \"max_workers_speedup\": {:.3},\n", top.speedup));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"workers_requested\": {},\n",
                p.workers_requested
            ));
            out.push_str(&format!(
                "      \"workers_effective\": {},\n",
                p.workers_effective
            ));
            out.push_str(&format!(
                "      \"subframes_per_sec\": {:.3},\n",
                p.subframes_per_sec
            ));
            out.push_str(&format!("      \"speedup\": {:.3},\n", p.speedup));
            out.push_str(&format!("      \"efficiency\": {:.3},\n", p.efficiency));
            out.push_str(&format!(
                "      \"byte_identical\": {},\n",
                p.byte_identical
            ));
            out.push_str(&format!("      \"tasks\": {},\n", p.pool.executed_tasks));
            out.push_str(&format!("      \"steals\": {},\n", p.pool.steals));
            out.push_str(&format!(
                "      \"steal_batches\": {},\n",
                p.pool.steal_batches
            ));
            out.push_str(&format!(
                "      \"lifo_slot_hits\": {},\n",
                p.pool.lifo_slot_hits
            ));
            out.push_str(&format!("      \"parks\": {}\n", p.pool.parks));
            out.push_str(if i + 1 == self.points.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the scaling matrix: one serial reference timing, then for every
/// worker count a warmed-up pipelined run whose outputs are verified
/// byte-for-byte against the serial golden record.
///
/// # Errors
///
/// Returns a message when the worker ladder is empty, a pool cannot
/// start, or any point diverges from the serial reference.
pub fn run_scaling(cfg: &ScalingConfig) -> Result<ScalingReport, String> {
    run_scaling_with_stop(cfg, &|| false)
}

/// [`run_scaling`] with an early-stop hook, polled between worker
/// counts. When `stop` returns `true` the remaining points are skipped
/// and the report covers the points measured so far — the CLI wires a
/// latched SIGINT/SIGTERM into this so an interrupted matrix still
/// flushes a valid (partial) BENCH_PR4.json.
///
/// # Errors
///
/// Same as [`run_scaling`].
pub fn run_scaling_with_stop(
    cfg: &ScalingConfig,
    stop: &dyn Fn() -> bool,
) -> Result<ScalingReport, String> {
    if cfg.worker_counts.is_empty() {
        return Err("scaling matrix needs at least one worker count".into());
    }
    let cell = CellConfig::default();
    let subframe = steady_state_subframe();
    let subframes = vec![subframe.clone(); cfg.subframes];

    // Serial reference, timed once: every point below replays the same
    // seed, so the same reference applies to all of them.
    let mut serial_bench = UplinkBenchmark::new(
        cell,
        BenchmarkConfig {
            workers: 1,
            delta: Duration::ZERO,
            turbo: TurboMode::Passthrough,
            seed: cfg.seed,
            ..BenchmarkConfig::default()
        },
    );
    let planner = Arc::new(FftPlanner::new());
    let serial_inputs: Vec<Arc<UserInput>> = subframe
        .users
        .iter()
        .map(|u| serial_bench.input_for(u))
        .collect();
    // Warm the serial path (plan caches, scratch arenas) before timing.
    for input in &serial_inputs {
        let result = process_user_pooled(&cell, input, TurboMode::Passthrough, &planner);
        std::hint::black_box(&result);
    }
    let serial_n = SERIAL_SUBFRAMES.min(cfg.subframes).max(1);
    let serial_start = Instant::now();
    for _ in 0..serial_n {
        for input in &serial_inputs {
            let result = process_user_pooled(&cell, input, TurboMode::Passthrough, &planner);
            std::hint::black_box(&result);
        }
    }
    let serial_rate = serial_n as f64 / serial_start.elapsed().as_secs_f64();

    let mut points = Vec::with_capacity(cfg.worker_counts.len());
    for &workers in &cfg.worker_counts {
        if stop() {
            break;
        }
        let bench_cfg = BenchmarkConfig {
            workers,
            delta: Duration::ZERO,
            turbo: TurboMode::Passthrough,
            seed: cfg.seed,
            max_in_flight: cfg.window,
            pin_workers: cfg.pin_workers,
            ..BenchmarkConfig::default()
        };
        let mut bench = UplinkBenchmark::new(cell, bench_cfg);
        let warmup = vec![subframe.clone(); WARMUP_SUBFRAMES];
        bench
            .try_run(&warmup)
            .map_err(|e| format!("{workers}-worker warmup: {e}"))?;
        let run = bench
            .try_run(&subframes)
            .map_err(|e| format!("{workers}-worker run: {e}"))?;
        bench
            .verify(&subframes, &run)
            .map_err(|e| format!("{workers}-worker divergence from serial reference: {e}"))?;
        let rate = cfg.subframes as f64 / run.elapsed.as_secs_f64();
        let effective = effective_workers(workers);
        let speedup = if serial_rate > 0.0 {
            rate / serial_rate
        } else {
            0.0
        };
        points.push(ScalingPoint {
            workers_requested: workers,
            workers_effective: effective,
            subframes_per_sec: rate,
            speedup,
            efficiency: speedup / effective as f64,
            byte_identical: true,
            pool: run.pool,
        });
    }

    Ok(ScalingReport {
        subframes: cfg.subframes,
        host_parallelism: lte_sched::host_parallelism(),
        window: cfg.window.unwrap_or(0),
        serial_subframes_per_sec: serial_rate,
        points,
    })
}

/// Compares a fresh scaling report against a committed baseline.
///
/// The gate defends the *speedup* at the largest worker count, not the
/// absolute rate: speedup is a ratio of two measurements on the same
/// host, so it transfers across machines far better than subframes/sec.
///
/// # Errors
///
/// Returns a message when the baseline cannot be parsed or speedup
/// regressed beyond [`REGRESSION_TOLERANCE`].
pub fn check_scaling_against_baseline(
    report: &ScalingReport,
    baseline_json: &str,
) -> Result<(), String> {
    let baseline = json_number(baseline_json, "max_workers_speedup")
        .ok_or("scaling baseline has no max_workers_speedup field")?;
    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    let actual = report.max_workers_speedup();
    if actual < floor {
        return Err(format!(
            "scaling regression: max-workers speedup {actual:.3} is below the {floor:.3} floor \
             ({baseline:.3} baseline − {:.0}% tolerance)",
            100.0 * REGRESSION_TOLERANCE
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_exposes_every_metric() {
        let report = PerfReport {
            subframes: 120,
            workers: 8,
            workers_effective: 4,
            host_parallelism: 4,
            elapsed_s: 1.5,
            subframes_per_sec: 80.0,
            serial_subframes_per_sec: 20.0,
            p50_latency_us: 950.0,
            p99_latency_us: 2100.0,
            crc_pass_rate: 1.0,
            arena_fresh: 64,
            arena_reused: 4096,
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "subframes"), Some(120.0));
        assert_eq!(json_number(&json, "workers"), Some(8.0));
        assert_eq!(json_number(&json, "workers_effective"), Some(4.0));
        assert_eq!(json_number(&json, "host_parallelism"), Some(4.0));
        assert_eq!(json_number(&json, "subframes_per_sec"), Some(80.0));
        assert_eq!(json_number(&json, "serial_subframes_per_sec"), Some(20.0));
        assert_eq!(json_number(&json, "speedup"), Some(4.0));
        assert_eq!(json_number(&json, "p99_latency_us"), Some(2100.0));
        assert_eq!(json_number(&json, "arena_reused"), Some(4096.0));
    }

    #[test]
    fn baseline_gate_triggers_on_regression() {
        let mut report = PerfReport {
            subframes: 120,
            workers: 8,
            workers_effective: 4,
            host_parallelism: 4,
            elapsed_s: 1.5,
            subframes_per_sec: 80.0,
            serial_subframes_per_sec: 20.0,
            p50_latency_us: 0.0,
            p99_latency_us: 0.0,
            crc_pass_rate: 1.0,
            arena_fresh: 0,
            arena_reused: 0,
        };
        let baseline = report.to_json();
        assert!(check_against_baseline(&report, &baseline).is_ok());
        report.subframes_per_sec = 80.0 * 0.95;
        assert!(check_against_baseline(&report, &baseline).is_ok());
        report.subframes_per_sec = 80.0 * 0.85;
        assert!(check_against_baseline(&report, &baseline).is_err());
        assert!(check_against_baseline(&report, "{}").is_err());
    }

    #[test]
    fn percentiles_track_order_statistics_within_bucket_resolution() {
        let hist = Histogram::new();
        for v in 1..=100u64 {
            hist.record(v * 1000);
        }
        let snap = hist.snapshot();
        // Never below the exact order statistic, at most 1/32 above it.
        for (q, exact_us) in [(0.50, 50.0), (0.99, 99.0)] {
            let est = quantile_us(&snap, q);
            assert!(est >= exact_us, "p{q} {est} under-reports {exact_us}");
            assert!(
                est <= exact_us * (1.0 + 1.0 / 32.0) + 1e-9,
                "p{q} {est} exceeds resolution bound around {exact_us}"
            );
        }
        assert_eq!(quantile_us(&Histogram::new().snapshot(), 0.50), 0.0);
    }

    #[test]
    fn completion_spacing_handles_degenerate_runs() {
        // Zero completions: the explicit empty report, not a panic.
        let empty = completion_spacing(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(quantile_us(&empty, 0.50), 0.0);
        assert_eq!(quantile_us(&empty, 0.999), 0.0);

        // One completion: a single sample — its own latency — for every
        // quantile, rather than an out-of-bounds spacing index.
        let single = completion_spacing(&[2_000_000]);
        assert_eq!(single.count, 1);
        assert_eq!(single.min, 2_000_000);
        assert_eq!(single.max, 2_000_000);
        assert_eq!(quantile_us(&single, 0.50), quantile_us(&single, 0.99));
        assert_eq!(single.quantile(1.0), 2_000_000);

        // Multiple completions, unsorted input: spacings 1ms, 1ms, 3ms.
        let multi = completion_spacing(&[2_000_000, 1_000_000, 5_000_000]);
        assert_eq!(multi.count, 3);
        assert_eq!(multi.min, 1_000_000);
        assert_eq!(multi.max, 3_000_000);
    }

    #[test]
    fn quick_perf_run_produces_consistent_report() {
        let cfg = PerfConfig {
            subframes: 6,
            workers: 4,
            seed: 1,
            window: Some(3),
            pin_workers: false,
            mode: TurboMode::Passthrough,
        };
        let report = run_perf(&cfg).expect("perf run");
        assert_eq!(report.subframes, 6);
        assert_eq!(report.workers, 4);
        assert_eq!(report.workers_effective, effective_workers(4));
        assert_eq!(report.host_parallelism, lte_sched::host_parallelism());
        assert!(report.subframes_per_sec > 0.0);
        assert!(report.serial_subframes_per_sec > 0.0);
        assert_eq!(report.crc_pass_rate, 1.0);
        assert!(report.p99_latency_us >= report.p50_latency_us);
    }

    fn sample_perf_report(rate: f64) -> PerfReport {
        PerfReport {
            subframes: 24,
            workers: 2,
            workers_effective: 2,
            host_parallelism: 4,
            elapsed_s: 1.0,
            subframes_per_sec: rate,
            serial_subframes_per_sec: rate / 2.0,
            p50_latency_us: 100.0,
            p99_latency_us: 200.0,
            crc_pass_rate: 1.0,
            arena_fresh: 0,
            arena_reused: 100,
        }
    }

    fn sample_decode_report() -> DecodePerfReport {
        let share = |stage, total_us, share| StageShare {
            stage,
            total_us,
            share,
        };
        DecodePerfReport {
            passthrough: sample_perf_report(200.0),
            passthrough_stages: vec![share("fft", 800.0, 0.8), share("demap", 200.0, 0.2)],
            turbo_iterations: 4,
            turbo: sample_perf_report(30.0),
            turbo_scalar: sample_perf_report(12.0),
            turbo_stages: vec![share("turbo", 900.0, 0.9), share("fft", 100.0, 0.1)],
            dispatch: "avx2+fma",
        }
    }

    #[test]
    fn decode_report_json_exposes_both_gates_and_the_stage_tables() {
        let report = sample_decode_report();
        let json = report.to_json();
        // Pass-through keys stay BENCH_PR3-compatible so the PR 8
        // baseline still gates this file.
        assert_eq!(json_number(&json, "subframes_per_sec"), Some(200.0));
        assert_eq!(json_number(&json, "speedup"), Some(2.0));
        // Turbo keys are distinct (quoted-needle lookup cannot collide).
        assert_eq!(json_number(&json, "turbo_subframes_per_sec"), Some(30.0));
        assert_eq!(
            json_number(&json, "turbo_scalar_subframes_per_sec"),
            Some(12.0)
        );
        assert_eq!(json_number(&json, "turbo_simd_speedup"), Some(2.5));
        assert_eq!(json_number(&json, "turbo_iterations"), Some(4.0));
        assert!(json.contains("\"dispatch\": \"avx2+fma\""));
        assert!(json.contains("\"stage\": \"turbo\""));
        assert!(json.contains("\"share\": 0.9000"));
    }

    #[test]
    fn decode_gate_defends_both_modes() {
        let mut report = sample_decode_report();
        let baseline = report.to_json();
        assert!(check_decode_against_baseline(&report, &baseline).is_ok());
        // Turbo 5% down: within tolerance.
        report.turbo.subframes_per_sec = 30.0 * 0.95;
        assert!(check_decode_against_baseline(&report, &baseline).is_ok());
        // Turbo 15% down: regression, even with pass-through healthy.
        report.turbo.subframes_per_sec = 30.0 * 0.85;
        assert!(check_decode_against_baseline(&report, &baseline).is_err());
        // Pass-through regression trips the shared gate too.
        report.turbo.subframes_per_sec = 30.0;
        report.passthrough.subframes_per_sec = 200.0 * 0.85;
        assert!(check_decode_against_baseline(&report, &baseline).is_err());
        assert!(check_decode_against_baseline(&report, "{}").is_err());
    }

    #[test]
    fn stage_breakdown_covers_the_decode_tail() {
        let stages = stage_breakdown(TurboMode::Decode { iterations: 2 }, 7);
        assert!(!stages.is_empty());
        let total: f64 = stages.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-6, "shares must sum to 1: {total}");
        assert!(
            stages.iter().any(|s| s.stage == "turbo"),
            "decode-mode breakdown must include the turbo stage: {stages:?}"
        );
        // Sorted largest-first.
        assert!(stages.windows(2).all(|w| w[0].total_us >= w[1].total_us));
    }

    #[test]
    fn default_ladder_is_powers_of_two_ending_at_the_host() {
        let ladder = default_worker_ladder();
        let host = lte_sched::host_parallelism();
        assert_eq!(ladder[0], 1);
        assert_eq!(*ladder.last().unwrap(), host);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert!(ladder.iter().all(|&w| w <= host));
    }

    fn sample_scaling_report() -> ScalingReport {
        let point = |w: usize, rate: f64| ScalingPoint {
            workers_requested: w,
            workers_effective: w.min(4),
            subframes_per_sec: rate,
            speedup: rate / 20.0,
            efficiency: rate / 20.0 / w.min(4) as f64,
            byte_identical: true,
            pool: PoolActivity {
                executed_tasks: 1000,
                steals: 40,
                steal_batches: 8,
                batch_stolen_tasks: 60,
                lifo_slot_hits: 700,
                parks: 12,
                pinned_workers: 0,
            },
        };
        ScalingReport {
            subframes: 120,
            host_parallelism: 4,
            window: 4,
            serial_subframes_per_sec: 20.0,
            points: vec![point(1, 19.0), point(2, 36.0), point(4, 64.0)],
        }
    }

    #[test]
    fn scaling_json_exposes_the_gate_keys_at_top_level() {
        let report = sample_scaling_report();
        let json = report.to_json();
        // The flat parser must resolve the gate keys to the *top-level*
        // values, not to a field inside the points array.
        assert_eq!(json_number(&json, "max_workers"), Some(4.0));
        assert_eq!(json_number(&json, "max_workers_speedup"), Some(3.2));
        assert_eq!(json_number(&json, "serial_subframes_per_sec"), Some(20.0));
        assert_eq!(json_number(&json, "host_parallelism"), Some(4.0));
        assert_eq!(json_number(&json, "window"), Some(4.0));
        assert_eq!(json_number(&json, "workers_requested"), Some(1.0));
        assert!(json.contains("\"byte_identical\": true"));
        assert!(json.contains("\"steal_batches\": 8"));
        assert!(json.contains("\"lifo_slot_hits\": 700"));
    }

    #[test]
    fn scaling_gate_triggers_on_speedup_regression() {
        let mut report = sample_scaling_report();
        let baseline = report.to_json();
        assert!(check_scaling_against_baseline(&report, &baseline).is_ok());
        // 5% down: within tolerance.
        report.points[2].speedup *= 0.95;
        assert!(check_scaling_against_baseline(&report, &baseline).is_ok());
        // 15% down: regression.
        report.points[2].speedup = 3.2 * 0.85;
        assert!(check_scaling_against_baseline(&report, &baseline).is_err());
        assert!(check_scaling_against_baseline(&report, "{}").is_err());
    }

    #[test]
    fn quick_scaling_run_verifies_every_point() {
        let cfg = ScalingConfig {
            subframes: 6,
            worker_counts: vec![1, 2],
            seed: 1,
            window: Some(2),
            pin_workers: false,
        };
        let report = run_scaling(&cfg).expect("scaling run");
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.host_parallelism, lte_sched::host_parallelism());
        for point in &report.points {
            assert!(point.byte_identical);
            assert!(point.subframes_per_sec > 0.0);
            assert!(point.speedup > 0.0);
            assert!(point.efficiency > 0.0);
            assert_eq!(
                point.workers_effective,
                effective_workers(point.workers_requested)
            );
            assert!(point.pool.executed_tasks > 0);
        }
        assert_eq!(report.max_workers_point().workers_requested, 2);
        assert!(run_scaling(&ScalingConfig {
            worker_counts: vec![],
            ..cfg
        })
        .is_err());
    }
}

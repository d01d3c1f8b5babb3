//! `lte-sim` — command-line runner for every experiment in the paper.
//!
//! `lte-sim --help` prints the one command and flag reference (`USAGE`
//! below). Performance is not measured here: `examples/lte_bench` is
//! the one harness (`run` / `trace` / `compare`, see `BENCHMARK.json`).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::ablation;
use crate::artifacts::{Artifact, Inputs, ARTIFACTS};
use crate::experiments::ExperimentContext;
use lte_fault::OverloadPolicy;

#[derive(Default)]
struct Options {
    command: String,
    ctx: ExperimentContext,
    out: PathBuf,
    perfetto: Option<PathBuf>,
    metrics: Option<PathBuf>,
    /// Raw `--policy` value: an overload policy for `chaos`, a nap
    /// policy (or `all`) for `govern`. Parsed at the use site because
    /// the two commands accept different vocabularies.
    policy: Option<String>,
    calibration: Option<PathBuf>,
    chaos: bool,
    quick: bool,
    subframes_override: Option<usize>,
    /// soak, serve, deploy: worker threads of the real pool.
    workers: Option<usize>,
    window: Option<usize>,
    traffic: Option<String>,
    config: Option<PathBuf>,
    /// vectors: regenerate the golden file instead of checking it.
    write_vectors: bool,
    /// vectors: pin every kernel to the scalar reference path.
    scalar: bool,
    /// vectors: golden-file location (default conformance/golden.json).
    golden: Option<PathBuf>,
    /// deploy: number of cells to provision.
    cells: Option<usize>,
    /// deploy: total UE population across cells.
    ues: Option<usize>,
    /// deploy: inter-cell coupling amplitude in thousandths.
    coupling_milli: Option<u32>,
    /// deploy: cell kind — macro | nbiot.
    cell_kind: Option<String>,
}

const USAGE: &str = "\
lte-sim — the LTE Uplink Receiver PHY benchmark and power study

USAGE:
    lte-sim [COMMAND] [FLAGS]

COMMANDS:
  Paper artifacts — each writes its files, checks the paper's claim and
  exits 1 when the claim fails; claims about the ramp peak need the full
  68 000 subframes and are otherwise reported as not checked:
    fig7 fig8 fig9    input parameter traces (users, PRBs, layers) as CSV
    fig11             activity/PRB calibration sweep (CSV + SVG)
    fig12             workload-estimator validation (CSV + SVG)
    fig13             estimated active-core targets (CSV)
    fig14 fig15 fig16 power traces for all nap policies (CSV + SVG)
    table1 table2     average dynamic / total power tables (markdown)
    iv-d              §IV-D: ten ramp subframes decoded on the real pool,
                      verified bit-exact against the serial reference
    all               every artifact above, in order (default command)
  Studies and drivers:
    concurrency       subframe concurrency and job latency percentiles
    ablation          sweep the design constants the paper fixes
    diurnal           the diurnal-day power study
    trace             record an instrumented NAP+IDLE run: Perfetto
                      trace-event JSON plus a flat metrics snapshot
    chaos             deterministic fault-injection campaign: DES chaos
                      under an overload policy, real-pool conservation,
                      link-level HARQ recovery (trace + metrics JSON)
    govern            closed-loop power governance: governed DES bursts
                      with an estimated-vs-measured activity audit,
                      governed real-pool runs verified byte-identical,
                      Eq. 3 re-calibration (GOVERN.json + trace/metrics)
    soak              N subframes through the governed DES in rolling
                      windows with latency, EBLER, energy and SLO
                      telemetry (SOAK.json, SOAK.jsonl, SOAK.om; exits 1
                      when a window violates its SLO)
    serve             continuously-running ingest service: bounded ring,
                      token-bucket admission, reject → shed → degrade
                      escalation, governor on live queue depth, hot
                      reload of --config, watchdog (SERVE.json +
                      SERVE.om; exits 1 when a calm window violates its
                      SLO, 3 when drained by a signal)
    deploy            multi-cell deployment: --cells cells share one pool
                      and --ues UEs; --coupling-milli injects inter-cell
                      interference (DEPLOY.json + DEPLOY.om, byte-
                      deterministic for every worker count)
    fingerprint       one-line FNV-1a 64 fingerprint of the canonical
                      run's decoded bytes and trace-event stream
    vectors           conformance gate: recompute the golden kernel
                      vectors and compare them with conformance/
                      golden.json (--write regenerates, --scalar forces
                      the scalar kernels)

FLAGS:
    --quick           reduced setup for smoke tests (4 000 subframes,
                      coarse calibration sweep)
    --subframes N     length of the main evaluation run
    --seed S          parameter-model seed
    --out DIR         output directory (default: results)
    --perfetto FILE   trace: write the trace-event JSON here
                      (default: <out>/trace.perfetto.json)
    --metrics FILE    trace: write the metrics snapshot here
                      (default: <out>/metrics.json)
    --policy P        chaos: overload policy — drop | shed | degrade
                      (default: shed)
                      govern: nap policy — nonap | idle | nap | nap+idle
                      | all (default: all)
                      soak: nap policy — nonap | idle | nap | nap+idle
                      (default: nonap)
                      serve: nap policy (default: nap+idle)
    --chaos           soak: inject the seeded fault plan (noise bursts,
                      a fail-stopped core, task panics)
                      serve: inject the seeded ingest chaos (an arrival
                      stall, a 2x flood burst, malformed arrivals)
    --calibration FILE
                      govern: load the estimator's fitted slopes from
                      this JSON file when it exists; otherwise fit the
                      Fig. 11 sweep and save the table here
    --workers N       soak, serve, deploy: worker threads of the real
                      pool, one positive count (default: the host's
                      available parallelism, at most 4)
    --window N        soak: telemetry window length in subframes
                      (default 1000)
                      serve: SLO window length in ticks (default 40)
    --traffic MODEL   serve: built-in traffic generator — full-buffer |
                      bursty-iot | voip (default: full-buffer)
    --write           vectors: write the recomputed vectors to the
                      golden file instead of checking against it
    --check           vectors: check against the golden file (the
                      default)
    --scalar          vectors: force scalar dispatch (disable the SIMD
                      kernels) before computing
    --golden FILE     vectors: golden-file location
                      (default: conformance/golden.json)
    --cells N         deploy: number of cells (default 2)
    --ues N           deploy: total UE population (default 1000)
    --coupling-milli N
                      deploy: inter-cell coupling amplitude in
                      thousandths (default 0 = isolated cells)
    --cell-kind KIND  deploy: macro | nbiot (default macro); nbiot
                      squeezes grants to 2-3 PRB single-layer QPSK
                      with 4 coverage repetitions and selection
                      combining
    --config FILE     serve: key=value service parameters (traffic,
                      rate_milli, burst, fill watermarks, SLO budgets);
                      the file is watched while serving and re-applied
                      at the next tick boundary when it changes
    -h, --help        print this help

Parse errors exit with status 2; runtime failures exit with status 1.
The long-running commands (serve, soak, govern) latch SIGINT and
SIGTERM: they stop admitting work, flush complete artifacts for what
ran, and exit with status 3.
";

fn parse_args() -> Options {
    let mut o = Options {
        command: String::from("all"),
        out: PathBuf::from("results"),
        ..Options::default()
    };
    let mut seed = None;
    // A numeric flag's value in the type the flag feeds: anything that
    // type cannot hold (a sign, a fraction, an overflow) exits 2 rather
    // than being truncated into range.
    fn number<T: std::str::FromStr<Err: std::fmt::Display>>(text: &str, flag: &str) -> T {
        text.parse()
            .unwrap_or_else(|e| fail(2, format!("{flag} takes a number, got '{text}' ({e})")))
    }
    fn positive(text: &str, flag: &str) -> usize {
        match number(text, flag) {
            0 => fail(2, format!("{flag} must be positive")),
            n => n,
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // The value of `--flag value`, exiting with a clear message if
        // it is missing.
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(2, format!("{arg} requires a value")))
        };
        match arg.as_str() {
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--quick" => o.quick = true,
            "--subframes" => o.subframes_override = Some(number(&value(), &arg)),
            "--seed" => seed = Some(number(&value(), &arg)),
            "--out" => o.out = value().into(),
            "--perfetto" => o.perfetto = Some(value().into()),
            "--metrics" => o.metrics = Some(value().into()),
            "--policy" => o.policy = Some(value()),
            "--calibration" => o.calibration = Some(value().into()),
            "--chaos" => o.chaos = true,
            "--workers" => o.workers = Some(positive(&value(), &arg)),
            "--window" => o.window = Some(number(&value(), &arg)),
            "--traffic" => o.traffic = Some(value()),
            "--config" => o.config = Some(value().into()),
            "--write" => o.write_vectors = true,
            // Checking is the vectors default; the explicit flag is
            // accepted so scripts can spell out their intent.
            "--check" => o.write_vectors = false,
            "--scalar" => o.scalar = true,
            "--golden" => o.golden = Some(value().into()),
            "--cells" => o.cells = Some(positive(&value(), &arg)),
            "--ues" => o.ues = Some(number(&value(), &arg)),
            "--coupling-milli" => o.coupling_milli = Some(number(&value(), &arg)),
            "--cell-kind" => o.cell_kind = Some(value()),
            flag if flag.starts_with('-') => fail(
                2,
                format!("unknown flag: {flag}\nrun 'lte-sim --help' for the full flag list"),
            ),
            _ => o.command = arg.clone(),
        }
    }
    // `--quick` picks the base setup; `--seed` and `--subframes` overlay
    // it wherever they appear on the line.
    if o.quick {
        o.ctx = ExperimentContext::quick();
    }
    if let Some(seed) = seed {
        o.ctx.seed = seed;
    }
    if let Some(n) = o.subframes_override {
        o.ctx.n_subframes = n;
    }
    o
}

/// Writes an artifact atomically: the contents land in a `.tmp`
/// sibling first and are renamed into place, so an interrupted run
/// never leaves a truncated SOAK.json/GOVERN.json/SERVE.json behind —
/// the file either has the old contents or the complete new ones.
fn write(path: &Path, contents: &str) {
    crate::report::write_atomic(path, contents)
        .or_exit(&format!("cannot write {}", path.display()), 1);
    println!("wrote {}", path.display());
}

/// Writes a trace-event JSON and a metrics snapshot to `--perfetto` and
/// `--metrics`, or under `--out` with the command's default names.
fn write_trace_pair(opts: &Options, defaults: [&str; 2], [trace, metrics]: [&str; 2]) {
    let or_default = |path: &Option<PathBuf>, name| path.clone().unwrap_or(opts.out.join(name));
    write(&or_default(&opts.perfetto, defaults[0]), trace);
    write(&or_default(&opts.metrics, defaults[1]), metrics);
}

/// `Result::unwrap_or_else` that prints `what: error` and exits with
/// `code`: 2 for a bad flag value, 1 for a runtime failure.
trait OrExit<T> {
    fn or_exit(self, what: &str, code: i32) -> T;
}

impl<T, E: std::fmt::Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, what: &str, code: i32) -> T {
        self.unwrap_or_else(|e| fail(code, format!("{what}: {e}")))
    }
}

/// Prints `message` and exits with `code`: 2 for bad input, 1 for a
/// runtime failure.
fn fail(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

/// Has a termination signal been latched? The long-running commands
/// poll this at phase boundaries and drain instead of dying.
fn interrupted() -> bool {
    crate::signals::termination_requested().is_some()
}

/// Worker threads for the real pool: `--workers`, or the host's
/// parallelism capped at four.
fn pool_workers(opts: &Options) -> usize {
    opts.workers
        .unwrap_or_else(|| 4.min(lte_sched::host_parallelism()))
}

/// Runs artifact-table rows in order: writes each row's files (a file
/// two rows share is written once), prints each row's verdict, and exits
/// 1 when a check fails.
fn run_artifacts(opts: &Options, rows: &[Artifact]) {
    let inputs = Inputs::new(opts.ctx);
    let mut written = Vec::new();
    let mut failed = 0;
    for row in rows {
        for (name, contents) in (row.produce)(&inputs) {
            if !written.contains(&name) {
                write(&opts.out.join(name), &contents);
                written.push(name);
            }
        }
        let verdict = match row.judge(&inputs) {
            None => format!(
                "not checked: needs {} subframes",
                match row.needs {
                    n if n >= 1000 => format!("{} {:03}", n / 1000, n % 1000),
                    n => n.to_string(),
                }
            ),
            Some(Ok(values)) => format!("ok — {values}"),
            Some(Err(values)) => {
                failed += 1;
                format!("FAILED — {values}")
            }
        };
        println!("{} ({}): {verdict}", row.id, row.paper);
    }
    if failed > 0 {
        fail(1, format!("{failed} paper artifact check(s) failed"));
    }
}

fn run_concurrency(opts: &Options) {
    // The paper's "no more than two to three subframes concurrently"
    // describes a real base station's responsiveness budget (1 ms
    // dispatch, ~3 ms deadline); the benchmark's stress ramp deliberately
    // drives the 5 ms-dispatch TILEPro64 model to saturation, where the
    // backlog grows deeper at the load peak.
    let inputs = Inputs::new(opts.ctx);
    let study = inputs.study();
    let clock = opts.ctx.sim_config(lte_power::NapPolicy::NoNap).clock_hz;
    let to_ms = |c: u64| c as f64 / clock * 1e3;
    for (label, policy) in [
        ("NONAP", lte_power::NapPolicy::NoNap),
        ("NAP+IDLE", lte_power::NapPolicy::NapIdle),
    ] {
        let report = &study.run(policy).report;
        println!(
            "{label}: max concurrent subframes {} | job latency p50 {:.1} ms, p95 {:.1} ms, max {:.1} ms",
            report.max_concurrent_subframes,
            to_ms(report.latency_percentile(50)),
            to_ms(report.latency_percentile(95)),
            to_ms(report.latency_percentile(100)),
        );
    }
}

fn run_ablations(opts: &Options) {
    let ctx = ExperimentContext {
        // Ablations sweep many runs; cap the per-run length.
        n_subframes: opts.ctx.n_subframes.min(8_000),
        ..opts.ctx
    };
    println!("Eq. 5 margin ablation (NAP+IDLE):");
    println!("  margin |  power (W) | p95 latency | max latency");
    for row in ablation::margin_ablation(&ctx, &[0, 1, 2, 4, 8, 16]) {
        println!(
            "  {:6} | {:9.2} | {:8.2} ms | {:8.2} ms",
            row.margin, row.mean_watts, row.p95_latency_ms, row.max_latency_ms
        );
    }
    let study = ctx.run_power_study();
    println!("\npower-domain group-size ablation (Eq. 6):");
    println!("  group |  gated (W) | saving (W)");
    for row in ablation::gating_group_ablation(&study, &[1, 2, 4, 8, 16, 32, 64]) {
        println!(
            "  {:5} | {:9.2} | {:8.2}",
            row.group_size, row.mean_watts, row.mean_saving
        );
    }
    println!("\nnap wake-period ablation:");
    println!("  period |  IDLE (W) |  NAP (W)");
    for row in ablation::wake_period_ablation(&ctx, &[0.25, 0.5, 1.0, 2.0, 4.0]) {
        println!(
            "  {:4.2} ms | {:8.2} | {:7.2}",
            row.period_ms, row.idle_watts, row.nap_watts
        );
    }
    println!("\nDVFS extension (estimator-driven ladder on NAP+IDLE):");
    let dvfs = ablation::dvfs_study(&ctx, &study, &lte_power::DvfsPolicy::default_ladder());
    println!(
        "  NAP+IDLE {:.2} W -> with DVFS {:.2} W ({:.0}% of subframes run below nominal f)",
        dvfs.baseline_watts,
        dvfs.dvfs_watts,
        100.0 * dvfs.scaled_fraction
    );
}

fn run_diurnal(opts: &Options) {
    println!(
        "running the diurnal-day study ({} subframes) …",
        opts.ctx.n_subframes
    );
    let study = opts.ctx.run_diurnal_study();
    println!(
        "mean activity over the day: {:.1}% (paper: 'about 25%' is typical)",
        100.0 * study.mean_activity
    );
    for row in &study.rows {
        println!(
            "  {:12} {:5.2} W  ({:+.0}% vs NONAP, {:+.0}% vs IDLE)",
            row.technique,
            row.watts,
            100.0 * row.vs_nonap,
            100.0 * row.vs_idle
        );
    }
    println!(
        "power-gated saving: {:.0}% vs NONAP, {:.0}% vs IDLE (ramp study: 24-26% / 9-11%)",
        100.0 * study.gated_saving_vs_nonap,
        100.0 * study.gated_saving_vs_idle
    );
}

fn run_trace_cmd(opts: &Options) {
    use crate::trace;
    println!(
        "recording an instrumented NAP+IDLE run ({} subframes max) …",
        opts.ctx.n_subframes.min(trace::TRACE_SUBFRAME_CAP)
    );
    let art = trace::run_trace(&opts.ctx);
    write_trace_pair(
        opts,
        ["trace.perfetto.json", "metrics.json"],
        [&art.perfetto_json, &art.metrics_json],
    );
    let cfg = opts.ctx.sim_config(lte_power::NapPolicy::NapIdle);
    println!(
        "traced {} subframes: activity {:.1}% (Eq. 2), {} jobs",
        art.subframes,
        100.0 * art.report.mean_activity(&cfg),
        art.report.jobs_total,
    );
    let busy: u64 = art.report.stage_breakdown().iter().map(|(_, c)| c).sum();
    for (stage, cycles) in art.report.stage_breakdown() {
        println!(
            "  {:12} {:>14} cycles ({:4.1}%)",
            stage.name(),
            cycles,
            100.0 * cycles as f64 / busy.max(1) as f64
        );
    }
    if art.dropped_events > 0 {
        eprintln!(
            "warning: ring filled, dropped {} oldest events — lower --subframes for a complete trace",
            art.dropped_events
        );
    }
    println!("open the trace in https://ui.perfetto.dev or chrome://tracing");
}

/// The `chaos` reading of `--policy`: an overload policy, shed by
/// default.
fn overload_policy(opts: &Options) -> OverloadPolicy {
    match opts.policy.as_deref() {
        None => OverloadPolicy::ShedUsers,
        Some(text) => text.parse().or_exit("--policy", 2),
    }
}

fn run_chaos_cmd(opts: &Options) {
    use crate::chaos;
    let policy = overload_policy(opts);
    println!(
        "running the chaos campaign ({} DES subframes, policy {}, seed {}) …",
        opts.ctx.n_subframes.min(chaos::CHAOS_SUBFRAME_CAP),
        policy.name(),
        opts.ctx.seed,
    );
    let art = chaos::run_chaos(&opts.ctx, policy).or_exit("error", 1);
    write_trace_pair(
        opts,
        ["chaos.perfetto.json", "chaos.metrics.json"],
        [&art.perfetto_json, &art.metrics_json],
    );
    let s = &art.summary;
    println!(
        "DES ({} subframes): overruns {}, dropped subframes {}, shed jobs {}, degraded subframes {}, poisoned tasks {}, adopted jobs {}",
        art.subframes,
        s.overruns,
        s.dropped_subframes,
        s.shed_jobs,
        s.degraded_subframes,
        s.sim_poisoned_tasks,
        s.adopted_jobs,
    );
    println!(
        "pool: {} tasks expected, {} run, {} panics injected, kills {}, worker respawns {}",
        s.pool_tasks_expected, s.pool_tasks_run, s.task_panics, s.kills_injected, s.worker_respawns,
    );
    println!(
        "link: {} blocks, noise bursts {}, grid corruptions {}, delivered ok {}",
        s.link_blocks, s.noise_bursts, s.grid_corruptions, s.delivered_ok,
    );
    println!(
        "harq transmissions: {} (retransmissions {}, failures {})",
        s.harq.transmissions, s.harq.retransmissions, s.harq.failures,
    );
    println!("harq recoveries: {}", s.harq.recoveries);
    println!("lost tasks: {}", s.lost_tasks);
    println!("duplicated tasks: {}", s.duplicated_tasks);
    if !s.conserved() {
        fail(1, "chaos campaign LOST OR DUPLICATED tasks");
    }
}

fn run_soak_cmd(opts: &Options) {
    use crate::soak::{self, SoakConfig};
    use std::io::Write as _;

    let mut cfg = SoakConfig::new(
        opts.subframes_override
            .unwrap_or(if opts.quick { 2_000 } else { 20_000 }),
        opts.window.unwrap_or(1_000).max(1),
        opts.ctx.seed,
    );
    cfg.chaos = opts.chaos;
    if let Some(text) = opts.policy.as_deref() {
        cfg.policy = text.parse().or_exit("--policy", 2);
    }
    cfg.host_workers = pool_workers(opts);
    println!(
        "soaking {} subframes in windows of {} (policy {}, overload {}, chaos {}, seed {}) …",
        cfg.subframes,
        cfg.window,
        cfg.policy,
        cfg.overload.name(),
        cfg.chaos,
        cfg.seed,
    );

    // Stream each closed window into SOAK.jsonl as it happens, and echo
    // a one-line digest so a long soak shows a heartbeat.
    fs::create_dir_all(&opts.out).expect("create output directory");
    let jsonl_path = opts.out.join("SOAK.jsonl");
    let mut jsonl_file = fs::File::create(&jsonl_path).expect("create SOAK.jsonl");
    let clock_hz = opts.ctx.sim_config(lte_power::NapPolicy::NapIdle).clock_hz;
    let mut on_window = |w: &soak::SoakWindow, line: &str| {
        writeln!(jsonl_file, "{line}").expect("append SOAK.jsonl");
        let to_ms = |c: u64| c as f64 / clock_hz * 1e3;
        println!(
            "window {:>4}: {} sf, p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, misses {}, shed {}, bler {:.2}% {}",
            w.index,
            w.subframes,
            to_ms(w.latency.quantile(0.50)),
            to_ms(w.latency.quantile(0.99)),
            to_ms(w.latency.quantile(0.999)),
            w.deadline_misses,
            w.shed_jobs,
            w.ebler.total.bler_pct,
            if w.verdict.ok() { "OK" } else { "SLO-VIOLATION" },
        );
    };
    let art =
        soak::run_soak_with_stop(&cfg, Some(&mut on_window), &interrupted).or_exit("error", 1);
    drop(jsonl_file);
    println!("wrote {}", jsonl_path.display());
    write(&opts.out.join("SOAK.json"), &art.report.to_json());
    write(&opts.out.join("SOAK.om"), &art.openmetrics);
    if let Some(host) = &art.host_json {
        write(&opts.out.join("SOAK_HOST.json"), host);
    }
    let r = &art.report;
    println!(
        "soak totals: {} jobs, energy {:.1} J ({:.1} mJ/subframe), mean power {:.2} W",
        r.latency.count,
        r.energy_joules,
        1e3 * r.energy_joules / cfg.subframes.max(1) as f64,
        r.mean_power_watts,
    );
    println!(
        "EBLER: ack {:.2}%, nack {:.2}%, dtx {:.2}%, BLER {:.2}%, throughput {:.1} kbit/s avg",
        r.ebler.total.ack_pct,
        r.ebler.total.nack_pct,
        r.ebler.total.dtx_pct,
        r.ebler.total.bler_pct,
        r.ebler.total.throughput_avg_kbps,
    );
    if interrupted() {
        println!(
            "interrupted by signal: flushed complete artifacts for the {} windows that ran",
            r.windows.len(),
        );
        std::process::exit(crate::signals::EXIT_INTERRUPTED);
    }
    if r.healthy() {
        println!("SLO: all {} windows within budget", r.windows.len());
    } else {
        eprintln!(
            "SLO: {} of {} windows violated ({} violations total)",
            r.violating_windows,
            r.windows.len(),
            r.violations,
        );
        std::process::exit(1);
    }
}

fn run_serve_cmd(opts: &Options) {
    use crate::serve::{self, ServeConfig, ServeControl};
    use crate::signals;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::SystemTime;

    let ticks = opts
        .subframes_override
        .unwrap_or(if opts.quick { 200 } else { 2_000 }) as u64;
    let mut cfg = ServeConfig::new(ticks, opts.ctx.seed);
    // A real service ticks at the paper's subframe period: one
    // dispatch opportunity per millisecond. (The library default is
    // free-running for tests and drills.)
    cfg.delta = Duration::from_millis(1);
    cfg.window = opts.window.unwrap_or(40).max(1) as u64;
    cfg.workers = pool_workers(opts);
    if let Some(text) = opts.policy.as_deref() {
        cfg.policy = text.parse().or_exit("--policy", 2);
    }
    if opts.chaos {
        cfg.faults = Some(lte_fault::IngestFaults::smoke(opts.ctx.seed));
    }
    if let Some(path) = &opts.config {
        let text = fs::read_to_string(path).or_exit(&format!("cannot read {}", path.display()), 2);
        cfg.params = serve::ServeParams::parse(&text).or_exit(&path.display().to_string(), 2);
    }
    if let Some(text) = opts.traffic.as_deref() {
        cfg.params.traffic = text.parse().or_exit("--traffic", 2);
    }

    println!(
        "serving {} ticks of {} traffic ({} workers, queue {}, window {}, policy {}, chaos {}, seed {}) …",
        cfg.ticks,
        cfg.params.traffic.name(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.window,
        cfg.policy,
        cfg.faults.is_some(),
        cfg.seed,
    );

    // The monitor thread owns the outside world: it translates a
    // latched SIGINT/SIGTERM into a drain request and a changed
    // --config file into a staged hot reload, both picked up by the
    // serve loop at the next tick boundary.
    let mtime_of = |path: &Path| fs::metadata(path).ok().and_then(|m| m.modified().ok());
    let control = Arc::new(ServeControl::new());
    let monitor_stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let control = Arc::clone(&control);
        let stop = Arc::clone(&monitor_stop);
        let config_path = opts.config.clone();
        let mut last_mtime: Option<SystemTime> = config_path.as_deref().and_then(mtime_of);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if signals::termination_requested().is_some() {
                    control.request_drain();
                }
                if let Some(path) = config_path.as_deref() {
                    let mtime = mtime_of(path);
                    if mtime.is_some() && mtime != last_mtime {
                        last_mtime = mtime;
                        match fs::read_to_string(path)
                            .map_err(|e| e.to_string())
                            .and_then(|t| serve::ServeParams::parse(&t))
                        {
                            Ok(params) => {
                                println!("hot reload staged from {}", path.display());
                                control.request_reload(params);
                            }
                            Err(e) => eprintln!("hot reload skipped: {e}"),
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    let outcome = serve::run_serve(&cfg, &control).or_exit("error", 1);
    monitor_stop.store(true, Ordering::Relaxed);
    monitor.join().ok();

    write(&opts.out.join("SERVE.json"), &outcome.json);
    write(&opts.out.join("SERVE.om"), &outcome.openmetrics);
    let s = &outcome.snapshot;
    println!(
        "serve {}: {} ticks, {} arrivals, {} admitted, {} rejected ({} backpressure / {} rate-limited / {} malformed)",
        outcome.drain_reason.name(),
        outcome.ticks_run,
        s.arrivals,
        s.admitted,
        s.rejected_total(),
        s.rejected_backpressure,
        s.rejected_rate_limited,
        s.rejected_malformed,
    );
    println!(
        "  completed {} subframes ({} jobs, {} CRC pass), shed {} users, degraded {} subframes, drain-shed {}",
        s.completed_subframes,
        outcome.jobs_completed,
        outcome.crc_pass,
        s.shed_users,
        s.degraded_subframes,
        s.drain_shed_subframes,
    );
    let tier = |t: Option<u64>| t.map_or("never".to_string(), |t| format!("tick {t}"));
    println!(
        "  escalation: {} episode(s); reject {} / shed {} / degrade {}; deadline misses {}",
        outcome.episodes,
        tier(outcome.first_tier_tick[0]),
        tier(outcome.first_tier_tick[1]),
        tier(outcome.first_tier_tick[2]),
        s.deadline_misses,
    );
    println!(
        "  lifecycle: {} reload(s), {} watchdog restart(s), {} worker respawn(s), {} boosted boundaries",
        s.reloads, s.watchdog_restarts, outcome.worker_respawns, outcome.boosted_boundaries,
    );
    println!(
        "  fingerprint {:016x} ({}); drained in {:.1?} of {:.1?} total",
        outcome.fingerprint,
        if outcome.verified {
            "verified byte-identical to the serial reference"
        } else {
            "verification skipped"
        },
        outcome.drain_elapsed,
        outcome.elapsed,
    );
    if let Some(e) = &outcome.verify_error {
        fail(1, format!("golden-reference verification FAILED: {e}"));
    }
    let healthy = outcome.calm_windows_healthy();
    if healthy {
        println!(
            "SLO: all {} calm windows within budget ({} windows total)",
            outcome.windows.iter().filter(|w| !w.chaos_active).count(),
            outcome.windows.len(),
        );
    } else {
        eprintln!("SLO: a calm (chaos-free) window violated its budget");
    }
    if interrupted() {
        println!("drained on signal; artifacts are complete");
        std::process::exit(signals::EXIT_INTERRUPTED);
    }
    if !healthy {
        std::process::exit(1);
    }
}

fn run_vectors_cmd(opts: &Options) {
    use crate::conformance;
    if opts.scalar {
        lte_dsp::simd::force_scalar(true);
    }
    println!(
        "computing golden kernel vectors (dispatch: {}) …",
        lte_dsp::simd::dispatch_label()
    );
    let vectors = conformance::compute_vectors();
    for v in &vectors {
        println!("  {:24} {:016x}", v.kernel, v.hash);
    }
    let golden_path = opts
        .golden
        .clone()
        .unwrap_or_else(|| PathBuf::from(conformance::DEFAULT_GOLDEN_PATH));
    if opts.write_vectors {
        write(&golden_path, &conformance::render_golden(&vectors));
        return;
    }
    let text = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", golden_path.display());
        fail(1, "generate the golden set with 'lte-sim vectors --write'");
    });
    let golden = conformance::parse_golden(&text)
        .or_exit(&format!("cannot parse {}", golden_path.display()), 1);
    let drift = conformance::diff_vectors(&golden, &vectors);
    if drift.is_empty() {
        println!(
            "conformance: all {} kernels bit-identical to {}",
            vectors.len(),
            golden_path.display()
        );
    } else {
        for line in &drift {
            eprintln!("conformance DRIFT: {line}");
        }
        eprintln!(
            "{} kernel(s) drifted from {}",
            drift.len(),
            golden_path.display()
        );
        std::process::exit(1);
    }
}

fn run_fingerprint_cmd(opts: &Options) {
    let subframes = opts.subframes_override.unwrap_or(20);
    println!(
        "{}",
        crate::fingerprint::fingerprint_line(opts.ctx.seed, subframes)
    );
}

fn run_deploy_cmd(opts: &Options) {
    use crate::deploy::{run_deploy, DeployConfig};

    let mut cfg = DeployConfig::new(
        opts.cells.unwrap_or(2),
        opts.ues.unwrap_or(1000),
        opts.subframes_override.unwrap_or(32) as u64,
        opts.ctx.seed,
    );
    cfg.workers = pool_workers(opts);
    cfg.coupling_milli = opts.coupling_milli.unwrap_or(0);
    if let Some(text) = opts.traffic.as_deref() {
        cfg.traffic = text.parse().or_exit("--traffic", 2);
    }
    if let Some(text) = opts.cell_kind.as_deref() {
        cfg.kind = text.parse().or_exit("--cell-kind", 2);
    }

    println!(
        "deploying {} {} cells, {} UEs, {} ticks of {} traffic (coupling {}/1000, {} workers, seed {}) …",
        cfg.cells,
        cfg.kind.name(),
        cfg.ues,
        cfg.ticks,
        cfg.traffic.name(),
        cfg.coupling_milli,
        cfg.workers,
        cfg.seed,
    );
    let report = run_deploy(&cfg).or_exit("error", 1);
    write(&opts.out.join("DEPLOY.json"), &report.to_json());
    write(&opts.out.join("DEPLOY.om"), &report.openmetrics());
    let agg = &report.aggregate.total;
    println!(
        "deploy complete: fingerprint {:016x}, {} decodes ({} ack / {} nack / {} dtx), BLER {:.2}%, mean target {:.1} cores (max {})",
        report.fingerprint,
        agg.ack + agg.nack,
        agg.ack,
        agg.nack,
        agg.dtx,
        agg.bler_pct,
        report.mean_target_cores,
        report.max_target_cores,
    );
    for c in &report.per_cell {
        println!(
            "  cell {:3}: pop {:7}, offered {:6}, scheduled {:5}, deferred {:6}, fingerprint {:016x}",
            c.cell_id, c.population, c.offered, c.scheduled, c.deferred, c.fingerprint
        );
    }
}

fn run_govern_cmd(opts: &Options) {
    use crate::govern;
    use lte_obs::{MetricsRegistry, NoopRecorder, PerfettoExporter, RingRecorder};
    use lte_power::{NapPolicy, WorkloadEstimator};

    // The `govern` reading of `--policy`: one nap policy, or `all`.
    let policies: Vec<NapPolicy> = match opts.policy.as_deref() {
        None | Some("all") => NapPolicy::ALL.to_vec(),
        Some(text) => vec![text.parse().or_exit("--policy", 2)],
    };

    // Calibration: load a saved table when --calibration names an
    // existing file; otherwise fit the Fig. 11 sweep and save it when a
    // path was given.
    let estimator = match &opts.calibration {
        Some(path) if path.exists() => {
            let text = fs::read_to_string(path)
                .or_exit(&format!("cannot read calibration {}", path.display()), 1);
            let est = WorkloadEstimator::from_json(&text)
                .or_exit(&format!("cannot parse calibration {}", path.display()), 1);
            println!("loaded calibration from {}", path.display());
            est
        }
        maybe_path => {
            println!("calibrating the estimator (Fig. 11 sweep) …");
            let (_curves, est) = opts.ctx.run_calibration();
            if let Some(path) = maybe_path {
                write(path, &est.to_json());
            }
            est
        }
    };

    let metrics = MetricsRegistry::new();
    let mut report = govern::GovernReport::default();

    // DES bursts for every selected policy. The NAP+IDLE burst (or the
    // last selected one) is recorded so the governor.target counter
    // track sits next to the core occupancy tracks in the trace.
    let traced_policy = if policies.contains(&NapPolicy::NapIdle) {
        NapPolicy::NapIdle
    } else {
        *policies.last().expect("at least one policy")
    };
    let cfg = opts.ctx.sim_config(traced_policy);
    let cap = opts.ctx.n_subframes.min(govern::GOVERN_DES_SUBFRAME_CAP);
    let capacity = (cap * cfg.n_workers * 64).clamp(1024, 4_000_000);
    let recorder = RingRecorder::new(capacity);
    let mut gate_failed = false;
    // Every phase boundary polls for a latched SIGINT/SIGTERM; on
    // interruption the remaining phases are skipped and whatever ran is
    // flushed below before exiting with the interrupted status.
    'phases: {
        for &policy in &policies {
            if interrupted() {
                break 'phases;
            }
            let run = if policy == traced_policy {
                govern::run_des_governed(&opts.ctx, &estimator, policy, &recorder)
            } else {
                govern::run_des_governed(&opts.ctx, &estimator, policy, &NoopRecorder)
            };
            let slug = govern::policy_slug(policy);
            metrics.set_gauge(&format!("governor.{slug}.mean_abs_err"), run.mean_abs_err);
            metrics.set_gauge(&format!("governor.{slug}.max_abs_err"), run.max_abs_err);
            metrics.set_counter(
                &format!("governor.{slug}.deactivated_cycles"),
                run.deactivated_cycles,
            );
            metrics.set_counter(&format!("governor.{slug}.decisions"), run.subframes as u64);
            println!(
            "govern DES {}: {} subframes, activity {:.1}%, mean |err| {:.2}%, max |err| {:.2}%, deactivated {} cycles",
            run.policy,
            run.subframes,
            100.0 * run.mean_activity,
            100.0 * run.mean_abs_err,
            100.0 * run.max_abs_err,
            run.deactivated_cycles,
        );
            let pass = run.mean_abs_err < 0.10;
            println!(
                "govern gate: {} estimator mean error {:.2}% {} 10% — {}",
                run.policy,
                100.0 * run.mean_abs_err,
                if pass { "<" } else { ">=" },
                if pass { "PASS" } else { "FAIL" },
            );
            gate_failed |= !pass;
            report.des.push(run);
        }

        // Real-pool side: re-fit the Eq. 3 slopes from measured pool
        // activity, then run governed vs ungoverned under each policy and
        // require byte-identical decoded output.
        let workers = 4.min(lte_sched::host_parallelism()).max(2);
        report.pool_workers = workers;
        let delta = Duration::from_millis(2);
        if interrupted() {
            break 'phases;
        }
        println!("re-fitting Eq. 3 slopes from real pool runs ({workers} workers) …");
        let real = govern::calibrate_real(workers, delta, 8, &[25, 100]).or_exit("error", 1);
        println!(
            "  k(1, QPSK): DES {:.6} vs real {:.6} activity per PRB",
            estimator.k(1, lte_dsp::Modulation::Qpsk),
            real.k(1, lte_dsp::Modulation::Qpsk),
        );
        for &policy in &policies {
            if interrupted() {
                break 'phases;
            }
            let run = govern::run_pool_governed(workers, 30, delta, opts.ctx.seed, &real, policy)
                .or_exit("error", 1);
            let slug = govern::policy_slug(policy);
            metrics.set_counter(
                &format!("governor.pool.{slug}.parked_nanos"),
                run.parked_nanos,
            );
            metrics.set_counter(
                &format!("governor.pool.{slug}.identical"),
                u64::from(run.identical),
            );
            println!(
                "govern pool {}: {} workers, {} decisions, parked {:.2} ms, output {}",
                run.policy,
                run.workers,
                run.decisions,
                run.parked_nanos as f64 / 1e6,
                if run.identical {
                    "byte-identical"
                } else {
                    "DIVERGED"
                },
            );
            if !run.identical {
                fail(1, "governed pool output diverged from the ungoverned run");
            }
            report.pool.push(run);
        }

        // Parked-core-time demonstration: a steady low-load burst under
        // NAP+IDLE, where the Eq. 5 target sits below the worker count and
        // the surplus workers must bank real parked time.
        if interrupted() {
            break 'phases;
        }
        let low = govern::low_load_subframes(20);
        let low_run =
            govern::run_pool_governed_subframes(&low, workers, delta, &real, NapPolicy::NapIdle)
                .or_exit("error", 1);
        metrics.set_counter("governor.pool.low_load.parked_nanos", low_run.parked_nanos);
        println!(
        "govern pool NAP+IDLE low load: {} workers, parked {:.2} ms over {} subframes, output {}",
        low_run.workers,
        low_run.parked_nanos as f64 / 1e6,
        low_run.subframes,
        if low_run.identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    );
        if !low_run.identical {
            fail(1, "governed pool output diverged from the ungoverned run");
        }
        if low_run.parked_nanos == 0 {
            fail(1, "NAP+IDLE parked no worker time at low load");
        }
        report.pool.push(low_run);
    }

    let events = recorder.events();
    write_trace_pair(
        opts,
        ["govern.perfetto.json", "govern.metrics.json"],
        [
            &PerfettoExporter::new(cfg.clock_hz).export(&events, cfg.n_workers),
            &metrics.to_json(),
        ],
    );
    write(&opts.out.join("GOVERN.json"), &report.to_json());
    if interrupted() {
        println!(
            "interrupted by signal: flushed GOVERN.json with the {} DES and {} pool run(s) that completed",
            report.des.len(),
            report.pool.len(),
        );
        std::process::exit(crate::signals::EXIT_INTERRUPTED);
    }
    if gate_failed {
        fail(1, "estimator error gate failed");
    }
}

/// Parses `std::env::args` and runs the selected command. The
/// `lte-sim` binary is a thin wrapper around this.
pub fn run() {
    let opts = parse_args();
    // The long-running commands drain and flush complete artifacts on
    // SIGINT/SIGTERM (exit 3) instead of dying mid-write. Short
    // commands keep the default die-on-signal behaviour.
    if matches!(opts.command.as_str(), "serve" | "soak" | "govern") {
        crate::signals::install_termination_handlers();
    }
    // The power study needs at least one subframe.
    let power_study =
        "fig11 fig12 fig13 fig14 fig15 fig16 table1 table2 all concurrency diurnal ablation";
    if opts.ctx.n_subframes == 0 && power_study.split(' ').any(|c| c == opts.command) {
        let command = &opts.command;
        fail(
            2,
            format!("{command}: --subframes must be positive for the power study"),
        );
    }
    if let Some(row) = ARTIFACTS.iter().find(|row| row.id == opts.command) {
        return run_artifacts(&opts, std::slice::from_ref(row));
    }
    match opts.command.as_str() {
        "concurrency" => run_concurrency(&opts),
        "trace" => run_trace_cmd(&opts),
        "chaos" => run_chaos_cmd(&opts),
        "govern" => run_govern_cmd(&opts),
        "soak" => run_soak_cmd(&opts),
        "serve" => run_serve_cmd(&opts),
        "deploy" => run_deploy_cmd(&opts),
        "fingerprint" => run_fingerprint_cmd(&opts),
        "vectors" => run_vectors_cmd(&opts),
        "ablation" => run_ablations(&opts),
        "diurnal" => run_diurnal(&opts),
        "all" => run_artifacts(&opts, &ARTIFACTS),
        other => fail(
            2,
            format!("unknown command: {other}\nrun 'lte-sim --help' for the full command list"),
        ),
    }
}

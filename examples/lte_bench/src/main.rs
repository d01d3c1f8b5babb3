//! `lte_bench` — the repository's one performance yardstick.
//!
//! ```text
//! lte_bench run      [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! lte_bench trace    ...            same as `run --trace 1`
//! lte_bench compare  A B            result files, or directories of them
//! lte_bench manifest                prints /BENCHMARK.json
//! ```
//!
//! `run` measures one workload in this process and prints, as the last
//! line of standard output, one JSON object with the run's verdict and
//! metrics. Without `--workload` it runs itself once per workload, one
//! fresh process each, so set-up time, peak memory and the process-wide
//! plan and sequence caches are cold and per-workload.
//!
//! The harness drives only public functions of the workspace crates; the
//! program sees nothing but the inputs generated from `--seed`.

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::{number, quote, FlatJson, Value};
use metrics::{workload_names, END_TO_END, PER_LAYER, RUN_SECONDS};
use spans::Tracer;
use stats::{flag, headline, median, samples_beyond, worst};
use workloads::{Measured, Params};

/// Seed used when none is given: the paper's year.
const DEFAULT_SEED: u64 = 2012;
/// Where result files go unless `--out` says otherwise (inside the
/// working directory, ignored by git).
const DEFAULT_OUT: &str = ".bench_out";
/// Fresh-process set-up samples taken besides the run's own.
const EXTRA_SETUP_SAMPLES: usize = 2;
/// Stage spans written to `trace.json` (the replay records far more than
/// a trace viewer can show; totals come from all of them).
const TRACE_JSON_STAGE_EVENTS: usize = 20_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    setup_only: bool,
}

fn parse_run_args(args: &[String], trace_default: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: trace_default,
        out: PathBuf::from(DEFAULT_OUT),
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            parsed.setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => {
                if !workload_names().contains(&value) {
                    return Err(format!(
                        "unknown workload '{value}' (one of {})",
                        workload_names().join(", ")
                    ));
                }
                parsed.workload = Some(value.to_string());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(parsed)
}

/// Runs this executable again and waits for it.
fn respawn(args: &[String]) -> Result<std::process::Output, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())
}

/// Set-up time of a fresh process, seconds.
fn fresh_setup_sample(workload: &str, seed: u64) -> Result<f64, String> {
    let args = [
        "run".to_string(),
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        seed.to_string(),
        "--setup-only".into(),
    ];
    let output = respawn(&args)?;
    if !output.status.success() {
        return Err(format!("set-up sample exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "set-up sample printed no time".to_string())
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The last line of standard output: the contract with the driver.
fn verdict_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// The entries every result file ends with.
fn finish_doc(doc: &mut FlatJson, workload: &str, mode: &str, correct: bool, started: Instant) {
    doc.push("schema", Value::Str("lte-bench-v1".into()));
    doc.push("workload", Value::Str(workload.into()));
    doc.push("mode", Value::Str(mode.into()));
    doc.push("correct", Value::Num(flag(correct)));
    doc.push("host.load1_end", Value::Num(host::load_average()));
    doc.push("wall_s", Value::Num(started.elapsed().as_secs_f64()));
}

fn print_checks(checks: &[(String, bool)]) -> bool {
    for (name, ok) in checks {
        println!(
            "  check  {:<58} {}",
            name,
            if *ok { "ok" } else { "FAILED" }
        );
    }
    checks.iter().all(|(_, ok)| *ok)
}

fn run_untraced(
    workload: &str,
    p: Params,
    out_dir: &Path,
    started: Instant,
) -> Result<bool, String> {
    let mut doc = host::host_facts(p.seed, p.workers);
    let mut tracer = Tracer::new(false);
    let m: Measured = workloads::measure(workload, p, &mut tracer, started);

    let mut setup_samples = vec![m.setup_s];
    for _ in 0..EXTRA_SETUP_SAMPLES {
        setup_samples.push(fresh_setup_sample(workload, p.seed)?);
    }

    println!(
        "{workload}: seed {} | {} workers | {} rounds in {:.1} s | {} latency samples per paced pass ({} beyond p50)",
        p.seed,
        p.workers,
        m.rounds.len(),
        started.elapsed().as_secs_f64(),
        m.lat_samples,
        samples_beyond(m.lat_samples, 0.5),
    );
    let correct = print_checks(&m.checks);
    // A failed check voids the workload: every block counts as failed.
    let lost = if correct {
        m.blocks.lost
    } else {
        m.blocks.attempted
    };
    let fail_share = if correct { m.blocks.fail_share() } else { 1.0 };

    let mut verdict = Vec::new();
    for metric in &END_TO_END {
        let samples: Vec<f64> = match metric.name {
            "setup_s" => setup_samples.clone(),
            "sf_per_s" => m.rounds.iter().map(|r| r.sf_per_s).collect(),
            "lat_p50_us" => m.rounds.iter().map(|r| r.lat_p50_us).collect(),
            "cpu_ms_per_sf" => m.rounds.iter().map(|r| r.cpu_ms_per_sf).collect(),
            "peak_rss_mb" => vec![m.peak_rss_mb],
            other => unreachable!("{other} has no source"),
        };
        // Set-up is sampled in fresh processes, a few times: its headline
        // is the median. Everything else is the mean of the better rounds.
        let value = if metric.name == "setup_s" {
            median(&samples)
        } else {
            headline(&samples, metric.better)
        };
        println!(
            "  {:<14} {:>12.4} {:<4} (median {:.4}, worst {:.4}, {} samples, bound {})",
            metric.name,
            value,
            metric.unit,
            median(&samples),
            worst(&samples, metric.better),
            samples.len(),
            metric.bound,
        );
        let key = format!("e2e.{}", metric.name);
        doc.push(&key, Value::Num(value));
        doc.push(&format!("{key}.median"), Value::Num(median(&samples)));
        doc.push(
            &format!("{key}.worst"),
            Value::Num(worst(&samples, metric.better)),
        );
        doc.push(&format!("{key}.rounds"), Value::Arr(samples));
        verdict.push((metric.name, value, metric.unit));
    }
    println!(
        "  {:<14} {:>12.6} ratio ({} of {} transport blocks; {} lost)",
        "fail_share",
        fail_share,
        m.blocks.lost + m.blocks.undelivered,
        m.blocks.attempted,
        m.blocks.lost,
    );

    doc.push("fail_share", Value::Num(fail_share));
    doc.push("blocks.attempted", Value::Num(m.blocks.attempted as f64));
    doc.push("blocks.lost", Value::Num(m.blocks.lost as f64));
    doc.push(
        "blocks.undelivered",
        Value::Num(m.blocks.undelivered as f64),
    );
    doc.push("lat_samples", Value::Num(m.lat_samples as f64));
    for (name, ok) in &m.checks {
        doc.push(&format!("check.{name}"), Value::Num(flag(*ok)));
    }
    finish_doc(&mut doc, workload, "run", correct, started);
    write_file(out_dir, &format!("{workload}.json"), &doc.render())?;

    println!(
        "{}",
        verdict_line(correct, m.blocks.attempted, lost, &verdict)
    );
    Ok(correct)
}

fn run_traced(workload: &str, p: Params, out_dir: &Path, started: Instant) -> Result<bool, String> {
    let mut doc = host::host_facts(p.seed, p.workers);
    let mut tracer = Tracer::new(true);
    let layers = layers::trace(workload, p, &mut tracer);
    println!(
        "{workload}: traced run, seed {} | {} workers | {:.1} s",
        p.seed,
        p.workers,
        started.elapsed().as_secs_f64()
    );
    let correct = print_checks(&layers.checks);
    let values = layers.all();
    let mut verdict = Vec::new();
    for ((name, value), metric) in values.iter().zip(&PER_LAYER) {
        println!("  {:<42} {:>14.4} {}", name, value, metric.unit);
        doc.push(&format!("layer.{name}"), Value::Num(*value));
        verdict.push((*name, *value, metric.unit));
    }
    println!("  harness spans (self time = span minus its children):");
    for total in tracer.totals() {
        println!(
            "    {:<28} x{:<4} total {:>10.3} ms  self {:>10.3} ms",
            total.name,
            total.count,
            total.total_ns as f64 / 1e6,
            total.self_ns as f64 / 1e6,
        );
        let key = format!("span.{}", total.name);
        doc.push(&format!("{key}.count"), Value::Num(total.count as f64));
        doc.push(
            &format!("{key}.total_ms"),
            Value::Num(total.total_ns as f64 / 1e6),
        );
        doc.push(
            &format!("{key}.self_ms"),
            Value::Num(total.self_ns as f64 / 1e6),
        );
    }
    finish_doc(&mut doc, workload, "trace", correct, started);
    write_file(out_dir, &format!("{workload}.layers.json"), &doc.render())?;
    let shown = &layers.stage_events[..layers.stage_events.len().min(TRACE_JSON_STAGE_EVENTS)];
    write_file(
        out_dir,
        &format!("{workload}.trace.json"),
        &tracer.to_trace_json(workload, shown),
    )?;

    let failed = if correct {
        layers.blocks.lost
    } else {
        layers.blocks.attempted
    };
    println!(
        "{}",
        verdict_line(correct, layers.blocks.attempted, failed, &verdict)
    );
    Ok(correct)
}

/// `run` without `--workload`: every workload, one fresh process each.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for workload in workload_names() {
        let child_args = [
            "run".to_string(),
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            args.seed.to_string(),
            "--seconds".into(),
            args.seconds.to_string(),
            "--trace".into(),
            u8::from(args.trace).to_string(),
            "--out".into(),
            args.out.display().to_string(),
        ];
        let output = respawn(&child_args)?;
        print!("{}", String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            eprintln!("{workload}: exited with {}", output.status);
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn run(args: &Args, started: Instant) -> Result<bool, String> {
    let Some(workload) = args.workload.as_deref() else {
        return run_all(args);
    };
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        workers: host::bench_workers(),
    };
    if args.setup_only {
        workloads::setup_only(workload, p, &mut Tracer::new(false));
        println!("setup_s {}", started.elapsed().as_secs_f64());
        return Ok(true);
    }
    if args.trace {
        run_traced(workload, p, &args.out, started)
    } else {
        run_untraced(workload, p, &args.out, started)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    let result = match command {
        "run" => parse_run_args(rest, false).and_then(|a| run(&a, started)),
        "trace" => parse_run_args(rest, true).and_then(|a| run(&a, started)),
        "compare" => match rest {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files or directories".into()),
        },
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(
            "usage: lte_bench run|trace [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
             [--out DIR] | compare A B | manifest"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("lte_bench: {message}");
            ExitCode::from(2)
        }
    }
}

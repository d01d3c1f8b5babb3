//! Observability overhead guard: a disabled recorder must be free.
//!
//! Runs the fig. 14 workload (NAP policy over the ramp sequence) three
//! ways — recorder absent (`Simulator::new`), explicit `NoopRecorder`,
//! and a live `RingRecorder` — and prints the no-op cost relative to
//! the bare simulator. The no-op path is the default for every
//! experiment in the repo, so it must stay within noise (< 1% on this
//! workload; the enabled ring shows what full tracing costs).

use std::hint::black_box;
use std::time::Instant;

use lte_bench::bench;
use lte_obs::{Histogram, NoopRecorder, RingRecorder, Stage};
use lte_phy::trace::{StageHists, StageTimer};
use lte_power::NapPolicy;
use lte_sched::sim::Simulator;
use lte_uplink::experiments::ExperimentContext;

fn main() {
    // 200 subframes (one simulated second) of the paper's ramp.
    let ctx = ExperimentContext {
        n_subframes: 200,
        ..ExperimentContext::paper()
    };
    let subframes = ctx.subframes();
    let targets = vec![ctx.controller.max_cores; subframes.len()];
    let cfg = ctx.sim_config(NapPolicy::Nap);
    let loads = ctx.loads(&subframes, &targets);

    // One-shot comparison printed up front: mean over a fixed batch,
    // after a warmup pass so neither side pays cold caches.
    let reps = 10;
    for _ in 0..3 {
        black_box(Simulator::new(cfg).run(&loads).end_time);
    }
    let bare = {
        let start = Instant::now();
        for _ in 0..reps {
            black_box(Simulator::new(cfg).run(&loads).end_time);
        }
        start.elapsed()
    };
    let noop = {
        let start = Instant::now();
        for _ in 0..reps {
            black_box(
                Simulator::with_recorder(cfg, NoopRecorder)
                    .run(&loads)
                    .end_time,
            );
        }
        start.elapsed()
    };
    println!(
        "obs_overhead: bare {:?}, noop recorder {:?} ({:+.2}% — must stay within noise)",
        bare / reps,
        noop / reps,
        100.0 * (noop.as_secs_f64() - bare.as_secs_f64()) / bare.as_secs_f64()
    );

    // Telemetry-record gates. A single enabled `Histogram::record` is
    // two relaxed atomic adds and must stay under 50 ns; the disabled
    // stage-timer path skips even the clock read, so timing a stage
    // through it must cost within noise of the raw closure (< 1%).
    let n = 1_000_000u64;
    let record_ns = {
        let hist = Histogram::new();
        let start = Instant::now();
        for v in 0..n {
            hist.record(black_box(v.wrapping_mul(2_654_435_761) >> 12));
        }
        let ns = start.elapsed().as_nanos() as f64 / n as f64;
        black_box(hist.snapshot().count);
        ns
    };
    fn timed(n: u64, timer: &StageTimer<'_, NoopRecorder>) -> std::time::Duration {
        let start = Instant::now();
        let mut acc = 0u64;
        for v in 0..n {
            acc = timer.time(Stage::Finish, || acc.wrapping_add(black_box(v)));
        }
        black_box(acc);
        start.elapsed()
    }
    let hists = StageHists::new();
    // Warm both paths, then compare disabled vs histogram-recording.
    for _ in 0..2 {
        black_box(timed(n, &StageTimer::disabled()));
        black_box(timed(n, &StageTimer::histograms_only(&hists)));
    }
    let disabled = timed(n, &StageTimer::disabled());
    let recording = timed(n, &StageTimer::histograms_only(&hists));
    println!(
        "hist_record: enabled {record_ns:.1} ns/op (gate < 50), disabled stage timer \
         {:.2} ns/op vs recording {:.2} ns/op",
        disabled.as_nanos() as f64 / n as f64,
        recording.as_nanos() as f64 / n as f64,
    );
    assert!(
        record_ns < 50.0,
        "histogram record {record_ns:.1} ns/op breaches the 50 ns budget"
    );

    bench("obs_overhead/recorder_absent", || {
        Simulator::new(cfg).run(&loads).end_time
    });
    bench("obs_overhead/noop_recorder", || {
        Simulator::with_recorder(cfg, NoopRecorder)
            .run(&loads)
            .end_time
    });
    bench("obs_overhead/ring_recorder", || {
        let recorder = RingRecorder::new(1_000_000);
        Simulator::with_recorder(cfg, &recorder)
            .run(&loads)
            .end_time
    });
}

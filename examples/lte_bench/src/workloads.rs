//! The seven workloads: set-up, timed rounds, and the correctness checks
//! that run after (never inside) the timed passes.
//!
//! Run shape. A workload is `setup` followed by rounds until the
//! `--seconds` budget is spent. For the five workloads that have an
//! open-loop leg, a round is one closed-loop saturation pass (dispatch
//! interval zero, `2 * W` subframes in flight — `2 * W` clients that each
//! wait for a completion) immediately followed by one open-loop paced pass
//! (fixed interval, unbounded in-flight window — the paper's blind
//! dispatch, whose schedule never slows when the system does). The two
//! are interleaved so host drift hits both. `deploy3` and `des_power` are
//! batch calls with nothing to pace from outside, so their round is one
//! batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lte_uplink_repro::dsp::Modulation;
use lte_uplink_repro::model::{ParameterModel, RampModel};
use lte_uplink_repro::phy::grid::UserInput;
use lte_uplink_repro::phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_uplink_repro::power::NapPolicy;
use lte_uplink_repro::uplink::experiments::PowerStudy;
use lte_uplink_repro::uplink::perf::steady_state_subframe;
use lte_uplink_repro::uplink::{
    compute_vectors, diff_vectors, parse_golden, run_deploy, run_serve, BenchmarkConfig,
    BenchmarkRun, DeployConfig, DeployReport, ExperimentContext, ServeConfig, ServeControl,
    ServeOutcome, UplinkBenchmark,
};

use crate::host::CpuTimes;
use crate::spans::Tracer;
use crate::stats::{due_latencies_ns, percentile, to_us};

/// What every driver needs to know about this run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Measurement budget of the timed rounds.
    pub seconds: f64,
    /// Worker threads (`W`).
    pub workers: usize,
}

/// One round's end-to-end readings.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub sf_per_s: f64,
    pub lat_p50_us: f64,
    pub cpu_ms_per_sf: f64,
}

/// Transport-block accounting over the timed passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Blocks {
    /// Blocks handed to the system.
    pub attempted: u64,
    /// Blocks the system lost (shed, dropped, rejected) — a failure of the
    /// system under this load; every workload is sized so this stays 0.
    pub lost: u64,
    /// Blocks that were decoded but are not the transmitted payload
    /// (CRC failure or payload mismatch), plus grants deferred as DTX.
    /// Deterministic per seed: at the 30 dB synthesis SNR a few 4-layer
    /// 64-QAM blocks of `ramp200` fail by design, and a numerics slip
    /// raises the count.
    pub undelivered: u64,
}

impl Blocks {
    pub fn add(&mut self, other: Blocks) {
        self.attempted += other.attempted;
        self.lost += other.lost;
        self.undelivered += other.undelivered;
    }

    /// Failed over attempted in the wide sense (`core.fail_share`).
    pub fn fail_share(&self) -> f64 {
        (self.lost + self.undelivered) as f64 / self.attempted.max(1) as f64
    }
}

/// The outcome of an untraced run of one workload.
pub struct Measured {
    pub setup_s: f64,
    pub rounds: Vec<Round>,
    pub blocks: Blocks,
    /// Latency samples per paced pass (0 for the batch workloads).
    pub lat_samples: usize,
    /// `VmHWM` after the last timed round, before verification clones
    /// the inputs for the serial reference.
    pub peak_rss_mb: f64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
}

/// Runs rounds until the budget is spent: always at least one, and the
/// last one is started only if about half of it still fits.
fn timed_rounds(seconds: f64, mut round: impl FnMut() -> Round) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(round());
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / rounds.len() as f64 >= seconds {
            return rounds;
        }
    }
}

// ---------------------------------------------------------------------
// Receiver workloads: steady100, turbo100, ramp200, mtc10.
// ---------------------------------------------------------------------

/// Turbo iterations of `turbo100` (the repository's perf harness value).
const TURBO_ITERATIONS: usize = 4;
/// Where `ramp200` samples the paper's ramp: mid-ramp, so the layer and
/// modulation probabilities are about one half.
const RAMP_SEEK: usize = 17_000;
/// Distinct subframes `ramp200` draws from the ramp; passes cycle through
/// them (≈ 64 MB of inputs, far more than a private cache holds).
const RAMP_DISTINCT: usize = 60;
/// Seed of `ramp200`'s parameter model. The *shape* of the workload — who
/// is scheduled with how many PRBs, layers and which modulation — is the
/// same for every `--seed`, as it is for the other workloads; `--seed`
/// draws the channels, noise and payloads. A seeded shape would make runs
/// with different seeds incomparable: over 60 subframes the mix alone
/// moves throughput by several percent and the median latency by 20 %.
const RAMP_SHAPE_SEED: u64 = 2012;

/// Sizes of one receiver workload. Pass lengths are cut from the issue's
/// reference sizes so a round fits the run budget several times over;
/// no paced pass has fewer than 100 latency samples.
pub struct ReceiverSpec {
    pub turbo: TurboMode,
    /// Dispatch interval of the paced pass.
    pub delta: Duration,
    pub sat_len: usize,
    pub paced_len: usize,
    /// Subframes of the one warm-up pass inside set-up (long enough that
    /// set-up time is not lost in process start-up jitter).
    pub warmup_len: usize,
    /// Subframes of the serial replays in the traced run.
    pub serial_len: usize,
}

pub fn receiver_spec(workload: &str) -> Option<ReceiverSpec> {
    let decode = TurboMode::Decode {
        iterations: TURBO_ITERATIONS,
    };
    let ms = Duration::from_millis;
    Some(match workload {
        "steady100" => ReceiverSpec {
            turbo: TurboMode::Passthrough,
            delta: ms(5),
            sat_len: 150,
            paced_len: 120,
            warmup_len: 50,
            serial_len: 40,
        },
        "turbo100" => ReceiverSpec {
            turbo: decode,
            delta: ms(10),
            sat_len: 75,
            paced_len: 100,
            warmup_len: 50,
            serial_len: 20,
        },
        "ramp200" => ReceiverSpec {
            turbo: TurboMode::Passthrough,
            delta: ms(20),
            sat_len: 100,
            paced_len: 100,
            warmup_len: 50,
            serial_len: 30,
        },
        "mtc10" => ReceiverSpec {
            turbo: TurboMode::Passthrough,
            delta: ms(1),
            sat_len: 1200,
            paced_len: 600,
            warmup_len: 500,
            serial_len: 300,
        },
        _ => return None,
    })
}

/// The subframe list of a receiver workload, `n` long.
pub fn receiver_subframes(workload: &str, n: usize) -> Vec<SubframeConfig> {
    match workload {
        "ramp200" => {
            let mut model = RampModel::new(RAMP_SHAPE_SEED);
            model.seek(RAMP_SEEK);
            let distinct = model.subframes(RAMP_DISTINCT);
            distinct.iter().cycle().take(n).cloned().collect()
        }
        "mtc10" => {
            let users = (0..10)
                .map(|i| UserConfig::new(2 + i % 2, 1, Modulation::Qpsk))
                .collect();
            vec![SubframeConfig::new(users); n]
        }
        _ => vec![steady_state_subframe(); n],
    }
}

/// A set-up receiver workload: two benchmark instances over the same
/// inputs (the dispatch interval and in-flight window are fixed at
/// construction), one per pass kind.
pub struct Receiver {
    pub cell: CellConfig,
    pub spec: ReceiverSpec,
    pub subframes: Vec<SubframeConfig>,
    pub sat: UplinkBenchmark,
    pub paced: UplinkBenchmark,
}

pub fn sat_config(spec: &ReceiverSpec, seed: u64, workers: usize) -> BenchmarkConfig {
    BenchmarkConfig {
        workers,
        delta: Duration::ZERO,
        turbo: spec.turbo,
        seed,
        max_in_flight: Some(2 * workers),
        ..BenchmarkConfig::default()
    }
}

fn new_bench(
    t: &mut Tracer,
    cell: CellConfig,
    cfg: BenchmarkConfig,
    subframes: &[SubframeConfig],
) -> UplinkBenchmark {
    let mut bench = t.span("UplinkBenchmark::new", |_| UplinkBenchmark::new(cell, cfg));
    t.span("UplinkBenchmark::input_for", |_| {
        for u in subframes.iter().flat_map(|sf| &sf.users) {
            bench.input_for(u);
        }
    });
    bench
}

pub fn receiver_setup(workload: &str, p: Params, t: &mut Tracer) -> Receiver {
    let spec = receiver_spec(workload).expect("a receiver workload");
    let (seed, workers) = (p.seed, p.workers);
    t.span("setup", |t| {
        let cell = CellConfig::default();
        let n = spec.sat_len.max(spec.paced_len);
        let subframes = receiver_subframes(workload, n);
        let sat_cfg = sat_config(&spec, seed, workers);
        let mut sat = new_bench(t, cell, sat_cfg, &subframes);
        let paced_cfg = BenchmarkConfig {
            delta: spec.delta,
            max_in_flight: None,
            ..sat_cfg
        };
        let paced = new_bench(t, cell, paced_cfg, &subframes);
        let warm = &subframes[..spec.warmup_len];
        t.span("UplinkBenchmark::try_run", |_| {
            sat.try_run(warm).expect("the worker pool starts");
        });
        Receiver {
            cell,
            spec,
            subframes,
            sat,
            paced,
        }
    })
}

/// Shared inputs of one receiver subframe list, for the serial replays.
pub fn receiver_inputs(r: &mut Receiver, n: usize) -> Vec<Vec<Arc<UserInput>>> {
    r.subframes[..n]
        .iter()
        .map(|sf| sf.users.iter().map(|u| r.sat.input_for(u)).collect())
        .collect()
}

/// Counts a pass's transport blocks against the transmitted payloads.
pub fn receiver_blocks(
    bench: &mut UplinkBenchmark,
    subframes: &[SubframeConfig],
    run: &BenchmarkRun,
) -> Blocks {
    let mut b = Blocks::default();
    for (sf, row) in subframes.iter().zip(&run.results) {
        b.attempted += sf.n_users() as u64;
        if row.len() != sf.n_users() {
            // Shed users are absent from the row, so indices no longer
            // line up with the grant list: count the loss, skip matching.
            b.lost += (sf.n_users() - row.len()) as u64;
            continue;
        }
        for (user, result) in sf.users.iter().zip(row) {
            if !result.matches(&bench.input_for(user).ground_truth) {
                b.undelivered += 1;
            }
        }
    }
    b
}

/// One closed-loop saturation pass.
pub fn sat_pass(r: &mut Receiver, t: &mut Tracer) -> BenchmarkRun {
    let subframes = &r.subframes[..r.spec.sat_len];
    let sat = &mut r.sat;
    t.span("UplinkBenchmark::try_run", |_| {
        sat.try_run(subframes).expect("the worker pool starts")
    })
}

/// One open-loop paced pass with the process CPU time it consumed.
pub fn paced_pass(r: &mut Receiver, t: &mut Tracer) -> (BenchmarkRun, CpuTimes) {
    let subframes = &r.subframes[..r.spec.paced_len];
    let paced = &mut r.paced;
    let before = CpuTimes::now();
    let run = t.span("UplinkBenchmark::try_run", |_| {
        paced.try_run(subframes).expect("the worker pool starts")
    });
    (run, CpuTimes::now().since(before))
}

/// Due-time latencies of a paced pass, microseconds.
pub fn paced_latencies_us(r: &Receiver, run: &BenchmarkRun) -> Vec<f64> {
    let delta_ns = r.spec.delta.as_nanos() as u64;
    to_us(&due_latencies_ns(&run.completions_ns, delta_ns))
}

fn measure_receiver(workload: &str, p: Params, t: &mut Tracer, started: Instant) -> Measured {
    let mut r = receiver_setup(workload, p, t);
    let setup_s = started.elapsed().as_secs_f64();
    let mut blocks = Blocks::default();
    let mut last_paced = None;
    let (sat_len, paced_len) = (r.spec.sat_len, r.spec.paced_len);
    let rounds = timed_rounds(p.seconds, || {
        let sat = sat_pass(&mut r, t);
        let (paced, cpu) = paced_pass(&mut r, t);
        let lat = paced_latencies_us(&r, &paced);
        let round = Round {
            sf_per_s: sat_len as f64 / sat.elapsed.as_secs_f64(),
            lat_p50_us: percentile(&lat, 0.5),
            cpu_ms_per_sf: 1e3 * cpu.total_s() / paced_len as f64,
        };
        blocks.add(receiver_blocks(&mut r.sat, &r.subframes[..sat_len], &sat));
        blocks.add(receiver_blocks(
            &mut r.paced,
            &r.subframes[..paced_len],
            &paced,
        ));
        last_paced = Some(paced);
        round
    });
    let peak_rss_mb = crate::host::peak_rss_mb();

    // Byte-identity of one whole pass with the serial reference.
    let paced = last_paced.expect("at least one round ran");
    let subframes = &r.subframes[..paced_len];
    let bench = &mut r.paced;
    let verified = t.span("UplinkBenchmark::verify", |_| {
        bench.verify(subframes, &paced)
    });
    if let Err(e) = &verified {
        eprintln!("{workload}: serial/parallel divergence: {e}");
    }
    Measured {
        setup_s,
        rounds,
        blocks,
        lat_samples: paced.completions_ns.len(),
        peak_rss_mb,
        checks: vec![(
            "parallel == serial reference".into(),
            verified.is_ok() && paced.completions_ns.len() == paced_len,
        )],
    }
}

// ---------------------------------------------------------------------
// serve_fb
// ---------------------------------------------------------------------

const SERVE_WARMUP_TICKS: u64 = 200;
pub const SERVE_SAT_TICKS: u64 = 400;
pub const SERVE_PACED_TICKS: u64 = 200;
pub const SERVE_DELTA: Duration = Duration::from_millis(2);
const SERVE_VERIFY_TICKS: u64 = 200;

pub fn serve_campaign(
    p: Params,
    t: &mut Tracer,
    ticks: u64,
    delta: Duration,
    verify: bool,
) -> (ServeOutcome, CpuTimes) {
    let cfg = ServeConfig {
        delta,
        workers: p.workers,
        verify,
        ..ServeConfig::new(ticks, p.seed)
    };
    let before = CpuTimes::now();
    let outcome = t.span("run_serve", |_| {
        run_serve(&cfg, &ServeControl::new()).expect("the serve campaign completes")
    });
    (outcome, CpuTimes::now().since(before))
}

pub fn serve_blocks(o: &ServeOutcome) -> Blocks {
    let s = &o.snapshot;
    Blocks {
        attempted: o.jobs_completed + s.shed_users,
        // Whole refused subframes count once each: their users were
        // never enumerated.
        lost: s.shed_users + s.rejected_total() + s.drain_shed_subframes,
        undelivered: o.jobs_completed - o.crc_pass,
    }
}

pub fn serve_setup(p: Params, t: &mut Tracer) {
    t.span("setup", |t| {
        serve_campaign(p, t, SERVE_WARMUP_TICKS, Duration::ZERO, false);
    });
}

fn measure_serve(p: Params, t: &mut Tracer, started: Instant) -> Measured {
    serve_setup(p, t);
    let setup_s = started.elapsed().as_secs_f64();
    let mut blocks = Blocks::default();
    let rounds = timed_rounds(p.seconds, || {
        let (sat, _) = serve_campaign(p, t, SERVE_SAT_TICKS, Duration::ZERO, false);
        let (paced, cpu) = serve_campaign(p, t, SERVE_PACED_TICKS, SERVE_DELTA, false);
        blocks.add(serve_blocks(&sat));
        blocks.add(serve_blocks(&paced));
        Round {
            sf_per_s: sat.ticks_run as f64 / sat.elapsed.as_secs_f64(),
            // Dispatch to completion: the only latency the service
            // shows from outside.
            lat_p50_us: paced.latency_p50_ns as f64 / 1e3,
            cpu_ms_per_sf: 1e3 * cpu.total_s() / paced.ticks_run.max(1) as f64,
        }
    });
    let peak_rss_mb = crate::host::peak_rss_mb();
    let (checked, _) = serve_campaign(p, t, SERVE_VERIFY_TICKS, Duration::ZERO, true);
    if let Some(e) = &checked.verify_error {
        eprintln!("serve_fb: serial/parallel divergence: {e}");
    }
    Measured {
        setup_s,
        rounds,
        blocks,
        lat_samples: SERVE_PACED_TICKS as usize,
        peak_rss_mb,
        checks: vec![(
            "serve output == serial reference".into(),
            checked.verified && checked.verify_error.is_none(),
        )],
    }
}

// ---------------------------------------------------------------------
// deploy3
// ---------------------------------------------------------------------

pub const DEPLOY_CELLS: usize = 3;
const DEPLOY_UES: usize = 10_000;
const DEPLOY_COUPLING_MILLI: u32 = 5;
const DEPLOY_WARMUP_TICKS: u64 = 6;
pub const DEPLOY_TICKS: u64 = 20;

pub fn deploy_batch(
    p: Params,
    t: &mut Tracer,
    ticks: u64,
    workers: usize,
) -> (DeployReport, f64, CpuTimes) {
    let cfg = DeployConfig {
        workers,
        coupling_milli: DEPLOY_COUPLING_MILLI,
        ..DeployConfig::new(DEPLOY_CELLS, DEPLOY_UES, ticks, p.seed)
    };
    let before = CpuTimes::now();
    let start = Instant::now();
    let report = t.span("run_deploy", |_| {
        run_deploy(&cfg).expect("the deployment campaign completes")
    });
    let wall = start.elapsed().as_secs_f64();
    (report, wall, CpuTimes::now().since(before))
}

pub fn deploy_blocks(report: &DeployReport) -> Blocks {
    let total = &report.aggregate.total;
    Blocks {
        attempted: total.ack + total.nack + total.dtx,
        lost: 0,
        // Grants deferred past the cell's budget are DTX at the
        // measurement box: the scheduler's doing, fixed by the seed.
        undelivered: total.nack + total.dtx,
    }
}

pub fn deploy_setup(p: Params, t: &mut Tracer) {
    t.span("setup", |t| {
        deploy_batch(p, t, DEPLOY_WARMUP_TICKS, p.workers);
    });
}

fn measure_deploy(p: Params, t: &mut Tracer, started: Instant) -> Measured {
    deploy_setup(p, t);
    let setup_s = started.elapsed().as_secs_f64();
    let mut blocks = Blocks::default();
    let mut fingerprint = 0;
    let workers = p.workers;
    let rounds = timed_rounds(p.seconds, || {
        let (report, wall, cpu) = deploy_batch(p, t, DEPLOY_TICKS, workers);
        blocks.add(deploy_blocks(&report));
        fingerprint = report.fingerprint;
        let cell_sf = (DEPLOY_CELLS as u64 * DEPLOY_TICKS) as f64;
        Round {
            sf_per_s: cell_sf / wall,
            // The tick period the deployment sustains: every cell's
            // subframe of a tick is done when the tick is.
            lat_p50_us: 1e6 * wall / DEPLOY_TICKS as f64,
            cpu_ms_per_sf: 1e3 * cpu.total_s() / cell_sf,
        }
    });
    let peak_rss_mb = crate::host::peak_rss_mb();
    let (serial, _, _) = deploy_batch(p, t, DEPLOY_TICKS, 1);
    Measured {
        setup_s,
        rounds,
        blocks,
        lat_samples: 0,
        peak_rss_mb,
        checks: vec![(
            format!("fingerprint at {workers} workers == at 1 worker"),
            serial.fingerprint == fingerprint,
        )],
    }
}

// ---------------------------------------------------------------------
// des_power
// ---------------------------------------------------------------------

/// Simulated subframes of one study (cut from the issue's 4000 so the
/// run budget holds several studies).
pub const DES_SUBFRAMES: usize = 2000;
const DES_WARMUP_SUBFRAMES: usize = 400;

pub fn des_context(seed: u64, n_subframes: usize) -> ExperimentContext {
    ExperimentContext {
        seed,
        n_subframes,
        cal_subframes: 16,
        cal_prb_step: 50,
        ..ExperimentContext::paper()
    }
}

pub fn des_study(p: Params, t: &mut Tracer, n_subframes: usize) -> (PowerStudy, f64, CpuTimes) {
    let context = des_context(p.seed, n_subframes);
    let before = CpuTimes::now();
    let start = Instant::now();
    let study = t.span("run_power_study", |_| context.run_power_study());
    let wall = start.elapsed().as_secs_f64();
    (study, wall, CpuTimes::now().since(before))
}

/// Table II total power in watts: NONAP, IDLE, NAP, NAP+IDLE, gating.
pub fn table2_watts(study: &PowerStudy) -> [f64; 5] {
    [
        study.run(NapPolicy::NoNap).mean_total,
        study.run(NapPolicy::Idle).mean_total,
        study.run(NapPolicy::Nap).mean_total,
        study.run(NapPolicy::NapIdle).mean_total,
        study.gated_mean,
    ]
}

/// The paper's ordering: NONAP > IDLE >= NAP > NAP+IDLE > gating.
pub fn table2_ordered(w: &[f64; 5]) -> bool {
    w[0] > w[1] && w[1] >= w[2] && w[2] > w[3] && w[3] > w[4]
}

pub fn des_setup(p: Params, t: &mut Tracer) {
    t.span("setup", |t| {
        des_study(p, t, DES_WARMUP_SUBFRAMES);
    });
}

fn measure_des(p: Params, t: &mut Tracer, started: Instant) -> Measured {
    des_setup(p, t);
    let setup_s = started.elapsed().as_secs_f64();
    let mut studies = 0u64;
    let mut ordered = true;
    let rounds = timed_rounds(p.seconds, || {
        let (study, wall, cpu) = des_study(p, t, DES_SUBFRAMES);
        studies += 1;
        ordered &= table2_ordered(&table2_watts(&study));
        // Every policy run simulates the whole sequence.
        let simulated = (NapPolicy::ALL.len() * DES_SUBFRAMES) as f64;
        Round {
            sf_per_s: simulated / wall,
            lat_p50_us: 1e6 * wall,
            cpu_ms_per_sf: 1e3 * cpu.total_s() / simulated,
        }
    });
    Measured {
        setup_s,
        rounds,
        blocks: Blocks {
            attempted: studies,
            lost: 0,
            undelivered: 0,
        },
        lat_samples: 0,
        peak_rss_mb: crate::host::peak_rss_mb(),
        checks: vec![(
            "Table II ordering NONAP > IDLE >= NAP > NAP+IDLE > gating".into(),
            ordered,
        )],
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Set-up alone, for the fresh-process set-up samples.
pub fn setup_only(workload: &str, p: Params, t: &mut Tracer) {
    match workload {
        "serve_fb" => serve_setup(p, t),
        "deploy3" => deploy_setup(p, t),
        "des_power" => des_setup(p, t),
        _ => drop(receiver_setup(workload, p, t)),
    }
}

/// The untraced run: set-up, timed rounds, then the correctness checks.
/// `started` is the process start, so `setup_s` covers everything a user
/// waits for before the first timed pass.
pub fn measure(workload: &str, p: Params, t: &mut Tracer, started: Instant) -> Measured {
    let mut m = match workload {
        "serve_fb" => measure_serve(p, t, started),
        "deploy3" => measure_deploy(p, t, started),
        "des_power" => measure_des(p, t, started),
        _ => measure_receiver(workload, p, t, started),
    };
    m.checks.push(conformance_check());
    m
}

/// Recomputes the golden kernel vectors and diffs them against the
/// committed set.
fn conformance_check() -> (String, bool) {
    let name = "kernel vectors == conformance/golden.json".to_string();
    let golden =
        std::fs::read_to_string(lte_uplink_repro::uplink::conformance::DEFAULT_GOLDEN_PATH)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_golden(&text));
    match golden {
        Ok(golden) => {
            let drift = diff_vectors(&golden, &compute_vectors());
            for d in &drift {
                eprintln!("conformance drift: {d}");
            }
            (name, drift.is_empty())
        }
        Err(e) => {
            eprintln!("conformance: cannot read the golden vectors: {e}");
            (name, false)
        }
    }
}

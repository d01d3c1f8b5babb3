//! The traced run: per-layer numbers measured from the harness by timing
//! calls into public functions, or read from counters public structs
//! already return. No end-to-end number ever comes from here.
//!
//! Every traced run times the workload-independent kernels (a couple of
//! seconds in all), then does the part specific to its workload. A metric
//! the workload does not exercise stays 0.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lte_uplink_repro::dsp::crc::CRC24A;
use lte_uplink_repro::dsp::fft::FftPlanner;
use lte_uplink_repro::dsp::interleave::{subblock_cached, Interleaver};
use lte_uplink_repro::dsp::llr::demap_block_into;
use lte_uplink_repro::dsp::matched_filter::matched_filter;
use lte_uplink_repro::dsp::rate_match::RateMatcher;
use lte_uplink_repro::dsp::scrambling::descramble_llrs;
use lte_uplink_repro::dsp::turbo::{TurboDecoder, TurboEncoder, TurboLlrs, TurboWorkspace};
use lte_uplink_repro::dsp::zadoff_chu::ReferenceSequence;
use lte_uplink_repro::dsp::{arena, Complex32, Modulation, Xoshiro256};
use lte_uplink_repro::fault::admission::EscalationLadder;
use lte_uplink_repro::model::trace::Trace;
use lte_uplink_repro::model::{ParameterModel, RampModel};
use lte_uplink_repro::obs::{Event, Histogram, Recorder, RingRecorder, Stage};
use lte_uplink_repro::phy::combiner::{combine_symbol_into, CombinerWeights, MmseScratch};
use lte_uplink_repro::phy::estimator::{estimate_path_into, estimate_slot};
use lte_uplink_repro::phy::grid::UserInput;
use lte_uplink_repro::phy::params::{CellConfig, TurboMode, UserConfig};
use lte_uplink_repro::phy::receiver::{
    demodulate_user_into, finish_user_with_arena, process_user_pooled, process_user_traced,
    UserScratch,
};
use lte_uplink_repro::phy::trace::StageTimer;
use lte_uplink_repro::phy::tx::synthesize_user_with_mode;
use lte_uplink_repro::power::{
    governed_boundary, CoreController, NapPolicy, PolicyGovernor, UserLoad, WorkloadEstimator,
};
use lte_uplink_repro::sched::{IngestQueue, TaskPool};
use lte_uplink_repro::uplink::perf::steady_state_subframe;
use lte_uplink_repro::uplink::{BenchmarkConfig, BenchmarkRun, UplinkBenchmark};

use crate::host::CpuTimes;
use crate::metrics::{PER_LAYER, STAGES};
use crate::spans::Tracer;
use crate::stats::{flag, generator_lateness_ns, percentile, to_us};
use crate::workloads::{
    deploy_batch, deploy_blocks, deploy_setup, des_setup, des_study, paced_latencies_us,
    paced_pass, receiver_blocks, receiver_inputs, receiver_setup, receiver_subframes, sat_config,
    sat_pass, serve_blocks, serve_campaign, serve_setup, table2_watts, Blocks, Params,
    DEPLOY_TICKS, DES_SUBFRAMES, SERVE_DELTA, SERVE_PACED_TICKS, SERVE_SAT_TICKS,
};

/// Per-layer readings, keyed by metric name.
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    /// Receiver stage spans of the traced replay, for `trace.json`.
    pub stage_events: Vec<Event>,
    /// Correctness checks made along the way.
    pub checks: Vec<(String, bool)>,
    /// Transport blocks of the workload's passes.
    pub blocks: Blocks,
}

impl Layers {
    fn new() -> Self {
        Layers {
            values: Vec::new(),
            stage_events: Vec::new(),
            checks: Vec::new(),
            blocks: Blocks::default(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let known = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        self.values.push((known.name, value));
    }

    /// Every catalogue metric in catalogue order, 0 where not measured.
    pub fn all(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = self.values.iter().find(|(n, _)| *n == m.name);
                (m.name, v.map_or(0.0, |&(_, v)| v))
            })
            .collect()
    }
}

/// Nanoseconds per call of `f`: after a warm-up call, the batch size is
/// grown until a batch lasts about `BATCH`, then the fastest of seven
/// batches is taken (interference only ever slows a batch down).
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const BATCH: Duration = Duration::from_millis(6);
    f();
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = start.elapsed();
        if took >= BATCH || iters >= 1 << 30 {
            break;
        }
        let scale = BATCH.as_secs_f64() / took.as_secs_f64().max(1e-9);
        iters = ((iters as f64 * scale * 1.1).ceil() as u64).max(iters + 1);
    }
    (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn random_block(n: usize, rng: &mut Xoshiro256) -> Vec<Complex32> {
    (0..n)
        .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
        .collect()
}

fn random_llrs(n: usize, rng: &mut Xoshiro256) -> Vec<f32> {
    (0..n).map(|_| 8.0 * (rng.next_f32() - 0.5)).collect()
}

/// The 50-PRB 2-layer 64-QAM user of the steady-state subframe: the
/// single largest share of `steady100`.
fn big_user() -> UserConfig {
    UserConfig::new(50, 2, Modulation::Qam64)
}

fn dsp_kernels(out: &mut Layers, seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let planner = FftPlanner::new();

    for (name, n, forward) in [
        ("dsp.fft.fwd600_ns", 600, true),
        ("dsp.fft.inv600_ns", 600, false),
        ("dsp.fft.fwd24_ns", 24, true),
    ] {
        let plan = if forward {
            planner.forward(n)
        } else {
            planner.inverse(n)
        };
        let data = random_block(n, &mut rng);
        let mut work = data.clone();
        let mut scratch = vec![Complex32::ZERO; n];
        out.set(
            name,
            ns_per_call(|| {
                // Transform a fresh copy: repeated in-place transforms
                // would grow without bound.
                work.copy_from_slice(&data);
                plan.process_with_scratch(&mut work, &mut scratch);
                black_box(work[0]);
            }),
        );
    }

    // One bit per byte, the receiver's representation.
    let bits_len = big_user().bits_per_subframe();
    let bits: Vec<u8> = (0..bits_len).map(|_| (rng.next_u64() & 1) as u8).collect();
    let per_k = 1e3 / bits_len as f64;
    out.set(
        "dsp.crc.ns_per_kbit",
        per_k
            * ns_per_call(|| {
                black_box(CRC24A.compute_bits(black_box(&bits)));
            }),
    );

    let llrs = random_llrs(bits_len, &mut rng);
    let interleaver = subblock_cached(bits_len);
    let mut deinterleaved = vec![0f32; bits_len];
    out.set(
        "dsp.interleave.invert_ns_per_kllr",
        per_k
            * ns_per_call(|| {
                interleaver.invert_into(black_box(&llrs), &mut deinterleaved);
                black_box(deinterleaved[0]);
            }),
    );
    let mut scrambled = llrs.clone();
    out.set(
        "dsp.scrambling.descramble_ns_per_kllr",
        per_k
            * ns_per_call(|| {
                descramble_llrs(black_box(&mut scrambled), 0x1234_5678);
            }),
    );

    // One full-size code block gathered out of its allocation.
    let matcher = RateMatcher::new(6144);
    let e = matcher.buffer_len();
    let gather_src = random_llrs(e, &mut rng);
    let gather = Interleaver::subblock(e);
    let mut matched = TurboLlrs::default();
    out.set(
        "dsp.rate_match.gather_ns_per_kllr",
        1e3 / e as f64
            * ns_per_call(|| {
                matcher.accumulate_llrs_gather_into(
                    black_box(&gather_src),
                    gather.inverse_permutation(),
                    &mut matched,
                );
            }),
    );

    let symbols = random_block(600, &mut rng);
    let mut demapped = Vec::new();
    for (name, modulation) in [
        ("dsp.llr.maxlog_qam64_ns_per_sym", Modulation::Qam64),
        ("dsp.llr.maxlog_qpsk_ns_per_sym", Modulation::Qpsk),
    ] {
        out.set(
            name,
            ns_per_call(|| {
                demapped.clear();
                demap_block_into(modulation, black_box(&symbols), 0.1, &mut demapped);
            }) / symbols.len() as f64,
        );
    }

    let reference = ReferenceSequence::new(600, 7);
    let received = random_block(600, &mut rng);
    let mut filtered = vec![Complex32::ZERO; 600];
    out.set(
        "dsp.matched_filter.ns_per_sc",
        ns_per_call(|| {
            matched_filter(black_box(&received), reference.samples(), &mut filtered);
        }) / 600.0,
    );

    for (name, k) in [
        ("dsp.turbo.decode_k6144_us", 6144),
        ("dsp.turbo.decode_k40_us", 40),
    ] {
        let bits: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
        let llrs = TurboEncoder::new(k).encode(&bits).to_llrs(4.0);
        let decoder = TurboDecoder::new(k, 4);
        let mut ws = TurboWorkspace::new();
        let mut decoded = Vec::new();
        out.set(
            name,
            ns_per_call(|| {
                decoder.decode_into(black_box(&llrs), &mut ws, &mut decoded);
            }) / 1e3,
        );
    }
}

fn phy_kernels(out: &mut Layers, seed: u64) {
    let cell = CellConfig::default();
    let user = big_user();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let planner = FftPlanner::new();
    let input = synthesize_user_with_mode(&cell, &user, TurboMode::Passthrough, 30.0, &mut rng);
    let mut scratch = UserScratch::new();
    let mut llrs = Vec::new();
    out.set(
        "phy.receiver.demodulate_us",
        ns_per_call(|| {
            demodulate_user_into(&cell, black_box(&input), &planner, &mut scratch, &mut llrs);
        }) / 1e3,
    );
    out.set(
        "phy.receiver.finish_us",
        ns_per_call(|| {
            let result = finish_user_with_arena(
                &cell,
                &input,
                TurboMode::Passthrough,
                black_box(&llrs),
                &mut scratch.arena,
                &mut scratch.turbo,
            );
            scratch.arena.recycle_u8(black_box(result).payload);
        }) / 1e3,
    );
    let mut path = vec![Complex32::ZERO; user.subcarriers()];
    out.set(
        "phy.estimator.path_us",
        ns_per_call(|| {
            estimate_path_into(
                &cell,
                black_box(&input),
                0,
                0,
                0,
                &planner,
                &mut scratch.arena,
                &mut path,
            );
        }) / 1e3,
    );
    let estimate = estimate_slot(&cell, &input, 0, &planner);
    let mut weights = CombinerWeights::empty();
    let mut mmse = MmseScratch::new();
    out.set(
        "phy.combiner.weights_us",
        ns_per_call(|| {
            weights.compute(black_box(&estimate), input.noise_var, &mut mmse);
        }) / 1e3,
    );
    let mut combined = Vec::new();
    out.set(
        "phy.combiner.symbol_us",
        ns_per_call(|| {
            combine_symbol_into(
                black_box(&input),
                &weights,
                0,
                0,
                0,
                &planner,
                &mut scratch.arena,
                &mut combined,
            );
        }) / 1e3,
    );
    out.set(
        "phy.tx.synthesize_us_per_prb",
        ns_per_call(|| {
            black_box(synthesize_user_with_mode(
                &cell,
                &user,
                TurboMode::Passthrough,
                30.0,
                &mut rng,
            ));
        }) / 1e3
            / user.prbs as f64,
    );
}

fn small_kernels(out: &mut Layers, p: Params) {
    const POOL_TASKS: usize = 100_000;
    let pool = TaskPool::new(p.workers).expect("the worker pool starts");
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..POOL_TASKS {
            pool.spawn(|| ());
        }
        pool.wait_all();
        best = best.min(start.elapsed().as_nanos() as f64 / POOL_TASKS as f64);
    }
    out.set("sched.pool.task_ns", best);

    let subframe = steady_state_subframe();
    let loads: Vec<UserLoad> = subframe.users.iter().map(UserLoad::from).collect();
    let estimator = WorkloadEstimator::from_slopes([[0.002, 0.003, 0.004]; 4]);
    let controller = CoreController {
        max_cores: p.workers,
        min_cores: 1,
        margin: 1,
    };
    let mut governor = PolicyGovernor::new(NapPolicy::NapIdle, estimator.clone(), controller);
    let mut substrate = &pool;
    let mut boundary = 0usize;
    out.set(
        "power.governor.boundary_ns",
        ns_per_call(|| {
            boundary += 1;
            black_box(governed_boundary(
                &mut substrate,
                &mut governor,
                boundary,
                &loads,
            ));
        }),
    );
    drop(pool);
    out.set(
        "power.estimator.subframe_ns",
        ns_per_call(|| {
            black_box(estimator.subframe_activity(black_box(&subframe)));
        }),
    );

    let queue: IngestQueue<u64> = IngestQueue::new(16);
    out.set(
        "sched.ingest.push_pop_ns",
        ns_per_call(|| {
            let _ = queue.try_push(black_box(7));
            black_box(queue.try_pop());
        }),
    );

    let mut model = RampModel::new(p.seed);
    out.set(
        "model.ramp.next_subframe_ns",
        ns_per_call(|| {
            model.seek(17_000);
            black_box(model.next_subframe());
        }),
    );
    let ramp = receiver_subframes("ramp200", 100);
    let trace = Trace::from_configs(&ramp);
    out.set("model.ramp.users_per_sf", trace.mean_users());
    out.set("model.ramp.prbs_per_sf", trace.mean_total_prbs());
    let mut distinct: Vec<&UserConfig> = ramp.iter().flat_map(|sf| &sf.users).collect();
    distinct.sort_by_key(|u| (u.prbs, u.layers, u.modulation.bits_per_symbol()));
    distinct.dedup();
    out.set("model.ramp.distinct_inputs", distinct.len() as f64);

    let hist = Histogram::new();
    let mut v = 0u64;
    out.set(
        "obs.hist.record_ns",
        ns_per_call(|| {
            v = v.wrapping_add(2_654_435_761);
            hist.record(black_box(v >> 12));
        }),
    );
    let ring = RingRecorder::new(1 << 16);
    out.set(
        "obs.ring.record_ns",
        ns_per_call(|| {
            ring.record(black_box(Event::StageSpan {
                stage: Stage::Fft,
                start_ns: 1,
                end_ns: 2,
            }));
        }),
    );

    let ladder = EscalationLadder::default();
    let mut fill = 0.0f64;
    out.set(
        "fault.escalation.decide_ns",
        ns_per_call(|| {
            fill = (fill + 0.013) % 1.0;
            black_box(ladder.decide(black_box(fill)));
        }),
    );
}

/// Passes per leg of the traced run; the least disturbed one counts.
const REPEATS: usize = 3;

/// Seconds the serial pipeline takes over `inputs`, best of a few.
fn serial_seconds(
    cell: &CellConfig,
    inputs: &[Vec<Arc<UserInput>>],
    mode: TurboMode,
    planner: &FftPlanner,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for input in inputs.iter().flatten() {
            black_box(process_user_pooled(cell, input, mode, planner));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn pool_counters(out: &mut Layers, run: &BenchmarkRun, n: usize) {
    let sf = n as f64;
    out.set(
        "sched.pool.tasks_per_sf",
        run.pool.executed_tasks as f64 / sf,
    );
    out.set(
        "sched.pool.steals_per_ksf",
        1e3 * run.pool.steals as f64 / sf,
    );
    out.set("sched.pool.parks_per_ksf", 1e3 * run.pool.parks as f64 / sf);
    out.set(
        "sched.pool.lifo_hit_share",
        run.pool.lifo_slot_hits as f64 / run.pool.executed_tasks.max(1) as f64,
    );
    out.set("sched.pool.activity", run.activity);
    out.set(
        "sched.pool.busy_ms_per_sf_sat",
        1e3 * run.busy.as_secs_f64() / sf,
    );
}

fn trace_receiver(out: &mut Layers, workload: &str, p: Params, t: &mut Tracer) {
    let mut r = receiver_setup(workload, p, t);
    let arena_before = arena::stats();
    let cpu_before = CpuTimes::now();
    let (sat_len, paced_len, serial_len) = (r.spec.sat_len, r.spec.paced_len, r.spec.serial_len);
    let (cell, mode) = (r.cell, r.spec.turbo);

    // Serial baseline, then the same subframes with every stage timed.
    let inputs = receiver_inputs(&mut r, serial_len);
    let planner = FftPlanner::new();
    let serial_s = serial_seconds(&cell, &inputs, mode, &planner);
    out.set("phy.serial_sf_per_s", serial_len as f64 / serial_s);
    for input in inputs.iter().flatten() {
        black_box(process_user_traced(
            &cell,
            input,
            mode,
            &planner,
            &StageTimer::disabled(),
        ));
    }
    let (traced_s, events, recorded) = (0..REPEATS)
        .map(|_| {
            let recorder = RingRecorder::new(1 << 20);
            let timer = StageTimer::new(&recorder);
            let start = Instant::now();
            for input in inputs.iter().flatten() {
                black_box(process_user_traced(&cell, input, mode, &planner, &timer));
            }
            let took = start.elapsed().as_secs_f64();
            (took, recorder.events(), recorder.total_recorded())
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("REPEATS > 0");
    for stage in STAGES {
        let ns: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::StageSpan {
                    stage: s,
                    start_ns,
                    end_ns,
                } if s.name() == stage => Some(end_ns - start_ns),
                _ => None,
            })
            .sum();
        out.set(
            &format!("phy.stage.{stage}.us_per_sf"),
            ns as f64 / 1e3 / serial_len as f64,
        );
    }
    out.set("obs.trace_overhead_share", traced_s / serial_s - 1.0);
    out.set("obs.trace.spans", recorded as f64);
    out.set("obs.trace.dropped", (recorded - events.len() as u64) as f64);
    out.stage_events = events;

    // The pool: W workers against one worker against the serial loop.
    // A shared host loses a core for a while every so often, so each leg
    // is the least disturbed of a few passes.
    let sat = (0..REPEATS)
        .map(|_| sat_pass(&mut r, t))
        .min_by_key(|run| run.elapsed)
        .expect("REPEATS > 0");
    let sat_rate = sat_len as f64 / sat.elapsed.as_secs_f64();
    pool_counters(out, &sat, sat_len);
    let mut blocks = receiver_blocks(&mut r.sat, &r.subframes[..sat_len], &sat);
    let one_cfg = BenchmarkConfig {
        max_in_flight: Some(2),
        ..sat_config(&r.spec, p.seed, 1)
    };
    let mut one = UplinkBenchmark::new(cell, one_cfg);
    let short = &r.subframes[..sat_len.min(2 * serial_len)];
    let one_elapsed = (0..=REPEATS)
        .map(|_| one.try_run(short).expect("the worker pool starts").elapsed)
        .min()
        .expect("REPEATS > 0");
    let one_rate = short.len() as f64 / one_elapsed.as_secs_f64();
    drop(one);
    out.set(
        "sched.pool.tax",
        1.0 - one_rate / (serial_len as f64 / serial_s),
    );
    out.set("sched.pool.speedup", sat_rate / one_rate);

    // Paced passes for the tails the end-to-end set leaves out.
    let delta_ns = r.spec.delta.as_nanos() as u64;
    let (paced, lat) = (0..REPEATS)
        .map(|_| {
            let (run, _) = paced_pass(&mut r, t);
            let lat = paced_latencies_us(&r, &run);
            (run, lat)
        })
        .min_by(|a, b| percentile(&a.1, 0.9).total_cmp(&percentile(&b.1, 0.9)))
        .expect("REPEATS > 0");
    let late = to_us(&generator_lateness_ns(
        &paced.completions_ns,
        &paced.latencies_ns,
        delta_ns,
    ));
    let limit_us = 3.0 * delta_ns as f64 / 1e3;
    let missed = lat.iter().filter(|&&l| l > limit_us).count() + (paced_len - lat.len());
    out.set("core.bench.lat_p90_us", percentile(&lat, 0.90));
    out.set("core.bench.lat_p99_us", percentile(&lat, 0.99));
    out.set("core.bench.miss_share", missed as f64 / paced_len as f64);
    out.set("core.bench.gen_late_p99_us", percentile(&late, 0.99));
    out.set(
        "sched.pool.busy_ms_per_sf_paced",
        1e3 * paced.busy.as_secs_f64() / paced_len as f64,
    );
    blocks.add(receiver_blocks(
        &mut r.paced,
        &r.subframes[..paced_len],
        &paced,
    ));
    out.set("core.fail_share", blocks.fail_share());
    out.blocks = blocks;

    let cpu = CpuTimes::now().since(cpu_before);
    out.set("core.cpu_sys_share", cpu.sys_share());
    let arena_now = arena::stats();
    let (fresh, reused) = (
        arena_now.fresh - arena_before.fresh,
        arena_now.reused - arena_before.reused,
    );
    out.set(
        "dsp.arena.reuse_share",
        reused as f64 / (fresh + reused).max(1) as f64,
    );

    let verified = {
        let subframes = &r.subframes[..paced_len];
        let bench = &mut r.paced;
        t.span("UplinkBenchmark::verify", |_| {
            bench.verify(subframes, &paced)
        })
    };
    out.set("core.fingerprint_match", flag(verified.is_ok()));
    out.checks
        .push(("parallel == serial reference".into(), verified.is_ok()));
}

fn trace_serve(out: &mut Layers, p: Params, t: &mut Tracer) {
    serve_setup(p, t);
    let (sat, _) = serve_campaign(p, t, SERVE_SAT_TICKS, Duration::ZERO, false);
    let (paced, cpu) = serve_campaign(p, t, SERVE_PACED_TICKS, SERVE_DELTA, true);
    let s = &paced.snapshot;
    out.set("core.serve.lat_p99_us", paced.latency_p99_ns as f64 / 1e3);
    out.set(
        "core.serve.admitted_share",
        s.admitted as f64 / s.arrivals.max(1) as f64,
    );
    out.set("core.serve.shed_users", s.shed_users as f64);
    out.set("core.serve.degraded_sf", s.degraded_subframes as f64);
    out.set("core.serve.deadline_misses", s.deadline_misses as f64);
    out.set(
        "core.serve.drain_ms",
        1e3 * paced.drain_elapsed.as_secs_f64(),
    );
    out.set(
        "core.serve.boosted_boundaries",
        paced.boosted_boundaries as f64,
    );
    out.set("core.cpu_sys_share", cpu.sys_share());
    let mut blocks = serve_blocks(&sat);
    blocks.add(serve_blocks(&paced));
    out.set("core.fail_share", blocks.fail_share());
    out.blocks = blocks;
    let ok = paced.verified && paced.verify_error.is_none();
    out.set("core.fingerprint_match", flag(ok));
    out.checks
        .push(("serve output == serial reference".into(), ok));
}

fn trace_deploy(out: &mut Layers, p: Params, t: &mut Tracer) {
    deploy_setup(p, t);
    let mut fastest = |workers| {
        (0..REPEATS)
            .map(|_| deploy_batch(p, t, DEPLOY_TICKS, workers))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("REPEATS > 0")
    };
    let (wide, wide_wall, cpu) = fastest(p.workers);
    let (one, one_wall, _) = fastest(1);
    out.set("core.deploy.speedup", one_wall / wide_wall);
    out.set("core.cpu_sys_share", cpu.sys_share());

    // Computed, not measured: synthesis time of one full-buffer cell-tick
    // (the scheduler grants the 3-user palette round-robin up to the
    // 10-user cap: 4 wide users, 3 of 12 PRB, 3 of 4 PRB) over the wall
    // time of a tick, from the report's grant count.
    let mut rng = Xoshiro256::seed_from_u64(p.seed);
    let cell = CellConfig::with_antennas(2);
    let mut synth_us = |prbs, layers, modulation| {
        let user = UserConfig::new(prbs, layers, modulation);
        ns_per_call(|| {
            black_box(synthesize_user_with_mode(
                &cell,
                &user,
                TurboMode::Passthrough,
                30.0,
                &mut rng,
            ));
        }) / 1e3
    };
    let wide_us: f64 = [16, 20, 25]
        .iter()
        .map(|&prbs| synth_us(prbs, 2, Modulation::Qam16))
        .sum::<f64>()
        / 3.0;
    let per_grant_us = (4.0 * wide_us
        + 3.0 * synth_us(12, 1, Modulation::Qpsk)
        + 3.0 * synth_us(4, 1, Modulation::Qpsk))
        / 10.0;
    let grants: u64 = wide.per_cell.iter().map(|c| c.scheduled).sum();
    out.set(
        "core.deploy.synth_share_est",
        per_grant_us * grants as f64 / 1e6 / wide_wall,
    );

    out.blocks = deploy_blocks(&wide);
    out.set("core.fail_share", out.blocks.fail_share());
    let same = wide.fingerprint == one.fingerprint;
    out.set("core.fingerprint_match", flag(same));
    out.checks.push((
        format!("fingerprint at {} workers == at 1 worker", p.workers),
        same,
    ));
}

fn trace_des(out: &mut Layers, p: Params, t: &mut Tracer) {
    des_setup(p, t);
    let (study, _, _) = des_study(p, t, DES_SUBFRAMES);
    let watts = table2_watts(&study);
    for (name, w) in [
        "power.table2.nonap_w",
        "power.table2.idle_w",
        "power.table2.nap_w",
        "power.table2.nap_idle_w",
        "power.table2.gating_w",
    ]
    .into_iter()
    .zip(watts)
    {
        out.set(name, w);
    }
    out.set(
        "power.est_err_mean_pct",
        100.0 * study.validation.mean_abs_err,
    );
    out.set(
        "power.est_err_max_pct",
        100.0 * study.validation.max_abs_err,
    );

    // The simulator alone, on the same ramp loads under NONAP.
    let context = crate::workloads::des_context(p.seed, DES_SUBFRAMES);
    let subframes = context.subframes();
    let full = vec![context.controller.max_cores; subframes.len()];
    let start = Instant::now();
    let run = t.span("run_policy", |_| {
        context.run_policy(NapPolicy::NoNap, &subframes, &full)
    });
    out.set(
        "sched.sim.sim_sf_per_s",
        DES_SUBFRAMES as f64 / start.elapsed().as_secs_f64(),
    );
    let cfg = context.sim_config(NapPolicy::NoNap);
    out.set(
        "sched.sim.lat_p99_cycles",
        run.report.latency_percentile(99) as f64,
    );
    out.set("sched.sim.mean_activity", run.report.mean_activity(&cfg));
    out.blocks.attempted = 1;
    let ordered = crate::workloads::table2_ordered(&watts);
    out.set("core.fingerprint_match", flag(ordered));
    out.checks.push((
        "Table II ordering NONAP > IDLE >= NAP > NAP+IDLE > gating".into(),
        ordered,
    ));
}

/// The traced run of one workload.
pub fn trace(workload: &str, p: Params, t: &mut Tracer) -> Layers {
    let mut out = Layers::new();
    // The workload first, so its set-up sees a cold process like the
    // untraced run's does; the kernels afterwards.
    match workload {
        "serve_fb" => trace_serve(&mut out, p, t),
        "deploy3" => trace_deploy(&mut out, p, t),
        "des_power" => trace_des(&mut out, p, t),
        _ => trace_receiver(&mut out, workload, p, t),
    }
    let nproc = lte_uplink_repro::sched::host_parallelism();
    out.set("sched.pool.workers_effective", p.workers.min(nproc) as f64);
    dsp_kernels(&mut out, p.seed);
    phy_kernels(&mut out, p.seed);
    small_kernels(&mut out, p);
    out
}

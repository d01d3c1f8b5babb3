//! Cross-crate randomized invariant tests: the DSP substrate, the
//! receiver pipeline, the estimator algebra and the simulator, exercised
//! over deterministically drawn configurations.
//!
//! These were originally written with `proptest`; the build environment
//! has no network access, so they now draw cases from the repo's own
//! [`Xoshiro256`] with fixed seeds — same invariants, bit-reproducible
//! case lists, no external dependency.

use lte_uplink_repro::dsp::fft::{dft_naive, Direction, FftPlan};
use lte_uplink_repro::dsp::interleave::Interleaver;
use lte_uplink_repro::dsp::turbo::{TurboDecoder, TurboEncoder};
use lte_uplink_repro::dsp::{crc::CRC24A, Complex32, Modulation, Xoshiro256};
use lte_uplink_repro::phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_uplink_repro::phy::receiver::process_user;
use lte_uplink_repro::phy::tx::synthesize_user;
use lte_uplink_repro::power::estimator::WorkloadEstimator;
use lte_uplink_repro::power::NapPolicy;
use lte_uplink_repro::sched::sim::{SimConfig, Simulator, SubframeLoad};

/// Draws `cases` parameter tuples from a seeded stream and runs `f`.
fn for_cases(cases: usize, seed: u64, mut f: impl FnMut(&mut Xoshiro256, usize)) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for case in 0..cases {
        f(&mut rng, case);
    }
}

fn draw(rng: &mut Xoshiro256, lo: u64, hi_inclusive: u64) -> u64 {
    lo + rng.next_below(hi_inclusive - lo + 1)
}

fn draw_modulation(rng: &mut Xoshiro256) -> Modulation {
    Modulation::ALL[rng.next_below(3) as usize]
}

#[test]
fn fft_round_trip_any_smooth_size() {
    for_cases(24, 0xF0F0, |rng, _| {
        let prbs = draw(rng, 1, 40) as usize;
        let n = 12 * prbs;
        let original: Vec<Complex32> = (0..n)
            .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
            .collect();
        let mut data = original.clone();
        FftPlan::forward(n).process(&mut data);
        FftPlan::inverse(n).process(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert!((*a - *b).abs() < 1e-3, "n={n}");
        }
    });
}

#[test]
fn fft_matches_naive_dft() {
    for_cases(24, 0xD1D1, |rng, _| {
        let n = draw(rng, 1, 64) as usize;
        let input: Vec<Complex32> = (0..n)
            .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
            .collect();
        let mut fast = input.clone();
        FftPlan::forward(n).process(&mut fast);
        let slow = dft_naive(&input, Direction::Forward);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-3, "n={n}: {a:?} vs {b:?}");
        }
    });
}

#[test]
fn interleaver_is_a_bijection() {
    for_cases(24, 0xB1B1, |rng, _| {
        let n = draw(rng, 1, 4096) as usize;
        let il = Interleaver::subblock(n);
        let data: Vec<u32> = (0..n as u32).collect();
        let mixed = il.apply(&data);
        let mut sorted = mixed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, data, "permutation must preserve the set (n={n})");
        assert_eq!(il.invert(&mixed), data, "n={n}");
    });
}

#[test]
fn crc_detects_random_corruption() {
    for_cases(24, 0xC4C4, |rng, _| {
        let len = draw(rng, 25, 399) as usize;
        let flips = draw(rng, 1, 7) as usize;
        let mut bits: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 1) as u8).collect();
        CRC24A.append_bits(&mut bits);
        assert!(CRC24A.check_bits(&bits));
        // Flip `flips` distinct positions.
        let mut positions: Vec<usize> = (0..flips)
            .map(|_| rng.next_below(bits.len() as u64) as usize)
            .collect();
        positions.sort_unstable();
        positions.dedup();
        for &p in &positions {
            bits[p] ^= 1;
        }
        assert!(
            !CRC24A.check_bits(&bits),
            "corruption at {positions:?} missed"
        );
    });
}

#[test]
fn turbo_round_trips_any_tabulated_size() {
    for_cases(16, 0x7B07, |rng, _| {
        let sizes = lte_uplink_repro::dsp::turbo::tabulated_block_sizes();
        let idx = rng.next_below(20) as usize;
        let k = sizes[idx % sizes.len()].min(512); // keep tests fast
        let k = lte_uplink_repro::dsp::turbo::nearest_block_size(k);
        let bits: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
        let code = TurboEncoder::new(k).encode(&bits);
        let out = TurboDecoder::new(k, 3).decode(&code.to_llrs(5.0));
        assert_eq!(out, bits, "k={k}");
    });
}

#[test]
fn receiver_decodes_any_valid_user_on_clean_channel() {
    for_cases(12, 0x5EED, |rng, _| {
        let prbs = draw(rng, 2, 20) as usize;
        let layers = draw(rng, 1, 2) as usize;
        let modulation = draw_modulation(rng);
        let cell = CellConfig::with_antennas(4);
        let user = UserConfig::new(prbs, layers, modulation);
        let input = synthesize_user(&cell, &user, 45.0, rng);
        let result = process_user(&cell, &input, TurboMode::Passthrough);
        assert!(
            result.matches(&input.ground_truth),
            "{prbs} PRBs x{layers} {modulation} failed"
        );
    });
}

#[test]
fn estimator_is_additive_and_monotonic() {
    for_cases(24, 0xE571, |rng, _| {
        let prbs_a = draw(rng, 2, 100) as usize;
        let prbs_b = draw(rng, 2, 100) as usize;
        let layers = draw(rng, 1, 4) as usize;
        let modulation = draw_modulation(rng);
        // With any positive slopes, Eq. 4 is additive in users and
        // monotone in PRBs (below the clamp).
        let est = WorkloadEstimator::from_slopes([[1e-4; 3]; 4]);
        let a = SubframeConfig::new(vec![UserConfig::new(prbs_a, layers, modulation)]);
        let b = SubframeConfig::new(vec![UserConfig::new(prbs_b, layers, modulation)]);
        let ab = SubframeConfig::new(vec![
            UserConfig::new(prbs_a, layers, modulation),
            UserConfig::new(prbs_b, layers, modulation),
        ]);
        let sum = est.subframe_activity(&a) + est.subframe_activity(&b);
        assert!((est.subframe_activity(&ab) - sum.min(1.0)).abs() < 1e-12);
    });
}

#[test]
fn simulator_conserves_work() {
    for_cases(24, 0x51A1, |rng, case| {
        let n_jobs = draw(rng, 1, 5) as usize;
        let units = draw(rng, 200, 4_999);
        let subframes = draw(rng, 1, 7) as usize;
        let target = draw(rng, 2, 7) as usize;
        let policy = NapPolicy::ALL[case % 4];
        let cfg = SimConfig {
            n_workers: 8,
            dispatch_period: 50_000,
            steal_latency: 100,
            task_overhead: 50,
            wake_period: 10_000,
            clock_hz: 700.0e6,
            nap: policy.mode(),
        };
        let loads: Vec<SubframeLoad> = (0..subframes)
            .map(|_| SubframeLoad {
                jobs: (0..n_jobs)
                    .map(|_| lte_uplink_repro::sched::SimJob {
                        est_tasks: vec![units; 4],
                        weights_cost: units / 2,
                        combine_tasks: vec![units; 6],
                        finish_cost: units,
                    })
                    .collect(),
                active_target: target,
            })
            .collect();
        let report = Simulator::new(cfg).run(&loads);
        // Every job completes.
        assert_eq!(report.jobs_total, n_jobs * subframes);
        assert_eq!(report.job_latencies.len(), n_jobs * subframes);
        // Busy time covers at least the raw work.
        let busy: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
        let work: u64 = loads
            .iter()
            .flat_map(|l| &l.jobs)
            .map(|j| j.total_cycles())
            .sum();
        assert!(busy >= work, "busy {busy} < work {work}");
        // And never exceeds work plus maximal per-task overheads.
        let tasks = (n_jobs * subframes) as u64 * (4 + 1 + 6 + 1);
        assert!(busy <= work + tasks * (cfg.task_overhead + cfg.steal_latency));
    });
}

#[test]
fn pool_conserves_tasks_under_seeded_panics() {
    use lte_uplink_repro::fault::FaultPlan;
    use lte_uplink_repro::sched::{silence_injected_panics, InjectedPanic, PoolHandle, TaskPool};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One task of a two-level fan-out: it marks its own run, spawns its
    /// children (a root spawns `fan[0]` mids, a mid `fan[1]` leaves),
    /// then panics if the plan says so — after the spawns, so a poisoned
    /// parent strands none of its children.
    struct Node {
        handle: PoolHandle,
        plan: Arc<FaultPlan>,
        runs: Arc<Vec<AtomicU32>>,
        sf: usize,
        /// First plan index of this root's tasks within the subframe.
        base: usize,
        /// First slot of this root's tasks in `runs`.
        slot: usize,
        fan: [usize; 2],
    }
    impl Node {
        fn run(self: Arc<Self>, id: usize, level: usize) {
            self.runs[self.slot + id].fetch_add(1, Ordering::SeqCst);
            if level < 2 {
                // Ids: root 0, mids 1..=fan[0], then each mid's leaves.
                let first = if level == 0 {
                    1
                } else {
                    1 + self.fan[0] + (id - 1) * self.fan[1]
                };
                for child in first..first + self.fan[level] {
                    let node = Arc::clone(&self);
                    self.handle.spawn(move || node.run(child, level + 1));
                }
            }
            if self.plan.task_panics(self.sf, self.base + id) {
                std::panic::panic_any(InjectedPanic);
            }
        }
    }

    silence_injected_panics();
    for_cases(6, 0xFA17, |rng, case| {
        let workers = draw(rng, 2, 4) as usize;
        let subframes = draw(rng, 4, 12) as usize;
        let roots = draw(rng, 2, 4) as usize;
        let fan = [draw(rng, 2, 4) as usize, draw(rng, 1, 4) as usize];
        let plan = Arc::new(FaultPlan {
            task_panic_permille: 150,
            worker_kills: draw(rng, 1, 3) as usize,
            ..FaultPlan::quiet(0xFA17 + case as u64)
        });
        let per_root = 1 + fan[0] + fan[0] * fan[1];
        let per_sf = roots * per_root;
        let runs: Arc<Vec<AtomicU32>> =
            Arc::new((0..subframes * per_sf).map(|_| AtomicU32::new(0)).collect());
        let pool = TaskPool::new(workers).expect("spawn pool");
        let (mut planned, mut kills) = (0u64, 0u64);
        for sf in 0..subframes {
            if plan.worker_kill_at(sf, subframes, workers).is_some() {
                pool.inject_worker_kill();
                kills += 1;
            }
            for root in 0..roots {
                let base = root * per_root;
                planned += (0..per_root)
                    .filter(|&id| plan.task_panics(sf, base + id))
                    .count() as u64;
                let node = Arc::new(Node {
                    handle: pool.handle(),
                    plan: Arc::clone(&plan),
                    runs: Arc::clone(&runs),
                    sf,
                    base,
                    slot: sf * per_sf + base,
                    fan,
                });
                pool.spawn(move || node.run(0, 0));
            }
            pool.wait_all();
        }
        let expected = (subframes * per_sf) as u64;
        for (slot, n) in runs.iter().enumerate() {
            assert_eq!(
                n.load(Ordering::SeqCst),
                1,
                "task {slot} must run exactly once (case {case})"
            );
        }
        assert_eq!(
            pool.poisoned_tasks(),
            planned,
            "every seeded panic is caught and accounted (case {case})"
        );
        assert_eq!(
            pool.executed_tasks(),
            expected + kills,
            "the kill tasks run too (case {case})"
        );
        // `wait_all` covered the kill tasks; each respawn is counted by
        // the worker's supervisor a moment after its kill is released.
        assert!(
            kills > 0,
            "the plan must actually kill workers (case {case})"
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.worker_respawns() < kills && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            pool.worker_respawns(),
            kills,
            "every killed worker respawns, once (case {case})"
        );
    });
}

#[test]
fn rate_matching_round_trips_at_mother_rate_or_below() {
    for_cases(16, 0x4A7E, |rng, _| {
        use lte_uplink_repro::dsp::rate_match::RateMatcher;
        let sizes = lte_uplink_repro::dsp::turbo::tabulated_block_sizes();
        let k_idx = rng.next_below(10) as usize;
        let extra_frac = rng.next_below(100) as usize;
        let k = sizes[k_idx % sizes.len()].min(256);
        let k = lte_uplink_repro::dsp::turbo::nearest_block_size(k);
        let bits: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
        let code = TurboEncoder::new(k).encode(&bits);
        let rm = RateMatcher::new(k);
        // E from exactly the mother-code size up to 2x (repetition).
        let e = rm.buffer_len() + extra_frac * rm.buffer_len() / 100;
        let tx = rm.match_bits(&code, e);
        assert_eq!(tx.len(), e);
        let llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 4.0 } else { -4.0 })
            .collect();
        let out = TurboDecoder::new(k, 4).decode(&rm.accumulate_llrs(&llrs));
        assert_eq!(out, bits, "k={k} e={e}");
    });
}

#[test]
fn scrambling_round_trips_any_block() {
    for_cases(16, 0x5C4A, |rng, _| {
        use lte_uplink_repro::dsp::scrambling::{descramble_llrs, scramble_bits};
        let len = draw(rng, 1, 1999) as usize;
        let c_init = rng.next_below(0x7FFF_FFFF) as u32;
        let bits: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut tx = bits.clone();
        scramble_bits(&mut tx, c_init);
        let mut llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        descramble_llrs(&mut llrs, c_init);
        let rx: Vec<u8> = llrs.iter().map(|&l| (l < 0.0) as u8).collect();
        assert_eq!(rx, bits, "len={len} c_init={c_init}");
    });
}

#[test]
fn segmentation_round_trips_any_transport_size() {
    for_cases(16, 0x5E69, |rng, _| {
        use lte_uplink_repro::dsp::segmentation::Segmentation;
        let b = draw(rng, 30, 29_999) as usize;
        let bits: Vec<u8> = (0..b).map(|_| (rng.next_u64() & 1) as u8).collect();
        let seg = Segmentation::segment(&bits);
        let (out, ok) = seg.desegment(&seg.blocks);
        assert!(ok, "b={b}");
        assert_eq!(out, bits, "b={b}");
    });
}

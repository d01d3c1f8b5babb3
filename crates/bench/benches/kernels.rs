//! Micro-benchmarks of the DSP kernels the receiver pipeline is built
//! from: FFTs across LTE sizes, the matched filter, soft demapping,
//! MMSE weights, turbo decoding, and the full serial per-user receive.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lte_dsp::fft::{FftPlan, FftPlanner};
use lte_dsp::llr::demap_block;
use lte_dsp::matched_filter::matched_filter;
use lte_dsp::turbo::{TurboDecoder, TurboEncoder};
use lte_dsp::zadoff_chu::ReferenceSequence;
use lte_dsp::{Complex32, Modulation, Xoshiro256};
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::process_user_pooled;
use lte_phy::tx::synthesize_user;

fn random_block(n: usize, seed: u64) -> Vec<Complex32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for prbs in [2usize, 10, 50, 100, 200] {
        let n = 12 * prbs;
        let plan = FftPlan::forward(n);
        let data = random_block(n, n as u64);
        let mut scratch = vec![Complex32::ZERO; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut work = data.clone();
                plan.process_with_scratch(&mut work, &mut scratch);
                black_box(work[0])
            })
        });
    }
    group.finish();
}

fn bench_matched_filter(c: &mut Criterion) {
    let n = 1200;
    let reference = ReferenceSequence::new(n, 7);
    let received = random_block(n, 3);
    let mut out = vec![Complex32::ZERO; n];
    c.bench_function("matched_filter_1200", |b| {
        b.iter(|| {
            matched_filter(&received, reference.samples(), &mut out);
            black_box(out[0])
        })
    });
}

fn bench_demap(c: &mut Criterion) {
    let symbols = random_block(1200, 9);
    let mut group = c.benchmark_group("soft_demap_1200");
    for m in Modulation::ALL {
        group.bench_function(m.to_string(), |b| {
            b.iter(|| black_box(demap_block(m, &symbols, 0.1)))
        });
    }
    group.finish();
}

fn bench_turbo(c: &mut Criterion) {
    let k = 1024;
    let mut rng = Xoshiro256::seed_from_u64(5);
    let bits: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
    let encoder = TurboEncoder::new(k);
    let code = encoder.encode(&bits);
    let llrs = code.to_llrs(4.0);
    c.bench_function("turbo_encode_1024", |b| {
        b.iter(|| black_box(encoder.encode(&bits)))
    });
    let decoder = TurboDecoder::new(k, 5);
    c.bench_function("turbo_decode_1024_5it", |b| {
        b.iter(|| black_box(decoder.decode(&llrs)))
    });
}

fn bench_full_user(c: &mut Criterion) {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    let mut group = c.benchmark_group("serial_user_receive");
    group.sample_size(20);
    for (prbs, layers) in [(10usize, 1usize), (50, 2), (100, 4)] {
        let user = UserConfig::new(prbs, layers, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let input = synthesize_user(&cell, &user, 30.0, &mut rng);
        group.bench_function(format!("{prbs}prb_{layers}layer"), |b| {
            b.iter(|| {
                black_box(process_user_pooled(
                    &cell,
                    &input,
                    TurboMode::Passthrough,
                    &planner,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_matched_filter,
    bench_demap,
    bench_turbo,
    bench_full_user
);
criterion_main!(benches);

//! End-to-end throughput of the serial receiver body across the
//! steady-state user mix (`lte_uplink::perf::steady_state_subframe`).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::prewarm_subblock;
use lte_dsp::Xoshiro256;
use lte_phy::params::{CellConfig, TurboMode};
use lte_phy::receiver::{process_user_pooled, UserScratch};
use lte_phy::tx::{prewarm_references, synthesize_user};
use lte_uplink::perf::steady_state_subframe;

fn bench_user_receive(c: &mut Criterion) {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    let mut group = c.benchmark_group("user_receive");
    for user in steady_state_subframe().users {
        let mut rng = Xoshiro256::seed_from_u64(42);
        let input = synthesize_user(&cell, &user, 35.0, &mut rng);
        planner.prewarm([user.prbs]);
        prewarm_subblock([user.bits_per_subframe()]);
        prewarm_references(&cell, &user);
        let label = format!("{}prb_{}l_{}", user.prbs, user.layers, user.modulation);
        group.bench_with_input(BenchmarkId::new("pooled", &label), &label, |b, _| {
            b.iter(|| {
                let result = process_user_pooled(&cell, &input, TurboMode::Passthrough, &planner);
                let crc_ok = result.crc_ok;
                UserScratch::with(|s| s.arena.recycle_u8(result.payload));
                black_box(crc_ok)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_user_receive);
criterion_main!(benches);

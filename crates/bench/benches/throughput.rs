//! End-to-end throughput of the serial receiver body across the
//! steady-state user mix the `lte-sim perf` harness uses.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::prewarm_subblock;
use lte_dsp::{Modulation, Xoshiro256};
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::{process_user_pooled, UserScratch};
use lte_phy::tx::{prewarm_references, synthesize_user};

/// The same 100-PRB user mix `lte-sim perf` replays each subframe.
const STEADY_STATE_USERS: [(usize, usize, Modulation); 4] = [
    (25, 2, Modulation::Qam16),
    (10, 1, Modulation::Qpsk),
    (50, 2, Modulation::Qam64),
    (15, 4, Modulation::Qam16),
];

fn bench_user_receive(c: &mut Criterion) {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    let mut group = c.benchmark_group("user_receive");
    for (prbs, layers, modulation) in STEADY_STATE_USERS {
        let user = UserConfig::new(prbs, layers, modulation);
        let mut rng = Xoshiro256::seed_from_u64(42);
        let input = synthesize_user(&cell, &user, 35.0, &mut rng);
        planner.prewarm([user.prbs]);
        prewarm_subblock([user.bits_per_subframe()]);
        prewarm_references(&cell, &user);
        let label = format!("{prbs}prb_{layers}l_{modulation}");
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

//! Task-granularity scaling: one subframe of the steady-state 100-PRB
//! user mix dispatched to the work-stealing pool two ways —
//!
//! * **per_user** — one task per user, the pre-PR4 decomposition: four
//!   coarse tasks, so at most four workers can help regardless of how
//!   wide the pool is;
//! * **per_antenna_layer** — the fine-grained task graph
//!   ([`lte_uplink::benchmark::spawn_user_graph`]): channel estimation
//!   per antenna×layer, combining per symbol×layer and a decode join,
//!   dozens of stealable tasks per user.
//!
//! On a single-core host the two mainly differ by graph overhead, which
//! is exactly what this bench keeps honest; with real parallelism the
//! fine decomposition is what lets the pool fill.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lte_dsp::fft::FftPlanner;
use lte_dsp::Xoshiro256;
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, TurboMode};
use lte_phy::receiver::{process_user_pooled, UserScratch};
use lte_sched::TaskPool;
use lte_uplink::benchmark::spawn_user_graph;
use lte_uplink::perf::steady_state_subframe;

fn bench_task_granularity(c: &mut Criterion) {
    let cell = CellConfig::default();
    let planner = Arc::new(FftPlanner::new());
    let mut rng = Xoshiro256::seed_from_u64(42);
    let inputs: Vec<Arc<UserInput>> = steady_state_subframe()
        .users
        .iter()
        .map(|user| Arc::new(lte_phy::tx::synthesize_user(&cell, user, 35.0, &mut rng)))
        .collect();

    let workers = lte_sched::host_parallelism();
    let pool = TaskPool::new(workers).expect("spawn bench pool");
    let handle = pool.handle();

    let mut group = c.benchmark_group("task_granularity");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("per_user", workers), &workers, |b, _| {
        b.iter(|| {
            for input in &inputs {
                let input = Arc::clone(input);
                let planner = Arc::clone(&planner);
                handle.spawn(Box::new(move || {
                    let result =
                        process_user_pooled(&cell, &input, TurboMode::Passthrough, &planner);
                    let crc_ok = result.crc_ok;
                    UserScratch::with(|s| s.arena.recycle_u8(result.payload));
                    black_box(crc_ok);
                }));
            }
            pool.wait_all();
        })
    });
    group.bench_with_input(
        BenchmarkId::new("per_antenna_layer", workers),
        &workers,
        |b, _| {
            b.iter(|| {
                for input in &inputs {
                    spawn_user_graph(
                        &handle,
                        &cell,
                        input,
                        TurboMode::Passthrough,
                        &planner,
                        false,
                        Box::new(|result| {
                            black_box(result.crc_ok);
                        }),
                    );
                }
                pool.wait_all();
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_task_granularity);
criterion_main!(benches);

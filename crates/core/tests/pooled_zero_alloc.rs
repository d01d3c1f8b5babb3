//! Regression guard for the zero-allocation rule on the pooled path.
//!
//! DESIGN §9 says the steady-state receive path allocates nothing, and
//! `lte-phy`'s `zero_alloc` test proves it for the serial receiver body.
//! This test proves it for the path every driver times: the
//! `Dispatcher`'s recycled per-user task graphs on the work-stealing
//! pool, driven through `UplinkBenchmark::run`.
//!
//! A counting [`GlobalAlloc`] counts on *every* thread. Each case runs N
//! subframes and then 2N over the same warm benchmark, so what a run
//! pays once — worker threads, the FFT planner, the graph nodes' first
//! use — cancels, and the extra N subframes may allocate only what the
//! run keeps plus each row's record, named in [`extra_allocations`] and
//! counted exactly. At one worker the count is exact; at two, the graph
//! nodes' warm-up depends on how many users the workers overlap, within
//! a stated bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lte_dsp::Modulation;
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_uplink::perf::steady_state_subframe;
use lte_uplink::{BenchmarkConfig, UplinkBenchmark};

/// Forwards to the system allocator, counting every fresh, zeroed and
/// reallocating call, whichever thread makes it.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: forwarded with the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: forwarded with the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: forwarded with the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Subframes of the shorter run; the longer one has twice as many. At
/// least four, so that each list that grows a row at a time doubles
/// exactly once more in the longer run.
const N: usize = 8;

/// Allocations a graph node can cost before it is warm, for a subframe
/// of `shapes` distinct user shapes: the node, its estimate and LLR
/// buffers and two slots' weights (5); growing those four each time a
/// larger user takes the node (4 per shape beyond the first); and its
/// share of the node list's own growth (1).
fn node_allocations(shapes: usize) -> u64 {
    6 + 4 * (shapes as u64 - 1)
}

/// Allocations of a `Vec` of a small type that grows by pushing to `len`
/// elements: room for four, then a doubling each time it fills.
fn pushed(len: usize) -> u64 {
    let (mut capacity, mut allocations) = (4, 1);
    while capacity < len {
        capacity *= 2;
        allocations += 1;
    }
    allocations
}

/// What N more subframes of `users` users may allocate: each row's
/// record and kept results, each user's payload, and one more doubling
/// of the three lists that grow by a row at a time.
fn extra_allocations(users: usize) -> u64 {
    let per_row = [
        // `try_run` builds it before the clock starts.
        ("the subframe's input list", 1),
        ("the dispatcher's row record", 1),
        ("the row record's user table", 1),
        ("the result slots `finish` hands back", 1),
        ("the row `BenchmarkRun::results` keeps", pushed(users)),
    ];
    let per_user = [("the payload `BenchmarkRun::results` keeps", 1)];
    let doubled = [
        "the dispatcher's row list",
        "`BenchmarkRun::latencies_ns`",
        "`BenchmarkRun::completions_ns`",
    ];
    let row: u64 = per_row.iter().map(|(_, n)| n).sum::<u64>()
        + users as u64 * per_user.iter().map(|(_, n)| n).sum::<u64>();
    N as u64 * row + doubled.len() as u64
}

/// Allocations of one `run` of `n` copies of `subframe`.
fn run_allocations(bench: &mut UplinkBenchmark, subframe: &SubframeConfig, n: usize) -> u64 {
    let subframes = vec![subframe.clone(); n];
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let run = bench.run(&subframes);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let users = subframe.n_users();
    assert!(
        run.results.iter().all(|row| row.len() == users),
        "every user of every subframe is delivered"
    );
    allocations
}

/// The three receiver workloads' shapes: `steady100` pass-through,
/// `turbo100` with four turbo iterations, and `mtc10`'s ten 2–3 PRB QPSK
/// users.
fn shapes() -> [(&'static str, SubframeConfig, TurboMode); 3] {
    let mtc = (0..10)
        .map(|i| UserConfig::new(2 + i % 2, 1, Modulation::Qpsk))
        .collect();
    [
        ("steady100", steady_state_subframe(), TurboMode::Passthrough),
        (
            "turbo100",
            steady_state_subframe(),
            TurboMode::Decode { iterations: 4 },
        ),
        ("mtc10", SubframeConfig::new(mtc), TurboMode::Passthrough),
    ]
}

#[test]
fn pooled_subframes_allocate_only_what_the_run_keeps() {
    for workers in [1, 2] {
        for (name, subframe, turbo) in shapes() {
            // The saturation pass's configuration: no pacing, a window
            // of two subframes per worker.
            let window = 2 * workers;
            let cfg = BenchmarkConfig {
                workers,
                delta: Duration::ZERO,
                turbo,
                max_in_flight: Some(window),
                ..BenchmarkConfig::default()
            };
            let mut bench = UplinkBenchmark::new(CellConfig::default(), cfg);
            // Synthesizes and caches the inputs.
            run_allocations(&mut bench, &subframe, 1);
            let once = run_allocations(&mut bench, &subframe, N);
            let twice = run_allocations(&mut bench, &subframe, 2 * N);
            let extra = twice - once;
            let expected = extra_allocations(subframe.n_users());
            if workers == 1 {
                assert_eq!(
                    extra, expected,
                    "{name}: {N} more subframes made {extra} allocations, expected {expected}"
                );
            } else {
                // Overlapping users each hold a node, at most every user
                // of the window's subframes; either run may warm more.
                let shapes: HashSet<UserConfig> = subframe.users.iter().copied().collect();
                let nodes = (subframe.n_users() * window) as u64;
                let bound = nodes * node_allocations(shapes.len());
                assert!(
                    extra.abs_diff(expected) <= bound,
                    "{name} at {workers} workers: {N} more subframes made {extra} \
                     allocations, expected {expected} ± {bound}"
                );
            }
        }
    }
}

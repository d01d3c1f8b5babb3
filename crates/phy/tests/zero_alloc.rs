//! Regression guard for the zero-allocation hot path.
//!
//! Installs a counting [`GlobalAlloc`] wrapper and asserts the pooled
//! per-subframe receive performs **zero** heap allocations once every
//! cache the pipeline reads (FFT plans, sub-block interleavers, reference
//! sequences, thread-local scratch) is warm. Any new `Vec`/`Box` on the
//! steady-state path fails this test with the exact allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::prewarm_subblock;
use lte_dsp::{Modulation, Xoshiro256};
use lte_obs::{EblerAccumulator, Histogram, RingRecorder};
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::{process_user_pooled, process_user_traced, UserResult, UserScratch};
use lte_phy::trace::StageTimer;
use lte_phy::tx::{prewarm_references, synthesize_user_with_mode, FramePlan};

/// Forwards to the system allocator, counting every allocation (fresh,
/// zeroed, and growing reallocations — the three ways the hot path could
/// touch the heap) made *by the calling thread*: the tests of this
/// binary run concurrently, and one test's warmup must not show up in
/// another's steady-state window.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator is still called while a thread tears
    // its locals down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The smooth 25-PRB 2-layer 16-QAM user most tests receive.
fn smooth_user() -> UserConfig {
    UserConfig::new(25, 2, Modulation::Qam16)
}

/// `user` synthesized for `mode`, with every cache the hot path reads —
/// FFT plans, sub-block interleaver, reference sequences — warm.
fn warm_input(user: UserConfig, mode: TurboMode, seed: u64) -> (CellConfig, FftPlanner, UserInput) {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let input = synthesize_user_with_mode(&cell, &user, mode, 35.0, &mut rng);
    planner.prewarm([user.prbs]);
    prewarm_subblock([user.bits_per_subframe()]);
    prewarm_references(&cell, &user);
    (cell, planner, input)
}

/// Checks a steady-state result and returns its payload buffer to the
/// pool so the next subframe can reuse it — exactly what the benchmark
/// worker loop does.
fn recycle(result: UserResult) {
    assert!(result.crc_ok, "steady-state subframe must pass CRC");
    UserScratch::with(|s| s.arena.recycle_u8(result.payload));
}

/// Runs `subframe` three times to let the scratch pools (and the turbo
/// codec cache, whose QPP interleavers are built on the first decode)
/// grow to their steady-state sizes, then five more times that must not
/// touch the heap.
fn assert_allocation_free(what: &str, mut subframe: impl FnMut()) {
    for _ in 0..3 {
        subframe();
    }
    let before = allocations();
    assert!(before > 0, "the counter must have seen the warmup allocate");
    for _ in 0..5 {
        subframe();
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "{what} hit the heap {delta} times");
}

#[test]
fn steady_state_subframe_is_allocation_free() {
    let mode = TurboMode::Passthrough;
    let (cell, planner, input) = warm_input(smooth_user(), mode, 42);
    assert_allocation_free("steady-state subframe processing", || {
        recycle(process_user_pooled(&cell, &input, mode, &planner))
    });
}

/// The same guarantee in turbo-decode mode: once the per-worker
/// [`lte_phy::receiver::TurboScratch`] codec cache and workspaces are
/// warm, the full decode tail — rate dematch, SISO iterations,
/// desegmentation, transport CRC — must not touch the heap. This is the
/// regression guard for the per-subframe `TurboDecoder::new` the decode
/// branch used to perform.
#[test]
fn steady_state_turbo_subframe_is_allocation_free() {
    let mode = TurboMode::Decode { iterations: 4 };
    let (cell, planner, input) = warm_input(smooth_user(), mode, 44);
    assert_allocation_free("steady-state turbo subframe processing", || {
        recycle(process_user_pooled(&cell, &input, mode, &planner))
    });
}

/// Code blocks `user` segments into in turbo-decode mode.
fn code_blocks(user: &UserConfig) -> usize {
    match FramePlan::for_user(user, TurboMode::Decode { iterations: 4 }) {
        FramePlan::Coded { n_blocks, .. } => n_blocks,
        FramePlan::Passthrough { .. } => unreachable!("decode mode plans coded frames"),
    }
}

/// The 25-PRB user decodes its two code blocks as one lockstep pair; a
/// 50-PRB 2-layer 64-QAM user has five, decoded as a pair and then a
/// group of three. Every workspace and LLR staging buffer of both groups
/// must come from the thread's warm `TurboScratch`, never from a
/// per-subframe allocation.
#[test]
fn lockstep_turbo_groups_are_allocation_free() {
    let mode = TurboMode::Decode { iterations: 4 };
    for (user, blocks, seed) in [
        (smooth_user(), 2, 49),
        (UserConfig::new(50, 2, Modulation::Qam64), 5, 50),
    ] {
        assert_eq!(code_blocks(&user), blocks, "{user:?}");
        let (cell, planner, input) = warm_input(user, mode, seed);
        assert_allocation_free(&format!("{blocks}-block turbo subframe"), || {
            recycle(process_user_pooled(&cell, &input, mode, &planner))
        });
    }
}

/// Both receive modes of `user` must be allocation-free once warm.
fn assert_user_allocation_free(user: UserConfig, seed: u64) {
    for mode in [TurboMode::Passthrough, TurboMode::Decode { iterations: 4 }] {
        let (cell, planner, input) = warm_input(user, mode, seed);
        assert_allocation_free(&format!("{user:?} {mode:?} subframe"), || {
            recycle(process_user_pooled(&cell, &input, mode, &planner))
        });
    }
}

/// The ramp model divides uniform PRB draws by 8, 4 or 2, so it schedules
/// widths no LTE grant would: 12·41 ends in a radix-41 butterfly, wider
/// than the generic butterfly's small accumulator array.
#[test]
fn prime_radix_41_prb_user_is_allocation_free() {
    assert_user_allocation_free(UserConfig::new(41, 2, Modulation::Qam16), 47);
}

/// 12·197 ends in a radix-197 butterfly, the widest below `MAX_PRB`, on a
/// plan above the 110 PRBs of a 20 MHz LTE carrier.
#[test]
fn prime_radix_197_prb_user_is_allocation_free() {
    assert_user_allocation_free(UserConfig::new(197, 1, Modulation::Qpsk), 48);
}

/// Tracing is the same receiver body with a live timer, so it must be
/// just as allocation-free: every span of a steady-state
/// `process_user_traced` run lands in a ring the warmup has already
/// wrapped (a wrapped [`RingRecorder`] overwrites in place), which leaves
/// the receiver itself as the only possible source of heap traffic.
#[test]
fn steady_state_traced_subframe_is_allocation_free() {
    let recorder = RingRecorder::new(64);
    let timer = StageTimer::new(&recorder);
    for (mode, seed) in [
        (TurboMode::Passthrough, 45),
        (TurboMode::Decode { iterations: 4 }, 46),
    ] {
        let (cell, planner, input) = warm_input(smooth_user(), mode, seed);
        let recorded = recorder.total_recorded();
        assert_allocation_free(&format!("traced subframe ({mode:?})"), || {
            recycle(process_user_traced(&cell, &input, mode, &planner, &timer))
        });
        let spans = recorder.total_recorded() - recorded;
        assert!(spans > 8 * 64, "live spans must wrap the ring: {spans}");
    }
}

/// The soak path records continuous telemetry around every subframe:
/// a latency histogram sample and the EBLER decode outcome. Both must
/// stay off the heap too, or long soaks would slowly churn the
/// allocator.
#[test]
fn telemetry_recording_is_allocation_free() {
    let mode = TurboMode::Passthrough;
    let (cell, planner, input) = warm_input(smooth_user(), mode, 43);
    // Construct every telemetry sink up front (construction allocates;
    // recording must not).
    let latency = Histogram::new();
    let ebler = EblerAccumulator::new(1);
    let mut round = 0u64;
    assert_allocation_free("telemetry-instrumented subframe processing", || {
        let result = process_user_pooled(&cell, &input, mode, &planner);
        round += 1;
        latency.record(1_000 * round);
        ebler.record_decode(0, result.crc_ok, (result.payload.len() * 8) as u64);
        recycle(result);
    });
    assert_eq!(latency.snapshot().count, 8);
    assert_eq!(ebler.snapshot().total.ack, 8);
    assert_eq!(round, 8);
}

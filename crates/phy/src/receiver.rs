//! The complete per-user receive pipeline (Fig. 3): one serial body.
//!
//! [`process_user_pooled`] runs every stage in order on one thread — this
//! is the *serial version* the paper uses to verify the parallel benchmark
//! (§IV-D). It works entirely out of the calling thread's [`UserScratch`],
//! so the reference path and the zero-allocation steady-state path are the
//! same code; [`process_user_traced`] is that body with a live
//! [`StageTimer`], [`process_user_blind`] the same body fed an estimated
//! noise variance. The parallel runtime in `lte-uplink` calls the same
//! kernels ([`crate::estimator::estimate_path_into`],
//! [`crate::combiner::combine_symbol_into`], [`finish_user_with_arena`])
//! as work-stealing tasks; because every task computes an independent
//! output block, serial and parallel results are bit-exact.

use std::cell::RefCell;

use lte_dsp::arena::ScratchArena;
use lte_dsp::crc::{CRC24A, CRC24B};
use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::{subblock_cached, Interleaver};
use lte_dsp::llr::{demap_block_into, hard_decisions_into};
use lte_dsp::rate_match::RateMatcher;
use lte_dsp::scrambling::descramble_llrs_into;
use lte_dsp::segmentation::{Segmentation, SegmentationShape};
use lte_dsp::turbo::{lockstep_group_len, TurboDecoder, TurboLlrs, TurboWorkspace};
use lte_dsp::Complex32;
use lte_obs::{Recorder, Stage};

use crate::combiner::{combine_symbol_into, CombinerWeights, MmseScratch};
use crate::estimator::{estimate_noise_var_with_arena, estimate_path_timed, ChannelEstimate};
use crate::grid::UserInput;
use crate::params::{CellConfig, TurboMode, DATA_SYMBOLS_PER_SLOT, SLOTS_PER_SUBFRAME};
use crate::trace::StageTimer;
use crate::tx::FramePlan;

/// The outcome of processing one user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserResult {
    /// Decoded payload bits (CRC stripped).
    pub payload: Vec<u8>,
    /// Whether the CRC verified.
    pub crc_ok: bool,
}

impl UserResult {
    /// `true` when the payload matches the transmitted ground truth.
    pub fn matches(&self, ground_truth: &[u8]) -> bool {
        self.crc_ok && self.payload == ground_truth
    }
}

/// Per-worker turbo-decode state: a small cache of constructed
/// decoder/rate-matcher pairs keyed on `(block size, iterations)` (QPP
/// interleaver construction is far too expensive to repeat per subframe),
/// one SISO workspace and LLR staging buffer per block of the largest
/// lockstep group seen, and the bit staging buffer (the stop rule's hard
/// decisions, then each block's output bits). With a warm cache
/// the whole decode tail allocates nothing, so turbo mode keeps the
/// receiver's zero-allocation guarantee.
#[derive(Default)]
pub struct TurboScratch {
    codecs: Vec<(usize, usize, TurboDecoder, RateMatcher)>,
    workspaces: Vec<TurboWorkspace>,
    llrs: Vec<TurboLlrs>,
    block_bits: Vec<u8>,
}

impl TurboScratch {
    /// A fresh scratch; the codec cache fills on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the cached `(k, iterations)` codec, built on first use.
    fn codec(&mut self, k: usize, iterations: usize) -> usize {
        match self
            .codecs
            .iter()
            .position(|&(ck, ci, ..)| ck == k && ci == iterations)
        {
            Some(pos) => pos,
            None => {
                self.codecs.push((
                    k,
                    iterations,
                    TurboDecoder::new(k, iterations),
                    RateMatcher::new(k),
                ));
                self.codecs.len() - 1
            }
        }
    }
}

/// Undoes rate matching, turbo-decodes and desegments one transport
/// block straight from the *descrambled* (still interleaved) LLR
/// stream, appending the reassembled bits to `bits`. The allocation
/// deinterleave is fused into each block's rate-match gather through
/// `interleaver`'s inverse permutation — no deinterleaved buffer is
/// ever materialised, which removes a full store/reload pass over the
/// allocation from the decode tail. The code blocks (all of one size)
/// are decoded in lockstep groups of [`lockstep_group_len`] blocks.
///
/// Each block stops at the first SISO pass whose hard decisions
/// `stop(shape, block)` accepts — the receiver passes
/// [`block_passes_crc`] — and otherwise runs every pass of
/// `iterations`. The hard decisions reuse `TurboScratch::block_bits`.
/// Per-block CRC-24B failures are absorbed here (a failed block CRC
/// implies the transport CRC-24A will fail too, matching `desegment`'s
/// contract).
fn decode_transport(
    turbo: &mut TurboScratch,
    descrambled: &[f32],
    interleaver: &Interleaver,
    iterations: usize,
    transport_bits: usize,
    bits: &mut Vec<u8>,
    stop: fn(&SegmentationShape, &[u8]) -> bool,
) {
    let shape = Segmentation::shape_for_len(transport_bits);
    let (n_blocks, k) = (shape.n_blocks, shape.block_size);
    // The per-block shares of crate::tx::rate_match_shares, computed
    // inline to keep this path allocation-free.
    let inverse = interleaver.inverse_permutation();
    let total = descrambled.len();
    debug_assert_eq!(inverse.len(), total);
    let base = total / n_blocks;
    let rem = total % n_blocks;
    let pos = turbo.codec(k, iterations);
    let TurboScratch {
        codecs,
        workspaces,
        llrs,
        block_bits,
    } = turbo;
    let (_, _, decoder, matcher) = &codecs[pos];
    let mut cursor = 0usize;
    let mut first = 0usize;
    while first < n_blocks {
        let group = lockstep_group_len(n_blocks - first);
        if llrs.len() < group {
            llrs.resize_with(group, TurboLlrs::default);
            workspaces.resize_with(group, TurboWorkspace::new);
        }
        // The deinterleave is fused into the rate-match scatter-add:
        // each block's `gather` is its slice of the allocation
        // interleaver's inverse permutation.
        for (b, block_llrs) in (first..).zip(&mut llrs[..group]) {
            let e = base + usize::from(b < rem);
            matcher.accumulate_llrs_gather_into(
                descrambled,
                &inverse[cursor..cursor + e],
                block_llrs,
            );
            cursor += e;
        }
        decoder.decode_group_until(&llrs[..group], &mut workspaces[..group], |_, app| {
            block_bits.clear();
            hard_decisions_into(app, block_bits);
            stop(&shape, block_bits)
        });
        for (b, ws) in (first..).zip(&workspaces[..group]) {
            ws.hard_bits_into(block_bits);
            let _block_ok = shape.desegment_block_into(b, block_bits, bits);
        }
        first += group;
    }
}

/// Whether a code block's hard decisions are a CRC-valid word: CRC-24B
/// over the whole block when the transport block is segmented (the check
/// [`SegmentationShape::desegment_block_into`] makes), else the transport
/// block's CRC-24A over the bits after the filler (the receiver's final
/// check).
fn block_passes_crc(shape: &SegmentationShape, block: &[u8]) -> bool {
    if shape.n_blocks == 1 {
        CRC24A.check_bits(&block[shape.filler..])
    } else {
        CRC24B.check_bits(block)
    }
}

/// Runs the final, non-parallelisable tail of the pipeline on LLRs the
/// soft demapper produced in transmission order: descramble →
/// deinterleave → turbo decode (or pass-through hard decision) → CRC.
/// Every working buffer is drawn from `arena`, so the steady-state tail
/// allocates nothing. The returned payload's storage also comes from the
/// arena; callers that want a fully allocation-free loop hand it back
/// with [`ScratchArena::recycle_u8`] once they are done with it.
///
/// `llrs` must be ordered exactly as the transmitter's
/// [`crate::tx::split_bits`] chunks: slot-major, then symbol, then layer.
///
/// # Panics
///
/// Panics if `llrs.len()` does not equal the user's bits-per-subframe.
pub fn finish_user_with_arena(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    llrs: &[f32],
    arena: &mut ScratchArena,
    turbo: &mut TurboScratch,
) -> UserResult {
    let timer = &StageTimer::disabled();
    finish_user_timed(cell, input, mode, llrs, arena, turbo, timer)
}

/// The one decode tail, with deinterleave / turbo / CRC spans on `timer`.
fn finish_user_timed<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    llrs: &[f32],
    arena: &mut ScratchArena,
    turbo: &mut TurboScratch,
    timer: &StageTimer<'_, R>,
) -> UserResult {
    let user = &input.config;
    let total = user.bits_per_subframe();
    assert_eq!(llrs.len(), total, "LLR count must match the allocation");
    let interleaver = subblock_cached(total);
    // Gold-sequence sign flips, straight from the caller's stream into
    // an arena buffer.
    let mut descrambled = arena.take_f32(total);
    let c_init = crate::tx::scrambling_init(cell, user);
    let (mut frame_bits, expected_len) = match (mode, FramePlan::for_user(user, mode)) {
        (TurboMode::Passthrough, FramePlan::Passthrough { payload_bits }) => {
            timer.time(Stage::Deinterleave, || {
                descramble_llrs_into(llrs, c_init, &mut descrambled)
            });
            // The deinterleave is fused into the hard decision: bit `j`
            // decides descrambled LLR `inverse[j]`, so the deinterleaved
            // stream is never stored whole. The LLRs are gathered a block
            // at a time into a stack array, where the decision vectorises
            // (one decision per gathered LLR does not).
            let mut bits = arena.take_u8(total);
            timer.time(Stage::Turbo, || {
                let mut block = [0.0f32; 256];
                for chunk in interleaver.inverse_permutation().chunks(block.len()) {
                    let block = &mut block[..chunk.len()];
                    for (llr, &i) in block.iter_mut().zip(chunk) {
                        *llr = descrambled[i as usize];
                    }
                    hard_decisions_into(block, &mut bits);
                }
            });
            (bits, payload_bits + 24)
        }
        (TurboMode::Decode { iterations }, FramePlan::Coded { transport_bits, .. }) => {
            // Descramble only: the deinterleave is fused into each
            // block's rate-match gather inside `decode_transport`. With a
            // warm codec cache the whole tail — gather-dematch, SISO
            // passes up to each block's CRC stop, desegmentation — reuses
            // held buffers and allocates nothing.
            timer.time(Stage::Deinterleave, || {
                descramble_llrs_into(llrs, c_init, &mut descrambled)
            });
            let mut bits = arena.take_u8(transport_bits);
            timer.time(Stage::Turbo, || {
                decode_transport(
                    turbo,
                    &descrambled,
                    &interleaver,
                    iterations,
                    transport_bits,
                    &mut bits,
                    block_passes_crc,
                )
            });
            (bits, transport_bits)
        }
        _ => unreachable!("plan always matches mode"),
    };
    arena.recycle_f32(descrambled);
    let crc_ok = timer.time(Stage::Crc, || {
        frame_bits.truncate(expected_len);
        CRC24A.check_bits(&frame_bits)
    });
    frame_bits.truncate(expected_len - 24);
    UserResult {
        payload: frame_bits,
        crc_ok,
    }
}

/// Per-thread reusable state for the receive path: the buffer arena plus
/// the estimate and weight storage the pipeline reshapes in place every
/// subframe.
///
/// One instance lives per worker thread (see [`UserScratch::with`]);
/// nothing here is shared, so there is no locking on the hot path.
#[derive(Default)]
pub struct UserScratch {
    /// Size-classed buffer pools and FFT working space.
    pub arena: ScratchArena,
    /// Cached turbo decoders, SISO workspace and LLR staging buffers.
    pub turbo: TurboScratch,
    est: ChannelEstimate,
    weights: Vec<CombinerWeights>,
    combined: Vec<Complex32>,
    llrs: Vec<f32>,
}

thread_local! {
    static USER_SCRATCH: RefCell<UserScratch> = RefCell::new(UserScratch::default());
}

impl UserScratch {
    /// A fresh scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with this thread's scratch.
    ///
    /// The closure must not call [`UserScratch::with`] again (the
    /// `RefCell` would panic) — in particular it must not block on a
    /// work-stealing scope whose stolen tasks might re-enter the
    /// scratch. Keep each borrow confined to one task's straight-line
    /// work.
    pub fn with<T>(f: impl FnOnce(&mut UserScratch) -> T) -> T {
        USER_SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }
}

/// Runs the demodulation front half of the pipeline — estimation,
/// combiner weights, antenna combining and soft demapping — with all
/// working state drawn from `scratch`, writing the raw (still
/// scrambled/interleaved) LLRs in transmission order to `out`.
///
/// [`finish_user_with_arena`] takes these LLRs through the decode tail,
/// so the pair splits one user's serial body at the demapper.
///
/// `out` is cleared and refilled; its capacity is reused.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn demodulate_user_into(
    cell: &CellConfig,
    input: &UserInput,
    planner: &FftPlanner,
    scratch: &mut UserScratch,
    out: &mut Vec<f32>,
) {
    let timer = &StageTimer::disabled();
    demodulate_user_timed(cell, input, input.noise_var, planner, scratch, out, timer);
}

/// The one serial slot → symbol → layer demodulation loop. `noise_var`
/// regularises the MMSE weights and scales the LLRs: the genie value
/// carried by `input`, or the blind receiver's estimate.
fn demodulate_user_timed<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    noise_var: f32,
    planner: &FftPlanner,
    scratch: &mut UserScratch,
    out: &mut Vec<f32>,
    timer: &StageTimer<'_, R>,
) {
    input.validate();
    let user = &input.config;
    let n_sc = user.subcarriers();

    // Stage 1: channel estimation per slot (rx × layer tasks), then
    // combiner weights — data processing for a slot needs that slot's
    // estimate (§II-C).
    scratch
        .weights
        .resize_with(SLOTS_PER_SUBFRAME, CombinerWeights::empty);
    for slot in 0..SLOTS_PER_SUBFRAME {
        scratch.est.reset(cell.n_rx, user.layers, n_sc);
        for rx in 0..cell.n_rx {
            for layer in 0..user.layers {
                let (arena, path) = (&mut scratch.arena, scratch.est.path_mut(rx, layer));
                estimate_path_timed(cell, input, slot, rx, layer, planner, arena, path, timer);
            }
        }
        timer.time(Stage::Weights, || {
            scratch.weights[slot].compute(&scratch.est, noise_var, &mut MmseScratch)
        });
    }

    // Stage 2: antenna combining + IFFT per (slot, symbol, layer), then
    // soft demapping, keeping the transmitter's bit order.
    out.clear();
    out.reserve(user.bits_per_subframe());
    for slot in 0..SLOTS_PER_SUBFRAME {
        for sym in 0..DATA_SYMBOLS_PER_SLOT {
            for layer in 0..user.layers {
                timer.time(Stage::Combining, || {
                    combine_symbol_into(
                        input,
                        &scratch.weights[slot],
                        slot,
                        sym,
                        layer,
                        planner,
                        &mut scratch.arena,
                        &mut scratch.combined,
                    )
                });
                timer.time(Stage::Demap, || {
                    demap_block_into(user.modulation, &scratch.combined, noise_var, out)
                });
            }
        }
    }
}

/// The one serial receiver body: demodulate, then the decode tail, on
/// this thread's [`UserScratch`].
fn process_user_timed<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    noise_var: f32,
    planner: &FftPlanner,
    timer: &StageTimer<'_, R>,
) -> UserResult {
    UserScratch::with(|scratch| {
        let mut llrs = std::mem::take(&mut scratch.llrs);
        demodulate_user_timed(cell, input, noise_var, planner, scratch, &mut llrs, timer);
        let (arena, turbo) = (&mut scratch.arena, &mut scratch.turbo);
        let result = finish_user_timed(cell, input, mode, &llrs, arena, turbo, timer);
        scratch.llrs = llrs;
        result
    })
}

/// Processes one user end to end, serially — the reference path, on this
/// thread's [`UserScratch`]. After warmup the only heap traffic is the
/// returned payload, whose storage cycles through the arena when the
/// caller recycles it.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn process_user_pooled(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    planner: &FftPlanner,
) -> UserResult {
    let timer = &StageTimer::disabled();
    process_user_timed(cell, input, mode, input.noise_var, planner, timer)
}

/// [`process_user_pooled`] with a private FFT planner, for one-off calls.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn process_user(cell: &CellConfig, input: &UserInput, mode: TurboMode) -> UserResult {
    process_user_pooled(cell, input, mode, &FftPlanner::new())
}

/// [`process_user_pooled`] with every stage wrapped in a wall-clock trace
/// span: the estimation kernels (matched filter, IFFT, window, FFT),
/// combiner weights, per-symbol combining, demapping, and the serial
/// tail (deinterleave, turbo, CRC).
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn process_user_traced<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    planner: &FftPlanner,
    timer: &StageTimer<'_, R>,
) -> UserResult {
    process_user_timed(cell, input, mode, input.noise_var, planner, timer)
}

/// Processes one user end to end *without* genie knowledge of the noise
/// variance: the receiver estimates it blindly from the out-of-window
/// taps of the reference symbol's channel impulse response (see
/// [`crate::estimator::estimate_noise_var_with_arena`]) and uses the
/// estimate for MMSE regularisation and LLR scaling.
pub fn process_user_blind(cell: &CellConfig, input: &UserInput, mode: TurboMode) -> UserResult {
    let planner = FftPlanner::new();
    input.validate();
    // Average the blind estimate over both slots and all antennas.
    let noise = UserScratch::with(|scratch| {
        let mut noise = 0.0f64;
        for slot in 0..SLOTS_PER_SUBFRAME {
            for rx in 0..cell.n_rx {
                let arena = &mut scratch.arena;
                noise +=
                    estimate_noise_var_with_arena(cell, input, slot, rx, &planner, arena) as f64;
            }
        }
        noise
    });
    let noise_var = (noise / (SLOTS_PER_SUBFRAME * cell.n_rx) as f64).max(1e-9) as f32;
    let timer = &StageTimer::disabled();
    process_user_timed(cell, input, mode, noise_var, &planner, timer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::UserConfig;
    use crate::tx::{synthesize_user, synthesize_user_over_channel, synthesize_user_with_mode};
    use lte_dsp::channel::MimoChannel;
    use lte_dsp::{Modulation, Xoshiro256};

    #[test]
    fn clean_channel_every_modulation_and_layer_count() {
        let cell = CellConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(100);
        for modulation in Modulation::ALL {
            // Higher-order constellations need more margin against MMSE
            // noise enhancement on random ill-conditioned 4×4 channels.
            let snr_db = match modulation {
                Modulation::Qpsk => 30.0,
                Modulation::Qam16 => 35.0,
                Modulation::Qam64 => 45.0,
            };
            for layers in 1..=4 {
                let user = UserConfig::new(4, layers, modulation);
                let input = synthesize_user(&cell, &user, snr_db, &mut rng);
                let result = process_user(&cell, &input, TurboMode::Passthrough);
                assert!(
                    result.matches(&input.ground_truth),
                    "{modulation} x{layers} failed (crc_ok={})",
                    result.crc_ok
                );
            }
        }
    }

    #[test]
    fn large_allocation_decodes() {
        let cell = CellConfig::default();
        let user = UserConfig::new(50, 2, Modulation::Qam64);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let input = synthesize_user(&cell, &user, 35.0, &mut rng);
        let result = process_user(&cell, &input, TurboMode::Passthrough);
        assert!(result.matches(&input.ground_truth));
    }

    #[test]
    fn turbo_decode_mode_round_trips() {
        let cell = CellConfig::default();
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let mode = TurboMode::Decode { iterations: 4 };
        let mut rng = Xoshiro256::seed_from_u64(8);
        let input = synthesize_user_with_mode(&cell, &user, mode, 25.0, &mut rng);
        let result = process_user(&cell, &input, mode);
        assert!(result.matches(&input.ground_truth));
    }

    #[test]
    fn turbo_decode_survives_lower_snr_than_passthrough() {
        // The coded mode should still pass CRC at an SNR where the uncoded
        // pass-through frame takes bit errors.
        let cell = CellConfig::default();
        let user = UserConfig::new(8, 1, Modulation::Qpsk);
        let snr_db = 3.0;
        let mut failures_plain = 0;
        let mut failures_coded = 0;
        for seed in 0..8 {
            let mut rng = Xoshiro256::seed_from_u64(1000 + seed);
            let channel = MimoChannel::randomize(cell.n_rx, 1, 3, &mut rng);
            let plain = synthesize_user_over_channel(
                &cell,
                &user,
                TurboMode::Passthrough,
                snr_db,
                &channel,
                &mut rng,
            );
            if !process_user(&cell, &plain, TurboMode::Passthrough).matches(&plain.ground_truth) {
                failures_plain += 1;
            }
            let mode = TurboMode::Decode { iterations: 6 };
            let coded =
                synthesize_user_over_channel(&cell, &user, mode, snr_db, &channel, &mut rng);
            if !process_user(&cell, &coded, mode).matches(&coded.ground_truth) {
                failures_coded += 1;
            }
        }
        assert!(
            failures_coded <= failures_plain,
            "coded {failures_coded} vs plain {failures_plain}"
        );
    }

    /// [`finish_user_with_arena`]'s coded tail with every code block
    /// run for all its passes: the same LLRs, a stop rule that never
    /// fires.
    fn finish_all_passes(
        cell: &CellConfig,
        input: &UserInput,
        iterations: usize,
        llrs: &[f32],
    ) -> UserResult {
        let user = &input.config;
        let total = user.bits_per_subframe();
        let FramePlan::Coded { transport_bits, .. } =
            FramePlan::for_user(user, TurboMode::Decode { iterations })
        else {
            unreachable!("decode mode plans a coded frame")
        };
        let mut descrambled = Vec::new();
        descramble_llrs_into(
            llrs,
            crate::tx::scrambling_init(cell, user),
            &mut descrambled,
        );
        let mut bits = Vec::new();
        decode_transport(
            &mut TurboScratch::new(),
            &descrambled,
            &subblock_cached(total),
            iterations,
            transport_bits,
            &mut bits,
            |_, _| false,
        );
        bits.truncate(transport_bits);
        let crc_ok = CRC24A.check_bits(&bits);
        bits.truncate(transport_bits - 24);
        UserResult {
            payload: bits,
            crc_ok,
        }
    }

    #[test]
    fn block_crc_accepts_the_transmitted_blocks_and_rejects_a_flipped_bit() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        // One block with filler (CRC-24A), then three blocks (CRC-24B).
        for len in [1000, 15_000] {
            let mut transport: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 1) as u8).collect();
            CRC24A.append_bits(&mut transport);
            let seg = Segmentation::segment(&transport);
            let shape = seg.shape();
            for (b, block) in seg.blocks.iter().enumerate() {
                assert!(block_passes_crc(&shape, block), "len={len} block {b}");
                let mut flipped = block.clone();
                let i = block.len() - 1 - b * 7;
                flipped[i] ^= 1;
                assert!(!block_passes_crc(&shape, &flipped), "len={len} block {b}");
            }
        }
    }

    #[test]
    fn crc_stop_loses_no_user_across_the_coded_waterfall() {
        // Each modulation's SNR grid spans its waterfall: at the lowest
        // point some users fail, at the highest every user decodes. The
        // same seeds (payload and channel) recur at every SNR.
        const ITERATIONS: usize = 4;
        const SEEDS: u64 = 4;
        let mode = TurboMode::Decode {
            iterations: ITERATIONS,
        };
        let cell = CellConfig::default();
        let planner = FftPlanner::new();
        let mut scratch = UserScratch::new();
        let mut llrs = Vec::new();
        let mut delivered = [0usize; 2];
        for (modulation, snrs, multi_block) in [
            (
                Modulation::Qpsk,
                [-14.0, -12.0, -10.0, -8.0, -6.0],
                UserConfig::new(33, 2, Modulation::Qpsk),
            ),
            (
                Modulation::Qam16,
                [-4.0, -2.0, 0.0, 2.0, 4.0],
                UserConfig::new(33, 1, Modulation::Qam16),
            ),
            (
                Modulation::Qam64,
                [0.0, 2.0, 4.0, 6.0, 8.0],
                UserConfig::new(22, 1, Modulation::Qam64),
            ),
        ] {
            // A 6-PRB user is one code block; the 19 008-bit allocations
            // carry a 6 320-bit transport block in two.
            for (user, blocks) in [(UserConfig::new(6, 1, modulation), 1), (multi_block, 2)] {
                let plan = FramePlan::for_user(&user, mode);
                assert!(matches!(plan, FramePlan::Coded { n_blocks, .. } if n_blocks == blocks));
                let mut waterfall = Vec::new();
                for snr_db in snrs {
                    let mut all_passes_ok = 0;
                    for seed in 0..SEEDS {
                        let mut rng = Xoshiro256::seed_from_u64(seed);
                        let input = synthesize_user_with_mode(&cell, &user, mode, snr_db, &mut rng);
                        demodulate_user_into(&cell, &input, &planner, &mut scratch, &mut llrs);
                        let UserScratch { arena, turbo, .. } = &mut scratch;
                        let stopped =
                            finish_user_with_arena(&cell, &input, mode, &llrs, arena, turbo);
                        let full = finish_all_passes(&cell, &input, ITERATIONS, &llrs);
                        let case = format!("{modulation} {blocks}-block {snr_db} dB seed {seed}");
                        let truth = &input.ground_truth;
                        if full.matches(truth) || (!full.crc_ok && !stopped.crc_ok) {
                            assert_eq!(stopped, full, "{case}");
                        }
                        all_passes_ok += usize::from(full.matches(truth));
                        delivered[0] += usize::from(full.matches(truth));
                        delivered[1] += usize::from(stopped.matches(truth));
                    }
                    waterfall.push(all_passes_ok);
                }
                let case = format!("{modulation} {blocks}-block waterfall {waterfall:?}");
                assert!(waterfall[0] < SEEDS as usize, "{case}");
                assert_eq!(waterfall[snrs.len() - 1], SEEDS as usize, "{case}");
            }
        }
        assert!(delivered[1] >= delivered[0], "{delivered:?}");
    }

    #[test]
    fn corrupted_input_fails_crc() {
        let cell = CellConfig::default();
        let user = UserConfig::new(4, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(55);
        let mut input = synthesize_user(&cell, &user, 35.0, &mut rng);
        // Zero out one whole data symbol on every antenna.
        for rx in 0..cell.n_rx {
            for z in input.slots[0].data[2].antenna_mut(rx) {
                *z = Complex32::ZERO;
            }
        }
        let result = process_user(&cell, &input, TurboMode::Passthrough);
        assert!(!result.crc_ok, "CRC must catch a destroyed symbol");
    }

    #[test]
    fn wrong_cell_identity_fails_to_decode() {
        // A subframe synthesized for one cell must not decode in a
        // neighbouring cell: the reference sequences (Zadoff–Chu root)
        // and scrambling (physical-cell identity) both differ.
        let a = CellConfig::with_identity(2, 3);
        let b = CellConfig::with_identity(2, 4);
        let user = UserConfig::new(6, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(42);
        let input = synthesize_user(&a, &user, 30.0, &mut rng);
        assert!(process_user(&a, &input, TurboMode::Passthrough).matches(&input.ground_truth));
        assert!(!process_user(&b, &input, TurboMode::Passthrough).crc_ok);
    }

    #[test]
    fn deterministic_results() {
        let cell = CellConfig::default();
        let user = UserConfig::new(10, 3, Modulation::Qam16);
        let input = synthesize_user(&cell, &user, 30.0, &mut Xoshiro256::seed_from_u64(77));
        let a = process_user(&cell, &input, TurboMode::Passthrough);
        let b = process_user(&cell, &input, TurboMode::Passthrough);
        assert_eq!(a, b);
    }

    #[test]
    fn finish_user_with_arena_is_repeatable_and_recycles() {
        let cell = CellConfig::default();
        let user = UserConfig::new(8, 2, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(17);
        let input = synthesize_user(&cell, &user, 35.0, &mut rng);
        let planner = FftPlanner::new();
        let mut scratch = UserScratch::new();
        let mut llrs = Vec::new();
        demodulate_user_into(&cell, &input, &planner, &mut scratch, &mut llrs);
        let UserScratch { arena, turbo, .. } = &mut scratch;
        for _ in 0..3 {
            let result =
                finish_user_with_arena(&cell, &input, TurboMode::Passthrough, &llrs, arena, turbo);
            assert!(result.matches(&input.ground_truth));
            arena.recycle_u8(result.payload);
        }
        // The descramble buffer and the payload.
        assert!(arena.pooled_buffers() >= 2, "buffers must return to pool");
    }

    #[test]
    #[should_panic(expected = "LLR count")]
    fn finish_user_checks_llr_length() {
        let cell = CellConfig::default();
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let input = synthesize_user(&cell, &user, 30.0, &mut Xoshiro256::seed_from_u64(1));
        let UserScratch { arena, turbo, .. } = &mut UserScratch::new();
        finish_user_with_arena(
            &cell,
            &input,
            TurboMode::Passthrough,
            &[0.0; 10],
            arena,
            turbo,
        );
    }

    #[test]
    fn traced_pipeline_matches_untraced_and_covers_every_stage() {
        use lte_obs::{Event, RingRecorder, Stage};

        let cell = CellConfig::default();
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let planner = FftPlanner::new();
        for mode in [TurboMode::Passthrough, TurboMode::Decode { iterations: 4 }] {
            let mut rng = Xoshiro256::seed_from_u64(21);
            let input = synthesize_user_with_mode(&cell, &user, mode, 30.0, &mut rng);
            let plain = process_user_pooled(&cell, &input, mode, &planner);
            assert!(plain.matches(&input.ground_truth), "{mode:?}");

            let recorder = RingRecorder::new(1 << 16);
            let timer = StageTimer::new(&recorder);
            let traced = process_user_traced(&cell, &input, mode, &planner, &timer);
            assert_eq!(plain, traced, "tracing must not change results ({mode:?})");

            let mut seen = std::collections::BTreeSet::new();
            for ev in recorder.events() {
                if let Event::StageSpan {
                    stage,
                    start_ns,
                    end_ns,
                } = ev
                {
                    assert!(end_ns >= start_ns);
                    seen.insert(stage.name());
                }
            }
            for stage in [
                Stage::MatchedFilter,
                Stage::Ifft,
                Stage::Window,
                Stage::Fft,
                Stage::Weights,
                Stage::Combining,
                Stage::Demap,
                Stage::Deinterleave,
                Stage::Turbo,
                Stage::Crc,
            ] {
                assert!(
                    seen.contains(stage.name()),
                    "no span for {stage} ({mode:?})"
                );
            }
        }
    }
}

#[cfg(test)]
mod blind_tests {
    use super::*;
    use crate::params::UserConfig;
    use crate::tx::synthesize_user;
    use lte_dsp::{Modulation, Xoshiro256};

    #[test]
    fn blind_receiver_matches_genie_at_moderate_snr() {
        let cell = CellConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut genie_ok = 0;
        let mut blind_ok = 0;
        for _ in 0..6 {
            let user = UserConfig::new(12, 2, Modulation::Qam16);
            let input = synthesize_user(&cell, &user, 25.0, &mut rng);
            if process_user(&cell, &input, TurboMode::Passthrough).matches(&input.ground_truth) {
                genie_ok += 1;
            }
            if process_user_blind(&cell, &input, TurboMode::Passthrough)
                .matches(&input.ground_truth)
            {
                blind_ok += 1;
            }
        }
        assert!(
            genie_ok >= 5,
            "genie baseline should mostly pass: {genie_ok}/6"
        );
        assert!(
            blind_ok + 1 >= genie_ok,
            "blind ({blind_ok}) must be within one block of genie ({genie_ok})"
        );
    }

    #[test]
    fn blind_receiver_rejects_noise() {
        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(4, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(10);
        let input = synthesize_user(&cell, &user, -25.0, &mut rng);
        let result = process_user_blind(&cell, &input, TurboMode::Passthrough);
        assert!(!result.crc_ok);
    }
}

//! Golden kernel vectors: a committed, per-kernel hash of every DSP
//! stage's exact output bits.
//!
//! The SIMD hot path ([`lte_dsp::simd`]) promises bit-identity with the
//! scalar reference. This module turns that promise into a gate: each
//! kernel — the FFT at every width up to 200 PRBs (smooth and prime-
//! factored, plus signed-zero / subnormal / large-value edge inputs at
//! every smooth width), Zadoff–Chu reference
//! generation, channel estimation per slot × antenna, the matched
//! filter, MMSE weights, exact and max-log demap LLRs, segmentation +
//! rate matching, turbo decode (including the SISO alpha/beta/extrinsic
//! planes), the CRC family, and the end-to-end receiver — is driven with
//! a fixed seeded input and its output bits are hashed with FNV-1a 64.
//! The hashes are committed to `conformance/golden.json`; `lte-sim
//! vectors --check` recomputes them and fails on any byte drift, with
//! SIMD dispatch on or forced off (`--scalar`), so a kernel change that
//! moves a single mantissa bit anywhere in the pipeline is caught
//! before it lands.
//!
//! The vectors are deterministic across hosts: every input comes from
//! the repo's own [`Xoshiro256`] and every hash is over IEEE-754 bit
//! patterns, never formatted decimals.

use std::fmt::Write as _;

use crate::fingerprint::Fnv1a;
use lte_dsp::channel::MimoChannel;
use lte_dsp::crc::{CRC16, CRC24A, CRC24B, CRC8};
use lte_dsp::fft::FftPlan;
use lte_dsp::fft::FftPlanner;
use lte_dsp::llr::{demap_block_exact, demap_block_into};
use lte_dsp::matched_filter::{matched_filter, matched_filter_inplace};
use lte_dsp::rate_match::RateMatcher;
use lte_dsp::scrambling::{descramble_llrs, GoldSequence};
use lte_dsp::segmentation::Segmentation;
use lte_dsp::turbo::{siso_probe, TurboDecoder, TurboEncoder, TurboLlrs, TurboWorkspace};
use lte_dsp::zadoff_chu::{layer_cyclic_shift, ReferenceSequence};
use lte_dsp::{Complex32, Modulation, Xoshiro256};
use lte_phy::combiner::{CombinerWeights, MmseScratch};
use lte_phy::estimator::{estimate_slot, ChannelEstimate};
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, TurboMode, UserConfig, MAX_PRB};
use lte_phy::tx::{
    scrambling_init, synthesize_retransmission, synthesize_user_over_channel,
    synthesize_user_with_mode,
};

/// Schema tag written into the golden file.
pub const SCHEMA: &str = "lte-sim-vectors-v1";

/// Where the committed golden vectors live, relative to the repo root.
pub const DEFAULT_GOLDEN_PATH: &str = "conformance/golden.json";

/// One kernel's digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelVector {
    /// Stable kernel name, e.g. `fft-forward`.
    pub kernel: String,
    /// FNV-1a 64 over the kernel's output bits.
    pub hash: u64,
}

/// The PRB allocations the 100-PRB grid can carry: every count up to
/// 100 whose DFT size `12·prbs` factors into 2, 3 and 5 (the LTE
/// transform-precoding constraint).
pub fn lte_prb_counts() -> Vec<usize> {
    (1..=100).filter(|&prbs| is_smooth(prbs)).collect()
}

/// `true` when `prbs` factors into 2, 3 and 5 only.
fn is_smooth(prbs: usize) -> bool {
    let mut n = prbs;
    for f in [2, 3, 5] {
        while n.is_multiple_of(f) {
            n /= f;
        }
    }
    n == 1
}

fn hash_c32(h: &mut Fnv1a, data: &[Complex32]) {
    for z in data {
        h.write(&z.re.to_bits().to_le_bytes());
        h.write(&z.im.to_bits().to_le_bytes());
    }
}

fn hash_f32(h: &mut Fnv1a, data: &[f32]) {
    for v in data {
        h.write(&v.to_bits().to_le_bytes());
    }
}

fn random_block(rng: &mut Xoshiro256, n: usize) -> Vec<Complex32> {
    (0..n)
        .map(|_| Complex32::new(rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0))
        .collect()
}

fn random_bits(rng: &mut Xoshiro256, n: usize) -> Vec<u8> {
    (0..n).map(|_| (rng.next_u32() & 1) as u8).collect()
}

fn fft_vector(forward: bool) -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(if forward { 0x0FF7 } else { 0x1FF7 });
    let mut h = Fnv1a::new();
    let mut sizes: Vec<usize> = lte_prb_counts().iter().map(|&p| 12 * p).collect();
    sizes.push(2048); // the receive grid's full-bandwidth FFT
    for &n in &sizes {
        let mut data = random_block(&mut rng, n);
        let plan = if forward {
            FftPlan::forward(n)
        } else {
            FftPlan::inverse(n)
        };
        plan.process(&mut data);
        h.write_u64(n as u64);
        hash_c32(&mut h, &data);
    }
    KernelVector {
        kernel: if forward {
            "fft-forward"
        } else {
            "fft-inverse"
        }
        .to_string(),
        hash: h.finish(),
    }
}

/// Forward and inverse transforms at every width `12·prbs`, `prbs` up to
/// [`MAX_PRB`], with a prime factor of 7 or more — the widths the ramp
/// model's divided PRB draws schedule and no LTE grant would, each
/// ending in a generic-radix butterfly of that prime.
fn fft_prime_radix_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x2FF7);
    let mut h = Fnv1a::new();
    for plan_for in [FftPlan::forward, FftPlan::inverse] {
        for prbs in (1..=MAX_PRB).filter(|&prbs| !is_smooth(prbs)) {
            let n = 12 * prbs;
            let mut data = random_block(&mut rng, n);
            plan_for(n).process(&mut data);
            h.write_u64(n as u64);
            hash_c32(&mut h, &data);
        }
    }
    KernelVector {
        kernel: "fft-prime-radix".to_string(),
        hash: h.finish(),
    }
}

/// Forward and inverse transforms at every 2·3·5-smooth width `12·prbs`
/// with `100 < prbs ≤ MAX_PRB` — the smooth widths the ramp model
/// schedules above the 100-PRB grid — then every smooth width up to
/// [`MAX_PRB`] once per direction on an edge input: a real impulse at
/// index 0 (a large finite or a subnormal value) over a field of signed
/// zeros. Every output's imaginary part is then an exact ±0 whose sign
/// depends on each multiply on its path, the butterflies' ×1 twiddles
/// included (`(−0, −2)·(1 + 0i)` has real part `+0`), so dropping one
/// moves a bit here. No ±∞ or NaN: which NaN payload survives follows
/// the compiler's operand order, not the kernel.
fn fft_wide_smooth_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x3FF7);
    let mut h = Fnv1a::new();
    let smooth: Vec<usize> = (1..=MAX_PRB).filter(|&prbs| is_smooth(prbs)).collect();
    for plan_for in [FftPlan::forward, FftPlan::inverse] {
        for &prbs in smooth.iter().filter(|&&prbs| prbs > 100) {
            let n = 12 * prbs;
            let mut data = random_block(&mut rng, n);
            plan_for(n).process(&mut data);
            h.write_u64(n as u64);
            hash_c32(&mut h, &data);
        }
    }
    let signed_zero = |rng: &mut Xoshiro256| if rng.next_below(2) == 0 { 0.0 } else { -0.0 };
    for plan_for in [FftPlan::forward, FftPlan::inverse] {
        for (i, &prbs) in smooth.iter().enumerate() {
            let n = 12 * prbs;
            let mut data: Vec<Complex32> = (0..n)
                .map(|_| Complex32::new(signed_zero(&mut rng), signed_zero(&mut rng)))
                .collect();
            let sign = if rng.next_below(2) == 0 { 1.0 } else { -1.0 };
            data[0].re = sign
                * if i % 2 == 0 {
                    1.0e30 + rng.next_f32() * 2.0e30
                } else {
                    f32::from_bits(1 + rng.next_below(0x007F_FFFF) as u32) // subnormal
                };
            plan_for(n).process(&mut data);
            h.write_u64(n as u64);
            hash_c32(&mut h, &data);
        }
    }
    KernelVector {
        kernel: "fft-wide-smooth".to_string(),
        hash: h.finish(),
    }
}

fn zadoff_chu_vector() -> KernelVector {
    let mut h = Fnv1a::new();
    for prbs in [1, 4, 6, 25, 64, 100] {
        let len = 12 * prbs;
        for root in [1, 7, 25] {
            let base = ReferenceSequence::new(len, root);
            h.write_u64(len as u64);
            h.write_u64(root as u64);
            hash_c32(&mut h, base.samples());
            for layer in 0..4 {
                let shifted = base.with_cyclic_shift(layer_cyclic_shift(layer, 4));
                hash_c32(&mut h, shifted.samples());
            }
        }
    }
    KernelVector {
        kernel: "zadoff-chu".to_string(),
        hash: h.finish(),
    }
}

/// One synthesized 4×2 user over a seeded multipath channel — shared by
/// the estimate, MMSE-weight and receiver-stage vectors so they all see
/// a realistic input.
fn conformance_input() -> (CellConfig, lte_phy::grid::UserInput) {
    let cell = CellConfig::with_antennas(4);
    let user = UserConfig::new(6, 2, Modulation::Qam16);
    let mut rng = Xoshiro256::seed_from_u64(0xE57);
    let channel = MimoChannel::randomize(4, 2, 3, &mut rng);
    let input = synthesize_user_over_channel(
        &cell,
        &user,
        TurboMode::Passthrough,
        20.0,
        &channel,
        &mut rng,
    );
    (cell, input)
}

fn estimate_vector() -> KernelVector {
    let (cell, input) = conformance_input();
    let planner = FftPlanner::new();
    let mut h = Fnv1a::new();
    for slot in 0..2 {
        let est = estimate_slot(&cell, &input, slot, &planner);
        h.write_u64(slot as u64);
        for rx in 0..est.n_rx() {
            for layer in 0..est.n_layers() {
                hash_c32(&mut h, est.path(rx, layer));
            }
        }
    }
    KernelVector {
        kernel: "channel-estimate".to_string(),
        hash: h.finish(),
    }
}

/// Every weight in (subcarrier, layer, antenna) order.
fn hash_weights_by_subcarrier(h: &mut Fnv1a, weights: &CombinerWeights) {
    for sc in 0..weights.n_sc() {
        for layer in 0..weights.n_layers() {
            for rx in 0..weights.n_rx() {
                hash_c32(h, &weights.lane(layer, rx)[sc..=sc]);
            }
        }
    }
}

fn mmse_vector() -> KernelVector {
    let (cell, input) = conformance_input();
    let planner = FftPlanner::new();
    let mut h = Fnv1a::new();
    let mut weights = CombinerWeights::empty();
    let mut scratch = MmseScratch::new();
    for slot in 0..2 {
        let est = estimate_slot(&cell, &input, slot, &planner);
        weights.compute(&est, input.noise_var, &mut scratch);
        h.write_u64(slot as u64);
        hash_weights_by_subcarrier(&mut h, &weights);
    }
    KernelVector {
        kernel: "mmse-weights".to_string(),
        hash: h.finish(),
    }
}

/// MMSE weights at every antenna × layer shape the receiver admits,
/// each on a seeded multipath estimate and on the all-zero estimate that
/// takes the matched-filter fallback, through one reused scratch and
/// output.
fn mmse_shapes_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x3A5E);
    let mut h = Fnv1a::new();
    let mut weights = CombinerWeights::empty();
    let mut scratch = MmseScratch::new();
    let n_sc = 24;
    for n_rx in [1, 2, 4, 8] {
        for n_layers in 1..=4 {
            let channel = MimoChannel::randomize(n_rx, n_layers, 3, &mut rng);
            let mut est = ChannelEstimate::empty(n_rx, n_layers, n_sc);
            for rx in 0..n_rx {
                for layer in 0..n_layers {
                    *est.path_mut(rx, layer) = channel.frequency_response(rx, layer, n_sc);
                }
            }
            // A zero estimate under noise below the pivot floor (1e-20
            // in power) is the one input that takes the fallback.
            let zero = ChannelEstimate::empty(n_rx, n_layers, n_sc);
            for (est, noise_var) in [(&est, 0.01 + rng.next_f32() * 0.2), (&zero, 1e-12)] {
                weights.compute(est, noise_var, &mut scratch);
                h.write_u64(n_rx as u64);
                h.write_u64(n_layers as u64);
                hash_weights_by_subcarrier(&mut h, &weights);
                for layer in 0..n_layers {
                    for rx in 0..n_rx {
                        hash_c32(&mut h, weights.lane(layer, rx));
                    }
                }
            }
        }
    }
    KernelVector {
        kernel: "mmse-weights-shapes".to_string(),
        hash: h.finish(),
    }
}

/// MMSE weights across the eight-subcarrier lane groups of the vector
/// solve: widths whose last group is a 4-subcarrier tail and widths with
/// none, at every antenna × layer shape, with one all-zero subcarrier and
/// one overflowing (±1e20) subcarrier placed inside full groups and a
/// zero subcarrier in the tail. Each estimate is solved at a seeded noise
/// and at 1e-12, where the zero subcarrier takes the matched-filter
/// fallback; the overflowing one yields non-finite weights at both.
fn mmse_lanes_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x1A4E);
    let mut h = Fnv1a::new();
    let mut weights = CombinerWeights::empty();
    let mut scratch = MmseScratch::new();
    for n_sc in [12, 36, 48, 60, 180, 300] {
        for n_rx in [1, 2, 4, 8] {
            for n_layers in 1..=4 {
                let channel = MimoChannel::randomize(n_rx, n_layers, 3, &mut rng);
                let mut est = ChannelEstimate::empty(n_rx, n_layers, n_sc);
                let overflow_sc = if n_sc > 16 { 13 } else { 5 };
                for rx in 0..n_rx {
                    for layer in 0..n_layers {
                        let path = est.path_mut(rx, layer);
                        *path = channel.frequency_response(rx, layer, n_sc);
                        path[2] = Complex32::ZERO;
                        path[n_sc - 1] = Complex32::ZERO;
                        let sign = |bit: u32| if bit == 0 { 1.0e20 } else { -1.0e20 };
                        let bits = rng.next_u32();
                        path[overflow_sc] = Complex32::new(sign(bits & 1), sign(bits & 2));
                    }
                }
                for noise_var in [0.01 + rng.next_f32() * 0.2, 1e-12] {
                    weights.compute(&est, noise_var, &mut scratch);
                    h.write_u64(n_sc as u64);
                    h.write_u64(n_rx as u64);
                    h.write_u64(n_layers as u64);
                    hash_weights_by_subcarrier(&mut h, &weights);
                }
            }
        }
    }
    KernelVector {
        kernel: "mmse-weights-lanes".to_string(),
        hash: h.finish(),
    }
}

/// The Gold sequence at seeds covering the register corners and the
/// four steady-state users, at lengths straddling every word boundary,
/// plus LLR descrambling over every class of f32 bit pattern (±0,
/// subnormals, ±∞, NaN payloads) — a sign flip must move the sign bit
/// and nothing else.
fn scrambling_vector() -> KernelVector {
    let cell = CellConfig::default();
    let mut seeds = vec![0, 1];
    seeds.extend(
        crate::perf::steady_state_subframe()
            .users
            .iter()
            .map(|user| scrambling_init(&cell, user)),
    );
    seeds.push(0x7FFF_FFFF);
    let mut rng = Xoshiro256::seed_from_u64(0x601D);
    let mut h = Fnv1a::new();
    for &c_init in &seeds {
        for n in [1, 31, 32, 33, 576, 86_400] {
            h.write_u64(c_init as u64);
            h.write_u64(n as u64);
            h.write(&GoldSequence::new(c_init).bits(n));
        }
        let mut llrs: Vec<f32> = (0..1000)
            .map(|_| {
                f32::from_bits(match rng.next_below(8) {
                    0 => 0x0000_0000,                      // +0
                    1 => 0x8000_0000,                      // −0
                    2 => 0x7F80_0000,                      // +∞
                    3 => 0xFF80_0000,                      // −∞
                    4 => rng.next_u32() & 0x807F_FFFF,     // subnormal
                    5 => rng.next_u32() | 0x7F80_0000 | 1, // NaN payload
                    _ => rng.next_u32(),
                })
            })
            .collect();
        descramble_llrs(&mut llrs, c_init);
        hash_f32(&mut h, &llrs);
    }
    KernelVector {
        kernel: "scrambling".to_string(),
        hash: h.finish(),
    }
}

fn demap_vector(exact: bool) -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(if exact { 0xDE4C } else { 0xDE4D });
    let mut h = Fnv1a::new();
    let mut out = Vec::new();
    for modulation in Modulation::ALL {
        // Cover the vector body, the scalar tail and sub-vector blocks.
        for n in [3, 8, 37, 300, 1200] {
            let symbols = random_block(&mut rng, n);
            let noise_var = 0.05 + rng.next_f32() * 0.5;
            if exact {
                out = demap_block_exact(modulation, &symbols, noise_var);
            } else {
                out.clear();
                demap_block_into(modulation, &symbols, noise_var, &mut out);
            }
            h.write_u64(n as u64);
            hash_f32(&mut h, &out);
        }
    }
    KernelVector {
        kernel: if exact { "demap-exact" } else { "demap-maxlog" }.to_string(),
        hash: h.finish(),
    }
}

fn turbo_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x7B0);
    let mut h = Fnv1a::new();
    for k in [40, 512, 6144] {
        let bits = random_bits(&mut rng, k);
        let code = TurboEncoder::new(k).encode(&bits);
        h.write_u64(k as u64);
        h.write(&code.systematic);
        h.write(&code.parity1);
        h.write(&code.parity2);
        let decoded = TurboDecoder::new(k, 4).decode(&code.to_llrs(4.0));
        h.write(&decoded);
    }
    KernelVector {
        kernel: "turbo".to_string(),
        hash: h.finish(),
    }
}

/// Pins the turbo decoder's *internal* stages — the alpha/beta metric
/// planes and the extrinsic LLR output of one SISO pass — not just the
/// final hard decisions. The state-parallel AVX2 trellis kernels must
/// reproduce every one of these f32 bit patterns.
fn turbo_siso_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x5150);
    let mut h = Fnv1a::new();
    let mut ws = TurboWorkspace::new();
    for k in [40, 104, 512, 2048] {
        let bits = random_bits(&mut rng, k);
        let code = TurboEncoder::new(k).encode(&bits);
        // Noisy channel LLRs: clean ±4 observations plus seeded Gaussian-ish
        // perturbation, so the metric recursions see realistic mixed signs.
        let mut llrs = code.to_llrs(4.0);
        let mut perturb = |v: &mut f32| *v += (rng.next_f32() - 0.5) * 6.0;
        llrs.systematic.iter_mut().for_each(&mut perturb);
        llrs.parity1.iter_mut().for_each(&mut perturb);
        llrs.parity2.iter_mut().for_each(&mut perturb);
        for t in llrs.tail1.iter_mut().chain(llrs.tail2.iter_mut()) {
            perturb(&mut t.0);
            perturb(&mut t.1);
        }
        let (alpha, beta, extrinsic) = siso_probe(&llrs, &mut ws);
        h.write_u64(k as u64);
        hash_f32(&mut h, alpha);
        hash_f32(&mut h, beta);
        hash_f32(&mut h, extrinsic);
    }
    KernelVector {
        kernel: "turbo-siso".to_string(),
        hash: h.finish(),
    }
}

/// Channel LLRs for one block of `k` random bits: the codeword at ±4
/// plus seeded noise of up to `spread`, with one entry in sixteen
/// replaced by an exact ±0 or a ± subnormal and, when `huge`, one more
/// in sixteen by a ±1e20-scale finite value (large, yet far below the
/// point where the recursions' `NEG` sentinel would stop absorbing it).
fn turbo_group_llrs(rng: &mut Xoshiro256, k: usize, spread: f32, huge: bool) -> TurboLlrs {
    let bits = random_bits(rng, k);
    let mut llrs = TurboEncoder::new(k).encode(&bits).to_llrs(4.0);
    let mut perturb = |v: &mut f32| {
        *v = match rng.next_below(64) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE / 3.0,
            3 => -f32::MIN_POSITIVE / 5.0,
            4..=7 if huge => (rng.next_f32() * 2.0 - 1.0) * 1.0e20,
            _ => *v + (rng.next_f32() - 0.5) * spread,
        }
    };
    llrs.systematic.iter_mut().for_each(&mut perturb);
    llrs.parity1.iter_mut().for_each(&mut perturb);
    llrs.parity2.iter_mut().for_each(&mut perturb);
    for t in llrs.tail1.iter_mut().chain(llrs.tail2.iter_mut()) {
        perturb(&mut t.0);
        perturb(&mut t.1);
    }
    llrs
}

/// Pins lockstep group decodes: groups of 1–5 equal-K blocks at the
/// block sizes the receiver workloads segment into, each block's soft
/// APP output hashed. The blocks of a group cycle through three inputs:
/// noiseless, with ±1e20 values, and noisy. The hash was computed with
/// every block decoded alone; a group decode must reproduce each
/// block's one-block output bit for bit. (Blocks of one group stopping
/// at different passes are covered by the decoder's unit tests and the
/// `turbo-group` fuzz target.)
fn turbo_groups_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x6_0095);
    let mut h = Fnv1a::new();
    let mut ws = vec![TurboWorkspace::new(); 5];
    for k in [40, 960, 4864, 5824, 6144] {
        for group in 1..=5 {
            let decoder = TurboDecoder::new(k, 3 + group % 4);
            let llrs: Vec<TurboLlrs> = (0..group)
                .map(|b| match b % 3 {
                    0 => turbo_group_llrs(&mut rng, k, 0.0, false),
                    1 => turbo_group_llrs(&mut rng, k, 3.0, true),
                    _ => turbo_group_llrs(&mut rng, k, 2.0, false),
                })
                .collect();
            decoder.decode_group(&llrs, &mut ws);
            h.write_u64(k as u64);
            h.write_u64(group as u64);
            for w in &ws[..group] {
                hash_f32(&mut h, w.app());
            }
        }
    }
    KernelVector {
        kernel: "turbo-groups".to_string(),
        hash: h.finish(),
    }
}

/// The channel-estimation matched filter (conjugate multiply), out of
/// place and in place, across lengths that cover the AVX2 body and the
/// scalar tail.
fn matched_filter_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x3F17);
    let mut h = Fnv1a::new();
    for n in [3, 4, 8, 37, 48, 300] {
        let received = random_block(&mut rng, n);
        let reference = random_block(&mut rng, n);
        let mut out = vec![Complex32::ZERO; n];
        matched_filter(&received, &reference, &mut out);
        h.write_u64(n as u64);
        hash_c32(&mut h, &out);
        let mut inplace = received.clone();
        matched_filter_inplace(&mut inplace, &reference);
        hash_c32(&mut h, &inplace);
    }
    KernelVector {
        kernel: "matched-filter".to_string(),
        hash: h.finish(),
    }
}

fn segmentation_rate_match_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x5E6);
    let mut h = Fnv1a::new();
    for b in [40, 6144, 6200, 13_000] {
        let bits = random_bits(&mut rng, b);
        let seg = Segmentation::segment(&bits);
        h.write_u64(b as u64);
        h.write_u64(seg.n_blocks() as u64);
        for block in &seg.blocks {
            h.write(block);
            let code = TurboEncoder::new(block.len()).encode(block);
            let matcher = RateMatcher::new(block.len());
            // Mother rate, puncturing and repetition.
            for e in [3 * block.len() + 12, block.len(), 4 * block.len()] {
                h.write(&matcher.match_bits(&code, e));
            }
        }
    }
    KernelVector {
        kernel: "segmentation-rate-match".to_string(),
        hash: h.finish(),
    }
}

fn rate_match_fused_vector() -> KernelVector {
    use lte_dsp::interleave::subblock_cached;
    // The fused gather path: sub-block deinterleaving folded into the
    // rate-match accumulation, exactly as the receiver's turbo tail
    // drives it — a 2-block transport whose interleaver permutation is
    // sliced per block. Guards the fusion against drift from the
    // two-step reference.
    let mut rng = Xoshiro256::seed_from_u64(0xF05E);
    let mut h = Fnv1a::new();
    for (k, total) in [(40usize, 194usize), (64, 408), (104, 648)] {
        let src: Vec<f32> = (0..total)
            .map(|_| (rng.next_u64() % 2000) as f32 / 100.0 - 10.0)
            .collect();
        let interleaver = subblock_cached(total);
        let inverse = interleaver.inverse_permutation();
        let base = total / 2;
        let matcher = RateMatcher::new(k);
        let mut llrs = TurboLlrs::default();
        h.write_u64(k as u64);
        h.write_u64(total as u64);
        for range in [0..base, base..total] {
            matcher.accumulate_llrs_gather_into(&src, &inverse[range], &mut llrs);
            hash_f32(&mut h, &llrs.systematic);
            hash_f32(&mut h, &llrs.parity1);
            hash_f32(&mut h, &llrs.parity2);
            for (s, p) in llrs.tail1.iter().chain(llrs.tail2.iter()) {
                hash_f32(&mut h, &[*s, *p]);
            }
        }
    }
    KernelVector {
        kernel: "rate-match-fused".to_string(),
        hash: h.finish(),
    }
}

fn crc_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0xCC);
    let mut h = Fnv1a::new();
    for n in [8, 63, 512, 6144] {
        let bits = random_bits(&mut rng, n);
        h.write_u64(n as u64);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            h.write(&crc.compute_bits(&bits).to_le_bytes());
        }
    }
    KernelVector {
        kernel: "crc".to_string(),
        hash: h.finish(),
    }
}

fn hash_user_input(h: &mut Fnv1a, input: &UserInput) {
    for slot in &input.slots {
        for symbol in std::iter::once(&slot.reference).chain(&slot.data) {
            for rx in 0..symbol.n_rx() {
                hash_c32(h, symbol.antenna(rx));
            }
        }
    }
    hash_f32(h, &[input.noise_var]);
    h.write(&input.ground_truth);
}

/// The transmitter: every f32 of synthesized inputs (reference and data
/// symbols on every antenna, the noise variance) and their payloads over
/// 1/2/4/8 antennas × 1–4 layers × QPSK/16/64-QAM × pass-through/turbo
/// framing, then one payload sent four times through
/// `synthesize_retransmission`. The generator's next output closes the
/// hash, so a change in how many draws synthesis takes shows too.
fn tx_synthesis_vector() -> KernelVector {
    let mut rng = Xoshiro256::seed_from_u64(0x7A5);
    let mut h = Fnv1a::new();
    let modulations = [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64];
    let modes = [TurboMode::Passthrough, TurboMode::Decode { iterations: 4 }];
    for (id, n_rx) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let cell = CellConfig::with_identity(n_rx, id);
        for layers in 1..=4 {
            for (m, &modulation) in modulations.iter().enumerate() {
                for mode in modes {
                    // 24, 36, 60 and 192 subcarriers: 1, 2, 3 and 6 taps.
                    let prbs = [2, 3, 5, 16][(layers + m) % 4];
                    let user = UserConfig::new(prbs, layers, modulation);
                    let input = synthesize_user_with_mode(&cell, &user, mode, 12.0, &mut rng);
                    hash_user_input(&mut h, &input);
                }
            }
        }
    }
    let cell = CellConfig::with_identity(2, 5);
    let user = UserConfig::new(6, 2, Modulation::Qam16);
    let mode = TurboMode::Decode { iterations: 4 };
    let first = synthesize_user_with_mode(&cell, &user, mode, 3.0, &mut rng);
    hash_user_input(&mut h, &first);
    for _ in 1..4 {
        let again =
            synthesize_retransmission(&cell, &user, mode, &first.ground_truth, 3.0, &mut rng);
        hash_user_input(&mut h, &again);
    }
    h.write_u64(rng.next_u64());
    KernelVector {
        kernel: "tx-synthesis".to_string(),
        hash: h.finish(),
    }
}

fn receiver_vector() -> KernelVector {
    let (hash, _users) = crate::fingerprint::canonical_fingerprint(0x901D, 6);
    KernelVector {
        kernel: "receiver-e2e".to_string(),
        hash,
    }
}

/// Computes every kernel vector with the *current* SIMD dispatch — the
/// caller pins scalar mode via [`lte_dsp::simd::force_scalar`] when
/// checking the fallback path.
pub fn compute_vectors() -> Vec<KernelVector> {
    vec![
        fft_vector(true),
        fft_vector(false),
        fft_prime_radix_vector(),
        fft_wide_smooth_vector(),
        zadoff_chu_vector(),
        estimate_vector(),
        mmse_vector(),
        mmse_shapes_vector(),
        mmse_lanes_vector(),
        demap_vector(false),
        demap_vector(true),
        segmentation_rate_match_vector(),
        rate_match_fused_vector(),
        turbo_vector(),
        turbo_siso_vector(),
        turbo_groups_vector(),
        matched_filter_vector(),
        crc_vector(),
        scrambling_vector(),
        tx_synthesis_vector(),
        receiver_vector(),
    ]
}

/// Renders the golden JSON document.
pub fn render_golden(vectors: &[KernelVector]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"vectors\": [\n");
    for (i, v) in vectors.iter().enumerate() {
        let comma = if i + 1 < vectors.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"kernel\": \"{}\", \"hash\": \"{:016x}\" }}{comma}",
            v.kernel, v.hash
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a golden document produced by [`render_golden`] (tolerant of
/// whitespace changes, strict about schema and hash syntax).
pub fn parse_golden(text: &str) -> Result<Vec<KernelVector>, String> {
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\""))
        && !text.contains(&format!("\"schema\":\"{SCHEMA}\""))
    {
        return Err(format!("missing or unknown schema (expected {SCHEMA})"));
    }
    let mut vectors = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"kernel\"") {
        rest = &rest[at + "\"kernel\"".len()..];
        let kernel =
            quoted_value(&mut rest).ok_or_else(|| "malformed \"kernel\" entry".to_string())?;
        let at = rest
            .find("\"hash\"")
            .ok_or_else(|| format!("kernel {kernel}: missing \"hash\""))?;
        rest = &rest[at + "\"hash\"".len()..];
        let hex = quoted_value(&mut rest)
            .ok_or_else(|| format!("kernel {kernel}: malformed \"hash\""))?;
        let hash = u64::from_str_radix(&hex, 16)
            .map_err(|_| format!("kernel {kernel}: bad hash '{hex}'"))?;
        vectors.push(KernelVector { kernel, hash });
    }
    if vectors.is_empty() {
        return Err("no vectors found".to_string());
    }
    Ok(vectors)
}

/// After a `"key"` token: skips to the next quoted string and returns
/// it, advancing `rest` past the closing quote.
fn quoted_value(rest: &mut &str) -> Option<String> {
    let open = rest.find('"')?;
    // Reject a `"key" "value"` pair with no colon between.
    if !rest[..open].trim_start().starts_with(':') {
        return None;
    }
    let tail = &rest[open + 1..];
    let close = tail.find('"')?;
    let value = tail[..close].to_string();
    *rest = &tail[close + 1..];
    Some(value)
}

/// Compares freshly computed vectors against the golden set. Returns
/// human-readable drift descriptions — empty means conformant. Missing
/// and unexpected kernels are drift too: the golden file is the
/// exhaustive kernel inventory.
pub fn diff_vectors(golden: &[KernelVector], current: &[KernelVector]) -> Vec<String> {
    let mut drift = Vec::new();
    for g in golden {
        match current.iter().find(|c| c.kernel == g.kernel) {
            None => drift.push(format!("{}: missing from this build", g.kernel)),
            Some(c) if c.hash != g.hash => drift.push(format!(
                "{}: golden {:016x} != computed {:016x}",
                g.kernel, g.hash, c.hash
            )),
            Some(_) => {}
        }
    }
    for c in current {
        if !golden.iter().any(|g| g.kernel == c.kernel) {
            drift.push(format!("{}: not in the golden set (regenerate)", c.kernel));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_are_deterministic() {
        assert_eq!(compute_vectors(), compute_vectors());
    }

    #[test]
    fn simd_and_scalar_dispatch_hash_identically() {
        // The heart of the conformance gate: forcing every kernel onto
        // the scalar reference path must not move a single output bit.
        let native = compute_vectors();
        lte_dsp::simd::force_scalar(true);
        let scalar = compute_vectors();
        lte_dsp::simd::force_scalar(false);
        assert_eq!(native, scalar);
    }

    #[test]
    fn golden_roundtrips_through_json() {
        let vectors = vec![
            KernelVector {
                kernel: "fft-forward".to_string(),
                hash: 0x0123_4567_89ab_cdef,
            },
            KernelVector {
                kernel: "crc".to_string(),
                hash: u64::MAX,
            },
        ];
        let parsed = parse_golden(&render_golden(&vectors)).expect("parse own output");
        assert_eq!(parsed, vectors);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_golden("").is_err());
        assert!(parse_golden("{\"schema\": \"other\"}").is_err());
        assert!(parse_golden(&format!("{{\"schema\": \"{SCHEMA}\"}}")).is_err());
        assert!(parse_golden(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"vectors\": [{{\"kernel\": \"x\", \"hash\": \"zz\"}}]}}"
        ))
        .is_err());
    }

    #[test]
    fn diff_reports_drift_missing_and_extra() {
        let golden = vec![
            KernelVector {
                kernel: "a".into(),
                hash: 1,
            },
            KernelVector {
                kernel: "b".into(),
                hash: 2,
            },
        ];
        let current = vec![
            KernelVector {
                kernel: "a".into(),
                hash: 9,
            },
            KernelVector {
                kernel: "c".into(),
                hash: 3,
            },
        ];
        let drift = diff_vectors(&golden, &current);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(diff_vectors(&golden, &golden).is_empty());
    }

    #[test]
    fn committed_golden_matches_this_build() {
        // The committed file is the gate: any kernel change that moves
        // output bits must regenerate it (lte-sim vectors --write) and
        // justify the drift in review.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../conformance/golden.json");
        let text = std::fs::read_to_string(path).expect("committed conformance/golden.json");
        let golden = parse_golden(&text).expect("parse committed golden");
        let drift = diff_vectors(&golden, &compute_vectors());
        assert!(drift.is_empty(), "conformance drift: {drift:?}");
    }
}

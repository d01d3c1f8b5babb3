//! `lte-fuzz` — first-party structured fuzzing for the DSP kernels.
//!
//! The build environment has no network access, so there is no
//! cargo-fuzz/libFuzzer; this binary plays the same role with seeded
//! structured inputs instead of coverage guidance. Every case is
//! deterministic in `(target, seed, iteration)`, so a failure printed
//! by the harness is a one-command reproduction, and interesting cases
//! get frozen as regression tests next to the kernels they exercised.
//!
//! Two failure classes are hunted:
//!
//! * **panics** — every case runs under `catch_unwind`; any panic in a
//!   kernel fails the run with the reproducing command line;
//! * **exactness divergences** — the differential targets run the same
//!   input through the SIMD and forced-scalar dispatch paths and
//!   require byte-identical output, the same contract `lte-sim vectors
//!   --check --scalar` gates at coarser granularity; the serial-tail
//!   targets (`gold-word`, `crc-table`, `descramble`, `mmse-fixed`) hold
//!   the word-parallel, table-driven and fixed-size kernels to the
//!   one-step-at-a-time forms kept in [`oracle`], and `fft-prime` and
//!   `fft-order` hold the FFT's generic butterfly and its iterative
//!   driver to the recursive, one-chain-per-output form; `turbo-group`
//!   holds the turbo decoder's lockstep group decode (vector path) to
//!   one-block decodes (scalar path).
//!
//! ```text
//! lte-fuzz [TARGET] [--iters N] [--seed S]
//! TARGET: demap | fft | segmentation | rate-match | turbo |
//!         turbo-simd | turbo-group |
//!         matched-filter | calibration | gold-word | crc-table |
//!         descramble | mmse-fixed | fft-prime | fft-order |
//!         all (default)
//! ```

mod oracle;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use lte_dsp::crc::{CRC16, CRC24A, CRC24B, CRC8};
use lte_dsp::fft::{Direction, FftPlan};
use lte_dsp::llr::{demap_block_exact_into, demap_block_into};
use lte_dsp::matched_filter::{matched_filter, matched_filter_inplace};
use lte_dsp::rate_match::RateMatcher;
use lte_dsp::scrambling::{descramble_llrs, descramble_llrs_into, GoldSequence};
use lte_dsp::segmentation::Segmentation;
use lte_dsp::simd::force_scalar;
use lte_dsp::turbo::{
    supported_block_sizes, TurboDecoder, TurboEncoder, TurboLlrs, TurboWorkspace,
};
use lte_dsp::{Complex32, Modulation, Xoshiro256};
use lte_phy::combiner::{CombinerWeights, MmseScratch};
use lte_phy::estimator::ChannelEstimate;
use lte_power::WorkloadEstimator;

use oracle::{crc_bit_loop, mmse_weights_dynamic, BitStepGold, ChainFft};

type Target = (&'static str, fn(u64));

const TARGETS: &[Target] = &[
    ("demap", fuzz_demap),
    ("fft", fuzz_fft),
    ("segmentation", fuzz_segmentation),
    ("rate-match", fuzz_rate_match),
    ("turbo", fuzz_turbo),
    ("turbo-simd", fuzz_turbo_simd),
    ("turbo-group", fuzz_turbo_group),
    ("matched-filter", fuzz_matched_filter),
    ("calibration", fuzz_calibration),
    ("gold-word", fuzz_gold_word),
    ("crc-table", fuzz_crc_table),
    ("descramble", fuzz_descramble),
    ("mmse-fixed", fuzz_mmse_fixed),
    ("fft-prime", fuzz_fft_prime),
    ("fft-order", fuzz_fft_order),
];

fn main() -> ExitCode {
    let mut target = String::from("all");
    let mut iters: u64 = 256;
    let mut seed: u64 = 0xF0CC_5EED;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--iters takes a number"));
                i += 1;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed takes a number"));
                i += 1;
            }
            "-h" | "--help" => {
                usage("");
            }
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            name => target = name.to_string(),
        }
        i += 1;
    }
    let selected: Vec<&Target> = if target == "all" {
        TARGETS.iter().collect()
    } else {
        let found: Vec<_> = TARGETS.iter().filter(|(n, _)| *n == target).collect();
        if found.is_empty() {
            usage(&format!("unknown target {target}"));
        }
        found
    };
    for (name, case) in selected {
        for iteration in 0..iters {
            // Distinct case seed per (target, base seed, iteration).
            let mut mix = Xoshiro256::seed_from_u64(seed ^ iteration);
            for b in name.bytes() {
                mix.next_u64();
                let _ = b;
            }
            let case_seed = mix.next_u64();
            if catch_unwind(AssertUnwindSafe(|| case(case_seed))).is_err() {
                eprintln!(
                    "FUZZ FAILURE in target '{name}' (iteration {iteration}); reproduce with:"
                );
                eprintln!(
                    "  cargo run -p lte-fuzz -- {name} --seed {seed} --iters {}",
                    iteration + 1
                );
                return ExitCode::FAILURE;
            }
        }
        println!("fuzz {name}: {iters} cases ok");
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: lte-fuzz [demap|fft|segmentation|rate-match|turbo|turbo-simd|\
         turbo-group|matched-filter|calibration|gold-word|crc-table|\
         descramble|mmse-fixed|fft-prime|fft-order|all] [--iters N] [--seed S]"
    );
    std::process::exit(2);
}

fn random_modulation(rng: &mut Xoshiro256) -> Modulation {
    Modulation::ALL[rng.next_below(3) as usize]
}

/// Finite symbols spanning ~60 decades of magnitude, plus exact zeros
/// and subnormals — the inputs most likely to expose an operation-order
/// difference between lanes.
fn wild_symbols(rng: &mut Xoshiro256, n: usize) -> Vec<Complex32> {
    (0..n)
        .map(|_| {
            let scale = 10f32.powi(rng.next_below(61) as i32 - 30);
            let pick = |rng: &mut Xoshiro256| match rng.next_below(16) {
                0 => 0.0,
                1 => f32::MIN_POSITIVE / 2.0, // subnormal
                _ => (rng.next_f32() * 2.0 - 1.0) * scale,
            };
            Complex32::new(pick(rng), pick(rng))
        })
        .collect()
}

fn assert_bits_equal(simd: &[f32], scalar: &[f32], what: &str) {
    assert_eq!(simd.len(), scalar.len(), "{what}: length diverged");
    for (i, (a, b)) in simd.iter().zip(scalar).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: SIMD/scalar divergence at {i}: {a:e} ({:08x}) vs {b:e} ({:08x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

fn fuzz_demap(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let modulation = random_modulation(&mut rng);
    let n = 1 + rng.next_below(1500) as usize;
    let symbols = wild_symbols(&mut rng, n);
    // Spans subnormal to huge; must stay positive.
    let noise_var = 10f32.powi(rng.next_below(61) as i32 - 30);
    let mut simd = Vec::new();
    let mut scalar = Vec::new();
    force_scalar(false);
    demap_block_into(modulation, &symbols, noise_var, &mut simd);
    force_scalar(true);
    demap_block_into(modulation, &symbols, noise_var, &mut scalar);
    force_scalar(false);
    assert_bits_equal(&simd, &scalar, "demap-maxlog");
    // The exact demapper has no vector path; hunt panics and NaNs from
    // the exp/ln pipeline on the same wild inputs.
    let mut exact = Vec::new();
    demap_block_exact_into(modulation, &symbols, noise_var, &mut exact);
    assert_eq!(exact.len(), n * modulation.bits_per_symbol());
}

fn fuzz_fft(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    // LTE grid sizes, the full-bandwidth 2048, and arbitrary lengths
    // (primes included) to cover every radix path.
    let n = match rng.next_below(4) {
        0 => 12 * (1 + rng.next_below(100) as usize),
        1 => 2048,
        _ => 1 + rng.next_below(1400) as usize,
    };
    let input = wild_symbols(&mut rng, n);
    let forward = rng.next_below(2) == 0;
    let plan = if forward {
        FftPlan::forward(n)
    } else {
        FftPlan::inverse(n)
    };
    let mut scratch = vec![Complex32::ZERO; n];
    let mut simd = input.clone();
    force_scalar(false);
    plan.process_with_scratch(&mut simd, &mut scratch);
    let mut scalar = input;
    force_scalar(true);
    plan.process_with_scratch(&mut scalar, &mut scratch);
    force_scalar(false);
    for (i, (a, b)) in simd.iter().zip(&scalar).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "fft n={n} forward={forward}: divergence at {i}: {a:?} vs {b:?}"
        );
    }
}

fn fuzz_segmentation(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let b = 1 + rng.next_below(20_000) as usize;
    let bits: Vec<u8> = (0..b).map(|_| (rng.next_u32() & 1) as u8).collect();
    let seg = Segmentation::segment(&bits);
    assert!(seg.n_blocks() >= 1);
    // A perfect decode must round-trip the transport block and pass
    // every per-block CRC.
    let (restored, crc_ok) = seg.desegment(&seg.blocks);
    assert!(crc_ok, "b={b}: block CRC failed on a perfect decode");
    assert_eq!(restored, bits, "b={b}: desegment did not invert segment");
}

fn fuzz_rate_match(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sizes = supported_block_sizes();
    let k = sizes[rng.next_below(sizes.len() as u64) as usize];
    let bits: Vec<u8> = (0..k).map(|_| (rng.next_u32() & 1) as u8).collect();
    let code = TurboEncoder::new(k).encode(&bits);
    let matcher = RateMatcher::new(k);
    let e = 1 + rng.next_below(4 * k as u64) as usize;
    let matched = matcher.match_bits(&code, e);
    assert_eq!(matched.len(), e, "k={k} e={e}: wrong output length");
    let llrs: Vec<f32> = matched
        .iter()
        .map(|&b| if b == 0 { 4.0 } else { -4.0 })
        .collect();
    let acc = matcher.accumulate_llrs(&llrs);
    // When the whole circular buffer was transmitted at least once the
    // decode must recover the block exactly.
    if e >= matcher.buffer_len() {
        let decoded = TurboDecoder::new(k, 4).decode(&acc);
        assert_eq!(decoded, bits, "k={k} e={e}: decode diverged");
    }
}

fn fuzz_turbo(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sizes = supported_block_sizes();
    let k = sizes[rng.next_below(sizes.len() as u64) as usize];
    let bits: Vec<u8> = (0..k).map(|_| (rng.next_u32() & 1) as u8).collect();
    let code = TurboEncoder::new(k).encode(&bits);
    let mag = 0.25 + rng.next_f32() * 8.0;
    let decoder = TurboDecoder::new(k, 1 + rng.next_below(6) as usize);
    let decoded = decoder.decode(&code.to_llrs(mag));
    assert_eq!(decoded, bits, "k={k} mag={mag}: noiseless decode diverged");
}

/// Finite LLRs spanning ~60 decades, with exact zeros, subnormals and
/// near-overflow (±∞-adjacent) magnitudes mixed in — everything the
/// trellis recursions could meet short of actual non-finite channel
/// output.
fn wild_llrs(rng: &mut Xoshiro256, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.next_below(16) {
            0 => 0.0,
            1 => f32::MIN_POSITIVE / 2.0, // subnormal
            2 => f32::MAX / 2.0,          // ±∞-adjacent
            3 => -f32::MAX / 2.0,
            _ => {
                let scale = 10f32.powi(rng.next_below(61) as i32 - 30);
                (rng.next_f32() * 2.0 - 1.0) * scale
            }
        })
        .collect()
}

/// A whole turbo block of [`wild_llrs`], tails included.
fn wild_turbo_llrs(rng: &mut Xoshiro256, k: usize) -> TurboLlrs {
    let mut llrs = TurboLlrs {
        systematic: wild_llrs(rng, k),
        parity1: wild_llrs(rng, k),
        parity2: wild_llrs(rng, k),
        ..TurboLlrs::default()
    };
    for t in llrs.tail1.iter_mut().chain(llrs.tail2.iter_mut()) {
        t.0 = wild_llrs(rng, 1)[0];
        t.1 = wild_llrs(rng, 1)[0];
    }
    llrs
}

/// Sizes the differential turbo targets draw from: the full supported
/// ladder capped at 1088 so a fuzz run stays fast while still covering
/// tabulated and dense-ladder interleavers.
fn fuzz_turbo_size(rng: &mut Xoshiro256) -> usize {
    let sizes: Vec<usize> = supported_block_sizes()
        .into_iter()
        .filter(|&k| k <= 1088)
        .collect();
    sizes[rng.next_below(sizes.len() as u64) as usize]
}

/// The heart of the PR 9 contract: arbitrary (wild, mixed-sign,
/// huge/tiny) channel LLRs through the state-parallel AVX2 decoder and
/// the forced-scalar reference must produce bit-identical soft output
/// and hard decisions.
fn fuzz_turbo_simd(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let k = fuzz_turbo_size(&mut rng);
    let llrs = wild_turbo_llrs(&mut rng, k);
    let decoder = TurboDecoder::new(k, 1 + rng.next_below(3) as usize);
    force_scalar(false);
    let simd_soft = decoder.decode_soft(&llrs);
    let simd_bits = decoder.decode(&llrs);
    force_scalar(true);
    let scalar_soft = decoder.decode_soft(&llrs);
    let scalar_bits = decoder.decode(&llrs);
    force_scalar(false);
    assert_bits_equal(&simd_soft, &scalar_soft, "turbo-simd soft");
    assert_eq!(
        simd_bits, scalar_bits,
        "turbo-simd: hard decisions diverged (k={k})"
    );
}

/// Lockstep group decodes against one-block decodes: a group of 1–5
/// equal-K blocks decoded together on the vector dispatch must give each
/// block the soft output of its own decode on the scalar reference,
/// compared as bits — except that a NaN output is compared as NaN (x86
/// propagates whichever NaN operand sits first in the instruction, and
/// the compiler picks that order). K comes from the whole supported
/// ladder plus a few sizes that are not a multiple of 8, whose last
/// `k % 8` steps take the extrinsic pass's scalar tail; iterations 1–6;
/// each block its own seeded stop pass (any of its SISO passes, or
/// never), so the blocks of a group leave it at different passes; and
/// each block either wild LLRs (half of them salted with a few
/// infinities and NaNs) or a codeword with noise from none up to its
/// own magnitude.
fn fuzz_turbo_group(seed: u64) {
    const RAGGED: [usize; 4] = [12, 44, 100, 1020];
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let k = if rng.next_below(5) == 0 {
        RAGGED[rng.next_below(RAGGED.len() as u64) as usize]
    } else {
        let sizes = supported_block_sizes();
        sizes[rng.next_below(sizes.len() as u64) as usize]
    };
    let group = 1 + rng.next_below(5) as usize;
    let iterations = 1 + rng.next_below(6) as usize;
    let decoder = TurboDecoder::new(k, iterations);
    // Pass p (1-based) of 2·iterations, or 0: never.
    let stop_at: Vec<usize> = (0..group)
        .map(|_| rng.next_below(2 * iterations as u64 + 1) as usize)
        .collect();
    let llrs: Vec<TurboLlrs> = (0..group)
        .map(|_| {
            if rng.next_below(2) == 0 {
                let mut llrs = wild_turbo_llrs(&mut rng, k);
                // Now and then a few non-finite channel values, so NaN
                // metrics reach the extrinsic pass's max tree.
                if rng.next_below(2) == 0 {
                    for _ in 0..1 + rng.next_below(3) {
                        let i = rng.next_below(k as u64) as usize;
                        let stream = match rng.next_below(3) {
                            0 => &mut llrs.systematic,
                            1 => &mut llrs.parity1,
                            _ => &mut llrs.parity2,
                        };
                        stream[i] = match rng.next_below(3) {
                            0 => f32::INFINITY,
                            1 => f32::NEG_INFINITY,
                            _ => f32::from_bits(rng.next_u32() | 0x7F80_0001), // NaN, any payload/sign
                        };
                    }
                }
                return llrs;
            }
            let bits: Vec<u8> = (0..k).map(|_| (rng.next_u32() & 1) as u8).collect();
            let mag = 0.25 + rng.next_f32() * 8.0;
            let sigma = if rng.next_below(3) == 0 {
                0.0
            } else {
                rng.next_f32() * mag
            };
            let mut llrs = TurboEncoder::new(k).encode(&bits).to_llrs(mag);
            for v in llrs
                .systematic
                .iter_mut()
                .chain(&mut llrs.parity1)
                .chain(&mut llrs.parity2)
            {
                *v += (rng.next_f32() * 2.0 - 1.0) * sigma;
            }
            llrs
        })
        .collect();
    let decode_until = |llrs: &[TurboLlrs], stop_at: &[usize], ws: &mut [TurboWorkspace]| {
        let mut passes = vec![0; llrs.len()];
        decoder.decode_group_until(llrs, ws, |b, _| {
            passes[b] += 1;
            passes[b] == stop_at[b]
        });
    };
    let mut ws = vec![TurboWorkspace::new(); group];
    force_scalar(false);
    decode_until(&llrs, &stop_at, &mut ws);
    force_scalar(true);
    let alone: Vec<Vec<f32>> = llrs
        .iter()
        .zip(&stop_at)
        .map(|(l, s)| {
            let mut one = [TurboWorkspace::new()];
            decode_until(std::slice::from_ref(l), std::slice::from_ref(s), &mut one);
            one[0].app().to_vec()
        })
        .collect();
    force_scalar(false);
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for (b, (w, want)) in ws.iter().zip(&alone).enumerate() {
        assert_eq!(w.app().len(), k, "turbo-group k={k}: block {b} length");
        for (i, (&x, &y)) in w.app().iter().zip(want).enumerate() {
            assert!(
                same(x, y),
                "turbo-group k={k} group={group} iterations={iterations} stop_at={stop_at:?}: \
                 block {b} diverged at {i}: {x:e} ({:08x}) vs {y:e} ({:08x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
}

/// The matched filter's conjugate multiply, out of place and in place,
/// must be bit-identical across dispatch paths on wild inputs.
fn fuzz_matched_filter(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let n = 1 + rng.next_below(700) as usize;
    let received = wild_symbols(&mut rng, n);
    let reference = wild_symbols(&mut rng, n);
    let run = |scalar: bool| {
        force_scalar(scalar);
        let mut out = vec![Complex32::ZERO; n];
        matched_filter(&received, &reference, &mut out);
        let mut inplace = received.clone();
        matched_filter_inplace(&mut inplace, &reference);
        force_scalar(false);
        (out, inplace)
    };
    let (simd_out, simd_in) = run(false);
    let (scalar_out, scalar_in) = run(true);
    for (what, simd, scalar) in [
        ("matched-filter", &simd_out, &scalar_out),
        ("matched-filter-inplace", &simd_in, &scalar_in),
    ] {
        for (i, (a, b)) in simd.iter().zip(scalar).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{what} n={n}: divergence at {i}: {a:?} vs {b:?}"
            );
        }
    }
}

fn fuzz_calibration(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut text = WorkloadEstimator::new().to_json().into_bytes();
    // Structured mutations: byte flips, truncation, duplication and
    // digit garbling. from_json must return Ok or Err — never panic.
    for _ in 0..1 + rng.next_below(8) {
        match rng.next_below(4) {
            0 if !text.is_empty() => {
                let at = rng.next_below(text.len() as u64) as usize;
                text[at] ^= 1 << rng.next_below(8);
            }
            1 => {
                let at = rng.next_below(text.len() as u64 + 1) as usize;
                text.truncate(at);
            }
            2 => {
                let at = rng.next_below(text.len() as u64 + 1) as usize;
                let extra = b"[]{}:,\"-eE.0123456789"[rng.next_below(21) as usize];
                text.insert(at, extra);
            }
            _ => {
                let copy = text.clone();
                text.extend_from_slice(&copy[..rng.next_below(copy.len() as u64 + 1) as usize]);
            }
        }
    }
    let text = String::from_utf8_lossy(&text).into_owned();
    let _ = WorkloadEstimator::from_json(&text);
}

/// The word-parallel Gold generator against the one-bit-per-step
/// registers: any seed (bit 31 must be ignored), any starting offset
/// reached bit by bit, any length read as words, then bits again.
fn fuzz_gold_word(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let c_init = rng.next_u32();
    let offset = rng.next_below(120) as usize;
    let n = rng.next_below(5000) as usize;
    let mut word = GoldSequence::new(c_init);
    let mut bit = BitStepGold::new(c_init);
    for i in 0..offset {
        assert_eq!(word.next_bit(), bit.next_bit(), "offset bit {i}");
    }
    let expect: Vec<u8> = (0..n).map(|_| bit.next_bit()).collect();
    assert_eq!(word.bits(n), expect, "c_init {c_init:#x} +{offset} n {n}");
    for i in 0..40 {
        assert_eq!(word.next_bit(), bit.next_bit(), "trailing bit {i}");
    }
}

/// The byte-table CRC against the bit loop for all four polynomials:
/// every `len % 8`, elements drawn from the whole byte range (only the
/// low bit may count), and the packed-byte entry point on the same bits.
fn fuzz_crc_table(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let len = rng.next_below(6201) as usize;
    let bits: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
    let bytes: Vec<u8> = bits
        .chunks_exact(8)
        .map(|octet| octet.iter().fold(0, |byte, b| (byte << 1) | (b & 1)))
        .collect();
    for (crc, poly) in [
        (CRC24A, 0x86_4C_FB),
        (CRC24B, 0x80_00_63),
        (CRC16, 0x1021),
        (CRC8, 0x9B),
    ] {
        let width = crc.width();
        assert_eq!(
            crc.compute_bits(&bits),
            crc_bit_loop(poly, width, &bits),
            "crc{width} poly {poly:#x} len {len}"
        );
        assert_eq!(
            crc.compute_bytes(&bytes),
            crc_bit_loop(poly, width, &bits[..8 * bytes.len()]),
            "crc{width} poly {poly:#x} {} bytes",
            bytes.len()
        );
    }
}

/// The branch-free sign flip against `if bit { -l }`, in place and
/// copying, over wild LLRs salted with signed zeros, infinities and NaN
/// payloads — compared as bits.
fn fuzz_descramble(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let c_init = rng.next_u32();
    let n = rng.next_below(3000) as usize;
    let mut llrs = wild_llrs(&mut rng, n);
    for l in llrs.iter_mut() {
        match rng.next_below(12) {
            0 => *l = -0.0,
            1 => *l = f32::INFINITY,
            2 => *l = f32::NEG_INFINITY,
            3 => *l = f32::from_bits(rng.next_u32() | 0x7F80_0001), // NaN, any payload/sign
            _ => {}
        }
    }
    let mut gold = BitStepGold::new(c_init);
    let expect: Vec<f32> = llrs
        .iter()
        .map(|&l| if gold.next_bit() == 1 { -l } else { l })
        .collect();
    let mut in_place = llrs.clone();
    descramble_llrs(&mut in_place, c_init);
    assert_bits_equal(&in_place, &expect, "descramble in place");
    let mut copied = vec![1.0; rng.next_below(8) as usize];
    descramble_llrs_into(&llrs, c_init, &mut copied);
    assert_bits_equal(&copied, &expect, "descramble into");
}

/// The fixed-size stack MMSE solve, on both dispatch paths (the
/// lane-batched vector solve with its scalar group fallback, and the
/// scalar loop), against the dynamic-matrix formulation it replaced, at
/// every antenna × layer shape, on channels spanning 60 decades with
/// exact zeros, rank-deficient columns and all-zero `H` (the
/// matched-filter fallback), and on moderate channels of one random scale
/// (shapes 8–10, rank one at 8), whose groups the vector solve completes.
/// A quarter of cases put a zero, ±∞ or NaN subcarrier inside an
/// 8-subcarrier lane group. Compared as bits, the NaNs and infinities of
/// overflowing solves included.
fn fuzz_mmse_fixed(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let n_rx = 1 + rng.next_below(8) as usize;
    let n_layers = 1 + rng.next_below(4) as usize;
    let n_sc = 1 + rng.next_below(40) as usize;
    let shape = rng.next_below(11);
    let moderate_scale = if shape >= 8 {
        10f32.powi(rng.next_below(17) as i32 - 8)
    } else {
        0.0
    };
    let mut est = ChannelEstimate::empty(n_rx, n_layers, n_sc);
    if shape != 0 {
        for rx in 0..n_rx {
            for layer in 0..n_layers {
                *est.path_mut(rx, layer) = if (shape == 1 || shape == 8) && layer > 0 {
                    est.path(rx, 0).to_vec() // rank one: every layer alike
                } else if shape >= 8 {
                    (0..n_sc)
                        .map(|_| {
                            let mut pick = || match rng.next_below(16) {
                                0 => 0.0,
                                _ => (rng.next_f32() * 2.0 - 1.0) * moderate_scale,
                            };
                            Complex32::new(pick(), pick())
                        })
                        .collect()
                } else {
                    wild_symbols(&mut rng, n_sc)
                };
            }
        }
    }
    let grouped = n_sc & !7;
    if grouped > 0 && rng.next_below(4) == 0 {
        let sc = rng.next_below(grouped as u64) as usize;
        let value = match rng.next_below(4) {
            0 => 0.0,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => f32::from_bits(rng.next_u32() | 0x7F80_0001), // NaN, any payload/sign
        };
        for rx in 0..n_rx {
            for layer in 0..n_layers {
                est.path_mut(rx, layer)[sc] = Complex32::new(value, value);
            }
        }
    }
    // From far below the pivot floor to far above any channel power.
    let noise_var = 10f32.powi(rng.next_below(61) as i32 - 30);
    let expect = mmse_weights_dynamic(&est, noise_var);
    let mut weights = CombinerWeights::empty();
    for scalar in [false, true] {
        force_scalar(scalar);
        weights.compute(&est, noise_var, &mut MmseScratch::new());
        for sc in 0..n_sc {
            for layer in 0..n_layers {
                for rx in 0..n_rx {
                    let want = expect[(sc * n_layers + layer) * n_rx + rx];
                    let got = weights.lane(layer, rx)[sc];
                    assert!(
                        got.re.to_bits() == want.re.to_bits()
                            && got.im.to_bits() == want.im.to_bits(),
                        "mmse {n_rx}x{n_layers} shape {shape} noise {noise_var:e} \
                         scalar {scalar} sc {sc} layer {layer} rx {rx}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
    force_scalar(false);
}

/// `FftPlan::process` on both dispatch paths against the recursive,
/// one-chain-per-output FFT in [`oracle`], compared as bits, on wild
/// symbols of length `n` — a quarter of them salted with a few
/// infinities and NaNs. A NaN output must be NaN on both sides but its
/// sign and payload are not compared: x86 propagates whichever NaN
/// operand sits first in the instruction, and the operand order is the
/// register allocator's choice — the verbatim copy and the kernel it was
/// copied from already disagree there.
fn check_fft_against_chain(target: &str, rng: &mut Xoshiro256, n: usize) {
    let mut input = wild_symbols(rng, n);
    if rng.next_below(4) == 0 {
        for _ in 0..1 + rng.next_below(3) {
            let z = &mut input[rng.next_below(n as u64) as usize];
            let part = if rng.next_below(2) == 0 {
                &mut z.re
            } else {
                &mut z.im
            };
            *part = match rng.next_below(3) {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                _ => f32::from_bits(rng.next_u32() | 0x7F80_0001), // NaN, any payload/sign
            };
        }
    }
    let direction = if rng.next_below(2) == 0 {
        Direction::Forward
    } else {
        Direction::Inverse
    };
    let mut expect = input.clone();
    ChainFft::new(n, direction).process(&mut expect);
    let plan = FftPlan::new(n, direction);
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for scalar in [false, true] {
        let mut got = input.clone();
        force_scalar(scalar);
        plan.process(&mut got);
        force_scalar(false);
        for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert!(
                same(a.re, b.re) && same(a.im, b.im),
                "{target} n={n} {direction:?} scalar={scalar}: divergence at {i}: {a:?} vs {b:?}"
            );
        }
    }
}

/// The generic butterfly's interleaved output chains: widths `12·p` for
/// every prime `p ≤ 199` (the prime is the leaf radix, at `m = 1`), and
/// lengths with a repeated prime so radix 7, 11 and 13 also run at
/// `m ≥ 4`.
fn fuzz_fft_prime(seed: u64) {
    const PRIMES: [usize; 46] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
        191, 193, 197, 199,
    ];
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let n = if rng.next_below(3) == 0 {
        [49, 121, 169, 343][rng.next_below(4) as usize] * [1, 2, 12][rng.next_below(3) as usize]
    } else {
        12 * PRIMES[rng.next_below(PRIMES.len() as u64) as usize]
    };
    check_fft_against_chain("fft-prime", &mut rng, n);
}

/// The iterative driver's order — the leaf stage, four butterflies per
/// vector, then one pass per level — against the recursion: every
/// `12·PRB` width up to 200 PRB, powers of two up to 2048 and arbitrary
/// lengths.
fn fuzz_fft_order(seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let n = match rng.next_below(3) {
        0 => 12 * (1 + rng.next_below(200) as usize),
        1 => 1 << (1 + rng.next_below(11)),
        _ => 1 + rng.next_below(1400) as usize,
    };
    check_fft_against_chain("fft-order", &mut rng, n);
}

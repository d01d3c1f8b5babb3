//! Decode-tail micro-benchmark: the state-parallel max-log-MAP turbo
//! decoder across QPP block sizes, scalar vs SIMD dispatch, with and
//! without deterministic early termination, plus lockstep group decodes.
//!
//! The SIMD rows exercise the AVX2 path (when the host has it) through
//! the allocation-free `decode_into` entry point — a one-block
//! `decode_group`, the decode the receiver runs for a one-block
//! transport — so the ratio between the `scalar/` and `simd/` groups is
//! the kernel-level SIMD speedup. The `group2/5824` and `group5/5824`
//! rows decode two and five K = 5824 blocks (the `turbo100` users' block
//! size) through `decode_group` and report the time per block, to set
//! beside `full/6144`.

use lte_bench::{bench, bench_per};
use lte_dsp::simd::force_scalar;
use lte_dsp::turbo::{TurboDecoder, TurboEncoder, TurboLlrs, TurboWorkspace};
use lte_dsp::Xoshiro256;

const ITERATIONS: usize = 5;

/// QPP interleaver sizes spanning the 3GPP table: the smallest block,
/// two mid-range sizes, and the largest.
const SIZES: [usize; 4] = [40, 512, 2048, 6144];

/// Block size and group sizes of the lockstep rows.
const GROUP_K: usize = 5824;
const GROUPS: [usize; 2] = [2, 5];

fn encoded_llrs(k: usize, seed: u64) -> TurboLlrs {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let bits: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
    let code = TurboEncoder::new(k).encode(&bits);
    let mut llrs = code.to_llrs(4.0);
    // Mild noise so early termination converges in a realistic number
    // of half-iterations instead of on the first agreement check.
    for v in llrs
        .systematic
        .iter_mut()
        .chain(llrs.parity1.iter_mut())
        .chain(llrs.parity2.iter_mut())
    {
        *v += (rng.next_f32() - 0.5) * 1.5;
    }
    llrs
}

fn bench_dispatch(label: &str, scalar: bool) {
    force_scalar(scalar);
    for &k in &SIZES {
        let llrs = encoded_llrs(k, k as u64);
        let decoder = TurboDecoder::new(k, ITERATIONS);
        let early = TurboDecoder::new(k, ITERATIONS).with_early_termination();
        let mut ws = TurboWorkspace::new();
        let mut out = Vec::new();
        bench(&format!("turbo_decode/{label}/full/{k}"), || {
            decoder.decode_into(&llrs, &mut ws, &mut out);
            out.first().copied()
        });
        bench(&format!("turbo_decode/{label}/early-term/{k}"), || {
            early.decode_into(&llrs, &mut ws, &mut out);
            out.first().copied()
        });
    }
    let decoder = TurboDecoder::new(GROUP_K, ITERATIONS);
    for group in GROUPS {
        let llrs: Vec<TurboLlrs> = (0..group as u64)
            .map(|b| encoded_llrs(GROUP_K, GROUP_K as u64 + b))
            .collect();
        let mut ws = vec![TurboWorkspace::new(); group];
        bench_per(
            &format!("turbo_decode/{label}/group{group}/{GROUP_K}"),
            group as u32,
            || {
                decoder.decode_group(&llrs, &mut ws);
                ws[0].app().first().copied()
            },
        );
    }
    force_scalar(false);
}

fn main() {
    bench_dispatch("simd", false);
    bench_dispatch("scalar", true);
}

//! Soft symbol demapping (the `soft demap` kernel of Fig. 3).
//!
//! Produces per-bit log-likelihood ratios `LLR = ln P(b=0|y) − ln P(b=1|y)`
//! for equalised symbols, either exactly (log-sum-exp over the
//! constellation) or with the max-log approximation used by practical
//! receivers. A positive LLR favours bit 0.

use crate::complex::Complex32;
use crate::modulation::Modulation;

/// Exact LLRs for one equalised symbol under AWGN with noise variance
/// `noise_var` (per complex dimension pair, i.e. `E[|n|²]`).
///
/// Output length is [`Modulation::bits_per_symbol`], ordered `b0, b1, …`.
///
/// # Panics
///
/// Panics if `noise_var <= 0`.
pub fn exact_llr(modulation: Modulation, y: Complex32, noise_var: f32, out: &mut Vec<f32>) {
    assert!(noise_var > 0.0, "noise variance must be positive");
    let m = modulation.bits_per_symbol();
    let constellation = modulation.constellation();
    let inv = 1.0 / noise_var;
    for k in 0..m {
        let bit_mask = 1usize << (m - 1 - k);
        let mut num = f64::NEG_INFINITY; // log Σ over b_k = 0
        let mut den = f64::NEG_INFINITY; // log Σ over b_k = 1
        for (label, s) in constellation.iter().enumerate() {
            let metric = (-(y - *s).norm_sqr() * inv) as f64;
            if label & bit_mask == 0 {
                num = log_add(num, metric);
            } else {
                den = log_add(den, metric);
            }
        }
        out.push((num - den) as f32);
    }
}

/// Max-log LLRs for one equalised symbol: replaces the log-sum-exp with a
/// max, the standard receiver approximation. Appends
/// [`Modulation::bits_per_symbol`] values.
///
/// # Panics
///
/// Panics if `noise_var <= 0`.
pub fn maxlog_llr(modulation: Modulation, y: Complex32, noise_var: f32, out: &mut Vec<f32>) {
    let start = out.len();
    out.resize(start + modulation.bits_per_symbol(), 0.0);
    maxlog_llr_to(modulation, y, noise_var, &mut out[start..]);
}

/// [`maxlog_llr`] into `out`, which holds exactly
/// [`Modulation::bits_per_symbol`] values.
pub(crate) fn maxlog_llr_to(modulation: Modulation, y: Complex32, noise_var: f32, out: &mut [f32]) {
    assert!(noise_var > 0.0, "noise variance must be positive");
    match modulation {
        // QPSK max-log is exactly linear in y.
        Modulation::Qpsk => {
            let a = 2.0 * std::f32::consts::SQRT_2 / noise_var;
            out[0] = a * y.re;
            out[1] = a * y.im;
        }
        Modulation::Qam16 => {
            let d = modulation.norm();
            let (i, q) = out.split_at_mut(2);
            axis_llr_2bit(y.re, d, noise_var, i);
            axis_llr_2bit(y.im, d, noise_var, q);
            // Interleave: produced [i0 i1 q0 q1], need [b0=i0 b1=q0 b2=i1 b3=q1].
            out.swap(1, 2);
        }
        Modulation::Qam64 => {
            let d = modulation.norm();
            let (i, q) = out.split_at_mut(3);
            axis_llr_3bit(y.re, d, noise_var, i);
            axis_llr_3bit(y.im, d, noise_var, q);
            // Reorder [i0 i1 i2 q0 q1 q2] → [i0 q0 i1 q1 i2 q2].
            let tmp = [out[0], out[3], out[1], out[4], out[2], out[5]];
            out.copy_from_slice(&tmp);
        }
    }
}

/// Demaps a block of symbols with the max-log demapper.
pub fn demap_block(modulation: Modulation, symbols: &[Complex32], noise_var: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(symbols.len() * modulation.bits_per_symbol());
    demap_block_into(modulation, symbols, noise_var, &mut out);
    out
}

/// [`demap_block`] appending into a caller-owned buffer: grows `out` by
/// the block's LLR count and runs [`demap_block_to`] on the new tail.
pub fn demap_block_into(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
    out: &mut Vec<f32>,
) {
    let start = out.len();
    out.resize(start + symbols.len() * modulation.bits_per_symbol(), 0.0);
    demap_block_to(modulation, symbols, noise_var, &mut out[start..]);
}

/// The max-log demap kernel: writes every LLR of `symbols` into `out`,
/// which holds exactly `symbols.len() · bits_per_symbol` values — the
/// zero-allocation hot path hands it a range of its LLR buffer.
///
/// Dispatches to the AVX2 demapper when available (see [`crate::simd`]);
/// the vector path is bit-identical to the scalar loop below.
///
/// # Panics
///
/// Panics if `out` has the wrong length or `noise_var <= 0`.
pub fn demap_block_to(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
    out: &mut [f32],
) {
    let bits = modulation.bits_per_symbol();
    assert_eq!(out.len(), symbols.len() * bits, "one LLR per bit");
    if crate::simd::demap_block_maxlog(modulation, symbols, noise_var, out) {
        return;
    }
    for (&y, llrs) in symbols.iter().zip(out.chunks_exact_mut(bits)) {
        maxlog_llr_to(modulation, y, noise_var, llrs);
    }
}

/// Demaps a block of symbols with the exact log-sum-exp demapper — the
/// reference the max-log approximation is measured against. Every
/// receiver decode runs max-log.
pub fn demap_block_exact(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(symbols.len() * modulation.bits_per_symbol());
    demap_block_exact_into(modulation, symbols, noise_var, &mut out);
    out
}

/// [`demap_block_exact`] appending into a caller-owned buffer.
pub fn demap_block_exact_into(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
    out: &mut Vec<f32>,
) {
    for &y in symbols {
        exact_llr(modulation, y, noise_var, out);
    }
}

/// Hard decisions from LLRs (`llr >= 0` → bit 0).
pub fn hard_decisions(llrs: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(llrs.len());
    hard_decisions_into(llrs, &mut out);
    out
}

/// [`hard_decisions`] appending into a caller-owned buffer.
pub fn hard_decisions_into(llrs: &[f32], out: &mut Vec<u8>) {
    out.extend(llrs.iter().map(|&l| if l >= 0.0 { 0u8 } else { 1 }));
}

/// Per-axis Gray-coded 2-bit PAM max-log LLRs (16-QAM axis with levels
/// ±d, ±3d): closed-form piecewise-linear expressions.
fn axis_llr_2bit(x: f32, d: f32, noise_var: f32, out: &mut [f32]) {
    let levels = [(0b00, d), (0b01, 3.0 * d), (0b10, -d), (0b11, -3.0 * d)];
    axis_llrs::<2>(x, &levels, 1.0 / noise_var, out);
}

/// Per-axis Gray-coded 3-bit PAM max-log LLRs (64-QAM axis).
fn axis_llr_3bit(x: f32, d: f32, noise_var: f32, out: &mut [f32]) {
    let inv = 1.0 / noise_var;
    let levels = [
        (0b000, 3.0 * d),
        (0b001, d),
        (0b010, 5.0 * d),
        (0b011, 7.0 * d),
        (0b100, -3.0 * d),
        (0b101, -d),
        (0b110, -5.0 * d),
        (0b111, -7.0 * d),
    ];
    axis_llrs::<3>(x, &levels, inv, out);
}

/// Shared max-log PAM demapper over an explicit (label, level) table,
/// into `out[..BITS]`.
fn axis_llrs<const BITS: usize>(x: f32, levels: &[(usize, f32)], inv_noise: f32, out: &mut [f32]) {
    for (k, llr) in out[..BITS].iter_mut().enumerate() {
        let mask = 1usize << (BITS - 1 - k);
        let mut best0 = f32::INFINITY;
        let mut best1 = f32::INFINITY;
        for &(label, level) in levels {
            let dist = (x - level) * (x - level);
            if label & mask == 0 {
                best0 = best0.min(dist);
            } else {
                best1 = best1.min(dist);
            }
        }
        *llr = (best1 - best0) * inv_noise;
    }
}

fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn maxlog_reference(m: Modulation, y: Complex32, nv: f32) -> Vec<f32> {
        // Set-based max-log over the full constellation — the executable
        // specification the fast per-axis demappers must match.
        let bits = m.bits_per_symbol();
        let c = m.constellation();
        let mut out = Vec::with_capacity(bits);
        for k in 0..bits {
            let mask = 1usize << (bits - 1 - k);
            let mut b0 = f32::INFINITY;
            let mut b1 = f32::INFINITY;
            for (label, s) in c.iter().enumerate() {
                let d = (y - *s).norm_sqr();
                if label & mask == 0 {
                    b0 = b0.min(d);
                } else {
                    b1 = b1.min(d);
                }
            }
            out.push((b1 - b0) / nv);
        }
        out
    }

    #[test]
    fn noiseless_llr_signs_recover_bits() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for m in Modulation::ALL {
            let bits: Vec<u8> = (0..m.bits_per_symbol() * 64)
                .map(|_| (rng.next_u64() & 1) as u8)
                .collect();
            let symbols = m.map_bits(&bits);
            let llrs = demap_block(m, &symbols, 0.01);
            assert_eq!(hard_decisions(&llrs), bits, "{m}");
        }
    }

    #[test]
    fn fast_maxlog_matches_set_based_reference() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for m in Modulation::ALL {
            for _ in 0..500 {
                let y = Complex32::new(3.0 * (rng.next_f32() - 0.5), 3.0 * (rng.next_f32() - 0.5));
                let nv = 0.05 + rng.next_f32();
                let mut fast = Vec::new();
                maxlog_llr(m, y, nv, &mut fast);
                let reference = maxlog_reference(m, y, nv);
                assert_eq!(fast.len(), reference.len());
                for (a, b) in fast.iter().zip(&reference) {
                    assert!(
                        (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                        "{m}: y={y:?} fast={a} ref={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_llr_close_to_maxlog_at_high_snr() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        for m in Modulation::ALL {
            let bits: Vec<u8> = (0..m.bits_per_symbol())
                .map(|_| (rng.next_u64() & 1) as u8)
                .collect();
            let y = m.map_bits(&bits)[0];
            let nv = 1e-3;
            let mut exact = Vec::new();
            exact_llr(m, y, nv, &mut exact);
            let mut approx = Vec::new();
            maxlog_llr(m, y, nv, &mut approx);
            for (a, b) in exact.iter().zip(&approx) {
                // At high SNR the dominant term wins; signs must agree and
                // magnitudes be within a few percent.
                assert_eq!(a.signum(), b.signum(), "{m}");
                assert!((a - b).abs() < 0.05 * a.abs().max(1.0), "{m}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn llr_scales_inversely_with_noise() {
        let y = Complex32::new(0.4, -0.2);
        let mut l1 = Vec::new();
        let mut l2 = Vec::new();
        maxlog_llr(Modulation::Qam16, y, 0.1, &mut l1);
        maxlog_llr(Modulation::Qam16, y, 0.2, &mut l2);
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a - 2.0 * b).abs() < 1e-4);
        }
    }

    #[test]
    fn qpsk_llr_is_linear() {
        let nv = 0.3;
        let mut out = Vec::new();
        maxlog_llr(Modulation::Qpsk, Complex32::new(0.5, -0.7), nv, &mut out);
        let a = 2.0 * std::f32::consts::SQRT_2 / nv;
        assert!((out[0] - a * 0.5).abs() < 1e-4);
        assert!((out[1] - a * -0.7).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_noise_panics() {
        let mut out = Vec::new();
        maxlog_llr(Modulation::Qpsk, Complex32::ONE, 0.0, &mut out);
    }

    #[test]
    fn hard_decisions_threshold() {
        assert_eq!(hard_decisions(&[1.0, -0.5, 0.0, -0.0]), vec![0, 1, 0, 0]);
    }
}

//! The FFT against an independent truth: a direct `O(n²)` DFT that
//! accumulates in f64 over a precomputed f64 root table and shares no
//! code with the kernels (no plan, no twiddle table, no `Complex32`
//! arithmetic), at every 2·3·5-smooth width `12·PRB` up to 200 PRB, in
//! both directions, on both SIMD dispatch paths.
//!
//! Golden vectors pin what the kernels did on the day they were hashed;
//! this pins how far that is from the mathematical transform. The bound
//! is a float-error budget, not a fit: a radix-`r` pass adds a few f32
//! roundings relative to the data's magnitude, and there are about
//! `log2 n` passes, so each output may sit `C·ε·log2 n` of the output's
//! RMS away from the exact value.

use std::f64::consts::TAU;

use lte_dsp::fft::{Direction, FftPlan};
use lte_dsp::simd::force_scalar;
use lte_dsp::{Complex32, Xoshiro256};

/// Error budget per pass (there are about `log2 n`), in units of f32
/// epsilon × output RMS.
const ERROR_PER_PASS: f64 = 2.0;

fn is_smooth(mut n: usize) -> bool {
    for f in [2, 3, 5] {
        while n.is_multiple_of(f) {
            n /= f;
        }
    }
    n == 1
}

/// `X[k] = s·Σ x[j]·e^{∓2πi jk/n}` in f64, `s = 1/n` for the inverse.
fn exact_dft(input: &[Complex32], direction: Direction) -> Vec<(f64, f64)> {
    let n = input.len();
    let sign = match direction {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let scale = match direction {
        Direction::Forward => 1.0,
        Direction::Inverse => 1.0 / n as f64,
    };
    let roots: Vec<(f64, f64)> = (0..n)
        .map(|k| (sign * TAU * k as f64 / n as f64).sin_cos())
        .map(|(s, c)| (c, s))
        .collect();
    let x: Vec<(f64, f64)> = input
        .iter()
        .map(|z| (f64::from(z.re), f64::from(z.im)))
        .collect();
    (0..n)
        .map(|k| {
            let (mut re, mut im) = (0.0, 0.0);
            let mut jk = 0; // j·k mod n
            for &(xr, xi) in &x {
                let (c, s) = roots[jk];
                re += xr * c - xi * s;
                im += xr * s + xi * c;
                jk += k;
                if jk >= n {
                    jk -= n;
                }
            }
            (re * scale, im * scale)
        })
        .collect()
}

#[test]
fn smooth_lte_widths_match_an_exact_dft() {
    let mut rng = Xoshiro256::seed_from_u64(0xD1F7);
    let mut worst = 0.0f64;
    for prbs in (1..=200).filter(|&p| is_smooth(p)) {
        let n = 12 * prbs;
        let input: Vec<Complex32> = (0..n)
            .map(|_| Complex32::new(rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0))
            .collect();
        for direction in [Direction::Forward, Direction::Inverse] {
            let exact = exact_dft(&input, direction);
            let rms =
                (exact.iter().map(|(re, im)| re * re + im * im).sum::<f64>() / n as f64).sqrt();
            let budget = ERROR_PER_PASS * f64::from(f32::EPSILON) * (n as f64).log2() * rms;
            let plan = FftPlan::new(n, direction);
            for scalar in [false, true] {
                let mut fast = input.clone();
                force_scalar(scalar);
                plan.process(&mut fast);
                force_scalar(false);
                for (k, (z, &(re, im))) in fast.iter().zip(&exact).enumerate() {
                    let err = (f64::from(z.re) - re).hypot(f64::from(z.im) - im);
                    worst = worst.max(err / budget);
                    assert!(
                        err <= budget,
                        "n={n} {direction:?} scalar={scalar} bin {k}: {z:?} vs ({re}, {im}), \
                         error {err:e} over budget {budget:e}"
                    );
                }
            }
        }
    }
    eprintln!("worst error: {worst:.3} of the budget");
}

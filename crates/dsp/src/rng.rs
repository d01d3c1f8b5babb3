//! Deterministic pseudo-random number generation.
//!
//! The paper's input parameter model is driven by `random()` calls; to make
//! every experiment in this reproduction bit-reproducible across platforms we
//! implement xoshiro256** (Blackman & Vigna) with a SplitMix64 seeder rather
//! than depending on an external RNG whose stream might change between
//! versions. The generator is *splittable* via [`Xoshiro256::split`], which
//! gives independent streams to e.g. each subframe's data generator.

/// xoshiro256** — a small, fast, high-quality non-cryptographic PRNG.
///
/// # Example
///
/// ```
/// use lte_dsp::Xoshiro256;
///
/// let mut a = Xoshiro256::seed_from_u64(42);
/// let mut b = Xoshiro256::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256 {
    /// Seeds the generator from a single `u64` via SplitMix64, as the xoshiro
    /// authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 { s }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` — the paper pseudocode's `random()`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening-multiply rejection sampling: unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A standard-normal sample (Box–Muller; one value per call).
    pub fn next_gaussian(&mut self) -> f64 {
        // Draw u in (0,1] to avoid ln(0).
        let u = 1.0 - self.next_f64();
        let v = self.next_f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Advances the generator past its next `n` outputs, as `n` calls to
    /// [`next_u64`](Xoshiro256::next_u64) would. Every draw method takes
    /// whole `next_u64` outputs, so a caller that knows how many a
    /// computation takes can hand it a clone and skip ahead of it.
    pub fn discard(&mut self, n: u64) {
        for _ in 0..n {
            self.next_u64();
        }
    }

    /// Derives an independent generator, advancing `self`.
    ///
    /// The child is seeded from fresh output of the parent, so parent and
    /// child streams are statistically independent for all practical
    /// purposes.
    pub fn split(&mut self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.next_u64())
    }
}

impl Default for Xoshiro256 {
    /// A fixed-seed generator; equivalent to `seed_from_u64(0)`.
    fn default() -> Self {
        Xoshiro256::seed_from_u64(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from_u64(123);
        let mut b = Xoshiro256::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn unit_interval_bounds() {
        let mut r = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.next_f32();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn uniform_mean_is_centred() {
        let mut r = Xoshiro256::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn bounded_draws_stay_in_range_and_cover() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_panics() {
        Xoshiro256::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "gaussian variance {var}");
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Xoshiro256::seed_from_u64(3);
        let mut child = parent.split();
        // The parent continues on a different trajectory than the child.
        let equal = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn discard_skips_exactly_n_outputs() {
        for n in [0u64, 1, 2, 7, 1000] {
            let mut skipped = Xoshiro256::seed_from_u64(21);
            skipped.discard(n);
            let mut stepped = Xoshiro256::seed_from_u64(21);
            for _ in 0..n {
                stepped.next_u64();
            }
            assert_eq!(skipped, stepped, "n = {n}");
        }
    }

    #[test]
    fn default_is_seed_zero() {
        assert_eq!(Xoshiro256::default(), Xoshiro256::seed_from_u64(0));
    }
}

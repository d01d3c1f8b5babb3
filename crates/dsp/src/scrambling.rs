//! Bit scrambling with the LTE Gold sequence (TS 36.211 §7.2).
//!
//! Uplink coded bits are scrambled with a length-31 Gold sequence seeded
//! from the UE identity and slot number, whitening the transmitted
//! spectrum and decorrelating inter-cell interference. The receiver
//! descrambles by flipping the signs of the corresponding LLRs.
//!
//! Both shift registers advance up to [`WORD`] = 56 positions per step,
//! on a 62-bit window of their sequence. Over GF(2) squaring a
//! polynomial squares each term, so `x1`'s recurrence `x³¹ + x³ + 1`
//! also obeys `x⁶² + x⁶ + 1`, and `x2`'s obeys `x⁶² + x⁶ + x⁴ + x² + 1`.
//! Every tap of the squared recurrences sits at most 6 above the bit it
//! produces, so one window already holds the inputs of its next 56 bits
//! and a step is a few shifts and XORs (DESIGN.md §17).

/// Offset discarding the Gold sequence's low-correlation warm-up
/// (`N_C` in the standard).
const NC: usize = 1600;

/// Sequence bits one register step produces: 62 window bits minus the
/// highest feedback tap (6).
const WORD: usize = 56;

/// Sequence bits a register window holds.
const WINDOW: usize = 62;

/// `x1`'s window after the `N_C` warm-up. Its seed (0…01) is the same
/// for every `c_init`, so the state is a constant of the standard.
const X1_AFTER_NC: u64 = 0x2AC0_A9A4_5E48_5840;

/// The 31 bits of `c_init` that seed `x2`.
const REGISTER_MASK: u32 = 0x7FFF_FFFF;

const WINDOW_MASK: u64 = (1 << WINDOW) - 1;

#[cfg(test)]
thread_local! {
    /// Register steps taken on this thread, for the construction-cost test.
    static REGISTER_STEPS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_step() {
    #[cfg(test)]
    REGISTER_STEPS.with(|s| s.set(s.get() + 1));
}

/// `x1(n+62) = x1(n+6) + x1(n)`: bit `j ≤ 55` of the result is
/// `x1(n+62+j)` when bit `i` of `x` is `x1(n+i)`.
#[inline]
fn x1_feedback(x: u64) -> u64 {
    x ^ (x >> 6)
}

/// `x2(n+62) = x2(n+6) + x2(n+4) + x2(n+2) + x2(n)`, same layout.
#[inline]
fn x2_feedback(x: u64) -> u64 {
    x ^ (x >> 2) ^ (x >> 4) ^ (x >> 6)
}

/// Shifts a window `k ∈ 1..=WORD` positions, filling from `feedback`.
#[inline]
fn advance(x: u64, feedback: u64, k: usize) -> u64 {
    count_step();
    ((x >> k) | (feedback << (WINDOW - k))) & WINDOW_MASK
}

/// `x2`'s first window from its 31-bit seed, by the standard's own
/// recurrence `x2(n+31) = x2(n+3) + x2(n+2) + x2(n+1) + x2(n)`: a
/// 31-bit register yields its next 28 bits at once, so two steps.
fn x2_window(seed: u32) -> u64 {
    let mut window = u64::from(seed & REGISTER_MASK);
    let mut filled = 31;
    while filled < WINDOW {
        count_step();
        let register = window >> (filled - 31);
        let feedback = register ^ (register >> 1) ^ (register >> 2) ^ (register >> 3);
        let k = (WINDOW - filled).min(28);
        window |= (feedback & ((1 << k) - 1)) << filled;
        filled += k;
    }
    window
}

/// The LTE pseudo-random (Gold) sequence generator.
///
/// # Example
///
/// ```
/// use lte_dsp::scrambling::GoldSequence;
///
/// let mut g = GoldSequence::new(0x1234);
/// let bits: Vec<u8> = (0..8).map(|_| g.next_bit()).collect();
/// let mut g2 = GoldSequence::new(0x1234);
/// let again: Vec<u8> = (0..8).map(|_| g2.next_bit()).collect();
/// assert_eq!(bits, again);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoldSequence {
    x1: u64,
    x2: u64,
}

impl GoldSequence {
    /// Creates the generator with initialisation value `c_init`
    /// (truncated to 31 bits), advanced past the `N_C = 1600` warm-up.
    pub fn new(c_init: u32) -> Self {
        let mut x2 = x2_window(c_init);
        for _ in 0..NC / WORD {
            x2 = advance(x2, x2_feedback(x2), WORD);
        }
        x2 = advance(x2, x2_feedback(x2), NC % WORD);
        GoldSequence {
            x1: X1_AFTER_NC,
            x2,
        }
    }

    /// The next `k ∈ 1..=WORD` scrambling bits `c(n) = (x1(n) + x2(n))
    /// mod 2`, earliest in bit 0.
    #[inline]
    fn take(&mut self, k: usize) -> u64 {
        debug_assert!((1..=WORD).contains(&k));
        let c = (self.x1 ^ self.x2) & ((1 << k) - 1);
        self.x1 = advance(self.x1, x1_feedback(self.x1), k);
        self.x2 = advance(self.x2, x2_feedback(self.x2), k);
        c
    }

    /// The next `n <= 64` scrambling bits, earliest in bit 0.
    #[inline]
    pub(crate) fn take64(&mut self, n: usize) -> u64 {
        debug_assert!(n <= 64);
        let mut bits = 0u64;
        let mut filled = 0;
        while filled < n {
            let k = (n - filled).min(WORD);
            bits |= self.take(k) << filled;
            filled += k;
        }
        bits
    }

    /// The next scrambling bit.
    #[inline]
    pub fn next_bit(&mut self) -> u8 {
        self.take(1) as u8
    }

    /// Generates `n` scrambling bits.
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0; n];
        self.scramble(&mut out);
        out
    }

    /// XORs the next `bits.len()` scrambling bits onto `bits`.
    fn scramble(&mut self, bits: &mut [u8]) {
        for chunk in bits.chunks_mut(WORD) {
            let word = self.take(chunk.len());
            for (i, b) in chunk.iter_mut().enumerate() {
                *b ^= ((word >> i) & 1) as u8;
            }
        }
    }
}

/// The standard `c_init` for uplink shared-channel scrambling:
/// `n_rnti·2¹⁴ + q·2¹³ + ⌊n_s/2⌋·2⁹ + cell_id`.
pub fn pusch_c_init(n_rnti: u16, codeword: u8, subframe: u32, cell_id: u16) -> u32 {
    ((n_rnti as u32) << 14)
        | ((codeword as u32 & 1) << 13)
        | ((subframe % 10) << 9)
        | (cell_id as u32 % 504)
}

/// Scrambles a bit vector in place (XOR with the sequence).
pub fn scramble_bits(bits: &mut [u8], c_init: u32) {
    GoldSequence::new(c_init).scramble(bits);
}

/// `llr` negated when bit 0 of `c` is set. XOR on the sign bit is exactly
/// `-llr` for every input, ±0 and NaN payloads included, with no branch
/// for a 50/50 sequence to mispredict.
#[inline]
pub(crate) fn flip_sign(llr: f32, c: u32) -> f32 {
    f32::from_bits(llr.to_bits() ^ (c << 31))
}

/// Descrambles soft values in place: flips the sign of every LLR whose
/// scrambling bit was 1.
pub fn descramble_llrs(llrs: &mut [f32], c_init: u32) {
    let mut g = GoldSequence::new(c_init);
    for chunk in llrs.chunks_mut(WORD) {
        let word = g.take(chunk.len());
        for (i, l) in chunk.iter_mut().enumerate() {
            *l = flip_sign(*l, (word >> i) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// TS 36.211 §7.2 written out as the standard states it: `x1` and
    /// `x2` as plain bit arrays, one recurrence step per element.
    fn spec_sequence(c_init: u32, n: usize) -> Vec<u8> {
        let len = NC + n + 31;
        let mut x1 = vec![0u8; len];
        let mut x2 = vec![0u8; len];
        x1[0] = 1;
        for (i, bit) in x2.iter_mut().enumerate().take(31) {
            *bit = ((c_init >> i) & 1) as u8;
        }
        for i in 0..len - 31 {
            x1[i + 31] = x1[i + 3] ^ x1[i];
            x2[i + 31] = x2[i + 3] ^ x2[i + 2] ^ x2[i + 1] ^ x2[i];
        }
        (0..n).map(|i| x1[i + NC] ^ x2[i + NC]).collect()
    }

    #[test]
    fn word_generator_matches_the_spec_arrays() {
        let mut rng = Xoshiro256::seed_from_u64(0x36_211);
        let corners = [(0, 0), (1, 4099), (REGISTER_MASK, 4099), (u32::MAX, 29)];
        let random = (0..1000).map(|_| (rng.next_u32(), rng.next_below(4100) as usize));
        for (c_init, n) in corners.into_iter().chain(random) {
            assert_eq!(
                GoldSequence::new(c_init).bits(n),
                spec_sequence(c_init & REGISTER_MASK, n),
                "c_init {c_init:#x} n {n}"
            );
        }
    }

    #[test]
    fn bit_and_word_reads_interleave() {
        // The state is just the two registers: single-bit reads, word
        // reads and partial words can be mixed freely.
        let reference = spec_sequence(0x0BAD_CAFE, 300);
        let mut g = GoldSequence::new(0x0BAD_CAFE);
        let mut got = vec![g.next_bit(), g.next_bit(), g.next_bit()];
        got.extend(g.bits(61));
        got.push(g.next_bit());
        got.extend(g.bits(235));
        assert_eq!(got, reference);
    }

    #[test]
    fn x1_constant_is_the_warmed_up_seed() {
        // The standard's recurrence from the seed 0…01, one bit per step.
        let mut x1 = vec![0u8; NC + WINDOW];
        x1[0] = 1;
        for i in 0..NC + WINDOW - 31 {
            x1[i + 31] = x1[i + 3] ^ x1[i];
        }
        let window = (0..WINDOW).fold(0u64, |w, j| w | (u64::from(x1[NC + j]) << j));
        assert_eq!(window, X1_AFTER_NC);
    }

    #[test]
    fn construction_takes_at_most_64_register_steps() {
        let before = REGISTER_STEPS.with(|s| s.get());
        let g = GoldSequence::new(0x1234_5678);
        let steps = REGISTER_STEPS.with(|s| s.get()) - before;
        assert!(steps <= 64, "{steps} register steps to construct {g:?}");
    }

    /// Every class of f32 bit pattern: ±0, ±∞, subnormals, NaN payloads.
    fn wild_llrs(rng: &mut Xoshiro256, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                f32::from_bits(match rng.next_below(8) {
                    0 => 0x0000_0000,
                    1 => 0x8000_0000,
                    2 => 0x7F80_0000,
                    3 => 0xFF80_0000,
                    4 => rng.next_u32() & 0x807F_FFFF,
                    5 => rng.next_u32() | 0x7F80_0001,
                    _ => rng.next_u32(),
                })
            })
            .collect()
    }

    #[test]
    fn descrambling_is_negation_for_every_bit_pattern() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        for n in [0, 1, 27, 28, 29, 55, 56, 57, 112, 1000] {
            let c_init = rng.next_u32();
            let llrs = wild_llrs(&mut rng, n);
            let expect: Vec<u32> = llrs
                .iter()
                .zip(spec_sequence(c_init, n))
                .map(|(&l, c)| if c == 1 { (-l).to_bits() } else { l.to_bits() })
                .collect();
            let mut got = llrs.clone();
            descramble_llrs(&mut got, c_init);
            let got: Vec<u32> = got.iter().map(|l| l.to_bits()).collect();
            assert_eq!(got, expect, "n {n}");
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = GoldSequence::new(7).bits(64);
        let b = GoldSequence::new(7).bits(64);
        let c = GoldSequence::new(8).bits(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sequence_is_balanced() {
        // A Gold sequence is nearly balanced: ~50 % ones.
        let bits = GoldSequence::new(0x0BAD_CAFE & 0x7FFF_FFFF).bits(20_000);
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        let frac = ones as f64 / bits.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "ones fraction {frac}");
    }

    #[test]
    fn low_autocorrelation() {
        let bits = GoldSequence::new(123).bits(8_192);
        // Map to ±1 and check a few cyclic lags.
        let s: Vec<i32> = bits.iter().map(|&b| 1 - 2 * b as i32).collect();
        for lag in [1usize, 7, 63, 1021] {
            let corr: i64 = (0..s.len())
                .map(|i| (s[i] * s[(i + lag) % s.len()]) as i64)
                .sum();
            assert!(
                corr.unsigned_abs() < (s.len() / 16) as u64,
                "lag {lag}: correlation {corr}"
            );
        }
    }

    #[test]
    fn scramble_is_an_involution() {
        let mut bits: Vec<u8> = (0..100).map(|i| (i % 3 == 0) as u8).collect();
        let original = bits.clone();
        scramble_bits(&mut bits, 42);
        assert_ne!(bits, original, "scrambling must change the bits");
        scramble_bits(&mut bits, 42);
        assert_eq!(bits, original, "double scramble is identity");
    }

    #[test]
    fn llr_descrambling_matches_bit_scrambling() {
        let c_init = 99;
        let clean_bits: Vec<u8> = (0..64).map(|i| (i % 5 < 2) as u8).collect();
        let mut tx = clean_bits.clone();
        scramble_bits(&mut tx, c_init);
        // Noiseless LLRs for the scrambled bits: +2 for 0, −2 for 1.
        let mut llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 2.0 } else { -2.0 })
            .collect();
        descramble_llrs(&mut llrs, c_init);
        let rx: Vec<u8> = llrs.iter().map(|&l| (l < 0.0) as u8).collect();
        assert_eq!(rx, clean_bits);
    }

    #[test]
    fn pusch_c_init_fields() {
        let c = pusch_c_init(0x1F, 1, 23, 100);
        assert_eq!(c & 0x1FF, 100); // cell id in low 9 bits
        assert_eq!((c >> 9) & 0xF, 3); // subframe 23 % 10
        assert_eq!((c >> 13) & 1, 1); // codeword
        assert_eq!(c >> 14, 0x1F); // rnti
    }

    #[test]
    fn different_subframes_use_different_sequences() {
        let a = GoldSequence::new(pusch_c_init(1, 0, 0, 0)).bits(32);
        let b = GoldSequence::new(pusch_c_init(1, 0, 1, 0)).bits(32);
        assert_ne!(a, b);
    }
}

//! The pass-through decode tail in one pass over the LLRs (the
//! deinterleave → turbo (pass-through) → CRC tail of Fig. 3).
//!
//! The receiver's pass-through frame is the payload and its CRC-24A,
//! sub-block interleaved ([`crate::interleave`]) and scrambled
//! ([`crate::scrambling`]). Undoing that one step at a time costs four
//! passes: descramble into an `f32` buffer, gather it through the
//! inverse permutation, hard-decide, and CRC one byte per bit.
//! [`PassthroughTail`] reads the raw LLRs once, in order, and works on
//! packed bits from then on:
//!
//! 1. [`decide`](PassthroughTail::decide): XOR the Gold sequence into
//!    each LLR's sign and decide `l >= 0.0 ? 0 : 1`, 64 decisions per
//!    word in transmission order (eight per AVX2 compare on the vector
//!    path);
//! 2. [`deinterleave`](PassthroughTail::deinterleave): the interleaver
//!    sends 32 contiguous column runs
//!    ([`column_walk`](crate::interleave::column_walk)), so 32 rows of one column are one unaligned 32-bit read, and a
//!    32 × 32 bit transpose turns 32 column words into 32 row words —
//!    the deinterleaved stream, MSB first;
//! 3. [`check_into`](PassthroughTail::check_into): CRC-24A over the
//!    packed rows one word per step, then the payload unpacked to one
//!    byte per bit.
//!
//! Each phase moves bits and never changes one, so the output is the
//! four-pass path's bit for bit (DESIGN.md §17).

use crate::crc::CRC24A;
use crate::interleave::{column_walk, COLS};
use crate::scrambling::{flip_sign, GoldSequence};

/// Transport-block CRC bits at the end of the checked span.
const CRC_BITS: usize = 24;
/// Zero bits ahead of the first decision, so a dummy column's row 0
/// (one bit before its run) never reads before the stream.
const PREFIX: usize = 64;

/// Held scratch of the one-pass pass-through tail: packed decisions and
/// deinterleaved rows, grown on first use and reused, so a warm tail
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct PassthroughTail {
    /// Decision of LLR `i` in bit `(PREFIX + i) % 64` of word
    /// `(PREFIX + i) / 64`; the prefix word and two trailing words stay
    /// zero so every 32-bit read is in range.
    decisions: Vec<u64>,
    /// Deinterleaved row words: padded position `32·r + c` (the first
    /// `dummy` are zero) in bit `31 − c` of `rows[r]`, rounded up to
    /// whole 32-row blocks.
    rows: Vec<u32>,
    /// LLR count of the last [`decide`](Self::decide).
    len: usize,
}

/// The 32 stream bits from bit `pos` on, the first in bit 0.
#[inline]
fn bits32_at(stream: &[u64], pos: usize) -> u32 {
    let (word, shift) = (pos / 64, pos % 64);
    let pair = u128::from(stream[word]) | (u128::from(stream[word + 1]) << 64);
    (pair >> shift) as u32
}

/// Transposes a 32 × 32 bit matrix in place, element `(i, j)` in bit
/// `j` of `m[i]`: five rounds of swapping off-diagonal blocks, halving
/// the block side each round.
fn transpose32(m: &mut [u32; 32]) {
    let mut width = 16;
    let mut mask = 0x0000_FFFFu32;
    while width != 0 {
        let mut k = 0;
        while k < 32 {
            for i in k..k + width {
                let t = ((m[i] >> width) ^ m[i + width]) & mask;
                m[i + width] ^= t;
                m[i] ^= t << width;
            }
            k += 2 * width;
        }
        width /= 2;
        mask ^= mask << width;
    }
}

/// `SPREAD[b][k]` is bit `7 − k` of `b`: a byte of packed bits, MSB
/// first, as one byte per bit.
static SPREAD: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            table[b][k] = ((b >> (7 - k)) & 1) as u8;
            k += 1;
        }
        b += 1;
    }
    table
};

/// Writes bits `start..start + out.len()` of an MSB-first word stream to
/// `out`, one byte per bit.
fn unpack_bits(words: &[u32], start: usize, out: &mut [u8]) {
    for (i, b) in (start..).zip(out) {
        *b = ((words[i / 32] >> (31 - i % 32)) & 1) as u8;
    }
}

/// One MSB-first word as 32 bytes, one per bit.
#[inline]
fn spread_word(word: u32, out: &mut [u8; 32]) {
    for (dst, byte) in out
        .as_chunks_mut::<8>()
        .0
        .iter_mut()
        .zip(word.to_be_bytes())
    {
        *dst = SPREAD[byte as usize];
    }
}

/// The scalar decisions of up to 64 LLRs against their scrambling bits
/// (LLR `i` against bit `i` of `gold`), LLR `i` in bit `i`.
fn decide_word(llrs: &[f32], gold: u64) -> u64 {
    llrs.iter().enumerate().fold(0, |word, (i, &l)| {
        let flipped = flip_sign(l, (gold >> i) as u32 & 1);
        let bit = if flipped >= 0.0 { 0 } else { 1 };
        word | (bit << i)
    })
}

impl PassthroughTail {
    /// An empty tail; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase 1: the hard decision of every descrambled LLR, `0` where
    /// the LLR with its sign flipped by scrambling bit `c(i)` is
    /// `>= 0.0`, else `1` (negatives and NaN; ±0 decide `0`), packed in
    /// transmission order. The scrambling words are generated in step
    /// with the LLRs from `c_init`, as [`crate::scrambling`] does.
    pub fn decide(&mut self, llrs: &[f32], c_init: u32) {
        let n = llrs.len();
        let words = n.div_ceil(64);
        self.len = n;
        self.decisions.clear();
        self.decisions.resize(PREFIX / 64 + words + 2, 0);
        let decided = &mut self.decisions[PREFIX / 64..PREFIX / 64 + words];
        let (chunks, tail) = llrs.as_chunks::<64>();
        let (full, last) = decided.split_at_mut(chunks.len());
        let mut gold = GoldSequence::new(c_init);
        if !crate::simd::decide_flipped64(chunks, &mut gold, full) {
            for (chunk, word) in chunks.iter().zip(full) {
                *word = decide_word(chunk, gold.take64(64));
            }
        }
        if let Some(word) = last.first_mut() {
            *word = decide_word(tail, gold.take64(tail.len()));
        }
    }

    /// Phase 2: the decisions in deinterleaved order. Column `col`'s rows
    /// `32w..32w + 32` are the 32 stream bits from its row 0 on, so each
    /// 32-row block is 32 reads and one bit transpose; a dummy column's
    /// row 0 is cleared, which makes the rows the padded stream with
    /// `dummy` leading zeros.
    pub fn deinterleave(&mut self) {
        let (rows, dummy, row0) = column_walk(self.len, PREFIX);
        self.rows.clear();
        self.rows.resize(rows.next_multiple_of(32), 0);
        for (w, block) in self.rows.as_chunks_mut::<32>().0.iter_mut().enumerate() {
            // Columns in reverse, so the transpose leaves column 0 in
            // each row's bit 31.
            for (i, word) in block.iter_mut().enumerate() {
                *word = bits32_at(&self.decisions, row0[COLS - 1 - i] + 32 * w);
            }
            if w == 0 {
                for col in 0..dummy {
                    block[COLS - 1 - col] &= !1;
                }
            }
            transpose32(block);
        }
    }

    /// Phase 3: whether the first `crc_len` deinterleaved bits pass
    /// CRC-24A, with the payload (those bits but the last 24, none when
    /// `crc_len < 24`) written to `payload` one byte per bit. `payload`
    /// is cleared first; its capacity is reused. The CRC runs over the
    /// padded stream, whose leading zeros leave a zero register at zero.
    /// Over the row words wholly inside the payload the CRC step and the
    /// unpack share one loop, so the unpack runs in the shadow of the
    /// CRC's table-lookup chain.
    ///
    /// # Panics
    ///
    /// Panics if `crc_len` exceeds the LLR count of the last
    /// [`decide`](Self::decide).
    pub fn check_into(&self, crc_len: usize, payload: &mut Vec<u8>) -> bool {
        assert!(crc_len <= self.len, "CRC span exceeds the decided LLRs");
        let dummy = self.len.next_multiple_of(COLS) - self.len;
        let crc_end = dummy + crc_len;
        payload.clear();
        payload.resize(crc_len.saturating_sub(CRC_BITS), 0);
        // Stream bits `lo..hi`: the whole words of the payload span.
        let lo = dummy.next_multiple_of(32);
        let hi = (dummy + payload.len()) / 32 * 32;
        if lo >= hi {
            unpack_bits(&self.rows, dummy, payload);
            return crc_len >= CRC_BITS && CRC24A.update_words(0, &self.rows, crc_end) == 0;
        }
        let (head, rest) = payload.split_at_mut(lo - dummy);
        let (whole, tail) = rest.split_at_mut(hi - lo);
        unpack_bits(&self.rows, dummy, head);
        let mut reg = CRC24A.update_words(0, &self.rows, lo);
        let words = &self.rows[lo / 32..hi / 32];
        for (bytes, &word) in whole.as_chunks_mut::<32>().0.iter_mut().zip(words) {
            reg = CRC24A.shift_word(reg, word);
            spread_word(word, bytes);
        }
        unpack_bits(&self.rows, hi, tail);
        CRC24A.update_words(reg, &self.rows[hi / 32..], crc_end - hi) == 0
    }

    /// All three phases: the one-pass form of descramble, sub-block
    /// deinterleave, hard decision and CRC-24A over the first `crc_len`
    /// bits. Returns the CRC verdict; `payload` receives the checked
    /// bits without their CRC, as [`check_into`](Self::check_into).
    ///
    /// # Panics
    ///
    /// Panics if `crc_len > llrs.len()`.
    pub fn decode_into(
        &mut self,
        llrs: &[f32],
        c_init: u32,
        crc_len: usize,
        payload: &mut Vec<u8>,
    ) -> bool {
        self.decide(llrs, c_init);
        self.deinterleave();
        self.check_into(crc_len, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::Interleaver;
    use crate::llr::hard_decisions_into;
    use crate::rng::Xoshiro256;
    use crate::scrambling::descramble_llrs;

    /// The steady-state subframe's four allocations.
    const STEADY_SIZES: [usize; 4] = [28_800, 2_880, 86_400, 34_560];

    /// Descramble, gather through the inverse permutation, decide, CRC.
    fn four_pass(llrs: &[f32], c_init: u32, crc_len: usize) -> (Vec<u8>, bool) {
        let mut descrambled = llrs.to_vec();
        descramble_llrs(&mut descrambled, c_init);
        let gathered = Interleaver::subblock(llrs.len()).invert(&descrambled);
        let mut bits = Vec::new();
        hard_decisions_into(&gathered, &mut bits);
        bits.truncate(crc_len);
        let ok = CRC24A.check_bits(&bits);
        bits.truncate(crc_len.saturating_sub(CRC_BITS));
        (bits, ok)
    }

    /// Random LLRs salted with ±0, ±∞ and NaN payloads of either sign.
    fn edgy_llrs(rng: &mut Xoshiro256, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.next_below(10) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::from_bits(rng.next_u32() | 0x7F80_0001),
                _ => rng.next_f32() - 0.5,
            })
            .collect()
    }

    #[test]
    fn transpose32_moves_bit_j_of_word_i_to_bit_i_of_word_j() {
        let mut rng = Xoshiro256::seed_from_u64(32);
        let m: [u32; 32] = std::array::from_fn(|_| rng.next_u32());
        let mut t = m;
        transpose32(&mut t);
        for (i, &row) in m.iter().enumerate() {
            for (j, &col) in t.iter().enumerate() {
                assert_eq!((col >> i) & 1, (row >> j) & 1, "({i}, {j})");
            }
        }
    }

    #[test]
    fn one_pass_tail_matches_the_four_pass_path() {
        let mut rng = Xoshiro256::seed_from_u64(38);
        let mut tail = PassthroughTail::new();
        let mut payload = vec![7; 3];
        let lengths = (1..=200)
            .chain([1023, 1024, 1025, 4100])
            .chain(STEADY_SIZES);
        for n in lengths {
            let llrs = edgy_llrs(&mut rng, n);
            let c_init = rng.next_u32();
            for crc_len in [n, n / 2, n.min(23), 0] {
                let ok = tail.decode_into(&llrs, c_init, crc_len, &mut payload);
                let (bits, want) = four_pass(&llrs, c_init, crc_len);
                assert_eq!((&payload, ok), (&bits, want), "n {n} crc_len {crc_len}");
            }
        }
    }

    #[test]
    fn a_crc_valid_frame_passes_and_a_flipped_llr_fails() {
        let mut rng = Xoshiro256::seed_from_u64(24);
        let mut tail = PassthroughTail::new();
        let mut payload = Vec::new();
        for n in [24, 25, 64, 1000, 2880] {
            let mut frame: Vec<u8> = (0..n - 24).map(|_| (rng.next_u64() & 1) as u8).collect();
            CRC24A.append_bits(&mut frame);
            let mut sent = Interleaver::subblock(n).apply(&frame);
            let c_init = rng.next_u32();
            crate::scrambling::scramble_bits(&mut sent, c_init);
            let mut llrs: Vec<f32> = sent.iter().map(|&b| 1.0 - 2.0 * f32::from(b)).collect();
            assert!(tail.decode_into(&llrs, c_init, n, &mut payload), "n {n}");
            assert_eq!(payload, frame[..n - 24], "n {n}");
            let i = rng.next_below(n as u64) as usize;
            llrs[i] = -llrs[i];
            assert!(
                !tail.decode_into(&llrs, c_init, n, &mut payload),
                "n {n} flip {i}"
            );
        }
    }

    #[test]
    fn vector_decisions_match_the_scalar_loop() {
        let mut rng = Xoshiro256::seed_from_u64(64);
        let llrs = edgy_llrs(&mut rng, 64 * 40);
        let (chunks, _) = llrs.as_chunks::<64>();
        let c_init = rng.next_u32();
        let mut words = vec![0; chunks.len()];
        if crate::simd::decide_flipped64(chunks, &mut GoldSequence::new(c_init), &mut words) {
            let mut gold = GoldSequence::new(c_init);
            for (chunk, &got) in chunks.iter().zip(&words) {
                assert_eq!(got, decide_word(chunk, gold.take64(64)));
            }
        }
    }
}

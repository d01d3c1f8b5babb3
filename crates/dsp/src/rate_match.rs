//! Turbo-code rate matching (TS 36.212 §5.1.4.1).
//!
//! The rate-1/3 mother code's three streams (systematic, parity 1,
//! parity 2, each carrying a share of the tail bits) are sub-block
//! interleaved, packed into a circular buffer — systematic first, the
//! two parity streams interlaced — and the transmitter reads exactly `E`
//! bits from the buffer, wrapping around: fewer than `3K` bits puncture
//! the code (higher rate), more repeat bits (lower rate, soft-combined
//! at the receiver). This lets a code block fill *any* allocation
//! exactly, with no filler.
//!
//! The tail-bit distribution onto the three streams is a fixed
//! convention documented on [`RateMatcher::new`]; encoder and decoder
//! agree by construction.

use crate::interleave::Interleaver;
use crate::turbo::{TurboCodeword, TurboLlrs};

/// Precomputed rate-matching maps for one turbo block size.
#[derive(Clone, Debug)]
pub struct RateMatcher {
    k: usize,
    /// Circular-buffer order: each entry addresses `(stream, index)` in
    /// the three length-`k+4` bit streams.
    buffer: Vec<(u8, u32)>,
}

/// Bits per stream: the block plus four distributed tail bits.
fn stream_len(k: usize) -> usize {
    k + 4
}

impl RateMatcher {
    /// Builds the rate matcher for turbo block size `k`.
    ///
    /// Tail distribution: stream 0 (systematic) carries the three
    /// encoder-1 tail systematic bits and the first encoder-2 tail
    /// systematic bit; stream 1 (parity 1) the three encoder-1 tail
    /// parities plus the second encoder-2 tail systematic bit; stream 2
    /// (parity 2) the three encoder-2 tail parities plus the third
    /// encoder-2 tail systematic bit.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "block size must be positive");
        let d = stream_len(k);
        // Sub-block interleave each stream with the standard 32-column
        // permutation (dummy-padded); dummies are skipped when packing
        // the circular buffer.
        let interleaver = Interleaver::subblock(d);
        let order: Vec<u32> = interleaver.permutation().to_vec();
        let mut buffer = Vec::with_capacity(3 * d);
        // v0 first …
        for &idx in &order {
            buffer.push((0u8, idx));
        }
        // … then v1 and v2 interlaced.
        for &idx in order.iter().take(d) {
            buffer.push((1u8, idx));
            buffer.push((2u8, idx));
        }
        RateMatcher { k, buffer }
    }

    /// Turbo block size `k`.
    pub fn block_size(&self) -> usize {
        self.k
    }

    /// Mother-code bits available before wrapping (`3·(k+4)`).
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Flattens a codeword into the three tail-augmented streams.
    fn streams(&self, code: &TurboCodeword) -> [Vec<u8>; 3] {
        let d = stream_len(self.k);
        let mut s0 = Vec::with_capacity(d);
        let mut s1 = Vec::with_capacity(d);
        let mut s2 = Vec::with_capacity(d);
        s0.extend_from_slice(&code.systematic);
        s1.extend_from_slice(&code.parity1);
        s2.extend_from_slice(&code.parity2);
        s0.extend([
            code.tail1[0].0,
            code.tail1[1].0,
            code.tail1[2].0,
            code.tail2[0].0,
        ]);
        s1.extend([
            code.tail1[0].1,
            code.tail1[1].1,
            code.tail1[2].1,
            code.tail2[1].0,
        ]);
        s2.extend([
            code.tail2[0].1,
            code.tail2[1].1,
            code.tail2[2].0,
            code.tail2[2].1,
        ]);
        [s0, s1, s2]
    }

    /// Produces exactly `e` transmitted bits for the codeword.
    ///
    /// # Panics
    ///
    /// Panics if the codeword's block size differs from the matcher's or
    /// `e == 0`.
    pub fn match_bits(&self, code: &TurboCodeword, e: usize) -> Vec<u8> {
        assert_eq!(code.systematic.len(), self.k, "block size mismatch");
        assert!(e > 0, "output length must be positive");
        let streams = self.streams(code);
        self.buffer
            .iter()
            .cycle()
            .take(e)
            .map(|&(s, i)| streams[s as usize][i as usize])
            .collect()
    }

    /// Calls `f(item, entry)` for `items[j]` and circular-buffer entry
    /// `j % len`, `j = 0, 1, …` in order — walking the buffer lap by lap
    /// instead of dividing per element.
    #[inline]
    fn zip_circular<T>(&self, items: &[T], mut f: impl FnMut(&T, (u8, u32))) {
        for lap in items.chunks(self.buffer.len()) {
            for (x, &entry) in lap.iter().zip(&self.buffer) {
                f(x, entry);
            }
        }
    }

    /// Accumulates received LLRs back into mother-code positions:
    /// repeated bits soft-combine (LLRs add), punctured bits stay 0.
    ///
    /// # Panics
    ///
    /// Panics if `llrs` is empty.
    pub fn accumulate_llrs(&self, llrs: &[f32]) -> TurboLlrs {
        let mut out = TurboLlrs::default();
        self.accumulate_llrs_into(llrs, &mut out);
        out
    }

    /// [`accumulate_llrs`](Self::accumulate_llrs) into a caller-provided
    /// buffer: with a warm `out` (capacity from a previous block of the
    /// same size) this allocates nothing — the receiver's turbo hot path.
    ///
    /// The three stream vectors double as the length-`k+4` accumulators
    /// during the scatter-add and are truncated to `k` once the four tail
    /// positions have been extracted, so no scratch allocation is needed.
    ///
    /// # Panics
    ///
    /// Panics if `llrs` is empty.
    pub fn accumulate_llrs_into(&self, llrs: &[f32], out: &mut TurboLlrs) {
        assert!(!llrs.is_empty(), "need at least one LLR");
        let d = stream_len(self.k);
        for stream in [&mut out.systematic, &mut out.parity1, &mut out.parity2] {
            stream.clear();
            stream.resize(d, 0.0);
        }
        let acc = [&mut out.systematic, &mut out.parity1, &mut out.parity2];
        self.zip_circular(llrs, |&l, (s, i)| {
            acc[s as usize][i as usize] += l;
        });
        self.extract_tails(out);
    }

    /// Fused deinterleave + rate-match accumulation: equivalent to
    /// deinterleaving `src` through `gather` (`deinterleaved[j] =
    /// src[gather[j]]`) and then calling
    /// [`accumulate_llrs_into`](Self::accumulate_llrs_into) on the
    /// result, but without ever materialising the deinterleaved buffer.
    /// The scatter-add visits positions in the same order with the same
    /// f32 values, so the output is bit-exact versus the two-step path —
    /// this removes the separate deinterleave pass (and its store/reload
    /// of the whole allocation) from the turbo decode tail.
    ///
    /// `gather` is one code block's slice of the allocation
    /// interleaver's inverse permutation
    /// ([`crate::interleave::Interleaver::inverse_permutation`]).
    ///
    /// # Panics
    ///
    /// Panics if `gather` is empty. Indexes `src` through `gather`
    /// unchecked-by-assert: an out-of-range table entry panics on the
    /// slice access.
    pub fn accumulate_llrs_gather_into(&self, src: &[f32], gather: &[u32], out: &mut TurboLlrs) {
        assert!(!gather.is_empty(), "need at least one LLR");
        let d = stream_len(self.k);
        for stream in [&mut out.systematic, &mut out.parity1, &mut out.parity2] {
            stream.clear();
            stream.resize(d, 0.0);
        }
        let acc = [&mut out.systematic, &mut out.parity1, &mut out.parity2];
        self.zip_circular(gather, |&g, (s, i)| {
            acc[s as usize][i as usize] += src[g as usize];
        });
        self.extract_tails(out);
    }

    /// Pulls the four distributed tail positions out of the length-`k+4`
    /// accumulators and truncates the streams to `k`.
    fn extract_tails(&self, out: &mut TurboLlrs) {
        let k = self.k;
        out.tail1 = [
            (out.systematic[k], out.parity1[k]),
            (out.systematic[k + 1], out.parity1[k + 1]),
            (out.systematic[k + 2], out.parity1[k + 2]),
        ];
        out.tail2 = [
            (out.systematic[k + 3], out.parity2[k]),
            (out.parity1[k + 3], out.parity2[k + 1]),
            (out.parity2[k + 2], out.parity2[k + 3]),
        ];
        out.systematic.truncate(k);
        out.parity1.truncate(k);
        out.parity2.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::turbo::{TurboDecoder, TurboEncoder};

    fn random_bits(k: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..k).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    fn llrs_from_bits(bits: &[u8], mag: f32) -> Vec<f32> {
        bits.iter()
            .map(|&b| if b == 0 { mag } else { -mag })
            .collect()
    }

    #[test]
    fn buffer_covers_every_mother_bit_exactly_once() {
        let rm = RateMatcher::new(64);
        let mut seen = vec![[false; 3]; stream_len(64)];
        for &(s, i) in &rm.buffer {
            assert!(!seen[i as usize][s as usize], "duplicate ({s},{i})");
            seen[i as usize][s as usize] = true;
        }
        assert!(seen.iter().all(|row| row.iter().all(|&b| b)));
    }

    #[test]
    fn full_rate_round_trips() {
        // E = 3(k+4): every mother bit transmitted exactly once.
        let k = 128;
        let bits = random_bits(k, 1);
        let code = TurboEncoder::new(k).encode(&bits);
        let rm = RateMatcher::new(k);
        let e = rm.buffer_len();
        let tx = rm.match_bits(&code, e);
        let turbo_llrs = rm.accumulate_llrs(&llrs_from_bits(&tx, 4.0));
        let decoded = TurboDecoder::new(k, 4).decode(&turbo_llrs);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn punctured_code_still_decodes_cleanly() {
        // Rate ~1/2: transmit only 2(k+4) of the 3(k+4) mother bits.
        let k = 256;
        let bits = random_bits(k, 2);
        let code = TurboEncoder::new(k).encode(&bits);
        let rm = RateMatcher::new(k);
        let e = 2 * stream_len(k);
        let tx = rm.match_bits(&code, e);
        assert_eq!(tx.len(), e);
        let turbo_llrs = rm.accumulate_llrs(&llrs_from_bits(&tx, 4.0));
        let decoded = TurboDecoder::new(k, 6).decode(&turbo_llrs);
        assert_eq!(decoded, bits, "rate-1/2 puncturing must still decode");
    }

    #[test]
    fn repetition_soft_combines() {
        // E = 2 × buffer: every LLR doubles.
        let k = 64;
        let bits = random_bits(k, 3);
        let code = TurboEncoder::new(k).encode(&bits);
        let rm = RateMatcher::new(k);
        let once = rm.accumulate_llrs(&llrs_from_bits(&rm.match_bits(&code, rm.buffer_len()), 2.0));
        let twice = rm.accumulate_llrs(&llrs_from_bits(
            &rm.match_bits(&code, 2 * rm.buffer_len()),
            2.0,
        ));
        for (a, b) in once.systematic.iter().zip(&twice.systematic) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
        let decoded = TurboDecoder::new(k, 4).decode(&twice);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn systematic_bits_survive_heavy_puncturing() {
        // The circular buffer fronts the systematic stream, so even
        // E ≈ k+4 keeps all systematic bits (pure rate-1 transmission).
        let k = 104;
        let bits = random_bits(k, 4);
        let code = TurboEncoder::new(k).encode(&bits);
        let rm = RateMatcher::new(k);
        let e = stream_len(k);
        let turbo_llrs = rm.accumulate_llrs(&llrs_from_bits(&rm.match_bits(&code, e), 4.0));
        let nonzero_sys = turbo_llrs.systematic.iter().filter(|&&l| l != 0.0).count();
        assert_eq!(nonzero_sys, k, "all systematic bits must be transmitted");
        // Hard decision on the systematic LLRs recovers the bits.
        let hard: Vec<u8> = turbo_llrs
            .systematic
            .iter()
            .map(|&l| (l < 0.0) as u8)
            .collect();
        assert_eq!(hard, bits);
    }

    #[test]
    fn awkward_e_values_work() {
        let k = 40;
        let bits = random_bits(k, 5);
        let code = TurboEncoder::new(k).encode(&bits);
        let rm = RateMatcher::new(k);
        for e in [k + 10, 97, 131, 3 * (k + 4) - 1, 3 * (k + 4) + 1] {
            let tx = rm.match_bits(&code, e);
            assert_eq!(tx.len(), e);
            let _ = rm.accumulate_llrs(&llrs_from_bits(&tx, 1.0));
        }
    }

    #[test]
    fn gathered_accumulation_is_bit_exact_versus_two_step() {
        // The fused path must reproduce deinterleave-then-accumulate
        // exactly: same add order, same f32 values, bit-identical output.
        use crate::interleave::Interleaver;
        let mut rng = Xoshiro256::seed_from_u64(0xFA57);
        for (k, e) in [(40usize, 97usize), (64, 204), (128, 396), (104, 3 * 108)] {
            let rm = RateMatcher::new(k);
            // An allocation-level interleaver over several blocks' shares.
            let total = 2 * e + 3;
            let il = Interleaver::subblock(total);
            let scrambled: Vec<f32> = (0..total)
                .map(|_| (rng.next_u64() % 1000) as f32 / 250.0 - 2.0)
                .collect();
            let deinterleaved = il.invert(&scrambled);
            let inv = il.inverse_permutation();
            let mut cursor = 0usize;
            for share in [e, e + 3] {
                let mut two_step = TurboLlrs::default();
                rm.accumulate_llrs_into(&deinterleaved[cursor..cursor + share], &mut two_step);
                let mut fused = TurboLlrs::default();
                rm.accumulate_llrs_gather_into(
                    &scrambled,
                    &inv[cursor..cursor + share],
                    &mut fused,
                );
                assert_eq!(
                    two_step
                        .systematic
                        .iter()
                        .map(|f| f.to_bits())
                        .collect::<Vec<_>>(),
                    fused
                        .systematic
                        .iter()
                        .map(|f| f.to_bits())
                        .collect::<Vec<_>>(),
                    "k={k} share={share}: systematic diverged"
                );
                assert_eq!(two_step.parity1, fused.parity1, "k={k}");
                assert_eq!(two_step.parity2, fused.parity2, "k={k}");
                assert_eq!(two_step.tail1, fused.tail1, "k={k}");
                assert_eq!(two_step.tail2, fused.tail2, "k={k}");
                cursor += share;
            }
        }
    }

    #[test]
    fn circular_walk_visits_modulo_positions_in_order() {
        let rm = RateMatcher::new(40);
        let len = rm.buffer_len();
        for e in [1, len - 1, len, len + 1, 2 * len + 7] {
            let items: Vec<usize> = (0..e).collect();
            let mut visited = Vec::new();
            rm.zip_circular(&items, |&j, entry| visited.push((j, entry)));
            let expect: Vec<_> = (0..e).map(|j| (j, rm.buffer[j % len])).collect();
            assert_eq!(visited, expect, "e {e}");
        }
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn wrong_block_size_rejected() {
        let code = TurboEncoder::new(40).encode(&random_bits(40, 6));
        RateMatcher::new(64).match_bits(&code, 10);
    }
}

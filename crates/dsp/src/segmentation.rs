//! Transport-block code-block segmentation (TS 36.212 §5.1.2).
//!
//! The turbo code's internal interleaver supports blocks of at most 6144
//! bits; larger transport blocks are split into `C` code blocks, each
//! padded up to a supported QPP size, with a CRC-24B appended to every
//! block when `C > 1` (the transport block itself carries CRC-24A from
//! the previous stage). Filler bits pad the front of the first block.

use crate::crc::CRC24B;
use crate::turbo::{nearest_block_size, supported_block_sizes_cached};

/// Maximum turbo code block size `Z`.
pub const MAX_BLOCK: usize = 6144;
/// Per-code-block CRC bits when segmented.
const BLOCK_CRC_BITS: usize = 24;

/// The shape of a transport block's segmentation — everything the
/// receiver needs to size buffers and reassemble decoded blocks, without
/// materializing any payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentationShape {
    /// Number of code blocks `C`.
    pub n_blocks: usize,
    /// The (uniform) code-block size `K`.
    pub block_size: usize,
    /// Filler bits prepended to the first block.
    pub filler: usize,
}

impl SegmentationShape {
    /// Reassembles decoded code blocks into the transport block,
    /// verifying per-block CRCs when segmented.
    ///
    /// Returns `(bits, all_block_crcs_ok)`; the transport-block CRC-24A
    /// is the caller's to check.
    ///
    /// # Panics
    ///
    /// Panics if `decoded` disagrees with this shape.
    pub fn desegment(&self, decoded: &[Vec<u8>]) -> (Vec<u8>, bool) {
        assert_eq!(decoded.len(), self.n_blocks, "block count mismatch");
        let mut out = Vec::new();
        for (i, d) in decoded.iter().enumerate() {
            out.extend_from_slice(self.block_payload(i, d));
        }
        let ok = self.n_blocks == 1 || decoded.iter().all(|d| CRC24B.check_bits(d));
        (out, ok)
    }

    /// The transport-block bits one decoded code block carries: the
    /// block without the first block's filler and, when segmented,
    /// without its CRC-24B. Appending each block's payload in order into
    /// one reused buffer is how the receiver reassembles a transport
    /// block without allocating; it checks each block's CRC itself, as
    /// its stop rule.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `block` has the wrong size.
    pub fn block_payload<'a>(&self, index: usize, block: &'a [u8]) -> &'a [u8] {
        assert!(index < self.n_blocks, "block index out of range");
        assert_eq!(block.len(), self.block_size, "block size mismatch");
        let start = if index == 0 { self.filler } else { 0 };
        let crc = if self.n_blocks == 1 {
            0
        } else {
            BLOCK_CRC_BITS
        };
        &block[start..block.len() - crc]
    }
}

/// The segmentation of one transport block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segmentation {
    /// Code blocks, each of a tabulated QPP size, ready for turbo
    /// encoding (filler + data [+ CRC-24B]).
    pub blocks: Vec<Vec<u8>>,
    /// Filler bits prepended to the first block.
    pub filler: usize,
}

impl Segmentation {
    /// Computes the segmentation shape for a transport block of `b` bits
    /// without building any blocks — the receive path only needs the
    /// shape, never a payload.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn shape_for_len(b: usize) -> SegmentationShape {
        assert!(b > 0, "cannot segment an empty block");
        if b <= MAX_BLOCK {
            let k = nearest_block_size(b);
            return SegmentationShape {
                n_blocks: 1,
                block_size: k,
                filler: k - b,
            };
        }
        let c = b.div_ceil(MAX_BLOCK - BLOCK_CRC_BITS);
        let b_prime = b + c * BLOCK_CRC_BITS;
        // Uniform-ish per-block size: the smallest K with C·K ≥ B'.
        let k_plus = supported_block_sizes_cached()
            .iter()
            .copied()
            .find(|&k| c * k >= b_prime)
            .unwrap_or(MAX_BLOCK);
        SegmentationShape {
            n_blocks: c,
            block_size: k_plus,
            filler: c * k_plus - b_prime,
        }
    }

    /// Segments transport-block bits (which already include their
    /// CRC-24A) into turbo code blocks.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn segment(bits: &[u8]) -> Self {
        let b = bits.len();
        let shape = Self::shape_for_len(b.max(1));
        assert!(!bits.is_empty(), "cannot segment an empty block");
        let filler = shape.filler;
        if shape.n_blocks == 1 {
            // Single block, no per-block CRC; pad to a supported size.
            let mut block = vec![0u8; filler];
            block.extend_from_slice(bits);
            return Segmentation {
                blocks: vec![block],
                filler,
            };
        }
        // C blocks, each carrying its own CRC-24B.
        let c = shape.n_blocks;
        let k_plus = shape.block_size;
        let payload_per_block = k_plus - BLOCK_CRC_BITS;
        let mut blocks = Vec::with_capacity(c);
        let mut cursor = 0usize;
        for i in 0..c {
            let mut block = Vec::with_capacity(k_plus);
            if i == 0 {
                block.extend(std::iter::repeat_n(0u8, filler));
            }
            let take = payload_per_block - if i == 0 { filler } else { 0 };
            let end = (cursor + take).min(b);
            block.extend_from_slice(&bits[cursor..end]);
            cursor = end;
            debug_assert_eq!(block.len(), payload_per_block);
            CRC24B.append_bits(&mut block);
            debug_assert_eq!(block.len(), k_plus);
            blocks.push(block);
        }
        debug_assert_eq!(cursor, b, "all bits must be consumed");
        Segmentation { blocks, filler }
    }

    /// This segmentation's shape.
    pub fn shape(&self) -> SegmentationShape {
        SegmentationShape {
            n_blocks: self.n_blocks(),
            block_size: self.block_size(),
            filler: self.filler,
        }
    }

    /// Number of code blocks `C`.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The (uniform) code-block size `K`.
    pub fn block_size(&self) -> usize {
        self.blocks.first().map_or(0, |b| b.len())
    }

    /// Reassembles decoded code blocks into the transport block,
    /// verifying per-block CRCs when segmented.
    ///
    /// Returns `(bits, all_block_crcs_ok)`; the transport-block CRC-24A
    /// is the caller's to check.
    ///
    /// # Panics
    ///
    /// Panics if `decoded` disagrees with this segmentation's shape.
    pub fn desegment(&self, decoded: &[Vec<u8>]) -> (Vec<u8>, bool) {
        self.shape().desegment(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::turbo::{TurboDecoder, TurboEncoder};

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    #[test]
    fn small_block_stays_single() {
        let bits = random_bits(1000, 1);
        let seg = Segmentation::segment(&bits);
        assert_eq!(seg.n_blocks(), 1);
        assert_eq!(seg.block_size(), 1024);
        assert_eq!(seg.filler, 24);
        let (out, ok) = seg.desegment(&seg.blocks);
        assert!(ok);
        assert_eq!(out, bits);
    }

    #[test]
    fn exact_table_size_needs_no_filler() {
        let bits = random_bits(512, 2);
        let seg = Segmentation::segment(&bits);
        assert_eq!(seg.filler, 0);
        assert_eq!(seg.block_size(), 512);
    }

    #[test]
    fn large_block_splits_with_per_block_crcs() {
        let bits = random_bits(20_000, 3);
        let seg = Segmentation::segment(&bits);
        assert!(seg.n_blocks() >= 4, "C = {}", seg.n_blocks());
        assert!(seg.block_size() <= MAX_BLOCK);
        // Round trip.
        let (out, ok) = seg.desegment(&seg.blocks);
        assert!(ok, "freshly segmented blocks must pass their CRCs");
        assert_eq!(out, bits);
    }

    #[test]
    fn corrupted_block_fails_its_crc() {
        let bits = random_bits(15_000, 4);
        let seg = Segmentation::segment(&bits);
        let mut tampered = seg.blocks.clone();
        let mid = tampered[1].len() / 2;
        tampered[1][mid] ^= 1;
        let (_, ok) = seg.desegment(&tampered);
        assert!(!ok);
    }

    #[test]
    fn segmentation_covers_a_size_sweep() {
        for n in [40usize, 100, 6144, 6145, 12_000, 50_000, 100_000] {
            let bits = random_bits(n, n as u64);
            let seg = Segmentation::segment(&bits);
            let (out, ok) = seg.desegment(&seg.blocks);
            assert!(ok, "n={n}");
            assert_eq!(out, bits, "n={n}");
            for b in &seg.blocks {
                assert!(b.len() <= MAX_BLOCK, "n={n}");
            }
        }
    }

    #[test]
    fn end_to_end_turbo_over_segmentation() {
        // Segment → turbo encode each block → noiseless LLRs → decode →
        // desegment must reproduce the transport block.
        let bits = random_bits(13_000, 9);
        let seg = Segmentation::segment(&bits);
        let decoded: Vec<Vec<u8>> = seg
            .blocks
            .iter()
            .map(|block| {
                let k = block.len();
                let code = TurboEncoder::new(k).encode(block);
                TurboDecoder::new(k, 3).decode(&code.to_llrs(5.0))
            })
            .collect();
        let (out, ok) = seg.desegment(&decoded);
        assert!(ok);
        assert_eq!(out, bits);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_rejected() {
        Segmentation::segment(&[]);
    }

    #[test]
    fn shape_for_len_matches_materialized_segmentation() {
        for n in [1usize, 40, 100, 512, 6144, 6145, 12_000, 50_000, 100_000] {
            let bits = random_bits(n, n as u64);
            let seg = Segmentation::segment(&bits);
            assert_eq!(Segmentation::shape_for_len(n), seg.shape(), "n={n}");
        }
    }

    #[test]
    fn shape_desegment_equals_segmentation_desegment() {
        let bits = random_bits(15_000, 6);
        let seg = Segmentation::segment(&bits);
        let shape = Segmentation::shape_for_len(bits.len());
        assert_eq!(shape.desegment(&seg.blocks), seg.desegment(&seg.blocks));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn shape_for_zero_len_rejected() {
        Segmentation::shape_for_len(0);
    }
}

//! LTE cyclic redundancy checks (TS 36.212 §5.1.1).
//!
//! Transport blocks carry CRC-24A; code-block segments carry CRC-24B; the
//! 16- and 8-bit variants cover control channels. The benchmark's final
//! pipeline stage (Fig. 3) verifies the CRC of every decoded transport
//! block.
//!
//! Bits are processed MSB-first, matching the 3GPP bit ordering; the
//! registers start at zero (LTE uses all-zero initial state, unlike
//! Ethernet-style CRCs).

/// One of the LTE CRC generator polynomials, 8 to 24 bits wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc {
    /// Polynomial without the leading `x^width` term.
    poly: u32,
    /// CRC width in bits.
    width: u32,
    /// Slicing-by-4 tables: `tables[j][b]` is the register after shifting
    /// byte `b` (MSB first) and then `j` zero bytes into a zero register,
    /// so `tables[0]` is the byte table.
    tables: &'static [[u32; 256]; 4],
}

/// Advances a `width`-bit register by one message bit, MSB-first.
#[inline]
const fn shift_bit(reg: u32, bit: bool, poly: u32, width: u32) -> u32 {
    let feedback = (reg >> (width - 1)) & 1 != 0;
    let shifted = (reg << 1) & ((1 << width) - 1);
    if feedback != bit {
        shifted ^ poly
    } else {
        shifted
    }
}

const fn slicing_tables(poly: u32, width: u32) -> [[u32; 256]; 4] {
    assert!(width >= 8 && width <= 24, "width must be in 8..=24");
    let mask = (1u32 << width) - 1;
    let mut tables = [[0u32; 256]; 4];
    let mut byte = 0;
    while byte < 256 {
        let mut reg = 0;
        let mut k = 8;
        while k > 0 {
            k -= 1;
            reg = shift_bit(reg, (byte >> k) & 1 != 0, poly, width);
        }
        tables[0][byte] = reg;
        byte += 1;
    }
    // One more zero byte: the register's top byte goes through the byte
    // table, the rest shifts up.
    let mut j = 1;
    while j < 4 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[j - 1][byte];
            tables[j][byte] = ((prev << 8) & mask) ^ tables[0][(prev >> (width - 8)) as usize];
            byte += 1;
        }
        j += 1;
    }
    tables
}

// One const-evaluated table set per polynomial, in read-only data shared
// by every thread.
macro_rules! lte_crc {
    ($(#[$doc:meta])* $name:ident = ($poly:expr, $width:expr)) => {
        $(#[$doc])*
        pub const $name: Crc = {
            static TABLES: [[u32; 256]; 4] = slicing_tables($poly, $width);
            Crc {
                poly: $poly,
                width: $width,
                tables: &TABLES,
            }
        };
    };
}

lte_crc!(
    /// CRC-24A (`gCRC24A`, transport-block CRC): `0x864CFB`.
    CRC24A = (0x86_4C_FB, 24)
);
lte_crc!(
    /// CRC-24B (`gCRC24B`, code-block CRC): `0x800063`.
    CRC24B = (0x80_00_63, 24)
);
lte_crc!(
    /// CRC-16 (`gCRC16`): `0x1021` (CCITT).
    CRC16 = (0x1021, 16)
);
lte_crc!(
    /// CRC-8 (`gCRC8`): `0x9B`.
    CRC8 = (0x9B, 8)
);

/// Packs eight one-bit-per-byte elements into a byte, first element in
/// the MSB, keeping only each element's low bit. The multiply sums eight
/// shifted copies whose set bits never collide (bit `8(7−i)` of the input
/// lands on `63−i` only through the `7(i+1)` shift), so no carry can
/// reach the top byte.
#[inline]
fn pack_bits(bits: &[u8; 8]) -> u8 {
    let lows = u64::from_be_bytes(*bits) & 0x0101_0101_0101_0101;
    (lows.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Packs up to 32 one-bit-per-byte elements MSB-first into the top of a
/// word (the first element in bit 31), low bits of each element only.
#[inline]
fn pack_word(bits: &[u8]) -> u32 {
    debug_assert!(bits.len() <= 32);
    let (octets, tail) = bits.as_chunks::<8>();
    let mut word = 0u32;
    let mut shift = 32;
    for octet in octets {
        shift -= 8;
        word |= u32::from(pack_bits(octet)) << shift;
    }
    for &b in tail {
        shift -= 1;
        word |= u32::from(b & 1) << shift;
    }
    word
}

impl Crc {
    /// CRC width in bits.
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Advances the register by one whole message byte.
    #[inline]
    fn shift_byte(&self, reg: u32, byte: u8) -> u32 {
        let mask = (1u32 << self.width) - 1;
        let index = (reg >> (self.width - 8)) as u8 ^ byte;
        ((reg << 8) & mask) ^ self.tables[0][index as usize]
    }

    /// Advances the register by 32 message bits, the first in bit 31.
    /// The register, left-aligned in the word, meets the next 32 bits
    /// head on (`width <= 32`), so the step is the CRC of `reg ^ word`
    /// from a zero register: by linearity, each of its bytes through
    /// the table for the zero bytes that follow it.
    #[inline]
    pub(crate) fn shift_word(&self, reg: u32, word: u32) -> u32 {
        let x = (reg << (32 - self.width)) ^ word;
        self.tables[3][(x >> 24) as usize]
            ^ self.tables[2][(x >> 16) as usize & 0xFF]
            ^ self.tables[1][(x >> 8) as usize & 0xFF]
            ^ self.tables[0][x as usize & 0xFF]
    }

    /// Advances the register by the top `len < 32` bits of `word`.
    #[inline]
    fn shift_partial(&self, mut reg: u32, word: u32, len: usize) -> u32 {
        debug_assert!(len < 32);
        let bytes = len / 8;
        for byte in word.to_be_bytes().into_iter().take(bytes) {
            reg = self.shift_byte(reg, byte);
        }
        for i in 8 * bytes..len {
            reg = shift_bit(reg, (word >> (31 - i)) & 1 != 0, self.poly, self.width);
        }
        reg
    }

    /// Advances the register `reg` over the first `len` bits of an
    /// MSB-first packed stream: bit `i` is bit `31 − i % 32` of
    /// `words[i / 32]`. From `reg = 0` this is the stream's CRC.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub(crate) fn update_words(&self, reg: u32, words: &[u32], len: usize) -> u32 {
        let (full, rest) = (len / 32, len % 32);
        let reg = words[..full]
            .iter()
            .fold(reg, |reg, &word| self.shift_word(reg, word));
        if rest == 0 {
            reg
        } else {
            self.shift_partial(reg, words[full], rest)
        }
    }

    /// Computes the CRC of a bit slice (one bit per element, MSB-first).
    /// Only the low bit of each element is read.
    pub fn compute_bits(&self, bits: &[u8]) -> u32 {
        let (words, tail) = bits.as_chunks::<32>();
        let reg = words
            .iter()
            .fold(0, |reg, word| self.shift_word(reg, pack_word(word)));
        self.shift_partial(reg, pack_word(tail), tail.len())
    }

    /// Computes the CRC of a byte slice (bits taken MSB-first within each
    /// byte).
    pub fn compute_bytes(&self, bytes: &[u8]) -> u32 {
        let (words, tail) = bytes.as_chunks::<4>();
        let reg = words.iter().fold(0, |reg, &word| {
            self.shift_word(reg, u32::from_be_bytes(word))
        });
        let mut last = [0u8; 4];
        last[..tail.len()].copy_from_slice(tail);
        self.shift_partial(reg, u32::from_be_bytes(last), 8 * tail.len())
    }

    /// Appends the CRC parity bits (MSB-first) to a bit vector.
    pub fn append_bits(&self, bits: &mut Vec<u8>) {
        let crc = self.compute_bits(bits);
        for k in (0..self.width).rev() {
            bits.push(((crc >> k) & 1) as u8);
        }
    }

    /// Checks a bit vector whose tail carries the CRC parity.
    ///
    /// Returns `true` when the CRC matches (i.e. the whole sequence,
    /// including parity, divides the generator).
    pub fn check_bits(&self, bits: &[u8]) -> bool {
        if bits.len() < self.width as usize {
            return false;
        }
        self.compute_bits(bits) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
        bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |k| (b >> k) & 1))
            .collect()
    }

    #[test]
    fn bit_and_byte_paths_agree() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            let bytes: Vec<u8> = (0..64).map(|_| rng.next_u32() as u8).collect();
            assert_eq!(
                crc.compute_bytes(&bytes),
                crc.compute_bits(&bytes_to_bits(&bytes))
            );
        }
    }

    /// The bit-serial shift register of TS 36.212 §5.1.1, one step per
    /// message bit — the oracle the table path must match.
    fn bit_loop(crc: &Crc, bits: &[u8]) -> u32 {
        bits.iter()
            .fold(0, |reg, &b| shift_bit(reg, b & 1 != 0, crc.poly, crc.width))
    }

    #[test]
    fn catalogue_check_values() {
        // The CRC catalogue's check values over "123456789" (zero
        // initial register, no reflection, no final XOR).
        for (crc, check) in [
            (CRC24A, 0xCDE703),
            (CRC24B, 0x23EF52),
            (CRC16, 0x31C3),
            (CRC8, 0xEA),
        ] {
            assert_eq!(crc.compute_bytes(b"123456789"), check, "{crc:?}");
            assert_eq!(crc.compute_bits(&bytes_to_bits(b"123456789")), check);
        }
    }

    #[test]
    fn table_path_matches_the_bit_loop_at_every_length() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            for len in (0..=70).chain([511, 512, 513, 6143, 6144, 6200]) {
                let bits: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 1) as u8).collect();
                assert_eq!(crc.compute_bits(&bits), bit_loop(&crc, &bits), "len {len}");
            }
        }
    }

    #[test]
    fn packed_words_match_the_bit_loop_at_every_length() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            for len in (0..=100usize).chain([1023, 1024, 1025, 6144, 6200]) {
                let bits: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 1) as u8).collect();
                // Bits past `len` in the last word must not count.
                let mut words = vec![u32::MAX; len.div_ceil(32)];
                for (word, chunk) in words.iter_mut().zip(bits.chunks(32)) {
                    for (i, &b) in chunk.iter().enumerate() {
                        *word ^= u32::from(b ^ 1) << (31 - i);
                    }
                }
                assert_eq!(
                    crc.update_words(0, &words, len),
                    bit_loop(&crc, &bits),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn only_the_low_bit_of_each_element_is_read() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for len in [5, 8, 64, 67] {
            let wild: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let masked: Vec<u8> = wild.iter().map(|b| b & 1).collect();
            assert_eq!(CRC24A.compute_bits(&wild), CRC24A.compute_bits(&masked));
            assert_eq!(CRC24A.compute_bits(&wild), bit_loop(&CRC24A, &masked));
        }
    }

    #[test]
    fn crc24a_zero_message_is_zero() {
        // All-zero input with zero init yields zero parity (linearity).
        assert_eq!(CRC24A.compute_bits(&[0; 100]), 0);
    }

    #[test]
    fn append_then_check_round_trip() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            for len in [1usize, 7, 40, 123] {
                let mut bits: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 1) as u8).collect();
                crc.append_bits(&mut bits);
                assert!(crc.check_bits(&bits));
            }
        }
    }

    #[test]
    fn detects_single_bit_errors_anywhere() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut bits: Vec<u8> = (0..128).map(|_| (rng.next_u64() & 1) as u8).collect();
        CRC24A.append_bits(&mut bits);
        for i in 0..bits.len() {
            bits[i] ^= 1;
            assert!(!CRC24A.check_bits(&bits), "missed error at bit {i}");
            bits[i] ^= 1;
        }
    }

    #[test]
    fn detects_burst_errors_up_to_width() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut bits: Vec<u8> = (0..256).map(|_| (rng.next_u64() & 1) as u8).collect();
        CRC24B.append_bits(&mut bits);
        // Any burst of length <= 24 is detected by a degree-24 generator
        // with nonzero constant term.
        for start in [0usize, 13, 100, 200] {
            for burst in [2usize, 8, 24] {
                for b in bits[start..start + burst].iter_mut() {
                    *b ^= 1;
                }
                assert!(!CRC24B.check_bits(&bits), "missed burst {burst}@{start}");
                for b in bits[start..start + burst].iter_mut() {
                    *b ^= 1;
                }
            }
        }
    }

    #[test]
    fn short_input_fails_check() {
        assert!(!CRC24A.check_bits(&[1, 0, 1]));
    }

    #[test]
    fn linearity_of_crc() {
        // CRC(a ^ b) == CRC(a) ^ CRC(b) for zero-init CRCs.
        let mut rng = Xoshiro256::seed_from_u64(5);
        let a: Vec<u8> = (0..96).map(|_| (rng.next_u64() & 1) as u8).collect();
        let b: Vec<u8> = (0..96).map(|_| (rng.next_u64() & 1) as u8).collect();
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        assert_eq!(
            CRC24A.compute_bits(&x),
            CRC24A.compute_bits(&a) ^ CRC24A.compute_bits(&b)
        );
    }
}

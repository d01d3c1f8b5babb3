//! Differential oracles: the serial-tail kernels as they stood before
//! their word-parallel / table-driven / fixed-size rewrites, the
//! receiver's four-pass pass-through tail as it stood before the one-pass
//! kernel, and the FFT as it stood before its generic butterfly advanced
//! all output chains together and before its recursion became a leaf
//! stage plus one pass per level, moved here verbatim so the fuzzer can
//! hold the fast forms to the old bits.

use std::f64::consts::TAU;

use lte_dsp::crc::CRC24A;
use lte_dsp::fft::Direction;
use lte_dsp::interleave::subblock_cached;
use lte_dsp::llr::hard_decisions_into;
use lte_dsp::rate_match::RateMatcher;
use lte_dsp::scrambling::descramble_llrs;
use lte_dsp::turbo::TurboLlrs;
use lte_dsp::Complex32;
use lte_phy::estimator::ChannelEstimate;

/// The mixed-radix FFT as a depth-first recursion with one serial
/// accumulator chain per generic butterfly output — plan, recursion and
/// the four combines, scalar only (the AVX butterflies were bit-identical
/// to these loops).
pub(crate) struct ChainFft {
    n: usize,
    direction: Direction,
    factors: Vec<usize>,
    stages: Vec<StageTwiddles>,
}

struct StageTwiddles {
    packed: Vec<Complex32>,
    m: usize,
    root: Vec<Complex32>,
}

impl ChainFft {
    pub(crate) fn new(n: usize, direction: Direction) -> Self {
        assert!(n > 0, "transform length must be positive");
        let sign = match direction {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let twiddles: Vec<Complex32> = (0..n)
            .map(|k| {
                let theta = sign * TAU * k as f64 / n as f64;
                Complex32::new(theta.cos() as f32, theta.sin() as f32)
            })
            .collect();
        let factors = radix_schedule(n);
        let mut stages = Vec::with_capacity(factors.len());
        let mut sub = n;
        for &r in &factors {
            let m = sub / r;
            let tw_step = n / sub;
            let mut packed = Vec::with_capacity(r * m);
            for j in 0..r {
                for k in 0..m {
                    packed.push(twiddles[j * k * tw_step]);
                }
            }
            let root_step = n / r;
            let mut root = Vec::new();
            if !matches!(r, 2..=4) {
                root.reserve(r * r);
                for j in 0..r {
                    for q in 0..r {
                        root.push(twiddles[(j * q * root_step) % n]);
                    }
                }
            }
            stages.push(StageTwiddles { packed, m, root });
            sub = m;
        }
        ChainFft {
            n,
            direction,
            factors,
            stages,
        }
    }

    pub(crate) fn process(&self, data: &mut [Complex32]) {
        assert_eq!(data.len(), self.n, "data length must equal plan length");
        let scratch = data.to_vec();
        self.recurse(&scratch, 1, data, 0);
        if self.direction == Direction::Inverse {
            let k = 1.0 / self.n as f32;
            for z in data.iter_mut() {
                *z = z.scale(k);
            }
        }
    }

    fn recurse(&self, input: &[Complex32], stride: usize, out: &mut [Complex32], level: usize) {
        let n = out.len();
        if n == 1 {
            out[0] = input[0];
            return;
        }
        let r = self.factors[level];
        let m = n / r;
        for j in 0..r {
            self.recurse(
                &input[j * stride..],
                stride * r,
                &mut out[j * m..(j + 1) * m],
                level + 1,
            );
        }
        let stage = &self.stages[level];
        debug_assert_eq!(stage.m, m);
        match r {
            2 => combine2(out, m, &stage.packed),
            3 => combine3(out, m, &stage.packed, self.direction),
            4 => combine4(out, m, &stage.packed, self.direction),
            _ => combine_generic(out, r, m, stage),
        }
    }
}

fn combine2(out: &mut [Complex32], m: usize, tw: &[Complex32]) {
    for k in 0..m {
        let a = out[k];
        let b = out[m + k] * tw[m + k];
        out[k] = a + b;
        out[m + k] = a - b;
    }
}

fn combine3(out: &mut [Complex32], m: usize, tw: &[Complex32], direction: Direction) {
    let s3 = match direction {
        Direction::Forward => -0.866_025_4_f32,
        Direction::Inverse => 0.866_025_4_f32,
    };
    for k in 0..m {
        let t0 = out[k];
        let t1 = out[m + k] * tw[m + k];
        let t2 = out[2 * m + k] * tw[2 * m + k];
        let sum = t1 + t2;
        let diff = (t1 - t2).scale(s3).mul_i();
        let base = t0 - sum.scale(0.5);
        out[k] = t0 + sum;
        out[m + k] = base + diff;
        out[2 * m + k] = base - diff;
    }
}

fn combine4(out: &mut [Complex32], m: usize, tw: &[Complex32], direction: Direction) {
    let forward = direction == Direction::Forward;
    for k in 0..m {
        let t0 = out[k];
        let t1 = out[m + k] * tw[m + k];
        let t2 = out[2 * m + k] * tw[2 * m + k];
        let t3 = out[3 * m + k] * tw[3 * m + k];
        let a = t0 + t2;
        let b = t0 - t2;
        let c = t1 + t3;
        let d = if forward {
            (t1 - t3).mul_neg_i()
        } else {
            (t1 - t3).mul_i()
        };
        out[k] = a + c;
        out[m + k] = b + d;
        out[2 * m + k] = a - c;
        out[3 * m + k] = b - d;
    }
}

/// One dependent `mul_add` chain per output `q`, each finished before
/// the next starts.
fn combine_generic(out: &mut [Complex32], r: usize, m: usize, stage: &StageTwiddles) {
    let tw = &stage.packed;
    let root = &stage.root;
    let mut t = vec![Complex32::ZERO; r];
    for k in 0..m {
        for (j, tj) in t.iter_mut().enumerate() {
            *tj = out[j * m + k] * tw[j * m + k];
        }
        for q in 0..r {
            let mut acc = t[0];
            for (j, &tj) in t.iter().enumerate().skip(1) {
                acc = acc.mul_add(tj, root[j * r + q]);
            }
            out[q * m + k] = acc;
        }
    }
}

fn radix_schedule(mut n: usize) -> Vec<usize> {
    let mut factors = Vec::new();
    while n.is_multiple_of(4) {
        factors.push(4);
        n /= 4;
    }
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
    }
    let mut p = 7;
    while p * p <= n {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
        p += 2;
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

/// The Gold sequence one register bit per step, warm-up included.
pub struct BitStepGold {
    x1: u32,
    x2: u32,
}

impl BitStepGold {
    pub fn new(c_init: u32) -> Self {
        let mut g = BitStepGold {
            x1: 1, // x1 starts at 0…01 per the standard
            x2: c_init & 0x7FFF_FFFF,
        };
        for _ in 0..1600 {
            g.step();
        }
        g
    }

    fn step(&mut self) {
        // x1(n+31) = (x1(n+3) + x1(n)) mod 2
        let new_x1 = ((self.x1 >> 3) ^ self.x1) & 1;
        // x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2
        let new_x2 = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        self.x1 = (self.x1 >> 1) | (new_x1 << 30);
        self.x2 = (self.x2 >> 1) | (new_x2 << 30);
    }

    pub fn next_bit(&mut self) -> u8 {
        let c = ((self.x1 ^ self.x2) & 1) as u8;
        self.step();
        c
    }
}

/// The bit-at-a-time CRC shift register over one-bit-per-byte input,
/// masking each element to its low bit as the release build did.
pub fn crc_bit_loop(poly: u32, width: u32, bits: &[u8]) -> u32 {
    let mut reg: u32 = 0;
    let top = 1u32 << (width - 1);
    let mask = (1u64 << width) as u32 - 1;
    for &b in bits {
        let fb = ((reg & top) != 0) ^ ((b & 1) != 0);
        reg = (reg << 1) & mask;
        if fb {
            reg ^= poly;
        }
    }
    reg
}

/// The receiver's pass-through tail in four passes: descramble into an
/// `f32` buffer, gather it through the sub-block interleaver's inverse
/// permutation a block at a time, hard-decide, then CRC-24A over the
/// first `crc_len` one-byte bits. Returns the bits before the CRC (none
/// when `crc_len < 24`) and the verdict.
pub fn passthrough_four_pass(llrs: &[f32], c_init: u32, crc_len: usize) -> (Vec<u8>, bool) {
    let mut descrambled = llrs.to_vec();
    descramble_llrs(&mut descrambled, c_init);
    let mut bits = Vec::with_capacity(llrs.len());
    let mut block = [0.0f32; 256];
    for chunk in subblock_cached(llrs.len())
        .inverse_permutation()
        .chunks(block.len())
    {
        let block = &mut block[..chunk.len()];
        for (llr, &i) in block.iter_mut().zip(chunk) {
            *llr = descrambled[i as usize];
        }
        hard_decisions_into(block, &mut bits);
    }
    bits.truncate(crc_len);
    let crc_ok = CRC24A.check_bits(&bits);
    bits.truncate(crc_len.saturating_sub(24));
    (bits, crc_ok)
}

/// The receiver's coded-tail dematch as it stood before the column
/// walk: descramble into an `f32` copy of the allocation, then per code
/// block (`shares` LLRs each, in order) the rate-match gather through
/// the allocation interleaver's inverse permutation and a scatter-add
/// through the circular-buffer table.
pub fn coded_tail_gather(
    llrs: &[f32],
    c_init: u32,
    matcher: &RateMatcher,
    shares: &[usize],
) -> Vec<TurboLlrs> {
    let total = llrs.len();
    let mut descrambled = llrs.to_vec();
    descramble_llrs(&mut descrambled, c_init);
    let interleaver = subblock_cached(total);
    let inverse = interleaver.inverse_permutation();
    let mut cursor = 0usize;
    let mut blocks = Vec::new();
    for &e in shares {
        let mut block_llrs = TurboLlrs::default();
        matcher.accumulate_llrs_gather_into(
            &descrambled,
            &inverse[cursor..cursor + e],
            &mut block_llrs,
        );
        cursor += e;
        blocks.push(block_llrs);
    }
    blocks
}

/// A dense row-major complex matrix on the heap.
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex32>,
}

impl CMatrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        CMatrix {
            rows,
            cols,
            data: vec![Complex32::ZERO; rows * cols],
        }
    }

    fn reset(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex32::ZERO);
    }

    fn reset_identity(&mut self, n: usize) {
        self.reset(n, n);
        for i in 0..n {
            self[(i, i)] = Complex32::ONE;
        }
    }

    fn copy_from(&mut self, src: &CMatrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    fn hermitian_into(&self, out: &mut CMatrix) {
        out.reset(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
    }

    fn mul_into(&self, rhs: &CMatrix, out: &mut CMatrix) {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        out.reset(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex32::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] = out[(r, c)].mul_add(a, rhs[(k, c)]);
                }
            }
        }
    }

    fn add_diagonal(&mut self, lambda: f32) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += Complex32::new(lambda, 0.0);
        }
    }

    /// Gauss–Jordan elimination with partial pivoting; `false` for a
    /// numerically singular matrix.
    fn inverse_into(&self, work: &mut CMatrix, out: &mut CMatrix) -> bool {
        assert_eq!(self.rows, self.cols, "inverse needs a square matrix");
        let n = self.rows;
        let a = work;
        a.copy_from(self);
        let inv = out;
        inv.reset_identity(n);
        for col in 0..n {
            // Partial pivot: largest magnitude in this column.
            let mut pivot = col;
            let mut best = a[(col, col)].norm_sqr();
            for r in col + 1..n {
                let mag = a[(r, col)].norm_sqr();
                if mag > best {
                    best = mag;
                    pivot = r;
                }
            }
            if best < 1e-20 {
                return false;
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let scale = a[(col, col)].inv();
            for c in 0..n {
                a[(col, c)] *= scale;
                inv[(col, c)] *= scale;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor == Complex32::ZERO {
                    continue;
                }
                for c in 0..n {
                    let ac = a[(col, c)];
                    let ic = inv[(col, c)];
                    a[(r, c)] -= factor * ac;
                    inv[(r, c)] -= factor * ic;
                }
            }
        }
        true
    }

    fn swap_rows(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(i * self.cols + c, j * self.cols + c);
        }
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex32;
    fn index(&self, (r, c): (usize, usize)) -> &Complex32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex32 {
        &mut self.data[r * self.cols + c]
    }
}

/// MMSE weights through dynamic matrices, flattened `[sc][layer][rx]`:
/// `W = (ĤᴴĤ + σ²I)⁻¹Ĥᴴ`, or `Ĥᴴ` where the Gram matrix is singular.
pub fn mmse_weights_dynamic(estimate: &ChannelEstimate, noise_var: f32) -> Vec<Complex32> {
    let n_rx = estimate.n_rx();
    let n_layers = estimate.n_layers();
    let n_sc = estimate.n_sc();
    let m = || CMatrix::zeros(1, 1);
    let (mut h, mut hh, mut gram, mut work, mut inv, mut wmat) = (m(), m(), m(), m(), m(), m());
    let mut w = vec![Complex32::ZERO; n_sc * n_layers * n_rx];
    for sc in 0..n_sc {
        // H: n_rx × n_layers for this subcarrier.
        h.reset(n_rx, n_layers);
        for rx in 0..n_rx {
            for layer in 0..n_layers {
                h[(rx, layer)] = estimate.path(rx, layer)[sc];
            }
        }
        h.hermitian_into(&mut hh);
        hh.mul_into(&h, &mut gram);
        gram.add_diagonal(noise_var);
        let weights = if gram.inverse_into(&mut work, &mut inv) {
            inv.mul_into(&hh, &mut wmat);
            &wmat
        } else {
            &hh // matched-filter fallback
        };
        for layer in 0..n_layers {
            for rx in 0..n_rx {
                w[(sc * n_layers + layer) * n_rx + rx] = weights[(layer, rx)];
            }
        }
    }
    w
}

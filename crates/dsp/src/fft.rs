//! Mixed-radix fast Fourier transforms.
//!
//! LTE uplink transform sizes are `12 × N_PRB` subcarriers, plus
//! power-of-two front-end sizes. A mixed-radix decimation-in-time
//! Cooley–Tukey decomposition with specialised radix-2/3/4 butterflies
//! and a table-driven generic radix for every larger prime factor covers
//! them all. It runs iteratively, bottom up: a leaf stage performs every
//! butterfly of the last radix, reading its inputs straight from the
//! digit-reversed positions of the input — four butterflies per AVX
//! vector for radix 3, 5 and 7 (every smooth `12·N_PRB` width ends in a
//! 3 or a 5) — and then one flat pass per upper level combines
//! contiguous blocks, smallest first. Each output sees the operations of
//! the textbook recursion in the same order; only independent butterflies
//! run in a different order, so the bits are the recursion's.
//!
//! The standard restricts `N_PRB` to 2,3,5-smooth values, which run in
//! `O(n log n)`; the paper's Fig. 6 load model does not — it divides
//! uniform PRB draws by 8, 4 or 2 — so on the ramp model's hot path a
//! large share of the transforms end in generic butterflies of a prime
//! `p` up to 199, at `O(p²)` for that factor. That butterfly advances its
//! `p` output accumulators together, which keeps it throughput-bound (see
//! `generic_butterflies`).
//!
//! Plans are immutable and [`Sync`], so one [`FftPlanner`] can serve all
//! worker threads.
//!
//! # Example
//!
//! ```
//! use lte_dsp::fft::FftPlan;
//! use lte_dsp::Complex32;
//!
//! let fwd = FftPlan::forward(60);
//! let inv = FftPlan::inverse(60);
//! let original: Vec<Complex32> =
//!     (0..60).map(|i| Complex32::new(i as f32, -(i as f32))).collect();
//! let mut data = original.clone();
//! fwd.process(&mut data);
//! inv.process(&mut data);
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((*a - *b).abs() < 1e-3);
//! }
//! ```

use std::collections::HashMap;
use std::f64::consts::TAU;
use std::sync::{Arc, OnceLock, RwLock};

use crate::complex::Complex32;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `X[k] = Σ x[j]·e^{−2πi jk/n}`.
    Forward,
    /// `x[j] = (1/n) Σ X[k]·e^{+2πi jk/n}` — scaled so that
    /// `inverse(forward(x)) == x`.
    Inverse,
}

/// A precomputed transform of one size and direction.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    direction: Direction,
    /// Radix schedule, product equals `n` (empty for `n == 1`). Level
    /// `l` combines blocks of `factors[l]·stages[l].m` points; the last
    /// entry is the leaf radix.
    factors: Vec<usize>,
    /// Per-level butterfly twiddles, packed contiguously so the innermost
    /// loops walk unit-stride lanes (see [`StageTwiddles`]).
    stages: Vec<StageTwiddles>,
    /// Leaf table: the leaf butterfly whose inputs start at offset `b`
    /// (and step by `n / r` for the leaf radix `r`) writes output block
    /// `leaf_pos[b]`, i.e. points `leaf_pos[b]·r ..` — the digit reversal
    /// of `b` over `factors[..L−1]`. A permutation of `0..n / r`.
    leaf_pos: Vec<u32>,
}

/// Packed twiddle tables for one level of the mixed-radix decomposition.
///
/// Every block at level `l` has the same size, so the strided lookups
/// `twiddles[j·k·tw_step]` of the textbook butterflies can be gathered
/// once at plan time into `r` contiguous rows of `m` entries each. The
/// butterflies then stream rows with unit stride — the layout the SIMD
/// lanes want — and the scalar path reads the exact same values, so
/// packing cannot change results.
#[derive(Debug)]
struct StageTwiddles {
    /// Row-major `[j][k]`: `packed[j·m + k] = twiddles[j·k·tw_step]`,
    /// `j ∈ 0..r`, `k ∈ 0..m`.
    packed: Vec<Complex32>,
    /// Butterfly span (`sub_len / r`).
    m: usize,
    /// DFT roots for the generic radix: `root[j·r + q] = tw(j·q·n/r)`.
    root: Vec<Complex32>,
}

impl FftPlan {
    /// Plans a forward DFT of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn forward(n: usize) -> Self {
        Self::new(n, Direction::Forward)
    }

    /// Plans an inverse DFT of length `n` (normalised by `1/n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn inverse(n: usize) -> Self {
        Self::new(n, Direction::Inverse)
    }

    /// Plans a transform of length `n` in the given direction.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, direction: Direction) -> Self {
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
                    // j·k·tw_step < n for j ≤ r−1, k ≤ m−1 (tw_nowrap's
                    // bound), so no modulo is needed.
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
        let leaf_pos = match factors.split_last() {
            None => Vec::new(),
            Some((&r, upper)) => (0..n / r)
                .map(|b| {
                    // Digit j_l of b (radix factors[l], least significant
                    // first) picks sub-block j_l at level l, which starts
                    // j_l·m_l points — j_l·m_l / r leaf blocks — further in.
                    let (mut rest, mut pos) = (b, 0);
                    for (&radix, stage) in upper.iter().zip(&stages) {
                        pos += rest % radix * (stage.m / r);
                        rest /= radix;
                    }
                    u32::try_from(pos).expect("leaf block index fits in u32")
                })
                .collect(),
        };
        FftPlan {
            n,
            direction,
            factors,
            stages,
            leaf_pos,
        }
    }

    /// The transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a plan has at least one point (`n == 0` panics at
    /// construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Transforms `data` in place, allocating a scratch buffer internally.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex32]) {
        let mut scratch = vec![Complex32::ZERO; self.n];
        self.process_with_scratch(data, &mut scratch);
    }

    /// Transforms `data` in place, reusing a caller-provided scratch buffer.
    ///
    /// Useful on the hot path to avoid per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()` or `scratch.len() < self.len()`.
    pub fn process_with_scratch(&self, data: &mut [Complex32], scratch: &mut [Complex32]) {
        assert_eq!(data.len(), self.n, "data length must equal plan length");
        assert!(
            scratch.len() >= self.n,
            "scratch must be at least the plan length"
        );
        self.process_with_dispatch(data, scratch, crate::simd::simd_enabled());
    }

    /// [`process_with_scratch`](Self::process_with_scratch) with the SIMD
    /// dispatch decision pinned by the caller — the seam the conformance
    /// suite and differential tests use to compare both paths in one
    /// process without global state. `simd` must only be `true` when
    /// [`crate::simd::simd_available`] holds.
    pub(crate) fn process_with_dispatch(
        &self,
        data: &mut [Complex32],
        scratch: &mut [Complex32],
        simd: bool,
    ) {
        assert_eq!(data.len(), self.n, "data length must equal plan length");
        assert!(
            scratch.len() >= self.n,
            "scratch must be at least the plan length"
        );
        let scratch = &mut scratch[..self.n];
        scratch.copy_from_slice(data);
        if let Some((&r, upper)) = self.factors.split_last() {
            self.leaves(scratch, data, r, simd);
            // Upper levels, smallest blocks first: level l combines r_l
            // finished sub-transforms of m_l points into each block.
            for (level, &r) in upper.iter().enumerate().rev() {
                let stage = &self.stages[level];
                for block in data.chunks_exact_mut(r * stage.m) {
                    self.combine(block, r, stage, simd);
                }
            }
        }
        if self.direction == Direction::Inverse {
            let k = 1.0 / self.n as f32;
            for z in data.iter_mut() {
                *z = z.scale(k);
            }
        }
    }

    /// The leaf stage: every radix-`r` butterfly of the last level. In
    /// decimation-in-time order, output block `leaf_pos[b]` of `out` is
    /// the transform of `input[b + j·nb]`, `j ∈ 0..r`, `nb = n / r`; each
    /// leaf runs at `m = 1`, its ×1 twiddle multiplies included.
    /// Leaves `b` and `b + 1` read adjacent inputs, so four of them fill
    /// one AVX vector for radix 3, 5 and 7; the rest (the `nb % 4` tail,
    /// radix 2 and 4, primes above 7, the scalar dispatch) run one block
    /// at a time through [`FftPlan::combine`].
    fn leaves(&self, input: &[Complex32], out: &mut [Complex32], r: usize, simd: bool) {
        let stage = &self.stages[self.factors.len() - 1];
        let nb = self.leaf_pos.len();
        let mut vectored = 0;
        #[cfg(target_arch = "x86_64")]
        if simd && nb >= 4 && matches!(r, 3 | 5 | 7) {
            vectored = nb & !3;
            let pos = &self.leaf_pos[..vectored];
            let (tw, root) = (&stage.packed, &stage.root);
            let s3 = radix3_sine(self.direction);
            // SAFETY: dispatch verified AVX2+FMA; `input` and `out` hold
            // `r·nb` points, `pos` is a multiple-of-4 prefix of the leaf
            // table, whose entries are all below `nb` (a permutation of
            // `0..nb`, checked by `leaf_positions_are_a_permutation`), and
            // the leaf stage's tables hold `r` twiddles and `r²` roots.
            unsafe {
                match r {
                    3 => avx::leaves::<3>(input, out, pos, tw, root, s3),
                    5 => avx::leaves::<5>(input, out, pos, tw, root, s3),
                    _ => avx::leaves::<7>(input, out, pos, tw, root, s3),
                }
            }
        }
        for (b, &pos) in self.leaf_pos.iter().enumerate().skip(vectored) {
            let block = &mut out[pos as usize * r..][..r];
            for (j, z) in block.iter_mut().enumerate() {
                *z = input[b + j * nb];
            }
            self.combine(block, r, stage, simd);
        }
    }

    /// One radix-`r` butterfly pass over a block of `r·stage.m` points.
    #[inline]
    fn combine(&self, out: &mut [Complex32], r: usize, stage: &StageTwiddles, simd: bool) {
        let m = stage.m;
        match r {
            2 => combine2(out, m, &stage.packed, simd),
            3 => combine3(out, m, &stage.packed, self.direction, simd),
            4 => combine4(out, m, &stage.packed, self.direction, simd),
            _ => combine_generic(out, r, m, stage, simd),
        }
    }
}

/// sin(2π/3), sign-flipped for the inverse transform.
fn radix3_sine(direction: Direction) -> f32 {
    match direction {
        Direction::Forward => -0.866_025_4,
        Direction::Inverse => 0.866_025_4,
    }
}

/// Radix-2 butterfly over packed twiddles (`tw[m..2m]` is the `j = 1`
/// row; row 0 is all ones and unused here).
fn combine2(out: &mut [Complex32], m: usize, tw: &[Complex32], simd: bool) {
    let mut k = 0;
    #[cfg(target_arch = "x86_64")]
    if simd && m >= 4 {
        k = m & !3;
        // SAFETY: dispatch verified AVX2+FMA; slices are in bounds.
        unsafe { avx::combine2(out, m, tw, k) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    while k < m {
        let a = out[k];
        let b = out[m + k] * tw[m + k];
        out[k] = a + b;
        out[m + k] = a - b;
        k += 1;
    }
}

fn combine3(out: &mut [Complex32], m: usize, tw: &[Complex32], direction: Direction, simd: bool) {
    let s3 = radix3_sine(direction);
    let mut k = 0;
    #[cfg(target_arch = "x86_64")]
    if simd && m >= 4 {
        k = m & !3;
        // SAFETY: dispatch verified AVX2+FMA; slices are in bounds.
        unsafe { avx::combine3(out, m, tw, s3, k) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    while k < m {
        let t0 = out[k];
        let t1 = out[m + k] * tw[m + k];
        let t2 = out[2 * m + k] * tw[2 * m + k];
        let sum = t1 + t2;
        let diff = (t1 - t2).scale(s3).mul_i();
        let base = t0 - sum.scale(0.5);
        out[k] = t0 + sum;
        out[m + k] = base + diff;
        out[2 * m + k] = base - diff;
        k += 1;
    }
}

fn combine4(out: &mut [Complex32], m: usize, tw: &[Complex32], direction: Direction, simd: bool) {
    let forward = direction == Direction::Forward;
    let mut k = 0;
    #[cfg(target_arch = "x86_64")]
    if simd && m >= 4 {
        k = m & !3;
        // SAFETY: dispatch verified AVX2+FMA; slices are in bounds.
        unsafe { avx::combine4(out, m, tw, forward, k) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    while k < m {
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
        k += 1;
    }
}

/// Table-driven radix for every prime factor above 3: 5 in every smooth
/// LTE width and, because the paper's Fig. 6 model divides uniform PRB
/// draws by 8, 4 or 2, any prime up to 199 as the leaf radix (`m = 1`,
/// one block per call) of every width whose PRB count has a prime factor
/// of 7 or more. Not inlined: inlined into the radix dispatch, its loop
/// made the radix-2/3/4-only transforms (`fft/24`) about 5 % slower.
#[inline(never)]
fn combine_generic(out: &mut [Complex32], r: usize, m: usize, stage: &StageTwiddles, simd: bool) {
    debug_assert!(r >= 2);
    let mut k0 = 0;
    #[cfg(target_arch = "x86_64")]
    if simd && m >= 4 && r <= avx::MAX_GENERIC_RADIX {
        k0 = m & !3;
        // SAFETY: dispatch verified AVX2+FMA; slices are in bounds.
        unsafe { avx::combine_generic(out, r, m, &stage.packed, &stage.root, k0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    // One accumulator per output, on the stack at every schedulable
    // width. Radix 5 (every smooth width) and 7 keep theirs in this
    // frame; wider radices take a frame of their own, because a 1.6 KB
    // array in this one slowed the smooth 600- to 2400-point transforms
    // by about a tenth.
    if r <= 8 {
        generic_butterflies(out, m, k0, stage, &mut [Complex32::ZERO; 8][..r]);
    } else {
        wide_generic_butterflies(out, r, m, k0, stage);
    }
}

/// Largest generic radix kept on the stack: a width `12·prb` has no
/// prime factor above `prb`, so this covers every schedulable width.
const MAX_STACK_RADIX: usize = DENSE_PRBS;

/// [`generic_butterflies`] for `r > 8`; only arbitrary public plan
/// lengths beyond [`MAX_STACK_RADIX`] reach the heap.
#[inline(never)]
fn wide_generic_butterflies(
    out: &mut [Complex32],
    r: usize,
    m: usize,
    k0: usize,
    stage: &StageTwiddles,
) {
    let mut stack = [Complex32::ZERO; MAX_STACK_RADIX];
    let mut heap = Vec::new();
    let acc: &mut [Complex32] = if r <= MAX_STACK_RADIX {
        &mut stack[..r]
    } else {
        heap.resize(r, Complex32::ZERO);
        &mut heap
    };
    generic_butterflies(out, m, k0, stage, acc);
}

/// The scalar generic butterflies for `k ∈ k0..m`, radix `r = acc.len()`.
/// j outer, q inner: all r outputs advance together, so the r
/// independent `mul_add` chains interleave (and vectorize over q) instead
/// of each running r − 1 dependent steps alone. Every output still sees
/// t0, then t1·root[r + q], t2·root[2r + q], … in that order, so the bits
/// are those of the one-chain-at-a-time loop.
#[inline(always)]
fn generic_butterflies(
    out: &mut [Complex32],
    m: usize,
    k0: usize,
    stage: &StageTwiddles,
    acc: &mut [Complex32],
) {
    let r = acc.len();
    let tw = &stage.packed;
    let root = &stage.root;
    for k in k0..m {
        acc.fill(out[k] * tw[k]);
        for j in 1..r {
            let tj = out[j * m + k] * tw[j * m + k];
            for (a, &w) in acc.iter_mut().zip(&root[j * r..(j + 1) * r]) {
                *a = a.mul_add(tj, w);
            }
        }
        for (q, &a) in acc.iter().enumerate() {
            out[q * m + k] = a;
        }
    }
}

/// AVX2+FMA butterflies: identical per-element arithmetic to the scalar
/// loops above, vectorized across four independent butterfly indices
/// `k`. Each handles `k < split` (a multiple of 4); the caller finishes
/// the tail with the scalar loop.
#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::*;

    use super::Complex32;
    use crate::simd::x86::{broadcast, cfma_broadcast, cmul, load, mul_i, mul_neg_i, store};

    /// Largest generic radix the fixed vector register block supports.
    pub(super) const MAX_GENERIC_RADIX: usize = 8;

    /// # Safety
    ///
    /// Requires AVX2+FMA; `out.len() >= 2m`, `tw.len() >= 2m`, `split ≤ m`
    /// and a multiple of 4.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn combine2(out: &mut [Complex32], m: usize, tw: &[Complex32], split: usize) {
        unsafe {
            let o = out.as_mut_ptr();
            let w = tw.as_ptr();
            let mut k = 0;
            while k < split {
                let a = load(o.add(k));
                let b = cmul(load(o.add(m + k)), load(w.add(m + k)));
                store(o.add(k), _mm256_add_ps(a, b));
                store(o.add(m + k), _mm256_sub_ps(a, b));
                k += 4;
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA; `out.len() >= 3m`, `tw.len() >= 3m`, `split ≤ m`
    /// and a multiple of 4.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn combine3(
        out: &mut [Complex32],
        m: usize,
        tw: &[Complex32],
        s3: f32,
        split: usize,
    ) {
        unsafe {
            let o = out.as_mut_ptr();
            let w = tw.as_ptr();
            let s3v = _mm256_set1_ps(s3);
            let half = _mm256_set1_ps(0.5);
            let mut k = 0;
            while k < split {
                let t0 = load(o.add(k));
                let t1 = cmul(load(o.add(m + k)), load(w.add(m + k)));
                let t2 = cmul(load(o.add(2 * m + k)), load(w.add(2 * m + k)));
                let sum = _mm256_add_ps(t1, t2);
                let diff = mul_i(_mm256_mul_ps(_mm256_sub_ps(t1, t2), s3v));
                let base = _mm256_sub_ps(t0, _mm256_mul_ps(sum, half));
                store(o.add(k), _mm256_add_ps(t0, sum));
                store(o.add(m + k), _mm256_add_ps(base, diff));
                store(o.add(2 * m + k), _mm256_sub_ps(base, diff));
                k += 4;
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA; `out.len() >= 4m`, `tw.len() >= 4m`, `split ≤ m`
    /// and a multiple of 4.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn combine4(
        out: &mut [Complex32],
        m: usize,
        tw: &[Complex32],
        forward: bool,
        split: usize,
    ) {
        unsafe {
            let o = out.as_mut_ptr();
            let w = tw.as_ptr();
            let mut k = 0;
            while k < split {
                let t0 = load(o.add(k));
                let t1 = cmul(load(o.add(m + k)), load(w.add(m + k)));
                let t2 = cmul(load(o.add(2 * m + k)), load(w.add(2 * m + k)));
                let t3 = cmul(load(o.add(3 * m + k)), load(w.add(3 * m + k)));
                let a = _mm256_add_ps(t0, t2);
                let b = _mm256_sub_ps(t0, t2);
                let c = _mm256_add_ps(t1, t3);
                let d = if forward {
                    mul_neg_i(_mm256_sub_ps(t1, t3))
                } else {
                    mul_i(_mm256_sub_ps(t1, t3))
                };
                store(o.add(k), _mm256_add_ps(a, c));
                store(o.add(m + k), _mm256_add_ps(b, d));
                store(o.add(2 * m + k), _mm256_sub_ps(a, c));
                store(o.add(3 * m + k), _mm256_sub_ps(b, d));
                k += 4;
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA; `2 ≤ r ≤ MAX_GENERIC_RADIX`, `out.len() >= r·m`,
    /// `tw.len() >= r·m`, `root.len() >= r²`, `split ≤ m` and a multiple
    /// of 4.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn combine_generic(
        out: &mut [Complex32],
        r: usize,
        m: usize,
        tw: &[Complex32],
        root: &[Complex32],
        split: usize,
    ) {
        unsafe {
            let o = out.as_mut_ptr();
            let w = tw.as_ptr();
            let mut t = [_mm256_setzero_ps(); MAX_GENERIC_RADIX];
            let mut k = 0;
            while k < split {
                for (j, tj) in t.iter_mut().enumerate().take(r) {
                    *tj = cmul(load(o.add(j * m + k)), load(w.add(j * m + k)));
                }
                for q in 0..r {
                    let mut acc = t[0];
                    for (j, &tj) in t.iter().enumerate().take(r).skip(1) {
                        acc = cfma_broadcast(acc, tj, root[j * r + q]);
                    }
                    store(o.add(q * m + k), acc);
                }
                k += 4;
            }
        }
    }

    /// Four leaf butterflies of radix `R` per vector (see
    /// `FftPlan::leaves`): lane `i` of group `g` is leaf `b = 4g + i`,
    /// whose input `j` is `input[b + j·nb]`, so each input row of a group
    /// is one unaligned load. Radix 3 repeats [`combine3`]'s arithmetic,
    /// radix 5 and 7 [`combine_generic`]'s, on the leaf level's twiddle
    /// row `tw[j]` broadcast — ×1 factors, multiplied all the same, since
    /// a multiply by `1 + 0i` can flip the sign of a zero. Lane `i`'s `R`
    /// outputs then go to `out[pos[b]·R + q]`, one 64-bit store each.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `input.len() == out.len() == R·nb` with
    /// `pos.len() ≤ nb` a multiple of 4 and every `pos[b] < nb`;
    /// `tw.len() >= R`; `root.len() >= R²` unless `R == 3`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn leaves<const R: usize>(
        input: &[Complex32],
        out: &mut [Complex32],
        pos: &[u32],
        tw: &[Complex32],
        root: &[Complex32],
        s3: f32,
    ) {
        let nb = input.len() / R;
        debug_assert!(out.len() == R * nb && pos.len() <= nb && pos.len().is_multiple_of(4));
        unsafe {
            let i = input.as_ptr();
            let o = out.as_mut_ptr();
            let mut w = [_mm256_setzero_ps(); R];
            for (j, wj) in w.iter_mut().enumerate() {
                *wj = broadcast(tw[j]);
            }
            let s3v = _mm256_set1_ps(s3);
            let half = _mm256_set1_ps(0.5);
            for (g, lanes) in pos.chunks_exact(4).enumerate() {
                let b = 4 * g;
                let mut t = [_mm256_setzero_ps(); R];
                for (j, tj) in t.iter_mut().enumerate() {
                    let x = load(i.add(b + j * nb));
                    // combine3 takes its j = 0 input as is.
                    *tj = if R == 3 && j == 0 { x } else { cmul(x, w[j]) };
                }
                let mut y = [_mm256_setzero_ps(); R];
                if R == 3 {
                    let sum = _mm256_add_ps(t[1], t[2]);
                    let diff = mul_i(_mm256_mul_ps(_mm256_sub_ps(t[1], t[2]), s3v));
                    let base = _mm256_sub_ps(t[0], _mm256_mul_ps(sum, half));
                    y[0] = _mm256_add_ps(t[0], sum);
                    y[1] = _mm256_add_ps(base, diff);
                    y[2] = _mm256_sub_ps(base, diff);
                } else {
                    for (q, yq) in y.iter_mut().enumerate() {
                        let mut acc = t[0];
                        for (j, &tj) in t.iter().enumerate().skip(1) {
                            acc = cfma_broadcast(acc, tj, root[j * R + q]);
                        }
                        *yq = acc;
                    }
                }
                let mut dst = [o; 4];
                for (d, &p) in dst.iter_mut().zip(lanes) {
                    debug_assert!((p as usize) < nb, "leaf block {p} out of 0..{nb}");
                    *d = o.add(p as usize * R);
                }
                for (q, &yq) in y.iter().enumerate() {
                    let lo = _mm256_castps256_ps128(yq);
                    let hi = _mm256_extractf128_ps::<1>(yq);
                    store_low(dst[0].add(q), lo);
                    store_low(dst[1].add(q), _mm_movehl_ps(lo, lo));
                    store_low(dst[2].add(q), hi);
                    store_low(dst[3].add(q), _mm_movehl_ps(hi, hi));
                }
            }
        }
    }

    /// Stores the low complex of `v` (one 64-bit store) to `p`.
    #[inline]
    unsafe fn store_low(p: *mut Complex32, v: __m128) {
        unsafe {
            p.cast::<f64>()
                .write_unaligned(_mm_cvtsd_f64(_mm_castps_pd(v)))
        }
    }
}

/// Builds the radix schedule for `n`: 4s first (fewest operations), then
/// 2, 3, 5, then any remaining primes in ascending order, so the leaf
/// radix is the largest prime factor (or 2 or 4 for a power of two).
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

/// Largest PRB allocation with a dedicated lock-free plan slot:
/// `lte_phy::params::MAX_PRB`, the most the ramp model schedules to one
/// user — above the 110 PRBs of a 20 MHz LTE uplink.
const DENSE_PRBS: usize = 200;

/// A thread-safe cache of [`FftPlan`]s keyed by `(length, direction)`.
///
/// The receiver pipeline needs transforms of many sizes (one per PRB
/// allocation); the planner amortises twiddle-table construction across
/// subframes and threads.
///
/// # Example
///
/// ```
/// use lte_dsp::fft::{Direction, FftPlanner};
///
/// let planner = FftPlanner::new();
/// let a = planner.plan(120, Direction::Forward);
/// let b = planner.plan(120, Direction::Forward);
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // cached
/// ```
#[derive(Debug)]
pub struct FftPlanner {
    /// Lock-free slots for the transform sizes `n = 12·prb`,
    /// `prb ∈ 1..=DENSE_PRBS`, indexed `(prb − 1) + DENSE_PRBS·direction`.
    /// A steady state lookup is one atomic load — no lock, no hashing.
    dense: Vec<OnceLock<Arc<FftPlan>>>,
    /// Read-mostly fallback for every other size; the write lock is only
    /// taken the first time a cold size is planned.
    cold: RwLock<HashMap<(usize, Direction), Arc<FftPlan>>>,
}

impl Default for FftPlanner {
    fn default() -> Self {
        FftPlanner {
            dense: (0..2 * DENSE_PRBS).map(|_| OnceLock::new()).collect(),
            cold: RwLock::new(HashMap::new()),
        }
    }
}

impl FftPlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    fn dense_slot(&self, n: usize, direction: Direction) -> Option<&OnceLock<Arc<FftPlan>>> {
        if n == 0 || !n.is_multiple_of(12) || n / 12 > DENSE_PRBS {
            return None;
        }
        let dir = match direction {
            Direction::Forward => 0,
            Direction::Inverse => 1,
        };
        Some(&self.dense[(n / 12 - 1) + dir * DENSE_PRBS])
    }

    /// Returns a (shared) plan for the given length and direction.
    ///
    /// Subcarrier counts of every schedulable allocation (multiples of 12
    /// up to 200 PRBs) resolve through a dense lock-free table; other
    /// sizes fall back to a read-mostly map whose write lock is only held
    /// while a cold size is planned for the first time.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn plan(&self, n: usize, direction: Direction) -> Arc<FftPlan> {
        if let Some(slot) = self.dense_slot(n, direction) {
            return Arc::clone(slot.get_or_init(|| Arc::new(FftPlan::new(n, direction))));
        }
        if let Some(plan) = self
            .cold
            .read()
            .expect("planner lock poisoned")
            .get(&(n, direction))
        {
            return Arc::clone(plan);
        }
        let mut cold = self.cold.write().expect("planner lock poisoned");
        Arc::clone(
            cold.entry((n, direction))
                .or_insert_with(|| Arc::new(FftPlan::new(n, direction))),
        )
    }

    /// Builds the forward and inverse plans for each PRB allocation up
    /// front, so no worker ever pays plan construction (or a cold-map
    /// write lock) on the subframe path.
    pub fn prewarm<I: IntoIterator<Item = usize>>(&self, prbs: I) {
        for prb in prbs {
            let n = prb * 12;
            if n > 0 {
                self.plan(n, Direction::Forward);
                self.plan(n, Direction::Inverse);
            }
        }
    }

    /// Convenience wrapper for [`Direction::Forward`].
    pub fn forward(&self, n: usize) -> Arc<FftPlan> {
        self.plan(n, Direction::Forward)
    }

    /// Convenience wrapper for [`Direction::Inverse`].
    pub fn inverse(&self, n: usize) -> Arc<FftPlan> {
        self.plan(n, Direction::Inverse)
    }

    /// Number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        let dense = self
            .dense
            .iter()
            .filter(|slot| slot.get().is_some())
            .count();
        dense + self.cold.read().expect("planner lock poisoned").len()
    }
}

/// Reference `O(n²)` DFT used by tests and as an executable specification.
pub fn dft_naive(input: &[Complex32], direction: Direction) -> Vec<Complex32> {
    let n = input.len();
    let sign = match direction {
        Direction::Forward => -1.0f64,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex32::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc_re = 0.0f64;
        let mut acc_im = 0.0f64;
        for (j, x) in input.iter().enumerate() {
            let theta = sign * TAU * (j * k % n) as f64 / n as f64;
            let (s, c) = theta.sin_cos();
            acc_re += x.re as f64 * c - x.im as f64 * s;
            acc_im += x.re as f64 * s + x.im as f64 * c;
        }
        *o = Complex32::new(acc_re as f32, acc_im as f32);
    }
    if direction == Direction::Inverse {
        for z in &mut out {
            *z = z.scale(1.0 / n as f32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_block(n: usize, seed: u64) -> Vec<Complex32> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
            .collect()
    }

    fn assert_close(a: &[Complex32], b: &[Complex32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() <= tol,
                "index {i}: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn radix_schedule_products() {
        for n in 1..=600 {
            let fs = radix_schedule(n);
            assert_eq!(fs.iter().product::<usize>().max(1), n.max(1));
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        for n in [1, 2, 3, 4, 5, 12, 36, 300] {
            let plan = FftPlan::forward(n);
            let mut data = vec![Complex32::ZERO; n];
            data[0] = Complex32::ONE;
            plan.process(&mut data);
            for z in &data {
                assert!((*z - Complex32::ONE).abs() < 1e-4, "n={n}");
            }
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 144;
        let plan = FftPlan::forward(n);
        let mut data = vec![Complex32::ONE; n];
        plan.process(&mut data);
        assert!((data[0].re - n as f32).abs() < 1e-2);
        for z in &data[1..] {
            assert!(z.abs() < 1e-2);
        }
    }

    #[test]
    fn matches_naive_dft_on_lte_sizes() {
        // Every 5-smooth 12·PRB size up to 50 PRBs plus assorted others.
        let mut sizes: Vec<usize> = (1..=50).map(|p| 12 * p).collect();
        sizes.extend([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 25, 128, 2048]);
        for n in sizes {
            let input = random_block(n, n as u64);
            let mut fast = input.clone();
            FftPlan::forward(n).process(&mut fast);
            let slow = dft_naive(&input, Direction::Forward);
            let tol = 1e-4 * (n as f32).max(8.0);
            assert_close(&fast, &slow, tol);
        }
    }

    #[test]
    fn inverse_matches_naive() {
        for n in [12, 60, 71, 180] {
            let input = random_block(n, 1000 + n as u64);
            let mut fast = input.clone();
            FftPlan::inverse(n).process(&mut fast);
            let slow = dft_naive(&input, Direction::Inverse);
            assert_close(&fast, &slow, 1e-4);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [12, 24, 300, 1200, 2400] {
            let original = random_block(n, 7 * n as u64);
            let mut data = original.clone();
            FftPlan::forward(n).process(&mut data);
            FftPlan::inverse(n).process(&mut data);
            assert_close(&data, &original, 1e-4);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 600;
        let input = random_block(n, 42);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr() as f64).sum();
        let mut freq = input;
        FftPlan::forward(n).process(&mut freq);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() / time_energy < 1e-5,
            "{time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn linearity() {
        let n = 180;
        let a = random_block(n, 1);
        let b = random_block(n, 2);
        let plan = FftPlan::forward(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.process(&mut fa);
        plan.process(&mut fb);
        let mut sum: Vec<Complex32> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        plan.process(&mut sum);
        let expect: Vec<Complex32> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(2.0)).collect();
        assert_close(&sum, &expect, 1e-3);
    }

    #[test]
    fn shift_theorem() {
        // Circularly shifting the input multiplies the spectrum by a phasor.
        let n = 48;
        let input = random_block(n, 9);
        let mut shifted: Vec<Complex32> = input.clone();
        shifted.rotate_left(1);
        let plan = FftPlan::forward(n);
        let mut f0 = input;
        let mut f1 = shifted;
        plan.process(&mut f0);
        plan.process(&mut f1);
        for k in 0..n {
            let phase = Complex32::cis(TAU as f32 * k as f32 / n as f32);
            assert!((f1[k] - f0[k] * phase).abs() < 1e-3);
        }
    }

    /// Every `12·PRB` width the planner's dense table holds, then lengths
    /// with no leaf (1) or a single leaf block of radix 2, 3, 4, 5 or 7,
    /// odd lengths whose leaf count is not a multiple of 4 (15, 45, 105,
    /// 7³ — radix 7 also at m ≥ 4), a prime above the vector block and
    /// powers of two.
    fn planned_widths() -> Vec<usize> {
        let mut sizes: Vec<usize> = (1..=DENSE_PRBS).map(|p| 12 * p).collect();
        sizes.extend([1, 2, 3, 4, 5, 7, 8, 15, 45, 71, 105, 128, 343, 2048]);
        sizes
    }

    #[test]
    fn leaf_positions_are_a_permutation() {
        // The AVX leaf kernel scatters to `leaf_pos[b]·r` unchecked: every
        // entry must be below n / r, each exactly once.
        let mut sizes = planned_widths();
        sizes.extend(1..=600);
        for n in sizes {
            let plan = FftPlan::forward(n);
            let nb = plan.factors.last().map_or(0, |&r| n / r);
            assert_eq!(plan.leaf_pos.len(), nb, "n={n}");
            let mut seen = vec![false; nb];
            for &p in &plan.leaf_pos {
                let slot = seen.get_mut(p as usize).expect("leaf block in range");
                assert!(!*slot, "n={n}: leaf block {p} written twice");
                *slot = true;
            }
        }
    }

    #[test]
    fn simd_and_scalar_paths_are_bit_identical() {
        // Covers every butterfly and both leaf paths: radix 3, 5 and 7
        // leaves four to a vector plus their `nb % 4` tails, radix
        // 2/3/4/5 upper levels, primes above 7 as the ramp model's leaf
        // radix (one block at a time) and power-of-two front-end sizes.
        let sizes = planned_widths();
        for direction in [Direction::Forward, Direction::Inverse] {
            for &n in &sizes {
                let plan = FftPlan::new(n, direction);
                let input = random_block(n, 9000 + n as u64);
                let mut scratch = vec![Complex32::ZERO; n];
                let mut vectored = input.clone();
                let simd = crate::simd::simd_available();
                plan.process_with_dispatch(&mut vectored, &mut scratch, simd);
                let mut scalar = input;
                plan.process_with_dispatch(&mut scalar, &mut scratch, false);
                for (i, (a, b)) in vectored.iter().zip(&scalar).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "n={n} {direction:?} index {i}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_alloc_path() {
        let n = 360;
        let input = random_block(n, 77);
        let plan = FftPlan::forward(n);
        let mut a = input.clone();
        let mut b = input;
        plan.process(&mut a);
        let mut scratch = vec![Complex32::ZERO; n];
        plan.process_with_scratch(&mut b, &mut scratch);
        assert_close(&a, &b, 0.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn wrong_length_panics() {
        FftPlan::forward(8).process(&mut [Complex32::ZERO; 4]);
    }

    #[test]
    fn planner_caches_and_is_shared() {
        let planner = FftPlanner::new();
        let p1 = planner.forward(12);
        let p2 = planner.forward(12);
        let p3 = planner.inverse(12);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(planner.cached_plans(), 2);
    }

    #[test]
    fn planner_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<FftPlanner>();
        assert_sync::<FftPlan>();
    }

    #[test]
    fn planner_caches_non_lte_sizes_too() {
        let planner = FftPlanner::new();
        // 17 is prime and not a multiple of 12 — cold-map path.
        let a = planner.forward(17);
        let b = planner.forward(17);
        assert!(Arc::ptr_eq(&a, &b));
        // 2412 = 12 × 201 exceeds the dense PRB range.
        let c = planner.inverse(2412);
        let d = planner.inverse(2412);
        assert!(Arc::ptr_eq(&c, &d));
        assert_eq!(planner.cached_plans(), 2);
    }

    #[test]
    fn max_prb_plans_are_dense() {
        // The ramp model schedules up to `lte_phy::params::MAX_PRB` = 200
        // PRBs to one user; its lookups must never take the cold lock.
        let planner = FftPlanner::new();
        planner.prewarm([197, 200]);
        let slot = planner.dense_slot(12 * 200, Direction::Inverse);
        assert!(slot.and_then(OnceLock::get).is_some());
        assert!(planner.cold.read().expect("planner lock").is_empty());
        assert_eq!(planner.cached_plans(), 4);
    }

    #[test]
    fn planner_prewarm_builds_both_directions() {
        let planner = FftPlanner::new();
        planner.prewarm([4, 25, 100]);
        assert_eq!(planner.cached_plans(), 6);
        // Prewarming twice is idempotent.
        planner.prewarm([25]);
        assert_eq!(planner.cached_plans(), 6);
    }

    #[test]
    fn planner_survives_sixteen_thread_hammer() {
        let planner = Arc::new(FftPlanner::new());
        let sizes = [12, 120, 300, 600, 1200, 17, 2412];
        std::thread::scope(|scope| {
            for t in 0..16 {
                let planner = Arc::clone(&planner);
                scope.spawn(move || {
                    for i in 0..200 {
                        let n = sizes[(t + i) % sizes.len()];
                        let fwd = planner.forward(n);
                        let inv = planner.inverse(n);
                        assert_eq!(fwd.len(), n);
                        assert_eq!(inv.len(), n);
                        // Every thread must see the same shared plan.
                        assert!(Arc::ptr_eq(&fwd, &planner.forward(n)));
                    }
                });
            }
        });
        assert_eq!(planner.cached_plans(), 2 * sizes.len());
    }
}

//! Rate-1/3 PCCC turbo codec (TS 36.212 §5.1.3.2).
//!
//! The paper's benchmark passes turbo decoding through because base
//! stations run it on dedicated hardware; the pipeline stage is explicitly
//! designed to be replaceable. This module provides the real thing — the
//! 3GPP parallel-concatenated convolutional code with the 8-state
//! constituent encoders `g0 = 1 + D² + D³` (feedback) and
//! `g1 = 1 + D + D³` (parity), a QPP internal interleaver, trellis
//! termination, and an iterative max-log-MAP decoder.
//!
//! # Example
//!
//! ```
//! use lte_dsp::turbo::{TurboDecoder, TurboEncoder};
//!
//! let k = 64;
//! let encoder = TurboEncoder::new(k);
//! let bits: Vec<u8> = (0..k).map(|i| ((i * 7) % 3 == 0) as u8).collect();
//! let code = encoder.encode(&bits);
//!
//! // Noiseless channel: LLR +8 for bit 0, −8 for bit 1.
//! let llrs = code.to_llrs(8.0);
//! let decoder = TurboDecoder::new(k, 4);
//! assert_eq!(decoder.decode(&llrs), bits);
//! ```

use crate::interleave::Interleaver;
use crate::math::gcd;

/// Number of trellis states of each constituent encoder.
pub(crate) const STATES: usize = 8;
/// Tail steps used to terminate each constituent trellis.
const TAIL: usize = 3;

/// QPP parameters `(f1, f2)` for selected block sizes from TS 36.212
/// Table 5.1.3-3. Sizes not listed fall back to a validated search (see
/// [`QppInterleaver::new`]); either way the result is checked to be a
/// permutation.
const QPP_TABLE: &[(usize, usize, usize)] = &[
    (40, 3, 10),
    (48, 7, 12),
    (56, 19, 42),
    (64, 7, 16),
    (72, 7, 18),
    (80, 11, 20),
    (88, 5, 22),
    (96, 11, 24),
    (104, 7, 26),
    (112, 41, 84),
    (120, 103, 90),
    (128, 15, 32),
    (144, 17, 108),
    (160, 21, 120),
    (176, 21, 44),
    (192, 23, 48),
    (208, 27, 52),
    (224, 27, 56),
    (240, 29, 60),
    (256, 15, 32),
    (288, 19, 36),
    (320, 21, 120),
    (352, 21, 44),
    (384, 23, 48),
    (416, 25, 52),
    (448, 29, 168),
    (480, 89, 180),
    (512, 31, 64),
    (576, 65, 96),
    (640, 39, 80),
    (704, 155, 44),
    (768, 217, 48),
    (832, 25, 52),
    (896, 215, 56),
    (960, 29, 60),
    (1024, 31, 64),
    (1152, 35, 72),
    (1280, 199, 240),
    (1408, 43, 88),
    (1536, 71, 48),
    (2048, 57, 96),
    (3072, 233, 480),
    (4096, 31, 64),
    (6144, 263, 480),
];

/// The quadratic permutation polynomial interleaver
/// `Π(i) = (f1·i + f2·i²) mod K`.
#[derive(Clone, Debug)]
pub struct QppInterleaver {
    inner: Interleaver,
}

impl QppInterleaver {
    /// Builds the QPP interleaver for block size `k`, using the 3GPP table
    /// where available and otherwise searching for valid `(f1, f2)`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 8` (3GPP's minimum is 40; 8 is the mathematical floor
    /// we accept for tests).
    pub fn new(k: usize) -> Self {
        assert!(k >= 8, "QPP block size must be at least 8");
        if let Some(&(_, f1, f2)) = QPP_TABLE.iter().find(|&&(kk, _, _)| kk == k) {
            if let Some(q) = Self::try_build(k, f1, f2) {
                return q;
            }
        }
        // Derived family covering the dense ladder of multiples of 64:
        // (k/2 − 1, k/2) is a valid QPP for these sizes (verified by
        // construction below).
        if k.is_multiple_of(64) {
            if let Some(q) = Self::try_build(k, k / 2 - 1, k / 2) {
                return q;
            }
        }
        // Search: f1 odd and coprime with k; f2 a multiple of the distinct
        // prime factors of k (sufficient for a permutation when k is even).
        for f2 in (2..k).step_by(2) {
            for f1 in (3..k).step_by(2) {
                if gcd(f1 as u64, k as u64) != 1 {
                    continue;
                }
                if let Some(q) = Self::try_build(k, f1, f2) {
                    return q;
                }
            }
        }
        unreachable!("a QPP permutation exists for every even k >= 8");
    }

    fn try_build(k: usize, f1: usize, f2: usize) -> Option<Self> {
        let mut perm = Vec::with_capacity(k);
        let mut seen = vec![false; k];
        for i in 0..k {
            // Compute (f1·i + f2·i²) mod k without overflow.
            let i64k = k as u128;
            let v = ((f1 as u128 * i as u128) + (f2 as u128 * i as u128 % i64k * i as u128)) % i64k;
            let v = v as usize;
            if seen[v] {
                return None;
            }
            seen[v] = true;
            perm.push(v as u32);
        }
        Some(QppInterleaver {
            inner: Interleaver::from_permutation(perm),
        })
    }

    /// Block size.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if the block size is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Interleaves a block.
    pub fn apply<T: Copy>(&self, input: &[T]) -> Vec<T> {
        self.inner.apply(input)
    }

    /// Deinterleaves a block.
    pub fn invert<T: Copy>(&self, input: &[T]) -> Vec<T> {
        self.inner.invert(input)
    }

    /// Interleaves into a caller-provided buffer (no allocation).
    pub fn apply_into<T: Copy>(&self, input: &[T], out: &mut [T]) {
        self.inner.apply_into(input, out)
    }

    /// Deinterleaves into a caller-provided buffer (no allocation).
    pub fn invert_into<T: Copy>(&self, input: &[T], out: &mut [T]) {
        self.inner.invert_into(input, out)
    }
}

/// One constituent-encoder trellis transition.
#[derive(Clone, Copy, Debug)]
struct Transition {
    next: u8,
    parity: u8,
}

/// Precomputed trellis: `TRELLIS[state][input]`.
fn trellis() -> [[Transition; 2]; STATES] {
    let mut t = [[Transition { next: 0, parity: 0 }; 2]; STATES];
    for (s, row) in t.iter_mut().enumerate() {
        let d1 = (s >> 2) & 1;
        let d2 = (s >> 1) & 1;
        let d3 = s & 1;
        for (x, tr) in row.iter_mut().enumerate() {
            let a = x ^ d2 ^ d3; // feedback g0 = 1 + D² + D³
            let parity = a ^ d1 ^ d3; // g1 = 1 + D + D³
            let next = (a << 2) | (d1 << 1) | d2;
            *tr = Transition {
                next: next as u8,
                parity: parity as u8,
            };
        }
    }
    t
}

/// Systematic + two parity streams plus per-encoder tail bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TurboCodeword {
    /// Systematic bits, length `k`.
    pub systematic: Vec<u8>,
    /// Parity from encoder 1, length `k`.
    pub parity1: Vec<u8>,
    /// Parity from encoder 2 (interleaved input), length `k`.
    pub parity2: Vec<u8>,
    /// Encoder-1 tail: `(systematic, parity)` pairs.
    pub tail1: [(u8, u8); TAIL],
    /// Encoder-2 tail: `(systematic, parity)` pairs.
    pub tail2: [(u8, u8); TAIL],
}

impl TurboCodeword {
    /// Total transmitted bits: `3k + 12`.
    pub fn len_bits(&self) -> usize {
        3 * self.systematic.len() + 4 * TAIL
    }

    /// Converts to channel LLRs for a noiseless channel with confidence
    /// `mag` (`+mag` for bit 0, `−mag` for bit 1) — handy for tests.
    pub fn to_llrs(&self, mag: f32) -> TurboLlrs {
        let f = |b: u8| if b == 0 { mag } else { -mag };
        TurboLlrs {
            systematic: self.systematic.iter().map(|&b| f(b)).collect(),
            parity1: self.parity1.iter().map(|&b| f(b)).collect(),
            parity2: self.parity2.iter().map(|&b| f(b)).collect(),
            tail1: self.tail1.map(|(x, p)| (f(x), f(p))),
            tail2: self.tail2.map(|(x, p)| (f(x), f(p))),
        }
    }
}

/// Channel LLRs for a turbo codeword (`ln P(0)/P(1)` convention).
///
/// `Default` gives an empty (`k = 0`) instance meant as a reusable
/// staging buffer for [`crate::rate_match::RateMatcher::accumulate_llrs_into`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TurboLlrs {
    /// Systematic LLRs, length `k`.
    pub systematic: Vec<f32>,
    /// Encoder-1 parity LLRs, length `k`.
    pub parity1: Vec<f32>,
    /// Encoder-2 parity LLRs, length `k`.
    pub parity2: Vec<f32>,
    /// Encoder-1 tail `(systematic, parity)` LLRs.
    pub tail1: [(f32, f32); TAIL],
    /// Encoder-2 tail `(systematic, parity)` LLRs.
    pub tail2: [(f32, f32); TAIL],
}

/// The 3GPP turbo encoder for one block size.
#[derive(Clone, Debug)]
pub struct TurboEncoder {
    interleaver: QppInterleaver,
}

impl TurboEncoder {
    /// Creates an encoder for block size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 8`.
    pub fn new(k: usize) -> Self {
        TurboEncoder {
            interleaver: QppInterleaver::new(k),
        }
    }

    /// Block size `k`.
    pub fn block_size(&self) -> usize {
        self.interleaver.len()
    }

    /// Encodes `k` information bits into a rate-1/3 codeword with tails.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != k` or any element is not 0 or 1.
    pub fn encode(&self, bits: &[u8]) -> TurboCodeword {
        let k = self.block_size();
        assert_eq!(bits.len(), k, "input must be exactly the block size");
        let interleaved = self.interleaver.apply(bits);
        let (parity1, tail1) = rsc_encode(bits);
        let (parity2, tail2) = rsc_encode(&interleaved);
        TurboCodeword {
            systematic: bits.to_vec(),
            parity1,
            parity2,
            tail1,
            tail2,
        }
    }

    /// The internal interleaver (exposed for decoder reuse and tests).
    pub fn interleaver(&self) -> &QppInterleaver {
        &self.interleaver
    }
}

/// Runs one RSC constituent encoder, returning parity bits and the
/// termination tail.
fn rsc_encode(bits: &[u8]) -> (Vec<u8>, [(u8, u8); TAIL]) {
    let trellis = trellis();
    let mut state = 0usize;
    let mut parity = Vec::with_capacity(bits.len());
    for &x in bits {
        assert!(x <= 1, "bits must be 0 or 1");
        let tr = trellis[state][x as usize];
        parity.push(tr.parity);
        state = tr.next as usize;
    }
    let mut tail = [(0u8, 0u8); TAIL];
    for t in tail.iter_mut() {
        // Feed back the register so the feedback XOR cancels (a = 0),
        // flushing the state to zero in three steps.
        let d2 = (state >> 1) & 1;
        let d3 = state & 1;
        let x = (d2 ^ d3) as u8;
        let tr = trellis[state][x as usize];
        *t = (x, tr.parity);
        state = tr.next as usize;
    }
    debug_assert_eq!(state, 0, "trellis must terminate at the zero state");
    (parity, tail)
}

/// Unreachable-path sentinel for the max-log recursions.
///
/// Finite rather than `-inf` so that the guard-free gather form below can
/// add branch metrics to unreachable states without producing NaN
/// (`-inf + inf`): for any metric `|x|` below one ulp of 1e30 (~7.6e22),
/// `NEG + x == NEG` exactly, so unreachable lanes stay pinned at the
/// sentinel and never win a max against a reachable path.
pub(crate) const NEG: f32 = -1.0e30;

/// Predecessor state feeding next-state `t` whose oldest register bit
/// (the one shifted out) is `d3`: `ALPHA_PRED[d3][t]`. Every state has
/// exactly one even (`d3 = 0`) and one odd (`d3 = 1`) predecessor, which
/// is what makes the forward recursion two vector gathers.
pub(crate) const ALPHA_PRED: [[usize; STATES]; 2] =
    [[0, 2, 4, 6, 0, 2, 4, 6], [1, 3, 5, 7, 1, 3, 5, 7]];

/// Information bit on the branch `ALPHA_PRED[d3][t] → t`
/// (`u = t2 ^ t0 ^ d3` with `t = (t2,t1,t0)`).
pub(crate) const ALPHA_INPUT: [[u8; STATES]; 2] =
    [[0, 1, 0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1, 0, 1]];

/// Parity bit on the branch `ALPHA_PRED[d3][t] → t` (`p = t2 ^ t1 ^ d3`).
pub(crate) const ALPHA_PARITY: [[u8; STATES]; 2] =
    [[0, 0, 1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0, 1, 1]];

/// Successor state `NEXT_STATE[u][s]` of the constituent encoder
/// (`next = (u^d2^d3, d1, d2)`), used by the backward recursion and the
/// LLR extraction as vector gathers over the next-step column.
pub(crate) const NEXT_STATE: [[usize; STATES]; 2] =
    [[0, 4, 5, 1, 2, 6, 7, 3], [4, 0, 1, 5, 6, 2, 3, 7]];

/// Parity bit on the branch `s → NEXT_STATE[u][s]` (`p = u ^ d1 ^ d2`).
pub(crate) const BRANCH_PARITY: [[u8; STATES]; 2] =
    [[0, 0, 1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0, 1, 1]];

/// `+h` when the branch bit is 0, `-h` (a sign-bit flip, the scalar twin
/// of the vector XOR-with-`-0.0`) when it is 1.
#[inline(always)]
fn signed(h: f32, bit: u8) -> f32 {
    if bit == 0 {
        h
    } else {
        -h
    }
}

/// Reusable scratch for decoding one block: the per-iteration LLR
/// vectors, the per-pass branch-metric arrays the vector recursions
/// broadcast from, the flat state-major `alpha`/`beta` metric planes
/// (`metric[i * 8 + state]`, one cache-aligned-enough 8-lane row per
/// trellis step), and the block's a-posteriori output. Grown on first
/// use per block size and then reused, so a warm workspace makes
/// [`TurboDecoder::decode_into`] allocation-free; a group decode
/// ([`TurboDecoder::decode_group`]) takes one workspace per block.
#[derive(Clone, Debug, Default)]
pub struct TurboWorkspace {
    sys_interleaved: Vec<f32>,
    apriori1: Vec<f32>,
    apriori2: Vec<f32>,
    extrinsic1: Vec<f32>,
    extrinsic2: Vec<f32>,
    half_sys: Vec<f32>,
    half_par: Vec<f32>,
    alpha: Vec<f32>,
    beta: Vec<f32>,
    app: Vec<f32>,
    stopped: bool,
}

impl TurboWorkspace {
    /// Creates an empty workspace; buffers grow on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// The a-posteriori LLRs of the information bits left by the last
    /// decode that used this workspace.
    pub fn app(&self) -> &[f32] {
        &self.app
    }

    /// Hard decisions on [`app`](Self::app) into `out` (`0` where the
    /// LLR is `>= 0`, else `1`: [`crate::llr::hard_decisions_into`]),
    /// replacing its contents.
    pub fn hard_bits_into(&self, out: &mut Vec<u8>) {
        out.clear();
        crate::llr::hard_decisions_into(&self.app, out);
    }

    fn prepare(&mut self, k: usize) {
        self.sys_interleaved.resize(k, 0.0);
        self.apriori1.resize(k, 0.0);
        self.apriori2.resize(k, 0.0);
        self.extrinsic1.resize(k, 0.0);
        self.extrinsic2.resize(k, 0.0);
        self.half_sys.resize(k, 0.0);
        self.half_par.resize(k, 0.0);
        self.stopped = false;
        // alpha/beta are sized inside the SISO pass.
    }

    /// This block's operands for SISO pass 1 (natural order) or pass 2
    /// (interleaved order).
    fn siso_view<'a>(&'a mut self, llrs: &'a TurboLlrs, second: bool) -> SisoBlock<'a> {
        let TurboWorkspace {
            sys_interleaved,
            apriori1,
            apriori2,
            extrinsic1,
            extrinsic2,
            half_sys,
            half_par,
            alpha,
            beta,
            ..
        } = self;
        let (sys, par, apriori, tail, extrinsic) = if second {
            (
                &sys_interleaved[..],
                &llrs.parity2[..],
                &apriori2[..],
                &llrs.tail2,
                extrinsic2,
            )
        } else {
            (
                &llrs.systematic[..],
                &llrs.parity1[..],
                &apriori1[..],
                &llrs.tail1,
                extrinsic1,
            )
        };
        SisoBlock {
            sys,
            par,
            apriori,
            tail,
            half_sys,
            half_par,
            alpha,
            beta,
            extrinsic,
        }
    }
}

/// Size of the first lockstep group of `remaining` equal-K blocks:
/// blocks go in pairs, a lone block alone, and three remaining blocks
/// form one group, so an odd count ends in a group of three
/// (`5 → 2, 3`). It depends on the block count alone.
pub fn lockstep_group_len(remaining: usize) -> usize {
    if remaining == 3 {
        3
    } else {
        remaining.min(2)
    }
}

/// Iterative max-log-MAP turbo decoder.
#[derive(Clone, Debug)]
pub struct TurboDecoder {
    interleaver: QppInterleaver,
    iterations: usize,
}

impl TurboDecoder {
    /// Creates a decoder for block size `k` running `iterations` full
    /// (two-SISO) iterations, or at most that many under a stop rule
    /// ([`decode_group_until`](Self::decode_group_until)).
    ///
    /// # Panics
    ///
    /// Panics if `k < 8` or `iterations == 0`.
    pub fn new(k: usize, iterations: usize) -> Self {
        assert!(iterations > 0, "at least one iteration is required");
        TurboDecoder {
            interleaver: QppInterleaver::new(k),
            iterations,
        }
    }

    /// Configured full-iteration count.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Block size `k`.
    pub fn block_size(&self) -> usize {
        self.interleaver.len()
    }

    /// Decodes channel LLRs into hard information bits.
    ///
    /// # Panics
    ///
    /// Panics if the LLR block sizes do not match `k`.
    pub fn decode(&self, llrs: &TurboLlrs) -> Vec<u8> {
        let mut ws = TurboWorkspace::new();
        let mut out = Vec::new();
        self.decode_into(llrs, &mut ws, &mut out);
        out
    }

    /// Decodes channel LLRs into a-posteriori LLRs for the information bits.
    ///
    /// # Panics
    ///
    /// Panics if the LLR block sizes do not match `k`.
    pub fn decode_soft(&self, llrs: &TurboLlrs) -> Vec<f32> {
        let mut ws = TurboWorkspace::new();
        let mut out = Vec::new();
        self.decode_soft_into(llrs, &mut ws, &mut out);
        out
    }

    /// [`decode`](Self::decode) into caller-provided buffers; with a warm
    /// workspace and sufficient `out` capacity this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the LLR block sizes do not match `k`.
    pub fn decode_into(&self, llrs: &TurboLlrs, ws: &mut TurboWorkspace, out: &mut Vec<u8>) {
        self.decode_group(std::slice::from_ref(llrs), std::slice::from_mut(ws));
        ws.hard_bits_into(out);
    }

    /// [`decode_soft`](Self::decode_soft) into caller-provided buffers;
    /// with a warm workspace and sufficient `out` capacity this allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the LLR block sizes do not match `k`.
    pub fn decode_soft_into(&self, llrs: &TurboLlrs, ws: &mut TurboWorkspace, out: &mut Vec<f32>) {
        self.decode_group(std::slice::from_ref(llrs), std::slice::from_mut(ws));
        out.clear();
        out.extend_from_slice(&ws.app);
    }

    /// Decodes a group of equal-K blocks in lockstep for every configured
    /// iteration: [`decode_group_until`](Self::decode_group_until) with no
    /// stop rule, so the APP is assembled once, after the last pass.
    ///
    /// # Panics
    ///
    /// As [`decode_group_until`](Self::decode_group_until).
    pub fn decode_group(&self, llrs: &[TurboLlrs], ws: &mut [TurboWorkspace]) {
        self.decode_group_with(llrs, ws, None::<fn(usize, &[f32]) -> bool>);
    }

    /// Decodes a group of equal-K blocks in lockstep, block `b` from
    /// `llrs[b]` in workspace `ws[b]`, leaving its a-posteriori LLRs in
    /// [`TurboWorkspace::app`]. Each SISO pass advances the blocks
    /// together ([`lockstep_group_len`] blocks per vector loop), but no
    /// block reads another's state, so every block's output is bit for
    /// bit its one-block decode.
    ///
    /// After every SISO pass each running block's APP is assembled as
    /// `sys + apriori1 + extrinsic1` and handed to `stop(b, app)`; a
    /// block for which it returns `true` leaves the group's passes with
    /// that APP as its output. After pass 1 that is decoder 1's APP;
    /// after pass 2 of iteration `n` it is bit for bit the output of
    /// `TurboDecoder::new(k, n)`. The configured iteration count is the
    /// cap. With warm workspaces this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a block's LLR lengths do not match `k`, or if there are
    /// fewer workspaces than blocks.
    pub fn decode_group_until(
        &self,
        llrs: &[TurboLlrs],
        ws: &mut [TurboWorkspace],
        stop: impl FnMut(usize, &[f32]) -> bool,
    ) {
        self.decode_group_with(llrs, ws, Some(stop));
    }

    /// The one lockstep loop: with `stop` the APP is checked after every
    /// pass, without it only after the last.
    fn decode_group_with<F: FnMut(usize, &[f32]) -> bool>(
        &self,
        llrs: &[TurboLlrs],
        ws: &mut [TurboWorkspace],
        mut stop: Option<F>,
    ) {
        let k = self.block_size();
        assert!(ws.len() >= llrs.len(), "one workspace per block");
        let ws = &mut ws[..llrs.len()];
        for (w, l) in ws.iter_mut().zip(llrs) {
            assert_eq!(l.systematic.len(), k, "systematic length mismatch");
            assert_eq!(l.parity1.len(), k, "parity1 length mismatch");
            assert_eq!(l.parity2.len(), k, "parity2 length mismatch");
            w.prepare(k);
            self.interleaver
                .apply_into(&l.systematic, &mut w.sys_interleaved);
            w.apriori1.fill(0.0);
        }

        for iteration in 1..=self.iterations {
            siso_pass(llrs, ws, false);
            if stop.is_some() && stop_check(llrs, ws, &mut stop) {
                return;
            }
            for w in ws.iter_mut().filter(|w| !w.stopped) {
                self.interleaver.apply_into(&w.extrinsic1, &mut w.apriori2);
            }
            siso_pass(llrs, ws, true);
            for w in ws.iter_mut().filter(|w| !w.stopped) {
                self.interleaver.invert_into(&w.extrinsic2, &mut w.apriori1);
            }
            let last = iteration == self.iterations;
            if (stop.is_some() || last) && stop_check(llrs, ws, &mut stop) {
                return;
            }
        }
    }
}

/// Assembles the APP of every block still running and retires the
/// blocks `stop` accepts; `true` once none is left running.
fn stop_check<F: FnMut(usize, &[f32]) -> bool>(
    llrs: &[TurboLlrs],
    ws: &mut [TurboWorkspace],
    stop: &mut Option<F>,
) -> bool {
    let mut running = false;
    for (b, (w, l)) in ws.iter_mut().zip(llrs).enumerate() {
        if w.stopped {
            continue;
        }
        w.app.clear();
        w.app.extend(
            l.systematic
                .iter()
                .zip(&w.apriori1)
                .zip(&w.extrinsic1)
                .map(|((&s, &a), &e)| s + a + e),
        );
        w.stopped = stop.as_mut().is_some_and(|stop| stop(b, &w.app));
        running |= !w.stopped;
    }
    !running
}

/// Runs one SISO pass with zero a-priori input and exposes the raw
/// `alpha`/`beta` metric planes and extrinsic output — the conformance
/// hook that pins each turbo sub-kernel (not just the final bits) on
/// both dispatch paths.
pub fn siso_probe<'w>(
    llrs: &TurboLlrs,
    ws: &'w mut TurboWorkspace,
) -> (&'w [f32], &'w [f32], &'w [f32]) {
    let k = llrs.systematic.len();
    assert_eq!(llrs.parity1.len(), k, "parity1 length mismatch");
    ws.prepare(k);
    ws.apriori1.fill(0.0);
    siso_maxlog([ws.siso_view(llrs, false)]);
    (&ws.alpha, &ws.beta, &ws.extrinsic1)
}

/// One block's operands and outputs for one SISO pass. `half_sys` and
/// `half_par` are the vector path's branch-metric arrays
/// (`0.5·(sys + apriori)` and `0.5·par` per step), filled by
/// [`crate::simd::turbo_alpha_beta`].
pub(crate) struct SisoBlock<'a> {
    pub(crate) sys: &'a [f32],
    pub(crate) par: &'a [f32],
    pub(crate) apriori: &'a [f32],
    pub(crate) tail: &'a [(f32, f32); TAIL],
    pub(crate) half_sys: &'a mut [f32],
    pub(crate) half_par: &'a mut [f32],
    pub(crate) alpha: &'a mut Vec<f32>,
    pub(crate) beta: &'a mut Vec<f32>,
    pub(crate) extrinsic: &'a mut [f32],
}

/// SISO pass 1 (`second == false`) or 2 over every block of the group
/// that has not stopped, [`lockstep_group_len`] blocks at a time.
fn siso_pass(llrs: &[TurboLlrs], ws: &mut [TurboWorkspace], second: bool) {
    let mut remaining = ws.iter().filter(|w| !w.stopped).count();
    let mut blocks = ws
        .iter_mut()
        .zip(llrs)
        .filter(|(w, _)| !w.stopped)
        .map(|(w, l)| w.siso_view(l, second));
    let mut next = || blocks.next().expect("counted above");
    while remaining > 0 {
        let group = lockstep_group_len(remaining);
        match group {
            1 => siso_maxlog([next()]),
            2 => siso_maxlog([next(), next()]),
            _ => siso_maxlog([next(), next(), next()]),
        }
        remaining -= group;
    }
}

/// One max-log-MAP (BCJR) pass over a terminated RSC trellis for each
/// of `G` equal-K blocks, writing into workspace buffers.
///
/// Inputs and outputs use the `ln P(0)/P(1)` convention; `sys`/`apriori`
/// refer to the information bit, `par` to the branch parity. The three
/// hot loops (forward, backward, extrinsic) are gather-form over the
/// 8-state rows — [`crate::simd`] runs the same operation DAG per row
/// and per step, the recursions with each row in one AVX2 register and
/// the extrinsic pass with one step per lane — while the three tail
/// steps stay scalar.
fn siso_maxlog<const G: usize>(mut blocks: [SisoBlock<'_>; G]) {
    for b in blocks.iter_mut() {
        let k = b.sys.len();
        debug_assert_eq!(b.par.len(), k);
        debug_assert_eq!(b.apriori.len(), k);
        debug_assert_eq!(b.extrinsic.len(), k);
        b.alpha.resize((k + TAIL + 1) * STATES, 0.0);
        b.alpha[..STATES].copy_from_slice(&[0.0, NEG, NEG, NEG, NEG, NEG, NEG, NEG]);
        b.beta.resize((k + 1) * STATES, 0.0);
        beta_tail(b.beta, b.tail, k);
    }
    // Both recursions over the information section: alpha rows 1..=k
    // forward, beta rows k-1..=0 backward. The walks are completely
    // independent (alpha reads only earlier alpha rows, beta only later
    // beta rows, and no block reads another's), so the vector kernel
    // advances all 2·G of them in one loop, each row's operation DAG
    // unchanged. The scalar reference keeps the two separate loops per
    // block; independence makes the results identical.
    if !crate::simd::turbo_alpha_beta(&mut blocks) {
        for b in blocks.iter_mut() {
            scalar_alpha(b.sys, b.par, b.apriori, b.alpha);
            scalar_beta(b.sys, b.par, b.apriori, b.beta);
        }
    }
    for b in blocks.iter_mut() {
        let k = b.sys.len();
        // The three forced-flush tail steps extend alpha past row k;
        // they only read row k, so they run after the recursions.
        alpha_tail(b.alpha, b.tail, k);
        // The vector pass takes eight steps at a time; the `k % 8`
        // steps after them (all of them on the scalar dispatch) run the
        // scalar reference on the same rows.
        let s =
            crate::simd::turbo_extrinsic8(b.sys, b.par, b.apriori, b.alpha, b.beta, b.extrinsic);
        scalar_extrinsic(
            &b.sys[s..],
            &b.par[s..],
            &b.apriori[s..],
            &b.alpha[s * STATES..],
            &b.beta[s * STATES..],
            &mut b.extrinsic[s..],
        );
    }
}

/// Scalar forward recursion over the information section, in gather form:
/// `alpha[i+1][t] = max over d3 of alpha[i][pred] + branch metric`, with
/// the max seeded at [`NEG`] and candidates taken in `d3 = 0, 1` order —
/// the exact DAG of the vector kernel.
pub(crate) fn scalar_alpha(sys: &[f32], par: &[f32], apriori: &[f32], alpha: &mut [f32]) {
    for i in 0..sys.len() {
        let hs = 0.5 * (sys[i] + apriori[i]);
        let hp = 0.5 * par[i];
        let (prev, rest) = alpha[i * STATES..].split_at_mut(STATES);
        let next = &mut rest[..STATES];
        for t in 0..STATES {
            let c0 = (prev[ALPHA_PRED[0][t]] + signed(hs, ALPHA_INPUT[0][t]))
                + signed(hp, ALPHA_PARITY[0][t]);
            let c1 = (prev[ALPHA_PRED[1][t]] + signed(hs, ALPHA_INPUT[1][t]))
                + signed(hp, ALPHA_PARITY[1][t]);
            let mut best = NEG;
            if c0 > best {
                best = c0;
            }
            if c1 > best {
                best = c1;
            }
            next[t] = best;
        }
    }
}

/// The three forced-flush tail steps of the forward recursion (scalar on
/// both dispatch paths; 24 branches total, not worth a vector twin).
fn alpha_tail(alpha: &mut [f32], tail: &[(f32, f32); TAIL], k: usize) {
    for (j, &(ls, lp)) in tail.iter().enumerate() {
        let hs = 0.5 * ls;
        let hp = 0.5 * lp;
        let (prev, rest) = alpha[(k + j) * STATES..].split_at_mut(STATES);
        let next = &mut rest[..STATES];
        next.fill(NEG);
        for (s, &a) in prev.iter().enumerate() {
            if a <= NEG {
                continue;
            }
            let d1 = (s >> 2) & 1;
            let d2 = (s >> 1) & 1;
            let d3 = s & 1;
            // Forced flush input cancels the feedback (a = 0).
            let u = (d2 ^ d3) as u8;
            let parity = (u as usize ^ d1 ^ d2) as u8;
            let nxt = (d1 << 1) | d2;
            let m = (a + signed(hs, u)) + signed(hp, parity);
            if m > next[nxt] {
                next[nxt] = m;
            }
        }
    }
}

/// Seeds `beta[k]` by walking the three forced-flush tail steps backward
/// from the terminated zero state (scalar on both dispatch paths).
fn beta_tail(beta: &mut [f32], tail: &[(f32, f32); TAIL], k: usize) {
    let mut next = [NEG; STATES];
    next[0] = 0.0; // terminated trellis
    for &(ls, lp) in tail.iter().rev() {
        let hs = 0.5 * ls;
        let hp = 0.5 * lp;
        let mut row = [NEG; STATES];
        for (s, r) in row.iter_mut().enumerate() {
            let d1 = (s >> 2) & 1;
            let d2 = (s >> 1) & 1;
            let d3 = s & 1;
            let u = (d2 ^ d3) as u8;
            let parity = (u as usize ^ d1 ^ d2) as u8;
            let nxt = (d1 << 1) | d2;
            let b = next[nxt];
            if b <= NEG {
                continue;
            }
            let m = (b + signed(hs, u)) + signed(hp, parity);
            if m > *r {
                *r = m;
            }
        }
        next = row;
    }
    beta[k * STATES..(k + 1) * STATES].copy_from_slice(&next);
}

/// Scalar backward recursion over the information section, in gather
/// form: `beta[i][s] = max over u of beta[i+1][next] + branch metric`,
/// candidates in `u = 0, 1` order — the exact DAG of the vector kernel.
pub(crate) fn scalar_beta(sys: &[f32], par: &[f32], apriori: &[f32], beta: &mut [f32]) {
    for i in (0..sys.len()).rev() {
        let hs = 0.5 * (sys[i] + apriori[i]);
        let hp = 0.5 * par[i];
        let (row, rest) = beta[i * STATES..].split_at_mut(STATES);
        let next = &rest[..STATES];
        for s in 0..STATES {
            let c0 = (next[NEXT_STATE[0][s]] + hs) + signed(hp, BRANCH_PARITY[0][s]);
            let c1 = (next[NEXT_STATE[1][s]] + (-hs)) + signed(hp, BRANCH_PARITY[1][s]);
            let mut best = NEG;
            if c0 > best {
                best = c0;
            }
            if c1 > best {
                best = c1;
            }
            row[s] = best;
        }
    }
}

/// Scalar LLR extraction: per step, the 8 branch metrics for `u = 0` and
/// `u = 1` are formed in gather form and reduced by [`finish_llr`].
pub(crate) fn scalar_extrinsic(
    sys: &[f32],
    par: &[f32],
    apriori: &[f32],
    alpha: &[f32],
    beta: &[f32],
    extrinsic: &mut [f32],
) {
    let mut m0 = [0f32; STATES];
    let mut m1 = [0f32; STATES];
    for i in 0..sys.len() {
        let hp = 0.5 * par[i];
        let a = &alpha[i * STATES..(i + 1) * STATES];
        let b = &beta[(i + 1) * STATES..(i + 2) * STATES];
        for s in 0..STATES {
            m0[s] = (a[s] + b[NEXT_STATE[0][s]]) + signed(hp, BRANCH_PARITY[0][s]);
            m1[s] = (a[s] + b[NEXT_STATE[1][s]]) + signed(hp, BRANCH_PARITY[1][s]);
        }
        extrinsic[i] = finish_llr(&m0, &m1, sys[i] + apriori[i]);
    }
}

/// `if cand > acc { cand } else { acc }` — the one max primitive both
/// dispatch paths reduce with. Candidate-first `MAXPS` has exactly these
/// semantics (ties, signed zeros, and NaNs all resolve to the
/// accumulator), so the vector tree in [`crate::simd`] matches this
/// scalar fold bit-for-bit.
#[inline(always)]
pub(crate) fn pick(acc: f32, cand: f32) -> f32 {
    if cand > acc {
        cand
    } else {
        acc
    }
}

/// Balanced-tree max over the 8 branch metrics, seeded at [`NEG`]:
/// adjacent lane pairs, then quads, then halves — the order an in-register
/// shuffle/max ladder reduces in, so the vector kernel never has to spill
/// its metric rows to memory to match the scalar reduction.
#[inline(always)]
pub(crate) fn reduce_states(m: &[f32; STATES]) -> f32 {
    let x01 = pick(m[0], m[1]);
    let x23 = pick(m[2], m[3]);
    let x45 = pick(m[4], m[5]);
    let x67 = pick(m[6], m[7]);
    let lo = pick(x01, x23);
    let hi = pick(x45, x67);
    pick(NEG, pick(lo, hi))
}

/// Tree max reduction plus APP assembly; the vector kernel runs the
/// identical tree in-register (see [`reduce_states`]), so the reduction
/// order is the same on both dispatch paths by construction.
pub(crate) fn finish_llr(m0: &[f32; STATES], m1: &[f32; STATES], ls: f32) -> f32 {
    let best0 = reduce_states(m0);
    let best1 = reduce_states(m1);
    // Total APP for bit i is (best0 + ls/2) − (best1 − ls/2);
    // the extrinsic removes systematic and a-priori contributions.
    let app = (best0 + 0.5 * ls) - (best1 - 0.5 * ls);
    app - ls
}

/// Supported 3GPP table sizes (sorted).
pub fn tabulated_block_sizes() -> Vec<usize> {
    QPP_TABLE.iter().map(|&(k, _, _)| k).collect()
}

/// All supported block sizes: the 3GPP table plus the derived dense
/// ladder of multiples of 64 up to 6144 (sorted, deduplicated). The
/// denser ladder keeps segmentation's padding overhead small, mirroring
/// the full 188-entry standard table's granularity.
pub fn supported_block_sizes() -> Vec<usize> {
    supported_block_sizes_cached().to_vec()
}

/// [`supported_block_sizes`] as a borrowed static table — the form the
/// receiver's steady-state segmentation lookups use, since it never
/// touches the heap after the first call.
pub fn supported_block_sizes_cached() -> &'static [usize] {
    static SIZES: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    SIZES.get_or_init(|| {
        let mut sizes = tabulated_block_sizes();
        sizes.extend((1024..=6144).step_by(64));
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    })
}

/// The nearest supported block size `>= k` (or the maximum, 6144).
pub fn nearest_block_size(k: usize) -> usize {
    supported_block_sizes_cached()
        .iter()
        .copied()
        .find(|&s| s >= k)
        .unwrap_or(6144)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_bits(k: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..k).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    #[test]
    fn qpp_table_entries_are_permutations() {
        for &(k, f1, f2) in QPP_TABLE {
            assert!(
                QppInterleaver::try_build(k, f1, f2).is_some(),
                "({k}, {f1}, {f2}) is not a permutation"
            );
        }
    }

    #[test]
    fn qpp_fallback_search_works() {
        // 100 is not in the table.
        let q = QppInterleaver::new(100);
        assert_eq!(q.len(), 100);
        let data: Vec<u32> = (0..100).collect();
        assert_eq!(q.invert(&q.apply(&data)), data);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // states index parallel tables
    fn trellis_is_well_formed() {
        let t = trellis();
        // Every state must be reachable and each input leads to a distinct
        // next state (invertibility of the shift register).
        for s in 0..STATES {
            assert_ne!(t[s][0].next, t[s][1].next, "state {s}");
        }
        // Each state has exactly two predecessors.
        let mut preds = [0; STATES];
        for s in 0..STATES {
            for u in 0..2 {
                preds[t[s][u].next as usize] += 1;
            }
        }
        assert!(preds.iter().all(|&p| p == 2), "{preds:?}");
    }

    #[test]
    fn encoder_terminates_both_trellises() {
        let bits = random_bits(64, 9);
        let (_, tail) = rsc_encode(&bits);
        // rsc_encode has a debug_assert; also check tails are 3 pairs.
        assert_eq!(tail.len(), TAIL);
    }

    #[test]
    fn codeword_rate_is_one_third_plus_tails() {
        let enc = TurboEncoder::new(40);
        let code = enc.encode(&random_bits(40, 1));
        assert_eq!(code.len_bits(), 3 * 40 + 12);
    }

    #[test]
    fn decode_noiseless_round_trip() {
        for k in [40, 64, 104, 256] {
            let bits = random_bits(k, k as u64);
            let enc = TurboEncoder::new(k);
            let dec = TurboDecoder::new(k, 4);
            let out = dec.decode(&enc.encode(&bits).to_llrs(6.0));
            assert_eq!(out, bits, "k={k}");
        }
    }

    #[test]
    fn decode_corrects_channel_noise() {
        // BPSK over AWGN at ~1.5 dB Eb/N0 (rate 1/3) — the turbo decoder
        // should recover the block where an uncoded decision would fail.
        let k = 256;
        let bits = random_bits(k, 77);
        let enc = TurboEncoder::new(k);
        let code = enc.encode(&bits);
        let mut rng = Xoshiro256::seed_from_u64(123);
        let sigma = 0.8f32; // noise std dev per real dimension
        let mut noisy = |b: u8| {
            let tx = if b == 0 { 1.0f32 } else { -1.0 };
            let y = tx + sigma * rng.next_gaussian() as f32;
            2.0 * y / (sigma * sigma)
        };
        let llrs = TurboLlrs {
            systematic: code.systematic.iter().map(|&b| noisy(b)).collect(),
            parity1: code.parity1.iter().map(|&b| noisy(b)).collect(),
            parity2: code.parity2.iter().map(|&b| noisy(b)).collect(),
            tail1: code.tail1.map(|(x, p)| (noisy(x), noisy(p))),
            tail2: code.tail2.map(|(x, p)| (noisy(x), noisy(p))),
        };
        // Check the channel actually flipped some hard decisions.
        let hard_errors = llrs
            .systematic
            .iter()
            .zip(&bits)
            .filter(|(&l, &b)| (l < 0.0) != (b == 1))
            .count();
        assert!(hard_errors > 0, "test should start from a noisy channel");
        let dec = TurboDecoder::new(k, 8);
        assert_eq!(dec.decode(&llrs), bits);
    }

    #[test]
    fn soft_output_magnitude_grows_with_iterations() {
        let k = 64;
        let bits = random_bits(k, 5);
        let code = TurboEncoder::new(k).encode(&bits);
        let llrs = code.to_llrs(2.0);
        let soft1 = TurboDecoder::new(k, 1).decode_soft(&llrs);
        let soft4 = TurboDecoder::new(k, 4).decode_soft(&llrs);
        let mag1: f32 = soft1.iter().map(|l| l.abs()).sum();
        let mag4: f32 = soft4.iter().map(|l| l.abs()).sum();
        assert!(mag4 > mag1, "confidence should grow: {mag1} vs {mag4}");
    }

    #[test]
    fn nearest_block_size_rounds_up() {
        assert_eq!(nearest_block_size(40), 40);
        assert_eq!(nearest_block_size(41), 48);
        assert_eq!(nearest_block_size(2049), 2112); // dense ladder
        assert_eq!(nearest_block_size(7000), 6144);
    }

    #[test]
    fn derived_ladder_sizes_all_work() {
        for k in (1024..=6144).step_by(64) {
            let q = QppInterleaver::new(k);
            assert_eq!(q.len(), k);
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn wrong_input_length_panics() {
        TurboEncoder::new(40).encode(&[0; 39]);
    }

    #[test]
    fn gather_tables_match_trellis() {
        let t = trellis();
        for s in 0..STATES {
            for u in 0..2usize {
                assert_eq!(
                    t[s][u].next as usize, NEXT_STATE[u][s],
                    "next state ({s}, {u})"
                );
                assert_eq!(t[s][u].parity, BRANCH_PARITY[u][s], "parity ({s}, {u})");
            }
        }
        for d3 in 0..2usize {
            for nxt in 0..STATES {
                let pred = ALPHA_PRED[d3][nxt];
                assert_eq!(pred & 1, d3, "predecessor parity ({d3}, {nxt})");
                let u = ALPHA_INPUT[d3][nxt] as usize;
                assert_eq!(t[pred][u].next as usize, nxt, "pred edge ({d3}, {nxt})");
                assert_eq!(
                    t[pred][u].parity, ALPHA_PARITY[d3][nxt],
                    "pred parity ({d3}, {nxt})"
                );
            }
        }
    }

    fn noisy_llrs(k: usize, sigma: f32, seed: u64) -> (Vec<u8>, TurboLlrs) {
        let bits = random_bits(k, seed);
        let code = TurboEncoder::new(k).encode(&bits);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD00D);
        let mut noisy = |b: u8| {
            let tx = if b == 0 { 1.0f32 } else { -1.0 };
            let y = tx + sigma * rng.next_gaussian() as f32;
            2.0 * y / (sigma * sigma)
        };
        let llrs = TurboLlrs {
            systematic: code.systematic.iter().map(|&b| noisy(b)).collect(),
            parity1: code.parity1.iter().map(|&b| noisy(b)).collect(),
            parity2: code.parity2.iter().map(|&b| noisy(b)).collect(),
            tail1: code.tail1.map(|(x, p)| (noisy(x), noisy(p))),
            tail2: code.tail2.map(|(x, p)| (noisy(x), noisy(p))),
        };
        (bits, llrs)
    }

    #[test]
    fn decode_into_matches_decode_across_workspace_reuse() {
        // One workspace serves mixed block sizes; results must not depend
        // on what the buffers previously held.
        let mut ws = TurboWorkspace::new();
        let mut hard = Vec::new();
        let mut soft = Vec::new();
        for (k, sigma) in [(104, 0.6), (40, 0.9), (512, 0.7), (48, 0.5)] {
            let (_, llrs) = noisy_llrs(k, sigma, k as u64);
            let dec = TurboDecoder::new(k, 3);
            dec.decode_into(&llrs, &mut ws, &mut hard);
            assert_eq!(hard, dec.decode(&llrs), "hard k={k}");
            dec.decode_soft_into(&llrs, &mut ws, &mut soft);
            let fresh = dec.decode_soft(&llrs);
            assert_eq!(soft.len(), fresh.len());
            for (a, b) in soft.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "soft k={k}");
            }
        }
    }

    #[test]
    fn simd_and_scalar_decodes_are_bit_identical() {
        for (k, sigma) in [(40, 0.4), (104, 0.8), (256, 1.0), (1088, 0.7)] {
            let (_, llrs) = noisy_llrs(k, sigma, 0x51D ^ k as u64);
            let dec = TurboDecoder::new(k, 4);
            crate::simd::force_scalar(false);
            let simd = dec.decode_soft(&llrs);
            crate::simd::force_scalar(true);
            let scalar = dec.decode_soft(&llrs);
            crate::simd::force_scalar(false);
            for (i, (a, b)) in simd.iter().zip(&scalar).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k} bit {i}: {a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn lockstep_groups_are_pairs_with_one_three_for_odd_counts() {
        for n in 1..=12 {
            let mut groups = Vec::new();
            let mut left = n;
            while left > 0 {
                let g = lockstep_group_len(left);
                groups.push(g);
                left -= g;
            }
            let threes = usize::from(n % 2 == 1 && n > 1);
            assert_eq!(groups.iter().sum::<usize>(), n, "{groups:?}");
            assert_eq!(
                groups.iter().filter(|&&g| g == 3).count(),
                threes,
                "{groups:?}"
            );
            assert_eq!(groups.contains(&1), n == 1, "{groups:?}");
            assert_eq!(groups.last(), Some(&if threes == 1 { 3 } else { n.min(2) }));
        }
    }

    fn assert_soft_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: LLR {i}: {x:e} vs {y:e}");
        }
    }

    /// A stop rule that fires for block `b` at its `stop_at[b]`-th SISO
    /// pass (`0`: never), counting the passes in `calls`.
    fn stop_at_pass<'a>(
        stop_at: &'a [usize],
        calls: &'a mut [usize],
    ) -> impl FnMut(usize, &[f32]) -> bool + 'a {
        move |b, _| {
            calls[b] += 1;
            calls[b] == stop_at[b]
        }
    }

    #[test]
    fn a_stop_rule_that_never_fires_runs_every_pass_of_decode_group() {
        let mut ws = vec![TurboWorkspace::new(); 3];
        for k in [40, 100, 1088] {
            let llrs: Vec<TurboLlrs> = (0..3u64).map(|b| noisy_llrs(k, 0.8, b).1).collect();
            let dec = TurboDecoder::new(k, 4);
            dec.decode_group(&llrs, &mut ws);
            let want: Vec<Vec<f32>> = ws.iter().map(|w| w.app().to_vec()).collect();
            let mut calls = [0; 3];
            dec.decode_group_until(&llrs, &mut ws, stop_at_pass(&[0; 3], &mut calls));
            assert_eq!(calls, [8; 3], "k={k}: one check per SISO pass");
            for (w, want) in ws.iter().zip(&want) {
                assert_soft_eq(w.app(), want, &format!("k={k}"));
            }
        }
    }

    #[test]
    fn stopping_after_pass_1_is_decoder_1s_app() {
        // With zero a-priori input the first pass's APP is the channel
        // systematic LLR plus decoder 1's extrinsic output.
        let mut ws = [TurboWorkspace::new()];
        let mut probe = TurboWorkspace::new();
        for k in [40, 104, 1088] {
            let (_, llrs) = noisy_llrs(k, 0.9, 5 ^ k as u64);
            let mut calls = [0];
            TurboDecoder::new(k, 4).decode_group_until(
                std::slice::from_ref(&llrs),
                &mut ws,
                stop_at_pass(&[1], &mut calls),
            );
            let (_, _, extrinsic1) = siso_probe(&llrs, &mut probe);
            let want: Vec<f32> = llrs
                .systematic
                .iter()
                .zip(extrinsic1)
                .map(|(&s, &e)| s + 0.0 + e)
                .collect();
            assert_soft_eq(ws[0].app(), &want, &format!("k={k}"));
        }
    }

    #[test]
    fn stopping_after_iteration_n_is_the_n_iteration_decode() {
        let mut ws = [TurboWorkspace::new()];
        for k in [40, 104, 1088] {
            let (_, llrs) = noisy_llrs(k, 0.9, 7 ^ k as u64);
            let cap = TurboDecoder::new(k, 6);
            for n in 1..=4 {
                let mut calls = [0];
                cap.decode_group_until(
                    std::slice::from_ref(&llrs),
                    &mut ws,
                    stop_at_pass(&[2 * n], &mut calls),
                );
                assert_eq!(calls, [2 * n], "k={k} n={n}: no check after the stop");
                let want = TurboDecoder::new(k, n).decode_soft(&llrs);
                assert_soft_eq(ws[0].app(), &want, &format!("k={k} n={n}"));
            }
        }
    }

    #[test]
    fn group_decodes_match_one_block_decodes() {
        // The blocks of one group stop at different passes (after pass
        // 1, mid-iteration, after a full iteration, never), so each pass
        // runs a different subset of the group. 100 is not a multiple of
        // 8: its last four steps take the scalar tail.
        const STOP_AT: [usize; 5] = [3, 0, 1, 6, 4];
        let mut ws = vec![TurboWorkspace::new(); 5];
        let mut alone = [TurboWorkspace::new()];
        for k in [40, 100, 1088] {
            let llrs: Vec<TurboLlrs> = (0..5u64)
                .map(|b| {
                    if b % 2 == 0 {
                        TurboEncoder::new(k).encode(&random_bits(k, b)).to_llrs(8.0)
                    } else {
                        noisy_llrs(k, 0.8, b).1
                    }
                })
                .collect();
            let dec = TurboDecoder::new(k, 4);
            for group in 1..=5 {
                let stop_at = &STOP_AT[..group];
                let mut calls = [0; 5];
                dec.decode_group_until(&llrs[..group], &mut ws, stop_at_pass(stop_at, &mut calls));
                for (b, (l, w)) in llrs.iter().zip(&ws[..group]).enumerate() {
                    let mut calls = [0];
                    dec.decode_group_until(
                        std::slice::from_ref(l),
                        &mut alone,
                        stop_at_pass(&stop_at[b..=b], &mut calls),
                    );
                    assert_soft_eq(
                        w.app(),
                        alone[0].app(),
                        &format!("k={k} group={group} block {b}"),
                    );
                }
            }
        }
    }

    #[test]
    fn siso_probe_is_dispatch_invariant() {
        let (_, llrs) = noisy_llrs(104, 0.7, 3);
        let mut ws = TurboWorkspace::new();
        crate::simd::force_scalar(false);
        let (a, b, e) = siso_probe(&llrs, &mut ws);
        let (a, b, e) = (a.to_vec(), b.to_vec(), e.to_vec());
        let mut ws2 = TurboWorkspace::new();
        crate::simd::force_scalar(true);
        let (a2, b2, e2) = siso_probe(&llrs, &mut ws2);
        crate::simd::force_scalar(false);
        for (x, y) in a
            .iter()
            .zip(a2)
            .chain(b.iter().zip(b2))
            .chain(e.iter().zip(e2))
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

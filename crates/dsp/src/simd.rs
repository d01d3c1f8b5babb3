//! Runtime-dispatched SIMD kernels for the per-symbol hot loops.
//!
//! Every kernel here is a *bit-exact* vectorization of its scalar
//! counterpart: the SIMD code performs the same per-element operation DAG
//! (the same multiplies, adds and fused multiply-adds, in the same order)
//! and only parallelises across independent elements, so for finite
//! inputs the vector and scalar paths produce byte-identical output. (The
//! pass-through decision kernel outputs bits, not floats: it reaches the
//! scalar loop's bits through an equivalent predicate, derived at the
//! kernel.) The
//! conformance suite (`lte-sim vectors --check`) and the differential
//! fuzz targets enforce that contract on every build.
//!
//! # Dispatch rule
//!
//! A kernel takes the vector path iff all of:
//!
//! 1. the target is x86-64 and the CPU reports AVX2 + FMA at runtime
//!    (`is_x86_feature_detected!`), and
//! 2. scalar mode has not been forced — via [`force_scalar`] or by
//!    setting the `LTE_SIM_SIMD` environment variable to `scalar`
//!    (or `off`/`0`), and
//! 3. the block is long enough for at least one full vector.
//!
//! Everything else — non-x86 builds, older CPUs, short tails — runs the
//! scalar code, which is the reference implementation in all cases.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::complex::Complex32;
use crate::modulation::Modulation;
use crate::scrambling::GoldSequence;
use crate::turbo::SisoBlock;
#[cfg(target_arch = "x86_64")]
use crate::turbo::STATES;

const UNDECIDED: u8 = 0;
const SCALAR: u8 = 1;
const VECTOR: u8 = 2;

static DISPATCH: AtomicU8 = AtomicU8::new(UNDECIDED);

/// `true` when this build + CPU can run the vector kernels at all
/// (x86-64 with AVX2 and FMA), independent of any forced override.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn decide() -> u8 {
    let forced_off = std::env::var("LTE_SIM_SIMD")
        .map(|v| matches!(v.as_str(), "scalar" | "off" | "0"))
        .unwrap_or(false);
    let mode = if !forced_off && simd_available() {
        VECTOR
    } else {
        SCALAR
    };
    DISPATCH.store(mode, Ordering::Relaxed);
    mode
}

/// `true` when kernels will take the vector path.
#[inline]
pub fn simd_enabled() -> bool {
    let mode = DISPATCH.load(Ordering::Relaxed);
    let mode = if mode == UNDECIDED { decide() } else { mode };
    mode == VECTOR
}

/// Forces (or releases) scalar dispatch process-wide. Used by
/// `lte-sim vectors --check --scalar` and the differential tests to pin
/// both paths in one process. Because the two paths are bit-identical,
/// flipping this concurrently with running kernels changes nothing
/// observable.
pub fn force_scalar(on: bool) {
    let mode = if on || !simd_available() {
        SCALAR
    } else {
        VECTOR
    };
    DISPATCH.store(mode, Ordering::Relaxed);
}

/// A short label for reports: which path kernels currently take.
pub fn dispatch_label() -> &'static str {
    if simd_enabled() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

/// `acc[i] = acc[i] + w[i]·x[i]` for every element, with the exact
/// arithmetic of [`Complex32::mul_add`] (`acc.mul_add(w, x)`) per
/// element — the MMSE per-symbol combining kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_add_assign(acc: &mut [Complex32], w: &[Complex32], x: &[Complex32]) {
    assert_eq!(acc.len(), w.len(), "weight length mismatch");
    assert_eq!(acc.len(), x.len(), "sample length mismatch");
    let mut start = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && acc.len() >= 4 {
        start = acc.len() & !3;
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`.
        unsafe { x86::cmul_add_assign(&mut acc[..start], &w[..start], &x[..start]) };
    }
    for i in start..acc.len() {
        acc[i] = acc[i].mul_add(w[i], x[i]);
    }
}

/// `out[i] = y[i]·w[i]` for every element, with the exact arithmetic of
/// [`Complex32::mul`] per element — the reference-sequence rotation
/// kernel (Zadoff-Chu cyclic shift).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_into(out: &mut [Complex32], y: &[Complex32], w: &[Complex32]) {
    assert_eq!(out.len(), y.len(), "sample length mismatch");
    assert_eq!(out.len(), w.len(), "rotation length mismatch");
    let mut start = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && out.len() >= 4 {
        start = out.len() & !3;
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`.
        unsafe { x86::cmul_into(&mut out[..start], &y[..start], &w[..start]) };
    }
    for i in start..out.len() {
        out[i] = y[i] * w[i];
    }
}

/// `out[i] = y[i]·x[i].conj()` for every element, with the exact
/// arithmetic of [`Complex32::mul`] per element — the channel-estimate
/// matched-filter kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_conj_into(out: &mut [Complex32], y: &[Complex32], x: &[Complex32]) {
    assert_eq!(out.len(), y.len(), "received length mismatch");
    assert_eq!(out.len(), x.len(), "reference length mismatch");
    let mut start = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && out.len() >= 4 {
        start = out.len() & !3;
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`.
        unsafe { x86::cmul_conj_into(&mut out[..start], &y[..start], &x[..start]) };
    }
    for i in start..out.len() {
        out[i] = y[i] * x[i].conj();
    }
}

/// In-place variant of [`cmul_conj_into`]: `y[i] = y[i]·x[i].conj()`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_conj_assign(y: &mut [Complex32], x: &[Complex32]) {
    assert_eq!(y.len(), x.len(), "reference length mismatch");
    let mut start = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && y.len() >= 4 {
        start = y.len() & !3;
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`.
        unsafe { x86::cmul_conj_assign(&mut y[..start], &x[..start]) };
    }
    for i in start..y.len() {
        y[i] *= x[i].conj();
    }
}

/// State-parallel forward (alpha) and backward (beta) recursions of the
/// max-log-MAP SISO over the information section of `G` equal-K blocks
/// in one loop: each 8-state trellis row is one AVX2 vector, and because
/// all `2·G` walks are independent the loop keeps that many dependency
/// chains in flight where one walk alone is latency-bound. First fills
/// each block's branch-metric arrays (`half_sys`, `half_par`) with the
/// scalar recursions' exact expressions, which the loop then broadcasts
/// from memory. Alpha row 0 and beta row `k` of every block must
/// already be seeded; alpha rows `1..=k` and beta rows `k-1..=0` are
/// written. Returns `false` when the caller should run the scalar
/// reference passes.
pub(crate) fn turbo_alpha_beta<const G: usize>(blocks: &mut [SisoBlock<'_>; G]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() {
            return false;
        }
        let k = blocks[0].sys.len();
        for b in blocks.iter_mut() {
            assert_eq!(b.sys.len(), k, "a lockstep group shares one block size");
            for ((h, &s), &a) in b.half_sys.iter_mut().zip(b.sys).zip(b.apriori) {
                *h = 0.5 * (s + a);
            }
            for (h, &p) in b.half_par.iter_mut().zip(b.par) {
                *h = 0.5 * p;
            }
            assert!(b.half_sys.len() == k && b.half_par.len() == k);
            assert!(b.alpha.len() > k * STATES && b.beta.len() > k * STATES);
        }
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`; every
        // block has `k` branch metrics and at least `k + 1` rows in each
        // plane (asserted above), which is all the kernel touches.
        unsafe { x86::turbo_alpha_beta(blocks, k) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = blocks;
        false
    }
}

/// Branch-metric/LLR extraction of the max-log-MAP SISO, eight trellis
/// steps per vector (see `x86::turbo_extrinsic8`). Returns how many
/// leading steps it wrote — `sys.len()` rounded down to a multiple of 8
/// on the vector path, 0 on the scalar dispatch — and leaves the rest to
/// the scalar reference.
pub(crate) fn turbo_extrinsic8(
    sys: &[f32],
    par: &[f32],
    apriori: &[f32],
    alpha: &[f32],
    beta: &[f32],
    extrinsic: &mut [f32],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() {
            return 0;
        }
        let steps = sys.len() & !7;
        assert!(par.len() >= steps && apriori.len() >= steps && extrinsic.len() >= steps);
        assert!(alpha.len() >= steps * STATES && beta.len() >= (steps + 1) * STATES);
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`; the
        // slices hold `steps` steps and `steps` alpha rows / `steps + 1`
        // beta rows (asserted above), which is all the kernel reads.
        unsafe {
            x86::turbo_extrinsic8(
                &sys[..steps],
                &par[..steps],
                &apriori[..steps],
                alpha,
                beta,
                &mut extrinsic[..steps],
            )
        };
        steps
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (sys, par, apriori, alpha, beta, extrinsic);
        0
    }
}

/// Max-log demap of a whole symbol block into `out`, which holds
/// exactly `symbols.len() · bits_per_symbol` LLRs. Returns `false`,
/// having written nothing, when the caller should run the scalar loop
/// instead (vector path unavailable or block too short).
///
/// # Panics
///
/// Panics if `noise_var <= 0` (matching the scalar demapper).
pub(crate) fn demap_block_maxlog(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() || symbols.len() < 8 {
            return false;
        }
        assert!(noise_var > 0.0, "noise variance must be positive");
        let bits = modulation.bits_per_symbol();
        let split = symbols.len() & !7;
        let (dst, tail) = out.split_at_mut(split * bits);
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`, and
        // `dst` holds `bits` LLRs for each of the `split` symbols.
        unsafe {
            match modulation {
                Modulation::Qpsk => {
                    x86::demap_qpsk(&symbols[..split], noise_var, dst);
                }
                Modulation::Qam16 => {
                    x86::demap_qam16(&symbols[..split], noise_var, dst);
                }
                Modulation::Qam64 => {
                    x86::demap_qam64(&symbols[..split], noise_var, dst);
                }
            }
        }
        // Scalar tail, with the reference demapper.
        for (&y, llrs) in symbols[split..].iter().zip(tail.chunks_exact_mut(bits)) {
            crate::llr::maxlog_llr_to(modulation, y, noise_var, llrs);
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (modulation, symbols, noise_var, out);
        false
    }
}

/// MMSE combiner weights `W = (ĤᴴĤ + σ²I)⁻¹Ĥᴴ` for the eight subcarriers
/// `sc..sc + 8`, one per vector lane: each lane runs the exact operation
/// sequence of `lte_phy`'s scalar per-subcarrier solve (Gram matrix,
/// Gauss–Jordan inverse with partial pivoting, weight product).
/// `paths[rx][layer]` is one estimated channel path; the weight of
/// (layer, rx) at subcarrier `s` goes to `wt[(layer·n_rx + rx)·n_sc + s]`
/// with `n_rx = paths.len()` and `n_sc = wt.len() / (L·n_rx)`.
///
/// Returns `false`, having written nothing, when the vector path is off,
/// when any lane's Gram matrix is numerically singular (a pivot power
/// below `1e-20`), or when any weight comes out non-finite: the caller
/// then solves the group with the scalar reference, which owns the
/// matched-filter fallback and every NaN bit pattern.
///
/// # Panics
///
/// On the vector path, panics unless `1 <= L <= 4`,
/// `1 <= paths.len() <= 8`, `wt` splits into `L·n_rx` equal lanes, and
/// every path and lane covers `sc..sc + 8`.
pub fn mmse_weights8<const L: usize>(
    paths: &[[&[Complex32]; L]],
    sc: usize,
    noise_var: f32,
    wt: &mut [Complex32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() {
            return false;
        }
        let n_rx = paths.len();
        assert!((1..=4).contains(&L), "1 to 4 layers");
        assert!((1..=8).contains(&n_rx), "1 to 8 antennas");
        assert!(
            wt.len().is_multiple_of(L * n_rx),
            "weight lanes of equal length"
        );
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`; the
        // kernel reaches paths and weights through bounds-checked slices.
        unsafe { x86::mmse_weights8::<L>(paths, sc, noise_var, wt) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (paths, sc, noise_var, wt);
        false
    }
}

/// Pass-through hard decisions, 64 LLRs per word: `words[w]` gets the
/// decisions of `chunks[w]` against the next 64 bits of `gold` (LLR `i`
/// in bit `i`) — bit `i` set unless the LLR with its sign flipped by
/// scrambling bit `i` is `>= 0.0`, the predicate of the scalar loop in
/// [`crate::passthrough`]. Returns `false`, having taken no scrambling
/// bit and written nothing, on the scalar dispatch.
///
/// # Panics
///
/// On the vector path, panics unless there is one word per chunk.
pub(crate) fn decide_flipped64(
    chunks: &[[f32; 64]],
    gold: &mut GoldSequence,
    words: &mut [u64],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() {
            return false;
        }
        assert_eq!(chunks.len(), words.len(), "one word per 64 LLRs");
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`; the
        // kernel reads each 64-LLR chunk through its array reference.
        unsafe { x86::decide_flipped64(chunks, gold, words) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (chunks, gold, words);
        false
    }
}

/// Phase A of the coded tail in 8 × 8 tiles: for rows `1..end` of the
/// padded sub-block matrix, `matrix[32·r + c]` gets `llrs[t]` with its
/// sign flipped by scrambling bit `t` (bit `t % 64` of `gold[t / 64]`),
/// `t = row0[c] + r − 1` — the scalar walk in
/// [`crate::interleave::DeinterleavedLlrs`]. Returns
/// `end = 1 + 8·⌊(rows − 1) / 8⌋`, or `1`, having written nothing, on
/// the scalar dispatch or when no whole tile fits.
///
/// # Panics
///
/// Panics on the vector path if a column's last row lies past `llrs`,
/// `gold` has no word after the last LLR's, or `matrix` is shorter than
/// `32·rows`.
pub(crate) fn flip_transpose_rows(
    llrs: &[f32],
    gold: &[u64],
    row0: &[usize; 32],
    rows: usize,
    matrix: &mut [f32],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && rows > 8 {
        let last_row0 = llrs.len().checked_sub(rows - 1);
        assert!(
            last_row0.is_some_and(|max| row0.iter().all(|&r| r <= max)),
            "column past the LLRs"
        );
        assert!(64 * gold.len() >= llrs.len() + 64, "scrambling words short");
        assert!(matrix.len() >= 32 * rows, "matrix short");
        let tiles = (rows - 1) / 8;
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`; the
        // asserts bound every read (row `r < rows` of column `c` is LLR
        // `row0[c] + r − 1`, its scrambling bits two words from
        // `gold[t / 64]`) and every write (row `r < rows` of `matrix`).
        unsafe { x86::flip_transpose_tiles(llrs, gold, row0, tiles, matrix) };
        return 1 + 8 * tiles;
    }
    let _ = (llrs, gold, row0, rows, matrix);
    1
}

/// Phase B of the coded tail in 8 × 8 tiles: for rows `1..end` of a
/// `rows`-row sub-block matrix with `dummy` leading dummies, adds lap
/// entry `m = row0[c] + r − 1` — `sys[m]` into `acc[0]`, `par[2m]` into
/// `acc[1]`, `par[2m + 1]` into `acc[2]` — at index `32·r + c − dummy`,
/// an absent entry (past the end of a partial lap) adding nothing, as
/// the scalar walk in [`crate::rate_match`] does. Returns `end = 1 +
/// 8·⌊(rows − 1) / 8⌋`, or `1`, having added nothing, on the scalar
/// dispatch or when no whole tile fits.
///
/// # Panics
///
/// Panics on the vector path unless `dummy < 32` and each accumulator
/// holds `32·rows − dummy` entries.
pub(crate) fn accumulate_transposed_rows(
    sys: &[f32],
    par: &[f32],
    row0: &[usize; 32],
    rows: usize,
    dummy: usize,
    acc: [&mut [f32]; 3],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && rows > 8 {
        assert!(dummy < 32, "at most 31 leading dummies");
        assert!(
            acc.iter().all(|a| a.len() == 32 * rows - dummy),
            "accumulator length"
        );
        let tiles = (rows - 1) / 8;
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`; lap
        // reads are bounds-checked per load, and the accumulator
        // writes, at `32·r + c − dummy` for `1 ≤ r < rows`, lie inside
        // the asserted length.
        unsafe { x86::accumulate_transposed_tiles(sys, par, row0, tiles, dummy, acc) };
        return 1 + 8 * tiles;
    }
    let _ = (sys, par, row0, rows, dummy, acc);
    1
}

/// The AVX2+FMA kernels. Every function is a line-by-line vector
/// transcription of the scalar reference it replaces; comments in each
/// note the scalar expression being reproduced.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use crate::complex::Complex32;
    use crate::modulation::Modulation;
    use crate::scrambling::GoldSequence;

    /// Sign mask that negates the *even* (real) lane of each complex pair.
    #[inline]
    unsafe fn even_sign() -> __m256 {
        unsafe { _mm256_setr_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0) }
    }

    /// Sign mask that negates the *odd* (imaginary) lane of each pair.
    #[inline]
    unsafe fn odd_sign() -> __m256 {
        unsafe { _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0) }
    }

    #[inline]
    pub(crate) unsafe fn load(p: *const Complex32) -> __m256 {
        unsafe { _mm256_loadu_ps(p.cast::<f32>()) }
    }

    #[inline]
    pub(crate) unsafe fn store(p: *mut Complex32, v: __m256) {
        unsafe { _mm256_storeu_ps(p.cast::<f32>(), v) }
    }

    /// Complex multiply `b·w` (four pairs), reproducing `Complex32::mul`:
    /// `re = b.re·w.re − b.im·w.im`, `im = b.re·w.im + b.im·w.re`
    /// (`addsub` computes `b.im·w.re + b.re·w.im`; f32 addition is
    /// commutative bit-for-bit on non-NaN values).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn cmul(b: __m256, w: __m256) -> __m256 {
        let w_re = _mm256_moveldup_ps(w);
        let w_im = _mm256_movehdup_ps(w);
        let b_swap = _mm256_permute_ps(b, 0xB1);
        _mm256_addsub_ps(_mm256_mul_ps(b, w_re), _mm256_mul_ps(b_swap, w_im))
    }

    /// `acc + a·b` with `b` varying per lane, reproducing
    /// `Complex32::mul_add`:
    /// `re = fma(a.re, b.re, fma(−a.im, b.im, acc.re))`,
    /// `im = fma(a.re, b.im, fma(a.im, b.re, acc.im))`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn cfma(acc: __m256, a: __m256, b: __m256) -> __m256 {
        unsafe {
            let a_re = _mm256_moveldup_ps(a);
            let a_im = _mm256_movehdup_ps(a);
            // (−a.im, a.im) so one fmadd covers both half-expressions.
            let a_im_alt = _mm256_xor_ps(a_im, even_sign());
            let b_swap = _mm256_permute_ps(b, 0xB1);
            let inner = _mm256_fmadd_ps(a_im_alt, b_swap, acc);
            _mm256_fmadd_ps(a_re, b, inner)
        }
    }

    /// `b` in all four complex lanes.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn broadcast(b: Complex32) -> __m256 {
        let packed = f64::from_bits((u64::from(b.im.to_bits()) << 32) | u64::from(b.re.to_bits()));
        _mm256_castpd_ps(_mm256_set1_pd(packed))
    }

    /// [`cfma`] with a broadcast complex constant `b`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn cfma_broadcast(acc: __m256, a: __m256, b: Complex32) -> __m256 {
        unsafe { cfma(acc, a, broadcast(b)) }
    }

    /// Rotate each pair by −90°: `(re, im) → (im, −re)` (`mul_neg_i`).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn mul_neg_i(z: __m256) -> __m256 {
        unsafe { _mm256_xor_ps(_mm256_permute_ps(z, 0xB1), odd_sign()) }
    }

    /// Rotate each pair by +90°: `(re, im) → (−im, re)` (`mul_i`).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn mul_i(z: __m256) -> __m256 {
        unsafe { _mm256_xor_ps(_mm256_permute_ps(z, 0xB1), even_sign()) }
    }

    /// The sign bits of 32 compare masks, lane order kept: two
    /// saturating packs narrow each all-ones/all-zeros lane to a byte, but
    /// per 128-bit half, so the dword permute restores lane order before
    /// one byte `movemask`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn movemask32(m: [__m256; 4]) -> u32 {
        let [a, b, c, d] = m.map(|v| _mm256_castps_si256(v));
        let bytes = _mm256_packs_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        _mm256_movemask_epi8(_mm256_permutevar8x32_epi32(bytes, order)) as u32
    }

    /// Thirty-two LLRs per pair of mask words. A flipped sign is exact
    /// negation, and negation inverts the decision of every ordered
    /// nonzero LLR while ±0 decide `0` and NaN `1` either way, so with
    /// `d` the decisions of the LLRs as they are (`_CMP_NGE_UQ`: not
    /// `>= 0.0`, true for NaN, false for −0) and `nz` their ordered
    /// nonzero lanes (`_CMP_NEQ_OQ`), the decisions after descrambling
    /// are `d ^ (nz & c)`. The scrambling words are generated in the
    /// same loop, so their register chain overlaps the compares.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and `chunks.len() ==
    /// words.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn decide_flipped64(
        chunks: &[[f32; 64]],
        gold: &mut GoldSequence,
        words: &mut [u64],
    ) {
        unsafe {
            let zero = _mm256_setzero_ps();
            for (chunk, word) in chunks.iter().zip(words.iter_mut()) {
                let c = gold.take64(64);
                let mut d = 0u64;
                let mut nz = 0u64;
                for half in 0..2 {
                    let llrs: [__m256; 4] = std::array::from_fn(|j| {
                        _mm256_loadu_ps(chunk.as_ptr().add(32 * half + 8 * j))
                    });
                    let not_ge = llrs.map(|l| _mm256_cmp_ps::<_CMP_NGE_UQ>(l, zero));
                    let nonzero = llrs.map(|l| _mm256_cmp_ps::<_CMP_NEQ_OQ>(l, zero));
                    d |= u64::from(movemask32(not_ge)) << (32 * half);
                    nz |= u64::from(movemask32(nonzero)) << (32 * half);
                }
                *word = d ^ (nz & c);
            }
        }
    }

    /// Transposes an 8 × 8 `f32` tile: lane `i` of output `j` is lane
    /// `j` of input `i`. Unpacks pair the inputs, shuffles gather four
    /// rows per 128-bit half, and the lane permutes join the halves.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// Phase A tiles: see [`super::flip_transpose_rows`]. Each column's
    /// eight rows are one load in transmission order; their eight
    /// scrambling bits, shifted so bit `i` lands in lane `i`'s sign, flip
    /// the signs by XOR ([`crate::scrambling::flip_sign`]); the transpose
    /// turns eight columns into eight row segments.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the bounds
    /// [`super::flip_transpose_rows`] asserts.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn flip_transpose_tiles(
        llrs: &[f32],
        gold: &[u64],
        row0: &[usize; 32],
        tiles: usize,
        matrix: &mut [f32],
    ) {
        let to_sign = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
        let sign = _mm256_set1_epi32(i32::MIN);
        let (src, dst) = (llrs.as_ptr(), matrix.as_mut_ptr());
        for tile in 0..tiles {
            let r0 = 1 + 8 * tile;
            for g in 0..4 {
                let columns: [__m256; 8] = std::array::from_fn(|i| {
                    let t = row0[8 * g + i] + r0 - 1;
                    let pair = u128::from(gold[t / 64]) | (u128::from(gold[t / 64 + 1]) << 64);
                    let bits = _mm256_set1_epi32((pair >> (t % 64)) as i32);
                    let flips = _mm256_and_si256(_mm256_sllv_epi32(bits, to_sign), sign);
                    // SAFETY: rows `r0..r0 + 8` of the column are in `llrs`.
                    let v = unsafe { _mm256_loadu_ps(src.add(t)) };
                    _mm256_xor_ps(v, _mm256_castsi256_ps(flips))
                });
                for (j, row) in transpose8(columns).into_iter().enumerate() {
                    // SAFETY: row `r0 + j < rows` of `matrix`.
                    unsafe { _mm256_storeu_ps(dst.add(32 * (r0 + j) + 8 * g), row) };
                }
            }
        }
    }

    /// Eight lap entries from `off`, zeros past the end of `lap`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn load8_or_zero(lap: &[f32], off: usize) -> __m256 {
        match lap.get(off..off + 8) {
            // SAFETY: the slice holds eight floats.
            Some(v) => unsafe { _mm256_loadu_ps(v.as_ptr()) },
            None => {
                let mut v = [0.0f32; 8];
                let rest = lap.get(off..).unwrap_or_default();
                v[..rest.len()].copy_from_slice(rest);
                // SAFETY: `v` holds eight floats.
                unsafe { _mm256_loadu_ps(v.as_ptr()) }
            }
        }
    }

    /// `acc[at..at + 8] += v`, lane by lane (`acc + v`, as the scalar
    /// walk adds).
    ///
    /// # Safety
    ///
    /// `at + 8` must not exceed the accumulator's length.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn add8(acc: *mut f32, at: usize, v: __m256) {
        unsafe {
            let p = acc.add(at);
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), v));
        }
    }

    /// Phase B tiles: see [`super::accumulate_transposed_rows`]. Stream
    /// 0 is one transpose per eight columns. The interlaced parity pair
    /// of eight rows is sixteen entries, two loads; shuffling their even
    /// and odd lanes apart leaves rows in the order `[0, 1, 4, 5, 2, 3,
    /// 6, 7]`, which the transposes keep, so each output row is added at
    /// its own row from that order. A zero-padded absent entry adds
    /// `+0.0`, which leaves every accumulator as it is: they start at
    /// `+0.0` and a sum is `−0.0` only when both addends are, so none is
    /// ever `−0.0`, and a NaN one is already quiet.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the accumulator
    /// lengths [`super::accumulate_transposed_rows`] asserts.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn accumulate_transposed_tiles(
        sys: &[f32],
        par: &[f32],
        row0: &[usize; 32],
        tiles: usize,
        dummy: usize,
        acc: [&mut [f32]; 3],
    ) {
        const PAIR_ROWS: [usize; 8] = [0, 1, 4, 5, 2, 3, 6, 7];
        let [s0, s1, s2] = acc.map(|a| a.as_mut_ptr());
        for tile in 0..tiles {
            let r0 = 1 + 8 * tile;
            for g in 0..4 {
                let at = |row: usize| 32 * row + 8 * g - dummy;
                let first = |i: usize| row0[8 * g + i] + r0 - 1;
                let columns: [__m256; 8] = std::array::from_fn(|i| load8_or_zero(sys, first(i)));
                for (j, row) in transpose8(columns).into_iter().enumerate() {
                    // SAFETY: row `r0 + j < rows`, inside the accumulator.
                    unsafe { add8(s0, at(r0 + j), row) };
                }
                if par.is_empty() {
                    continue;
                }
                let pairs: [(__m256, __m256); 8] = std::array::from_fn(|i| {
                    let a = load8_or_zero(par, 2 * first(i));
                    let b = load8_or_zero(par, 2 * first(i) + 8);
                    (
                        _mm256_shuffle_ps::<0x88>(a, b),
                        _mm256_shuffle_ps::<0xDD>(a, b),
                    )
                });
                let p1 = transpose8(pairs.map(|p| p.0));
                let p2 = transpose8(pairs.map(|p| p.1));
                for (j, &row) in PAIR_ROWS.iter().enumerate() {
                    // SAFETY: row `r0 + row < rows`, inside the accumulators.
                    unsafe {
                        add8(s1, at(r0 + row), p1[j]);
                        add8(s2, at(r0 + row), p2[j]);
                    }
                }
            }
        }
    }

    /// `acc[i] = acc[i].mul_add(w[i], x[i])` over length-multiple-of-4
    /// slices.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn cmul_add_assign(acc: &mut [Complex32], w: &[Complex32], x: &[Complex32]) {
        unsafe {
            let n = acc.len();
            let ap = acc.as_mut_ptr();
            let wp = w.as_ptr();
            let xp = x.as_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let a = load(ap.add(i));
                let wv = load(wp.add(i));
                let xv = load(xp.add(i));
                store(ap.add(i), cfma(a, wv, xv));
                i += 4;
            }
        }
    }

    /// `out[i] = y[i]·w[i]` over length-multiple-of-4 slices.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn cmul_into(out: &mut [Complex32], y: &[Complex32], w: &[Complex32]) {
        unsafe {
            let n = out.len();
            let op = out.as_mut_ptr();
            let yp = y.as_ptr();
            let wp = w.as_ptr();
            let mut i = 0;
            while i + 4 <= n {
                store(op.add(i), cmul(load(yp.add(i)), load(wp.add(i))));
                i += 4;
            }
        }
    }

    /// `out[i] = y[i]·x[i].conj()` over length-multiple-of-4 slices: the
    /// conjugate is a sign flip of the imaginary lanes, then the shared
    /// [`cmul`] DAG.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn cmul_conj_into(out: &mut [Complex32], y: &[Complex32], x: &[Complex32]) {
        unsafe {
            let n = out.len();
            let op = out.as_mut_ptr();
            let yp = y.as_ptr();
            let xp = x.as_ptr();
            let conj = odd_sign();
            let mut i = 0;
            while i + 4 <= n {
                let xc = _mm256_xor_ps(load(xp.add(i)), conj);
                store(op.add(i), cmul(load(yp.add(i)), xc));
                i += 4;
            }
        }
    }

    /// In-place [`cmul_conj_into`] over length-multiple-of-4 slices.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn cmul_conj_assign(y: &mut [Complex32], x: &[Complex32]) {
        unsafe {
            let n = y.len();
            let yp = y.as_mut_ptr();
            let xp = x.as_ptr();
            let conj = odd_sign();
            let mut i = 0;
            while i + 4 <= n {
                let xc = _mm256_xor_ps(load(xp.add(i)), conj);
                store(yp.add(i), cmul(load(yp.add(i)), xc));
                i += 4;
            }
        }
    }

    // ---- state-parallel turbo SISO kernels ----
    //
    // One 8-lane vector holds a whole trellis row (alpha[i][0..8] or
    // beta[i][0..8]); the recursions become two `permutevar` gathers,
    // sign-flipped branch-metric adds, and a max chain seeded at the NEG
    // sentinel — lane `t` computes exactly the scalar gather expression
    // for state `t`, so the paths are bit-identical by construction. The
    // extrinsic pass transposes eight rows instead, so lane `r` is trellis
    // step `r` and each register one state: lane `r` then computes the
    // scalar expression for step `r`.

    use crate::turbo::{
        SisoBlock, ALPHA_INPUT, ALPHA_PARITY, ALPHA_PRED, BRANCH_PARITY, NEG, NEXT_STATE, STATES,
    };

    /// Lane-gather indices for `_mm256_permutevar8x32_ps`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn perm_index(p: [usize; STATES]) -> __m256i {
        _mm256_setr_epi32(
            p[0] as i32,
            p[1] as i32,
            p[2] as i32,
            p[3] as i32,
            p[4] as i32,
            p[5] as i32,
            p[6] as i32,
            p[7] as i32,
        )
    }

    /// Per-lane sign mask: `-0.0` where the branch bit is 1 (XOR with the
    /// mask is the vector twin of the scalar `signed()` sign flip).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sign_mask(bits: [u8; STATES]) -> __m256 {
        let f = |b: u8| if b == 0 { 0.0f32 } else { -0.0 };
        _mm256_setr_ps(
            f(bits[0]),
            f(bits[1]),
            f(bits[2]),
            f(bits[3]),
            f(bits[4]),
            f(bits[5]),
            f(bits[6]),
            f(bits[7]),
        )
    }

    /// Vector twin of `turbo::scalar_alpha` + `turbo::scalar_beta` for a
    /// group of `G` equal-K blocks: every recursion of every block walks
    /// the information section in one loop (alpha forward from row 0,
    /// beta backward from row `k`). Each row's operation DAG is exactly
    /// the separate scalar pass's — no walk reads another's plane, and no
    /// block another block's — but advancing them together keeps `2·G`
    /// independent permute→add→max dependency chains in flight, which is
    /// what the latency-bound trellis recursion needs to fill the vector
    /// ports. Branch metrics come from the blocks' `half_sys`/`half_par`
    /// arrays by memory broadcast.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; every block must hold
    /// `k` entries in `half_sys` and `half_par` and at least `(k + 1) * 8`
    /// elements in `alpha` and `beta`, with alpha row 0 and beta row `k`
    /// seeded.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn turbo_alpha_beta<const G: usize>(
        blocks: &mut [SisoBlock<'_>; G],
        k: usize,
    ) {
        let mut hs = [std::ptr::null::<f32>(); G];
        let mut hp = [std::ptr::null::<f32>(); G];
        let mut ap = [std::ptr::null_mut::<f32>(); G];
        let mut bp = [std::ptr::null_mut::<f32>(); G];
        for (g, b) in blocks.iter_mut().enumerate() {
            debug_assert!(b.half_sys.len() == k && b.half_par.len() == k);
            debug_assert!(b.alpha.len() > k * STATES && b.beta.len() > k * STATES);
            hs[g] = b.half_sys.as_ptr();
            hp[g] = b.half_par.as_ptr();
            ap[g] = b.alpha.as_mut_ptr();
            bp[g] = b.beta.as_mut_ptr();
        }
        // SAFETY: the loop reads branch metrics 0..k and writes alpha
        // rows 1..=k and beta rows 0..k of each block, all inside the
        // lengths the caller guarantees (debug-asserted above); the
        // planes of different blocks are distinct allocations.
        unsafe {
            let p0 = perm_index(ALPHA_PRED[0]);
            let p1 = perm_index(ALPHA_PRED[1]);
            let u0 = sign_mask(ALPHA_INPUT[0]);
            let u1 = sign_mask(ALPHA_INPUT[1]);
            let aq0 = sign_mask(ALPHA_PARITY[0]);
            let aq1 = sign_mask(ALPHA_PARITY[1]);
            let n0 = perm_index(NEXT_STATE[0]);
            let n1 = perm_index(NEXT_STATE[1]);
            let bq0 = sign_mask(BRANCH_PARITY[0]);
            let bq1 = sign_mask(BRANCH_PARITY[1]);
            let neg_zero = _mm256_set1_ps(-0.0);
            let negv = _mm256_set1_ps(NEG);
            let mut prev = [negv; G];
            let mut next = [negv; G];
            for g in 0..G {
                prev[g] = _mm256_loadu_ps(ap[g]);
                next[g] = _mm256_loadu_ps(bp[g].add(k * STATES));
            }
            for i in 0..k {
                let j = k - 1 - i;
                for g in 0..G {
                    // Alpha step i: predecessors gathered by state,
                    // branch metric signs applied per lane.
                    let hs_i = _mm256_broadcast_ss(&*hs[g].add(i));
                    let hp_i = _mm256_broadcast_ss(&*hp[g].add(i));
                    let c0 = _mm256_add_ps(
                        _mm256_add_ps(
                            _mm256_permutevar8x32_ps(prev[g], p0),
                            _mm256_xor_ps(hs_i, u0),
                        ),
                        _mm256_xor_ps(hp_i, aq0),
                    );
                    let c1 = _mm256_add_ps(
                        _mm256_add_ps(
                            _mm256_permutevar8x32_ps(prev[g], p1),
                            _mm256_xor_ps(hs_i, u1),
                        ),
                        _mm256_xor_ps(hp_i, aq1),
                    );
                    // max(c1, max(c0, NEG)): candidate-first operand
                    // order so MAXPS tie/NaN semantics match the scalar
                    // `if c > best`.
                    prev[g] = _mm256_max_ps(c1, _mm256_max_ps(c0, negv));
                    _mm256_storeu_ps(ap[g].add((i + 1) * STATES), prev[g]);
                    // Beta step j: successors gathered by state; u = 0
                    // adds +hs on every lane, u = 1 adds −hs.
                    let hs_j = _mm256_broadcast_ss(&*hs[g].add(j));
                    let hp_j = _mm256_broadcast_ss(&*hp[g].add(j));
                    let d0 = _mm256_add_ps(
                        _mm256_add_ps(_mm256_permutevar8x32_ps(next[g], n0), hs_j),
                        _mm256_xor_ps(hp_j, bq0),
                    );
                    let d1 = _mm256_add_ps(
                        _mm256_add_ps(
                            _mm256_permutevar8x32_ps(next[g], n1),
                            _mm256_xor_ps(hs_j, neg_zero),
                        ),
                        _mm256_xor_ps(hp_j, bq1),
                    );
                    next[g] = _mm256_max_ps(d1, _mm256_max_ps(d0, negv));
                    _mm256_storeu_ps(bp[g].add(j * STATES), next[g]);
                }
            }
        }
    }

    /// `[row r | row r + 4]`, four states from state `4·h` of each: the
    /// two 128-bit halves one in-lane 4×4 transpose turns into lanes of
    /// four states across the eight rows.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `rows` must point at
    /// eight readable 8-state rows, `r < 4` and `h < 2`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_pair(rows: *const f32, r: usize, h: usize) -> __m256 {
        // SAFETY: the caller's eight rows at `rows` cover rows r and
        // r + 4 (r < 4), states 4h..4h + 4 (h < 2).
        unsafe {
            debug_assert!(r < 4 && h < 2);
            let lo = _mm_loadu_ps(rows.add(r * STATES + 4 * h));
            let hi = _mm_loadu_ps(rows.add((r + 4) * STATES + 4 * h));
            _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1)
        }
    }

    /// Transposes eight consecutive 8-state rows at `rows` into one
    /// vector per state whose lane `r` is row `r`'s metric: register
    /// `s` of the result is state `s` across the eight trellis steps.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `rows` must point at
    /// eight readable 8-state rows (64 floats).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn transpose_rows(rows: *const f32) -> [__m256; STATES] {
        let mut out = [_mm256_setzero_ps(); STATES];
        debug_assert!(rows.is_aligned());
        for h in 0..2 {
            // SAFETY: the caller guarantees eight readable rows at
            // `rows`; `row_pair` reads only inside them.
            unsafe {
                let r0 = row_pair(rows, 0, h);
                let r1 = row_pair(rows, 1, h);
                let r2 = row_pair(rows, 2, h);
                let r3 = row_pair(rows, 3, h);
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                out[4 * h] = _mm256_shuffle_ps(t0, t2, 0x44);
                out[4 * h + 1] = _mm256_shuffle_ps(t0, t2, 0xEE);
                out[4 * h + 2] = _mm256_shuffle_ps(t1, t3, 0x44);
                out[4 * h + 3] = _mm256_shuffle_ps(t1, t3, 0xEE);
            }
        }
        out
    }

    /// `turbo::reduce_states` on eight steps at once, one step per lane:
    /// the same balanced tree (adjacent pairs, quads, halves, then the
    /// NEG seed) as vertical candidate-first MAXPS, `max(cand, acc)` for
    /// every `pick(acc, cand)`, so each lane is the scalar reduction.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce_states8(m: &[__m256; STATES], negv: __m256) -> __m256 {
        let x01 = _mm256_max_ps(m[1], m[0]);
        let x23 = _mm256_max_ps(m[3], m[2]);
        let x45 = _mm256_max_ps(m[5], m[4]);
        let x67 = _mm256_max_ps(m[7], m[6]);
        let lo = _mm256_max_ps(x23, x01);
        let hi = _mm256_max_ps(x67, x45);
        _mm256_max_ps(_mm256_max_ps(hi, lo), negv)
    }

    /// Vector twin of `turbo::scalar_extrinsic` over `sys.len()` steps (a
    /// multiple of 8), eight steps per vector: alpha rows `i..i + 8` and
    /// beta rows `i + 1..i + 9` are transposed so each register holds
    /// one state across the eight steps. The successor gather then is
    /// register selection (`NEXT_STATE`), each branch metric is the
    /// scalar `(a + b) + ±hp` per lane, `reduce_states8` is the scalar
    /// tree per lane, and the APP assembly repeats `finish_llr`'s
    /// arithmetic lane-wise — every lane is one step's scalar DAG.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `sys.len()` must be a
    /// multiple of 8, `par`, `apriori` and `extrinsic` as long, `alpha`
    /// at least `sys.len() * 8` and `beta` at least `(sys.len() + 1) * 8`
    /// elements.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn turbo_extrinsic8(
        sys: &[f32],
        par: &[f32],
        apriori: &[f32],
        alpha: &[f32],
        beta: &[f32],
        extrinsic: &mut [f32],
    ) {
        let steps = sys.len();
        debug_assert!(steps.is_multiple_of(8));
        debug_assert!(par.len() == steps && apriori.len() == steps && extrinsic.len() == steps);
        debug_assert!(alpha.len() >= steps * STATES && beta.len() >= (steps + 1) * STATES);
        // SAFETY: step block i..i + 8 reads alpha rows i..i + 8, beta
        // rows i + 1..i + 9 and eight entries of each per-step slice,
        // all inside the lengths debug-asserted above.
        unsafe {
            let half = _mm256_set1_ps(0.5);
            let neg_zero = _mm256_set1_ps(-0.0);
            let negv = _mm256_set1_ps(NEG);
            let mut m0 = [negv; STATES];
            let mut m1 = [negv; STATES];
            for i in (0..steps).step_by(8) {
                let a = transpose_rows(alpha.as_ptr().add(i * STATES));
                let b = transpose_rows(beta.as_ptr().add((i + 1) * STATES));
                let hp = _mm256_mul_ps(half, _mm256_loadu_ps(par.as_ptr().add(i)));
                let signed_hp = [hp, _mm256_xor_ps(hp, neg_zero)];
                for s in 0..STATES {
                    m0[s] = _mm256_add_ps(
                        _mm256_add_ps(a[s], b[NEXT_STATE[0][s]]),
                        signed_hp[BRANCH_PARITY[0][s] as usize],
                    );
                    m1[s] = _mm256_add_ps(
                        _mm256_add_ps(a[s], b[NEXT_STATE[1][s]]),
                        signed_hp[BRANCH_PARITY[1][s] as usize],
                    );
                }
                let best0 = reduce_states8(&m0, negv);
                let best1 = reduce_states8(&m1, negv);
                let ls = _mm256_add_ps(
                    _mm256_loadu_ps(sys.as_ptr().add(i)),
                    _mm256_loadu_ps(apriori.as_ptr().add(i)),
                );
                let hs = _mm256_mul_ps(half, ls);
                let app = _mm256_sub_ps(_mm256_add_ps(best0, hs), _mm256_sub_ps(best1, hs));
                _mm256_storeu_ps(extrinsic.as_mut_ptr().add(i), _mm256_sub_ps(app, ls));
            }
        }
    }

    /// Deinterleaves 8 complex symbols (two vectors) into an (re×8, im×8)
    /// pair in symbol order.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn deinterleave8(v0: __m256, v1: __m256) -> (__m256, __m256) {
        let order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        let re = _mm256_permutevar8x32_ps(_mm256_shuffle_ps(v0, v1, 0x88), order);
        let im = _mm256_permutevar8x32_ps(_mm256_shuffle_ps(v0, v1, 0xDD), order);
        (re, im)
    }

    /// QPSK max-log demap: `out = a·y.re, a·y.im` per symbol with
    /// `a = 2·√2 / noise_var` — identical to the scalar expression, just
    /// eight floats per instruction (the LLR stream layout matches the
    /// interleaved complex layout exactly).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support. `symbols.len()` must be
    /// a multiple of 8 and `out.len() == 2·symbols.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn demap_qpsk(symbols: &[Complex32], noise_var: f32, out: &mut [f32]) {
        unsafe {
            debug_assert_eq!(out.len(), symbols.len() * 2);
            let a = 2.0 * std::f32::consts::SQRT_2 / noise_var;
            let av = _mm256_set1_ps(a);
            let sp = symbols.as_ptr();
            let op = out.as_mut_ptr();
            let mut i = 0;
            while i + 4 <= symbols.len() {
                let v = load(sp.add(i));
                _mm256_storeu_ps(op.add(2 * i), _mm256_mul_ps(av, v));
                i += 4;
            }
        }
    }

    /// One Gray-coded PAM axis of the 16-QAM max-log demap, vectorized
    /// across 8 symbols. Reproduces `axis_llr_2bit`'s level table and min
    /// chains exactly (sequential `min` in table order, seeded at +∞).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axis_llr_2bit_x8(x: __m256, d: f32, inv: __m256) -> (__m256, __m256) {
        // Levels in scalar table order: 00→d, 01→3d, 10→−d, 11→−3d.
        let dist = |level: f32| {
            let t = _mm256_sub_ps(x, _mm256_set1_ps(level));
            _mm256_mul_ps(t, t)
        };
        let d00 = dist(d);
        let d01 = dist(3.0 * d);
        let d10 = dist(-d);
        let d11 = dist(-3.0 * d);
        let inf = _mm256_set1_ps(f32::INFINITY);
        // k = 0 (mask 0b10): best0 over {00, 01}, best1 over {10, 11}.
        let b0 = _mm256_min_ps(_mm256_min_ps(inf, d00), d01);
        let b1 = _mm256_min_ps(_mm256_min_ps(inf, d10), d11);
        let l0 = _mm256_mul_ps(_mm256_sub_ps(b1, b0), inv);
        // k = 1 (mask 0b01): best0 over {00, 10}, best1 over {01, 11}.
        let b0 = _mm256_min_ps(_mm256_min_ps(inf, d00), d10);
        let b1 = _mm256_min_ps(_mm256_min_ps(inf, d01), d11);
        let l1 = _mm256_mul_ps(_mm256_sub_ps(b1, b0), inv);
        (l0, l1)
    }

    /// 16-QAM max-log demap over a multiple-of-8 block; output order per
    /// symbol is `[i0, q0, i1, q1]`, matching the scalar interleave swap.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support. `symbols.len()` must be
    /// a multiple of 8 and `out.len() == 4·symbols.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn demap_qam16(symbols: &[Complex32], noise_var: f32, out: &mut [f32]) {
        unsafe {
            debug_assert_eq!(out.len(), symbols.len() * 4);
            let d = Modulation::Qam16.norm();
            let inv = _mm256_set1_ps(1.0 / noise_var);
            let sp = symbols.as_ptr();
            let mut i = 0;
            while i + 8 <= symbols.len() {
                let (re, im) = deinterleave8(load(sp.add(i)), load(sp.add(i + 4)));
                let (i0, i1) = axis_llr_2bit_x8(re, d, inv);
                let (q0, q1) = axis_llr_2bit_x8(im, d, inv);
                let mut li0 = [0.0f32; 8];
                let mut li1 = [0.0f32; 8];
                let mut lq0 = [0.0f32; 8];
                let mut lq1 = [0.0f32; 8];
                _mm256_storeu_ps(li0.as_mut_ptr(), i0);
                _mm256_storeu_ps(li1.as_mut_ptr(), i1);
                _mm256_storeu_ps(lq0.as_mut_ptr(), q0);
                _mm256_storeu_ps(lq1.as_mut_ptr(), q1);
                for s in 0..8 {
                    let base = (i + s) * 4;
                    out[base] = li0[s];
                    out[base + 1] = lq0[s];
                    out[base + 2] = li1[s];
                    out[base + 3] = lq1[s];
                }
                i += 8;
            }
        }
    }

    /// One Gray-coded PAM axis of the 64-QAM max-log demap, vectorized
    /// across 8 symbols. Level table and min order match `axis_llr_3bit`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axis_llr_3bit_x8(x: __m256, d: f32, inv: __m256) -> (__m256, __m256, __m256) {
        // Scalar table order: 000→3d, 001→d, 010→5d, 011→7d,
        //                     100→−3d, 101→−d, 110→−5d, 111→−7d.
        let dist = |level: f32| {
            let t = _mm256_sub_ps(x, _mm256_set1_ps(level));
            _mm256_mul_ps(t, t)
        };
        let d000 = dist(3.0 * d);
        let d001 = dist(d);
        let d010 = dist(5.0 * d);
        let d011 = dist(7.0 * d);
        let d100 = dist(-3.0 * d);
        let d101 = dist(-d);
        let d110 = dist(-5.0 * d);
        let d111 = dist(-7.0 * d);
        let inf = _mm256_set1_ps(f32::INFINITY);
        let chain4 = |a, b, c, e| {
            _mm256_min_ps(_mm256_min_ps(_mm256_min_ps(_mm256_min_ps(inf, a), b), c), e)
        };
        // k = 0 (mask 0b100).
        let l0 = _mm256_mul_ps(
            _mm256_sub_ps(
                chain4(d100, d101, d110, d111),
                chain4(d000, d001, d010, d011),
            ),
            inv,
        );
        // k = 1 (mask 0b010).
        let l1 = _mm256_mul_ps(
            _mm256_sub_ps(
                chain4(d010, d011, d110, d111),
                chain4(d000, d001, d100, d101),
            ),
            inv,
        );
        // k = 2 (mask 0b001).
        let l2 = _mm256_mul_ps(
            _mm256_sub_ps(
                chain4(d001, d011, d101, d111),
                chain4(d000, d010, d100, d110),
            ),
            inv,
        );
        (l0, l1, l2)
    }

    /// 64-QAM max-log demap over a multiple-of-8 block; output order per
    /// symbol is `[i0, q0, i1, q1, i2, q2]`, matching the scalar reorder.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support. `symbols.len()` must be
    /// a multiple of 8 and `out.len() == 6·symbols.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn demap_qam64(symbols: &[Complex32], noise_var: f32, out: &mut [f32]) {
        unsafe {
            debug_assert_eq!(out.len(), symbols.len() * 6);
            let d = Modulation::Qam64.norm();
            let inv = _mm256_set1_ps(1.0 / noise_var);
            let sp = symbols.as_ptr();
            let mut i = 0;
            while i + 8 <= symbols.len() {
                let (re, im) = deinterleave8(load(sp.add(i)), load(sp.add(i + 4)));
                let (i0, i1, i2) = axis_llr_3bit_x8(re, d, inv);
                let (q0, q1, q2) = axis_llr_3bit_x8(im, d, inv);
                let mut lanes = [[0.0f32; 8]; 6];
                _mm256_storeu_ps(lanes[0].as_mut_ptr(), i0);
                _mm256_storeu_ps(lanes[1].as_mut_ptr(), q0);
                _mm256_storeu_ps(lanes[2].as_mut_ptr(), i1);
                _mm256_storeu_ps(lanes[3].as_mut_ptr(), q1);
                _mm256_storeu_ps(lanes[4].as_mut_ptr(), i2);
                _mm256_storeu_ps(lanes[5].as_mut_ptr(), q2);
                for s in 0..8 {
                    let base = (i + s) * 6;
                    for (b, lane) in lanes.iter().enumerate() {
                        out[base + b] = lane[s];
                    }
                }
                i += 8;
            }
        }
    }

    // ---- lane-batched MMSE solve ----
    //
    // Eight subcarriers of one complex matrix entry live in a `Lanes`
    // pair (re×8, im×8), lane `s` being subcarrier `sc + s`. Every lane
    // performs the scalar solve's IEEE operations in its order: a
    // `mul_add` is the same two FMAs per part, a complex product the same
    // unfused mul/mul/sub and mul/mul/add, a `== ZERO` skip a blend that
    // keeps the old value, and a pivot row swap a blend on the per-lane
    // pivot index chosen by the same strict `>` scan.

    /// One complex matrix entry for eight subcarriers.
    #[derive(Clone, Copy)]
    struct Lanes {
        re: __m256,
        im: __m256,
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_zero() -> Lanes {
        Lanes {
            re: _mm256_setzero_ps(),
            im: _mm256_setzero_ps(),
        }
    }

    /// `z.conj()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_conj(z: Lanes) -> Lanes {
        Lanes {
            re: z.re,
            im: _mm256_xor_ps(z.im, _mm256_set1_ps(-0.0)),
        }
    }

    /// `acc.mul_add(a, b)`: `re = fma(a.re, b.re, fma(−a.im, b.im,
    /// acc.re))`, `im = fma(a.re, b.im, fma(a.im, b.re, acc.im))`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_mul_add(acc: Lanes, a: Lanes, b: Lanes) -> Lanes {
        let neg_a_im = _mm256_xor_ps(a.im, _mm256_set1_ps(-0.0));
        Lanes {
            re: _mm256_fmadd_ps(a.re, b.re, _mm256_fmadd_ps(neg_a_im, b.im, acc.re)),
            im: _mm256_fmadd_ps(a.re, b.im, _mm256_fmadd_ps(a.im, b.re, acc.im)),
        }
    }

    /// `a * b`, unfused: `re = a.re·b.re − a.im·b.im`,
    /// `im = a.re·b.im + a.im·b.re`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_mul(a: Lanes, b: Lanes) -> Lanes {
        Lanes {
            re: _mm256_sub_ps(_mm256_mul_ps(a.re, b.re), _mm256_mul_ps(a.im, b.im)),
            im: _mm256_add_ps(_mm256_mul_ps(a.re, b.im), _mm256_mul_ps(a.im, b.re)),
        }
    }

    /// `a - b`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_sub(a: Lanes, b: Lanes) -> Lanes {
        Lanes {
            re: _mm256_sub_ps(a.re, b.re),
            im: _mm256_sub_ps(a.im, b.im),
        }
    }

    /// `z.norm_sqr()`: `re·re + im·im`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_norm_sqr(z: Lanes) -> __m256 {
        _mm256_add_ps(_mm256_mul_ps(z.re, z.re), _mm256_mul_ps(z.im, z.im))
    }

    /// `z.inv()`: `(re / d, −im / d)` with `d = z.norm_sqr()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_inv(z: Lanes) -> Lanes {
        unsafe {
            let d = lanes_norm_sqr(z);
            Lanes {
                re: _mm256_div_ps(z.re, d),
                im: _mm256_div_ps(_mm256_xor_ps(z.im, _mm256_set1_ps(-0.0)), d),
            }
        }
    }

    /// All-ones in the lanes where `z == Complex32::ZERO` (either sign of
    /// zero in both parts).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_is_zero(z: Lanes) -> __m256 {
        let zero = _mm256_setzero_ps();
        _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_EQ_OQ>(z.re, zero),
            _mm256_cmp_ps::<_CMP_EQ_OQ>(z.im, zero),
        )
    }

    /// `old` in the lanes where `keep` is set, `new` elsewhere.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_keep(keep: __m256, old: Lanes, new: Lanes) -> Lanes {
        Lanes {
            re: _mm256_blendv_ps(new.re, old.re, keep),
            im: _mm256_blendv_ps(new.im, old.im, keep),
        }
    }

    /// Exchanges `a` and `b` in the lanes where `sel` is set.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_swap(sel: __m256, a: &mut Lanes, b: &mut Lanes) {
        unsafe {
            let (old_a, old_b) = (*a, *b);
            *a = lanes_keep(sel, old_b, old_a);
            *b = lanes_keep(sel, old_a, old_b);
        }
    }

    /// Loads `path[sc..sc + 8]` as (re×8, im×8).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_load(path: &[Complex32], sc: usize) -> Lanes {
        unsafe {
            let p = path[sc..sc + 8].as_ptr();
            let (re, im) = deinterleave8(load(p), load(p.add(4)));
            Lanes { re, im }
        }
    }

    /// Stores `z` to `out[..8]` as eight interleaved complex values.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes_store(out: &mut [Complex32], z: Lanes) {
        unsafe {
            let out = &mut out[..8];
            // lo = (r0 i0 r1 i1 | r4 i4 r5 i5), hi = (r2 i2 r3 i3 | r6 i6 r7 i7).
            let lo = _mm256_unpacklo_ps(z.re, z.im);
            let hi = _mm256_unpackhi_ps(z.re, z.im);
            store(out.as_mut_ptr(), _mm256_permute2f128_ps::<0x20>(lo, hi));
            store(
                out.as_mut_ptr().add(4),
                _mm256_permute2f128_ps::<0x31>(lo, hi),
            );
        }
    }

    /// `combiner::solve` for eight subcarriers at once, `L` layers and
    /// `paths.len()` antennas; see [`super::mmse_weights8`] for the layout
    /// and the `false` cases.
    ///
    /// The inverse skips the columns of `a` left of the pivot column: the
    /// scalar code updates them too, but nothing reads them again, so no
    /// output bit depends on them.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::needless_range_loop)] // (row, column) index notation throughout
    pub(super) unsafe fn mmse_weights8<const L: usize>(
        paths: &[[&[Complex32]; L]],
        sc: usize,
        noise_var: f32,
        wt: &mut [Complex32],
    ) -> bool {
        unsafe {
            let n_rx = paths.len();
            debug_assert!((1..=4).contains(&L) && (1..=8).contains(&n_rx));
            let n_sc = wt.len() / (L * n_rx);
            // h[rx][layer]; hh = hᴴ is read through `lanes_conj`.
            let mut h = [[lanes_zero(); L]; 8];
            for (row, path_row) in h.iter_mut().zip(paths) {
                for (z, path) in row.iter_mut().zip(path_row) {
                    *z = lanes_load(path, sc);
                }
            }
            // Gram = hᴴh, skipping zero factors.
            let mut a = [[lanes_zero(); L]; L];
            for r in 0..L {
                for k in 0..n_rx {
                    let f = lanes_conj(h[k][r]);
                    let skip = lanes_is_zero(f);
                    for c in 0..L {
                        let next = lanes_mul_add(a[r][c], f, h[k][c]);
                        a[r][c] = lanes_keep(skip, a[r][c], next);
                    }
                }
            }
            // + σ²·I, as `+= Complex32::new(noise_var, 0.0)`.
            for (i, row) in a.iter_mut().enumerate() {
                row[i].re = _mm256_add_ps(row[i].re, _mm256_set1_ps(noise_var));
                row[i].im = _mm256_add_ps(row[i].im, _mm256_setzero_ps());
            }
            // Gauss–Jordan with partial pivoting (`linalg::inverse`).
            let mut inv = [[lanes_zero(); L]; L];
            for (i, row) in inv.iter_mut().enumerate() {
                row[i].re = _mm256_set1_ps(1.0);
            }
            for col in 0..L {
                let mut best = lanes_norm_sqr(a[col][col]);
                let mut pivot = _mm256_set1_ps(col as f32);
                for r in col + 1..L {
                    let mag = lanes_norm_sqr(a[r][col]);
                    let better = _mm256_cmp_ps::<_CMP_GT_OQ>(mag, best);
                    best = _mm256_blendv_ps(best, mag, better);
                    pivot = _mm256_blendv_ps(pivot, _mm256_set1_ps(r as f32), better);
                }
                let singular = _mm256_cmp_ps::<_CMP_LT_OQ>(best, _mm256_set1_ps(1e-20));
                if _mm256_movemask_ps(singular) != 0 {
                    return false;
                }
                for r in col + 1..L {
                    let sel = _mm256_cmp_ps::<_CMP_EQ_OQ>(pivot, _mm256_set1_ps(r as f32));
                    if _mm256_movemask_ps(sel) == 0 {
                        continue;
                    }
                    let (upper, lower) = a.split_at_mut(r);
                    for c in col..L {
                        lanes_swap(sel, &mut upper[col][c], &mut lower[0][c]);
                    }
                    let (upper, lower) = inv.split_at_mut(r);
                    for c in 0..L {
                        lanes_swap(sel, &mut upper[col][c], &mut lower[0][c]);
                    }
                }
                let scale = lanes_inv(a[col][col]);
                for c in col + 1..L {
                    a[col][c] = lanes_mul(a[col][c], scale);
                }
                for c in 0..L {
                    inv[col][c] = lanes_mul(inv[col][c], scale);
                }
                for r in 0..L {
                    if r == col {
                        continue;
                    }
                    let factor = a[r][col];
                    let skip = lanes_is_zero(factor);
                    for c in col + 1..L {
                        let next = lanes_sub(a[r][c], lanes_mul(factor, a[col][c]));
                        a[r][c] = lanes_keep(skip, a[r][c], next);
                    }
                    for c in 0..L {
                        let next = lanes_sub(inv[r][c], lanes_mul(factor, inv[col][c]));
                        inv[r][c] = lanes_keep(skip, inv[r][c], next);
                    }
                }
            }
            // W = inv·hᴴ, skipping zero factors; any non-finite weight
            // sends the group to the scalar solve.
            let mut w = [[lanes_zero(); 8]; L];
            let mut bad = _mm256_setzero_ps();
            for r in 0..L {
                for k in 0..L {
                    let f = inv[r][k];
                    let skip = lanes_is_zero(f);
                    for c in 0..n_rx {
                        let next = lanes_mul_add(w[r][c], f, lanes_conj(h[c][k]));
                        w[r][c] = lanes_keep(skip, w[r][c], next);
                    }
                }
                for z in &w[r][..n_rx] {
                    // x − x is NaN exactly when x is ±∞ or NaN.
                    let non_finite = _mm256_cmp_ps::<_CMP_UNORD_Q>(
                        _mm256_sub_ps(z.re, z.re),
                        _mm256_sub_ps(z.im, z.im),
                    );
                    bad = _mm256_or_ps(bad, non_finite);
                }
            }
            if _mm256_movemask_ps(bad) != 0 {
                return false;
            }
            for (layer, row) in w.iter().enumerate() {
                for (rx, &z) in row[..n_rx].iter().enumerate() {
                    let base = (layer * n_rx + rx) * n_sc + sc;
                    lanes_store(&mut wt[base..base + 8], z);
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llr::{demap_block, maxlog_llr};
    use crate::rng::Xoshiro256;

    fn random_symbols(n: usize, seed: u64, spread: f32) -> Vec<Complex32> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Complex32::new(
                    spread * (rng.next_f32() - 0.5),
                    spread * (rng.next_f32() - 0.5),
                )
            })
            .collect()
    }

    #[test]
    fn dispatch_toggles_and_labels() {
        // The only test that mutates the global dispatch mode; safe to run
        // alongside the others because both paths are bit-identical.
        force_scalar(true);
        assert!(!simd_enabled());
        assert_eq!(dispatch_label(), "scalar");
        force_scalar(false);
        assert_eq!(simd_enabled(), simd_available());
        let label = dispatch_label();
        assert!(label == "avx2+fma" || label == "scalar");
    }

    #[test]
    fn cmul_add_assign_matches_scalar_bitwise() {
        for n in [1, 3, 4, 7, 8, 12, 300, 301] {
            let w = random_symbols(n, 10 + n as u64, 2.0);
            let x = random_symbols(n, 20 + n as u64, 2.0);
            let mut acc = random_symbols(n, 30 + n as u64, 2.0);
            let mut reference = acc.clone();
            for i in 0..n {
                reference[i] = reference[i].mul_add(w[i], x[i]);
            }
            cmul_add_assign(&mut acc, &w, &x);
            for i in 0..n {
                assert!(
                    acc[i].re.to_bits() == reference[i].re.to_bits()
                        && acc[i].im.to_bits() == reference[i].im.to_bits(),
                    "n={n} i={i}: {:?} vs {:?}",
                    acc[i],
                    reference[i]
                );
            }
        }
    }

    #[test]
    fn demap_matches_scalar_bitwise_all_modulations() {
        for m in Modulation::ALL {
            for n in [8, 16, 24, 37, 300] {
                let symbols = random_symbols(n, 100 + n as u64, 3.0);
                let noise_var = 0.137f32;
                let mut scalar = Vec::new();
                for &y in &symbols {
                    maxlog_llr(m, y, noise_var, &mut scalar);
                }
                // demap_block routes through the SIMD path when available.
                let fast = demap_block(m, &symbols, noise_var);
                assert_eq!(fast.len(), scalar.len(), "{m} n={n}");
                for (i, (a, b)) in fast.iter().zip(&scalar).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{m} n={n} bit {i}: {a} vs {b} ({:08x} vs {:08x})",
                        a.to_bits(),
                        b.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn cmul_wrappers_match_scalar_bitwise() {
        for n in [1, 3, 4, 5, 8, 33, 300] {
            let y = random_symbols(n, 40 + n as u64, 3.0);
            let x = random_symbols(n, 50 + n as u64, 3.0);
            let mut out = vec![Complex32::ZERO; n];
            cmul_into(&mut out, &y, &x);
            let mut conj_out = vec![Complex32::ZERO; n];
            cmul_conj_into(&mut conj_out, &y, &x);
            let mut assign = y.clone();
            cmul_conj_assign(&mut assign, &x);
            for i in 0..n {
                let plain = y[i] * x[i];
                let conj = y[i] * x[i].conj();
                for (got, want, what) in [
                    (out[i], plain, "cmul_into"),
                    (conj_out[i], conj, "cmul_conj_into"),
                    (assign[i], conj, "cmul_conj_assign"),
                ] {
                    assert!(
                        got.re.to_bits() == want.re.to_bits()
                            && got.im.to_bits() == want.im.to_bits(),
                        "{what} n={n} i={i}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn demap_handles_extreme_but_finite_inputs() {
        for m in Modulation::ALL {
            let symbols: Vec<Complex32> = (0..16)
                .map(|i| {
                    let huge = if i % 2 == 0 { 1.0e30 } else { -1.0e30 };
                    Complex32::new(huge, 1.0e-30)
                })
                .collect();
            let mut scalar = Vec::new();
            for &y in &symbols {
                maxlog_llr(m, y, 0.5, &mut scalar);
            }
            let fast = demap_block(m, &symbols, 0.5);
            assert_eq!(fast.len(), scalar.len());
            for (a, b) in fast.iter().zip(&scalar) {
                assert_eq!(a.to_bits(), b.to_bits(), "{m}");
            }
        }
    }
}

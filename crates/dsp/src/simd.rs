//! Runtime-dispatched SIMD kernels for the per-symbol hot loops.
//!
//! Every kernel here is a *bit-exact* vectorization of its scalar
//! counterpart: the SIMD code performs the same per-element operation DAG
//! (the same multiplies, adds and fused multiply-adds, in the same order)
//! and only parallelises across independent elements, so for finite
//! inputs the vector and scalar paths produce byte-identical output. The
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
/// max-log-MAP SISO over the information section, interleaved in one
/// loop: each 8-state trellis row is one AVX2 vector, and because the
/// two walks are independent the fused loop keeps two dependency chains
/// in flight where the separate passes were each latency-bound on one.
/// `alpha` row 0 and `beta` row `sys.len()` must already be seeded;
/// alpha rows `1..=sys.len()` and beta rows `sys.len()-1..=0` are
/// written. Returns `false` when the caller should run the scalar
/// reference passes.
pub(crate) fn turbo_alpha_beta(
    sys: &[f32],
    par: &[f32],
    apriori: &[f32],
    alpha: &mut [f32],
    beta: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() {
            return false;
        }
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`.
        unsafe { x86::turbo_alpha_beta(sys, par, apriori, alpha, beta) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (sys, par, apriori, alpha, beta);
        false
    }
}

/// State-parallel branch-metric/LLR extraction of the max-log-MAP SISO.
/// Returns `false` when the caller should run the scalar reference.
pub(crate) fn turbo_extrinsic(
    sys: &[f32],
    par: &[f32],
    apriori: &[f32],
    alpha: &[f32],
    beta: &[f32],
    extrinsic: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() {
            return false;
        }
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`.
        unsafe { x86::turbo_extrinsic(sys, par, apriori, alpha, beta, extrinsic) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (sys, par, apriori, alpha, beta, extrinsic);
        false
    }
}

/// Max-log demap of a whole symbol block, appending LLRs to `out`.
/// Returns `false` when the caller should run the scalar loop instead
/// (vector path unavailable or block too short).
///
/// # Panics
///
/// Panics if `noise_var <= 0` (matching the scalar demapper).
pub(crate) fn demap_block_maxlog(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
    out: &mut Vec<f32>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_enabled() || symbols.len() < 8 {
            return false;
        }
        assert!(noise_var > 0.0, "noise variance must be positive");
        let bits = modulation.bits_per_symbol();
        // Reserve the whole block up front so the scalar-tail pushes below
        // never reallocate (the hot path's output buffers are reused
        // across subframes, so steady state stays allocation-free).
        out.reserve(symbols.len() * bits);
        let start = out.len();
        let split = symbols.len() & !7;
        out.resize(start + split * bits, 0.0);
        let dst = &mut out[start..];
        // SAFETY: AVX2+FMA presence was checked by `simd_enabled`.
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
        // Scalar tail, appended with the reference demapper.
        for &y in &symbols[split..] {
            crate::llr::maxlog_llr(modulation, y, noise_var, out);
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (modulation, symbols, noise_var, out);
        false
    }
}

/// The AVX2+FMA kernels. Every function is a line-by-line vector
/// transcription of the scalar reference it replaces; comments in each
/// note the scalar expression being reproduced.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use crate::complex::Complex32;
    use crate::modulation::Modulation;

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
    // for state `t`, so the paths are bit-identical by construction.

    use crate::turbo::{
        ALPHA_INPUT, ALPHA_PARITY, ALPHA_PRED, BRANCH_PARITY, NEG, NEXT_STATE, STATES,
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

    /// Vector twin of `turbo::scalar_alpha` + `turbo::scalar_beta`, fused:
    /// both recursions walk the information section in one loop (alpha
    /// forward from row 0, beta backward from row `n`). Each row's
    /// operation DAG is exactly the separate scalar pass's — the walks
    /// never read each other's planes — but fusing them keeps two
    /// independent permute→add→max dependency chains in flight, which is
    /// what the latency-bound trellis recursion needs to fill the vector
    /// ports.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `alpha` and `beta`
    /// must each hold at least `(sys.len() + 1) * 8` elements, with
    /// alpha row 0 and beta row `sys.len()` seeded.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn turbo_alpha_beta(
        sys: &[f32],
        par: &[f32],
        apriori: &[f32],
        alpha: &mut [f32],
        beta: &mut [f32],
    ) {
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
            let n = sys.len();
            let ap = alpha.as_mut_ptr();
            let bp = beta.as_mut_ptr();
            let mut prev = _mm256_loadu_ps(ap);
            let mut next = _mm256_loadu_ps(bp.add(n * STATES));
            for i in 0..n {
                let j = n - 1 - i;
                // Alpha step i: predecessors gathered by state, branch
                // metric signs applied per lane.
                let hs = _mm256_set1_ps(0.5 * (sys[i] + apriori[i]));
                let hp = _mm256_set1_ps(0.5 * par[i]);
                let c0 = _mm256_add_ps(
                    _mm256_add_ps(_mm256_permutevar8x32_ps(prev, p0), _mm256_xor_ps(hs, u0)),
                    _mm256_xor_ps(hp, aq0),
                );
                let c1 = _mm256_add_ps(
                    _mm256_add_ps(_mm256_permutevar8x32_ps(prev, p1), _mm256_xor_ps(hs, u1)),
                    _mm256_xor_ps(hp, aq1),
                );
                // max(c1, max(c0, NEG)): candidate-first operand order so
                // MAXPS tie/NaN semantics match the scalar `if c > best`.
                let arow = _mm256_max_ps(c1, _mm256_max_ps(c0, negv));
                _mm256_storeu_ps(ap.add((i + 1) * STATES), arow);
                prev = arow;
                // Beta step j: successors gathered by state; u = 0 adds
                // +hs on every lane, u = 1 adds −hs.
                let hs = _mm256_set1_ps(0.5 * (sys[j] + apriori[j]));
                let hp = _mm256_set1_ps(0.5 * par[j]);
                let d0 = _mm256_add_ps(
                    _mm256_add_ps(_mm256_permutevar8x32_ps(next, n0), hs),
                    _mm256_xor_ps(hp, bq0),
                );
                let d1 = _mm256_add_ps(
                    _mm256_add_ps(
                        _mm256_permutevar8x32_ps(next, n1),
                        _mm256_xor_ps(hs, neg_zero),
                    ),
                    _mm256_xor_ps(hp, bq1),
                );
                let brow = _mm256_max_ps(d1, _mm256_max_ps(d0, negv));
                _mm256_storeu_ps(bp.add(j * STATES), brow);
                next = brow;
            }
        }
    }

    /// In-register twin of `turbo::reduce_states`: the same balanced tree
    /// (adjacent pairs, quads, halves, then the NEG seed), built from
    /// candidate-first MAXPS so every node has the scalar `pick`
    /// semantics. Lane 0 of the result holds the reduction.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce_states_lane0(m: __m256, negv: __m256) -> __m256 {
        // Pairs: lane 2t ← pick(m[2t], m[2t+1]).
        let r1 = _mm256_max_ps(_mm256_movehdup_ps(m), _mm256_moveldup_ps(m));
        // Quads: lane 4t ← pick(pair 4t, pair 4t+2).
        let r2 = _mm256_max_ps(_mm256_permute_ps(r1, 0b01_00_11_10), r1);
        // Halves: lane 0 ← pick(quad 0, quad 4).
        let r3 = _mm256_max_ps(_mm256_permute2f128_ps(r2, r2, 0x01), r2);
        // Seed: pick(NEG, tree) with the tree as the candidate.
        _mm256_max_ps(r3, negv)
    }

    /// Vector twin of `turbo::scalar_extrinsic`: the two 8-branch metric
    /// rows are formed vectorized and reduced in-register by the same
    /// balanced tree `finish_llr` uses (`turbo::reduce_states`), so the
    /// reduction never round-trips through memory and the max order is
    /// identical on both paths by construction. The final APP assembly
    /// repeats `finish_llr`'s scalar arithmetic on the extracted maxima.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `alpha`/`beta` must
    /// hold at least `(sys.len() + 1) * 8` elements.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn turbo_extrinsic(
        sys: &[f32],
        par: &[f32],
        apriori: &[f32],
        alpha: &[f32],
        beta: &[f32],
        extrinsic: &mut [f32],
    ) {
        unsafe {
            let n0 = perm_index(NEXT_STATE[0]);
            let n1 = perm_index(NEXT_STATE[1]);
            let q0 = sign_mask(BRANCH_PARITY[0]);
            let q1 = sign_mask(BRANCH_PARITY[1]);
            let negv = _mm256_set1_ps(NEG);
            for i in 0..sys.len() {
                let a = _mm256_loadu_ps(alpha.as_ptr().add(i * STATES));
                let b = _mm256_loadu_ps(beta.as_ptr().add((i + 1) * STATES));
                let hp = _mm256_set1_ps(0.5 * par[i]);
                let v0 = _mm256_add_ps(
                    _mm256_add_ps(a, _mm256_permutevar8x32_ps(b, n0)),
                    _mm256_xor_ps(hp, q0),
                );
                let v1 = _mm256_add_ps(
                    _mm256_add_ps(a, _mm256_permutevar8x32_ps(b, n1)),
                    _mm256_xor_ps(hp, q1),
                );
                let best0 = _mm256_cvtss_f32(reduce_states_lane0(v0, negv));
                let best1 = _mm256_cvtss_f32(reduce_states_lane0(v1, negv));
                let ls = sys[i] + apriori[i];
                let app = (best0 + 0.5 * ls) - (best1 - 0.5 * ls);
                extrinsic[i] = app - ls;
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

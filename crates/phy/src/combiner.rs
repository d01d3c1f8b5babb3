//! MMSE combiner weights and antenna combining.
//!
//! After both slots' channel estimates are in, the user thread computes
//! combiner weights — the step the paper singles out as *not* easily
//! parallelised because it couples all receive channels and layers
//! (§III). Per subcarrier `k` the MMSE solution is
//!
//! ```text
//! W(k) = (Ĥ(k)ᴴ·Ĥ(k) + σ²·I)⁻¹ · Ĥ(k)ᴴ          (layers × rx)
//! ```
//!
//! Combining one data symbol for one layer (`x̂ = W·y`, then an IFFT to
//! undo the SC-FDMA DFT precoding) is the per-(symbol, layer) task of the
//! demodulation stage.

use std::ops::Range;

use lte_dsp::arena::ScratchArena;
use lte_dsp::fft::FftPlanner;
use lte_dsp::Complex32;

use crate::estimator::ChannelEstimate;
use crate::grid::UserInput;
use crate::linalg::inverse;
use crate::params::MAX_LAYERS;

/// Most receive antennas a cell can have (see
/// [`CellConfig::with_antennas`](crate::params::CellConfig::with_antennas)).
const MAX_RX: usize = 8;

/// The scratch argument of [`CombinerWeights::compute`]. The solve now
/// works on stack arrays sized by the layer count, so this holds nothing;
/// the type stays because `compute`'s signature is part of the frozen
/// benchmark harness's interface.
#[derive(Clone, Debug, Default)]
pub struct MmseScratch;

impl MmseScratch {
    /// The (empty) scratch.
    pub fn new() -> Self {
        MmseScratch
    }
}

/// One subcarrier's `L × n_rx` MMSE weights from its `n_rx × L` channel
/// matrix, or the matched-filter rows `Hᴴ` when the regularised Gram
/// matrix is numerically singular. Zero factors are skipped, not
/// multiplied: `0·∞` must not turn a weight into NaN.
///
/// Always inlined: called out of line, returning the weight array through
/// memory made the scalar path about 1.4× slower.
#[allow(clippy::needless_range_loop)] // (row, column) index notation throughout
#[inline(always)]
fn solve<const L: usize>(h: &[[Complex32; L]], noise_var: f32) -> [[Complex32; MAX_RX]; L] {
    let n_rx = h.len();
    let mut hh = [[Complex32::ZERO; MAX_RX]; L];
    for (rx, row) in h.iter().enumerate() {
        for (layer, &z) in row.iter().enumerate() {
            hh[layer][rx] = z.conj();
        }
    }
    let mut gram = [[Complex32::ZERO; L]; L];
    for r in 0..L {
        for k in 0..n_rx {
            let a = hh[r][k];
            if a == Complex32::ZERO {
                continue;
            }
            for c in 0..L {
                gram[r][c] = gram[r][c].mul_add(a, h[k][c]);
            }
        }
    }
    for (i, row) in gram.iter_mut().enumerate() {
        row[i] += Complex32::new(noise_var, 0.0);
    }
    let Some(inv) = inverse(gram) else {
        return hh;
    };
    let mut weights = [[Complex32::ZERO; MAX_RX]; L];
    for r in 0..L {
        for k in 0..L {
            let a = inv[r][k];
            if a == Complex32::ZERO {
                continue;
            }
            for c in 0..n_rx {
                weights[r][c] = weights[r][c].mul_add(a, hh[k][c]);
            }
        }
    }
    weights
}

/// Per-subcarrier MMSE weights for one slot: the `n_rx` weights per
/// layer applied to the antenna samples of each subcarrier.
#[derive(Clone, Debug, PartialEq)]
pub struct CombinerWeights {
    /// Flattened `[layer][rx][sc]`, so combining one layer walks each
    /// antenna's weights with unit stride — the layout the SIMD combine
    /// kernel streams and the lane-batched solve stores.
    wt: Vec<Complex32>,
    n_sc: usize,
    n_layers: usize,
    n_rx: usize,
}

impl CombinerWeights {
    /// Computes MMSE weights from a slot's channel estimate.
    ///
    /// Falls back to a matched-filter row (scaled Ĥᴴ) for any subcarrier
    /// whose regularised Gram matrix is numerically singular — which can
    /// only happen with a zero channel estimate.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var <= 0`.
    pub fn mmse(estimate: &ChannelEstimate, noise_var: f32) -> Self {
        let mut out = Self::empty();
        out.compute(estimate, noise_var, &mut MmseScratch);
        out
    }

    /// A placeholder with no weights, ready to be filled by
    /// [`compute`](Self::compute) without reallocating across subframes.
    pub fn empty() -> Self {
        CombinerWeights {
            wt: Vec::new(),
            n_sc: 0,
            n_layers: 0,
            n_rx: 0,
        }
    }

    /// [`mmse`](Self::mmse) into this existing value, reusing its weight
    /// storage. Every subcarrier is solved on stack arrays sized by the
    /// layer count; nothing is allocated once the storage has grown.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var <= 0`, or the estimate has more than 8
    /// antennas or more than [`MAX_LAYERS`] layers.
    pub fn compute(
        &mut self,
        estimate: &ChannelEstimate,
        noise_var: f32,
        _scratch: &mut MmseScratch,
    ) {
        let (n_rx, n_layers, n_sc) = (estimate.n_rx(), estimate.n_layers(), estimate.n_sc());
        self.compute_paths(n_rx, n_layers, n_sc, noise_var, |rx, layer| {
            estimate.path(rx, layer)
        });
    }

    /// The MMSE weights of one slot straight from a flat
    /// `[rx][layer][subcarrier]` path buffer — the layout the parallel
    /// runtime's estimation tasks write — with no copy into a
    /// [`ChannelEstimate`] first.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != n_rx * n_layers * n_sc`, and as
    /// [`compute`](Self::compute) does.
    pub fn from_flat(
        n_rx: usize,
        n_layers: usize,
        n_sc: usize,
        flat: &[Complex32],
        noise_var: f32,
    ) -> Self {
        assert_eq!(flat.len(), n_rx * n_layers * n_sc, "path buffer mismatch");
        let mut out = Self::empty();
        out.compute_paths(n_rx, n_layers, n_sc, noise_var, |rx, layer| {
            let base = (rx * n_layers + layer) * n_sc;
            &flat[base..base + n_sc]
        });
        out
    }

    fn compute_paths<'a>(
        &mut self,
        n_rx: usize,
        n_layers: usize,
        n_sc: usize,
        noise_var: f32,
        path: impl Fn(usize, usize) -> &'a [Complex32],
    ) {
        assert!(noise_var > 0.0, "noise variance must be positive");
        assert!(n_rx <= MAX_RX, "at most {MAX_RX} antennas");
        match n_layers {
            1 => self.fill::<1>(n_rx, n_sc, noise_var, path),
            2 => self.fill::<2>(n_rx, n_sc, noise_var, path),
            3 => self.fill::<3>(n_rx, n_sc, noise_var, path),
            4 => self.fill::<4>(n_rx, n_sc, noise_var, path),
            _ => panic!("at most {MAX_LAYERS} layers"),
        }
    }

    fn fill<'a, const L: usize>(
        &mut self,
        n_rx: usize,
        n_sc: usize,
        noise_var: f32,
        path: impl Fn(usize, usize) -> &'a [Complex32],
    ) {
        // Every element is overwritten below.
        self.wt.resize(n_sc * L * n_rx, Complex32::ZERO);
        self.n_sc = n_sc;
        self.n_layers = L;
        self.n_rx = n_rx;
        let mut paths: [[&[Complex32]; L]; MAX_RX] = [[&[]; L]; MAX_RX];
        for (rx, row) in paths.iter_mut().enumerate().take(n_rx) {
            for (layer, slot) in row.iter_mut().enumerate() {
                *slot = path(rx, layer);
            }
        }
        // The scalar solve, subcarrier by subcarrier over a range.
        let mut h = [[Complex32::ZERO; L]; MAX_RX];
        let mut solve_range = |range: Range<usize>, wt: &mut [Complex32]| {
            for sc in range {
                for (row, paths) in h.iter_mut().zip(&paths).take(n_rx) {
                    for (z, path) in row.iter_mut().zip(paths) {
                        *z = path[sc];
                    }
                }
                let weights = solve(&h[..n_rx], noise_var);
                for (layer, row) in weights.iter().enumerate() {
                    for (rx, &weight) in row.iter().enumerate().take(n_rx) {
                        wt[(layer * n_rx + rx) * n_sc + sc] = weight;
                    }
                }
            }
        };
        // Eight subcarriers per vector solve. A group it hands back (the
        // scalar dispatch, a singular lane, a non-finite weight) and the
        // `n_sc % 8` tail take the scalar solve.
        let mut sc = 0;
        while sc + 8 <= n_sc {
            if !lte_dsp::simd::mmse_weights8(&paths[..n_rx], sc, noise_var, &mut self.wt) {
                solve_range(sc..sc + 8, &mut self.wt);
            }
            sc += 8;
        }
        solve_range(sc..n_sc, &mut self.wt);
    }

    /// The per-subcarrier weight lane for (layer, antenna) — `n_sc`
    /// contiguous weights, one per subcarrier.
    #[inline]
    pub fn lane(&self, layer: usize, rx: usize) -> &[Complex32] {
        let base = (layer * self.n_rx + rx) * self.n_sc;
        &self.wt[base..base + self.n_sc]
    }

    /// Number of subcarriers.
    pub fn n_sc(&self) -> usize {
        self.n_sc
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Number of receive antennas.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }
}

/// Combines one data symbol for one layer and despreads it back to the
/// time domain — the benchmark's per-(symbol, layer) demodulation task.
///
/// Returns the `n_sc` equalised QAM symbols.
///
/// # Panics
///
/// Panics if `slot`/`symbol` are out of range or the weights don't match
/// the input dimensions.
pub fn combine_symbol(
    input: &UserInput,
    weights: &CombinerWeights,
    slot: usize,
    symbol: usize,
    layer: usize,
    planner: &FftPlanner,
) -> Vec<Complex32> {
    let mut combined = Vec::new();
    combine_symbol_into(
        input,
        weights,
        slot,
        symbol,
        layer,
        planner,
        &mut ScratchArena::new(),
        &mut combined,
    );
    combined
}

/// [`combine_symbol`] into a caller-provided buffer, with the IFFT's
/// working space drawn from `arena` — the zero-allocation variant used
/// by the steady-state receive path.
///
/// `out` is cleared and refilled; its capacity is reused.
///
/// # Panics
///
/// Panics if `slot`/`symbol` are out of range or the weights don't match
/// the input dimensions.
#[allow(clippy::too_many_arguments)]
pub fn combine_symbol_into(
    input: &UserInput,
    weights: &CombinerWeights,
    slot: usize,
    symbol: usize,
    layer: usize,
    planner: &FftPlanner,
    arena: &mut ScratchArena,
    out: &mut Vec<Complex32>,
) {
    let rx_symbol = &input.slots[slot].data[symbol];
    let n_sc = rx_symbol.n_sc();
    assert_eq!(weights.n_sc(), n_sc, "weights/subcarrier mismatch");
    assert_eq!(weights.n_rx(), rx_symbol.n_rx(), "weights/antenna mismatch");
    out.clear();
    out.resize(n_sc, Complex32::ZERO);
    // One fused multiply-add pass per antenna over contiguous lanes; the
    // per-subcarrier operation order (rx 0, 1, …) matches the scalar
    // accumulator loop exactly, so the result is bit-identical.
    for rx in 0..rx_symbol.n_rx() {
        lte_dsp::simd::cmul_add_assign(out, weights.lane(layer, rx), rx_symbol.antenna(rx));
    }
    // Undo the SC-FDMA DFT precoding.
    let plan = planner.inverse(n_sc);
    plan.process_with_scratch(out, arena.fft_scratch(n_sc));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::estimate_slot;
    use crate::params::{CellConfig, TurboMode, UserConfig};
    use crate::tx::synthesize_user_over_channel;
    use lte_dsp::channel::MimoChannel;
    use lte_dsp::{Modulation, Xoshiro256};

    #[test]
    fn mmse_inverts_identity_channel() {
        // With H = I per subcarrier and tiny noise, W ≈ I.
        let n_sc = 24;
        let mut est = ChannelEstimate::empty(2, 2, n_sc);
        for rx in 0..2 {
            for layer in 0..2 {
                let v = if rx == layer {
                    Complex32::ONE
                } else {
                    Complex32::ZERO
                };
                *est.path_mut(rx, layer) = vec![v; n_sc];
            }
        }
        let w = CombinerWeights::mmse(&est, 1e-4);
        for sc in 0..n_sc {
            for layer in 0..2 {
                for rx in 0..2 {
                    let wgt = w.lane(layer, rx)[sc];
                    let expect = if rx == layer { 1.0 } else { 0.0 };
                    assert!((wgt.re - expect).abs() < 1e-3 && wgt.im.abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn mmse_suppresses_inter_layer_interference() {
        // Random 4×2 channel: W·H should approximate the 2×2 identity.
        let mut rng = Xoshiro256::seed_from_u64(21);
        let channel = MimoChannel::randomize(4, 2, 1, &mut rng);
        let n_sc = 12;
        let mut est = ChannelEstimate::empty(4, 2, n_sc);
        for rx in 0..4 {
            for layer in 0..2 {
                *est.path_mut(rx, layer) = channel.frequency_response(rx, layer, n_sc);
            }
        }
        let w = CombinerWeights::mmse(&est, 1e-3);
        for sc in 0..n_sc {
            for layer in 0..2 {
                for other in 0..2 {
                    let mut acc = Complex32::ZERO;
                    for rx in 0..4 {
                        acc = acc.mul_add(
                            w.lane(layer, rx)[sc],
                            channel.frequency_response(rx, other, n_sc)[sc],
                        );
                    }
                    let expect = if layer == other { 1.0 } else { 0.0 };
                    assert!(
                        (acc.re - expect).abs() < 0.05 && acc.im.abs() < 0.05,
                        "sc {sc} layer {layer} other {other}: {acc:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_estimate_falls_back_without_panicking() {
        let est = ChannelEstimate::empty(2, 2, 12);
        let w = CombinerWeights::mmse(&est, 0.1);
        for rx in 0..2 {
            assert_eq!(w.lane(0, rx), &[Complex32::ZERO; 12]);
        }
    }

    #[test]
    fn combine_recovers_symbols_on_clean_channel() {
        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(4, 1, Modulation::Qpsk);
        let channel = MimoChannel::identity(2, 1);
        let mut rng = Xoshiro256::seed_from_u64(33);
        let input = synthesize_user_over_channel(
            &cell,
            &user,
            TurboMode::Passthrough,
            50.0,
            &channel,
            &mut rng,
        );
        let planner = FftPlanner::new();
        let est = estimate_slot(&cell, &input, 0, &planner);
        let w = CombinerWeights::mmse(&est, input.noise_var);
        let recovered = combine_symbol(&input, &w, 0, 0, 0, &planner);
        // Every recovered point should sit on the QPSK constellation.
        let c = Modulation::Qpsk.constellation();
        for z in &recovered {
            let nearest = c.iter().map(|s| (*z - *s).abs()).fold(f32::MAX, f32::min);
            assert!(nearest < 0.1, "{z:?} too far from constellation");
        }
    }

    #[test]
    #[should_panic(expected = "noise variance")]
    fn mmse_rejects_nonpositive_noise() {
        CombinerWeights::mmse(&ChannelEstimate::empty(1, 1, 1), 0.0);
    }

    #[test]
    fn compute_with_dirty_scratch_matches_mmse_bitwise() {
        let mut rng = Xoshiro256::seed_from_u64(77);
        let mut scratch = MmseScratch::new();
        let mut reused = CombinerWeights::empty();
        for (n_rx, n_layers, n_sc) in [(2, 1, 12), (4, 2, 36), (4, 4, 24), (1, 1, 12)] {
            let channel = MimoChannel::randomize(n_rx, n_layers, 2, &mut rng);
            let mut est = ChannelEstimate::empty(n_rx, n_layers, n_sc);
            for rx in 0..n_rx {
                for layer in 0..n_layers {
                    *est.path_mut(rx, layer) = channel.frequency_response(rx, layer, n_sc);
                }
            }
            let fresh = CombinerWeights::mmse(&est, 0.05);
            // Same scratch and output across shapes: state must not leak.
            reused.compute(&est, 0.05, &mut scratch);
            assert_eq!(fresh, reused, "{n_rx}x{n_layers}x{n_sc}");
        }
    }

    /// The lane-batched solve against the scalar dispatch, bit for bit,
    /// at every layer count: 8-subcarrier groups mixing live subcarriers
    /// with a zero one (the matched-filter fallback at 1e-12), an
    /// overflowing one and a NaN one, then a 4-subcarrier tail.
    #[test]
    fn vector_and_scalar_dispatch_agree_bitwise() {
        use lte_dsp::simd::force_scalar;

        let mut rng = Xoshiro256::seed_from_u64(0x1A4E);
        let n_sc = 36;
        for n_rx in [1, 2, 3, 4, 8] {
            for n_layers in 1..=4 {
                let channel = MimoChannel::randomize(n_rx, n_layers, 3, &mut rng);
                let mut est = ChannelEstimate::empty(n_rx, n_layers, n_sc);
                for rx in 0..n_rx {
                    for layer in 0..n_layers {
                        let path = est.path_mut(rx, layer);
                        *path = channel.frequency_response(rx, layer, n_sc);
                        path[3] = Complex32::ZERO;
                        path[12] = Complex32::new(1.0e20, -1.0e20);
                        path[21].im = f32::NAN;
                    }
                }
                for noise_var in [0.05, 1e-12] {
                    force_scalar(true);
                    let scalar = CombinerWeights::mmse(&est, noise_var);
                    force_scalar(false);
                    let vector = CombinerWeights::mmse(&est, noise_var);
                    for (i, (v, s)) in vector.wt.iter().zip(&scalar.wt).enumerate() {
                        assert_eq!(
                            (v.re.to_bits(), v.im.to_bits()),
                            (s.re.to_bits(), s.im.to_bits()),
                            "{n_rx}x{n_layers} noise {noise_var:e} weight {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn combine_symbol_into_is_independent_of_dirty_scratch() {
        let cell = CellConfig::with_antennas(4);
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let channel = MimoChannel::randomize(4, 2, 3, &mut rng);
        let input = synthesize_user_over_channel(
            &cell,
            &user,
            TurboMode::Passthrough,
            20.0,
            &channel,
            &mut rng,
        );
        let planner = FftPlanner::new();
        let est = estimate_slot(&cell, &input, 0, &planner);
        let w = CombinerWeights::mmse(&est, input.noise_var);
        let mut arena = ScratchArena::new();
        let mut out = vec![Complex32::ONE; 3]; // dirty, wrong-sized
        for symbol in 0..2 {
            for layer in 0..2 {
                let fresh = combine_symbol(&input, &w, 0, symbol, layer, &planner);
                combine_symbol_into(&input, &w, 0, symbol, layer, &planner, &mut arena, &mut out);
                assert_eq!(fresh, out, "symbol {symbol} layer {layer}");
            }
        }
    }
}

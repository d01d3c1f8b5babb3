//! Channel estimation (left half of Fig. 3).
//!
//! For each (receive antenna, layer) pair — the paper's unit of
//! channel-estimation parallelism, up to 4×4 = 16 tasks per user — the
//! estimator runs:
//!
//! 1. **matched filter**: received reference symbol × conjugate of the
//!    layer's known DM-RS sequence,
//! 2. **IFFT** to the time domain, where the path's impulse response sits
//!    at delay 0 and other layers' responses sit `N/L` samples away
//!    (their cyclic shifts),
//! 3. **window**: zero everything outside the delay-spread budget,
//!    suppressing noise and the other layers,
//! 4. **FFT** back to the frequency domain → the denoised estimate
//!    `Ĥ(rx, layer, subcarrier)`.

use lte_dsp::arena::ScratchArena;
use lte_dsp::fft::FftPlanner;
use lte_dsp::matched_filter::matched_filter;
use lte_dsp::window::ChannelWindow;
use lte_dsp::Complex32;
use lte_obs::{Recorder, Stage};

use crate::grid::UserInput;
use crate::params::CellConfig;
use crate::trace::StageTimer;
use crate::tx::reference_for_layer_cached;

/// Channel estimates for one slot: `paths[rx][layer][subcarrier]`.
///
/// The `Default` value has zero paths; [`reset`](Self::reset) shapes it
/// before use.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChannelEstimate {
    paths: Vec<Vec<Vec<Complex32>>>,
}

impl ChannelEstimate {
    /// Creates an empty estimate container for `n_rx × n_layers` paths of
    /// `n_sc` subcarriers.
    pub fn empty(n_rx: usize, n_layers: usize, n_sc: usize) -> Self {
        ChannelEstimate {
            paths: vec![vec![vec![Complex32::ZERO; n_sc]; n_layers]; n_rx],
        }
    }

    /// Reshapes to `n_rx × n_layers` paths of `n_sc` subcarriers, all
    /// zeroed, reusing every nested buffer whose shape already matches —
    /// the steady-state case, where this allocates nothing.
    pub fn reset(&mut self, n_rx: usize, n_layers: usize, n_sc: usize) {
        self.paths.truncate(n_rx);
        self.paths.resize_with(n_rx, Vec::new);
        for row in &mut self.paths {
            row.truncate(n_layers);
            row.resize_with(n_layers, Vec::new);
            for path in row.iter_mut() {
                path.clear();
                path.resize(n_sc, Complex32::ZERO);
            }
        }
    }

    /// One estimated path.
    pub fn path(&self, rx: usize, layer: usize) -> &[Complex32] {
        &self.paths[rx][layer]
    }

    /// Mutable access to one path's storage, for in-place estimation.
    pub fn path_mut(&mut self, rx: usize, layer: usize) -> &mut Vec<Complex32> {
        &mut self.paths[rx][layer]
    }

    /// Number of receive antennas.
    pub fn n_rx(&self) -> usize {
        self.paths.len()
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.paths[0].len()
    }

    /// Number of subcarriers.
    pub fn n_sc(&self) -> usize {
        self.paths[0][0].len()
    }
}

/// Estimates a single (rx, layer) path from one slot's reference symbol —
/// the benchmark's channel-estimation *task* — into a fresh vector.
/// Convenience over [`estimate_path_into`] for one-off callers.
///
/// # Panics
///
/// Panics if `slot`, `rx` or `layer` are out of range for the input.
pub fn estimate_path(
    cell: &CellConfig,
    input: &UserInput,
    slot: usize,
    rx: usize,
    layer: usize,
    planner: &FftPlanner,
) -> Vec<Complex32> {
    let mut out = vec![Complex32::ZERO; input.slots[slot].reference.antenna(rx).len()];
    let arena = &mut ScratchArena::new();
    estimate_path_into(cell, input, slot, rx, layer, planner, arena, &mut out);
    out
}

/// Estimates a single (rx, layer) path into a caller-provided slice,
/// with FFT working space drawn from `arena` and the DM-RS reference
/// served from the global cache — the zero-allocation kernel the worker
/// pool runs as one task.
///
/// Every element of `out` is overwritten.
///
/// # Panics
///
/// Panics if `slot`, `rx` or `layer` are out of range for the input, or
/// if `out` is not exactly one reference symbol long.
#[allow(clippy::too_many_arguments)] // mirrors estimate_path plus the two scratch outputs
pub fn estimate_path_into(
    cell: &CellConfig,
    input: &UserInput,
    slot: usize,
    rx: usize,
    layer: usize,
    planner: &FftPlanner,
    arena: &mut ScratchArena,
    out: &mut [Complex32],
) {
    let timer = &StageTimer::disabled();
    estimate_path_timed(cell, input, slot, rx, layer, planner, arena, out, timer);
}

/// The one path-estimation body: each kernel (matched filter → IFFT →
/// window → FFT) runs inside a `timer` span, which a disabled timer
/// reduces to the bare call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn estimate_path_timed<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    slot: usize,
    rx: usize,
    layer: usize,
    planner: &FftPlanner,
    arena: &mut ScratchArena,
    out: &mut [Complex32],
    timer: &StageTimer<'_, R>,
) {
    let received = input.slots[slot].reference.antenna(rx);
    let n = received.len();
    let reference = reference_for_layer_cached(cell, &input.config, layer);
    timer.time(Stage::MatchedFilter, || {
        matched_filter(received, reference.samples(), out)
    });
    timer.time(Stage::Ifft, || {
        planner
            .inverse(n)
            .process_with_scratch(out, arena.fft_scratch(n))
    });
    timer.time(Stage::Window, || ChannelWindow::for_len(n).apply(out));
    timer.time(Stage::Fft, || {
        planner
            .forward(n)
            .process_with_scratch(out, arena.fft_scratch(n))
    });
}

/// Estimates every path of one slot serially into a fresh
/// [`ChannelEstimate`] (the parallel runtime spawns
/// [`estimate_path_into`] tasks instead).
pub fn estimate_slot(
    cell: &CellConfig,
    input: &UserInput,
    slot: usize,
    planner: &FftPlanner,
) -> ChannelEstimate {
    let n_sc = input.config.subcarriers();
    let mut est = ChannelEstimate::empty(cell.n_rx, input.config.layers, n_sc);
    let arena = &mut ScratchArena::new();
    for rx in 0..cell.n_rx {
        for layer in 0..input.config.layers {
            let out = est.path_mut(rx, layer);
            estimate_path_into(cell, input, slot, rx, layer, planner, arena, out);
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{TurboMode, UserConfig};
    use crate::tx::{reference_for_layer, synthesize_user_over_channel};
    use lte_dsp::channel::MimoChannel;
    use lte_dsp::{Modulation, Xoshiro256};

    fn estimate_error(
        cell: &CellConfig,
        user: &UserConfig,
        channel: &MimoChannel,
        snr_db: f64,
        seed: u64,
    ) -> f64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let input = synthesize_user_over_channel(
            cell,
            user,
            TurboMode::Passthrough,
            snr_db,
            channel,
            &mut rng,
        );
        let planner = FftPlanner::new();
        let est = estimate_slot(cell, &input, 0, &planner);
        let n_sc = user.subcarriers();
        let mut err = 0.0f64;
        let mut energy = 0.0f64;
        for rx in 0..cell.n_rx {
            for layer in 0..user.layers {
                let truth = channel.frequency_response(rx, layer, n_sc);
                for (e, t) in est.path(rx, layer).iter().zip(&truth) {
                    err += (*e - *t).norm_sqr() as f64;
                    energy += t.norm_sqr() as f64;
                }
            }
        }
        err / energy.max(1e-12)
    }

    #[test]
    fn identity_channel_estimated_exactly() {
        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(8, 2, Modulation::Qpsk);
        let channel = MimoChannel::identity(2, 2);
        let rel_err = estimate_error(&cell, &user, &channel, 60.0, 3);
        assert!(rel_err < 1e-3, "relative error {rel_err}");
    }

    #[test]
    fn fading_channel_estimated_accurately_at_high_snr() {
        let cell = CellConfig::default();
        let user = UserConfig::new(16, 4, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(42);
        let channel = MimoChannel::randomize(4, 4, 4, &mut rng);
        let rel_err = estimate_error(&cell, &user, &channel, 40.0, 7);
        assert!(rel_err < 0.05, "relative error {rel_err}");
    }

    #[test]
    fn windowing_improves_noisy_estimates() {
        // At moderate SNR the windowed estimator must beat the raw matched
        // filter (which is what the window is for).
        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(16, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let channel = MimoChannel::randomize(2, 1, 3, &mut rng);
        let mut data_rng = Xoshiro256::seed_from_u64(10);
        let input = synthesize_user_over_channel(
            &cell,
            &user,
            TurboMode::Passthrough,
            5.0,
            &channel,
            &mut data_rng,
        );
        let planner = FftPlanner::new();
        let windowed = estimate_path(&cell, &input, 0, 0, 0, &planner);
        // Raw estimate: matched filter only.
        let reference = reference_for_layer(&cell, &user, 0);
        let mut raw = vec![Complex32::ZERO; user.subcarriers()];
        lte_dsp::matched_filter::matched_filter(
            input.slots[0].reference.antenna(0),
            reference.samples(),
            &mut raw,
        );
        let truth = channel.frequency_response(0, 0, user.subcarriers());
        let err = |est: &[Complex32]| -> f64 {
            est.iter()
                .zip(&truth)
                .map(|(e, t)| (*e - *t).norm_sqr() as f64)
                .sum()
        };
        assert!(
            err(&windowed) < err(&raw),
            "windowed {} !< raw {}",
            err(&windowed),
            err(&raw)
        );
    }

    #[test]
    fn estimate_container_shape() {
        let est = ChannelEstimate::empty(4, 3, 24);
        assert_eq!(est.n_rx(), 4);
        assert_eq!(est.n_layers(), 3);
        assert_eq!(est.n_sc(), 24);
    }

    #[test]
    fn reset_matches_empty_and_reuses_storage() {
        let mut est = ChannelEstimate::empty(4, 2, 36);
        *est.path_mut(0, 1) = vec![Complex32::ONE; 36];
        est.reset(2, 4, 12);
        assert_eq!(est, ChannelEstimate::empty(2, 4, 12));
        // Shrinking then re-growing within capacity must not lose shape.
        est.reset(4, 2, 36);
        assert_eq!(est, ChannelEstimate::empty(4, 2, 36));
    }

    #[test]
    fn estimate_path_into_is_independent_of_dirty_scratch() {
        let cell = CellConfig::default();
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let channel = MimoChannel::randomize(4, 2, 3, &mut rng);
        let input = synthesize_user_over_channel(
            &cell,
            &user,
            TurboMode::Passthrough,
            15.0,
            &channel,
            &mut rng,
        );
        let planner = FftPlanner::new();
        let mut arena = lte_dsp::arena::ScratchArena::new();
        let mut out = vec![Complex32::ONE; user.subcarriers()]; // dirty
        for slot in 0..2 {
            for rx in 0..4 {
                for layer in 0..2 {
                    let fresh = estimate_path(&cell, &input, slot, rx, layer, &planner);
                    estimate_path_into(
                        &cell, &input, slot, rx, layer, &planner, &mut arena, &mut out,
                    );
                    assert_eq!(fresh, out, "slot {slot} rx {rx} layer {layer}");
                }
            }
        }
    }

    #[test]
    fn noise_var_with_arena_is_independent_of_dirty_scratch() {
        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(8, 2, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(13);
        let input = crate::tx::synthesize_user_with_mode(
            &cell,
            &user,
            TurboMode::Passthrough,
            12.0,
            &mut rng,
        );
        let planner = FftPlanner::new();
        let mut arena = ScratchArena::new();
        for slot in 0..2 {
            for rx in 0..2 {
                let fresh = &mut ScratchArena::new();
                let fresh = estimate_noise_var_with_arena(&cell, &input, slot, rx, &planner, fresh);
                let warm =
                    estimate_noise_var_with_arena(&cell, &input, slot, rx, &planner, &mut arena);
                assert_eq!(fresh.to_bits(), warm.to_bits(), "slot {slot} rx {rx}");
            }
        }
        assert!(arena.pooled_buffers() >= 2, "buffers must return to pool");
    }
}

/// Blind noise-variance estimation from one received reference symbol,
/// with all working buffers drawn from `arena`.
///
/// After the matched filter and IFFT, the channel energy of every layer
/// is confined to a window around its cyclic-shift offset; the remaining
/// taps contain only noise with per-tap variance `σ²/N` (the IFFT's
/// `1/N` scaling). Averaging their power and scaling by `N` recovers the
/// per-subcarrier noise variance — the receiver does not need the true
/// value the synthesiser used.
///
/// # Panics
///
/// Panics if `slot` or `rx` is out of range.
pub fn estimate_noise_var_with_arena(
    cell: &CellConfig,
    input: &UserInput,
    slot: usize,
    rx: usize,
    planner: &FftPlanner,
    arena: &mut ScratchArena,
) -> f32 {
    let received = input.slots[slot].reference.antenna(rx);
    let n = received.len();
    let reference = reference_for_layer_cached(cell, &input.config, 0);
    let mut work = arena.take_c32(n);
    work.resize(n, Complex32::ZERO);
    matched_filter(received, reference.samples(), &mut work);
    planner
        .inverse(n)
        .process_with_scratch(&mut work, arena.fft_scratch(n));
    // Mark the kept window of every layer (relative to layer 0's
    // matched filter, layer l sits at offset l·N/L).
    let window = ChannelWindow::for_len(n);
    let layers = crate::tx::shift_denominator(&input.config);
    let mut excluded = arena.take_u8(n);
    excluded.resize(n, 0);
    for l in 0..input.config.layers {
        let offset = l * n / layers;
        for t in 0..window.head {
            excluded[(offset + t) % n] = 1;
        }
        for t in 0..window.tail {
            excluded[(offset + n - 1 - t) % n] = 1;
        }
    }
    let mut acc = 0.0f64;
    let mut count = 0usize;
    for (t, z) in work.iter().enumerate() {
        if excluded[t] == 0 {
            acc += z.norm_sqr() as f64;
            count += 1;
        }
    }
    arena.recycle_c32(work);
    arena.recycle_u8(excluded);
    if count == 0 {
        return input.noise_var; // degenerate tiny allocation
    }
    (acc / count as f64 * n as f64) as f32
}

#[cfg(test)]
mod noise_tests {
    use super::*;
    use crate::params::{TurboMode, UserConfig};
    use crate::tx::synthesize_user_with_mode;
    use lte_dsp::{Modulation, Xoshiro256};

    #[test]
    fn noise_estimate_tracks_truth() {
        let cell = CellConfig::with_antennas(2);
        let planner = FftPlanner::new();
        let arena = &mut ScratchArena::new();
        for snr_db in [0.0, 10.0, 20.0] {
            let user = UserConfig::new(16, 2, Modulation::Qpsk);
            let mut rng = Xoshiro256::seed_from_u64(42);
            // Average the estimate over several realisations.
            let mut est = 0.0f64;
            let mut truth = 0.0f64;
            let trials = 12;
            for _ in 0..trials {
                let input = synthesize_user_with_mode(
                    &cell,
                    &user,
                    TurboMode::Passthrough,
                    snr_db,
                    &mut rng,
                );
                est += estimate_noise_var_with_arena(&cell, &input, 0, 0, &planner, arena) as f64;
                truth += input.noise_var as f64;
            }
            let ratio = est / truth;
            assert!(
                (0.6..=1.6).contains(&ratio),
                "snr {snr_db} dB: estimate/truth = {ratio:.2}"
            );
        }
    }

    #[test]
    fn estimate_is_positive_even_on_clean_channels() {
        let cell = CellConfig::with_antennas(2);
        let planner = FftPlanner::new();
        let arena = &mut ScratchArena::new();
        let user = UserConfig::new(8, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(7);
        let input = synthesize_user_with_mode(&cell, &user, TurboMode::Passthrough, 50.0, &mut rng);
        let est = estimate_noise_var_with_arena(&cell, &input, 0, 0, &planner, arena);
        assert!(est > 0.0 && est.is_finite());
    }
}

//! MIMO fading and AWGN channel models.
//!
//! The benchmark synthesises its subframe input data at initialisation; to
//! make the receiver do realistic work we pass the transmitted grid through
//! a frequency-selective block-fading MIMO channel with additive white
//! Gaussian noise. Each (receive antenna, layer) pair gets an independent
//! L-tap channel impulse response, constant over a subframe — the standard
//! quasi-static model for a 1 ms slot at walking speeds.

use crate::complex::Complex32;
use crate::rng::Xoshiro256;

/// A frequency-selective MIMO channel realisation for one subframe.
///
/// # Example
///
/// ```
/// use lte_dsp::channel::MimoChannel;
/// use lte_dsp::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// let ch = MimoChannel::randomize(2, 2, 4, &mut rng);
/// let h = ch.frequency_response(0, 1, 48); // rx 0, layer 1, 48 subcarriers
/// assert_eq!(h.len(), 48);
/// ```
#[derive(Clone, Debug)]
pub struct MimoChannel {
    n_rx: usize,
    n_layers: usize,
    /// `taps[rx][layer]` — time-domain impulse response.
    taps: Vec<Vec<Vec<Complex32>>>,
}

impl MimoChannel {
    /// Draws an independent Rayleigh channel with `n_taps` equal-average-
    /// power taps for each (rx, layer) pair, normalised to unit average
    /// energy per pair.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn randomize(n_rx: usize, n_layers: usize, n_taps: usize, rng: &mut Xoshiro256) -> Self {
        assert!(
            n_rx > 0 && n_layers > 0 && n_taps > 0,
            "dimensions must be positive"
        );
        let scale = (1.0 / (n_taps as f64)).sqrt() as f32 / std::f32::consts::SQRT_2;
        let taps = (0..n_rx)
            .map(|_| {
                (0..n_layers)
                    .map(|_| {
                        (0..n_taps)
                            .map(|_| {
                                Complex32::new(
                                    rng.next_gaussian() as f32 * scale,
                                    rng.next_gaussian() as f32 * scale,
                                )
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        MimoChannel {
            n_rx,
            n_layers,
            taps,
        }
    }

    /// An ideal channel: identity mapping from layer `l` to antenna `l`
    /// (requires `n_rx >= n_layers`), flat response. Useful for tests.
    pub fn identity(n_rx: usize, n_layers: usize) -> Self {
        assert!(n_rx >= n_layers, "identity channel needs n_rx >= n_layers");
        let taps = (0..n_rx)
            .map(|rx| {
                (0..n_layers)
                    .map(|l| {
                        vec![if rx == l {
                            Complex32::ONE
                        } else {
                            Complex32::ZERO
                        }]
                    })
                    .collect()
            })
            .collect();
        MimoChannel {
            n_rx,
            n_layers,
            taps,
        }
    }

    /// Number of receive antennas.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Number of transmit layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Frequency response of the (rx, layer) path over `n_sc` contiguous
    /// subcarriers: the DFT of the tap vector evaluated at fractions of the
    /// allocation width.
    ///
    /// # Panics
    ///
    /// Panics if `rx` or `layer` is out of range, or `n_sc == 0`.
    pub fn frequency_response(&self, rx: usize, layer: usize, n_sc: usize) -> Vec<Complex32> {
        assert!(n_sc > 0, "need at least one subcarrier");
        let taps = &self.taps[rx][layer];
        (0..n_sc)
            .map(|k| {
                let mut h = Complex32::ZERO;
                for (t, &tap) in taps.iter().enumerate() {
                    let theta = -std::f64::consts::TAU * (t as f64) * (k as f64)
                        / (n_sc.max(2 * taps.len())) as f64;
                    h += tap * Complex32::new(theta.cos() as f32, theta.sin() as f32);
                }
                h
            })
            .collect()
    }

    /// Precomputes all `(rx, layer)` frequency responses for an
    /// allocation: `responses[rx][layer][subcarrier]`. The taps are
    /// static per subframe, so callers applying the channel to many
    /// symbols should hoist this once (see [`apply_with`]).
    ///
    /// Every path has the same tap count (each constructor draws a
    /// uniform tap vector), so the `(tap, subcarrier)` twiddle table is
    /// built once per call rather than once per path; each response is
    /// then bit-identical to [`frequency_response`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `n_sc == 0`.
    ///
    /// [`apply_with`]: MimoChannel::apply_with
    /// [`frequency_response`]: MimoChannel::frequency_response
    pub fn responses(&self, n_sc: usize) -> Vec<Vec<Vec<Complex32>>> {
        assert!(n_sc > 0, "need at least one subcarrier");
        let n_taps = self.taps[0][0].len();
        // The same expression, in the same order, as frequency_response.
        let twiddles: Vec<Complex32> = (0..n_sc)
            .flat_map(|k| {
                (0..n_taps).map(move |t| {
                    let theta = -std::f64::consts::TAU * (t as f64) * (k as f64)
                        / (n_sc.max(2 * n_taps)) as f64;
                    Complex32::new(theta.cos() as f32, theta.sin() as f32)
                })
            })
            .collect();
        self.taps
            .iter()
            .map(|per_layer| {
                per_layer
                    .iter()
                    .map(|taps| {
                        debug_assert_eq!(taps.len(), n_taps, "uniform tap count");
                        twiddles
                            .chunks_exact(n_taps)
                            .map(|row| {
                                let mut h = Complex32::ZERO;
                                for (&tap, &w) in taps.iter().zip(row) {
                                    h += tap * w;
                                }
                                h
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Applies the channel to per-layer frequency-domain symbols:
    /// `y[rx][k] = Σ_layer H[rx][layer][k] · x[layer][k]`.
    ///
    /// Convenience wrapper that recomputes the frequency responses; use
    /// [`responses`] + [`apply_with`] when processing many symbols of
    /// one subframe.
    ///
    /// # Panics
    ///
    /// Panics if `layers.len() != n_layers` or the layers have unequal
    /// lengths.
    ///
    /// [`responses`]: MimoChannel::responses
    /// [`apply_with`]: MimoChannel::apply_with
    pub fn apply(&self, layers: &[Vec<Complex32>]) -> Vec<Vec<Complex32>> {
        assert_eq!(layers.len(), self.n_layers, "layer count mismatch");
        let n_sc = layers.first().map_or(0, |l| l.len());
        self.apply_with(&self.responses(n_sc), layers)
    }

    /// [`apply`](MimoChannel::apply) with precomputed frequency
    /// responses.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent.
    pub fn apply_with(
        &self,
        responses: &[Vec<Vec<Complex32>>],
        layers: &[Vec<Complex32>],
    ) -> Vec<Vec<Complex32>> {
        assert_eq!(layers.len(), self.n_layers, "layer count mismatch");
        assert_eq!(responses.len(), self.n_rx, "response antenna mismatch");
        let n_sc = layers[0].len();
        for l in layers {
            assert_eq!(l.len(), n_sc, "all layers must have equal length");
        }
        responses
            .iter()
            .map(|per_layer| {
                assert_eq!(per_layer.len(), self.n_layers, "response layer mismatch");
                (0..n_sc)
                    .map(|k| {
                        let mut y = Complex32::ZERO;
                        for (l, x) in layers.iter().enumerate() {
                            y = y.mul_add(per_layer[l][k], x[k]);
                        }
                        y
                    })
                    .collect()
            })
            .collect()
    }
}

/// Adds complex AWGN with total noise power `noise_var` (`E[|n|²]`) to a
/// block, in place.
pub fn add_awgn(samples: &mut [Complex32], noise_var: f32, rng: &mut Xoshiro256) {
    let sigma = (noise_var / 2.0).sqrt();
    for z in samples.iter_mut() {
        *z += Complex32::new(
            sigma * rng.next_gaussian() as f32,
            sigma * rng.next_gaussian() as f32,
        );
    }
}

/// Noise variance that achieves the given SNR (dB) for unit-power signal.
pub fn noise_var_for_snr_db(snr_db: f64) -> f32 {
    crate::math::from_db(-snr_db) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;

    #[test]
    fn identity_channel_passes_through() {
        let ch = MimoChannel::identity(2, 2);
        let layers = vec![
            vec![Complex32::new(1.0, 0.0); 12],
            vec![Complex32::new(0.0, 1.0); 12],
        ];
        let y = ch.apply(&layers);
        assert_eq!(y[0], layers[0]);
        assert_eq!(y[1], layers[1]);
    }

    #[test]
    fn random_channel_has_unit_average_energy() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let mut total = 0.0f64;
        let trials = 500;
        for _ in 0..trials {
            let ch = MimoChannel::randomize(1, 1, 4, &mut rng);
            let e: f32 = ch.taps[0][0].iter().map(|t| t.norm_sqr()).sum();
            total += e as f64;
        }
        let avg = total / trials as f64;
        assert!((avg - 1.0).abs() < 0.1, "average tap energy {avg}");
    }

    #[test]
    fn frequency_response_is_selective_with_multiple_taps() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let ch = MimoChannel::randomize(1, 1, 6, &mut rng);
        let h = ch.frequency_response(0, 0, 120);
        let first = h[0].abs();
        let varied = h.iter().any(|z| (z.abs() - first).abs() > 0.05);
        assert!(varied, "6-tap channel should be frequency selective");
    }

    #[test]
    fn flat_for_single_tap() {
        let mut rng = Xoshiro256::seed_from_u64(12);
        let ch = MimoChannel::randomize(2, 1, 1, &mut rng);
        let h = ch.frequency_response(1, 0, 36);
        for z in &h {
            assert!((z.abs() - h[0].abs()).abs() < 1e-6);
        }
    }

    #[test]
    fn responses_equal_frequency_response_bit_for_bit() {
        // Every PRB width 1–100 × 1–4 layers × {1, 2, 4} antennas: 7 000
        // paths, tap counts 1–6, each through the shared twiddle table.
        let mut rng = Xoshiro256::seed_from_u64(15);
        let mut paths = 0;
        for prbs in 1..=100 {
            let n_sc = 12 * prbs;
            let n_taps = (n_sc / 16).clamp(1, 6);
            for n_layers in 1..=4 {
                for n_rx in [1, 2, 4] {
                    let ch = MimoChannel::randomize(n_rx, n_layers, n_taps, &mut rng);
                    let all = ch.responses(n_sc);
                    for (rx, per_layer) in all.iter().enumerate() {
                        for (layer, h) in per_layer.iter().enumerate() {
                            let direct = ch.frequency_response(rx, layer, n_sc);
                            let bits = |v: &[Complex32]| -> Vec<(u32, u32)> {
                                v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                            };
                            assert_eq!(bits(h), bits(&direct), "{n_sc} sc, ({rx}, {layer})");
                            paths += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(paths, 7000);
    }

    #[test]
    fn apply_superimposes_layers() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let ch = MimoChannel::randomize(2, 2, 1, &mut rng);
        let x0 = vec![Complex32::ONE; 12];
        let x1 = vec![Complex32::I; 12];
        let both = ch.apply(&[x0.clone(), x1.clone()]);
        let only0 = ch.apply(&[x0, vec![Complex32::ZERO; 12]]);
        let only1 = ch.apply(&[vec![Complex32::ZERO; 12], x1]);
        for rx in 0..2 {
            for k in 0..12 {
                let sum = only0[rx][k] + only1[rx][k];
                assert!((both[rx][k] - sum).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn awgn_power_matches_request() {
        let mut rng = Xoshiro256::seed_from_u64(14);
        let mut block = vec![Complex32::ZERO; 50_000];
        add_awgn(&mut block, 0.25, &mut rng);
        let p = mean_power(&block);
        assert!((p - 0.25).abs() < 0.01, "noise power {p}");
    }

    #[test]
    fn snr_to_noise_var() {
        assert!((noise_var_for_snr_db(0.0) - 1.0).abs() < 1e-6);
        assert!((noise_var_for_snr_db(10.0) - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "layer count")]
    fn apply_checks_layer_count() {
        MimoChannel::identity(2, 2).apply(&[vec![Complex32::ZERO; 4]]);
    }
}

/// A standardised power-delay profile (TS 36.101 Annex B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DelayProfile {
    /// Extended Pedestrian A: 410 ns excess delay, mild selectivity.
    Epa,
    /// Extended Vehicular A: 2.5 µs excess delay.
    Eva,
    /// Extended Typical Urban: 5 µs excess delay, strong selectivity.
    Etu,
}

impl DelayProfile {
    /// `(delay in ns, relative power in dB)` taps of the profile.
    pub fn taps(self) -> &'static [(f64, f64)] {
        match self {
            DelayProfile::Epa => &[
                (0.0, 0.0),
                (30.0, -1.0),
                (70.0, -2.0),
                (90.0, -3.0),
                (110.0, -8.0),
                (190.0, -17.2),
                (410.0, -20.8),
            ],
            DelayProfile::Eva => &[
                (0.0, 0.0),
                (30.0, -1.5),
                (150.0, -1.4),
                (310.0, -3.6),
                (370.0, -0.6),
                (710.0, -9.1),
                (1090.0, -7.0),
                (1730.0, -12.0),
                (2510.0, -16.9),
            ],
            DelayProfile::Etu => &[
                (0.0, -1.0),
                (50.0, -1.0),
                (120.0, -1.0),
                (200.0, 0.0),
                (230.0, 0.0),
                (500.0, 0.0),
                (1600.0, -3.0),
                (2300.0, -5.0),
                (5000.0, -7.0),
            ],
        }
    }

    /// Per-sample-delay tap powers for an allocation of `n_sc`
    /// subcarriers (sample rate `n_sc × 15 kHz`): profile delays are
    /// quantised to sample indices and coincident taps' powers combined,
    /// normalised to unit total power.
    pub fn sampled_powers(self, n_sc: usize) -> Vec<f64> {
        assert!(n_sc > 0, "need at least one subcarrier");
        let sample_rate = n_sc as f64 * 15_000.0;
        let mut powers: Vec<f64> = Vec::new();
        for &(delay_ns, power_db) in self.taps() {
            let idx = (delay_ns * 1e-9 * sample_rate).round() as usize;
            if powers.len() <= idx {
                powers.resize(idx + 1, 0.0);
            }
            powers[idx] += crate::math::from_db(power_db);
        }
        let total: f64 = powers.iter().sum();
        for p in &mut powers {
            *p /= total;
        }
        powers
    }
}

impl MimoChannel {
    /// Draws a Rayleigh channel whose tap powers follow a standardised
    /// delay profile at the allocation's sample rate.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn from_profile(
        n_rx: usize,
        n_layers: usize,
        profile: DelayProfile,
        n_sc: usize,
        rng: &mut Xoshiro256,
    ) -> Self {
        assert!(n_rx > 0 && n_layers > 0, "dimensions must be positive");
        let powers = profile.sampled_powers(n_sc);
        let taps = (0..n_rx)
            .map(|_| {
                (0..n_layers)
                    .map(|_| {
                        powers
                            .iter()
                            .map(|&p| {
                                let sigma = (p / 2.0).sqrt() as f32;
                                Complex32::new(
                                    sigma * rng.next_gaussian() as f32,
                                    sigma * rng.next_gaussian() as f32,
                                )
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        MimoChannel {
            n_rx,
            n_layers,
            taps,
        }
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;

    #[test]
    fn profiles_normalise_to_unit_power() {
        for profile in [DelayProfile::Epa, DelayProfile::Eva, DelayProfile::Etu] {
            for n_sc in [12usize, 120, 1200] {
                let p = profile.sampled_powers(n_sc);
                let total: f64 = p.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "{profile:?} n_sc={n_sc}");
            }
        }
    }

    #[test]
    fn delay_spread_orders_epa_eva_etu() {
        let n_sc = 1200; // 18 MHz sampling: resolves the profiles
        let spread = |p: DelayProfile| p.sampled_powers(n_sc).len();
        assert!(spread(DelayProfile::Epa) < spread(DelayProfile::Eva));
        assert!(spread(DelayProfile::Eva) < spread(DelayProfile::Etu));
    }

    #[test]
    fn narrow_allocation_collapses_epa_to_nearly_flat() {
        // 12 subcarriers = 180 kHz sampling: EPA's 410 ns is < 1 sample.
        let p = DelayProfile::Epa.sampled_powers(12);
        assert_eq!(p.len(), 1, "all EPA taps collapse at 180 kHz: {p:?}");
    }

    #[test]
    fn profile_channel_has_unit_average_energy() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let trials = 400;
        let mut total = 0.0f64;
        for _ in 0..trials {
            let ch = MimoChannel::from_profile(1, 1, DelayProfile::Eva, 600, &mut rng);
            let e: f32 = ch.taps[0][0].iter().map(|t| t.norm_sqr()).sum();
            total += e as f64;
        }
        let avg = total / trials as f64;
        assert!((avg - 1.0).abs() < 0.1, "average energy {avg}");
    }

    #[test]
    fn etu_is_more_selective_than_epa() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let variation = |profile: DelayProfile, rng: &mut Xoshiro256| {
            let mut acc = 0.0f64;
            for _ in 0..50 {
                let ch = MimoChannel::from_profile(1, 1, profile, 600, rng);
                let h = ch.frequency_response(0, 0, 600);
                let mean: f32 = h.iter().map(|z| z.abs()).sum::<f32>() / 600.0;
                let var: f32 = h.iter().map(|z| (z.abs() - mean).powi(2)).sum::<f32>() / 600.0;
                acc += (var / (mean * mean).max(1e-9)) as f64;
            }
            acc
        };
        let epa = variation(DelayProfile::Epa, &mut rng);
        let etu = variation(DelayProfile::Etu, &mut rng);
        assert!(etu > epa, "ETU {etu} must vary more than EPA {epa}");
    }
}

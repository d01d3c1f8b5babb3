//! The subframe workload estimator and active-core controller (§VI-A/B).
//!
//! The paper's key observation (Fig. 11): for a fixed (layers,
//! modulation) pair, system activity is linear in the number of PRBs —
//! `estimated_user_activity = PRBs × k_{L,M}` (Eq. 3) — and a subframe's
//! workload is the sum over its users (Eq. 4). The twelve `k_{L,M}`
//! slopes are fitted from steady-state single-user calibration runs.
//! The controller then sizes the active core set per subframe:
//! `active_cores = estimated_activity × max_cores + 2` (Eq. 5).

use lte_dsp::math::slope_through_origin;
use lte_dsp::Modulation;
use lte_phy::params::SubframeConfig;

/// Index of a modulation in the estimator's tables.
fn mod_index(m: Modulation) -> usize {
    match m {
        Modulation::Qpsk => 0,
        Modulation::Qam16 => 1,
        Modulation::Qam64 => 2,
    }
}

/// One calibration sample: measured activity at a given PRB count for a
/// fixed (layers, modulation) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationPoint {
    /// PRBs of the single calibration user.
    pub prbs: usize,
    /// Measured activity in `[0, 1]`.
    pub activity: f64,
}

/// The fitted per-(layers, modulation) activity slopes.
///
/// # Example
///
/// ```
/// use lte_power::WorkloadEstimator;
/// use lte_power::estimator::CalibrationPoint;
/// use lte_dsp::Modulation;
///
/// let mut est = WorkloadEstimator::new();
/// // Perfectly linear calibration data: activity = 0.001 × PRBs.
/// let pts: Vec<CalibrationPoint> = (1..=20)
///     .map(|p| CalibrationPoint { prbs: 10 * p, activity: 0.01 * p as f64 })
///     .collect();
/// est.fit(1, Modulation::Qpsk, &pts);
/// assert!((est.k(1, Modulation::Qpsk) - 0.001).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadEstimator {
    /// `k[layers-1][modulation]` slopes (activity per PRB).
    k: [[f64; 3]; 4],
}

impl WorkloadEstimator {
    /// An estimator with all slopes zero (must be fitted or loaded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an estimator from explicit slopes `k[layers-1][modulation]`.
    pub fn from_slopes(k: [[f64; 3]; 4]) -> Self {
        WorkloadEstimator { k }
    }

    /// The flat library calibration the serve and deploy drivers govern
    /// by: 0.002, 0.003 and 0.004 activity per PRB for QPSK, 16-QAM and
    /// 64-QAM at every layer count, fixed once offline instead of fitted
    /// by a calibration campaign at startup. It measures no host; a
    /// fitted calibration replaces it here, for both drivers at once.
    pub fn library_calibration() -> Self {
        Self::from_slopes([[0.002, 0.003, 0.004]; 4])
    }

    /// Fits the slope for one (layers, modulation) pair from calibration
    /// samples (least squares through the origin, per Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is not in `1..=4`.
    pub fn fit(&mut self, layers: usize, modulation: Modulation, points: &[CalibrationPoint]) {
        assert!((1..=4).contains(&layers), "layers must be 1..=4");
        let x: Vec<f64> = points.iter().map(|p| p.prbs as f64).collect();
        let y: Vec<f64> = points.iter().map(|p| p.activity).collect();
        self.k[layers - 1][mod_index(modulation)] = slope_through_origin(&x, &y);
    }

    /// The slope `k_{L,M}`.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is not in `1..=4`.
    pub fn k(&self, layers: usize, modulation: Modulation) -> f64 {
        assert!((1..=4).contains(&layers), "layers must be 1..=4");
        self.k[layers - 1][mod_index(modulation)]
    }

    /// Estimated activity of one user (Eq. 3), not clamped.
    pub fn user_activity(&self, prbs: usize, layers: usize, modulation: Modulation) -> f64 {
        prbs as f64 * self.k(layers, modulation)
    }

    /// Estimated activity of a subframe (Eq. 4), clamped to `[0, 1]`.
    pub fn subframe_activity(&self, subframe: &SubframeConfig) -> f64 {
        subframe
            .users
            .iter()
            .map(|u| self.user_activity(u.prbs, u.layers, u.modulation))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// `true` once every slope has been fitted to a positive value.
    pub fn is_calibrated(&self) -> bool {
        self.k.iter().flatten().all(|&k| k > 0.0)
    }

    /// Serialises the fitted slopes under a versioned schema, so saved
    /// calibrations from one build are refused (not misread) by an
    /// incompatible later one.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"schema\": \"");
        out.push_str(Self::SCHEMA);
        out.push_str("\",\n  \"k\": [\n");
        for (l, row) in self.k.iter().enumerate() {
            out.push_str("    [");
            for (m, v) in row.iter().enumerate() {
                if m > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{v:?}"));
            }
            out.push(']');
            if l + 1 < self.k.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a calibration saved by [`WorkloadEstimator::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description when the schema tag is missing or foreign,
    /// or when the slope table is not 4 rows (layers) of 3 slopes
    /// (modulations), each finite and positive.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let tag = format!("\"{}\"", Self::SCHEMA);
        if !text.contains(&tag) {
            return Err(format!(
                "calibration file lacks the `{}` schema tag",
                Self::SCHEMA
            ));
        }
        let k_start = text
            .find("\"k\"")
            .ok_or_else(|| "calibration file lacks a \"k\" slope table".to_string())?;
        // The slope table is the only nested array: read the 12 numbers
        // between the "k" key and the close of its outer bracket.
        let open = text[k_start..]
            .find('[')
            .map(|i| k_start + i)
            .ok_or_else(|| "slope table is not an array".to_string())?;
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in text[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(open + i);
                        break;
                    }
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| "unterminated slope table".to_string())?;
        let table = &text[open + 1..end];
        fn tokens(s: &str) -> impl Iterator<Item = &str> {
            s.split(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .filter(|s| !s.is_empty())
        }
        let numbers: Result<Vec<f64>, String> = tokens(table)
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|e| format!("bad slope `{s}`: {e}"))
            })
            .collect();
        let numbers = numbers?;
        if numbers.len() != 12 {
            return Err(format!(
                "slope table holds {} numbers, expected 12",
                numbers.len()
            ));
        }
        // Twelve numbers laid out 3×4 would otherwise read as 4×3.
        let rows: Vec<usize> = (table.split('[').skip(1))
            .map(|row| row.split(']').next().map_or(0, |r| tokens(r).count()))
            .collect();
        if rows != [3; 4] {
            return Err(format!(
                "slope table rows hold {rows:?} slopes, expected 4 rows of 3"
            ));
        }
        if numbers.iter().any(|v| !v.is_finite()) {
            return Err("slope table holds non-finite values".to_string());
        }
        let mut k = [[0.0; 3]; 4];
        for (i, v) in numbers.into_iter().enumerate() {
            k[i / 3][i % 3] = v;
        }
        let est = WorkloadEstimator { k };
        for layers in 1..=4 {
            for m in Modulation::ALL {
                let slope = est.k(layers, m);
                if slope <= 0.0 {
                    return Err(format!(
                        "slope k({layers} layers, {m}) = {slope} is not positive"
                    ));
                }
            }
        }
        Ok(est)
    }

    /// Version tag of the calibration file format.
    pub const SCHEMA: &'static str = "lte-sim-calibration-v1";
}

/// The active-core controller (Eq. 5 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreController {
    /// Worker cores available (the paper: 62).
    pub max_cores: usize,
    /// Floor on the active set: even a zero-user subframe keeps this
    /// many cores awake so dispatch latency stays bounded.
    pub min_cores: usize,
    /// Over-provisioning margin ("the system is over-provisioned with two
    /// cores").
    pub margin: usize,
}

impl CoreController {
    /// The paper's controller: 62 cores, margin 2, at least one core.
    pub fn paper() -> Self {
        CoreController {
            max_cores: 62,
            min_cores: 1,
            margin: 2,
        }
    }

    /// Eq. 5: `active_cores = estimated_activity × max_cores + margin`,
    /// clamped to `[min_cores, max_cores]`. Non-finite estimates (a
    /// degenerate calibration divides by zero) fail safe to `max_cores`.
    pub fn active_cores(&self, estimated_activity: f64) -> usize {
        if !estimated_activity.is_finite() {
            return self.max_cores;
        }
        let raw = (estimated_activity.clamp(0.0, 1.0) * self.max_cores as f64) as usize;
        (raw + self.margin).clamp(self.min_cores.min(self.max_cores), self.max_cores)
    }

    /// Active-core targets for a subframe sequence.
    pub fn targets(
        &self,
        estimator: &WorkloadEstimator,
        subframes: &[SubframeConfig],
    ) -> Vec<usize> {
        subframes
            .iter()
            .map(|sf| self.active_cores(estimator.subframe_activity(sf)))
            .collect()
    }
}

impl Default for CoreController {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_phy::params::UserConfig;

    fn calibrated() -> WorkloadEstimator {
        // Synthetic slopes increasing in layers and modulation order.
        let mut k = [[0.0; 3]; 4];
        for (l, row) in k.iter_mut().enumerate() {
            for (m, v) in row.iter_mut().enumerate() {
                *v = 0.0005 * (l + 1) as f64 * (1.0 + 0.3 * m as f64);
            }
        }
        WorkloadEstimator::from_slopes(k)
    }

    #[test]
    fn fit_recovers_linear_relation() {
        let mut est = WorkloadEstimator::new();
        let pts: Vec<CalibrationPoint> = (1..=50)
            .map(|i| CalibrationPoint {
                prbs: 4 * i,
                activity: 0.002 * (4 * i) as f64,
            })
            .collect();
        est.fit(2, Modulation::Qam16, &pts);
        assert!((est.k(2, Modulation::Qam16) - 0.002).abs() < 1e-12);
        assert!(!est.is_calibrated(), "only one cell fitted");
    }

    #[test]
    fn fit_tolerates_noise() {
        let mut est = WorkloadEstimator::new();
        let pts: Vec<CalibrationPoint> = (1..=100)
            .map(|i| CalibrationPoint {
                prbs: 2 * i,
                activity: 0.001 * (2 * i) as f64 * if i % 2 == 0 { 1.05 } else { 0.95 },
            })
            .collect();
        est.fit(1, Modulation::Qpsk, &pts);
        assert!((est.k(1, Modulation::Qpsk) - 0.001).abs() < 5e-5);
    }

    #[test]
    fn subframe_activity_sums_users() {
        let est = calibrated();
        let sf = SubframeConfig::new(vec![
            UserConfig::new(100, 1, Modulation::Qpsk),
            UserConfig::new(50, 2, Modulation::Qam64),
        ]);
        let expect = 100.0 * est.k(1, Modulation::Qpsk) + 50.0 * est.k(2, Modulation::Qam64);
        assert!((est.subframe_activity(&sf) - expect).abs() < 1e-12);
    }

    #[test]
    fn subframe_activity_clamped_to_one() {
        let est = WorkloadEstimator::from_slopes([[1.0; 3]; 4]);
        let sf = SubframeConfig::new(vec![UserConfig::new(200, 4, Modulation::Qam64)]);
        assert_eq!(est.subframe_activity(&sf), 1.0);
    }

    #[test]
    fn empty_subframe_has_zero_activity() {
        assert_eq!(
            calibrated().subframe_activity(&SubframeConfig::default()),
            0.0
        );
    }

    #[test]
    fn controller_eq5() {
        let c = CoreController::paper();
        assert_eq!(c.active_cores(0.0), 2);
        assert_eq!(c.active_cores(0.5), 33); // 31 + 2
        assert_eq!(c.active_cores(1.0), 62); // clamped to max
        assert_eq!(c.active_cores(2.0), 62);
        assert_eq!(c.active_cores(-1.0), 2);
    }

    #[test]
    fn targets_track_subframes() {
        let est = calibrated();
        let c = CoreController::paper();
        let subframes = vec![
            SubframeConfig::default(),
            SubframeConfig::new(vec![UserConfig::new(200, 4, Modulation::Qam64)]),
        ];
        let t = c.targets(&est, &subframes);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], 2);
        assert!(t[1] > t[0]);
    }

    #[test]
    #[should_panic(expected = "layers")]
    fn out_of_range_layers_rejected() {
        calibrated().k(5, Modulation::Qpsk);
    }

    #[test]
    fn calibration_json_round_trips() {
        let est = calibrated();
        let json = est.to_json();
        assert!(json.contains(WorkloadEstimator::SCHEMA), "{json}");
        let back = WorkloadEstimator::from_json(&json).expect("round trip");
        assert_eq!(back, est, "slopes must survive save/load exactly");
    }

    #[test]
    fn calibration_json_rejects_foreign_schema() {
        let foreign = "{\"schema\": \"something-else-v9\", \"k\": [[0,0,0]]}";
        let err = WorkloadEstimator::from_json(foreign).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn calibration_json_rejects_short_tables() {
        let json = calibrated().to_json().replace(", ", " ");
        // Still 12 numbers (separator change is cosmetic) — now truncate.
        let truncated = format!(
            "{{\"schema\": \"{}\", \"k\": [[0.1, 0.2]]}}",
            WorkloadEstimator::SCHEMA
        );
        assert!(WorkloadEstimator::from_json(&json).is_ok());
        let err = WorkloadEstimator::from_json(&truncated).unwrap_err();
        assert!(err.contains("expected 12"), "{err}");
    }

    #[test]
    fn calibration_json_rejects_slopes_that_are_not_positive() {
        let good = calibrated().to_json();
        let cell = format!("{:?}", calibrated().k(2, Modulation::Qam16));
        for bad in ["-0.001", "0.0"] {
            let err = WorkloadEstimator::from_json(&good.replace(&cell, bad)).unwrap_err();
            assert!(err.contains("k(2 layers, 16QAM)"), "{err}");
        }
    }

    #[test]
    fn calibration_json_rejects_a_3x4_table() {
        let slopes: Vec<String> = (1..=12)
            .map(|i| format!("{:?}", 0.001 * i as f64))
            .collect();
        let rows: Vec<String> = slopes
            .chunks(4)
            .map(|row| format!("[{}]", row.join(", ")))
            .collect();
        let json = format!(
            "{{\"schema\": \"{}\", \"k\": [{}]}}",
            WorkloadEstimator::SCHEMA,
            rows.join(", ")
        );
        let err = WorkloadEstimator::from_json(&json).unwrap_err();
        assert!(err.contains("expected 4 rows of 3"), "{err}");
    }

    #[test]
    fn controller_zero_user_subframe_keeps_min_cores() {
        // Margin 0: a zero-activity subframe would shut every core off
        // without the floor.
        let c = CoreController {
            max_cores: 62,
            min_cores: 1,
            margin: 0,
        };
        assert_eq!(c.active_cores(0.0), 1);
        let est = calibrated();
        let t = c.targets(&est, &[SubframeConfig::default()]);
        assert_eq!(t, vec![1], "zero-user subframe clamps to min_cores");
    }

    #[test]
    fn controller_saturates_above_full_activity() {
        let c = CoreController::paper();
        // Activities past 1.0 (measurement noise, mis-calibration) pin
        // the target at max_cores instead of overflowing it.
        for a in [1.0, 1.5, 10.0, f64::MAX] {
            assert_eq!(c.active_cores(a), 62, "activity {a}");
        }
        assert_eq!(c.active_cores(f64::NAN), 62, "NaN fails safe to max");
        assert_eq!(c.active_cores(f64::INFINITY), 62);
    }

    #[test]
    fn controller_min_respects_small_machines() {
        let c = CoreController {
            max_cores: 2,
            min_cores: 8,
            margin: 0,
        };
        // A floor above the machine size cannot demand phantom cores.
        assert_eq!(c.active_cores(0.0), 2);
    }
}

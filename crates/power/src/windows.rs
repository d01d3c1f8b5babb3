//! Windowed power telemetry: energy-per-subframe and governor
//! target-vs-achieved, aggregated per rolling window.
//!
//! The continuous-telemetry soak builds one per-subframe series from the
//! finished simulation — each subframe's modelled power draw, the
//! governor's active-core target, and the *achieved* busy
//! core-equivalents (Eq. 2 activity × workers) — and folds each window's
//! chunk of it into a plain [`PowerWindowSnapshot`] with energy in
//! joules, energy-per-subframe in millijoules, and the target/achieved
//! means: everything a pure function of the (deterministic) simulation,
//! so two identical soaks serialize byte-identical power windows.

use lte_obs::f64_json;

/// One completed window's power/governor aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PowerWindowSnapshot {
    /// Subframes aggregated into this window.
    pub subframes: u64,
    /// Total energy over the window, joules.
    pub energy_joules: f64,
    /// Energy per subframe, millijoules.
    pub energy_per_subframe_mj: f64,
    /// Mean power draw over the window, watts.
    pub mean_power_watts: f64,
    /// Mean governor active-core target.
    pub mean_target_cores: f64,
    /// Mean achieved busy core-equivalents (activity × workers).
    pub mean_achieved_cores: f64,
}

impl PowerWindowSnapshot {
    /// Folds one window's subframes, each `(watts, target_cores,
    /// achieved_cores)`: the modelled power draw over its dispatch period
    /// of `dt_seconds`, the governor's active-core target and the
    /// achieved busy core-equivalents. `samples` must not be empty.
    pub fn fold(samples: &[(f64, f64, f64)], dt_seconds: f64) -> Self {
        let (mut energy, mut seconds, mut target, mut achieved) = (0.0, 0.0, 0.0, 0.0);
        for &(watts, target_cores, achieved_cores) in samples {
            energy += watts * dt_seconds;
            seconds += dt_seconds;
            target += target_cores;
            achieved += achieved_cores;
        }
        let n = samples.len() as f64;
        Self {
            subframes: samples.len() as u64,
            energy_joules: energy,
            energy_per_subframe_mj: 1_000.0 * energy / n,
            mean_power_watts: if seconds > 0.0 { energy / seconds } else { 0.0 },
            mean_target_cores: target / n,
            mean_achieved_cores: achieved / n,
        }
    }

    /// Flat deterministic JSON object (fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"subframes\":{},\"energy_joules\":{},\
             \"energy_per_subframe_mj\":{},\"mean_power_watts\":{},\
             \"mean_target_cores\":{},\"mean_achieved_cores\":{}}}",
            self.subframes,
            f64_json(self.energy_joules),
            f64_json(self.energy_per_subframe_mj),
            f64_json(self.mean_power_watts),
            f64_json(self.mean_target_cores),
            f64_json(self.mean_achieved_cores),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_integrates_power_over_window() {
        let snap = PowerWindowSnapshot::fold(&[(20.0, 62.0, 31.0), (24.0, 62.0, 33.0)], 0.005);
        assert_eq!(snap.subframes, 2);
        assert!((snap.energy_joules - (20.0 + 24.0) * 0.005).abs() < 1e-12);
        assert!((snap.energy_per_subframe_mj - 110.0).abs() < 1e-9);
        assert!((snap.mean_power_watts - 22.0).abs() < 1e-9);
        assert_eq!(snap.mean_target_cores, 62.0);
        assert_eq!(snap.mean_achieved_cores, 32.0);
    }

    #[test]
    fn chunks_fold_a_partial_last_window() {
        let series = [(14.0, 4.0, 1.0); 25];
        let windows: Vec<_> = series
            .chunks(10)
            .map(|w| PowerWindowSnapshot::fold(w, 0.005))
            .collect();
        let subframes: Vec<u64> = windows.iter().map(|w| w.subframes).collect();
        assert_eq!(subframes, [10, 10, 5]);
        assert_eq!(windows[2].mean_target_cores, 4.0);
    }

    #[test]
    fn snapshot_json_is_stable() {
        let snap = PowerWindowSnapshot::fold(&[(20.0, 62.0, 31.0)], 0.005);
        assert_eq!(
            snap.to_json(),
            "{\"subframes\":1,\"energy_joules\":0.1,\
             \"energy_per_subframe_mj\":100.0,\"mean_power_watts\":20.0,\
             \"mean_target_cores\":62.0,\"mean_achieved_cores\":31.0}"
        );
    }
}

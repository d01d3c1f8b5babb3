//! Deterministic reproductions of every figure and table in the paper's
//! evaluation (§V–§VI), driven by the discrete-event simulator and the
//! calibrated power model.
//!
//! The paper-artifact table ([`crate::artifacts::ARTIFACTS`]) names,
//! for each figure and table, what it writes from these runs and the
//! claim it checks.

use lte_dsp::Modulation;
use lte_model::trace::Trace;
use lte_model::{ParameterModel, RampModel, SteadyModel};
use lte_phy::params::{SubframeConfig, UserConfig, MAX_PRB};
use lte_power::estimator::{CalibrationPoint, CoreController, WorkloadEstimator};
use lte_power::gating::PowerGating;
use lte_power::meter::{mean_windows, rms_windows};
use lte_power::model::PowerModel;
use lte_power::NapPolicy;
use lte_sched::cycles::CostModel;
use lte_sched::sim::{SimConfig, SimReport, Simulator, SubframeLoad};

/// Shared parameters for every experiment.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentContext {
    /// Parameter-model seed.
    pub seed: u64,
    /// Subframes in the main evaluation run (the paper: 68 000).
    pub n_subframes: usize,
    /// Steady-state subframes per calibration point.
    pub cal_subframes: usize,
    /// PRB step of the calibration sweep (the paper: 2).
    pub cal_prb_step: usize,
    /// Receive antennas.
    pub n_rx: usize,
    /// The kernel cost model.
    pub cost: CostModel,
    /// The chip power model.
    pub power: PowerModel,
    /// The active-core controller (Eq. 5).
    pub controller: CoreController,
    /// The power-gating model (Eqs. 6–9).
    pub gating: PowerGating,
    /// Buckets per activity window (200 subframes = 1 s).
    pub activity_window: usize,
    /// Buckets per RMS power window (20 subframes = 100 ms).
    pub rms_window: usize,
}

impl ExperimentContext {
    /// The paper's full evaluation setup: 68 000 subframes, calibration
    /// sweep 2..=200 PRBs in steps of 2.
    pub fn paper() -> Self {
        ExperimentContext {
            seed: 2012,
            n_subframes: 68_000,
            cal_subframes: 60,
            cal_prb_step: 2,
            n_rx: 4,
            cost: CostModel::tilepro64(),
            power: PowerModel::tilepro64(),
            controller: CoreController::paper(),
            gating: PowerGating::paper(),
            activity_window: 200,
            rms_window: 20,
        }
    }

    /// A reduced setup for smoke tests and CI: 4 000 subframes, coarse
    /// calibration sweep.
    pub fn quick() -> Self {
        ExperimentContext {
            n_subframes: 4_000,
            cal_subframes: 24,
            cal_prb_step: 40,
            ..Self::paper()
        }
    }

    /// The simulator configuration for a policy.
    pub fn sim_config(&self, policy: NapPolicy) -> SimConfig {
        let mut cfg = SimConfig::tilepro64(policy.mode());
        cfg.n_workers = self.controller.max_cores;
        cfg
    }

    /// Builds the simulator job for one user.
    pub fn job_for(&self, user: &UserConfig) -> lte_sched::SimJob {
        self.cost.user_job(
            user.prbs,
            user.layers,
            user.modulation.bits_per_symbol(),
            self.n_rx,
        )
    }

    /// Converts subframe configs plus per-subframe targets into simulator
    /// loads.
    pub fn loads(&self, subframes: &[SubframeConfig], targets: &[usize]) -> Vec<SubframeLoad> {
        assert_eq!(subframes.len(), targets.len(), "targets per subframe");
        subframes
            .iter()
            .zip(targets)
            .map(|(sf, &t)| SubframeLoad {
                jobs: sf.users.iter().map(|u| self.job_for(u)).collect(),
                active_target: t,
            })
            .collect()
    }

    /// The evaluation subframe sequence (deterministic in `seed`).
    pub fn subframes(&self) -> Vec<SubframeConfig> {
        RampModel::new(self.seed).subframes(self.n_subframes)
    }

    /// Figs. 7–9: the input-parameter trace of the evaluation run.
    pub fn trace(&self) -> Trace {
        Trace::from_configs(&self.subframes())
    }

    /// Fig. 11: sweeps steady-state single-user configurations and
    /// measures activity, then fits the workload estimator's slopes.
    pub fn run_calibration(&self) -> (Vec<CalibrationCurve>, WorkloadEstimator) {
        let mut curves = Vec::new();
        let mut estimator = WorkloadEstimator::new();
        let cfg = self.sim_config(NapPolicy::NoNap);
        for layers in 1..=4 {
            for modulation in Modulation::ALL {
                let mut points = Vec::new();
                let mut prbs = self.cal_prb_step.max(2);
                while prbs <= MAX_PRB {
                    let user = UserConfig::new(prbs, layers, modulation);
                    let mut model = SteadyModel::new(user);
                    let subframes = model.subframes(self.cal_subframes);
                    let targets = vec![cfg.n_workers; subframes.len()];
                    let report = Simulator::new(cfg).run(&self.loads(&subframes, &targets));
                    points.push(CalibrationPoint {
                        prbs,
                        activity: steady_activity(&report, &cfg),
                    });
                    prbs += self.cal_prb_step;
                }
                estimator.fit(layers, modulation, &points);
                curves.push(CalibrationCurve {
                    layers,
                    modulation,
                    points,
                });
            }
        }
        (curves, estimator)
    }

    /// Fig. 13 / Eq. 5: per-subframe active-core targets.
    pub fn estimated_targets(
        &self,
        estimator: &WorkloadEstimator,
        subframes: &[SubframeConfig],
    ) -> Vec<usize> {
        self.controller.targets(estimator, subframes)
    }

    /// Fig. 12: runs the evaluation sequence (NONAP) and compares
    /// windowed measured activity against the estimator.
    pub fn run_estimation_validation(
        &self,
        estimator: &WorkloadEstimator,
        subframes: &[SubframeConfig],
    ) -> EstimationValidation {
        let cfg = self.sim_config(NapPolicy::NoNap);
        let targets = vec![cfg.n_workers; subframes.len()];
        let report = Simulator::new(cfg).run(&self.loads(subframes, &targets));
        let measured = report.windowed_activity(&cfg, self.activity_window);
        let per_subframe: Vec<f64> = subframes
            .iter()
            .map(|sf| estimator.subframe_activity(sf))
            .collect();
        let estimated = mean_windows(&per_subframe, self.activity_window);
        let errors: Vec<f64> = estimated
            .iter()
            .zip(&measured)
            .map(|(e, m)| e - m)
            .collect();
        let mean_abs_err = errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len().max(1) as f64;
        let max_abs_err = errors.iter().map(|e| e.abs()).fold(0.0, f64::max);
        EstimationValidation {
            estimated,
            measured,
            mean_abs_err,
            max_abs_err,
        }
    }

    /// Runs one policy over the evaluation sequence and converts the
    /// occupancy into power.
    pub fn run_policy(
        &self,
        policy: NapPolicy,
        subframes: &[SubframeConfig],
        targets: &[usize],
    ) -> PolicyRun {
        let cfg = self.sim_config(policy);
        let report = Simulator::new(cfg).run(&self.loads(subframes, targets));
        let power = self.power.power_trace(&report.buckets, &cfg);
        let rms = rms_windows(&power, self.rms_window);
        let mean_total = PowerModel::mean(&power);
        PolicyRun {
            policy,
            mean_total,
            mean_dynamic: mean_total - self.power.base_watts,
            rms,
            power,
            report,
        }
    }

    /// Figs. 14–16 and Tables I–II: calibrates the estimator, runs all
    /// four policies, and applies the analytical power-gating model on
    /// top of NAP+IDLE.
    pub fn run_power_study(&self) -> PowerStudy {
        let (curves, estimator) = self.run_calibration();
        let subframes = self.subframes();
        let targets = self.estimated_targets(&estimator, &subframes);
        let full = vec![self.controller.max_cores; subframes.len()];
        let runs: Vec<PolicyRun> = NapPolicy::ALL
            .iter()
            .map(|&policy| {
                let t = if policy.proactive() { &targets } else { &full };
                self.run_policy(policy, &subframes, t)
            })
            .collect();
        let napidle = runs
            .iter()
            .find(|r| r.policy == NapPolicy::NapIdle)
            .expect("NAP+IDLE always runs");
        let gated_power = self.gating.apply(&napidle.power, &targets);
        let gated_rms = rms_windows(&gated_power, self.rms_window);
        let gated_mean = PowerModel::mean(&gated_power);
        let validation = self.run_estimation_validation(&estimator, &subframes);
        PowerStudy {
            base_watts: self.power.base_watts,
            curves,
            estimator,
            targets,
            runs,
            gated_power,
            gated_rms,
            gated_mean,
            validation,
        }
    }
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self::paper()
    }
}

/// Mean activity of a steady-state run.
///
/// Uses the whole run: the simulator conserves work exactly (every
/// dispatched job's cycles appear in the buckets, with end-of-run drain
/// folded into the final bucket), so total-busy over total-capacity is
/// the unbiased per-subframe activity. Skipping "warm-up" buckets would
/// *inflate* the estimate — spillover from the skipped jobs still lands
/// in the measured window.
fn steady_activity(report: &SimReport, cfg: &SimConfig) -> f64 {
    let busy: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
    busy as f64
        / (cfg.n_workers as u64 * cfg.dispatch_period * report.buckets.len().max(1) as u64) as f64
}

/// One Fig. 11 curve: activity vs PRBs for a (layers, modulation) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationCurve {
    /// Layer count of the calibration user.
    pub layers: usize,
    /// Modulation of the calibration user.
    pub modulation: Modulation,
    /// Measured points across the PRB sweep.
    pub points: Vec<CalibrationPoint>,
}

/// Fig. 12 data: windowed estimated vs measured activity.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimationValidation {
    /// Estimated activity per window (Eq. 4 averaged).
    pub estimated: Vec<f64>,
    /// Measured activity per window (Eq. 2).
    pub measured: Vec<f64>,
    /// Mean absolute error (the paper: 1.2 %).
    pub mean_abs_err: f64,
    /// Maximum absolute error (the paper: 5.4 %, an underestimation).
    pub max_abs_err: f64,
}

/// One policy's run: occupancy, power trace and summary statistics.
#[derive(Clone, Debug)]
pub struct PolicyRun {
    /// The policy.
    pub policy: NapPolicy,
    /// Power per dispatch bucket (5 ms), watts.
    pub power: Vec<f64>,
    /// RMS power per 100 ms window — what the paper plots.
    pub rms: Vec<f64>,
    /// Mean total power.
    pub mean_total: f64,
    /// Mean dynamic power (total minus base) — Table I's view.
    pub mean_dynamic: f64,
    /// The underlying occupancy report.
    pub report: SimReport,
}

/// A Table I/II row.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerRow {
    /// Technique name as printed in the paper.
    pub technique: String,
    /// Average power in watts (dynamic for Table I, total for Table II).
    pub watts: f64,
    /// Reduction relative to NONAP (negative = saving), as a fraction.
    pub vs_nonap: f64,
    /// Reduction relative to IDLE, as a fraction (Table II only).
    pub vs_idle: f64,
}

/// The complete power study (Figs. 11–16, Tables I–II).
#[derive(Clone, Debug)]
pub struct PowerStudy {
    /// The model's base power (14 W).
    pub base_watts: f64,
    /// Fig. 11 calibration curves.
    pub curves: Vec<CalibrationCurve>,
    /// The fitted estimator.
    pub estimator: WorkloadEstimator,
    /// Fig. 13: per-subframe active-core targets.
    pub targets: Vec<usize>,
    /// The four policy runs, in [`NapPolicy::ALL`] order.
    pub runs: Vec<PolicyRun>,
    /// Fig. 16: NAP+IDLE power with analytical gating applied.
    pub gated_power: Vec<f64>,
    /// RMS-metered gated power.
    pub gated_rms: Vec<f64>,
    /// Mean gated power.
    pub gated_mean: f64,
    /// Fig. 12 data.
    pub validation: EstimationValidation,
}

impl PowerStudy {
    /// The run for a policy.
    pub fn run(&self, policy: NapPolicy) -> &PolicyRun {
        self.runs
            .iter()
            .find(|r| r.policy == policy)
            .expect("all policies present")
    }

    /// Table I: average dynamic power (base subtracted).
    pub fn table1(&self) -> Vec<PowerRow> {
        let nonap = self.run(NapPolicy::NoNap).mean_dynamic;
        NapPolicy::ALL
            .iter()
            .map(|&p| {
                let w = self.run(p).mean_dynamic;
                PowerRow {
                    technique: p.to_string(),
                    watts: w,
                    vs_nonap: (w - nonap) / nonap,
                    vs_idle: f64::NAN,
                }
            })
            .collect()
    }

    /// Table II: average total power including the PowerGating row.
    pub fn table2(&self) -> Vec<PowerRow> {
        let nonap = self.run(NapPolicy::NoNap).mean_total;
        let idle = self.run(NapPolicy::Idle).mean_total;
        let mut rows: Vec<PowerRow> = NapPolicy::ALL
            .iter()
            .map(|&p| {
                let w = self.run(p).mean_total;
                PowerRow {
                    technique: p.to_string(),
                    watts: w,
                    vs_nonap: (w - nonap) / nonap,
                    vs_idle: (w - idle) / idle,
                }
            })
            .collect();
        rows.push(PowerRow {
            technique: "PowerGating".to_string(),
            watts: self.gated_mean,
            vs_nonap: (self.gated_mean - nonap) / nonap,
            vs_idle: (self.gated_mean - idle) / idle,
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentContext {
        ExperimentContext {
            n_subframes: 600,
            cal_subframes: 16,
            cal_prb_step: 50,
            ..ExperimentContext::paper()
        }
    }

    #[test]
    fn trace_has_requested_length() {
        let ctx = tiny();
        assert_eq!(ctx.trace().len(), 600);
    }

    #[test]
    fn tables_are_consistent() {
        let ctx = tiny();
        let study = ctx.run_power_study();
        let t1 = study.table1();
        let t2 = study.table2();
        assert_eq!(t1.len(), 4);
        assert_eq!(t2.len(), 5);
        assert_eq!(t1[0].technique, "NONAP");
        assert!((t1[0].vs_nonap).abs() < 1e-12);
        assert_eq!(t2[4].technique, "PowerGating");
        // Table II watts = Table I watts + base.
        for (a, b) in t1.iter().zip(&t2) {
            assert!((a.watts + study.base_watts - b.watts).abs() < 1e-9);
        }
    }

    #[test]
    fn targets_vary_with_load() {
        let ctx = tiny();
        let (_, estimator) = ctx.run_calibration();
        let subframes = ctx.subframes();
        let targets = ctx.estimated_targets(&estimator, &subframes);
        assert_eq!(targets.len(), subframes.len());
        let min = *targets.iter().min().unwrap();
        let max = *targets.iter().max().unwrap();
        assert!(min >= 2);
        assert!(max <= ctx.controller.max_cores);
        assert!(max > min, "targets must vary over the ramp");
    }
}

/// The diurnal-load study testing the paper's closing claim.
#[derive(Clone, Debug)]
pub struct DiurnalStudy {
    /// Mean measured activity over the day (the paper cites ≈ 25 % as
    /// typical).
    pub mean_activity: f64,
    /// Table II-style rows for the diurnal day.
    pub rows: Vec<PowerRow>,
    /// Power-gated saving vs NONAP, as a fraction.
    pub gated_saving_vs_nonap: f64,
    /// Power-gated saving vs IDLE (the best estimate-free technique).
    pub gated_saving_vs_idle: f64,
}

impl ExperimentContext {
    /// Runs the power study over a compressed diurnal day instead of the
    /// paper's stress ramp — §VIII: "most base stations have an average
    /// load of about 25 % and have long periods where the load is much
    /// lower (e.g., nights) … Our technique would show even greater
    /// benefits for a more realistic use case."
    pub fn run_diurnal_study(&self) -> DiurnalStudy {
        use lte_model::DiurnalModel;
        let (_, estimator) = self.run_calibration();
        let mut model = DiurnalModel::new(self.seed, self.n_subframes);
        let subframes = model.subframes(self.n_subframes);
        let targets = self.controller.targets(&estimator, &subframes);
        let full = vec![self.controller.max_cores; subframes.len()];
        let runs: Vec<PolicyRun> = NapPolicy::ALL
            .iter()
            .map(|&policy| {
                let t = if policy.proactive() { &targets } else { &full };
                self.run_policy(policy, &subframes, t)
            })
            .collect();
        let napidle = runs
            .iter()
            .find(|r| r.policy == NapPolicy::NapIdle)
            .expect("NAP+IDLE present");
        let gated = self.gating.apply(&napidle.power, &targets);
        let gated_mean = PowerModel::mean(&gated);
        let cfg = self.sim_config(NapPolicy::NoNap);
        let nonap = runs
            .iter()
            .find(|r| r.policy == NapPolicy::NoNap)
            .expect("NONAP present");
        let idle = runs
            .iter()
            .find(|r| r.policy == NapPolicy::Idle)
            .expect("IDLE present");
        let mean_activity = nonap.report.mean_activity(&cfg);
        let mut rows: Vec<PowerRow> = runs
            .iter()
            .map(|r| PowerRow {
                technique: r.policy.to_string(),
                watts: r.mean_total,
                vs_nonap: (r.mean_total - nonap.mean_total) / nonap.mean_total,
                vs_idle: (r.mean_total - idle.mean_total) / idle.mean_total,
            })
            .collect();
        rows.push(PowerRow {
            technique: "PowerGating".to_string(),
            watts: gated_mean,
            vs_nonap: (gated_mean - nonap.mean_total) / nonap.mean_total,
            vs_idle: (gated_mean - idle.mean_total) / idle.mean_total,
        });
        DiurnalStudy {
            mean_activity,
            gated_saving_vs_nonap: (nonap.mean_total - gated_mean) / nonap.mean_total,
            gated_saving_vs_idle: (idle.mean_total - gated_mean) / idle.mean_total,
            rows,
        }
    }
}

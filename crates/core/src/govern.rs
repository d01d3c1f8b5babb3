//! The `govern` command: the closed power-governance loop on both
//! execution substrates.
//!
//! * **DES side** — replays the evaluation sequence through a stepping
//!   [`SimSession`](lte_sched::SimSession), with a [`PolicyGovernor`]
//!   deciding the Eq. 5 active-core target at every subframe boundary
//!   and auditing its Eq. 4 estimate against the simulator's measured
//!   Eq. 2 activity — the paper's Fig. 12 comparison, taken per
//!   subframe instead of per 1 s window.
//! * **Pool side** — runs the real benchmark under governance: the same
//!   governor parks and unparks workers of the work-stealing pool at
//!   each dispatch boundary, the decoded output is compared
//!   byte-for-byte against an ungoverned run (governance changes where
//!   work runs, never what is computed), and the estimator's Eq. 3
//!   slopes can be re-fitted from measured pool activity so the loop
//!   closes on the machine it actually controls.

use std::time::Duration;

use lte_dsp::Modulation;
use lte_model::{ParameterModel, RampModel, SteadyModel};
use lte_obs::{Event, Recorder};
use lte_phy::params::{CellConfig, SubframeConfig, UserConfig};
use lte_power::estimator::CalibrationPoint;
use lte_power::{
    governed_boundary, CoreController, NapPolicy, PolicyGovernor, UserLoad, WorkloadEstimator,
};
use lte_sched::sim::Simulator;
use lte_sched::TaskPool;

use crate::benchmark::{BenchmarkConfig, UplinkBenchmark};
use crate::experiments::ExperimentContext;

/// Cap on the governed DES burst. The ramp's opening stretch covers the
/// low-load regime where proactive deactivation matters most, and a
/// bounded burst keeps the four-policy sweep (and its recorded trace)
/// snappy.
pub const GOVERN_DES_SUBFRAME_CAP: usize = 600;

/// Metrics-key slug for a policy (`+` is not welcome in metric names).
pub fn policy_slug(policy: NapPolicy) -> &'static str {
    match policy {
        NapPolicy::NoNap => "nonap",
        NapPolicy::Idle => "idle",
        NapPolicy::Nap => "nap",
        NapPolicy::NapIdle => "nap_idle",
    }
}

/// Outcome of one governed DES burst.
#[derive(Clone, Debug)]
pub struct DesGovernRun {
    /// The policy governed under.
    pub policy: NapPolicy,
    /// Subframes in the burst.
    pub subframes: usize,
    /// Mean |estimated − measured| activity over closed windows.
    pub mean_abs_err: f64,
    /// Maximum |estimated − measured| activity over closed windows.
    pub max_abs_err: f64,
    /// Deactivated core time (nap + dead), simulated cycles.
    pub deactivated_cycles: u64,
    /// Mean Eq. 2 activity of the burst.
    pub mean_activity: f64,
    /// Jobs completed (must equal the dispatched total).
    pub jobs_total: usize,
}

/// Runs one governed DES burst: the governor decides a target at every
/// subframe boundary, the session applies it before the dispatch, and
/// each decision is recorded as a [`Event::GovernorDecision`] alongside
/// the simulator's own trace.
pub fn run_des_governed<R: Recorder>(
    ctx: &ExperimentContext,
    estimator: &WorkloadEstimator,
    policy: NapPolicy,
    recorder: &R,
) -> DesGovernRun {
    let all = ctx.subframes();
    let n = all.len().min(GOVERN_DES_SUBFRAME_CAP);
    let subframes = &all[..n];
    let cfg = ctx.sim_config(policy);
    // The static per-load target is the full machine; the governor's
    // per-boundary override supplies the real Eq. 5 target.
    let loads = ctx.loads(subframes, &vec![cfg.n_workers; n]);
    let user_loads: Vec<Vec<UserLoad>> = subframes
        .iter()
        .map(|sf| sf.users.iter().map(UserLoad::from).collect())
        .collect();

    let mut gov = PolicyGovernor::new(policy, estimator.clone(), ctx.controller);
    let mut session = Simulator::with_recorder(cfg, recorder).session(&loads);
    while let Some(boundary) = session.advance() {
        let target = governed_boundary(
            &mut session,
            &mut gov,
            boundary.subframe,
            &user_loads[boundary.subframe],
        );
        if recorder.enabled() {
            let estimated = gov.trace().last().map(|r| r.estimated).unwrap_or_default();
            recorder.record(Event::GovernorDecision {
                subframe: boundary.subframe as u32,
                t: boundary.t,
                policy: policy.name(),
                estimated_activity: estimated,
                target: target.active_cores as u32,
            });
        }
    }
    gov.close(Some(session.boundary_activity()));
    let deactivated_cycles = session.deactivated_cycles();
    let report = session.finish();
    let (mean_abs_err, max_abs_err) = gov.estimation_error().unwrap_or((0.0, 0.0));
    DesGovernRun {
        policy,
        subframes: n,
        mean_abs_err,
        max_abs_err,
        deactivated_cycles,
        mean_activity: report.mean_activity(&cfg),
        jobs_total: report.jobs_total,
    }
}

/// Outcome of one governed real-pool run.
#[derive(Clone, Debug)]
pub struct PoolGovernRun {
    /// The policy governed under.
    pub policy: NapPolicy,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Subframes dispatched.
    pub subframes: usize,
    /// `true` when the governed decoded output equals the ungoverned
    /// run's byte for byte.
    pub identical: bool,
    /// Governor-parked worker time as of the last dispatch boundary,
    /// nanoseconds.
    pub parked_nanos: u64,
    /// Mean |estimated − measured| activity over closed windows, when
    /// at least one window closed.
    pub mean_abs_err: Option<f64>,
    /// Maximum |estimated − measured| activity over closed windows.
    pub max_abs_err: Option<f64>,
    /// Governance decisions taken (one per dispatched subframe).
    pub decisions: usize,
}

/// Runs the real benchmark twice — ungoverned, then governed under
/// `policy` — and compares the decoded output byte for byte.
///
/// # Errors
///
/// Returns the [`PoolError`](lte_sched::PoolError) message when a
/// worker pool cannot be spawned.
pub fn run_pool_governed(
    workers: usize,
    n_subframes: usize,
    delta: Duration,
    seed: u64,
    estimator: &WorkloadEstimator,
    policy: NapPolicy,
) -> Result<PoolGovernRun, lte_sched::PoolError> {
    let subframes = RampModel::new(seed).subframes(n_subframes);
    run_pool_governed_subframes(&subframes, workers, delta, estimator, policy)
}

/// [`run_pool_governed`] over an explicit subframe sequence — the
/// command uses a steady low-load burst to demonstrate parked core
/// time, where a host-scaled ramp would saturate a small worker pool.
///
/// # Errors
///
/// Returns the [`PoolError`](lte_sched::PoolError) message when a
/// worker pool cannot be spawned.
pub fn run_pool_governed_subframes(
    subframes: &[SubframeConfig],
    workers: usize,
    delta: Duration,
    estimator: &WorkloadEstimator,
    policy: NapPolicy,
) -> Result<PoolGovernRun, lte_sched::PoolError> {
    let cfg = BenchmarkConfig {
        workers,
        delta,
        ..BenchmarkConfig::default()
    };
    let baseline = UplinkBenchmark::new(CellConfig::default(), cfg).try_run(subframes)?;

    // Margin 1 (the paper uses 2 on 62 cores): on a handful of host
    // workers a two-core margin would swallow the whole budget and the
    // proactive path would never park anyone.
    let controller = CoreController {
        max_cores: workers,
        min_cores: 1,
        margin: 1,
    };
    let mut gov = PolicyGovernor::new(policy, estimator.clone(), controller);
    let mut parked_nanos = 0u64;
    let mut hook = |pool: &TaskPool, sf_idx: usize, sf: &SubframeConfig| {
        let users: Vec<UserLoad> = sf.users.iter().map(UserLoad::from).collect();
        governed_boundary(&mut &*pool, &mut gov, sf_idx, &users);
        parked_nanos = pool.governor_parked_nanos();
    };
    let governed = UplinkBenchmark::new(CellConfig::default(), cfg)
        .try_run_governed(subframes, Some(&mut hook))?;
    // The pool is gone once the run returns, so the last window stays
    // open; the audit covers every window closed at a boundary.
    gov.close(None);
    let (mean_abs_err, max_abs_err) = match gov.estimation_error() {
        Some((mean, max)) => (Some(mean), Some(max)),
        None => (None, None),
    };
    Ok(PoolGovernRun {
        policy,
        workers,
        subframes: subframes.len(),
        identical: baseline.results == governed.results,
        parked_nanos,
        mean_abs_err,
        max_abs_err,
        decisions: gov.trace().len(),
    })
}

/// The steady low-load burst used to demonstrate parked core time: one
/// minimal user per subframe leaves most of each dispatch window idle
/// even on a two-worker host, so a proactive policy parks real time.
/// (The ramp sequence cannot serve here: slopes calibrated on a small
/// host are steep, and the ramp saturates the pool almost immediately.)
pub fn low_load_subframes(n: usize) -> Vec<SubframeConfig> {
    let user = UserConfig::new(4, 1, Modulation::Qpsk);
    let mut model = SteadyModel::new(user);
    model.subframes(n)
}

/// Re-fits the Eq. 3 slopes from *measured pool activity*: one paced
/// steady single-user run per (layers, modulation) pair at each probe
/// PRB count, with the run's Eq. 2 activity as the calibration point.
/// This closes the loop the paper leaves open — the estimator that
/// governs the real machine is calibrated on the real machine.
///
/// # Errors
///
/// Returns the [`PoolError`](lte_sched::PoolError) message when a
/// worker pool cannot be spawned.
pub fn calibrate_real(
    workers: usize,
    delta: Duration,
    cal_subframes: usize,
    probe_prbs: &[usize],
) -> Result<WorkloadEstimator, lte_sched::PoolError> {
    let mut estimator = WorkloadEstimator::new();
    let cfg = BenchmarkConfig {
        workers,
        delta,
        ..BenchmarkConfig::default()
    };
    for layers in 1..=4 {
        for modulation in Modulation::ALL {
            let mut points = Vec::new();
            for &prbs in probe_prbs {
                let user = UserConfig::new(prbs, layers, modulation);
                let mut model = SteadyModel::new(user);
                let subframes = model.subframes(cal_subframes);
                let run = UplinkBenchmark::new(CellConfig::default(), cfg).try_run(&subframes)?;
                points.push(CalibrationPoint {
                    prbs,
                    activity: run.activity,
                });
            }
            estimator.fit(layers, modulation, &points);
        }
    }
    Ok(estimator)
}

/// Everything the `govern` command measures, renderable as one JSON
/// report (`GOVERN.json`).
#[derive(Clone, Debug, Default)]
pub struct GovernReport {
    /// Worker threads used for the pool runs.
    pub pool_workers: usize,
    /// The governed DES bursts, one per policy.
    pub des: Vec<DesGovernRun>,
    /// The governed pool runs, one per policy.
    pub pool: Vec<PoolGovernRun>,
}

impl GovernReport {
    /// Renders the report as stable, hand-rolled JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"lte-sim-govern-v1\",\n");
        out.push_str(&format!("  \"pool_workers\": {},\n", self.pool_workers));
        out.push_str("  \"des\": [\n");
        for (i, r) in self.des.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"policy\": \"{}\", \"subframes\": {}, \"mean_abs_err\": {}, \"max_abs_err\": {}, \"deactivated_cycles\": {}, \"mean_activity\": {}, \"jobs_total\": {}}}{}\n",
                r.policy,
                r.subframes,
                r.mean_abs_err,
                r.max_abs_err,
                r.deactivated_cycles,
                r.mean_activity,
                r.jobs_total,
                if i + 1 < self.des.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"pool\": [\n");
        for (i, r) in self.pool.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"policy\": \"{}\", \"workers\": {}, \"subframes\": {}, \"identical\": {}, \"parked_nanos\": {}, \"mean_abs_err\": {}, \"decisions\": {}}}{}\n",
                r.policy,
                r.workers,
                r.subframes,
                r.identical,
                r.parked_nanos,
                r.mean_abs_err.unwrap_or(-1.0),
                r.decisions,
                if i + 1 < self.pool.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_obs::{event_json, NoopRecorder, RingRecorder};

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext {
            n_subframes: 200,
            cal_subframes: 12,
            cal_prb_step: 100,
            ..ExperimentContext::quick()
        }
    }

    #[test]
    fn des_governed_burst_audits_every_subframe() {
        let ctx = tiny_ctx();
        let (_curves, estimator) = ctx.run_calibration();
        let run = run_des_governed(&ctx, &estimator, NapPolicy::NapIdle, &NoopRecorder);
        assert_eq!(run.subframes, 200);
        assert!(run.jobs_total > 0, "the burst must dispatch work");
        assert!(
            run.deactivated_cycles > 0,
            "NAP+IDLE must bank nap cycles on the low-load ramp"
        );
        assert!(
            run.mean_abs_err < 0.10,
            "calibrated estimator must track the simulator it was fitted on, got {:.3}",
            run.mean_abs_err
        );
        assert!(run.max_abs_err >= run.mean_abs_err);
    }

    #[test]
    fn nonap_burst_deactivates_nothing_and_matches_ungoverned() {
        let ctx = tiny_ctx();
        let (_curves, estimator) = ctx.run_calibration();
        let governed = run_des_governed(&ctx, &estimator, NapPolicy::NoNap, &NoopRecorder);
        assert_eq!(governed.deactivated_cycles, 0, "NONAP never gates a core");
        // The ungoverned NONAP reference: same loads, full-width target.
        let all = ctx.subframes();
        let subframes = &all[..governed.subframes];
        let cfg = ctx.sim_config(NapPolicy::NoNap);
        let report =
            Simulator::new(cfg).run(&ctx.loads(subframes, &vec![cfg.n_workers; subframes.len()]));
        assert_eq!(governed.jobs_total, report.jobs_total);
        assert!((governed.mean_activity - report.mean_activity(&cfg)).abs() < 1e-12);
    }

    #[test]
    fn des_decisions_are_recorded_as_events() {
        let ctx = tiny_ctx();
        let (_curves, estimator) = ctx.run_calibration();
        let recorder = RingRecorder::new(1 << 20);
        let run = run_des_governed(&ctx, &estimator, NapPolicy::Nap, &recorder);
        let events = recorder.events();
        assert_eq!(
            events.len() as u64,
            recorder.total_recorded(),
            "the ring kept every event"
        );
        let log: Vec<String> = events.iter().map(event_json).collect();
        let decisions = log
            .iter()
            .filter(|l| l.contains("\"ev\":\"governor\""))
            .count();
        assert_eq!(decisions, run.subframes, "one decision per subframe");
        assert!(log.iter().any(|l| l.contains("\"policy\":\"NAP\"")));
    }

    #[test]
    fn govern_report_renders_balanced_json() {
        let report = GovernReport {
            pool_workers: 4,
            des: vec![DesGovernRun {
                policy: NapPolicy::NapIdle,
                subframes: 10,
                mean_abs_err: 0.01,
                max_abs_err: 0.05,
                deactivated_cycles: 123,
                mean_activity: 0.4,
                jobs_total: 30,
            }],
            pool: vec![PoolGovernRun {
                policy: NapPolicy::NoNap,
                workers: 4,
                subframes: 10,
                identical: true,
                parked_nanos: 0,
                mean_abs_err: None,
                max_abs_err: None,
                decisions: 10,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"lte-sim-govern-v1\""));
        assert!(json.contains("\"policy\": \"NAP+IDLE\""));
        assert!(json.contains("\"identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn policy_slugs_are_metric_safe() {
        for policy in NapPolicy::ALL {
            let slug = policy_slug(policy);
            assert!(slug.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}

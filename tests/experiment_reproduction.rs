//! One reproduction case per row of the paper-artifact table, all over
//! one shared reduced study: each row must produce its files and either
//! pass its check or, for claims about the ramp peak, report that the
//! reduced run cannot judge it. Fig. 11 linearity against a least-squares
//! slope, work conservation and the throttling trade-off are checked on
//! the same reduced setup.

use std::sync::OnceLock;

use lte_uplink_repro::dsp::math::slope_through_origin;
use lte_uplink_repro::power::NapPolicy;
use lte_uplink_repro::uplink::artifacts::{Inputs, ARTIFACTS};
use lte_uplink_repro::uplink::experiments::ExperimentContext;

/// Rows whose claims are about the ramp peak, which 1 200 subframes
/// never reach.
const NOT_CHECKED: [&str; 4] = ["fig9", "fig13", "fig14", "fig16"];

fn ctx() -> ExperimentContext {
    ExperimentContext {
        n_subframes: 1_200,
        cal_subframes: 20,
        cal_prb_step: 40,
        ..ExperimentContext::paper()
    }
}

/// The reduced study every row reads, computed once for the whole file.
fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| Inputs::new(ctx()))
}

fn reproduce(id: &str) {
    let row = ARTIFACTS.iter().find(|r| r.id == id).expect("row exists");
    for (name, contents) in (row.produce)(inputs()) {
        assert!(!contents.is_empty(), "{id}: {name} is empty");
    }
    match row.judge(inputs()) {
        None => assert!(NOT_CHECKED.contains(&id), "{id} was not checked"),
        Some(verdict) => {
            assert!(!NOT_CHECKED.contains(&id), "{id} needs the full ramp");
            if let Err(values) = verdict {
                panic!("{id} ({}) fails its claim: {values}", row.paper);
            }
        }
    }
}

macro_rules! rows {
    ($($case:ident => $id:literal,)*) => {
        $(#[test]
        fn $case() {
            reproduce($id);
        })*

        #[test]
        fn every_row_has_a_case() {
            let cases = [$($id),*];
            let ids: Vec<&str> = ARTIFACTS.iter().map(|r| r.id).collect();
            assert_eq!(ids, cases);
        }
    };
}

rows! {
    fig7_users_vary_rapidly_within_one_to_ten => "fig7",
    fig8_prbs_fill_the_subframe => "fig8",
    fig9_layers_follow_the_ramp => "fig9",
    fig11_slope_ordering_matches_paper => "fig11",
    fig12_estimator_tracks_measured_activity => "fig12",
    fig13_targets_span_the_core_range => "fig13",
    fig14_nap_gap_shrinks_with_thermal_hysteresis => "fig14",
    fig15_managed_policies_stay_below_nonap => "fig15",
    fig16_gating_converges_at_the_peak => "fig16",
    table1_dynamic_power_ordering => "table1",
    table_orderings_reproduce => "table2",
    iv_d_pool_matches_the_serial_reference => "iv-d",
    diurnal_day_saves_more_at_a_quarter_load => "diurnal",
}

#[test]
fn fig11_curves_are_nearly_linear_in_prbs() {
    let (curves, _) = ctx().run_calibration();
    for c in &curves {
        let x: Vec<f64> = c.points.iter().map(|p| p.prbs as f64).collect();
        let y: Vec<f64> = c.points.iter().map(|p| p.activity).collect();
        let k = slope_through_origin(&x, &y);
        // Paper Eq. 3: activity ≈ k·PRBs. Check residuals stay small
        // relative to the fitted line.
        for (xi, yi) in x.iter().zip(&y) {
            let fit = k * xi;
            assert!(
                (yi - fit).abs() < 0.25 * fit.max(0.01),
                "{} x{}: point ({xi}, {yi}) far from k·x = {fit}",
                c.modulation,
                c.layers
            );
        }
    }
}

#[test]
fn exactly_the_peak_rows_are_not_checked_at_reduced_scale() {
    let unchecked: Vec<&str> = ARTIFACTS
        .iter()
        .filter(|r| r.judge(inputs()).is_none())
        .map(|r| r.id)
        .collect();
    assert_eq!(unchecked, NOT_CHECKED);
}

#[test]
fn nap_policies_do_not_change_work_done() {
    // Power management must not drop jobs: every policy completes the
    // same job count.
    let c = ctx();
    let (_, estimator) = c.run_calibration();
    let subframes = c.subframes();
    let targets = c.estimated_targets(&estimator, &subframes);
    let full = vec![c.controller.max_cores; subframes.len()];
    let mut counts = Vec::new();
    for policy in NapPolicy::ALL {
        let t = if policy.proactive() { &targets } else { &full };
        let run = c.run_policy(policy, &subframes, t);
        counts.push(run.report.jobs_total);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn throttling_increases_latency_but_saves_power() {
    // The Eq. 5 margin exists because throttling too hard hurts
    // latency; verify the tradeoff direction end to end.
    let c = ctx();
    let subframes = c.subframes();
    let tight = vec![4usize; subframes.len()];
    let loose = vec![62usize; subframes.len()];
    let tight_run = c.run_policy(NapPolicy::Nap, &subframes, &tight);
    let loose_run = c.run_policy(NapPolicy::Nap, &subframes, &loose);
    let lat = |r: &lte_uplink_repro::uplink::experiments::PolicyRun| {
        *r.report.job_latencies.iter().max().unwrap()
    };
    assert!(
        lat(&tight_run) > lat(&loose_run),
        "throttling must slow jobs"
    );
    assert!(
        tight_run.mean_total < loose_run.mean_total,
        "throttling must save power"
    );
}

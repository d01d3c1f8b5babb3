//! Reproducibility: every experiment is a pure function of its seed.
//! The paper's verification methodology (§IV-D) depends on deterministic
//! replay; these tests pin it down across the whole stack.

use lte_uplink_repro::model::{DiurnalModel, ParameterModel, RampModel};
use lte_uplink_repro::obs::{MetricsRegistry, PerfettoExporter, RingRecorder};
use lte_uplink_repro::power::NapPolicy;
use lte_uplink_repro::sched::sim::Simulator;
use lte_uplink_repro::uplink::experiments::ExperimentContext;
use lte_uplink_repro::uplink::trace::fill_sim_metrics;

fn ctx() -> ExperimentContext {
    ExperimentContext {
        n_subframes: 600,
        cal_subframes: 12,
        cal_prb_step: 100,
        ..ExperimentContext::paper()
    }
}

#[test]
fn power_study_is_bit_reproducible() {
    let a = ctx().run_power_study();
    let b = ctx().run_power_study();
    assert_eq!(a.targets, b.targets);
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.power, rb.power, "{}", ra.policy);
        assert_eq!(ra.report, rb.report, "{}", ra.policy);
    }
    assert_eq!(a.gated_power, b.gated_power);
    assert_eq!(a.validation.estimated, b.validation.estimated);
    assert_eq!(a.validation.measured, b.validation.measured);
}

#[test]
fn seeds_change_everything() {
    let base = ctx();
    let other = ExperimentContext { seed: 9999, ..base };
    let a = base.subframes();
    let b = other.subframes();
    assert_ne!(a, b, "different seeds must give different workloads");
}

#[test]
fn diurnal_model_is_reproducible() {
    let a = DiurnalModel::new(5, 1000).subframes(500);
    let b = DiurnalModel::new(5, 1000).subframes(500);
    assert_eq!(a, b);
}

#[test]
fn calibration_is_reproducible() {
    let (ca, ea) = ctx().run_calibration();
    let (cb, eb) = ctx().run_calibration();
    assert_eq!(ca, cb);
    assert_eq!(ea, eb);
}

#[test]
fn ramp_model_streams_are_stable_across_calls() {
    // Generating in two chunks equals generating at once.
    let mut one = RampModel::new(7);
    let all = one.subframes(100);
    let mut two = RampModel::new(7);
    let mut chunked = two.subframes(60);
    chunked.extend(two.subframes(40));
    assert_eq!(all, chunked);
}

#[test]
fn traced_runs_are_byte_identical() {
    // The observability layer must not disturb reproducibility: two
    // same-seed simulator runs produce byte-identical Perfetto JSON and
    // metrics snapshots. (Only simulated-time events are compared — the
    // real receiver's wall-clock spans are inherently run-dependent.)
    let artifacts = || {
        let c = ctx();
        let subframes = c.subframes();
        let targets = vec![c.controller.max_cores; subframes.len()];
        let cfg = c.sim_config(NapPolicy::NapIdle);
        let recorder = RingRecorder::new(2_000_000);
        let report = Simulator::with_recorder(cfg, &recorder).run(&c.loads(&subframes, &targets));
        let perfetto =
            PerfettoExporter::new(cfg.clock_hz).export(&recorder.events(), cfg.n_workers);
        let metrics = MetricsRegistry::new();
        fill_sim_metrics(&metrics, &c, &report, subframes.len());
        (perfetto, metrics.to_json())
    };
    let (trace_a, metrics_a) = artifacts();
    let (trace_b, metrics_b) = artifacts();
    assert_eq!(trace_a, trace_b, "Perfetto export must be byte-identical");
    assert_eq!(
        metrics_a, metrics_b,
        "metrics snapshot must be byte-identical"
    );
    assert!(trace_a.contains("\"traceEvents\""));
    assert!(metrics_a.contains("sim.activity"));
}

#[test]
fn chaos_campaigns_are_byte_identical() {
    // The fault-injection campaign is a pure function of the seed: two
    // same-seed runs — including the real pool's kills and respawns and
    // the link-level noise bursts and grid corruption — export
    // byte-identical artefacts.
    use lte_uplink_repro::uplink::chaos::run_chaos;
    let small = || ExperimentContext {
        n_subframes: 120,
        ..ctx()
    };
    let a = run_chaos(&small()).expect("pool spawns");
    let b = run_chaos(&small()).expect("pool spawns");
    assert_eq!(a.summary, b.summary, "campaign counters must match");
    assert_eq!(
        a.perfetto_json, b.perfetto_json,
        "Perfetto export must be byte-identical"
    );
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "metrics snapshot must be byte-identical"
    );
    assert!(a.summary.conserved(), "no task lost or double-run");
    assert!(a.metrics_json.contains("chaos.link.delivered_ok"));
}

#[test]
fn policy_runs_share_the_same_workload() {
    // The four policies must see identical job sets (only scheduling
    // differs) — totals across buckets are equal.
    let c = ctx();
    let subframes = c.subframes();
    let full = vec![c.controller.max_cores; subframes.len()];
    let busy: Vec<u64> = [NapPolicy::NoNap, NapPolicy::Idle]
        .iter()
        .map(|&p| {
            let run = c.run_policy(p, &subframes, &full);
            run.report.buckets.iter().map(|b| b.busy_cycles).sum()
        })
        .collect();
    // IDLE may differ slightly in steal placement but total work is
    // identical; busy includes identical per-task overheads except for
    // steal latencies, so allow a small band.
    let diff = (busy[0] as i64 - busy[1] as i64).unsigned_abs();
    assert!(
        diff < busy[0] / 100,
        "NONAP {} vs IDLE {} busy cycles",
        busy[0],
        busy[1]
    );
}

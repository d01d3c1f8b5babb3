//! The metric and workload catalogue — the single place names, units,
//! directions and regression bounds are written down. `BENCHMARK.json`
//! is generated from it (`lte_bench manifest`) and a unit test keeps the
//! committed file in step.

use crate::json::quote;
use crate::stats::Better;
use Better::{Higher, Lower};

/// Default measurement length of one run, seconds (`--seconds`).
pub const RUN_SECONDS: u64 = 12;

/// One workload: its fixed name and the one-line reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "steady100",
        why: "4 users, 100 PRB, same cached inputs every subframe: cache-resident kernels (deinterleave, CRC, combining, MMSE weights) dominate; turbo is bypassed",
    },
    WorkloadInfo {
        name: "turbo100",
        why: "same subframe with 4-iteration turbo decoding: the SISO is most of the time, so decoder work shows here and CRC/deinterleave gains shrink",
    },
    WorkloadInfo {
        name: "ramp200",
        why: "the paper's ramp model mid-ramp: ~7 unequal users and ~197 PRB per subframe, hundreds of distinct inputs far larger than the cache, some CRC failures",
    },
    WorkloadInfo {
        name: "mtc10",
        why: "ten 2-3 PRB QPSK users per subframe paced at the real 1 ms TTI: kernel work is negligible, pool per-task and per-user fixed costs dominate",
    },
    WorkloadInfo {
        name: "serve_fb",
        why: "the same receiver behind the serve loop (ingest ring, token bucket, escalation, pressure governor) under full-buffer traffic",
    },
    WorkloadInfo {
        name: "deploy3",
        why: "3 cells, 10000 UEs, tick-synchronous batch with tx synthesis and interference injection on the coordinator: the serial share dominates",
    },
    WorkloadInfo {
        name: "des_power",
        why: "the power study on the discrete-event simulator: no PHY kernels, one thread; bypasses every receiver and pool optimisation",
    },
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these. The bounds are the issue's
/// (0.10 for the timing metrics, 0.05 for memory) widened to the contract's
/// maximum after the noise studies on the build host: its multi-minute
/// slow phases move the timing metrics by up to 19 % between runs, and the
/// allocator moves `serve_fb`'s 30 MB peak by up to 14 % (see the README).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sf_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_sf",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: one layer's own number, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Receiver stages the traced replay attributes time to, in pipeline
/// order (`phy.stage.<name>.us_per_sf`).
pub const STAGES: [&str; 10] = [
    "matched_filter",
    "ifft",
    "window",
    "fft",
    "weights",
    "combining",
    "demap",
    "deinterleave",
    "turbo",
    "crc",
];

/// The traced run reports every one of these; a value of 0 means the
/// workload does not exercise that layer (see the README).
pub const PER_LAYER: [PerLayer; 80] = [
    // dsp — kernels timed through their public entry points.
    layer("dsp.fft.fwd600_ns", "ns", Lower),
    layer("dsp.fft.inv600_ns", "ns", Lower),
    layer("dsp.fft.fwd24_ns", "ns", Lower),
    layer("dsp.crc.ns_per_kbit", "ns", Lower),
    layer("dsp.rate_match.gather_ns_per_kllr", "ns", Lower),
    layer("dsp.interleave.invert_ns_per_kllr", "ns", Lower),
    layer("dsp.scrambling.descramble_ns_per_kllr", "ns", Lower),
    layer("dsp.llr.maxlog_qam64_ns_per_sym", "ns", Lower),
    layer("dsp.llr.maxlog_qpsk_ns_per_sym", "ns", Lower),
    layer("dsp.matched_filter.ns_per_sc", "ns", Lower),
    layer("dsp.turbo.decode_k6144_us", "us", Lower),
    layer("dsp.turbo.decode_k40_us", "us", Lower),
    layer("dsp.arena.reuse_share", "ratio", Higher),
    // phy — the serial receiver and its stages.
    layer("phy.serial_sf_per_s", "1/s", Higher),
    layer("phy.stage.matched_filter.us_per_sf", "us", Lower),
    layer("phy.stage.ifft.us_per_sf", "us", Lower),
    layer("phy.stage.window.us_per_sf", "us", Lower),
    layer("phy.stage.fft.us_per_sf", "us", Lower),
    layer("phy.stage.weights.us_per_sf", "us", Lower),
    layer("phy.stage.combining.us_per_sf", "us", Lower),
    layer("phy.stage.demap.us_per_sf", "us", Lower),
    layer("phy.stage.deinterleave.us_per_sf", "us", Lower),
    layer("phy.stage.turbo.us_per_sf", "us", Lower),
    layer("phy.stage.crc.us_per_sf", "us", Lower),
    layer("phy.receiver.demodulate_us", "us", Lower),
    layer("phy.receiver.finish_us", "us", Lower),
    layer("phy.estimator.path_us", "us", Lower),
    layer("phy.combiner.weights_us", "us", Lower),
    layer("phy.combiner.symbol_us", "us", Lower),
    layer("phy.tx.synthesize_us_per_prb", "us", Lower),
    // sched — the pool, the ingest ring and the simulator.
    layer("sched.pool.task_ns", "ns", Lower),
    layer("sched.pool.tax", "ratio", Lower),
    layer("sched.pool.speedup", "ratio", Higher),
    layer("sched.pool.workers_effective", "count", Higher),
    layer("sched.pool.tasks_per_sf", "count", Lower),
    layer("sched.pool.steals_per_ksf", "count", Lower),
    layer("sched.pool.parks_per_ksf", "count", Lower),
    layer("sched.pool.lifo_hit_share", "ratio", Higher),
    layer("sched.pool.activity", "ratio", Higher),
    layer("sched.pool.busy_ms_per_sf_sat", "ms", Lower),
    layer("sched.pool.busy_ms_per_sf_paced", "ms", Lower),
    layer("sched.ingest.push_pop_ns", "ns", Lower),
    layer("sched.sim.sim_sf_per_s", "1/s", Higher),
    layer("sched.sim.lat_p99_cycles", "cycles", Lower),
    layer("sched.sim.mean_activity", "ratio", Lower),
    // model — the ramp generator and the working set it produces.
    layer("model.ramp.next_subframe_ns", "ns", Lower),
    layer("model.ramp.users_per_sf", "count", Lower),
    layer("model.ramp.prbs_per_sf", "count", Lower),
    layer("model.ramp.distinct_inputs", "count", Lower),
    // power — estimator, governor, and the study's deterministic outputs.
    layer("power.estimator.subframe_ns", "ns", Lower),
    layer("power.governor.boundary_ns", "ns", Lower),
    layer("power.est_err_mean_pct", "%", Lower),
    layer("power.est_err_max_pct", "%", Lower),
    layer("power.table2.nonap_w", "W", Lower),
    layer("power.table2.idle_w", "W", Lower),
    layer("power.table2.nap_w", "W", Lower),
    layer("power.table2.nap_idle_w", "W", Lower),
    layer("power.table2.gating_w", "W", Lower),
    // obs — what looking costs.
    layer("obs.hist.record_ns", "ns", Lower),
    layer("obs.ring.record_ns", "ns", Lower),
    layer("obs.trace_overhead_share", "ratio", Lower),
    layer("obs.trace.spans", "count", Higher),
    layer("obs.trace.dropped", "count", Lower),
    // fault
    layer("fault.escalation.decide_ns", "ns", Lower),
    // core — driver-level tails and counters.
    layer("core.bench.lat_p90_us", "us", Lower),
    layer("core.bench.lat_p99_us", "us", Lower),
    layer("core.bench.miss_share", "ratio", Lower),
    layer("core.bench.gen_late_p99_us", "us", Lower),
    layer("core.cpu_sys_share", "ratio", Lower),
    layer("core.fail_share", "ratio", Lower),
    layer("core.serve.lat_p99_us", "us", Lower),
    layer("core.serve.admitted_share", "ratio", Higher),
    layer("core.serve.shed_users", "count", Lower),
    layer("core.serve.degraded_sf", "count", Lower),
    layer("core.serve.deadline_misses", "count", Lower),
    layer("core.serve.drain_ms", "ms", Lower),
    layer("core.serve.boosted_boundaries", "count", Lower),
    layer("core.deploy.speedup", "ratio", Higher),
    layer("core.deploy.synth_share_est", "ratio", Lower),
    layer("core.fingerprint_match", "count", Higher),
];

/// The contents of `/BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"examples/lte_bench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"examples/lte_bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    quote(w.name),
                    quote(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.name()),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.name())
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = workload_names();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {u}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Lower));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for s in STAGES {
            let name = format!("phy.stage.{s}.us_per_sf");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `lte_bench manifest`"
        );
    }
}

//! OpenMetrics / Prometheus text exposition.
//!
//! A small deterministic builder: metric families append in call order,
//! names are sanitized (the registry's dotted namespaces become
//! underscore-separated OpenMetrics names, counters gain the mandated
//! `_total` suffix), histograms export as summaries (canonical
//! quantiles + `_sum`/`_count` — far cheaper to scrape than ~1900
//! `le`-buckets at 3 % resolution), and [`render`](OpenMetrics::render)
//! terminates the exposition with `# EOF`. Output depends only on the
//! values pushed in, so a deterministic run exports byte-identical text.

use crate::ebler::EblerSurface;
use crate::hist::HistogramSnapshot;
use crate::metrics::{f64_json, MetricsRegistry};

/// Canonical quantiles exported for every summary.
pub const QUANTILES: [(&str, f64); 4] = [
    ("0.5", 0.50),
    ("0.9", 0.90),
    ("0.99", 0.99),
    ("0.999", 0.999),
];

/// Maps a dotted metric path onto a valid OpenMetrics name: dots (and
/// any other invalid character) become underscores, and a leading digit
/// gains an underscore prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if valid {
            out.push(c);
        } else if c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn om_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        f64_json(v)
    }
}

/// A deterministic OpenMetrics text builder.
#[derive(Default)]
pub struct OpenMetrics {
    buf: String,
}

impl OpenMetrics {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.buf.push_str(&format!("# HELP {name} {help}\n"));
        self.buf.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Appends one counter family (name gains `_total` if missing).
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let mut name = sanitize_metric_name(name);
        if !name.ends_with("_total") {
            name.push_str("_total");
        }
        self.family(&name, "counter", help);
        self.buf.push_str(&format!("{name} {value}\n"));
    }

    /// Appends one gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        let name = sanitize_metric_name(name);
        self.family(&name, "gauge", help);
        self.buf.push_str(&format!("{name} {}\n", om_f64(value)));
    }

    /// Appends a histogram snapshot as a summary family with the
    /// canonical [`QUANTILES`], `_sum`, and `_count`.
    pub fn summary(&mut self, name: &str, help: &str, h: &HistogramSnapshot) {
        let name = sanitize_metric_name(name);
        self.family(&name, "summary", help);
        for (label, q) in QUANTILES {
            self.buf.push_str(&format!(
                "{name}{{quantile=\"{label}\"}} {}\n",
                h.quantile(q)
            ));
        }
        self.buf.push_str(&format!("{name}_sum {}\n", h.sum));
        self.buf.push_str(&format!("{name}_count {}\n", h.count));
    }

    /// Appends every counter and gauge of a [`MetricsRegistry`], sorted
    /// by name (counters first, then gauges — each group already sorted
    /// by the registry).
    pub fn registry(&mut self, reg: &MetricsRegistry) {
        for (name, v) in reg.counters_with_prefix("") {
            self.counter(&name, "registry counter", v);
        }
        for (name, v) in reg.gauges_with_prefix("") {
            self.gauge(&name, "registry gauge", v);
        }
    }

    /// Appends an EBLER surface: aggregate families plus one
    /// `{stream="i"}` labelled sample per stream.
    pub fn ebler(&mut self, prefix: &str, surface: &EblerSurface) {
        let p = sanitize_metric_name(prefix);
        type FieldFn = fn(&crate::ebler::StreamEbler) -> String;
        let fields: [(&str, &str, FieldFn); 6] = [
            ("ack_total", "counter", |s| s.ack.to_string()),
            ("nack_total", "counter", |s| s.nack.to_string()),
            ("dtx_total", "counter", |s| s.dtx.to_string()),
            ("bler_pct", "gauge", |s| om_f64(s.bler_pct)),
            ("throughput_avg_kbps", "gauge", |s| {
                om_f64(s.throughput_avg_kbps)
            }),
            ("throughput_max_kbps", "gauge", |s| {
                om_f64(s.throughput_max_kbps)
            }),
        ];
        for (suffix, kind, value) in &fields {
            let name = format!("{p}_{suffix}");
            self.family(&name, kind, "EBLER surface");
            self.buf
                .push_str(&format!("{name} {}\n", value(&surface.total)));
            for (i, s) in surface.streams.iter().enumerate() {
                self.buf
                    .push_str(&format!("{name}{{stream=\"{i}\"}} {}\n", value(s)));
            }
        }
    }

    /// Finishes the exposition with the OpenMetrics `# EOF` marker.
    pub fn render(mut self) -> String {
        self.buf.push_str("# EOF\n");
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebler::EblerAccumulator;
    use crate::hist::Histogram;

    #[test]
    fn names_sanitize_to_openmetrics_charset() {
        assert_eq!(
            sanitize_metric_name("pool.worker.0.steals"),
            "pool_worker_0_steals"
        );
        assert_eq!(
            sanitize_metric_name("chaos.sim.shed_jobs"),
            "chaos_sim_shed_jobs"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
    }

    #[test]
    fn counter_gains_total_suffix() {
        let mut om = OpenMetrics::new();
        om.counter("sim.jobs", "jobs", 7);
        let text = om.render();
        assert!(text.contains("# TYPE sim_jobs_total counter\n"));
        assert!(text.contains("\nsim_jobs_total 7\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn summary_exports_quantiles_sum_count() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let mut om = OpenMetrics::new();
        om.summary("latency.cycles", "latency", &h.snapshot());
        let text = om.render();
        assert!(text.contains("# TYPE latency_cycles summary\n"));
        assert!(text.contains("latency_cycles{quantile=\"0.5\"} "));
        assert!(text.contains("latency_cycles_sum 5050\n"));
        assert!(text.contains("latency_cycles_count 100\n"));
    }

    #[test]
    fn registry_exports_counters_then_gauges() {
        let reg = MetricsRegistry::new();
        reg.set_counter("pool.parks", 3);
        reg.set_gauge("pool.activity", 0.5);
        let mut om = OpenMetrics::new();
        om.registry(&reg);
        let text = om.render();
        let counter_at = text.find("pool_parks_total 3").unwrap();
        let gauge_at = text.find("pool_activity 0.5").unwrap();
        assert!(counter_at < gauge_at);
    }

    #[test]
    fn ebler_streams_are_labelled() {
        let acc = EblerAccumulator::new(2);
        acc.record_decode(0, true, 100);
        acc.record_dtx(1);
        let mut om = OpenMetrics::new();
        om.ebler("ebler", &acc.snapshot());
        let text = om.render();
        assert!(text.contains("ebler_ack_total 1\n"));
        assert!(text.contains("ebler_ack_total{stream=\"0\"} 1\n"));
        assert!(text.contains("ebler_dtx_total{stream=\"1\"} 1\n"));
        assert!(text.contains("ebler_bler_pct 50.0\n"));
    }

    #[test]
    fn output_is_deterministic() {
        let build = || {
            let mut om = OpenMetrics::new();
            om.gauge("a.b", "g", 1.25);
            om.counter("c.d", "c", 2);
            om.render()
        };
        assert_eq!(build(), build());
    }
}

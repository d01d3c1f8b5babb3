//! A flat, deterministic metrics registry.
//!
//! Counters and gauges are keyed by `String` names (dotted paths such as
//! `worker.3.steals` or `stage.turbo.cycles`). Snapshots render as a
//! single JSON object with keys in sorted order, so two identical runs
//! serialize byte-identically.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Renders `v` as a JSON number that always reads back as a float
/// (`12` -> `"12.0"`); non-finite values render as `null`. The shared
/// float formatter behind every deterministic JSON export in this crate.
pub fn f64_json(v: f64) -> String {
    if v.is_finite() {
        let s = v.to_string();
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// A metric value: integer counters or floating-point gauges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic integer counter.
    Counter(u64),
    /// Point-in-time floating-point reading.
    Gauge(f64),
}

impl MetricValue {
    fn json(&self) -> String {
        match self {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => f64_json(*v),
        }
    }
}

/// A thread-safe registry of named metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    values: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the counter `name` to an absolute value.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Reads one metric, if present.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.values.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Every counter whose name starts with `prefix`, sorted by name —
    /// the query behind per-subsystem summaries (`pool.`, `sim.core.`)
    /// without copying the whole registry. Gauges are excluded.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter_map(|(k, v)| match v {
                MetricValue::Counter(c) if k.starts_with(prefix) => Some((k.clone(), *c)),
                _ => None,
            })
            .collect()
    }

    /// Every gauge whose name starts with `prefix`, sorted by name —
    /// the gauge twin of [`counters_with_prefix`](Self::counters_with_prefix).
    /// Counters are excluded.
    pub fn gauges_with_prefix(&self, prefix: &str) -> Vec<(String, f64)> {
        self.values
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter_map(|(k, v)| match v {
                MetricValue::Gauge(g) if k.starts_with(prefix) => Some((k.clone(), *g)),
                _ => None,
            })
            .collect()
    }

    /// The snapshot as one pretty-printed JSON object with sorted keys.
    pub fn to_json(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::from("{\n");
        for (i, (name, value)) in snapshot.iter().enumerate() {
            out.push_str(&format!("  \"{name}\": {}", value.json()));
            if i + 1 < snapshot.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_sorted_and_stable() {
        let m = MetricsRegistry::new();
        m.set_gauge("b.activity", 0.5);
        m.set_counter("a.count", 7);
        m.set_gauge("c.whole", 12.0);
        assert_eq!(
            m.to_json(),
            "{\n  \"a.count\": 7,\n  \"b.activity\": 0.5,\n  \"c.whole\": 12.0\n}\n"
        );
    }

    #[test]
    fn prefix_query_selects_sorted_counters_only() {
        let m = MetricsRegistry::new();
        m.set_counter("pool.worker.1.steals", 4);
        m.set_counter("pool.worker.0.steals", 9);
        m.set_counter("sim.jobs_total", 3);
        m.set_gauge("pool.activity", 0.5);
        assert_eq!(
            m.counters_with_prefix("pool."),
            vec![
                ("pool.worker.0.steals".to_string(), 9),
                ("pool.worker.1.steals".to_string(), 4),
            ]
        );
        assert!(m.counters_with_prefix("nothing.").is_empty());
    }

    #[test]
    fn prefix_query_selects_sorted_gauges_only() {
        let m = MetricsRegistry::new();
        m.set_gauge("pool.worker.1.activity", 0.25);
        m.set_gauge("pool.worker.0.activity", 0.75);
        m.set_gauge("sim.activity", 0.5);
        m.set_counter("pool.worker.0.steals", 9);
        assert_eq!(
            m.gauges_with_prefix("pool."),
            vec![
                ("pool.worker.0.activity".to_string(), 0.75),
                ("pool.worker.1.activity".to_string(), 0.25),
            ]
        );
        assert!(m.gauges_with_prefix("nothing.").is_empty());
    }

    #[test]
    fn empty_registry_renders_empty_object() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(m.to_json(), "{\n}\n");
    }
}

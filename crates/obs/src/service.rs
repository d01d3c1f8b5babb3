//! Admission/lifecycle counters for the streaming service.
//!
//! [`ServiceSnapshot`] is the scoreboard the serve loop counts into as
//! work flows through the front door: arrivals in, admissions through,
//! and one counter per distinct refusal/mitigation path so `arrivals ==
//! admitted + rejected_*` always balances and a dashboard can tell
//! *backpressure* rejects from *rate-limit* rejects from *malformed*
//! refusals. The loop runs on one thread, so the counters are plain
//! integers; the export is deterministic JSON/OpenMetrics — same
//! counters, fixed key order, no wall-clock anywhere.

use crate::metrics::MetricsRegistry;

/// The serve loop's admission and lifecycle counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Subframes offered by all sources.
    pub arrivals: u64,
    /// Subframes admitted into the ingest queue.
    pub admitted: u64,
    /// Refused: queue full / reject tier engaged.
    pub rejected_backpressure: u64,
    /// Refused: per-source token bucket empty.
    pub rejected_rate_limited: u64,
    /// Refused: unparseable arrival.
    pub rejected_malformed: u64,
    /// Users shed from admitted subframes.
    pub shed_users: u64,
    /// Always 0: shedding is the service's one overload response, so
    /// nothing degrades. Kept for readers that still name the field; no
    /// export writes it.
    pub degraded_subframes: u64,
    /// Subframes fully decoded.
    pub completed_subframes: u64,
    /// Subframes that overran their deadline budget.
    pub deadline_misses: u64,
    /// Queued subframes shed by the drain path.
    pub drain_shed_subframes: u64,
    /// Watchdog-forced restarts.
    pub watchdog_restarts: u64,
    /// Hot config reloads applied.
    pub reloads: u64,
    /// Ingest-queue depth when last recorded.
    pub queue_depth: u64,
    /// Deepest queue occupancy observed.
    pub queue_high_watermark: u64,
}

impl ServiceSnapshot {
    /// Records the ingest queue's depth now, raising the high watermark
    /// when it is the deepest yet.
    pub fn set_queue_depth(&mut self, depth: u64) {
        self.queue_depth = depth;
        self.queue_high_watermark = self.queue_high_watermark.max(depth);
    }

    /// Total refusals across all reject paths.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_backpressure + self.rejected_rate_limited + self.rejected_malformed
    }

    /// `true` when every arrival is accounted for as admitted or
    /// rejected — the invariant the serve loop must never break.
    pub fn balanced(&self) -> bool {
        self.arrivals == self.admitted + self.rejected_total()
    }

    /// Every exported field with its key, in the fixed export order.
    fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("arrivals", self.arrivals),
            ("admitted", self.admitted),
            ("rejected_backpressure", self.rejected_backpressure),
            ("rejected_rate_limited", self.rejected_rate_limited),
            ("rejected_malformed", self.rejected_malformed),
            ("shed_users", self.shed_users),
            ("completed_subframes", self.completed_subframes),
            ("deadline_misses", self.deadline_misses),
            ("drain_shed_subframes", self.drain_shed_subframes),
            ("watchdog_restarts", self.watchdog_restarts),
            ("reloads", self.reloads),
            ("queue_depth", self.queue_depth),
            ("queue_high_watermark", self.queue_high_watermark),
        ]
    }

    /// Flat deterministic JSON (fixed key order).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .fields()
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Exports every field into `registry` under `prefix`
    /// (e.g. `serve_admitted`). Depths export as gauges, the rest as
    /// counters.
    pub fn export(&self, registry: &MetricsRegistry, prefix: &str) {
        for (name, value) in self.fields() {
            let key = format!("{prefix}{name}");
            match name {
                "queue_depth" | "queue_high_watermark" => registry.set_gauge(&key, value as f64),
                _ => registry.set_counter(&key, value),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One arrival admitted and the queue one deep.
    fn one_admitted() -> ServiceSnapshot {
        let mut s = ServiceSnapshot {
            arrivals: 1,
            admitted: 1,
            ..ServiceSnapshot::default()
        };
        s.set_queue_depth(1);
        s
    }

    #[test]
    fn refusals_total_and_the_queue_keeps_its_watermark() {
        let mut s = ServiceSnapshot {
            arrivals: 10,
            admitted: 6,
            rejected_backpressure: 2,
            rejected_rate_limited: 1,
            rejected_malformed: 1,
            ..ServiceSnapshot::default()
        };
        s.set_queue_depth(4);
        s.set_queue_depth(2);
        assert_eq!(s.rejected_total(), 4);
        assert!(s.balanced());
        assert_eq!(s.degraded_subframes, 0);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_high_watermark, 4);
    }

    #[test]
    fn unbalanced_snapshot_is_detected() {
        let mut s = ServiceSnapshot {
            arrivals: 1,
            ..ServiceSnapshot::default()
        };
        assert!(!s.balanced());
        s.admitted += 1;
        assert!(s.balanced());
    }

    #[test]
    fn snapshot_json_is_stable() {
        let json = one_admitted().to_json();
        assert!(json.starts_with("{\"arrivals\":1,\"admitted\":1,"));
        assert!(json.ends_with("\"queue_depth\":1,\"queue_high_watermark\":1}"));
        // Same counters, same bytes.
        assert_eq!(json, one_admitted().to_json());
    }

    #[test]
    fn export_lands_in_the_registry() {
        let mut s = one_admitted();
        s.set_queue_depth(3);
        let registry = MetricsRegistry::new();
        s.export(&registry, "serve_");
        let counters = registry.counters_with_prefix("serve_");
        assert!(counters.contains(&("serve_admitted".to_string(), 1)));
        let gauges = registry.gauges_with_prefix("serve_");
        assert!(gauges.contains(&("serve_queue_depth".to_string(), 3.0)));
    }
}

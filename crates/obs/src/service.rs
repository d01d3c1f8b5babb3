//! Admission/lifecycle counters for the streaming service.
//!
//! [`ServiceCounters`] is the shared, lock-free scoreboard the serve
//! loop and its source threads update as work flows through the front
//! door: arrivals in, admissions through, and one counter per distinct
//! refusal/mitigation path so `arrivals == admitted + rejected_*`
//! always balances and a dashboard can tell *backpressure* rejects from
//! *rate-limit* rejects from *malformed* refusals. [`ServiceSnapshot`]
//! freezes the scoreboard for deterministic JSON/OpenMetrics export —
//! same counters, fixed key order, no wall-clock anywhere.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::MetricsRegistry;

/// Shared atomic counters for the ingest/serve path. All methods take
/// `&self`; share via `Arc` between sources, the serve loop and the
/// watchdog.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    arrivals: AtomicU64,
    admitted: AtomicU64,
    rejected_backpressure: AtomicU64,
    rejected_rate_limited: AtomicU64,
    rejected_malformed: AtomicU64,
    shed_users: AtomicU64,
    completed_subframes: AtomicU64,
    deadline_misses: AtomicU64,
    drain_shed_subframes: AtomicU64,
    watchdog_restarts: AtomicU64,
    reloads: AtomicU64,
    queue_depth: AtomicU64,
    queue_high_watermark: AtomicU64,
}

impl ServiceCounters {
    /// A zeroed scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// One subframe offered by a source (before any admission check).
    pub fn arrival(&self) {
        self.arrivals.fetch_add(1, Ordering::Relaxed);
    }

    /// One subframe admitted into the ingest queue.
    pub fn admit(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// One subframe refused because the queue was full (or the
    /// escalation ladder's reject tier was engaged).
    pub fn reject_backpressure(&self) {
        self.rejected_backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// One subframe refused by the per-source token bucket.
    pub fn reject_rate_limited(&self) {
        self.rejected_rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// One arrival refused at parse time.
    pub fn reject_malformed(&self) {
        self.rejected_malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` users shed from an admitted subframe.
    pub fn shed(&self, n: u64) {
        self.shed_users.fetch_add(n, Ordering::Relaxed);
    }

    /// One subframe fully decoded.
    pub fn completed(&self) {
        self.completed_subframes.fetch_add(1, Ordering::Relaxed);
    }

    /// One subframe that overran its deadline budget.
    pub fn deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` queued subframes shed by the drain path instead of decoded.
    pub fn drain_shed(&self, n: u64) {
        self.drain_shed_subframes.fetch_add(n, Ordering::Relaxed);
    }

    /// One watchdog-forced restart of the receive path.
    pub fn watchdog_restart(&self) {
        self.watchdog_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// One hot config reload applied at a subframe boundary.
    pub fn reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the instantaneous ingest-queue depth (also maintains
    /// the high watermark).
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_high_watermark
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Freezes the scoreboard.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            arrivals: self.arrivals.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_backpressure: self.rejected_backpressure.load(Ordering::Relaxed),
            rejected_rate_limited: self.rejected_rate_limited.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_malformed.load(Ordering::Relaxed),
            shed_users: self.shed_users.load(Ordering::Relaxed),
            degraded_subframes: 0,
            completed_subframes: self.completed_subframes.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            drain_shed_subframes: self.drain_shed_subframes.load(Ordering::Relaxed),
            watchdog_restarts: self.watchdog_restarts.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_high_watermark: self.queue_high_watermark.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`ServiceCounters`] scoreboard.
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
    /// Ingest-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Deepest queue occupancy observed.
    pub queue_high_watermark: u64,
}

impl ServiceSnapshot {
    /// Total refusals across all reject paths.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_backpressure + self.rejected_rate_limited + self.rejected_malformed
    }

    /// `true` when every arrival is accounted for as admitted or
    /// rejected — the invariant the serve loop must never break.
    pub fn balanced(&self) -> bool {
        self.arrivals == self.admitted + self.rejected_total()
    }

    /// Flat deterministic JSON (fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"arrivals\":{},\"admitted\":{},\"rejected_backpressure\":{},\
             \"rejected_rate_limited\":{},\"rejected_malformed\":{},\
             \"shed_users\":{},\
             \"completed_subframes\":{},\"deadline_misses\":{},\
             \"drain_shed_subframes\":{},\"watchdog_restarts\":{},\
             \"reloads\":{},\"queue_depth\":{},\"queue_high_watermark\":{}}}",
            self.arrivals,
            self.admitted,
            self.rejected_backpressure,
            self.rejected_rate_limited,
            self.rejected_malformed,
            self.shed_users,
            self.completed_subframes,
            self.deadline_misses,
            self.drain_shed_subframes,
            self.watchdog_restarts,
            self.reloads,
            self.queue_depth,
            self.queue_high_watermark,
        )
    }

    /// Exports every field into `registry` under `prefix`
    /// (e.g. `serve_admitted`). Depths export as gauges, the rest as
    /// counters.
    pub fn export(&self, registry: &MetricsRegistry, prefix: &str) {
        for (name, value) in [
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
        ] {
            registry.set_counter(&format!("{prefix}{name}"), value);
        }
        registry.set_gauge(&format!("{prefix}queue_depth"), self.queue_depth as f64);
        registry.set_gauge(
            &format!("{prefix}queue_high_watermark"),
            self.queue_high_watermark as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ServiceCounters::new();
        for _ in 0..10 {
            c.arrival();
        }
        for _ in 0..6 {
            c.admit();
        }
        c.reject_backpressure();
        c.reject_backpressure();
        c.reject_rate_limited();
        c.reject_malformed();
        c.shed(3);
        for _ in 0..5 {
            c.completed();
        }
        c.deadline_miss();
        c.drain_shed(1);
        c.watchdog_restart();
        c.reload();
        c.set_queue_depth(4);
        c.set_queue_depth(2);

        let s = c.snapshot();
        assert_eq!(s.arrivals, 10);
        assert_eq!(s.admitted, 6);
        assert_eq!(s.rejected_total(), 4);
        assert!(s.balanced());
        assert_eq!(s.shed_users, 3);
        assert_eq!(s.degraded_subframes, 0);
        assert_eq!(s.completed_subframes, 5);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.drain_shed_subframes, 1);
        assert_eq!(s.watchdog_restarts, 1);
        assert_eq!(s.reloads, 1);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_high_watermark, 4);
    }

    #[test]
    fn unbalanced_snapshot_is_detected() {
        let c = ServiceCounters::new();
        c.arrival();
        assert!(!c.snapshot().balanced());
        c.admit();
        assert!(c.snapshot().balanced());
    }

    #[test]
    fn snapshot_json_is_stable() {
        let c = ServiceCounters::new();
        c.arrival();
        c.admit();
        c.set_queue_depth(1);
        let json = c.snapshot().to_json();
        assert!(json.starts_with("{\"arrivals\":1,\"admitted\":1,"));
        assert!(json.ends_with("\"queue_depth\":1,\"queue_high_watermark\":1}"));
        // Same counters, same bytes.
        assert_eq!(json, c.snapshot().to_json());
    }

    #[test]
    fn export_lands_in_the_registry() {
        let c = ServiceCounters::new();
        c.arrival();
        c.admit();
        c.set_queue_depth(3);
        let registry = MetricsRegistry::new();
        c.snapshot().export(&registry, "serve_");
        let counters = registry.counters_with_prefix("serve_");
        assert!(counters.contains(&("serve_admitted".to_string(), 1)));
        let gauges = registry.gauges_with_prefix("serve_");
        assert!(gauges.contains(&("serve_queue_depth".to_string(), 3.0)));
    }
}

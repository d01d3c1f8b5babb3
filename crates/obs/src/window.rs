//! Window aggregation.
//!
//! The hot path records into live, lock-free aggregates ([`Histogram`],
//! [`Counter`], the EBLER accumulator); at a window boundary a control
//! thread drains each into a plain-data snapshot with
//! [`WindowAggregate::snapshot_and_reset`]. The hot path never sees a
//! window boundary — it only ever touches atomics.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{Histogram, HistogramSnapshot};

/// A live aggregate that can be atomically drained into a plain-data
/// snapshot at a window boundary.
pub trait WindowAggregate {
    /// The plain-data form pushed into the window history.
    type Snapshot;

    /// Copies the current state and resets the live aggregate for the
    /// next window.
    fn snapshot_and_reset(&self) -> Self::Snapshot;
}

impl WindowAggregate for Histogram {
    type Snapshot = HistogramSnapshot;

    fn snapshot_and_reset(&self) -> HistogramSnapshot {
        Histogram::snapshot_and_reset(self)
    }
}

/// A monotonic, lock-free counter that resets at window boundaries.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta`. Lock-free, allocation-free.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value within the live window.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl WindowAggregate for Counter {
    type Snapshot = u64;

    fn snapshot_and_reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_snapshot_drains_the_live_window() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        assert_eq!(c.snapshot_and_reset(), 7);
        assert_eq!(c.get(), 0, "the next window starts empty");
        c.add(5);
        assert_eq!(c.snapshot_and_reset(), 5);
        assert_eq!(c.snapshot_and_reset(), 0);
    }
}

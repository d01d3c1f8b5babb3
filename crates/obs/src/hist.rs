//! Lock-free, zero-alloc-on-record HDR-style histograms.
//!
//! A [`Histogram`] covers the full `u64` range with log-linear buckets:
//! 32 linear sub-buckets per power of two, giving a worst-case relative
//! quantile error of 1/32 (≈ 3.1 %). Recording is one atomic add on the
//! bucket plus three atomic updates for sum/min/max — no locks, no heap,
//! so workers can record from the subframe hot path. Snapshots are plain
//! data ([`HistogramSnapshot`]) that merge associatively across workers
//! and windows and render deterministic JSON.
//!
//! Quantiles are reported as the **upper bound** of the bucket holding
//! the target rank (clamped to the exact recorded max), so the estimate
//! never under-reports a tail and two runs that recorded the same
//! multiset of values — in any order, from any number of threads —
//! produce byte-identical snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::f64_json;

/// Linear sub-buckets per power of two (2^[`SUB_BITS`]).
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5;
/// Bucket groups: one linear group for values `< 32` plus one per
/// exponent in `5..=63`.
const GROUPS: usize = 64 - SUB_BITS as usize;
/// Total bucket count (1920; ~15 KiB of counters).
pub const BUCKETS: usize = (GROUPS + 1) * SUB_BUCKETS;

/// Index of the bucket covering `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let group = (exp - SUB_BITS + 1) as usize;
        let sub = ((v >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        group * SUB_BUCKETS + sub
    }
}

/// `[lower, upper]` value range of bucket `idx` (inclusive).
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let group = idx / SUB_BUCKETS;
    let sub = (idx % SUB_BUCKETS) as u64;
    if group == 0 {
        (sub, sub)
    } else {
        let shift = (group - 1) as u32;
        let lower = (SUB_BUCKETS as u64 + sub) << shift;
        // Width-minus-one first: the top bucket's upper bound is
        // u64::MAX and `lower + width` would overflow.
        (lower, lower + ((1u64 << shift) - 1))
    }
}

/// A concurrent log-linear histogram of `u64` values.
///
/// `record` is lock-free and allocation-free; `snapshot` /
/// `snapshot_and_reset` are meant for a control thread at window
/// boundaries, off the hot path.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (the only allocation this type makes).
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free, allocation-free, ~4 relaxed RMWs.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.read(|b| b.load(Ordering::Relaxed), false)
    }

    /// Copies the distribution and resets the live histogram to empty —
    /// the window-roll primitive. Values recorded concurrently with the
    /// reset land in either the returned snapshot or the next window
    /// (never both, never lost); call it at a quiescent boundary when
    /// exact window edges matter.
    pub fn snapshot_and_reset(&self) -> HistogramSnapshot {
        self.read(|b| b.swap(0, Ordering::Relaxed), true)
    }

    fn read(&self, mut load: impl FnMut(&AtomicU64) -> u64, reset: bool) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(&mut load).collect();
        let count: u64 = counts.iter().sum();
        let (sum, min, max) = if reset {
            (
                self.sum.swap(0, Ordering::Relaxed),
                self.min.swap(u64::MAX, Ordering::Relaxed),
                self.max.swap(0, Ordering::Relaxed),
            )
        } else {
            (
                self.sum.load(Ordering::Relaxed),
                self.min.load(Ordering::Relaxed),
                self.max.load(Ordering::Relaxed),
            )
        };
        HistogramSnapshot {
            counts,
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
        }
    }
}

/// A plain-data copy of a [`Histogram`]: mergeable, comparable, and
/// renderable as deterministic JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Exact smallest recorded value (0 when empty).
    pub min: u64,
    /// Exact largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding rank `ceil(q · count)`, clamped to the exact
    /// recorded maximum. Within `value/32` of the exact order statistic.
    ///
    /// Edge semantics are exact, not bucket-bound approximations: an
    /// empty snapshot returns 0 for every `q` (so an SLO gate on a
    /// window with zero samples reads 0, never a stale bucket bound),
    /// `q ≤ 0` returns the exact recorded minimum and `q ≥ 1` the exact
    /// recorded maximum. NaN is treated as 1.0 (the conservative tail).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 || q.is_nan() {
            return self.max;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(idx).1.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Arithmetic mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`. Associative and commutative, so
    /// per-worker histograms merge to the same result in any order.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.min = if self.count == other.count {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
    }

    /// One-line JSON summary with fixed keys and canonical quantiles —
    /// byte-stable for identical distributions.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
            self.count,
            self.sum,
            self.min,
            self.max,
            f64_json(self.mean()),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        // Every bucket's bounds map back to the same bucket, boundaries
        // included, across the whole u64 range.
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx, "lower bound of bucket {idx}");
            assert_eq!(bucket_index(hi), idx, "upper bound of bucket {idx}");
            assert!(hi >= lo);
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 32);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 31);
        // Below 32 the buckets are exact, so every quantile is exact.
        assert_eq!(s.quantile(0.5), 15);
        assert_eq!(s.quantile(1.0), 31);
    }

    #[test]
    fn quantile_clamps_to_recorded_extremes() {
        let h = Histogram::new();
        h.record(1_000_003);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 1_000_003);
        assert_eq!(s.quantile(1.0), 1_000_003);
        assert_eq!(s.min, 1_000_003);
    }

    #[test]
    fn quantile_edges_are_exact_min_max() {
        // 100 and 120 share nothing: 100 lives in a width-2 bucket whose
        // upper bound is 101, so a bucket-bound answer for q=0 would be
        // 101, not the recorded min.
        let h = Histogram::new();
        h.record(100);
        h.record(120);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 100, "q=0 must be the exact min");
        assert_eq!(s.quantile(-1.0), 100);
        assert_eq!(s.quantile(1.0), 120, "q=1 must be the exact max");
        assert_eq!(s.quantile(2.0), 120);
        assert_eq!(s.quantile(f64::NAN), 120, "NaN resolves to the tail");
    }

    #[test]
    fn empty_snapshot_quantiles_are_zero_for_every_q() {
        let s = HistogramSnapshot::empty();
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
            assert_eq!(s.quantile(q), 0, "empty snapshot at q={q}");
        }
        // A live histogram that recorded nothing behaves the same.
        assert_eq!(Histogram::new().snapshot().quantile(0.99), 0);
    }

    #[test]
    fn snapshot_and_reset_empties_the_live_histogram() {
        let h = Histogram::new();
        h.record(7);
        h.record(70_000);
        let first = h.snapshot_and_reset();
        assert_eq!(first.count, 2);
        let second = h.snapshot();
        assert_eq!(second.count, 0);
        assert_eq!(second, HistogramSnapshot::empty());
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3u64, 99, 1_000, 123_456, 99, 7] {
            all.record(v);
        }
        for v in [3u64, 99, 1_000] {
            a.record(v);
        }
        for v in [123_456u64, 99, 7] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = Histogram::new();
        h.record(42);
        h.record(4_200_000);
        let base = h.snapshot();
        let mut merged = base.clone();
        merged.merge(&HistogramSnapshot::empty());
        assert_eq!(merged, base);
        let mut from_empty = HistogramSnapshot::empty();
        from_empty.merge(&base);
        assert_eq!(from_empty, base);
    }

    #[test]
    fn json_is_stable_and_flat() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(
            h.snapshot().to_json(),
            "{\"count\":2,\"sum\":30,\"min\":10,\"max\":20,\"mean\":15.0,\
             \"p50\":10,\"p90\":20,\"p99\":20,\"p999\":20}"
        );
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 3_009_999);
    }
}

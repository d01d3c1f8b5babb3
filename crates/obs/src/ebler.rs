//! EBLER measurement surface.
//!
//! Mirrors the shape of the R&S CMW "Extended BLER" `FetchStruct`: per
//! stream, ACK/NACK/DTX counts and percentages, CRC pass/fail, BLER, and
//! throughput average/min/max in kbit/s. An [`EblerAccumulator`] is the
//! live, lock-free side — the benchmark loop records one decode outcome
//! per scheduled user per subframe — and an [`EblerSurface`] is its
//! plain-data snapshot with deterministic JSON. Because one LTE subframe
//! is exactly 1 ms, throughput in kbit/s equals decoded bits per
//! subframe, so the surface stays in integers until percentage time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::f64_json;

/// Live per-stream tallies. All updates are relaxed atomics.
struct StreamAccum {
    /// Transport blocks that passed CRC (counted as ACK).
    ack: AtomicU64,
    /// Transport blocks that failed CRC (counted as NACK).
    nack: AtomicU64,
    /// Scheduled transmissions with no decode at all (shed / dropped).
    dtx: AtomicU64,
    /// Total decoded (CRC-pass) payload bits.
    bits: AtomicU64,
    /// Smallest per-subframe decoded bit count seen.
    min_bits: AtomicU64,
    /// Largest per-subframe decoded bit count seen.
    max_bits: AtomicU64,
}

impl StreamAccum {
    fn new() -> Self {
        Self {
            ack: AtomicU64::new(0),
            nack: AtomicU64::new(0),
            dtx: AtomicU64::new(0),
            bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(u64::MAX),
            max_bits: AtomicU64::new(0),
        }
    }

    #[inline]
    fn feed_bits(&self, bits: u64) {
        self.bits.fetch_add(bits, Ordering::Relaxed);
        self.min_bits.fetch_min(bits, Ordering::Relaxed);
        self.max_bits.fetch_max(bits, Ordering::Relaxed);
    }

    fn snapshot(&self, reset: bool) -> StreamEbler {
        let (ack, nack, dtx, bits, min_bits, max_bits) = if reset {
            (
                self.ack.swap(0, Ordering::Relaxed),
                self.nack.swap(0, Ordering::Relaxed),
                self.dtx.swap(0, Ordering::Relaxed),
                self.bits.swap(0, Ordering::Relaxed),
                self.min_bits.swap(u64::MAX, Ordering::Relaxed),
                self.max_bits.swap(0, Ordering::Relaxed),
            )
        } else {
            (
                self.ack.load(Ordering::Relaxed),
                self.nack.load(Ordering::Relaxed),
                self.dtx.load(Ordering::Relaxed),
                self.bits.load(Ordering::Relaxed),
                self.min_bits.load(Ordering::Relaxed),
                self.max_bits.load(Ordering::Relaxed),
            )
        };
        StreamEbler::from_counts(ack, nack, dtx, bits, min_bits, max_bits)
    }
}

/// The live EBLER accumulator: one slot per stream (user), recordable
/// from any thread without locks or allocation.
pub struct EblerAccumulator {
    streams: Vec<StreamAccum>,
}

impl EblerAccumulator {
    /// An accumulator for `streams` parallel streams (users).
    pub fn new(streams: usize) -> Self {
        Self {
            streams: (0..streams).map(|_| StreamAccum::new()).collect(),
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// Records one decode outcome: CRC verdict plus the payload bits
    /// that survived (counted only when the CRC passed).
    #[inline]
    pub fn record_decode(&self, stream: usize, crc_ok: bool, payload_bits: u64) {
        let s = &self.streams[stream];
        if crc_ok {
            s.ack.fetch_add(1, Ordering::Relaxed);
            s.feed_bits(payload_bits);
        } else {
            s.nack.fetch_add(1, Ordering::Relaxed);
            s.feed_bits(0);
        }
    }

    /// Records a scheduled transmission that was never decoded (user
    /// shed, subframe dropped): DTX, zero throughput.
    #[inline]
    pub fn record_dtx(&self, stream: usize) {
        let s = &self.streams[stream];
        s.dtx.fetch_add(1, Ordering::Relaxed);
        s.feed_bits(0);
    }

    /// Point-in-time surface across all streams.
    pub fn snapshot(&self) -> EblerSurface {
        self.build(false)
    }

    /// Copies the surface and resets every stream for the next window.
    pub fn snapshot_and_reset(&self) -> EblerSurface {
        self.build(true)
    }

    fn build(&self, reset: bool) -> EblerSurface {
        let streams: Vec<StreamEbler> = self.streams.iter().map(|s| s.snapshot(reset)).collect();
        let mut total_counts = (0u64, 0u64, 0u64, 0u64, u64::MAX, 0u64);
        for s in &streams {
            total_counts.0 += s.ack;
            total_counts.1 += s.nack;
            total_counts.2 += s.dtx;
            total_counts.3 += s.throughput_bits;
            if s.measured() > 0 {
                total_counts.4 = total_counts.4.min(s.throughput_min_kbps as u64);
                total_counts.5 = total_counts.5.max(s.throughput_max_kbps as u64);
            }
        }
        let total = StreamEbler::from_counts(
            total_counts.0,
            total_counts.1,
            total_counts.2,
            total_counts.3,
            total_counts.4,
            total_counts.5,
        );
        EblerSurface { streams, total }
    }
}

/// One stream's measured EBLER block, FetchStruct-shaped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamEbler {
    /// ACKed (CRC-pass) transport blocks.
    pub ack: u64,
    /// NACKed (CRC-fail) transport blocks.
    pub nack: u64,
    /// Scheduled but undecoded transmissions.
    pub dtx: u64,
    /// ACK percentage of all scheduled transmissions.
    pub ack_pct: f64,
    /// NACK percentage of all scheduled transmissions.
    pub nack_pct: f64,
    /// DTX percentage of all scheduled transmissions.
    pub dtx_pct: f64,
    /// Block error ratio in percent: (NACK + DTX) / scheduled.
    pub bler_pct: f64,
    /// CRC passes (mirrors `ack`).
    pub crc_pass: u64,
    /// CRC failures (mirrors `nack`).
    pub crc_fail: u64,
    /// Total decoded payload bits (1 subframe = 1 ms, so bits per
    /// subframe are kbit/s).
    pub throughput_bits: u64,
    /// Average throughput in kbit/s over measured subframes.
    pub throughput_avg_kbps: f64,
    /// Minimum per-subframe throughput in kbit/s.
    pub throughput_min_kbps: f64,
    /// Maximum per-subframe throughput in kbit/s.
    pub throughput_max_kbps: f64,
}

impl StreamEbler {
    fn from_counts(ack: u64, nack: u64, dtx: u64, bits: u64, min_bits: u64, max_bits: u64) -> Self {
        let measured = ack + nack + dtx;
        let pct = |n: u64| {
            if measured == 0 {
                0.0
            } else {
                100.0 * n as f64 / measured as f64
            }
        };
        Self {
            ack,
            nack,
            dtx,
            ack_pct: pct(ack),
            nack_pct: pct(nack),
            dtx_pct: pct(dtx),
            bler_pct: pct(nack + dtx),
            crc_pass: ack,
            crc_fail: nack,
            throughput_bits: bits,
            throughput_avg_kbps: if measured == 0 {
                0.0
            } else {
                bits as f64 / measured as f64
            },
            throughput_min_kbps: if measured == 0 { 0.0 } else { min_bits as f64 },
            throughput_max_kbps: max_bits as f64,
        }
    }

    /// Scheduled transmissions measured into this block.
    pub fn measured(&self) -> u64 {
        self.ack + self.nack + self.dtx
    }

    /// Flat deterministic JSON object (fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ack\":{},\"nack\":{},\"dtx\":{},\
             \"ack_pct\":{},\"nack_pct\":{},\"dtx_pct\":{},\"bler_pct\":{},\
             \"crc_pass\":{},\"crc_fail\":{},\
             \"throughput_avg_kbps\":{},\"throughput_min_kbps\":{},\
             \"throughput_max_kbps\":{}}}",
            self.ack,
            self.nack,
            self.dtx,
            f64_json(self.ack_pct),
            f64_json(self.nack_pct),
            f64_json(self.dtx_pct),
            f64_json(self.bler_pct),
            self.crc_pass,
            self.crc_fail,
            f64_json(self.throughput_avg_kbps),
            f64_json(self.throughput_min_kbps),
            f64_json(self.throughput_max_kbps),
        )
    }
}

/// The full measurement surface: every stream plus the aggregate.
#[derive(Clone, Debug, PartialEq)]
pub struct EblerSurface {
    /// Per-stream blocks, in stream order.
    pub streams: Vec<StreamEbler>,
    /// All streams folded together (min/max taken across streams).
    pub total: StreamEbler,
}

impl EblerSurface {
    /// Deterministic JSON: `{"total":{...},"streams":[{...},...]}`.
    pub fn to_json(&self) -> String {
        let streams: Vec<String> = self.streams.iter().map(StreamEbler::to_json).collect();
        format!(
            "{{\"total\":{},\"streams\":[{}]}}",
            self.total.to_json(),
            streams.join(",")
        )
    }
}

/// A bank of EBLER accumulators — one per cell — plus a running
/// aggregate, all recordable concurrently from worker threads. This is
/// the multi-cell measurement surface: the deployment layer records
/// each decode under its cell's index, and the snapshot yields
/// one FetchStruct-shaped [`EblerSurface`] per cell plus the
/// deployment-wide aggregate (the "all cells folded together" block a
/// tester would read off the instrument).
pub struct EblerBank {
    cells: Vec<EblerAccumulator>,
    aggregate: EblerAccumulator,
}

impl EblerBank {
    /// A bank of `cells` accumulators of `streams` streams each.
    pub fn new(cells: usize, streams: usize) -> Self {
        Self {
            cells: (0..cells).map(|_| EblerAccumulator::new(streams)).collect(),
            aggregate: EblerAccumulator::new(streams),
        }
    }

    /// Records one decode outcome under `cell` and in the aggregate.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `stream` is out of range.
    #[inline]
    pub fn record_decode(&self, cell: usize, stream: usize, crc_ok: bool, payload_bits: u64) {
        self.cells[cell].record_decode(stream, crc_ok, payload_bits);
        self.aggregate.record_decode(stream, crc_ok, payload_bits);
    }

    /// Records a scheduled-but-undecoded transmission (DTX) under
    /// `cell` and in the aggregate.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `stream` is out of range.
    #[inline]
    pub fn record_dtx(&self, cell: usize, stream: usize) {
        self.cells[cell].record_dtx(stream);
        self.aggregate.record_dtx(stream);
    }

    /// One cell's point-in-time surface.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_snapshot(&self, cell: usize) -> EblerSurface {
        self.cells[cell].snapshot()
    }

    /// The deployment-wide aggregate surface.
    pub fn aggregate_snapshot(&self) -> EblerSurface {
        self.aggregate.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_percentages_tally() {
        let acc = EblerAccumulator::new(2);
        acc.record_decode(0, true, 1_000);
        acc.record_decode(0, true, 3_000);
        acc.record_decode(0, false, 0);
        acc.record_dtx(1);
        acc.record_decode(1, true, 2_000);
        let s = acc.snapshot();
        assert_eq!(s.streams[0].ack, 2);
        assert_eq!(s.streams[0].nack, 1);
        assert_eq!(s.streams[0].crc_fail, 1);
        assert_eq!(s.streams[1].dtx, 1);
        assert_eq!(s.total.measured(), 5);
        assert_eq!(s.total.throughput_bits, 6_000);
        assert_eq!(s.total.ack_pct, 60.0);
        assert_eq!(s.total.bler_pct, 40.0);
        // Stream 0: 3 measured subframes carrying 1000/3000/0 bits.
        assert_eq!(s.streams[0].throughput_min_kbps, 0.0);
        assert_eq!(s.streams[0].throughput_max_kbps, 3_000.0);
        assert_eq!(s.streams[0].throughput_avg_kbps, 4_000.0 / 3.0);
    }

    #[test]
    fn empty_surface_is_all_zero() {
        let acc = EblerAccumulator::new(1);
        let s = acc.snapshot();
        assert_eq!(s.total.measured(), 0);
        assert_eq!(s.total.bler_pct, 0.0);
        assert_eq!(s.total.throughput_min_kbps, 0.0);
    }

    #[test]
    fn window_reset_clears_counts() {
        let acc = EblerAccumulator::new(1);
        acc.record_decode(0, true, 500);
        let first = acc.snapshot_and_reset();
        assert_eq!(first.total.ack, 1);
        let second = acc.snapshot();
        assert_eq!(second.total.measured(), 0);
    }

    #[test]
    fn bank_splits_per_cell_and_aggregates() {
        let bank = EblerBank::new(2, 2);
        bank.record_decode(0, 0, true, 1_000);
        bank.record_decode(1, 0, false, 0);
        bank.record_dtx(1, 1);
        let c0 = bank.cell_snapshot(0);
        let c1 = bank.cell_snapshot(1);
        assert_eq!(c0.total.ack, 1);
        assert_eq!(c0.total.measured(), 1);
        assert_eq!(c1.total.nack, 1);
        assert_eq!(c1.total.dtx, 1);
        let agg = bank.aggregate_snapshot();
        assert_eq!(agg.total.measured(), 3);
        assert_eq!(agg.total.ack, 1);
        assert_eq!(agg.total.crc_fail, 1);
    }

    #[test]
    fn json_shape_is_stable() {
        let acc = EblerAccumulator::new(1);
        acc.record_decode(0, true, 100);
        let json = acc.snapshot().to_json();
        assert!(json.starts_with("{\"total\":{\"ack\":1,"));
        assert!(json.contains("\"streams\":[{\"ack\":1,"));
        assert!(json.contains("\"throughput_avg_kbps\":100.0"));
    }
}

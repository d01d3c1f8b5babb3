//! Wall-clock stage timing for the real receiver.
//!
//! [`StageTimer`] wraps each PHY kernel invocation in a timed span and
//! records it as an [`lte_obs::Event::StageSpan`] (nanoseconds from the
//! timer's creation). A [`StageTimer::disabled`] timer carries no epoch
//! and runs the closure bare — no `Instant::now()` at construction or per
//! stage, no event construction — which is what lets the untraced entry
//! points ([`crate::receiver::process_user_pooled`], the pool's per-task
//! kernels) share one body with [`crate::receiver::process_user_traced`]
//! and pay nothing for the instrumentation hooks.
//!
//! For continuous telemetry, a timer can additionally feed per-stage
//! duration **histograms** ([`StageHists`]): one lock-free
//! [`Histogram`] per pipeline stage, recordable from every worker
//! concurrently without locks or allocation, so a soak run can watch
//! each kernel's latency distribution evolve window by window.

use std::time::Instant;

use lte_obs::{Event, Histogram, HistogramSnapshot, NoopRecorder, Recorder, Stage};

static NOOP: NoopRecorder = NoopRecorder;

/// Position of `stage` in [`Stage::ALL`] — the histogram index.
#[inline]
fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::Estimation => 0,
        Stage::Weights => 1,
        Stage::Combine => 2,
        Stage::Finish => 3,
        Stage::MatchedFilter => 4,
        Stage::Ifft => 5,
        Stage::Window => 6,
        Stage::Fft => 7,
        Stage::Combining => 8,
        Stage::Demap => 9,
        Stage::Deinterleave => 10,
        Stage::Turbo => 11,
        Stage::Crc => 12,
    }
}

/// One latency histogram per pipeline stage, shared across workers.
///
/// Recording is lock-free and allocation-free (an atomic bucket add),
/// so the per-subframe hot path can feed it directly.
pub struct StageHists {
    hists: Vec<Histogram>,
}

impl Default for StageHists {
    fn default() -> Self {
        Self::new()
    }
}

impl StageHists {
    /// Empty histograms for every stage in [`Stage::ALL`].
    pub fn new() -> Self {
        Self {
            hists: Stage::ALL.iter().map(|_| Histogram::new()).collect(),
        }
    }

    /// Records one duration (nanoseconds) for `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, duration_ns: u64) {
        self.hists[stage_index(stage)].record(duration_ns);
    }

    /// The live histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.hists[stage_index(stage)]
    }

    /// Snapshots of every stage that recorded at least one span, in
    /// [`Stage::ALL`] order.
    pub fn snapshot_nonempty(&self) -> Vec<(Stage, HistogramSnapshot)> {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.hists[stage_index(s)].snapshot()))
            .filter(|(_, h)| h.count > 0)
            .collect()
    }
}

/// Times named pipeline stages against a shared epoch.
pub struct StageTimer<'a, R: Recorder> {
    recorder: &'a R,
    /// `None` only for [`StageTimer::disabled`], which never reads a clock.
    epoch: Option<Instant>,
    hists: Option<&'a StageHists>,
}

impl StageTimer<'static, NoopRecorder> {
    /// A timer that records nothing and never reads a clock — neither
    /// here nor in [`time`](Self::time).
    pub fn disabled() -> Self {
        StageTimer {
            recorder: &NOOP,
            epoch: None,
            hists: None,
        }
    }

    /// A timer that skips event spans but feeds per-stage duration
    /// histograms — the continuous-telemetry configuration, where the
    /// cost per stage is two `Instant::now()` calls and one atomic
    /// bucket add.
    pub fn histograms_only(hists: &StageHists) -> StageTimer<'_, NoopRecorder> {
        StageTimer {
            recorder: &NOOP,
            epoch: Some(Instant::now()),
            hists: Some(hists),
        }
    }
}

impl<'a, R: Recorder> StageTimer<'a, R> {
    /// Creates a timer recording into `recorder`, with "now" as the
    /// span epoch.
    pub fn new(recorder: &'a R) -> Self {
        StageTimer {
            recorder,
            epoch: Some(Instant::now()),
            hists: None,
        }
    }

    /// Runs `f`, recording its wall-clock extent as a span of `stage`.
    #[inline]
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let spans = self.recorder.enabled();
        let Some(epoch) = self.epoch.filter(|_| spans || self.hists.is_some()) else {
            return f();
        };
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = epoch.elapsed().as_nanos() as u64;
        if let Some(hists) = self.hists {
            hists.record(stage, end_ns - start_ns);
        }
        if spans {
            self.recorder.record(Event::StageSpan {
                stage,
                start_ns,
                end_ns,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_obs::RingRecorder;

    #[test]
    fn disabled_timer_runs_closure_without_recording() {
        let timer = StageTimer::disabled();
        let v = timer.time(Stage::Fft, || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn enabled_timer_records_ordered_spans() {
        let recorder = RingRecorder::new(16);
        let timer = StageTimer::new(&recorder);
        timer.time(Stage::MatchedFilter, || std::hint::black_box(1));
        timer.time(Stage::Ifft, || std::hint::black_box(2));
        let events = recorder.events();
        assert_eq!(events.len(), 2);
        match (events[0], events[1]) {
            (
                Event::StageSpan {
                    stage: a,
                    end_ns: a_end,
                    ..
                },
                Event::StageSpan {
                    stage: b,
                    start_ns: b_start,
                    ..
                },
            ) => {
                assert_eq!(a, Stage::MatchedFilter);
                assert_eq!(b, Stage::Ifft);
                assert!(b_start >= a_end, "spans must not overlap");
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn histogram_timer_feeds_stage_distributions() {
        let hists = StageHists::new();
        let timer = StageTimer::histograms_only(&hists);
        for _ in 0..3 {
            timer.time(Stage::Turbo, || std::hint::black_box(7));
        }
        timer.time(Stage::Crc, || std::hint::black_box(1));
        let nonempty = hists.snapshot_nonempty();
        assert_eq!(nonempty.len(), 2);
        assert_eq!(nonempty[0].0, Stage::Turbo);
        assert_eq!(nonempty[0].1.count, 3);
        assert_eq!(nonempty[1].0, Stage::Crc);
        assert_eq!(nonempty[1].1.count, 1);
    }

    #[test]
    fn stage_index_matches_all_order() {
        for (i, &s) in Stage::ALL.iter().enumerate() {
            assert_eq!(super::stage_index(s), i);
        }
    }
}

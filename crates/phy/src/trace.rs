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
//! Spans are the receiver's one wall-clock telemetry path: whoever wants
//! per-stage host time (`lte_bench`'s `phy.stage.*`, `lte-sim trace`)
//! aggregates them from the [`Recorder`] it passes in.

use std::time::Instant;

use lte_obs::{Event, NoopRecorder, Recorder, Stage};

static NOOP: NoopRecorder = NoopRecorder;

/// Times named pipeline stages against a shared epoch.
pub struct StageTimer<'a, R: Recorder> {
    recorder: &'a R,
    /// `None` only for [`StageTimer::disabled`], which never reads a clock.
    epoch: Option<Instant>,
}

impl StageTimer<'static, NoopRecorder> {
    /// A timer that records nothing and never reads a clock — neither
    /// here nor in [`time`](Self::time).
    pub fn disabled() -> Self {
        StageTimer {
            recorder: &NOOP,
            epoch: None,
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
        }
    }

    /// Runs `f`, recording its wall-clock extent as a span of `stage`.
    #[inline]
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let Some(epoch) = self.epoch.filter(|_| self.recorder.enabled()) else {
            return f();
        };
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = epoch.elapsed().as_nanos() as u64;
        self.recorder.record(Event::StageSpan {
            stage,
            start_ns,
            end_ns,
        });
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
}

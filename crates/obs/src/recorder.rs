//! The [`Recorder`] trait, its two implementations and [`event_json`].
//!
//! Instrumented code is generic over `R: Recorder` and guards every
//! emission with [`Recorder::enabled`]; with the default
//! [`NoopRecorder`] the guard is a compile-time constant `false`, the
//! match arms are dead code and the whole instrumentation inlines to
//! nothing — that is the zero-overhead-when-disabled contract the
//! `obs_overhead` bench pins down.

use std::sync::Mutex;

use crate::event::Event;

/// A sink for structured trace events.
///
/// Methods take `&self`: recording implementations use interior
/// mutability so one recorder can be shared by the simulator (single
/// thread) and the task pool / PHY pipeline (many threads).
pub trait Recorder: Send + Sync {
    /// `true` when events will actually be kept. Instrumentation sites
    /// check this before building an [`Event`], so a disabled recorder
    /// costs nothing.
    fn enabled(&self) -> bool;

    /// Records one event.
    fn record(&self, event: Event);
}

/// The default recorder: discards everything, compiles to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&self, _event: Event) {}
}

/// Keeps the most recent `capacity` events in memory.
///
/// Intended for always-on flight-recorder use: bounded memory, cheap
/// appends, and the tail of the run is available after a failure.
pub struct RingRecorder {
    capacity: usize,
    inner: Mutex<RingInner>,
}

struct RingInner {
    events: Vec<Event>,
    /// Next write position once the ring has wrapped.
    head: usize,
    /// Total events ever recorded (including overwritten ones).
    total: u64,
}

impl RingRecorder {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            inner: Mutex::new(RingInner {
                events: Vec::new(),
                head: 0,
                total: 0,
            }),
        }
    }

    /// Events in recording order (oldest surviving event first).
    pub fn events(&self) -> Vec<Event> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.events.len() < self.capacity {
            inner.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&inner.events[inner.head..]);
            out.extend_from_slice(&inner.events[..inner.head]);
            out
        }
    }

    /// Total events recorded over the recorder's lifetime, counting
    /// events the ring has since overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).total
    }
}

impl Recorder for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.total += 1;
        if inner.events.len() < self.capacity {
            inner.events.push(event);
        } else {
            let head = inner.head;
            inner.events[head] = event;
            inner.head = (head + 1) % self.capacity;
        }
    }
}

/// Renders one event as a single-line JSON object.
pub fn event_json(event: &Event) -> String {
    match event {
        Event::CoreSpan {
            core,
            state,
            start,
            end,
            stage,
            subframe,
        } => {
            let mut s = format!(
                "{{\"ev\":\"core\",\"core\":{core},\"state\":\"{}\",\"start\":{start},\"end\":{end}",
                state.name()
            );
            if let Some(stage) = stage {
                s.push_str(&format!(",\"stage\":\"{}\"", stage.name()));
            }
            if let Some(sf) = subframe {
                s.push_str(&format!(",\"subframe\":{sf}"));
            }
            s.push('}');
            s
        }
        Event::WakePulse {
            core,
            t,
            status_only,
        } => format!("{{\"ev\":\"wake\",\"core\":{core},\"t\":{t},\"status_only\":{status_only}}}"),
        Event::Steal { thief, victim, t } => {
            format!("{{\"ev\":\"steal\",\"thief\":{thief},\"victim\":{victim},\"t\":{t}}}")
        }
        Event::StealFail { core, t } => {
            format!("{{\"ev\":\"steal_fail\",\"core\":{core},\"t\":{t}}}")
        }
        Event::Dispatch {
            subframe,
            t,
            jobs,
            active_target,
        } => format!(
            "{{\"ev\":\"dispatch\",\"subframe\":{subframe},\"t\":{t},\"jobs\":{jobs},\"active_target\":{active_target}}}"
        ),
        Event::SubframeSpan {
            subframe,
            start,
            end,
        } => format!(
            "{{\"ev\":\"subframe\",\"subframe\":{subframe},\"start\":{start},\"end\":{end}}}"
        ),
        Event::StageSpan {
            stage,
            start_ns,
            end_ns,
        } => format!(
            "{{\"ev\":\"stage\",\"stage\":\"{}\",\"start_ns\":{start_ns},\"end_ns\":{end_ns}}}",
            stage.name()
        ),
        Event::Sample {
            series,
            index,
            value,
        } => format!("{{\"ev\":\"sample\",\"series\":\"{series}\",\"index\":{index},\"value\":{value}}}"),
        Event::GovernorDecision {
            subframe,
            t,
            policy,
            estimated_activity,
            target,
        } => format!(
            "{{\"ev\":\"governor\",\"subframe\":{subframe},\"t\":{t},\"policy\":\"{policy}\",\"estimated_activity\":{estimated_activity},\"target\":{target}}}"
        ),
        Event::Fault {
            kind,
            core,
            subframe,
            t,
        } => format!(
            "{{\"ev\":\"fault\",\"kind\":\"{}\",\"core\":{core},\"subframe\":{subframe},\"t\":{t}}}",
            kind.name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CoreState, Stage};

    fn span(i: u64) -> Event {
        Event::CoreSpan {
            core: 0,
            state: CoreState::Busy,
            start: i,
            end: i + 1,
            stage: Some(Stage::Combine),
            subframe: Some(3),
        }
    }

    #[test]
    fn noop_is_disabled() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.record(span(0)); // must not panic
    }

    #[test]
    fn ring_keeps_most_recent() {
        let r = RingRecorder::new(3);
        for i in 0..5 {
            r.record(span(i));
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events,
            vec![span(2), span(3), span(4)],
            "oldest surviving first"
        );
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn ring_below_capacity_returns_all() {
        let r = RingRecorder::new(10);
        r.record(span(0));
        r.record(span(1));
        assert_eq!(r.events(), vec![span(0), span(1)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_ring_rejected() {
        RingRecorder::new(0);
    }

    #[test]
    fn event_json_format_is_stable() {
        assert_eq!(
            event_json(&span(7)),
            "{\"ev\":\"core\",\"core\":0,\"state\":\"busy\",\"start\":7,\"end\":8,\"stage\":\"combine\",\"subframe\":3}"
        );
        assert_eq!(
            event_json(&Event::Sample {
                series: "power",
                index: 2,
                value: 16.5,
            }),
            "{\"ev\":\"sample\",\"series\":\"power\",\"index\":2,\"value\":16.5}"
        );
    }

    #[test]
    fn every_event_kind_renders_as_json_object() {
        let events = [
            span(0),
            Event::WakePulse {
                core: 1,
                t: 5,
                status_only: true,
            },
            Event::Steal {
                thief: 1,
                victim: 2,
                t: 9,
            },
            Event::StealFail { core: 4, t: 10 },
            Event::Dispatch {
                subframe: 0,
                t: 0,
                jobs: 3,
                active_target: 8,
            },
            Event::SubframeSpan {
                subframe: 0,
                start: 0,
                end: 100,
            },
            Event::StageSpan {
                stage: Stage::Turbo,
                start_ns: 10,
                end_ns: 20,
            },
            Event::Sample {
                series: "s",
                index: 0,
                value: 1.0,
            },
            Event::Fault {
                kind: crate::event::FaultKind::CoreDeath,
                core: 3,
                subframe: u32::MAX,
                t: 42,
            },
            Event::GovernorDecision {
                subframe: 7,
                t: 99,
                policy: "NAP+IDLE",
                estimated_activity: 0.25,
                target: 17,
            },
        ];
        for ev in &events {
            let json = event_json(ev);
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains("\"ev\":"), "{json}");
        }
    }
}

//! Chrome / Perfetto trace-event JSON exporter.
//!
//! Produces the classic `{"traceEvents": [...]}` format that both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load. The layout:
//!
//! * **pid 0 "simulator"** — one thread (track) per simulated core.
//!   Core occupancy spans become `"X"` complete events named after the
//!   state (busy spans are named after their stage), coloured by state.
//!   Wake pulses, steals and dispatches become instant events; subframe
//!   latency spans become async `"b"`/`"e"` pairs so overlapping
//!   subframes stack.
//! * **pid 1 "phy"** — wall-clock PHY stage spans on one track.
//!
//! Simulator times are converted from simulated cycles to microseconds
//! with the configured clock; formatting is fixed-precision, so equal
//! event streams give byte-identical files.

use crate::event::{CoreState, Event, Stage};

/// Converts a recorded event stream into Chrome trace-event JSON.
pub struct PerfettoExporter {
    clock_hz: f64,
}

/// Escapes nothing: all names we emit are static snake_case strings.
/// Kept as a helper so the invariant is stated in one place.
fn us(cycles: u64, clock_hz: f64) -> String {
    // Fixed 3-decimal microsecond formatting keeps output deterministic
    // and sub-cycle precision is meaningless anyway.
    format!("{:.3}", cycles as f64 / clock_hz * 1.0e6)
}

fn color(state: CoreState) -> &'static str {
    // Standard chrome tracing palette names.
    match state {
        CoreState::Busy => "thread_state_running",
        CoreState::Spin => "thread_state_runnable",
        CoreState::Barrier => "thread_state_iowait",
        CoreState::NapReactive => "thread_state_sleeping",
        CoreState::NapProactive => "grey",
        CoreState::Dead => "black",
    }
}

impl PerfettoExporter {
    /// Creates an exporter that converts simulated cycles to wall time
    /// with the given core clock.
    pub fn new(clock_hz: f64) -> Self {
        assert!(clock_hz > 0.0, "clock must be positive");
        PerfettoExporter { clock_hz }
    }

    /// Renders the full trace document for `events`.
    ///
    /// `n_cores` controls how many simulator thread tracks get name
    /// metadata (cores that never emitted a span still appear).
    pub fn export(&self, events: &[Event], n_cores: usize) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(events.len() + n_cores + 4);

        lines.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"simulator\"}}"
                .to_string(),
        );
        lines.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"phy\"}}"
                .to_string(),
        );
        lines.push(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"receiver stages\"}}"
                .to_string(),
        );
        for core in 0..n_cores {
            lines.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{core},\"args\":{{\"name\":\"core {core}\"}}}}"
            ));
        }

        for event in events {
            lines.push(self.event_line(event));
        }

        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    fn event_line(&self, event: &Event) -> String {
        let hz = self.clock_hz;
        match event {
            Event::CoreSpan {
                core,
                state,
                start,
                end,
                stage,
                subframe,
            } => {
                let name = stage.map(Stage::name).unwrap_or_else(|| state.name());
                let mut args = String::from("{\"state\":\"");
                args.push_str(state.name());
                args.push('"');
                if let Some(sf) = subframe {
                    args.push_str(&format!(",\"subframe\":{sf}"));
                }
                args.push('}');
                format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{core},\"ts\":{},\"dur\":{},\"cname\":\"{}\",\"args\":{args}}}",
                    us(*start, hz),
                    us(end.saturating_sub(*start), hz),
                    color(*state),
                )
            }
            Event::WakePulse {
                core,
                t,
                status_only,
            } => format!(
                "{{\"name\":\"wake_pulse\",\"ph\":\"i\",\"pid\":0,\"tid\":{core},\"ts\":{},\"s\":\"t\",\"args\":{{\"status_only\":{status_only}}}}}",
                us(*t, hz),
            ),
            Event::Steal { thief, victim, t } => format!(
                "{{\"name\":\"steal\",\"ph\":\"i\",\"pid\":0,\"tid\":{thief},\"ts\":{},\"s\":\"t\",\"args\":{{\"victim\":{victim}}}}}",
                us(*t, hz),
            ),
            Event::StealFail { core, t } => format!(
                "{{\"name\":\"steal_fail\",\"ph\":\"i\",\"pid\":0,\"tid\":{core},\"ts\":{},\"s\":\"t\",\"args\":{{}}}}",
                us(*t, hz),
            ),
            Event::Dispatch {
                subframe,
                t,
                jobs,
                active_target,
            } => format!(
                "{{\"name\":\"dispatch\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":{},\"s\":\"p\",\"args\":{{\"subframe\":{subframe},\"jobs\":{jobs},\"active_target\":{active_target}}}}}",
                us(*t, hz),
            ),
            Event::SubframeSpan {
                subframe,
                start,
                end,
            } => format!(
                "{{\"name\":\"subframe\",\"cat\":\"latency\",\"ph\":\"b\",\"id\":{subframe},\"pid\":0,\"ts\":{},\"args\":{{\"subframe\":{subframe}}}}},\n\
                 {{\"name\":\"subframe\",\"cat\":\"latency\",\"ph\":\"e\",\"id\":{subframe},\"pid\":0,\"ts\":{},\"args\":{{}}}}",
                us(*start, hz),
                us(*end, hz),
            ),
            Event::StageSpan {
                stage,
                start_ns,
                end_ns,
            } => format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{}}}}",
                stage.name(),
                *start_ns as f64 / 1.0e3,
                end_ns.saturating_sub(*start_ns) as f64 / 1.0e3,
            ),
            Event::Sample {
                series,
                index,
                value,
            } => format!(
                "{{\"name\":\"{series}\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{index},\"args\":{{\"value\":{value}}}}}"
            ),
            Event::GovernorDecision {
                subframe,
                t,
                policy,
                estimated_activity,
                target,
            } => format!(
                "{{\"name\":\"governor.target\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\"value\":{target},\"policy\":\"{policy}\",\"subframe\":{subframe},\"estimated_activity\":{estimated_activity}}}}}",
                us(*t, hz),
            ),
            Event::Fault {
                kind,
                core,
                subframe,
                t,
            } => {
                // Faults land on the attributed core's track (or track 0
                // when not core-specific) as process-scoped instants so
                // they stay visible at any zoom level.
                let tid = if *core == u32::MAX { 0 } else { *core };
                let mut args = format!("{{\"kind\":\"{}\"", kind.name());
                if *subframe != u32::MAX {
                    args.push_str(&format!(",\"subframe\":{subframe}"));
                }
                args.push('}');
                format!(
                    "{{\"name\":\"fault:{}\",\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"p\",\"args\":{args}}}",
                    kind.name(),
                    us(*t, hz),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_valid_jsonish_and_deterministic() {
        let events = vec![
            Event::CoreSpan {
                core: 1,
                state: CoreState::Busy,
                start: 700,
                end: 1400,
                stage: Some(Stage::Combine),
                subframe: Some(0),
            },
            Event::SubframeSpan {
                subframe: 0,
                start: 0,
                end: 2100,
            },
            Event::StageSpan {
                stage: Stage::Turbo,
                start_ns: 1000,
                end_ns: 3500,
            },
        ];
        let exporter = PerfettoExporter::new(700.0e6);
        let a = exporter.export(&events, 2);
        let b = exporter.export(&events, 2);
        assert_eq!(a, b, "export must be deterministic");
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.trim_end().ends_with("]}"));
        // 700 cycles at 700 MHz is exactly 1 µs.
        assert!(a.contains("\"ts\":1.000"), "{a}");
        assert!(a.contains("\"name\":\"combine\""));
        assert!(a.contains("\"ph\":\"b\""));
        assert!(a.contains("\"ph\":\"e\""));
        assert!(a.contains("\"name\":\"turbo\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn every_core_gets_a_named_track() {
        let exporter = PerfettoExporter::new(1.0e9);
        let doc = exporter.export(&[], 3);
        for core in 0..3 {
            assert!(doc.contains(&format!("\"name\":\"core {core}\"")));
        }
    }

    #[test]
    fn governor_decisions_render_as_counter_track() {
        let exporter = PerfettoExporter::new(700.0e6);
        let doc = exporter.export(
            &[Event::GovernorDecision {
                subframe: 3,
                t: 2_100_000,
                policy: "NAP+IDLE",
                estimated_activity: 0.4,
                target: 27,
            }],
            8,
        );
        assert!(doc.contains("\"name\":\"governor.target\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"value\":27"));
        assert!(doc.contains("\"policy\":\"NAP+IDLE\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn fault_events_render_as_instants() {
        use crate::event::FaultKind;
        let exporter = PerfettoExporter::new(700.0e6);
        let doc = exporter.export(
            &[
                Event::Fault {
                    kind: FaultKind::CoreDeath,
                    core: 5,
                    subframe: u32::MAX,
                    t: 700,
                },
                Event::Fault {
                    kind: FaultKind::NoiseBurst,
                    core: u32::MAX,
                    subframe: 9,
                    t: 1400,
                },
            ],
            8,
        );
        assert!(doc.contains("\"name\":\"fault:core_death\""));
        assert!(doc.contains("\"tid\":5"));
        assert!(doc.contains("\"name\":\"fault:noise_burst\""));
        assert!(doc.contains("\"subframe\":9"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}

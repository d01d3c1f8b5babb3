//! Harness-side trace spans around every call into a layer.
//!
//! The program itself is not instrumented by this benchmark: a span opens
//! in the harness just before a public entry point is called and closes
//! when it returns. Spans live in memory until the run ends; the traced
//! run then writes them, together with the receiver's own stage spans,
//! as one Chrome/Perfetto trace.

use std::time::Instant;

use lte_uplink_repro::obs::{Event, PerfettoExporter};

use crate::json::quote;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Collects spans when enabled; costs two branches when not, so the same
/// driver code serves the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Aggregate of all spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTotal {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open. The closure receives the tracer so callees can nest.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time, in first-seen order.
    pub fn totals(&self) -> Vec<SpanTotal> {
        totals(&self.spans)
    }

    /// Renders the trace: harness spans on their own track (carrying id,
    /// parent id and the workload as the shared request identifier), plus
    /// the receiver's `StageSpan` events through the repository's own
    /// Perfetto exporter.
    pub fn to_trace_json(&self, workload: &str, stage_events: &[Event]) -> String {
        // Stage spans carry wall-clock nanoseconds, which the exporter
        // converts without its clock; any positive clock will do.
        let base = PerfettoExporter::new(1e9).export(stage_events, 0);
        let body = base
            .trim_end()
            .strip_suffix("]}")
            .expect("exporter closes the event array")
            .trim_end();
        let mut out = String::from(body);
        out.push_str(
            ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"lte_bench harness\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":{},\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":{}}}}}",
                quote(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                quote(workload),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

fn totals(spans: &[Span]) -> Vec<SpanTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<SpanTotal> = Vec::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let self_ns = dur.saturating_sub(children);
        match out.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += dur;
                t.self_ns += self_ns;
            }
            None => out.push(SpanTotal {
                name: s.name,
                count: 1,
                total_ns: dur,
                self_ns,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            Span {
                name: "setup",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "input_for",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "input_for",
                start_ns: 40,
                end_ns: 60,
                parent: Some(0),
            },
        ];
        let t = totals(&spans);
        assert_eq!(t[0].name, "setup");
        assert_eq!((t[0].total_ns, t[0].self_ns), (100, 50));
        assert_eq!((t[1].count, t[1].total_ns, t[1].self_ns), (2, 50, 50));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.span("a", |t| {
            t.span("b", |_| ());
            t.span("c", |_| ());
        });
        on.span("d", |_| ());
        let parents: Vec<Option<usize>> = on.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        let json = on.to_trace_json("steady100", &[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"workload\":\"steady100\""));
    }
}

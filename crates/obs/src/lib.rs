//! `lte-obs`: the observability layer for the LTE uplink benchmark.
//!
//! Three pieces, all dependency-free and deterministic:
//!
//! * [`event`] / [`recorder`] — a flat [`Event`](event::Event) enum and
//!   the [`Recorder`](recorder::Recorder) trait with a zero-overhead
//!   [`NoopRecorder`](recorder::NoopRecorder) default plus a
//!   ring-buffer sink and the [`event_json`](recorder::event_json)
//!   one-line rendering. Instrumented crates (`lte-sched`, `lte-phy`,
//!   `lte-power`) are generic over `R: Recorder`, so disabled tracing
//!   compiles away entirely.
//! * [`metrics`] — a flat [`MetricsRegistry`](metrics::MetricsRegistry)
//!   of named counters/gauges with a sorted-key JSON snapshot.
//! * [`perfetto`] — a Chrome/Perfetto trace-event JSON exporter
//!   ([`PerfettoExporter`](perfetto::PerfettoExporter)) rendering one
//!   track per simulated core plus a wall-clock PHY stage track.
//!
//! The continuous-telemetry layer adds four more:
//!
//! * [`hist`] — lock-free, zero-alloc-on-record HDR-style
//!   [`Histogram`](hist::Histogram)s with mergeable snapshots, drained
//!   per window by `snapshot_and_reset` off the hot path (the EBLER
//!   accumulator drains the same way).
//! * [`slo`] — [`SloSpec`](slo::SloSpec)/[`SloTracker`](slo::SloTracker)
//!   budget evaluation with burn rates, and
//!   [`SloWindows`](slo::SloWindows), the one window path the drivers
//!   close their windows through.
//! * [`ebler`] — the R&S-`FetchStruct`-shaped
//!   [`EblerSurface`](ebler::EblerSurface) measurement surface.
//! * [`openmetrics`] — Prometheus/OpenMetrics text exposition of all of
//!   the above.

pub mod ebler;
pub mod event;
pub mod hist;
pub mod metrics;
pub mod openmetrics;
pub mod perfetto;
pub mod recorder;
pub mod service;
pub mod slo;

pub use ebler::{EblerAccumulator, EblerBank, EblerSurface, StreamEbler};
pub use event::{CoreState, Event, FaultKind, Stage};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{f64_json, MetricValue, MetricsRegistry};
pub use openmetrics::{sanitize_metric_name, OpenMetrics};
pub use perfetto::PerfettoExporter;
pub use recorder::{event_json, NoopRecorder, Recorder, RingRecorder};
pub use service::ServiceSnapshot;
pub use slo::{SloSpec, SloTracker, SloViolation, SloWindows, WindowObservation, WindowVerdict};

impl<R: Recorder> Recorder for &R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&self, event: Event) {
        (**self).record(event)
    }
}

impl<R: Recorder> Recorder for std::sync::Arc<R> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&self, event: Event) {
        (**self).record(event)
    }
}

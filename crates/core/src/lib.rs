//! The LTE Uplink Receiver PHY benchmark.
//!
//! This crate is the paper's primary artifact: an open benchmark that
//! "realistically captures the dynamic behavior of an LTE baseband uplink
//! as viewed by the base station", plus the subframe-based power
//! management study built on it.
//!
//! * [`benchmark`] — the executable benchmark: a maintenance loop
//!   generates subframe input parameters and data, dispatches a subframe
//!   every DELTA, and a work-stealing pool of worker threads runs the
//!   real DSP pipeline (channel estimation → combiner weights → antenna
//!   combining → demap → decode → CRC) with results verified against the
//!   serial golden reference (§IV of the paper).
//! * [`experiments`] — deterministic reproductions of every figure and
//!   table in the paper's evaluation, driven by the 64-core discrete-
//!   event simulator and the calibrated power model.
//! * [`artifacts`] — the paper-artifact table: one row per figure, table,
//!   the §IV-D check and §VIII's diurnal-load claim, each with the files
//!   it writes and the paper's claim it is checked against.
//! * [`govern`] — the closed power-governance loop on both substrates:
//!   governed DES bursts with a per-subframe estimated-vs-measured
//!   audit, governed real-pool runs verified byte-identical against
//!   ungoverned ones, and Eq. 3 slope re-calibration from real runs.
//! * [`chaos`] — the deterministic fault-injection campaign: seeded
//!   chaos in the DES, conservation proofs on the real pool, and
//!   link-level noise bursts and grid corruption, all exported as one
//!   trace + metrics pair.
//! * [`soak`] — continuous telemetry over a long governed run: rolling
//!   latency/EBLER/power windows judged against SLO budgets, exported
//!   as a deterministic snapshot stream plus an OpenMetrics exposition.
//! * [`serve`] — the continuously-running ingest service: subframe work
//!   arrives through a bounded ring, admission control and the
//!   reject → shed escalation ladder manage overload, the
//!   pressure-wrapped governor closes its loop on live queue depth, and
//!   the lifecycle machinery (graceful drain, hot reload, watchdog
//!   restart) keeps the receiver long-running.
//! * [`deploy`] — the multi-cell deployment engine: N cells with their
//!   own identities and mMTC-scale UE populations share one pool,
//!   with deterministic inter-cell interference and per-cell
//!   fingerprints proving isolation at zero coupling.
//! * [`fingerprint`] — one-line FNV-1a 64 fingerprints of decoded
//!   bytes and of the canonical trace-event stream, for cheap
//!   byte-identity comparisons between runs.
//! * [`signals`] — dependency-free SIGINT/SIGTERM latching so every
//!   long-running command drains and flushes instead of dying.
//! * [`report`] — CSV/markdown rendering of experiment results.
//!
//! The `lte-sim` binary exposes all experiments from the command line:
//!
//! ```text
//! lte-sim all --out results/     # every artifact-table row, checked
//! lte-sim fig12                  # estimator validation only
//! lte-sim table2 --quick         # reduced run for smoke testing
//! lte-sim iv-d                   # §IV-D serial/parallel verification
//! ```

pub mod artifacts;
pub mod benchmark;
pub mod chaos;
pub mod cli;
pub mod conformance;
pub mod deploy;
mod dispatch;
pub mod experiments;
pub mod fingerprint;
pub mod govern;
pub mod perf;
pub mod report;
pub mod serve;
pub mod signals;
pub mod soak;
pub mod svg;
pub mod trace;

pub use benchmark::{BenchmarkConfig, BenchmarkRun, PoolActivity, UplinkBenchmark};
pub use chaos::{ChaosArtifacts, ChaosSummary};
pub use conformance::{compute_vectors, diff_vectors, parse_golden, render_golden, KernelVector};
pub use deploy::{run_deploy, CellReport, DeployConfig, DeployReport};
pub use experiments::ExperimentContext;
pub use fingerprint::{
    canonical_fingerprint, canonical_trace_fingerprint, fingerprint_line, fingerprint_results,
    Fnv1a,
};
pub use govern::{DesGovernRun, GovernReport, PoolGovernRun};
pub use serve::{
    run_serve, DrainReason, LifecycleEvent, ServeConfig, ServeControl, ServeOutcome, ServeParams,
    ServeWindow, TrafficModel,
};
pub use soak::{SoakConfig, SoakReport, SoakWindow};

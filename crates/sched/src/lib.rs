//! Work-stealing runtime and tile-machine simulator.
//!
//! Two execution substrates back the benchmark:
//!
//! * [`pool`] — a real work-stealing thread pool (one OS thread per
//!   worker, mutex-guarded `VecDeque` queues on `std` — not lock-free)
//!   mirroring the paper's Pthreads runtime: a global user queue checked
//!   before stealing, per-scope task sets, and cycle-accounting
//!   instrumentation (the `get_cycle_count()` analogue). This is what
//!   the *benchmark* deliverable runs on.
//!
//! * [`sim`] — a deterministic discrete-event simulator of a 64-core tile
//!   processor (the TILEPro64 substitute): per-core queues, work stealing
//!   with steal latency, the `nap` instruction with periodic wake polling,
//!   and per-state occupancy accounting. Every power experiment in the
//!   reproduction runs here, bit-reproducibly.
//!
//! [`ingest`] adds the streaming front door: a bounded MPSC ring with
//! explicit rejection and close-to-drain semantics, feeding the pool
//! from live sources instead of a closed batch loop.
//!
//! [`shard`] adds the fair round-robin dispatch order the deployment
//! layer uses to release every cell's work onto one shared pool without
//! a wide cell monopolising the queue head.
//!
//! [`cycles`] supplies the per-kernel cycle cost model that converts a
//! user's subframe parameters into the simulator's task costs, calibrated
//! so a maximally loaded subframe occupies 62 workers for ≈ 5 ms — the
//! paper's measured rate on the TILEPro64.

pub mod cycles;
mod deque;
pub mod ingest;
pub mod pool;
pub mod shard;
pub mod sim;

pub use cycles::{CostModel, SimJob};
pub use ingest::{IngestQueue, PushError};
pub use pool::{
    host_parallelism, silence_injected_panics, InjectedPanic, PoolError, PoolHandle, PoolTelemetry,
    TaskPool, WorkerKill, WorkerSnapshot,
};
pub use shard::interleave_shards;
pub use sim::{NapMode, SimBoundary, SimConfig, SimReport, SimSession, Simulator, SubframeLoad};

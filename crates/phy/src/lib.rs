//! The LTE uplink physical-layer pipeline.
//!
//! This crate implements the per-user receive chain of the ISPASS 2012
//! benchmark (Fig. 3 of the paper):
//!
//! ```text
//!             reference symbol                         data symbols
//!  ┌─────────────────────────────────┐   ┌────────────────────────────────┐
//!  │ matched filter → IFFT → window  │   │ antenna combining → IFFT       │
//!  │ → FFT   (per rx-antenna, layer) │ → │   (per symbol, layer)          │
//!  └─────────────────────────────────┘   │ → deinterleave → soft demap    │
//!         → combiner weights             │ → turbo decode → CRC           │
//!                                        └────────────────────────────────┘
//! ```
//!
//! plus the *transmit* side ([`tx`]) needed to synthesise realistic input
//! grids (the paper likewise generates its input data at initialisation),
//! and a serial golden-reference path ([`verify`]) used to validate any
//! parallel execution of the same kernels — the paper's §IV-D methodology.
//! There is one serial receiver body ([`receiver::process_user_pooled`]):
//! it runs out of the calling thread's [`receiver::UserScratch`], so the
//! reference path *is* the zero-allocation steady-state path.
//!
//! The kernels are exposed individually (estimate one antenna/layer path,
//! combine one symbol/layer, …) precisely because the benchmark's runtime
//! schedules them as independent work-stealing tasks.
//!
//! # Example
//!
//! ```
//! use lte_phy::params::{CellConfig, TurboMode, UserConfig};
//! use lte_phy::tx::synthesize_user;
//! use lte_phy::receiver::{process_user_pooled, UserScratch};
//! use lte_dsp::fft::FftPlanner;
//! use lte_dsp::{Modulation, Xoshiro256};
//!
//! let cell = CellConfig::default();
//! let user = UserConfig::new(4, 2, Modulation::Qam16);
//! let mut rng = Xoshiro256::seed_from_u64(7);
//! let input = synthesize_user(&cell, &user, 30.0, &mut rng);
//! // One planner serves every user of a campaign.
//! let planner = FftPlanner::new();
//! let result = process_user_pooled(&cell, &input, TurboMode::Passthrough, &planner);
//! assert!(result.matches(&input.ground_truth));
//! // Handing the payload back keeps a steady-state loop allocation-free.
//! UserScratch::with(|s| s.arena.recycle_u8(result.payload));
//! ```

pub mod combiner;
pub mod estimator;
pub mod grid;
mod linalg;
pub mod params;
pub mod receiver;
pub mod trace;
pub mod tx;
pub mod verify;

pub use params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
pub use receiver::{process_user, UserResult};
pub use trace::StageTimer;

//! Power modelling, workload estimation and power-aware resource
//! management (§V-B and §VI of the paper).
//!
//! * [`model`] — a calibrated power/thermal model of the 64-core chip
//!   (base power 14 W, per-core busy/spin dynamic power, nap wake-pulse
//!   overheads, first-order thermal feedback) that converts the
//!   simulator's occupancy buckets into watts. This substitutes for the
//!   paper's NI USB-6210 measurements of the TILEPro64's buck converter.
//! * [`meter`] — the RMS power meter (100 ms windows) used to present
//!   every power trace, matching the paper's measurement post-processing.
//! * [`estimator`] — the subframe workload estimator: per-(layers,
//!   modulation) activity slopes `k_{L,M}` (Eq. 3) fitted from
//!   steady-state calibration runs (Fig. 11), summed over users (Eq. 4),
//!   and the active-core controller (Eq. 5).
//! * [`gating`] — the analytical power-gating model (Eqs. 6–9): groups of
//!   eight cores, a five-subframe look-around window, 55 mW static power
//!   per core and 15 mW switching overhead.
//! * [`governor`] — the substrate-agnostic control loop: the single
//!   [`NapPolicy`] definition (NONAP/IDLE/NAP/NAP+IDLE), the
//!   [`Governor`] trait turning per-subframe workload observations into
//!   [`CoreTarget`]s, and the [`ExecutionSubstrate`] trait implemented
//!   by both the DES simulator session and the real task pool.

pub mod estimator;
pub mod gating;
pub mod governor;
pub mod meter;
pub mod model;
pub mod pressure;
pub mod windows;

pub use estimator::{CoreController, WorkloadEstimator};
pub use gating::PowerGating;
pub use governor::{
    governed_boundary, CoreTarget, ExecutionSubstrate, Governor, GovernorDecisionRecord, NapPolicy,
    PolicyGovernor, SubframeObservation, UserLoad,
};
pub use meter::{record_series, rms_windows, rms_windows_recorded};
pub use model::PowerModel;
pub use pressure::PressureGovernor;
pub use windows::PowerWindowSnapshot;

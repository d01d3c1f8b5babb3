//! Signal-processing substrate for the LTE Uplink Receiver PHY benchmark.
//!
//! This crate implements, from scratch, every DSP kernel the ISPASS 2012
//! benchmark's receiver pipeline is built from:
//!
//! * [`Complex32`] arithmetic and small math helpers ([`math`]),
//! * mixed-radix forward/inverse FFTs for all LTE transform sizes ([`fft`]),
//! * Zadoff–Chu reference (DM-RS) sequences ([`zadoff_chu`]),
//! * the channel-estimation matched filter and time-domain window
//!   ([`matched_filter`], [`window`]),
//! * QPSK/16-QAM/64-QAM symbol mapping and exact/max-log soft demapping
//!   ([`modulation`], [`llr`]),
//! * block (de)interleaving ([`interleave`]),
//! * CRC-8/16/24A/24B generators used by LTE transport channels ([`crc`]),
//! * Gold-sequence scrambling ([`scrambling`]), transport-block
//!   code-block segmentation ([`segmentation`]) and circular-buffer rate
//!   matching ([`rate_match`]),
//! * a rate-1/3 PCCC turbo codec with a QPP interleaver ([`turbo`]) — the
//!   paper passes turbo decoding through (it runs on dedicated hardware);
//!   the real codec is provided as the natural module replacement,
//! * a MIMO block-fading + AWGN channel model ([`channel`]), and
//! * a deterministic, splittable xoshiro256** RNG ([`rng`]) so every
//!   experiment in the reproduction is bit-reproducible.
//!
//! # Example
//!
//! ```
//! use lte_dsp::fft::FftPlan;
//! use lte_dsp::Complex32;
//!
//! // A 300-point transform (25 PRBs × 12 subcarriers) — a typical LTE size.
//! let plan = FftPlan::forward(300);
//! let mut data = vec![Complex32::new(1.0, 0.0); 300];
//! plan.process(&mut data);
//! assert!((data[0].re - 300.0).abs() < 1e-3);
//! ```

pub mod arena;
pub mod channel;
pub mod complex;
pub mod crc;
pub mod fft;
pub mod interleave;
pub mod llr;
pub mod matched_filter;
pub mod math;
pub mod modulation;
pub mod rate_match;
pub mod rng;
pub mod scrambling;
pub mod segmentation;
pub mod simd;
pub mod turbo;
pub mod window;
pub mod zadoff_chu;

pub use complex::Complex32;
pub use modulation::Modulation;
pub use rng::Xoshiro256;

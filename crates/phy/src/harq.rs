//! HARQ with chase combining.
//!
//! LTE uplink reliability rests on hybrid ARQ: a transport block that
//! fails its CRC is not discarded — the receiver keeps the soft
//! demodulator output and asks the UE to send the *same* encoded block
//! again. Because retransmissions carry identical bits (and identical
//! scrambling), their per-bit LLRs add: every attempt contributes its
//! received energy, so the combination decodes at an SNR no single
//! transmission reaches. This module provides the receive-side state:
//!
//! * [`HarqProcess`] — one transport block's soft buffer across
//!   attempts (demodulate → [`combine_llrs`] → decode the combination);
//! * [`HarqEntity`] — per-user processes with a bounded retransmission
//!   budget and campaign-level statistics.
//!
//! The combining boundary is deliberately *before* descrambling and
//! deinterleaving ([`demodulate_user_into`] output order): both are fixed
//! per-allocation permutations/sign-flips, so combining commutes with
//! them, and the serial tail ([`finish_user_with_arena`]) runs once per
//! decode attempt instead of once per transmission.

use lte_dsp::fft::FftPlanner;
use lte_dsp::llr::combine_llrs;

use crate::grid::UserInput;
use crate::params::{CellConfig, TurboMode};
use crate::receiver::{demodulate_user_into, finish_user_with_arena, UserResult, UserScratch};

/// One transport block's soft buffer across HARQ attempts.
#[derive(Clone, Debug, Default)]
pub struct HarqProcess {
    combined: Vec<f32>,
    attempts: usize,
}

impl HarqProcess {
    /// An empty process (no transmissions received yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Transmissions received so far.
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// The current combined LLRs (empty before the first reception).
    pub fn soft_buffer(&self) -> &[f32] {
        &self.combined
    }

    /// Demodulates one received transmission, chase-combines it into
    /// the soft buffer and attempts to decode the combination.
    ///
    /// # Panics
    ///
    /// Panics if `input` is inconsistent or its allocation differs from
    /// earlier attempts (retransmissions reuse the original grant).
    pub fn receive(
        &mut self,
        cell: &CellConfig,
        input: &UserInput,
        mode: TurboMode,
        planner: &FftPlanner,
    ) -> UserResult {
        self.attempts += 1;
        UserScratch::with(|scratch| {
            if self.combined.is_empty() {
                demodulate_user_into(cell, input, planner, scratch, &mut self.combined);
            } else {
                let mut update = scratch.arena.take_f32(self.combined.len());
                demodulate_user_into(cell, input, planner, scratch, &mut update);
                combine_llrs(&mut self.combined, &update);
                scratch.arena.recycle_f32(update);
            }
            let (arena, turbo) = (&mut scratch.arena, &mut scratch.turbo);
            finish_user_with_arena(cell, input, mode, &self.combined, arena, turbo)
        })
    }
}

/// What the entity tells the scheduler after each reception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarqDecision {
    /// The transport block is delivered upward (successfully or not);
    /// the user's process has been cleared.
    Delivered {
        /// The decode outcome of the combined soft buffer.
        result: UserResult,
        /// Transmissions it took (1 = first transmission decoded).
        attempts: usize,
        /// `true` when combining succeeded after a failed first attempt.
        recovered: bool,
    },
    /// CRC failed and retransmission budget remains: the caller should
    /// schedule attempt `attempts + 1`.
    Retransmit {
        /// Transmissions received so far.
        attempts: usize,
    },
}

/// Campaign-level HARQ counters (all monotonically increasing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HarqStats {
    /// Transmissions received (first attempts + retransmissions).
    pub transmissions: u64,
    /// Retransmissions requested.
    pub retransmissions: u64,
    /// Blocks recovered by combining after a failed first attempt.
    pub recoveries: u64,
    /// Blocks delivered with a failed CRC (budget exhausted).
    pub failures: u64,
}

/// Per-user HARQ processes with a bounded retransmission budget.
#[derive(Clone, Debug)]
pub struct HarqEntity {
    /// Retransmissions allowed per transport block (0 disables HARQ).
    pub max_retransmissions: usize,
    processes: std::collections::BTreeMap<u32, HarqProcess>,
    /// Running campaign statistics.
    pub stats: HarqStats,
}

impl HarqEntity {
    /// An entity allowing `max_retransmissions` per transport block.
    pub fn new(max_retransmissions: usize) -> Self {
        HarqEntity {
            max_retransmissions,
            processes: std::collections::BTreeMap::new(),
            stats: HarqStats::default(),
        }
    }

    /// Users with an in-flight (undelivered) process.
    pub fn in_flight(&self) -> usize {
        self.processes.len()
    }

    /// Feeds one received transmission for `user` and decides between
    /// delivery and retransmission.
    pub fn on_reception(
        &mut self,
        user: u32,
        cell: &CellConfig,
        input: &UserInput,
        mode: TurboMode,
        planner: &FftPlanner,
    ) -> HarqDecision {
        let process = self.processes.entry(user).or_default();
        let result = process.receive(cell, input, mode, planner);
        let attempts = process.attempts();
        self.stats.transmissions += 1;
        if !result.crc_ok && attempts <= self.max_retransmissions {
            self.stats.retransmissions += 1;
            return HarqDecision::Retransmit { attempts };
        }
        self.processes.remove(&user);
        let recovered = result.crc_ok && attempts > 1;
        if recovered {
            self.stats.recoveries += 1;
        }
        if !result.crc_ok {
            self.stats.failures += 1;
        }
        HarqDecision::Delivered {
            result,
            attempts,
            recovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::UserConfig;
    use crate::receiver::process_user;
    use crate::tx::{synthesize_retransmission, synthesize_user, FramePlan};
    use lte_dsp::{Modulation, Xoshiro256};

    /// Drives one user's transport block through the entity, feeding
    /// retransmissions until delivery. Returns the decision plus every
    /// individual attempt's single-shot CRC outcome.
    fn run_one_block(
        entity: &mut HarqEntity,
        cell: &CellConfig,
        user: &UserConfig,
        snr_db: f64,
        rng: &mut Xoshiro256,
    ) -> (HarqDecision, Vec<bool>) {
        let planner = FftPlanner::new();
        let mode = TurboMode::Passthrough;
        let first = synthesize_user(cell, user, snr_db, rng);
        let payload = first.ground_truth.clone();
        let mut single_shot = vec![process_user(cell, &first, mode).crc_ok];
        let mut decision = entity.on_reception(0, cell, &first, mode, &planner);
        while let HarqDecision::Retransmit { .. } = decision {
            let retx = synthesize_retransmission(cell, user, mode, &payload, snr_db, rng);
            single_shot.push(process_user(cell, &retx, mode).crc_ok);
            decision = entity.on_reception(0, cell, &retx, mode, &planner);
        }
        (decision, single_shot)
    }

    #[test]
    fn high_snr_block_delivers_first_time() {
        let cell = CellConfig::default();
        let user = UserConfig::new(4, 1, Modulation::Qpsk);
        let mut entity = HarqEntity::new(3);
        let mut rng = Xoshiro256::seed_from_u64(2);
        let (decision, _) = run_one_block(&mut entity, &cell, &user, 30.0, &mut rng);
        match decision {
            HarqDecision::Delivered {
                result,
                attempts,
                recovered,
            } => {
                assert!(result.crc_ok);
                assert_eq!(attempts, 1);
                assert!(!recovered);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(entity.stats.retransmissions, 0);
        assert_eq!(entity.in_flight(), 0);
    }

    #[test]
    fn low_snr_chase_combining_recovers_what_no_single_shot_decodes() {
        // The acceptance-criteria link test: over a slow-fading channel
        // (one realisation for the whole HARQ round) at an SNR where
        // *every* individual transmission fails CRC, the combined soft
        // buffer decodes — retransmissions average the noise down. The
        // seed is fixed; single-shot outcomes are asserted, not assumed.
        use crate::tx::{synthesize_payload_over_channel, synthesize_user_over_channel};
        use lte_dsp::channel::MimoChannel;

        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let mode = TurboMode::Passthrough;
        let snr_db = -6.0;
        let planner = FftPlanner::new();
        let mut entity = HarqEntity::new(6);
        let mut rng = Xoshiro256::seed_from_u64(0xCAFE + 3);
        let channel = MimoChannel::randomize(cell.n_rx, user.layers, 3, &mut rng);

        let first = synthesize_user_over_channel(&cell, &user, mode, snr_db, &channel, &mut rng);
        let payload = first.ground_truth.clone();
        let mut single_shot = vec![process_user(&cell, &first, mode).crc_ok];
        let mut decision = entity.on_reception(0, &cell, &first, mode, &planner);
        while let HarqDecision::Retransmit { .. } = decision {
            let retx = synthesize_payload_over_channel(
                &cell, &user, mode, &payload, snr_db, &channel, &mut rng,
            );
            single_shot.push(process_user(&cell, &retx, mode).crc_ok);
            decision = entity.on_reception(0, &cell, &retx, mode, &planner);
        }

        assert!(single_shot.len() > 1);
        assert!(
            single_shot.iter().all(|&ok| !ok),
            "every individual transmission must fail CRC: {single_shot:?}"
        );
        match decision {
            HarqDecision::Delivered {
                result,
                attempts,
                recovered,
            } => {
                assert!(result.crc_ok, "combined decode failed after {attempts} tx");
                assert!(attempts > 1);
                assert!(recovered);
                assert_eq!(result.payload, payload);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(entity.stats.recoveries, 1);
        assert_eq!(entity.stats.failures, 0);
        assert!(entity.stats.retransmissions >= 1);
    }

    #[test]
    fn budget_exhaustion_delivers_a_failed_block() {
        let cell = CellConfig::default();
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let mut entity = HarqEntity::new(1);
        let mut rng = Xoshiro256::seed_from_u64(7);
        // Hopeless SNR: even combining two attempts cannot decode.
        let (decision, _) = run_one_block(&mut entity, &cell, &user, -25.0, &mut rng);
        match decision {
            HarqDecision::Delivered {
                result,
                attempts,
                recovered,
            } => {
                assert!(!result.crc_ok);
                assert_eq!(attempts, 2, "1 transmission + 1 retransmission");
                assert!(!recovered);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(entity.stats.failures, 1);
        assert_eq!(entity.stats.retransmissions, 1);
    }

    #[test]
    fn entity_tracks_users_independently() {
        let cell = CellConfig::default();
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let planner = FftPlanner::new();
        let mut entity = HarqEntity::new(4);
        let mut rng = Xoshiro256::seed_from_u64(3);
        // User 0 fails at terrible SNR and stays in flight.
        let bad = synthesize_user(&cell, &user, -25.0, &mut rng);
        let d0 = entity.on_reception(0, &cell, &bad, TurboMode::Passthrough, &planner);
        assert!(matches!(d0, HarqDecision::Retransmit { attempts: 1 }));
        // User 1 decodes immediately; user 0's buffer is untouched.
        let good = synthesize_user(&cell, &user, 30.0, &mut rng);
        let d1 = entity.on_reception(1, &cell, &good, TurboMode::Passthrough, &planner);
        assert!(matches!(d1, HarqDecision::Delivered { .. }));
        assert_eq!(entity.in_flight(), 1);
    }

    #[test]
    fn process_soft_buffer_accumulates() {
        let cell = CellConfig::default();
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let planner = FftPlanner::new();
        let mut rng = Xoshiro256::seed_from_u64(4);
        let first = synthesize_user(&cell, &user, 10.0, &mut rng);
        let payload = first.ground_truth.clone();
        let mut process = HarqProcess::new();
        assert!(process.soft_buffer().is_empty());
        process.receive(&cell, &first, TurboMode::Passthrough, &planner);
        let after_one = process.soft_buffer().to_vec();
        let retx = synthesize_retransmission(
            &cell,
            &user,
            TurboMode::Passthrough,
            &payload,
            10.0,
            &mut rng,
        );
        process.receive(&cell, &retx, TurboMode::Passthrough, &planner);
        assert_eq!(process.attempts(), 2);
        assert_eq!(after_one.len(), process.soft_buffer().len());
        assert_ne!(after_one, process.soft_buffer());
        let plan = FramePlan::for_user(&user, TurboMode::Passthrough);
        assert_eq!(after_one.len(), plan.payload_bits() + 24);
    }
}

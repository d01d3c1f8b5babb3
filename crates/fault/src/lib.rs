//! `lte-fault`: the fault-injection and graceful-degradation vocabulary.
//!
//! Real uplink receivers live with faults: noise bursts and corrupted
//! grids fail a block's CRC, overload is shed before it breaks the
//! subframe deadline, and dying cores must not take transport blocks with
//! them. This crate holds the *specification* side of that story — seeded
//! fault plans and the admission/escalation vocabulary — while the
//! mechanisms live where the faults land (`lte-sched` shedding and
//! self-healing, `lte-uplink` chaos campaigns). Shedding the cheapest
//! users is the one overload response.
//!
//! Everything here is a pure function of a seed: a [`FaultPlan`] decides
//! whether subframe `s`, user `u`, task `t` is faulted by hashing the
//! indices into its seed, never by consulting call order, wall-clock or
//! shared state. Two same-seed campaigns therefore inject byte-identical
//! fault streams — the determinism tests depend on that.

use lte_dsp::Xoshiro256;

pub mod admission;

pub use admission::{
    EscalationDecision, EscalationLadder, EscalationState, IngestFaults, TokenBucket,
};

/// A DES core that fail-stops mid-campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadCore {
    /// The core that dies.
    pub core: usize,
    /// Simulated cycle at which it stops picking up work.
    pub at_cycle: u64,
}

/// A DES core running at a degraded frequency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlowCore {
    /// The affected core.
    pub core: usize,
    /// Execution-time multiplier in per-mille (1500 = tasks take 1.5×).
    pub factor_permille: u32,
}

/// A seeded chaos campaign: which faults hit which subframe, user and
/// task, as a pure function of `seed` and the indices.
///
/// Rates are expressed in per-mille (0–1000) so the plan stays integer
/// and hashable; a rate of 0 disables that fault class entirely.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every per-index draw hashes this with the indices.
    pub seed: u64,
    /// Per-user, per-subframe probability (‰) of a deep noise burst on
    /// the first transmission.
    pub noise_burst_permille: u16,
    /// SNR (dB) a bursted user's transmission is received at.
    pub burst_snr_db: f32,
    /// Per-user, per-subframe probability (‰) of resource-grid cell
    /// corruption.
    pub grid_corruption_permille: u16,
    /// Grid cells overwritten per corruption event.
    pub corrupt_cells: usize,
    /// Per-task panic probability (‰), applied in the real pool and in
    /// the DES.
    pub task_panic_permille: u16,
    /// Worker-kill injections spread evenly across the campaign (real
    /// pool; each kill is followed by a respawn).
    pub worker_kills: usize,
    /// DES: a core that fail-stops.
    pub dead_core: Option<DeadCore>,
    /// DES: cores running slow.
    pub slow_cores: Vec<SlowCore>,
}

/// Fault classes addressed by per-index draws; the salt keeps the draw
/// streams independent of each other.
const SALT_NOISE: u64 = 0x6E6F_6973_655F_6231; // "noise_b1"
const SALT_GRID: u64 = 0x6772_6964_5F63_6F72; // "grid_cor"
const SALT_PANIC: u64 = 0x7061_6E69_635F_7431; // "panic_t1"

impl FaultPlan {
    /// A quiet plan: nothing faults. Useful as a baseline and as a
    /// builder starting point.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            noise_burst_permille: 0,
            burst_snr_db: -2.0,
            grid_corruption_permille: 0,
            corrupt_cells: 24,
            task_panic_permille: 0,
            worker_kills: 0,
            dead_core: None,
            slow_cores: Vec::new(),
        }
    }

    /// The default smoke campaign used by `lte-sim chaos` and the CI
    /// smoke run: every fault class active at a rate that exercises the
    /// recovery paths within a few dozen subframes.
    pub fn smoke(seed: u64) -> Self {
        FaultPlan {
            seed,
            noise_burst_permille: 250,
            burst_snr_db: -2.0,
            grid_corruption_permille: 120,
            corrupt_cells: 24,
            task_panic_permille: 30,
            worker_kills: 2,
            dead_core: Some(DeadCore {
                core: 2,
                at_cycle: 400_000,
            }),
            slow_cores: vec![SlowCore {
                core: 1,
                factor_permille: 1500,
            }],
        }
    }

    /// A deterministic RNG for one (salt, a, b) index triple.
    ///
    /// The stream depends only on the plan seed and the indices, never
    /// on draw order, so concurrent consumers see identical faults.
    fn rng_for(&self, salt: u64, a: u64, b: u64) -> Xoshiro256 {
        // SplitMix64-style avalanche over the packed indices; the seeded
        // constructor expands the result into the full state.
        let mut z = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xoshiro256::seed_from_u64(z ^ (z >> 31))
    }

    fn draw_permille(&self, salt: u64, a: u64, b: u64, permille: u16) -> bool {
        permille > 0 && self.rng_for(salt, a, b).next_below(1000) < u64::from(permille)
    }

    /// Does `(subframe, user)`'s first transmission arrive in a noise
    /// burst?
    pub fn noise_burst(&self, subframe: usize, user: usize) -> bool {
        self.draw_permille(
            SALT_NOISE,
            subframe as u64,
            user as u64,
            self.noise_burst_permille,
        )
    }

    /// Is `(subframe, user)`'s resource grid corrupted?
    pub fn grid_corruption(&self, subframe: usize, user: usize) -> bool {
        self.draw_permille(
            SALT_GRID,
            subframe as u64,
            user as u64,
            self.grid_corruption_permille,
        )
    }

    /// An RNG for drawing the corrupted cell positions/values of one
    /// `(subframe, user)` corruption event.
    pub fn corruption_rng(&self, subframe: usize, user: usize) -> Xoshiro256 {
        self.rng_for(SALT_GRID ^ 1, subframe as u64, user as u64)
    }

    /// Does task `task` of subframe `subframe` panic?
    pub fn task_panics(&self, subframe: usize, task: usize) -> bool {
        self.draw_permille(
            SALT_PANIC,
            subframe as u64,
            task as u64,
            self.task_panic_permille,
        )
    }

    /// The worker to kill at `subframe`, if the plan schedules one
    /// there: `worker_kills` kills are spread evenly over `campaign_len`
    /// subframes, targeting workers round-robin.
    pub fn worker_kill_at(
        &self,
        subframe: usize,
        campaign_len: usize,
        n_workers: usize,
    ) -> Option<usize> {
        if self.worker_kills == 0 || n_workers == 0 || campaign_len == 0 {
            return None;
        }
        let stride = campaign_len.div_ceil(self.worker_kills);
        if subframe % stride == stride / 2 && subframe / stride < self.worker_kills {
            Some((subframe / stride) % n_workers)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_faults() {
        let plan = FaultPlan::quiet(7);
        for s in 0..50 {
            for u in 0..10 {
                assert!(!plan.noise_burst(s, u));
                assert!(!plan.grid_corruption(s, u));
                assert!(!plan.task_panics(s, u));
            }
            assert_eq!(plan.worker_kill_at(s, 50, 4), None);
        }
    }

    #[test]
    fn draws_are_order_independent_and_seeded() {
        let plan = FaultPlan::smoke(42);
        // Same plan, any call order: identical outcomes.
        let forward: Vec<bool> = (0..200).map(|s| plan.noise_burst(s, 0)).collect();
        let backward: Vec<bool> = (0..200).rev().map(|s| plan.noise_burst(s, 0)).collect();
        let reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        // A different seed gives a different fault stream.
        let other = FaultPlan::smoke(43);
        let alt: Vec<bool> = (0..200).map(|s| other.noise_burst(s, 0)).collect();
        assert_ne!(forward, alt);
        // And the smoke rates actually fire.
        assert!(forward.iter().any(|&b| b));
        assert!(forward.iter().any(|&b| !b));
    }

    #[test]
    fn fault_classes_draw_independent_streams() {
        let plan = FaultPlan {
            noise_burst_permille: 500,
            grid_corruption_permille: 500,
            task_panic_permille: 500,
            ..FaultPlan::quiet(9)
        };
        let noise: Vec<bool> = (0..300).map(|s| plan.noise_burst(s, 1)).collect();
        let grid: Vec<bool> = (0..300).map(|s| plan.grid_corruption(s, 1)).collect();
        assert_ne!(noise, grid, "salts must decorrelate the streams");
    }

    #[test]
    fn worker_kills_are_spread_and_bounded() {
        let plan = FaultPlan {
            worker_kills: 3,
            ..FaultPlan::quiet(1)
        };
        let kills: Vec<(usize, usize)> = (0..90)
            .filter_map(|s| plan.worker_kill_at(s, 90, 4).map(|w| (s, w)))
            .collect();
        assert_eq!(kills.len(), 3, "{kills:?}");
        let workers: Vec<usize> = kills.iter().map(|&(_, w)| w).collect();
        assert_eq!(workers, vec![0, 1, 2], "round-robin targets");
    }

    #[test]
    fn corruption_rng_is_reproducible() {
        let plan = FaultPlan::smoke(5);
        let a: Vec<u64> = {
            let mut r = plan.corruption_rng(3, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = plan.corruption_rng(3, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }
}

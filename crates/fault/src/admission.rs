//! Admission control for the streaming ingest path.
//!
//! Where the DES's deadline sheds users from a subframe that is
//! *already dispatched* and running late, this module decides what
//! happens *at the front door* while the ingest queue is filling:
//!
//! * [`TokenBucket`] — per-source rate limiting: a source that offers
//!   work faster than its contracted rate is refused before its traffic
//!   can crowd out well-behaved sources.
//! * [`EscalationLadder`] — maps queue occupancy to an
//!   [`EscalationDecision`]: as the backlog deepens past each watermark
//!   the service escalates **reject → shed**, compounding the two
//!   tiers instead of picking one.
//! * [`IngestFaults`] — seeded ingest-side chaos: source stalls, burst
//!   floods and malformed arrivals, order-independent like
//!   [`crate::FaultPlan`] so two same-seed campaigns see byte-identical
//!   arrival streams.
//!
//! Everything is integer/pure so the serve loop's admission decisions
//! are a function of `(seed, tick, queue depth)` alone — independent of
//! worker count and wall clock, which is what keeps the streaming path
//! byte-identical to the batch path for every admitted subframe.

use lte_dsp::Xoshiro256;

/// Which mitigation tiers are engaged at one instant. Tiers compound:
/// at the deepest fill both are active at once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EscalationDecision {
    /// Refuse new arrivals at the front door.
    pub reject_new: bool,
    /// Shed cheapest users from subframes being dispatched.
    pub shed_users: bool,
}

impl EscalationDecision {
    /// `true` when no mitigation is engaged.
    pub fn calm(self) -> bool {
        !(self.reject_new || self.shed_users)
    }
}

/// Occupancy watermarks (fractions of queue capacity) at which each
/// mitigation tier engages. Construction enforces
/// `reject_fill <= shed_fill`, which is what guarantees the reject →
/// shed engagement *order* under a monotonically deepening flood.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EscalationLadder {
    reject_fill: f64,
    shed_fill: f64,
}

impl Default for EscalationLadder {
    fn default() -> Self {
        // Reject early (the cheapest mitigation), shed when the backlog
        // keeps growing anyway.
        EscalationLadder::new(0.70, 0.85).unwrap()
    }
}

impl EscalationLadder {
    /// A ladder with the given watermarks.
    ///
    /// # Errors
    ///
    /// When a watermark is outside `(0, 1]` or the ordering invariant
    /// `reject <= shed` does not hold.
    pub fn new(reject_fill: f64, shed_fill: f64) -> Result<Self, String> {
        for (name, v) in [("reject", reject_fill), ("shed", shed_fill)] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("{name} watermark {v} outside (0, 1]"));
            }
        }
        if reject_fill > shed_fill {
            return Err(format!(
                "watermarks must be ordered reject <= shed \
                 (got {reject_fill} / {shed_fill})"
            ));
        }
        Ok(EscalationLadder {
            reject_fill,
            shed_fill,
        })
    }

    /// The fill at which new arrivals are rejected.
    pub fn reject_fill(&self) -> f64 {
        self.reject_fill
    }

    /// The fill at which user shedding starts.
    pub fn shed_fill(&self) -> f64 {
        self.shed_fill
    }

    /// The tiers engaged at queue occupancy `fill` (`[0, 1]`).
    pub fn decide(&self, fill: f64) -> EscalationDecision {
        EscalationDecision {
            reject_new: fill >= self.reject_fill,
            shed_users: fill >= self.shed_fill,
        }
    }
}

/// The ladder tracked over time: an overload-*episode* state machine
/// with hysteresis on top of the instantaneous fill watermarks.
///
/// This is the piece that makes reject → shed an actual *sequence*
/// under a steady flood. Once the reject tier engages, new
/// arrivals bounce off the front door, so the fill immediately drops
/// back below the reject watermark — it can never climb to the shed
/// watermark on its own, and a naive per-tick decision would flap
/// between calm and reject forever. Instead, crossing the reject
/// watermark opens an overload episode that only closes when the
/// backlog has actually drained (fill ≤ `release_fill`). While the
/// episode is open the reject tier stays engaged, and if rejection
/// alone has not drained the backlog after `shed_after` ticks the
/// service starts shedding users. A deep instantaneous spike still
/// engages shedding immediately through the fill watermark.
#[derive(Clone, Debug, PartialEq)]
pub struct EscalationState {
    ladder: EscalationLadder,
    release_fill: f64,
    shed_after: u64,
    pressured_ticks: u64,
    episodes: u64,
}

impl EscalationState {
    /// Default fill at which an overload episode ends: essentially
    /// empty, so one episode sees the whole drain.
    pub const DEFAULT_RELEASE_FILL: f64 = 0.05;
    /// Episode ticks before shedding engages.
    pub const DEFAULT_SHED_AFTER: u64 = 4;

    /// Tracks `ladder`, escalating to shed after `shed_after` episode
    /// ticks.
    pub fn new(ladder: EscalationLadder, shed_after: u64) -> Self {
        EscalationState {
            ladder,
            release_fill: Self::DEFAULT_RELEASE_FILL.min(ladder.reject_fill()),
            shed_after,
            pressured_ticks: 0,
            episodes: 0,
        }
    }

    /// Ticks the current overload episode has lasted (0 = calm).
    pub fn pressured_ticks(&self) -> u64 {
        self.pressured_ticks
    }

    /// Overload episodes opened so far (including any still open).
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Observes one tick's queue occupancy and returns the engaged
    /// tiers. Call exactly once per tick.
    pub fn observe(&mut self, fill: f64) -> EscalationDecision {
        let base = self.ladder.decide(fill);
        if self.pressured_ticks == 0 && base.reject_new {
            self.episodes += 1;
            self.pressured_ticks = 1;
        } else if self.pressured_ticks > 0 {
            if fill <= self.release_fill {
                self.pressured_ticks = 0;
            } else {
                self.pressured_ticks += 1;
            }
        }
        EscalationDecision {
            reject_new: base.reject_new || self.pressured_ticks > 0,
            shed_users: base.shed_users || self.pressured_ticks > self.shed_after,
        }
    }
}

/// An integer token bucket for per-source rate limiting.
///
/// Tokens are tracked in *milli-tokens* so fractional refill rates
/// (e.g. 1.5 subframes per tick) stay exact integers: no float drift,
/// identical decisions on every host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenBucket {
    capacity_milli: u64,
    refill_milli: u64,
    level_milli: u64,
    taken: u64,
    refused: u64,
}

impl TokenBucket {
    /// A bucket holding at most `capacity_milli` milli-tokens, refilled
    /// by `refill_milli` per [`tick`](TokenBucket::tick). Starts full.
    /// One admission costs 1000 milli-tokens.
    pub fn new(capacity_milli: u64, refill_milli: u64) -> Self {
        let capacity_milli = capacity_milli.max(1000);
        TokenBucket {
            capacity_milli,
            refill_milli,
            level_milli: capacity_milli,
            taken: 0,
            refused: 0,
        }
    }

    /// Convenience: a bucket allowing a sustained `rate_milli`/1000
    /// admissions per tick with a burst allowance of `burst` admissions
    /// (a capacity past `u64::MAX` milli-tokens saturates there).
    pub fn per_tick(rate_milli: u64, burst: u64) -> Self {
        TokenBucket::new(burst.max(1).saturating_mul(1000), rate_milli)
    }

    /// Advances one tick, refilling the bucket (saturating at capacity).
    pub fn tick(&mut self) {
        self.level_milli = self
            .level_milli
            .saturating_add(self.refill_milli)
            .min(self.capacity_milli);
    }

    /// Tries to take one admission's worth of tokens.
    pub fn try_take(&mut self) -> bool {
        if self.level_milli >= 1000 {
            self.level_milli -= 1000;
            self.taken += 1;
            true
        } else {
            self.refused += 1;
            false
        }
    }

    /// Current level in milli-tokens.
    pub fn level_milli(&self) -> u64 {
        self.level_milli
    }

    /// Admissions granted so far.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Admissions refused so far.
    pub fn refused(&self) -> u64 {
        self.refused
    }
}

/// Ingest-side chaos salts (see [`crate::FaultPlan`] for the pattern).
const SALT_MALFORMED: u64 = 0x6D61_6C66_6F72_6D31; // "malform1"

/// Seeded ingest-side fault injection: what arrives *at* the service,
/// rather than what breaks *inside* it. Draws are order-independent
/// pure functions of `(seed, tick, index)`.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestFaults {
    /// Master seed; per-arrival draws hash this with the indices.
    pub seed: u64,
    /// A window of ticks in which the source goes silent entirely:
    /// `(first_tick, n_ticks)`.
    pub stall: Option<(u64, u64)>,
    /// A window of ticks in which the source floods at a multiple of
    /// its normal rate: `(first_tick, n_ticks, factor)`.
    pub flood: Option<(u64, u64, u64)>,
    /// Per-arrival probability (‰) that the arrival is malformed and
    /// must be refused at parse time.
    pub malformed_permille: u16,
}

impl IngestFaults {
    /// No ingest faults at all.
    pub fn quiet(seed: u64) -> Self {
        IngestFaults {
            seed,
            stall: None,
            flood: None,
            malformed_permille: 0,
        }
    }

    /// The default serve chaos campaign: an early stall, a mid-run 2×
    /// flood long enough to walk the whole escalation ladder, and a
    /// trickle of malformed arrivals.
    pub fn smoke(seed: u64) -> Self {
        IngestFaults {
            seed,
            stall: Some((20, 10)),
            flood: Some((60, 40, 2)),
            malformed_permille: 20,
        }
    }

    /// Is the source stalled (producing nothing) at `tick`?
    pub fn stalled(&self, tick: u64) -> bool {
        matches!(self.stall, Some((from, n)) if tick >= from && tick < from + n)
    }

    /// The arrival-rate multiplier at `tick` (1 = nominal).
    pub fn flood_factor(&self, tick: u64) -> u64 {
        match self.flood {
            Some((from, n, factor)) if tick >= from && tick < from + n => factor.max(1),
            _ => 1,
        }
    }

    /// Is arrival `index` of `tick` malformed?
    pub fn malformed(&self, tick: u64, index: u64) -> bool {
        if self.malformed_permille == 0 {
            return false;
        }
        // SplitMix64-style avalanche, same shape as FaultPlan::rng_for:
        // the outcome depends only on (seed, tick, index).
        let mut z = self
            .seed
            .wrapping_add(SALT_MALFORMED)
            .wrapping_add(tick.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xoshiro256::seed_from_u64(z ^ (z >> 31)).next_below(1000)
            < u64::from(self.malformed_permille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_engages_tiers_in_order_as_fill_deepens() {
        let ladder = EscalationLadder::default();
        assert!(ladder.decide(0.0).calm());
        assert!(ladder.decide(0.5).calm());

        let reject_only = ladder.decide(0.75);
        assert!(reject_only.reject_new && !reject_only.shed_users);

        let both = ladder.decide(1.0);
        assert!(both.reject_new && both.shed_users);
    }

    #[test]
    fn ladder_engagement_is_monotone_in_fill() {
        // Property: a deeper fill never disengages a tier — the formal
        // statement behind "reject engages first, then shed" for any
        // monotonically growing backlog.
        let ladder = EscalationLadder::new(0.3, 0.6).unwrap();
        let mut prev = EscalationDecision::default();
        for step in 0..=100 {
            let d = ladder.decide(f64::from(step) / 100.0);
            assert!(d.reject_new >= prev.reject_new);
            assert!(d.shed_users >= prev.shed_users);
            // Compounding invariant: shed implies reject.
            assert!(!d.shed_users || d.reject_new);
            prev = d;
        }
    }

    #[test]
    fn sustained_pressure_escalates_reject_then_shed() {
        // A plateau exactly at the reject watermark: fill alone would
        // never engage shedding, persistence must.
        let mut state = EscalationState::new(EscalationLadder::default(), 3);
        let mut first = [None::<u64>; 2];
        for tick in 0..20u64 {
            let d = state.observe(0.72);
            for (slot, engaged) in first.iter_mut().zip([d.reject_new, d.shed_users]) {
                if engaged && slot.is_none() {
                    *slot = Some(tick);
                }
            }
        }
        let (reject, shed) = (first[0].expect("reject"), first[1].expect("shed"));
        assert!(
            reject < shed,
            "escalation order violated: {reject} / {shed}"
        );
    }

    #[test]
    fn a_maximal_shed_delay_never_sheds() {
        // `pressured_ticks > u64::MAX` can never hold: the episode
        // rejects forever without wrapping into a tiny threshold.
        let mut state = EscalationState::new(EscalationLadder::default(), u64::MAX);
        for _ in 0..1000 {
            let d = state.observe(0.8);
            assert!(d.reject_new && !d.shed_users);
        }
    }

    #[test]
    fn episode_persists_until_drained_then_resets() {
        let mut state = EscalationState::new(EscalationLadder::default(), 2);
        state.observe(0.72);
        state.observe(0.72);
        assert!(state.observe(0.72).shed_users, "escalated past shed_after");
        // Fill has dropped below every watermark, but the backlog has
        // not drained: the episode (and rejection) persists.
        assert!(state.observe(0.2).reject_new);
        assert!(state.pressured_ticks() > 0);
        // Fully drained: the episode closes and decisions calm down.
        assert!(state.observe(0.0).calm());
        assert_eq!(state.pressured_ticks(), 0);
        assert_eq!(state.episodes(), 1);
        // A new episode starts over at the reject tier.
        let d = state.observe(0.72);
        assert!(d.reject_new && !d.shed_users);
        assert_eq!(state.episodes(), 2);
    }

    #[test]
    fn watermark_equal_fill_engages_the_tier_exactly() {
        // Engagement is `fill >= watermark`: a queue depth that lands
        // exactly on a watermark engages that tier, and the largest
        // representable fill below it does not.
        let ladder = EscalationLadder::new(0.25, 0.5).unwrap();
        type Check = (f64, fn(EscalationDecision) -> bool);
        let checks: [Check; 2] = [(0.25, |d| d.reject_new), (0.5, |d| d.shed_users)];
        for (watermark, check) in checks {
            assert!(
                check(ladder.decide(watermark)),
                "fill == {watermark} must engage"
            );
            let below = f64::from_bits(watermark.to_bits() - 1);
            assert!(
                !check(ladder.decide(below)),
                "fill just below {watermark} must not engage"
            );
        }
        // A watermark at exactly 1.0 is reachable by a full queue.
        let saturating = EscalationLadder::new(0.5, 1.0).unwrap();
        assert!(saturating.decide(1.0).shed_users);
        assert!(!saturating.decide(0.999_999).shed_users);
    }

    #[test]
    fn episode_releases_at_exactly_the_release_fill() {
        // Release is `fill <= release_fill` (DEFAULT_RELEASE_FILL):
        // landing exactly on it closes the episode; the next
        // representable fill above keeps it open.
        let release = EscalationState::DEFAULT_RELEASE_FILL;
        let just_above = f64::from_bits(release.to_bits() + 1);

        let mut state = EscalationState::new(
            EscalationLadder::default(),
            EscalationState::DEFAULT_SHED_AFTER,
        );
        state.observe(0.72);
        assert_eq!(state.pressured_ticks(), 1);
        assert!(!state.observe(just_above).calm(), "above release: open");
        assert_eq!(state.pressured_ticks(), 2);
        assert!(state.observe(release).calm(), "at release: closed");
        assert_eq!(state.pressured_ticks(), 0);
        assert_eq!(state.episodes(), 1);
    }

    #[test]
    fn shed_engages_one_tick_after_its_threshold() {
        // Escalation is `pressured_ticks > shed_after`: pin down the
        // exact tick so an off-by-one in the comparison fails loudly.
        let shed_after = 3;
        let ladder = EscalationLadder::default();
        let mut state = EscalationState::new(ladder, shed_after);
        // Plateau at the reject watermark: fill alone never engages
        // shed, persistence must.
        let fill = ladder.reject_fill();
        for tick in 1..=(shed_after + 2) {
            let d = state.observe(fill);
            assert_eq!(state.pressured_ticks(), tick);
            assert!(d.reject_new);
            assert_eq!(
                d.shed_users,
                tick > shed_after,
                "shed at episode tick {tick}"
            );
        }
    }

    #[test]
    fn streak_reset_one_tick_before_shed_restarts_the_count() {
        // Drain the episode when pressured_ticks == shed_after — one
        // tick before shedding would engage. On re-pressure the count
        // restarts from 1: shedding again takes shed_after + 1 ticks,
        // with no carry-over from the aborted episode.
        let shed_after = 4;
        let mut state = EscalationState::new(EscalationLadder::default(), shed_after);
        for _ in 0..shed_after {
            assert!(!state.observe(0.72).shed_users);
        }
        assert_eq!(state.pressured_ticks(), shed_after);
        assert!(state.observe(0.0).calm(), "drained one tick before shed");

        for tick in 1..=shed_after {
            let d = state.observe(0.72);
            assert_eq!(state.pressured_ticks(), tick);
            assert!(!d.shed_users, "no carry-over at new-episode tick {tick}");
        }
        assert!(state.observe(0.72).shed_users);
        assert_eq!(state.episodes(), 2);
    }

    #[test]
    fn deep_spike_engages_shedding_immediately() {
        let mut state = EscalationState::new(
            EscalationLadder::default(),
            EscalationState::DEFAULT_SHED_AFTER,
        );
        let d = state.observe(1.0);
        assert!(d.reject_new && d.shed_users);
    }

    #[test]
    fn ladder_rejects_bad_watermarks() {
        assert!(EscalationLadder::new(0.9, 0.5).is_err());
        assert!(EscalationLadder::new(0.0, 0.5).is_err());
        assert!(EscalationLadder::new(0.5, 1.1).is_err());
        assert!(EscalationLadder::new(0.5, 0.5).is_ok());
    }

    #[test]
    fn token_bucket_enforces_sustained_rate_with_burst() {
        // 500 milli-tokens/tick = 1 admission per 2 ticks, burst of 3.
        let mut b = TokenBucket::per_tick(500, 3);
        // Starts full: the burst allowance is immediately spendable.
        assert!(b.try_take() && b.try_take() && b.try_take());
        assert!(!b.try_take(), "burst exhausted");
        // One tick refills half an admission; two refill a whole one.
        b.tick();
        assert!(!b.try_take());
        b.tick();
        assert!(b.try_take());
        assert_eq!(b.taken(), 4);
        assert_eq!(b.refused(), 2);
    }

    #[test]
    fn token_bucket_saturates_instead_of_overflowing() {
        // A hostile config's maxima: the capacity and every refill
        // saturate at u64::MAX milli-tokens rather than overflowing, so
        // the bucket keeps admitting tick after tick.
        let mut b = TokenBucket::per_tick(u64::MAX, u64::MAX);
        for _ in 0..1000 {
            b.tick();
            assert!(b.try_take());
            assert!(b.try_take());
        }
        assert_eq!(b.refused(), 0);
        assert_eq!(b.level_milli(), u64::MAX - 2000);
    }

    #[test]
    fn token_bucket_saturates_at_capacity() {
        let mut b = TokenBucket::per_tick(10_000, 2);
        for _ in 0..100 {
            b.tick();
        }
        assert_eq!(b.level_milli(), 2000);
        assert!(b.try_take() && b.try_take());
        assert!(!b.try_take());
    }

    #[test]
    fn ingest_faults_windows_and_quiet() {
        let f = IngestFaults::smoke(11);
        assert!(!f.stalled(19) && f.stalled(20) && f.stalled(29) && !f.stalled(30));
        assert_eq!(f.flood_factor(59), 1);
        assert_eq!(f.flood_factor(60), 2);
        assert_eq!(f.flood_factor(99), 2);
        assert_eq!(f.flood_factor(100), 1);

        let q = IngestFaults::quiet(11);
        for t in 0..200 {
            assert!(!q.stalled(t));
            assert_eq!(q.flood_factor(t), 1);
            assert!(!q.malformed(t, 0));
        }
    }

    #[test]
    fn malformed_draws_are_seeded_and_order_independent() {
        let f = IngestFaults {
            malformed_permille: 300,
            ..IngestFaults::quiet(5)
        };
        let forward: Vec<bool> = (0..500).map(|t| f.malformed(t, 1)).collect();
        let backward: Vec<bool> = (0..500).rev().map(|t| f.malformed(t, 1)).collect();
        let reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        assert!(forward.iter().any(|&b| b));
        assert!(forward.iter().any(|&b| !b));
        let other = IngestFaults {
            malformed_permille: 300,
            ..IngestFaults::quiet(6)
        };
        let alt: Vec<bool> = (0..500).map(|t| other.malformed(t, 1)).collect();
        assert_ne!(forward, alt);
    }
}

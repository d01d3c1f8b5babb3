//! Structured trace events.
//!
//! One flat [`Event`] enum covers every layer that emits telemetry: the
//! discrete-event simulator (core occupancy in simulated cycles), the
//! PHY receiver (stage spans in wall-clock nanoseconds) and the power
//! model (sampled series). Events carry plain integers/floats only, so
//! recording is allocation-free and a recorded stream is a pure function
//! of the run that produced it — the determinism tests depend on that.

/// A core's occupancy state, as traced by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreState {
    /// Executing useful work.
    Busy,
    /// Spinning while searching for work.
    Spin,
    /// Spinning at a phase barrier (user threads only).
    Barrier,
    /// Clock-gated by the reactive (IDLE) path.
    NapReactive,
    /// Clock-gated by the proactive (NAP) path.
    NapProactive,
    /// Fail-stopped by an injected fault; never runs again.
    Dead,
}

impl CoreState {
    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            CoreState::Busy => "busy",
            CoreState::Spin => "spin",
            CoreState::Barrier => "barrier",
            CoreState::NapReactive => "nap",
            CoreState::NapProactive => "nap_proactive",
            CoreState::Dead => "dead",
        }
    }
}

/// The kind of an injected or observed fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A burst of extra channel noise corrupted a user's subframe.
    NoiseBurst,
    /// Resource-grid cells were overwritten with garbage.
    GridCorruption,
    /// A task panicked and was caught by the pool/simulator.
    TaskPanic,
    /// A worker/core died (fail-stop).
    CoreDeath,
    /// A dead worker was respawned.
    WorkerRespawn,
    /// A core runs at a degraded frequency.
    SlowCore,
    /// A subframe missed its deadline budget.
    DeadlineOverrun,
    /// Overload shed a user job.
    UserShed,
}

impl FaultKind {
    /// Every kind, in a stable export order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::NoiseBurst,
        FaultKind::GridCorruption,
        FaultKind::TaskPanic,
        FaultKind::CoreDeath,
        FaultKind::WorkerRespawn,
        FaultKind::SlowCore,
        FaultKind::DeadlineOverrun,
        FaultKind::UserShed,
    ];

    /// Stable snake_case name used in exports and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NoiseBurst => "noise_burst",
            FaultKind::GridCorruption => "grid_corruption",
            FaultKind::TaskPanic => "task_panic",
            FaultKind::CoreDeath => "core_death",
            FaultKind::WorkerRespawn => "worker_respawn",
            FaultKind::SlowCore => "slow_core",
            FaultKind::DeadlineOverrun => "deadline_overrun",
            FaultKind::UserShed => "user_shed",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A pipeline stage, both at simulator granularity (estimation /
/// weights / combine / finish task kinds) and at PHY kernel granularity
/// (matched filter, IFFT, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Channel-estimation task (one per rx × layer in the simulator).
    Estimation,
    /// MMSE combiner-weight computation on the user thread.
    Weights,
    /// Antenna combining + IFFT + demap task.
    Combine,
    /// Serial tail: deinterleave, decode, CRC.
    Finish,
    /// Matched filter against the reference sequence.
    MatchedFilter,
    /// IFFT of the matched-filter output to the delay domain.
    Ifft,
    /// Delay-domain windowing of the channel impulse response.
    Window,
    /// FFT back to the frequency domain.
    Fft,
    /// Per-symbol antenna combining.
    Combining,
    /// Soft demapping to LLRs.
    Demap,
    /// Start of the decode tail: the one-pass descramble and
    /// deinterleave and the rate-match dematch of every code block
    /// (turbo mode), or the descramble and packed hard decision
    /// (pass-through).
    Deinterleave,
    /// The turbo SISO passes, CRC stop rule and desegmentation, or the
    /// pass-through bit-transpose deinterleave.
    Turbo,
    /// Transport-block CRC check (pass-through: with the payload unpack).
    Crc,
}

impl Stage {
    /// Every stage, in pipeline order. Exports iterate this so output
    /// ordering is stable.
    pub const ALL: [Stage; 13] = [
        Stage::Estimation,
        Stage::Weights,
        Stage::Combine,
        Stage::Finish,
        Stage::MatchedFilter,
        Stage::Ifft,
        Stage::Window,
        Stage::Fft,
        Stage::Combining,
        Stage::Demap,
        Stage::Deinterleave,
        Stage::Turbo,
        Stage::Crc,
    ];

    /// The four coarse simulator task kinds.
    pub const SIM: [Stage; 4] = [
        Stage::Estimation,
        Stage::Weights,
        Stage::Combine,
        Stage::Finish,
    ];

    /// Stable snake_case name used in exports and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Estimation => "estimation",
            Stage::Weights => "weights",
            Stage::Combine => "combine",
            Stage::Finish => "finish",
            Stage::MatchedFilter => "matched_filter",
            Stage::Ifft => "ifft",
            Stage::Window => "window",
            Stage::Fft => "fft",
            Stage::Combining => "combining",
            Stage::Demap => "demap",
            Stage::Deinterleave => "deinterleave",
            Stage::Turbo => "turbo",
            Stage::Crc => "crc",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured trace event.
///
/// Simulator events carry times in **simulated cycles**; PHY stage spans
/// carry **wall-clock nanoseconds**; samples are dimensionless pairs.
/// Exporters translate to the target format's timebase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A core occupied `state` over `[start, end)` cycles. Busy spans
    /// name the stage and subframe they worked for.
    CoreSpan {
        /// Worker core id.
        core: u32,
        /// Occupancy state over the span.
        state: CoreState,
        /// Span start, simulated cycles.
        start: u64,
        /// Span end, simulated cycles.
        end: u64,
        /// Stage attribution for busy spans.
        stage: Option<Stage>,
        /// Subframe attribution for busy spans.
        subframe: Option<u32>,
    },
    /// A napping core woke to poll for status/work.
    WakePulse {
        /// Worker core id.
        core: u32,
        /// Pulse time, simulated cycles.
        t: u64,
        /// `true` when the pulse only checked a status flag (proactive
        /// nap) rather than polling queues.
        status_only: bool,
    },
    /// A successful steal of one task.
    Steal {
        /// The stealing core.
        thief: u32,
        /// The core whose deque lost the task.
        victim: u32,
        /// Steal time, simulated cycles.
        t: u64,
    },
    /// A work search that found nothing to steal.
    StealFail {
        /// The searching core.
        core: u32,
        /// Search time, simulated cycles.
        t: u64,
    },
    /// A subframe was dispatched with `jobs` user jobs.
    Dispatch {
        /// Subframe index.
        subframe: u32,
        /// Dispatch time, simulated cycles.
        t: u64,
        /// User jobs in the subframe.
        jobs: u32,
        /// The policy's active-core target for the subframe.
        active_target: u32,
    },
    /// A subframe's full latency span: dispatch to last job completion.
    SubframeSpan {
        /// Subframe index.
        subframe: u32,
        /// Dispatch time, simulated cycles.
        start: u64,
        /// Completion time of the subframe's last job, simulated cycles.
        end: u64,
    },
    /// A wall-clock PHY stage span (real receiver execution).
    StageSpan {
        /// The PHY stage.
        stage: Stage,
        /// Span start, nanoseconds from an arbitrary epoch.
        start_ns: u64,
        /// Span end, nanoseconds from the same epoch.
        end_ns: u64,
    },
    /// One sample of a named series (e.g. power watts per bucket).
    Sample {
        /// Series name.
        series: &'static str,
        /// Sample index within the series.
        index: u64,
        /// Sample value.
        value: f64,
    },
    /// A power-governor decision at a subframe boundary: the estimated
    /// activity and the active-core target applied before dispatch.
    ///
    /// The *measured* activity of the window is not carried here — it
    /// only exists one boundary later, and lives in the governor's
    /// decision audit and the `governor.*` metrics instead.
    GovernorDecision {
        /// Subframe index the target applies to.
        subframe: u32,
        /// Decision time (simulated cycles, or a deterministic ordinal
        /// on the real pool).
        t: u64,
        /// Stable policy name (`NONAP`, `IDLE`, `NAP`, `NAP+IDLE`).
        policy: &'static str,
        /// Estimated Eq. 4 activity in `[0, 1]`.
        estimated_activity: f64,
        /// Eq. 5 active-core target.
        target: u32,
    },
    /// An injected fault or a recovery action, as an instant.
    ///
    /// Simulator-side faults carry times in simulated cycles; real-pool
    /// faults use an event ordinal (wall-clock would break determinism).
    Fault {
        /// The fault (or recovery) kind.
        kind: FaultKind,
        /// Core/worker attribution (`u32::MAX` when not core-specific).
        core: u32,
        /// Subframe attribution (`u32::MAX` when not subframe-specific).
        subframe: u32,
        /// Event time (simulated cycles, or a deterministic ordinal).
        t: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        assert_eq!(Stage::MatchedFilter.to_string(), "matched_filter");
    }

    #[test]
    fn sim_stages_are_a_subset_of_all() {
        for s in Stage::SIM {
            assert!(Stage::ALL.contains(&s));
        }
    }

    #[test]
    fn fault_kind_names_are_unique_and_stable() {
        let mut names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultKind::ALL.len());
        assert_eq!(FaultKind::NoiseBurst.to_string(), "noise_burst");
    }
}

//! One-line run fingerprints: a stable 64-bit hash over a run's decoded
//! bytes, cheap enough to compute inline and stable enough to diff.
//!
//! The golden record ([`lte_phy::verify::GoldenRecord`]) answers "is
//! this run byte-identical to the serial reference?" by carrying the
//! full decoded payloads around. The fingerprint collapses the same
//! evidence into a single line, so two runs — different worker counts,
//! different machines, a drain-interrupted serve versus a batch bench —
//! can be compared by eye or by `diff` on one token. The drain/reload
//! tests use it to assert that a serve campaign's admitted subframes
//! decode to exactly the batch path's bytes.
//!
//! The hash is FNV-1a 64 over a canonical encoding (subframe count,
//! then per subframe the user count, then per user the CRC flag,
//! payload length and payload bits), dependency-free and identical on
//! every host.

use lte_dsp::fft::FftPlanner;
use lte_dsp::Xoshiro256;
use lte_model::{ParameterModel, RampModel};
use lte_obs::{event_json, RingRecorder};
use lte_phy::params::{CellConfig, TurboMode};
use lte_phy::receiver::{process_user_pooled, UserResult};
use lte_phy::tx::synthesize_user_with_mode;
use lte_power::NapPolicy;
use lte_sched::sim::Simulator;

use crate::experiments::ExperimentContext;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a length/count as a fixed-width little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes decoded results, `rows[subframe][user]`, canonically.
pub fn fingerprint_results(rows: &[Vec<UserResult>]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(rows.len() as u64);
    for row in rows {
        h.write_u64(row.len() as u64);
        for r in row {
            h.write(&[u8::from(r.crc_ok)]);
            h.write_u64(r.payload.len() as u64);
            h.write(&r.payload);
        }
    }
    h.finish()
}

/// A canonical serial run: `subframes` ramp-model subframes from
/// `seed`, synthesised and decoded exactly like the batch benchmark's
/// serial reference. Returns `(hash, total_users)`.
pub fn canonical_fingerprint(seed: u64, subframes: usize) -> (u64, usize) {
    let cell = CellConfig::with_antennas(2);
    let planner = FftPlanner::new();
    let mut model = RampModel::new(seed);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sequence = model.subframes(subframes);
    let mut rows = Vec::with_capacity(sequence.len());
    let mut users = 0usize;
    for sf in &sequence {
        let row: Vec<UserResult> = sf
            .users
            .iter()
            .map(|u| {
                users += 1;
                let input =
                    synthesize_user_with_mode(&cell, u, TurboMode::Passthrough, 30.0, &mut rng);
                process_user_pooled(&cell, &input, TurboMode::Passthrough, &planner)
            })
            .collect();
        rows.push(row);
    }
    (fingerprint_results(&rows), users)
}

/// A canonical scheduler run: the same ramp-model subframes dispatched
/// through the deterministic discrete-event simulator (NAP+IDLE, every
/// core targeted) with a ring recorder attached, and every recorded
/// trace event's canonical JSON line hashed in order. DES events carry
/// *simulated* cycle timestamps — pure functions of the load sequence —
/// so the hash is identical on every host and across worker interleavings
/// that don't exist in the DES. Returns `(hash, event_count)`.
///
/// Together with [`canonical_fingerprint`] this closes the fingerprint
/// gap: decoded bytes prove the PHY pipeline, the trace stream proves
/// the scheduling-visible state (dispatch order, steal traffic, core
/// occupancy, governor decisions).
pub fn canonical_trace_fingerprint(seed: u64, subframes: usize) -> (u64, u64) {
    let mut ctx = ExperimentContext::quick();
    ctx.seed = seed;
    ctx.n_subframes = subframes;
    let sequence = ctx.subframes();
    let cfg = ctx.sim_config(NapPolicy::NapIdle);
    // Fixed all-cores targets: the trace hash must not depend on a
    // host-side calibration run.
    let targets = vec![cfg.n_workers; sequence.len()];
    let capacity = (sequence.len() * cfg.n_workers * 64).clamp(1024, 4_000_000);
    let recorder = RingRecorder::new(capacity);
    let _report = Simulator::with_recorder(cfg, &recorder).run(&ctx.loads(&sequence, &targets));
    assert_eq!(
        recorder.total_recorded() as usize,
        recorder.events().len(),
        "trace ring overflowed; the hash would be truncated"
    );
    let mut h = Fnv1a::new();
    let events = recorder.events();
    h.write_u64(events.len() as u64);
    for ev in &events {
        h.write(event_json(ev).as_bytes());
        h.write(b"\n");
    }
    (h.finish(), events.len() as u64)
}

/// The one-line report `lte-sim fingerprint` prints: decoded-byte hash
/// plus the canonical trace-stream hash.
pub fn fingerprint_line(seed: u64, subframes: usize) -> String {
    let (hash, users) = canonical_fingerprint(seed, subframes);
    let (trace, events) = canonical_trace_fingerprint(seed, subframes);
    format!(
        "lte-sim-fingerprint-v2 seed={seed} subframes={subframes} users={users} \
         hash={hash:016x} trace_events={events} trace={trace:016x}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_sensitive_to_structure() {
        let a = vec![vec![UserResult {
            payload: vec![1, 0, 1],
            crc_ok: true,
        }]];
        let mut b = a.clone();
        b[0][0].crc_ok = false;
        assert_ne!(fingerprint_results(&a), fingerprint_results(&b));
        let mut c = a.clone();
        c[0][0].payload[2] = 0;
        assert_ne!(fingerprint_results(&a), fingerprint_results(&c));
        // One subframe of two users ≠ two subframes of one user.
        let flat = vec![
            vec![a[0][0].clone()],
            vec![UserResult {
                payload: vec![],
                crc_ok: false,
            }],
        ];
        let nested = vec![vec![
            a[0][0].clone(),
            UserResult {
                payload: vec![],
                crc_ok: false,
            },
        ]];
        assert_ne!(fingerprint_results(&flat), fingerprint_results(&nested));
    }

    #[test]
    fn canonical_fingerprint_is_reproducible_and_seed_sensitive() {
        let (a1, users) = canonical_fingerprint(7, 4);
        let (a2, _) = canonical_fingerprint(7, 4);
        assert_eq!(a1, a2);
        assert!(users >= 4, "ramp model schedules at least one user per sf");
        let (b, _) = canonical_fingerprint(8, 4);
        assert_ne!(a1, b);
        let line = fingerprint_line(7, 4);
        assert!(line.starts_with("lte-sim-fingerprint-v2 seed=7 subframes=4"));
        assert!(line.contains(&format!("hash={a1:016x}")));
        assert!(line.contains("trace_events="));
        assert!(line.contains("trace="));
    }

    #[test]
    fn trace_fingerprint_is_reproducible_and_seed_sensitive() {
        let (a1, n1) = canonical_trace_fingerprint(7, 4);
        let (a2, n2) = canonical_trace_fingerprint(7, 4);
        assert_eq!(a1, a2);
        assert_eq!(n1, n2);
        assert!(n1 > 0, "a non-empty run records at least one trace event");
        let (b, _) = canonical_trace_fingerprint(8, 4);
        assert_ne!(a1, b);
    }
}

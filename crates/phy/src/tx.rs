//! UE-side transmitter and subframe input synthesis.
//!
//! The benchmark generates its subframe input data at initialisation
//! (§IV-B1 of the paper). To give the receiver *meaningful* work we model
//! the full SC-FDMA uplink transmit chain — CRC attachment, optional turbo
//! coding, interleaving, modulation mapping, DFT precoding, layer mapping,
//! DM-RS insertion — then pass everything through a MIMO fading channel
//! with AWGN. The ground-truth payload rides along so the receiver's CRC
//! and the golden-reference verifier can be checked end to end.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use lte_dsp::channel::{add_awgn, noise_var_for_snr_db, MimoChannel};
use lte_dsp::crc::CRC24A;
use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::subblock_cached;
use lte_dsp::rate_match::RateMatcher;
use lte_dsp::scrambling::{pusch_c_init, scramble_bits};
use lte_dsp::segmentation::Segmentation;
use lte_dsp::turbo::TurboEncoder;
use lte_dsp::zadoff_chu::{layer_cyclic_shift, ReferenceSequence};
use lte_dsp::{Complex32, Xoshiro256};

use crate::grid::{RxSlot, RxSymbol, UserInput};
use crate::params::{CellConfig, TurboMode, UserConfig, DATA_SYMBOLS_PER_SLOT, SLOTS_PER_SUBFRAME};

/// How one user's subframe bits are framed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FramePlan {
    /// CRC24A-protected payload fills the whole allocation (turbo
    /// pass-through — the paper's default).
    Passthrough {
        /// Information bits (allocation minus the 24 CRC bits).
        payload_bits: usize,
    },
    /// Turbo-coded with TS 36.212 code-block segmentation and
    /// circular-buffer rate matching: the transport block (payload +
    /// CRC24A) is split into `n_blocks` code blocks of `block_size` bits
    /// (per-block CRC-24B when segmented), each block is turbo encoded
    /// and rate-matched to exactly its share of the allocation — no
    /// filler, effective rate ≈ 1/3.
    Coded {
        /// Transport-block bits including the CRC-24A.
        transport_bits: usize,
        /// Number of turbo code blocks `C`.
        n_blocks: usize,
        /// Uniform code-block size `K`.
        block_size: usize,
        /// Coded bits on air (= the full allocation).
        coded_bits: usize,
        /// Always zero with rate matching (kept for reporting).
        filler: usize,
    },
}

/// Per-block transmitted-bit shares: `total` split as evenly as possible
/// over `c` blocks (the first `total % c` blocks get one extra bit).
pub fn rate_match_shares(total: usize, c: usize) -> Vec<usize> {
    assert!(c > 0, "need at least one block");
    let base = total / c;
    let rem = total % c;
    (0..c).map(|i| base + usize::from(i < rem)).collect()
}

impl FramePlan {
    /// Derives the framing for a user/mode pair.
    ///
    /// # Panics
    ///
    /// Panics if the allocation is too small to carry a CRC-protected
    /// payload (cannot happen for valid [`UserConfig`]s).
    pub fn for_user(user: &UserConfig, mode: TurboMode) -> Self {
        let total = user.bits_per_subframe();
        assert!(total > 24, "allocation too small for a CRC");
        match mode {
            TurboMode::Passthrough => FramePlan::Passthrough {
                payload_bits: total - 24,
            },
            TurboMode::Decode { .. } => {
                // Target mother rate 1/3: the rate matcher absorbs the
                // mismatch between 3·C·(K+4) and the allocation by light
                // puncturing or repetition.
                let b = (total / 3).saturating_sub(16).max(25);
                let shape = Segmentation::shape_for_len(b);
                FramePlan::Coded {
                    transport_bits: b,
                    n_blocks: shape.n_blocks,
                    block_size: shape.block_size,
                    coded_bits: total,
                    filler: 0,
                }
            }
        }
    }

    /// Information (payload) bits carried.
    pub fn payload_bits(&self) -> usize {
        match *self {
            FramePlan::Passthrough { payload_bits } => payload_bits,
            FramePlan::Coded { transport_bits, .. } => transport_bits - 24,
        }
    }
}

/// Encodes a payload into channel bits for the allocation (CRC, optional
/// turbo coding, filler, interleaving).
///
/// # Panics
///
/// Panics if `payload.len() != plan.payload_bits()`.
pub fn encode_frame(
    cell: &CellConfig,
    user: &UserConfig,
    mode: TurboMode,
    payload: &[u8],
) -> Vec<u8> {
    let plan = FramePlan::for_user(user, mode);
    assert_eq!(
        payload.len(),
        plan.payload_bits(),
        "payload length mismatch"
    );
    let total = user.bits_per_subframe();
    let mut bits = payload.to_vec();
    CRC24A.append_bits(&mut bits);
    let channel_bits = match plan {
        FramePlan::Passthrough { .. } => bits,
        FramePlan::Coded { block_size, .. } => {
            let seg = Segmentation::segment(&bits);
            let encoder = TurboEncoder::new(block_size);
            let matcher = RateMatcher::new(block_size);
            let shares = rate_match_shares(total, seg.n_blocks());
            let mut out = Vec::with_capacity(total);
            for (block, &e) in seg.blocks.iter().zip(&shares) {
                let code = encoder.encode(block);
                out.extend(matcher.match_bits(&code, e));
            }
            out
        }
    };
    debug_assert_eq!(channel_bits.len(), total);
    let mut out = subblock_cached(total).apply(&channel_bits);
    // TS 36.211 §7.2 scrambling: after interleaving, before modulation.
    scramble_bits(&mut out, scrambling_init(cell, user));
    out
}

/// The Gold-sequence initialisation for a user's allocation. A real
/// eNodeB seeds this from the UE's RNTI and the serving cell's
/// physical-cell identity; the benchmark derives a stable
/// pseudo-identity from the allocation parameters and takes the cell id
/// from [`CellConfig::cell_id`], so co-scheduled users in different
/// cells scramble differently while transmitter and receiver agree
/// without extra plumbing.
pub fn scrambling_init(cell: &CellConfig, user: &UserConfig) -> u32 {
    let rnti = (user.prbs * 29 + user.layers * 7 + user.modulation.bits_per_symbol()) as u16;
    pusch_c_init(rnti, 0, 0, cell.cell_id as u16)
}

/// The denominator used for layer cyclic shifts: at least 2 so a
/// single-layer user still leaves half the impulse-response span free
/// of wrap-around ambiguity. Both the DM-RS generation and the blind
/// noise estimator's window layout derive from this one value.
pub fn shift_denominator(user: &UserConfig) -> usize {
    user.layers.max(2)
}

/// The per-layer DM-RS sequence for a user's allocation.
pub fn reference_for_layer(
    cell: &CellConfig,
    user: &UserConfig,
    layer: usize,
) -> ReferenceSequence {
    ReferenceSequence::new(user.subcarriers(), cell.zc_root)
        .with_cyclic_shift(layer_cyclic_shift(layer, shift_denominator(user)))
}

/// Key: `(subcarriers, zc_root, layer, shift denominator)`.
type ReferenceKey = (usize, usize, usize, usize);

fn reference_cache() -> &'static RwLock<HashMap<ReferenceKey, Arc<ReferenceSequence>>> {
    static CACHE: OnceLock<RwLock<HashMap<ReferenceKey, Arc<ReferenceSequence>>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// [`reference_for_layer`] through a global read-mostly cache.
///
/// Generating a DM-RS sequence evaluates a complex exponential per
/// subcarrier; the estimator needs the same handful of sequences on
/// every subframe, so the steady-state path must not regenerate (or
/// lock) anything. [`prewarm_references`] fills the cache up front.
pub fn reference_for_layer_cached(
    cell: &CellConfig,
    user: &UserConfig,
    layer: usize,
) -> Arc<ReferenceSequence> {
    let key = (
        user.subcarriers(),
        cell.zc_root,
        layer,
        shift_denominator(user),
    );
    if let Some(seq) = reference_cache()
        .read()
        .expect("reference cache poisoned")
        .get(&key)
    {
        return Arc::clone(seq);
    }
    let mut map = reference_cache().write().expect("reference cache poisoned");
    Arc::clone(
        map.entry(key)
            .or_insert_with(|| Arc::new(reference_for_layer(cell, user, layer))),
    )
}

/// Builds every DM-RS sequence a user's subframe needs (all layers), so
/// the estimation tasks never pay sequence generation or a write lock.
pub fn prewarm_references(cell: &CellConfig, user: &UserConfig) {
    for layer in 0..user.layers {
        reference_for_layer_cached(cell, user, layer);
    }
}

/// Prewarms every global and planner cache one cell's user population
/// touches: DM-RS reference sequences (keyed on `(subcarriers, zc_root,
/// layer, shift denominator)`, so cells with distinct roots never alias),
/// the sub-block interleavers for each allocation's bit count (keyed on
/// size alone — cell-independent by construction, identical for every
/// cell), and the FFT plans for each allocation width. Multi-cell
/// deployments call this once per (cell, distinct user config) before
/// the timed region so no cache write lock is ever taken on the
/// steady-state path.
pub fn prewarm_cell(cell: &CellConfig, users: &[UserConfig], planner: &FftPlanner) {
    for user in users {
        prewarm_references(cell, user);
        lte_dsp::interleave::prewarm_subblock([user.bits_per_subframe()]);
    }
    planner.prewarm(users.iter().map(|u| u.prbs));
}

/// Splits interleaved channel bits into per-(slot, symbol, layer) chunks in
/// the canonical transmission order. Chunk `[(slot·6 + sym)·L + layer]`
/// carries `subcarriers × bits_per_symbol` bits.
pub fn split_bits<'a>(user: &UserConfig, bits: &'a [u8]) -> Vec<&'a [u8]> {
    let chunk = user.subcarriers() * user.modulation.bits_per_symbol();
    assert_eq!(
        bits.len(),
        chunk * SLOTS_PER_SUBFRAME * DATA_SYMBOLS_PER_SLOT * user.layers
    );
    bits.chunks_exact(chunk).collect()
}

/// Taps of the random channel [`synthesize_user_with_mode`] and
/// [`synthesize_retransmission`] draw for a user.
fn channel_taps(user: &UserConfig) -> usize {
    (user.subcarriers() / 16).clamp(1, 6)
}

/// How many generator outputs ([`Xoshiro256::next_u64`] calls) a user's
/// first transmission plus `transmissions − 1` retransmissions take:
/// one per payload bit, then per transmission two Box–Muller Gaussians
/// (two outputs each) for every channel tap of every `(rx, layer)` path
/// and two more for every noisy sample (`n_rx` rows of `n_sc` in each of
/// the 2 × 7 symbols).
///
/// A caller that advances a generator clone by this count lands exactly
/// where synthesizing from the generator itself would leave it, so users
/// of one stream can be synthesized independently, each from its own
/// offset.
pub fn synthesis_draws(
    cell: &CellConfig,
    user: &UserConfig,
    mode: TurboMode,
    transmissions: usize,
) -> u64 {
    let (n_rx, layers, n_sc) = (cell.n_rx, user.layers, user.subcarriers());
    let symbols = SLOTS_PER_SUBFRAME * (1 + DATA_SYMBOLS_PER_SLOT);
    let per_transmission = 4 * n_rx * layers * channel_taps(user) + 4 * symbols * n_rx * n_sc;
    (FramePlan::for_user(user, mode).payload_bits() + transmissions * per_transmission) as u64
}

/// Synthesises one user's received subframe over a random MIMO channel at
/// the given SNR, using the paper's default pass-through framing.
pub fn synthesize_user(
    cell: &CellConfig,
    user: &UserConfig,
    snr_db: f64,
    rng: &mut Xoshiro256,
) -> UserInput {
    synthesize_user_with_mode(cell, user, TurboMode::Passthrough, snr_db, rng)
}

/// Synthesises one user's received subframe with explicit framing mode.
pub fn synthesize_user_with_mode(
    cell: &CellConfig,
    user: &UserConfig,
    mode: TurboMode,
    snr_db: f64,
    rng: &mut Xoshiro256,
) -> UserInput {
    let channel = MimoChannel::randomize(cell.n_rx, user.layers, channel_taps(user), rng);
    synthesize_user_over_channel(cell, user, mode, snr_db, &channel, rng)
}

/// Synthesises one user's received subframe over a caller-provided channel
/// realisation (used by tests with identity channels).
pub fn synthesize_user_over_channel(
    cell: &CellConfig,
    user: &UserConfig,
    mode: TurboMode,
    snr_db: f64,
    channel: &MimoChannel,
    rng: &mut Xoshiro256,
) -> UserInput {
    // Payload first, then channel noise — preserves the historical draw
    // order so seeded tests and golden records stay bit-exact.
    let plan = FramePlan::for_user(user, mode);
    let payload: Vec<u8> = (0..plan.payload_bits())
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();
    synthesize_payload_over_channel(cell, user, mode, &payload, snr_db, channel, rng)
}

/// Synthesises a HARQ retransmission: the *same* transport block
/// (identical payload, hence identical encoded bits and scrambling) sent
/// again over a freshly drawn channel with fresh noise. Chase combining
/// on the receive side adds the attempts' LLRs together.
///
/// # Panics
///
/// Panics if `payload.len()` does not match the user's framing plan.
pub fn synthesize_retransmission(
    cell: &CellConfig,
    user: &UserConfig,
    mode: TurboMode,
    payload: &[u8],
    snr_db: f64,
    rng: &mut Xoshiro256,
) -> UserInput {
    let channel = MimoChannel::randomize(cell.n_rx, user.layers, channel_taps(user), rng);
    synthesize_payload_over_channel(cell, user, mode, payload, snr_db, &channel, rng)
}

/// Synthesises one user's received subframe for an explicit payload over
/// an explicit channel realisation — the primitive behind both the
/// first transmission and HARQ retransmissions.
///
/// # Panics
///
/// Panics if the channel dimensions don't match `cell`/`user`, or if
/// `payload.len() != FramePlan::for_user(user, mode).payload_bits()`.
pub fn synthesize_payload_over_channel(
    cell: &CellConfig,
    user: &UserConfig,
    mode: TurboMode,
    payload: &[u8],
    snr_db: f64,
    channel: &MimoChannel,
    rng: &mut Xoshiro256,
) -> UserInput {
    assert_eq!(channel.n_rx(), cell.n_rx, "channel antenna mismatch");
    assert_eq!(channel.n_layers(), user.layers, "channel layer mismatch");
    let n_sc = user.subcarriers();
    let noise_var = noise_var_for_snr_db(snr_db);
    let planner = FftPlanner::new();
    let dft = planner.forward(n_sc);

    let channel_bits = encode_frame(cell, user, mode, payload);
    let chunks = split_bits(user, &channel_bits);

    // Per-layer reference sequences (transmitted simultaneously by all
    // layers during the reference symbol).
    let references: Vec<Vec<Complex32>> = (0..user.layers)
        .map(|l| reference_for_layer_cached(cell, user, l).samples().to_vec())
        .collect();

    // The channel is static over the subframe: compute every (rx, layer)
    // frequency response once and reuse it for all 14 symbols.
    let responses = channel.responses(n_sc);

    let mut slots = Vec::with_capacity(SLOTS_PER_SUBFRAME);
    for slot in 0..SLOTS_PER_SUBFRAME {
        // Reference symbol through the channel.
        let mut ref_rx_rows = channel.apply_with(&responses, &references);
        for row in &mut ref_rx_rows {
            add_awgn(row, noise_var, rng);
        }
        let reference = RxSymbol::new(ref_rx_rows);

        // Data symbols: modulate, DFT-precode, through the channel.
        let mut data = Vec::with_capacity(DATA_SYMBOLS_PER_SLOT);
        for sym in 0..DATA_SYMBOLS_PER_SLOT {
            let layers_fd: Vec<Vec<Complex32>> = (0..user.layers)
                .map(|layer| {
                    let chunk_idx = (slot * DATA_SYMBOLS_PER_SLOT + sym) * user.layers + layer;
                    let mut symbols = user.modulation.map_bits(chunks[chunk_idx]);
                    dft.process(&mut symbols); // SC-FDMA DFT precoding
                    symbols
                })
                .collect();
            let mut rx_rows = channel.apply_with(&responses, &layers_fd);
            for row in &mut rx_rows {
                add_awgn(row, noise_var, rng);
            }
            data.push(RxSymbol::new(rx_rows));
        }
        slots.push(RxSlot::new(reference, data));
    }

    let input = UserInput {
        config: *user,
        slots,
        noise_var,
        ground_truth: payload.to_vec(),
    };
    input.validate();
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_dsp::Modulation;

    #[test]
    fn frame_plan_passthrough_uses_whole_allocation() {
        let user = UserConfig::new(4, 1, Modulation::Qpsk);
        let plan = FramePlan::for_user(&user, TurboMode::Passthrough);
        assert_eq!(plan.payload_bits(), user.bits_per_subframe() - 24);
    }

    #[test]
    fn frame_plan_coded_fits_allocation() {
        for prbs in [2usize, 10, 50, 200] {
            for layers in 1..=4 {
                let user = UserConfig::new(prbs, layers, Modulation::Qam64);
                let plan = FramePlan::for_user(&user, TurboMode::Decode { iterations: 4 });
                if let FramePlan::Coded {
                    n_blocks,
                    block_size,
                    coded_bits,
                    filler,
                    transport_bits,
                } = plan
                {
                    // Rate matching fills the allocation exactly.
                    assert_eq!(coded_bits, user.bits_per_subframe());
                    assert_eq!(filler, 0);
                    assert!(block_size <= 6144);
                    assert!(transport_bits > 24);
                    assert!(n_blocks >= 1);
                    // Effective code rate near the 1/3 mother rate.
                    let rate = transport_bits as f64 / coded_bits as f64;
                    assert!(
                        (0.25..=0.34).contains(&rate),
                        "{prbs} PRBs x{layers}: rate {rate:.3}"
                    );
                } else {
                    panic!("expected coded plan");
                }
            }
        }
    }

    #[test]
    fn encode_frame_length_and_determinism() {
        let cell = CellConfig::default();
        let user = UserConfig::new(3, 2, Modulation::Qam16);
        let plan = FramePlan::for_user(&user, TurboMode::Passthrough);
        let payload = vec![1u8; plan.payload_bits()];
        let a = encode_frame(&cell, &user, TurboMode::Passthrough, &payload);
        let b = encode_frame(&cell, &user, TurboMode::Passthrough, &payload);
        assert_eq!(a.len(), user.bits_per_subframe());
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_cell_identities_scramble_differently() {
        // Two cells with different physical-cell identities must encode
        // the same payload to different channel bits (cell-specific
        // scrambling), while the legacy constructor reproduces the
        // historical single-cell sequence exactly.
        let user = UserConfig::new(3, 1, Modulation::Qpsk);
        let plan = FramePlan::for_user(&user, TurboMode::Passthrough);
        let payload = vec![1u8; plan.payload_bits()];
        let legacy = CellConfig::with_antennas(2);
        let a = CellConfig::with_identity(2, 0);
        let b = CellConfig::with_identity(2, 1);
        let bits_legacy = encode_frame(&legacy, &user, TurboMode::Passthrough, &payload);
        let bits_a = encode_frame(&a, &user, TurboMode::Passthrough, &payload);
        let bits_b = encode_frame(&b, &user, TurboMode::Passthrough, &payload);
        assert_ne!(bits_a, bits_b);
        assert_ne!(bits_a, bits_legacy);
        assert_ne!(scrambling_init(&a, &user), scrambling_init(&b, &user));
    }

    #[test]
    fn reference_cache_cannot_alias_across_cells() {
        // Distinct Zadoff–Chu roots must produce distinct cached
        // sequences for the same allocation: the cache key includes the
        // root, so two deployment cells sharing a PRB width never read
        // each other's DM-RS entries.
        let user = UserConfig::new(4, 2, Modulation::Qpsk);
        let a = CellConfig::with_identity(2, 0);
        let b = CellConfig::with_identity(2, 1);
        prewarm_references(&a, &user);
        prewarm_references(&b, &user);
        let ra = reference_for_layer_cached(&a, &user, 0);
        let rb = reference_for_layer_cached(&b, &user, 0);
        assert!(!Arc::ptr_eq(&ra, &rb), "cache must hold distinct entries");
        assert_ne!(ra.samples()[1], rb.samples()[1]);
        // Same cell, same allocation: the entry is shared, not rebuilt.
        assert!(Arc::ptr_eq(&ra, &reference_for_layer_cached(&a, &user, 0)));
    }

    #[test]
    fn split_bits_covers_all_chunks() {
        let user = UserConfig::new(2, 3, Modulation::Qpsk);
        let bits = vec![0u8; user.bits_per_subframe()];
        let chunks = split_bits(&user, &bits);
        assert_eq!(chunks.len(), 2 * 6 * 3);
        assert_eq!(chunks[0].len(), 24 * 2);
    }

    #[test]
    fn synthesized_input_is_well_formed() {
        let cell = CellConfig::default();
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let input = synthesize_user(&cell, &user, 20.0, &mut rng);
        assert_eq!(input.slots.len(), 2);
        assert_eq!(input.slots[0].reference.n_rx(), 4);
        assert_eq!(input.slots[0].reference.n_sc(), 72);
        assert_eq!(input.ground_truth.len(), user.bits_per_subframe() - 24);
    }

    #[test]
    fn different_seeds_produce_different_payloads() {
        let cell = CellConfig::default();
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let a = synthesize_user(&cell, &user, 20.0, &mut Xoshiro256::seed_from_u64(1));
        let b = synthesize_user(&cell, &user, 20.0, &mut Xoshiro256::seed_from_u64(2));
        assert_ne!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn retransmission_carries_the_same_payload_over_a_new_channel() {
        let cell = CellConfig::default();
        let user = UserConfig::new(3, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let first = synthesize_user(&cell, &user, 10.0, &mut rng);
        let retx = synthesize_retransmission(
            &cell,
            &user,
            TurboMode::Passthrough,
            &first.ground_truth,
            10.0,
            &mut rng,
        );
        assert_eq!(retx.ground_truth, first.ground_truth);
        // Different channel + noise realisation: the received grids differ.
        assert_ne!(
            retx.slots[0].data[0].antenna(0)[0],
            first.slots[0].data[0].antenna(0)[0]
        );
    }

    #[test]
    fn synthesis_draws_counts_every_generator_output() {
        // Every user PRB width 2–100 × 1–4 layers × {1, 2, 4} antennas
        // (tap counts 1–6), for one and for four transmissions (a first
        // plus three retransmissions of its payload): a clone advanced by
        // the count lands where synthesis leaves the generator.
        // Unoptimised builds take every 24th width to stay short.
        let stride = if cfg!(debug_assertions) { 24 } else { 1 };
        let modulations = [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64];
        let mut rng = Xoshiro256::seed_from_u64(29);
        for prbs in (2..=100).step_by(stride) {
            for layers in 1..=4 {
                for n_rx in [1, 2, 4] {
                    let cell = CellConfig::with_antennas(n_rx);
                    let user = UserConfig::new(prbs, layers, modulations[prbs % 3]);
                    let mode = if layers % 2 == 1 {
                        TurboMode::Passthrough
                    } else {
                        TurboMode::Decode { iterations: 1 }
                    };
                    let walk = |transmissions| {
                        let mut walked = rng.clone();
                        walked.discard(synthesis_draws(&cell, &user, mode, transmissions));
                        walked
                    };
                    let (after_one, after_four) = (walk(1), walk(4));
                    let first = synthesize_user_with_mode(&cell, &user, mode, 10.0, &mut rng);
                    let shape = format!("{prbs} PRB x{layers} on {n_rx} rx");
                    assert_eq!(after_one, rng, "{shape}, one transmission");
                    for _ in 1..4 {
                        let payload = &first.ground_truth;
                        synthesize_retransmission(&cell, &user, mode, payload, 10.0, &mut rng);
                    }
                    assert_eq!(after_four, rng, "{shape}, four transmissions");
                }
            }
        }
    }

    #[test]
    fn reference_layers_are_distinct() {
        let cell = CellConfig::default();
        let user = UserConfig::new(4, 4, Modulation::Qpsk);
        let r0 = reference_for_layer(&cell, &user, 0);
        let r1 = reference_for_layer(&cell, &user, 1);
        assert_ne!(r0.samples()[1], r1.samples()[1]);
    }
}

//! Walk one user's subframe through every stage of the uplink receive
//! pipeline (Fig. 3 of the paper), printing what each kernel does —
//! useful as a guided tour of the PHY crate.
//!
//! ```text
//! cargo run --release --example receiver_chain
//! ```

use lte_uplink_repro::dsp::fft::FftPlanner;
use lte_uplink_repro::dsp::llr::demap_block;
use lte_uplink_repro::dsp::{Modulation, Xoshiro256};
use lte_uplink_repro::phy::combiner::{combine_symbol, CombinerWeights};
use lte_uplink_repro::phy::estimator::estimate_slot;
use lte_uplink_repro::phy::params::{CellConfig, TurboMode, UserConfig};
use lte_uplink_repro::phy::receiver::{finish_user_with_arena, UserScratch};
use lte_uplink_repro::phy::tx::synthesize_user;

fn main() {
    let cell = CellConfig::default();
    let user = UserConfig::new(25, 2, Modulation::Qam16);
    println!(
        "user: {} PRBs ({} subcarriers), {} layers, {} — {} bits/subframe",
        user.prbs,
        user.subcarriers(),
        user.layers,
        user.modulation,
        user.bits_per_subframe()
    );

    // Transmit side: payload → CRC → interleave → map → DFT precode →
    // MIMO fading channel at 28 dB SNR.
    let mut rng = Xoshiro256::seed_from_u64(7);
    let input = synthesize_user(&cell, &user, 28.0, &mut rng);
    println!(
        "synthesised 2 slots × (1 reference + 6 data symbols) × {} antennas, noise var {:.2e}",
        cell.n_rx, input.noise_var
    );

    let planner = FftPlanner::new();

    // Stage 1: channel estimation — matched filter → IFFT → window →
    // FFT per (antenna, layer); 4 × 2 = 8 tasks in the parallel version.
    let estimates: Vec<_> = (0..2)
        .map(|slot| estimate_slot(&cell, &input, slot, &planner))
        .collect();
    println!(
        "channel estimation: {} paths per slot ({} estimation tasks in §III terms)",
        cell.n_rx * user.layers,
        user.estimation_tasks(cell.n_rx)
    );

    // Combiner weights (user-thread work, not parallelised).
    let weights: Vec<_> = estimates
        .iter()
        .map(|est| CombinerWeights::mmse(est, input.noise_var))
        .collect();
    println!(
        "MMSE combiner weights: {} subcarriers × {} layers × {} antennas per slot",
        weights[0].n_sc(),
        weights[0].n_layers(),
        weights[0].n_rx()
    );

    // Stage 2: antenna combining + IFFT + soft demap per (slot, symbol,
    // layer) — the paper's 12 × layers demodulation tasks.
    let mut llrs = Vec::with_capacity(user.bits_per_subframe());
    #[allow(clippy::needless_range_loop)] // slot indexes input and weights in parallel
    for slot in 0..2 {
        for sym in 0..6 {
            for layer in 0..user.layers {
                let combined = combine_symbol(&input, &weights[slot], slot, sym, layer, &planner);
                llrs.extend(demap_block(user.modulation, &combined, input.noise_var));
            }
        }
    }
    println!(
        "demodulation: {} tasks produced {} LLRs",
        user.demodulation_tasks(),
        llrs.len()
    );

    // Stage 3: descramble → deinterleave → turbo (pass-through) → CRC,
    // on this thread's scratch like the pool's finish task.
    let mode = TurboMode::Passthrough;
    let result = UserScratch::with(|s| {
        finish_user_with_arena(&cell, &input, mode, &llrs, &mut s.arena, &mut s.turbo)
    });
    println!(
        "CRC: {} — decoded payload of {} bits matches ground truth: {}",
        if result.crc_ok { "OK" } else { "FAILED" },
        result.payload.len(),
        result.matches(&input.ground_truth)
    );
    assert!(result.matches(&input.ground_truth));

    // Bonus: the same frame with the real turbo decoder engaged (the
    // paper passes turbo through; the module is replaceable).
    let mode = TurboMode::Decode { iterations: 5 };
    let coded =
        lte_uplink_repro::phy::tx::synthesize_user_with_mode(&cell, &user, mode, 8.0, &mut rng);
    let decoded = lte_uplink_repro::phy::receiver::process_user(&cell, &coded, mode);
    println!(
        "turbo-coded variant at 8 dB SNR: CRC {}",
        if decoded.crc_ok { "OK" } else { "FAILED" }
    );
}

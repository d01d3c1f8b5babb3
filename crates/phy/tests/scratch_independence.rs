//! Property test: the receiver's output must not depend on what its
//! scratch held before. Every trial runs one random configuration — PRB
//! count, layer count, modulation, SNR, turbo mode — through this
//! thread's warm [`UserScratch`] (dirty, wrong-shaped buffers left by the
//! previous trials) and through a brand-new one, and the raw LLR stream,
//! payload bytes and CRC verdict must be bitwise equal.

use lte_dsp::fft::FftPlanner;
use lte_dsp::{Modulation, Xoshiro256};
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::{demodulate_user_into, finish_user_with_arena, UserResult, UserScratch};
use lte_phy::tx::synthesize_user_with_mode;

fn receive(
    cell: &CellConfig,
    input: &lte_phy::grid::UserInput,
    mode: TurboMode,
    planner: &FftPlanner,
    scratch: &mut UserScratch,
) -> (Vec<u32>, UserResult) {
    let mut llrs = Vec::new();
    demodulate_user_into(cell, input, planner, scratch, &mut llrs);
    let result = finish_user_with_arena(
        cell,
        input,
        mode,
        &llrs,
        &mut scratch.arena,
        &mut scratch.turbo,
    );
    (llrs.iter().map(|l| l.to_bits()).collect(), result)
}

#[test]
fn output_is_independent_of_dirty_scratch_across_random_configs() {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    let mut rng = Xoshiro256::seed_from_u64(0xA11C);
    let prb_choices = [2usize, 4, 6, 10, 15, 25, 50];
    let mods = [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64];
    for trial in 0..24 {
        let prbs = prb_choices[rng.next_below(prb_choices.len() as u64) as usize];
        let layers = 1 + rng.next_below(4) as usize;
        let modulation = mods[rng.next_below(mods.len() as u64) as usize];
        let snr_db = 20.0 + 15.0 * rng.next_f64();
        let mode = if rng.next_below(2) == 0 {
            TurboMode::Passthrough
        } else {
            TurboMode::Decode { iterations: 2 }
        };
        let user = UserConfig::new(prbs, layers, modulation);
        let input = synthesize_user_with_mode(&cell, &user, mode, snr_db, &mut rng);
        let fresh = receive(&cell, &input, mode, &planner, &mut UserScratch::new());
        // The thread-local scratch is deliberately NOT cleared between
        // trials, and the payload is handed back so later trials draw
        // buffers earlier ones wrote.
        let warm = UserScratch::with(|s| {
            let (llrs, result) = receive(&cell, &input, mode, &planner, s);
            s.arena.recycle_u8(result.payload.clone());
            (llrs, result)
        });
        assert_eq!(
            fresh, warm,
            "trial {trial}: {modulation} x{layers} prbs {prbs} {mode:?} diverged"
        );
    }
}

#[test]
fn mmse_weights_are_independent_of_a_larger_previous_shape() {
    use lte_dsp::channel::MimoChannel;
    use lte_phy::combiner::{CombinerWeights, MmseScratch};
    use lte_phy::estimator::ChannelEstimate;

    let mut rng = Xoshiro256::seed_from_u64(0x33E5);
    let mut estimate = |n_rx: usize, n_layers: usize, n_sc: usize| {
        let channel = MimoChannel::randomize(n_rx, n_layers, 3, &mut rng);
        let mut est = ChannelEstimate::empty(n_rx, n_layers, n_sc);
        for rx in 0..n_rx {
            for layer in 0..n_layers {
                *est.path_mut(rx, layer) = channel.frequency_response(rx, layer, n_sc);
            }
        }
        est
    };
    // The largest admissible shape first, so every later solve runs over
    // weight storage (and a scratch) that held more antennas, more layers
    // and more subcarriers.
    let mut scratch = MmseScratch::new();
    let mut reused = CombinerWeights::empty();
    reused.compute(&estimate(8, 4, 48), 0.05, &mut scratch);
    for (n_rx, n_layers, n_sc) in [(4, 3, 36), (2, 2, 24), (1, 1, 12), (8, 1, 12), (4, 4, 48)] {
        let est = estimate(n_rx, n_layers, n_sc);
        reused.compute(&est, 0.05, &mut scratch);
        let fresh = CombinerWeights::mmse(&est, 0.05);
        assert_eq!(reused, fresh, "{n_rx}x{n_layers}x{n_sc}");
        // `==` on f32 equates ±0; the weights must match bit for bit.
        for layer in 0..n_layers {
            for rx in 0..n_rx {
                for (w, f) in reused.lane(layer, rx).iter().zip(fresh.lane(layer, rx)) {
                    assert_eq!(
                        (w.re.to_bits(), w.im.to_bits()),
                        (f.re.to_bits(), f.im.to_bits())
                    );
                }
            }
        }
    }
}

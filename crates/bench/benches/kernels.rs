//! Micro-benchmarks of the DSP kernels the receiver pipeline is built
//! from: FFTs across LTE sizes, the matched filter, soft demapping,
//! MMSE weights, turbo decoding, the serial tail's CRC, Gold-sequence
//! descrambling, the one-pass pass-through tail and the coded tail's
//! descramble, deinterleave and dematch, and the full serial per-user
//! receive.

use std::hint::black_box;

use lte_bench::bench;
use lte_dsp::channel::MimoChannel;
use lte_dsp::crc::CRC24A;
use lte_dsp::fft::{Direction, FftPlan, FftPlanner};
use lte_dsp::interleave::DeinterleavedLlrs;
use lte_dsp::llr::demap_block;
use lte_dsp::matched_filter::matched_filter;
use lte_dsp::passthrough::PassthroughTail;
use lte_dsp::rate_match::RateMatcher;
use lte_dsp::scrambling::{descramble_llrs, GoldSequence};
use lte_dsp::segmentation::Segmentation;
use lte_dsp::simd::force_scalar;
use lte_dsp::turbo::{TurboDecoder, TurboEncoder, TurboLlrs};
use lte_dsp::zadoff_chu::ReferenceSequence;
use lte_dsp::{Complex32, Modulation, Xoshiro256};
use lte_phy::combiner::{CombinerWeights, MmseScratch};
use lte_phy::estimator::ChannelEstimate;
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::process_user_pooled;
use lte_phy::tx::{rate_match_shares, synthesize_user, FramePlan};

fn random_block(n: usize, seed: u64) -> Vec<Complex32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
        .collect()
}

/// Smooth LTE widths — every width `steady100` runs (10, 15, 25 and
/// 50 PRB; the inverse at 50) among them — then three the ramp model
/// schedules whose last radix is a prime (41, 97, 197 PRB: n = 492,
/// 1164, 2364). The prime widths go last: their FMA-dense butterfly
/// leaves the core clocked lower for a few milliseconds, which would land
/// on the width timed next.
fn bench_fft() {
    let forward = |prbs| ("fft", Direction::Forward, prbs);
    let widths = [
        forward(2),
        forward(10),
        forward(15),
        forward(25),
        forward(50),
        ("ifft", Direction::Inverse, 50),
        forward(100),
        forward(200),
        forward(41),
        forward(97),
        forward(197),
    ];
    for (name, direction, prbs) in widths {
        let n = 12 * prbs;
        let plan = FftPlan::new(n, direction);
        let data = random_block(n, n as u64);
        let mut work = data.clone();
        let mut scratch = vec![Complex32::ZERO; n];
        bench(&format!("{name}/{n}"), || {
            work.copy_from_slice(&data);
            plan.process_with_scratch(&mut work, &mut scratch);
            work[0]
        });
    }
}

fn bench_matched_filter() {
    let n = 1200;
    let reference = ReferenceSequence::new(n, 7);
    let received = random_block(n, 3);
    let mut out = vec![Complex32::ZERO; n];
    bench("matched_filter_1200", || {
        matched_filter(&received, reference.samples(), &mut out);
        out[0]
    });
}

fn bench_demap() {
    let symbols = random_block(1200, 9);
    for m in Modulation::ALL {
        bench(&format!("soft_demap_1200/{m}"), || {
            demap_block(m, &symbols, 0.1)
        });
    }
}

fn bench_turbo() {
    let k = 1024;
    let mut rng = Xoshiro256::seed_from_u64(5);
    let bits: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
    let encoder = TurboEncoder::new(k);
    let code = encoder.encode(&bits);
    let llrs = code.to_llrs(4.0);
    bench("turbo_encode_1024", || encoder.encode(&bits));
    let decoder = TurboDecoder::new(k, 5);
    bench("turbo_decode_1024_5it", || decoder.decode(&llrs));
}

/// The serial tail at the 100-PRB 64-QAM single-layer allocation size
/// (86 400 bits), and the per-user Gold warm-up on its own. The
/// pass-through tail (descramble, deinterleave, decide, CRC, payload)
/// and the coded tail up to the SISO (descramble, deinterleave and the
/// dematch of each of the allocation's 4-iteration turbo code blocks)
/// run on the vector dispatch, then forced scalar (`/scalar`).
fn bench_serial_tail() {
    let n = 86_400;
    let mut rng = Xoshiro256::seed_from_u64(14);
    let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
    bench("crc24a_86400", || CRC24A.compute_bits(black_box(&bits)));
    let mut llrs: Vec<f32> = (0..n).map(|_| rng.next_f32() - 0.5).collect();
    bench("descramble_86400", || {
        descramble_llrs(black_box(&mut llrs), 0x1234_5678)
    });
    bench("gold_warmup", || GoldSequence::new(black_box(0x1234_5678)));
    let mut tail = PassthroughTail::new();
    let mut payload = Vec::new();
    let user = UserConfig::new(100, 1, Modulation::Qam64);
    let mode = TurboMode::Decode { iterations: 4 };
    let FramePlan::Coded { transport_bits, .. } = FramePlan::for_user(&user, mode) else {
        unreachable!("decode mode plans a coded frame")
    };
    let shape = Segmentation::shape_for_len(transport_bits);
    let matcher = RateMatcher::new(shape.block_size);
    let mut deinterleaved = DeinterleavedLlrs::new();
    let mut blocks = vec![TurboLlrs::default(); shape.n_blocks];
    let shares = rate_match_shares(n, shape.n_blocks);
    for (scalar, suffix) in [(false, ""), (true, "/scalar")] {
        force_scalar(scalar);
        bench(&format!("passthrough_tail_86400{suffix}"), || {
            tail.decode_into(black_box(&llrs), 0x1234_5678, n, &mut payload)
        });
        bench(&format!("coded_tail_86400{suffix}"), || {
            deinterleaved.fill(black_box(&llrs), 0x1234_5678);
            let stream = deinterleaved.stream();
            let mut cursor = 0;
            for (block, &e) in blocks.iter_mut().zip(&shares) {
                matcher.accumulate_llrs_into(&stream[cursor..cursor + e], block);
                cursor += e;
            }
            blocks[0].systematic[0]
        });
    }
    force_scalar(false);
}

/// One slot's MMSE weights at 4 antennas: 600 subcarriers (50 PRB) at
/// 1, 2, 4 and 3 layers, then 180 subcarriers at 4 layers (`steady100`'s
/// 15-PRB user, whose last lane group is a 4-subcarrier tail). Each row
/// runs on the vector dispatch, then forced scalar (`/scalar`).
fn bench_mmse_weights() {
    let n_rx = 4;
    let mut rng = Xoshiro256::seed_from_u64(15);
    for (layers, n_sc) in [(1usize, 600usize), (2, 600), (4, 600), (3, 600), (4, 180)] {
        let channel = MimoChannel::randomize(n_rx, layers, 3, &mut rng);
        let mut est = ChannelEstimate::empty(n_rx, layers, n_sc);
        for rx in 0..n_rx {
            for layer in 0..layers {
                *est.path_mut(rx, layer) = channel.frequency_response(rx, layer, n_sc);
            }
        }
        let mut weights = CombinerWeights::empty();
        let mut scratch = MmseScratch::new();
        for (scalar, suffix) in [(false, ""), (true, "/scalar")] {
            force_scalar(scalar);
            bench(
                &format!("mmse_weights_{layers}layer_{n_sc}sc{suffix}"),
                || weights.compute(black_box(&est), 0.05, &mut scratch),
            );
        }
        force_scalar(false);
    }
}

fn bench_full_user() {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    for (prbs, layers) in [(10usize, 1usize), (50, 2), (100, 4)] {
        let user = UserConfig::new(prbs, layers, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let input = synthesize_user(&cell, &user, 30.0, &mut rng);
        bench(
            &format!("serial_user_receive/{prbs}prb_{layers}layer"),
            || process_user_pooled(&cell, &input, TurboMode::Passthrough, &planner),
        );
    }
}

fn main() {
    bench_fft();
    bench_matched_filter();
    bench_demap();
    bench_turbo();
    bench_serial_tail();
    bench_mmse_weights();
    bench_full_user();
}

//! Micro-benchmarks of the HARQ soft-combining path: the element-wise
//! LLR accumulation kernel across transport-block sizes, and the two
//! demapper fidelities the `DegradeDemap` overload policy switches
//! between (exact log-sum-exp vs. max-log).

use lte_bench::bench;
use lte_dsp::llr::{combine_llrs, demap_block, demap_block_exact};
use lte_dsp::{Complex32, Modulation, Xoshiro256};

fn random_llrs(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n).map(|_| 4.0 * (rng.next_f32() - 0.5)).collect()
}

fn random_symbols(n: usize, seed: u64) -> Vec<Complex32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
        .collect()
}

fn bench_combine() {
    // QPSK payload bits for 2, 20 and 100 PRBs over one subframe.
    for prbs in [2usize, 20, 100] {
        let n = 12 * prbs * 12 * 2;
        let acc = random_llrs(n, 1);
        let update = random_llrs(n, 2);
        bench(&format!("harq_combine_llrs/{n}"), || {
            let mut work = acc.clone();
            combine_llrs(&mut work, &update);
            work[0]
        });
    }
}

fn bench_demap_fidelity() {
    let symbols = random_symbols(1200, 3);
    for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
        bench(&format!("harq_demap_fidelity/max_log/{m:?}"), || {
            demap_block(m, &symbols, 0.1)
        });
        bench(&format!("harq_demap_fidelity/exact/{m:?}"), || {
            demap_block_exact(m, &symbols, 0.1)
        });
    }
}

fn main() {
    bench_combine();
    bench_demap_fidelity();
}

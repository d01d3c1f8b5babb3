//! The micro-benchmark timer, and nothing else.
//!
//! `examples/lte_bench` is the repository's performance yardstick. The
//! five targets under `benches/` cover what it cannot name — per-kernel
//! timings, the SIMD-vs-scalar turbo ratio, HARQ combining and the two
//! cost gates `scripts/check.sh` greps — each a plain `fn main` over
//! [`bench()`]. There are no statistics here: a line is for reading next
//! to its neighbours on one host, not for claiming a gain.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Most samples one [`bench()`] call takes.
pub const SAMPLES: usize = 10;
/// Sampling stops early once this much time is spent after the first
/// sample.
pub const BUDGET: Duration = Duration::from_millis(500);

/// Times `routine`, one call per sample, until [`SAMPLES`] are taken or
/// [`BUDGET`] is spent, and prints one `bench <id> median … best …` line.
/// The first call is the warm-up and the first sample, so a routine
/// slower than the budget still reports.
pub fn bench<O>(id: &str, routine: impl FnMut() -> O) {
    bench_per(id, 1, routine);
}

/// [`bench()`] for a routine that processes `items` units per call: the
/// line reports the time per unit.
pub fn bench_per<O>(id: &str, items: u32, mut routine: impl FnMut() -> O) {
    let mut sample = || {
        let start = Instant::now();
        black_box(routine());
        start.elapsed() / items
    };
    let mut samples = vec![sample()];
    let budget_start = Instant::now();
    while samples.len() < SAMPLES && budget_start.elapsed() < BUDGET {
        samples.push(sample());
    }
    samples.sort_unstable();
    println!(
        "bench {id:<40} median {:>12}  best {:>12}  ({} samples)",
        human(samples[samples.len() / 2]),
        human(samples[0]),
        samples.len()
    );
}

fn human(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routine_runs_at_least_once_and_at_most_ten_times() {
        let mut calls = 0;
        bench("noop", || calls += 1);
        assert!((1..=SAMPLES).contains(&calls), "{calls} calls");
    }
}

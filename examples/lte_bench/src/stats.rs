//! Order statistics and the open-loop latency arithmetic.
//!
//! Everything here is a pure function of its arguments so the estimators
//! the benchmark's verdicts rest on are unit-tested on known vectors.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `true` when `a` is strictly better than `b`.
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the `ceil(q * n)`-th smallest value
/// (`q` in `0..=1`). An empty slice yields NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile — the count
/// that says whether the percentile is worth reporting (ten or more).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The conventional median (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `values` from the best to the worst.
fn ranked(values: &[f64], better: Better) -> Vec<f64> {
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    v
}

/// The headline of a per-round metric: the mean of the better half of its
/// rounds (`ceil(R / 2)` of them). Interference on a shared host only ever
/// makes a round worse, and on the build host it comes in phases of
/// seconds to minutes, so the disturbed half is dropped; averaging the
/// rest keeps a lucky round from setting the headline. Of the estimators
/// tried in the noise study (best round, mean of the best two or three,
/// better quartile, median, this one) its worst run-to-run spread was the
/// smallest; the README has the numbers.
pub fn headline(values: &[f64], better: Better) -> f64 {
    let v = ranked(values, better);
    let top = &v[..v.len().div_ceil(2)];
    top.iter().sum::<f64>() / top.len() as f64
}

/// The worst round.
pub fn worst(values: &[f64], better: Better) -> f64 {
    ranked(values, better).last().copied().unwrap_or(f64::NAN)
}

/// Interquartile distance as a share of the median, with Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) quartiles — the
/// spread the acceptance rule of the benchmark contract uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quantile(3) - quantile(1)) / median(&v)
}

/// Open-loop latency timed from when each subframe was *due*:
/// `completions_ns[i] - i * delta`. A stalled system delays later
/// dispatches; timing from the (late) dispatch stamp would hide exactly
/// the wait the stall imposed.
pub fn due_latencies_ns(completions_ns: &[u64], delta_ns: u64) -> Vec<u64> {
    completions_ns
        .iter()
        .enumerate()
        .map(|(i, &c)| c.saturating_sub(i as u64 * delta_ns))
        .collect()
}

/// How late the load generator dispatched each subframe:
/// `(completion - dispatch_to_completion) - i * delta`.
pub fn generator_lateness_ns(
    completions_ns: &[u64],
    latencies_ns: &[u64],
    delta_ns: u64,
) -> Vec<u64> {
    completions_ns
        .iter()
        .zip(latencies_ns)
        .enumerate()
        .map(|(i, (&c, &l))| c.saturating_sub(l).saturating_sub(i as u64 * delta_ns))
        .collect()
}

/// A pass/fail as the number a metric or result file carries.
pub fn flag(ok: bool) -> f64 {
    f64::from(u8::from(ok))
}

pub fn to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(120, 0.9), 12);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn headline_is_the_mean_of_the_better_half() {
        let v = [60.0, 10.0, 50.0, 20.0, 40.0, 30.0];
        assert_eq!(headline(&v, Better::Lower), 20.0);
        assert_eq!(headline(&v, Better::Higher), 50.0);
        assert_eq!(worst(&v, Better::Lower), 60.0);
        assert_eq!(worst(&v, Better::Higher), 10.0);
        // An odd count keeps the middle round: 3 of 5, 1 of 1.
        assert_eq!(headline(&[5.0, 1.0, 2.0, 9.0, 3.0], Better::Lower), 2.0);
        assert_eq!(headline(&[4.0, 8.0], Better::Higher), 8.0);
        assert_eq!(headline(&[5.0], Better::Lower), 5.0);
        assert!(headline(&[], Better::Lower).is_nan());
        assert!(worst(&[], Better::Lower).is_nan());
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0; 10]), 0.0);
    }

    #[test]
    fn due_time_latency_counts_the_wait_a_stall_imposes() {
        // Delta 10: subframes due at 0, 10, 20, 30. The system stalls
        // on #1, so #2 and #3 are dispatched late (at 31 and 33).
        let completions = [4u64, 30, 36, 39];
        let dispatch_to_done = [4u64, 20, 5, 6];
        assert_eq!(due_latencies_ns(&completions, 10), vec![4, 20, 16, 9]);
        // Dispatch stamps 0, 10, 31, 33 -> lateness 0, 0, 11, 3.
        assert_eq!(
            generator_lateness_ns(&completions, &dispatch_to_done, 10),
            vec![0, 0, 11, 3]
        );
        // A completion before its due time cannot go negative.
        assert_eq!(due_latencies_ns(&[0, 5], 10), vec![0, 0]);
    }
}

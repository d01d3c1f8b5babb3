//! The paper-artifact table: one row per figure and table of the
//! evaluation (Figs. 7–9 and 11–16, Tables I–II) plus the §IV-D
//! serial/parallel check. A row names the files it writes and checks the
//! paper's qualitative claim with the tolerance its doc comment states.
//! `lte-sim <id>` runs one row; `lte-sim all` runs them all in order.
//! Claims about the ramp peak need the whole 68 000-subframe ramp: a
//! shorter run reports them as not checked instead of passing them.

use std::sync::OnceLock;

use lte_dsp::Modulation;
use lte_model::trace::Trace;
use lte_model::{ParameterModel, RampModel, EVALUATION_SUBFRAMES, PROB_STEP_SUBFRAMES};
use lte_phy::params::{CellConfig, MAX_PRB, MAX_USERS, MIN_USER_PRB};
use lte_power::NapPolicy;

use crate::experiments::{ExperimentContext, PowerRow, PowerStudy};
use crate::report;
use crate::{BenchmarkConfig, UplinkBenchmark};

/// The Figs. 7–9 and 13 CSVs plot every 25th subframe, as the paper does.
const STRIDE: usize = 25;
/// One probability step: the shortest run most claims can be judged on.
const STEP: usize = PROB_STEP_SUBFRAMES;
/// The whole ramp, which claims about its peak need.
const FULL: usize = EVALUATION_SUBFRAMES;
/// The peak's probability step starts half-way through the ramp.
const PEAK: usize = FULL / 2;
/// Subframes averaged at each end of the ramp and around its peak.
const SPAN: usize = 2_000;

/// One paper artifact: the files it writes and the claim it is held to.
pub struct Artifact {
    /// Row id and `lte-sim` command.
    pub id: &'static str,
    /// Where the paper shows it.
    pub paper: &'static str,
    /// Fewest evaluation subframes the claim can be judged on.
    pub needs: usize,
    /// The files the row writes, as (file name, contents).
    pub produce: fn(&Inputs) -> Vec<(&'static str, String)>,
    /// `Ok` with the measured values, or `Err` with those that violate
    /// the claim; [`Artifact::judge`] runs it.
    check: fn(&Inputs) -> Result<String, String>,
}

impl Artifact {
    /// The row's verdict: `None` (not checked) when the run is shorter
    /// than the claim [`needs`](Artifact::needs), else the check's.
    pub fn judge(&self, inputs: &Inputs) -> Option<Result<String, String>> {
        (inputs.ctx.n_subframes >= self.needs).then(|| (self.check)(inputs))
    }
}

/// What the rows read, each computed on first use and at most once.
pub struct Inputs {
    ctx: ExperimentContext,
    trace: OnceLock<Trace>,
    study: OnceLock<PowerStudy>,
}

impl Inputs {
    /// Inputs for the evaluation run `ctx` describes; nothing runs yet.
    pub fn new(ctx: ExperimentContext) -> Self {
        let (trace, study) = (OnceLock::new(), OnceLock::new());
        Inputs { ctx, trace, study }
    }

    fn trace(&self) -> &Trace {
        self.trace.get_or_init(|| self.ctx.trace())
    }

    pub(crate) fn study(&self) -> &PowerStudy {
        self.study.get_or_init(|| {
            println!(
                "running power study: {} subframes, calibration step {} PRBs …",
                self.ctx.n_subframes, self.ctx.cal_prb_step
            );
            self.ctx.run_power_study()
        })
    }

    /// Seconds spanned by `buckets` dispatch periods.
    fn seconds(&self, buckets: usize) -> f64 {
        buckets as f64 * self.ctx.sim_config(NapPolicy::NoNap).dispatch_seconds()
    }
}

/// Every row, in the order `lte-sim all` writes and checks them.
pub static ARTIFACTS: [Artifact; 12] = [
    Artifact {
        id: "fig7",
        paper: "Fig. 7",
        needs: STEP,
        produce: |i| vec![("fig7_users.csv", report::fig7_csv(i.trace(), STRIDE))],
        check: fig7_users,
    },
    Artifact {
        id: "fig8",
        paper: "Fig. 8",
        needs: STEP,
        produce: |i| vec![("fig8_prbs.csv", report::fig8_csv(i.trace(), STRIDE))],
        check: fig8_prbs,
    },
    Artifact {
        id: "fig9",
        paper: "Fig. 9",
        needs: FULL,
        produce: |i| vec![("fig9_layers.csv", report::fig9_csv(i.trace(), STRIDE))],
        check: fig9_layers,
    },
    Artifact {
        id: "fig11",
        paper: "Fig. 11",
        needs: STEP,
        produce: |i| {
            let curves = &i.study().curves;
            let csv = ("fig11_calibration.csv", report::fig11_csv(curves));
            vec![csv, ("fig11_calibration.svg", report::fig11_svg(curves))]
        },
        check: fig11_calibration,
    },
    Artifact {
        id: "fig12",
        paper: "Fig. 12",
        needs: STEP,
        produce: |i| {
            let (v, s) = (&i.study().validation, i.seconds(i.ctx.activity_window));
            let csv = ("fig12_estimation.csv", report::fig12_csv(v, s));
            vec![csv, ("fig12_estimation.svg", report::fig12_svg(v, s))]
        },
        check: fig12_estimation,
    },
    Artifact {
        id: "fig13",
        paper: "Fig. 13",
        needs: FULL,
        produce: |i| {
            let csv = report::fig13_csv(&i.study().targets, STRIDE);
            vec![("fig13_active_cores.csv", csv)]
        },
        check: |i| target_span(&i.study().targets, i.ctx.controller.max_cores),
    },
    Artifact {
        id: "fig14",
        paper: "Fig. 14",
        needs: FULL,
        produce: power_traces,
        check: |i| {
            let study = i.study();
            nap_gap_shrinks(
                &study.run(NapPolicy::NoNap).power,
                &study.run(NapPolicy::Nap).power,
            )
        },
    },
    Artifact {
        id: "fig15",
        paper: "Fig. 15",
        needs: STEP,
        produce: power_traces,
        check: fig15_policies,
    },
    Artifact {
        id: "fig16",
        paper: "Fig. 16",
        needs: FULL,
        produce: power_traces,
        check: |i| {
            let study = i.study();
            gating_converges(&study.run(NapPolicy::NapIdle).power, &study.gated_power)
        },
    },
    Artifact {
        id: "table1",
        paper: "Table I",
        needs: STEP,
        produce: |i| {
            let md = report::table1_markdown(&i.study().table1());
            vec![("table1_dynamic_power.md", md)]
        },
        // Dynamic power cannot be negative.
        check: |i| power_ordering(&i.study().table1(), 0.40, 0.0),
    },
    Artifact {
        id: "table2",
        paper: "Table II",
        needs: STEP,
        produce: |i| {
            let md = report::table2_markdown(&i.study().table2());
            vec![("table2_total_power.md", md)]
        },
        // No row can fall below base power less what gating every core saves.
        check: |i| {
            let (study, g) = (i.study(), i.ctx.gating);
            let floor = study.base_watts - g.total_cores as f64 * g.static_per_core;
            power_ordering(&study.table2(), 0.20, floor)
        },
    },
    Artifact {
        id: "iv-d",
        paper: "§IV-D",
        needs: 0,
        produce: |_| Vec::new(),
        check: serial_parallel,
    },
];

/// Figs. 14–16 share one CSV and one SVG of RMS power per technique.
fn power_traces(i: &Inputs) -> Vec<(&'static str, String)> {
    let (study, s) = (i.study(), i.seconds(i.ctx.rms_window));
    let csv = ("fig14_15_16_power.csv", report::power_traces_csv(study, s));
    vec![csv, ("fig14_15_16_power.svg", report::power_svg(study, s))]
}

fn verdict(ok: bool, text: String) -> Result<String, String> {
    if ok {
        Ok(text)
    } else {
        Err(text)
    }
}

/// Mean of `series[from..to]`.
fn mean(series: &[f64], from: usize, to: usize) -> f64 {
    series[from..to].iter().sum::<f64>() / (to - from) as f64
}

/// A per-subframe series averaged over the first and last 2 000
/// subframes (low load) and over the 2 000 around the peak.
fn ends_and_peak(series: &[f64]) -> (f64, f64) {
    let n = series.len();
    let ends = (mean(series, 0, SPAN) + mean(series, n - SPAN, n)) / 2.0;
    (ends, mean(series, PEAK - SPAN / 2, PEAK + SPAN / 2))
}

/// Fig. 7: 1..=10 users per subframe, changing "constantly and rapidly":
/// more than half of adjacent subframes differ in user count.
fn fig7_users(i: &Inputs) -> Result<String, String> {
    let rows = i.trace().rows();
    let lo = rows.iter().map(|r| r.users).min().unwrap_or(0);
    let hi = rows.iter().map(|r| r.users).max().unwrap_or(0);
    let changes = rows.windows(2).filter(|w| w[0].users != w[1].users).count();
    let share = changes as f64 / (rows.len() - 1) as f64;
    verdict(
        lo >= 1 && hi <= MAX_USERS && share > 0.5,
        format!(
            "users {lo}..{hi} (1..10); {:.0}% of neighbours differ (> 50%)",
            100.0 * share
        ),
    )
}

/// Fig. 8: Fig. 6's loop fills the subframe — never more than 200 PRBs,
/// at least 190 on average — and no user gets fewer than 2.
fn fig8_prbs(i: &Inputs) -> Result<String, String> {
    let rows = i.trace().rows();
    let most = rows.iter().map(|r| r.total_prbs).max().unwrap_or(0);
    let least = rows.iter().map(|r| r.min_prbs).min().unwrap_or(0);
    let mean = i.trace().mean_total_prbs();
    verdict(
        most <= MAX_PRB && mean >= 0.95 * MAX_PRB as f64 && least >= MIN_USER_PRB,
        format!(
            "total PRBs mean {mean:.1} (≥ 190), max {most} (≤ 200); smallest grant {least} (≥ 2)"
        ),
    )
}

/// Fig. 9: layers follow the probability ramp — the largest layer count
/// averages at most 2 at the ends, and every user is 4-layer throughout
/// the peak's probability step.
fn fig9_layers(i: &Inputs) -> Result<String, String> {
    let rows = i.trace().rows();
    let max_layers: Vec<f64> = rows.iter().map(|r| r.max_layers as f64).collect();
    let (ends, _) = ends_and_peak(&max_layers);
    let peak = rows[PEAK..PEAK + STEP].iter().all(|r| r.min_layers == 4);
    verdict(
        ends <= 2.0 && peak,
        format!(
            "mean max layers {ends:.2} at the ends (≤ 2); all 4/4 from subframe {PEAK}: {peak}"
        ),
    )
}

/// Fig. 11 / Eq. 3: activity rises strictly and linearly with PRBs —
/// every point within 10 % of the fitted k·PRBs — and k grows with
/// layers and with modulation order.
fn fig11_calibration(i: &Inputs) -> Result<String, String> {
    let study = i.study();
    let k = |l, m| study.estimator.k(l, m);
    let (mut worst, mut rising) = (0.0_f64, true);
    for c in &study.curves {
        rising &= c.points.windows(2).all(|w| w[1].activity > w[0].activity);
        for p in &c.points {
            let fit = k(c.layers, c.modulation) * p.prbs as f64;
            worst = worst.max((p.activity - fit).abs() / fit.max(0.01));
        }
    }
    let ordered = (1..=4).all(|l| {
        Modulation::ALL.windows(2).all(|m| k(l, m[1]) > k(l, m[0]))
            && Modulation::ALL
                .iter()
                .all(|&m| l == 4 || k(l + 1, m) > k(l, m))
    });
    verdict(
        rising && worst < 0.10 && ordered,
        format!(
            "rising: {rising}; worst residual {:.1}% (< 10%); k ordered in layers and modulation: {ordered}",
            100.0 * worst
        ),
    )
}

/// Fig. 12: the estimator tracks measured activity no worse than the
/// paper's own 1.2 % mean and 5.4 % maximum absolute error.
fn fig12_estimation(i: &Inputs) -> Result<String, String> {
    let v = &i.study().validation;
    verdict(
        v.mean_abs_err <= 0.012 && v.max_abs_err <= 0.054,
        format!(
            "mean |err| {:.2}% (paper 1.2%), max |err| {:.2}% (paper 5.4%)",
            100.0 * v.mean_abs_err,
            100.0 * v.max_abs_err
        ),
    )
}

/// Fig. 13 / Eq. 5: the per-subframe targets of the whole run span at
/// least three quarters of the cores, and average at least twice as many
/// around the peak as at the ends.
fn target_span(targets: &[usize], max_cores: usize) -> Result<String, String> {
    let (lo, hi) = (
        targets.iter().min().unwrap_or(&0),
        targets.iter().max().unwrap_or(&0),
    );
    let (ends, peak) = ends_and_peak(&targets.iter().map(|&t| t as f64).collect::<Vec<_>>());
    verdict(
        4 * (hi - lo) >= 3 * max_cores && peak >= 2.0 * ends,
        format!("targets {lo}..{hi} of {max_cores} (≥ 3/4); mean {ends:.1} at the ends, {peak:.1} at the peak (≥ 2×)"),
    )
}

/// Fig. 14: the NONAP−NAP gap at the ends is at least 3× the gap at the
/// peak, and thermal feedback keeps NONAP power on the way down at least
/// 0.02 W above the mirrored point on the way up.
fn nap_gap_shrinks(nonap: &[f64], nap: &[f64]) -> Result<String, String> {
    let gap: Vec<f64> = nonap.iter().zip(nap).map(|(a, b)| a - b).collect();
    let ((ends, peak), lag) = (ends_and_peak(&gap), hysteresis(nonap));
    verdict(
        ends >= 3.0 * peak && lag >= 0.02,
        format!("NONAP−NAP gap {ends:.2} W at the ends, {peak:.2} W at the peak (≥ 3×); hysteresis ≥ {lag:.3} W (≥ 0.02 W)"),
    )
}

/// The smallest excess of down-ramp over up-ramp power across nine pairs
/// of mirrored 2 000-subframe windows, one every tenth of the ramp. The
/// offered load is symmetric about the middle of the peak step:
/// subframes s and 2·centre − 1 − s draw with the same probability.
fn hysteresis(power: &[f64]) -> f64 {
    let centre = PEAK + STEP / 2;
    let around = |c: usize| mean(power, c - SPAN / 2, c + SPAN / 2);
    (1..=9)
        .map(|k| around(centre + k * PEAK / 10) - around(centre - k * PEAK / 10))
        .fold(f64::INFINITY, f64::min)
}

/// Fig. 15: each power-managed policy stays below NONAP in every 100 ms
/// RMS window, and NAP+IDLE has the lowest mean of the four.
fn fig15_policies(i: &Inputs) -> Result<String, String> {
    let study = i.study();
    let nonap = &study.run(NapPolicy::NoNap).rms;
    let closest = (NapPolicy::ALL[1..].iter())
        .flat_map(|&p| study.run(p).rms.iter().zip(nonap).map(|(x, n)| n - x))
        .fold(f64::INFINITY, f64::min);
    let w = NapPolicy::ALL.map(|p| study.run(p).mean_total);
    verdict(
        closest > 0.0 && w[3] < w[1] && w[3] < w[2],
        format!(
            "every window ≥ {closest:.2} W below NONAP (> 0); NAP+IDLE {:.2} W lowest",
            w[3]
        ),
    )
}

/// Fig. 16: power gating saves at least 1 W at the ends and converges to
/// NAP+IDLE (within 0.1 W) around the peak, where every domain is awake.
fn gating_converges(napidle: &[f64], gated: &[f64]) -> Result<String, String> {
    let gap: Vec<f64> = napidle.iter().zip(gated).map(|(a, b)| a - b).collect();
    let (ends, peak) = ends_and_peak(&gap);
    verdict(
        ends >= 1.0 && peak.abs() <= 0.1,
        format!("NAP+IDLE−PowerGating gap {ends:.2} W at the ends (≥ 1 W), {peak:.2} W at the peak (≤ 0.1 W)"),
    )
}

/// Tables I and II: power falls strictly down the table (NONAP > IDLE >
/// NAP > NAP+IDLE, then PowerGating in Table II) without reaching
/// `floor`, and the last row saves at least `saving` against NONAP
/// (paper: 46 % of the dynamic power, 26 % of the total).
fn power_ordering(rows: &[PowerRow], saving: f64, floor: f64) -> Result<String, String> {
    let ordered = rows.windows(2).all(|w| w[0].watts > w[1].watts);
    let last = rows.last().expect("a power table has rows");
    let cells: Vec<String> = rows
        .iter()
        .map(|r| format!("{} {:.2} W", r.technique, r.watts))
        .collect();
    verdict(
        ordered && last.watts > floor && -last.vs_nonap >= saving,
        format!(
            "{} (> {floor:.2} W); {} saves {:.0}% (≥ {:.0}%)",
            cells.join(" > "),
            last.technique,
            -100.0 * last.vs_nonap,
            100.0 * saving
        ),
    )
}

/// §IV-D: ten ramp subframes decoded on the real pool match the serial
/// reference ([`lte_phy::verify::GoldenRecord::build`]) bit for bit.
fn serial_parallel(i: &Inputs) -> Result<String, String> {
    let subframes = RampModel::new(i.ctx.seed).subframes(10);
    let cell = CellConfig::with_antennas(2);
    let mut bench = UplinkBenchmark::new(cell, BenchmarkConfig::default());
    let run = bench.try_run(&subframes).map_err(|e| e.to_string())?;
    bench
        .verify(&subframes, &run)
        .map_err(|e| format!("pool diverged from serial: {e}"))?;
    let users: usize = run.results.iter().map(Vec::len).sum();
    Ok(format!(
        "10 ramp subframes, {users} users bit-exact with the serial reference (CRC pass {:.1}%)",
        100.0 * run.crc_pass_rate
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A series shaped like the offered load: `base` at the ends, rising
    /// linearly by `rise` to the middle of the peak step.
    fn ramp(base: f64, rise: f64) -> Vec<f64> {
        let centre = (PEAK + STEP / 2) as f64;
        (0..FULL)
            .map(|s| base + rise * (1.0 - (s as f64 + 0.5 - centre).abs() / centre))
            .collect()
    }

    /// `series` delayed by 4 000 subframes, as a thermal lag would.
    fn lagged(series: &[f64]) -> Vec<f64> {
        (0..FULL).map(|s| series[s.saturating_sub(4_000)]).collect()
    }

    #[test]
    fn a_flat_gap_or_symmetric_power_fails_fig14() {
        let shrinking = ramp(7.0, -6.0);
        let minus = |power: &[f64], gap: &[f64]| -> Vec<f64> {
            power.iter().zip(gap).map(|(p, g)| p - g).collect()
        };
        let nonap = lagged(&ramp(23.0, 3.0));
        assert!(nap_gap_shrinks(&nonap, &minus(&nonap, &shrinking)).is_ok());
        let flat = minus(&nonap, &vec![2.0; FULL]);
        assert!(nap_gap_shrinks(&nonap, &flat).is_err(), "a constant gap");
        let symmetric = ramp(23.0, 3.0);
        let nap = minus(&symmetric, &shrinking);
        assert!(nap_gap_shrinks(&symmetric, &nap).is_err(), "no hysteresis");
    }

    #[test]
    fn gating_above_napidle_fails_fig16() {
        let napidle = ramp(16.0, 9.0);
        let converging: Vec<f64> = ramp(13.5, 11.5)
            .iter()
            .zip(&napidle)
            .map(|(g, n)| g.min(*n))
            .collect();
        assert!(gating_converges(&napidle, &converging).is_ok());
        let above: Vec<f64> = napidle.iter().map(|n| n + 0.5).collect();
        let apart: Vec<f64> = napidle.iter().map(|n| n - 1.0).collect();
        for gated in [&above, &napidle, &apart] {
            assert!(gating_converges(&napidle, gated).is_err());
        }
    }

    #[test]
    fn flat_targets_fail_fig13() {
        assert!(target_span(&vec![30; FULL], 62).is_err());
        let swept: Vec<usize> = ramp(4.0, 58.0).iter().map(|t| *t as usize).collect();
        assert!(target_span(&swept, 62).is_ok());
    }
}

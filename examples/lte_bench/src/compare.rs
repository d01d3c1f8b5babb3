//! `compare A B`: per workload and end-to-end metric, both headline
//! values, their ratio, the bound, and a verdict. The rule is the one a
//! change that claims a gain is judged by: `worse` beyond the bound,
//! `unresolved` (never `same`) when the rounds of either file spread wider
//! than the bound — unless every round of B beats every round of A.

use std::path::{Path, PathBuf};

use crate::json::FlatJson;
use crate::metrics::{workload_names, EndToEnd, END_TO_END};
use crate::stats::iqr_share;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric. `a`/`b` are the headline values,
/// `rounds_*` the per-round values behind them.
pub fn judge(metric: &EndToEnd, a: f64, b: f64, rounds_a: &[f64], rounds_b: &[f64]) -> Verdict {
    // Share of A by which B is worse (negative: better).
    let worsening = match metric.better {
        crate::stats::Better::Lower => (b - a) / a,
        crate::stats::Better::Higher => (a - b) / a,
    };
    let spread = iqr_share(rounds_a).max(iqr_share(rounds_b));
    if spread > metric.bound {
        let b_always_wins = !rounds_a.is_empty()
            && rounds_b
                .iter()
                .all(|&rb| rounds_a.iter().all(|&ra| metric.better.is_better(rb, ra)));
        return if b_always_wins {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The result files behind a path: the file itself, or `<workload>.json`
/// for every workload when it is a directory.
fn result_files(path: &Path) -> Vec<PathBuf> {
    if path.is_dir() {
        workload_names()
            .iter()
            .map(|w| path.join(format!("{w}.json")))
            .filter(|p| p.is_file())
            .collect()
    } else {
        vec![path.to_path_buf()]
    }
}

fn load(path: &Path) -> Result<Vec<FlatJson>, String> {
    result_files(path)
        .iter()
        .map(|file| {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            FlatJson::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
        })
        .collect()
}

/// Host facts whose difference makes a comparison suspect.
const HOST_KEYS: [&str; 8] = [
    "host.nproc",
    "host.workers",
    "host.workers_effective",
    "host.cpu_model",
    "host.simd",
    "host.rustc",
    "host.git_commit",
    "host.seed",
];

fn show(doc: &FlatJson, key: &str) -> String {
    match (doc.num(key), doc.text(key)) {
        (Some(v), _) => v.to_string(),
        (_, Some(s)) => s.to_string(),
        _ => "missing".into(),
    }
}

/// Prints the comparison; `Ok(false)` when anything is worse or a
/// failure share rose.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_docs, b_docs) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    let mut compared = 0;
    for a in &a_docs {
        let Some(workload) = a.text("workload") else {
            return Err("a result file has no workload name".into());
        };
        let Some(b) = b_docs.iter().find(|d| d.text("workload") == Some(workload)) else {
            println!("{workload}: only in {}", a_path.display());
            continue;
        };
        compared += 1;
        println!("{workload}");
        for key in HOST_KEYS {
            // Comparing two commits is the point; everything else differing is not.
            if show(a, key) != show(b, key) && key != "host.git_commit" {
                println!(
                    "  warning: {key} differs: {} vs {}",
                    show(a, key),
                    show(b, key)
                );
            }
        }
        for key in ["host.load1_start", "host.load1_end"] {
            for (side, doc) in [("A", a), ("B", b)] {
                if doc.num(key).is_some_and(|l| l > 0.5) {
                    println!(
                        "  warning: {side} {key} = {}: the host was not idle",
                        show(doc, key)
                    );
                }
            }
        }
        for metric in &END_TO_END {
            let key = format!("e2e.{}", metric.name);
            let (Some(va), Some(vb)) = (a.num(&key), b.num(&key)) else {
                println!("  {:<14} missing in one file", metric.name);
                continue;
            };
            let rounds = |d: &FlatJson| d.arr(&format!("{key}.rounds")).unwrap_or(&[]).to_vec();
            let verdict = judge(metric, va, vb, &rounds(a), &rounds(b));
            println!(
                "  {:<14} A {:>12.4}  B {:>12.4} {:<4} B/A {:>7.4} (base A)  bound {:<5} {} is better  -> {}",
                metric.name,
                va,
                vb,
                metric.unit,
                vb / va,
                metric.bound,
                metric.better.name(),
                verdict.name(),
            );
            ok &= verdict != Verdict::Worse;
        }
        let (fa, fb) = (a.num("fail_share"), b.num("fail_share"));
        let rose = matches!((fa, fb), (Some(fa), Some(fb)) if fb > fa);
        println!(
            "  {:<14} A {:>12}  B {:>12} ratio (any rise is a regression)  -> {}",
            "fail_share",
            show(a, "fail_share"),
            show(b, "fail_share"),
            if rose { "worse" } else { "same" },
        );
        ok &= !rose;
    }
    if compared == 0 {
        return Err("the two sides share no workload".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a catalogue metric")
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let rate = metric("sf_per_s"); // higher is better
        let tight_a = [100.0, 101.0, 99.0, 100.0];
        let scale = |v: &[f64], k: f64| v.iter().map(|x| x * k).collect::<Vec<_>>();
        let b = rate.bound;
        assert_eq!(
            judge(
                rate,
                100.0,
                100.0 * (1.0 - 2.0 * b),
                &tight_a,
                &scale(&tight_a, 1.0 - 2.0 * b)
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                rate,
                100.0,
                100.0 * (1.0 + 2.0 * b),
                &tight_a,
                &scale(&tight_a, 1.0 + 2.0 * b)
            ),
            Verdict::Better
        );
        assert_eq!(
            judge(
                rate,
                100.0,
                100.0 * (1.0 - 0.5 * b),
                &tight_a,
                &scale(&tight_a, 1.0 - 0.5 * b)
            ),
            Verdict::Same
        );
        let lat = metric("lat_p50_us"); // lower is better
        assert_eq!(
            judge(
                lat,
                100.0,
                100.0 * (1.0 + 2.0 * lat.bound),
                &tight_a,
                &tight_a
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_round_wins() {
        let rate = metric("sf_per_s");
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert!(iqr_share(&noisy) > rate.bound);
        // Overlapping rounds: no verdict, whatever the headlines say.
        assert_eq!(
            judge(rate, 100.0, 50.0, &noisy, &[50.0, 70.0, 90.0]),
            Verdict::Unresolved
        );
        // Every round of B above every round of A: a win despite the noise.
        assert_eq!(
            judge(rate, 100.0, 300.0, &noisy, &[150.0, 300.0, 450.0]),
            Verdict::Better
        );
    }
}

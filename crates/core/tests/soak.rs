//! End-to-end determinism of the soak artifacts.
//!
//! Everything in SOAK.json, the SOAK.jsonl stream and the OpenMetrics
//! exposition derives from the seeded DES and bit-exact receiver
//! decodes, so two runs with the same configuration must be
//! byte-identical, and the lines streamed to the window callback must
//! be exactly the SOAK.jsonl artifact. A soak stopped early reports the
//! subframes it ran, not the configured length.

use std::cell::Cell;

use lte_uplink::soak::{run_soak, run_soak_with_stop, SoakConfig};
use lte_uplink::SoakWindow;

#[test]
fn soak_artifacts_are_byte_identical_across_runs() {
    let cfg = SoakConfig {
        chaos: true,
        ..SoakConfig::new(150, 50, 2012)
    };
    let run = || {
        let mut lines = String::new();
        let mut on_window = |_w: &SoakWindow, line: &str| {
            lines.push_str(line);
            lines.push('\n');
        };
        let art = run_soak(&cfg, Some(&mut on_window)).expect("soak runs");
        (art, lines)
    };
    let (a, a_lines) = run();
    let (b, b_lines) = run();

    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.jsonl, b.jsonl, "the snapshot stream must be identical");
    assert_eq!(a_lines, a.jsonl, "streamed lines must match the artifact");
    assert_eq!(a_lines, b_lines);
    assert_eq!(a.openmetrics, b.openmetrics);
}

#[test]
fn stopped_soak_reports_the_subframes_it_ran() {
    // `stop` is polled once per boundary: returning true at the 151st
    // poll leaves 150 subframes dispatched out of the configured 400.
    let polls = Cell::new(0usize);
    let stop = || {
        polls.set(polls.get() + 1);
        polls.get() > 150
    };
    let art = run_soak_with_stop(&SoakConfig::new(400, 100, 2012), None, &stop).expect("soak runs");
    let covered: u64 = art.report.windows.iter().map(|w| w.subframes).sum();
    assert_eq!(covered, 150);
    assert!(
        art.openmetrics.contains("\nsoak_subframes_total 150\n"),
        "{}",
        art.openmetrics
    );
}

//! End-to-end determinism of the soak artifacts.
//!
//! Everything in SOAK.json, the SOAK.jsonl stream and the OpenMetrics
//! exposition derives from the seeded DES and bit-exact receiver
//! decodes, so two runs with the same configuration must be
//! byte-identical, and the lines streamed to the window callback (the
//! SOAK.jsonl artifact) must be the windows SOAK.json reports. A soak
//! stopped early reports the subframes it ran, not the configured
//! length.

use std::cell::Cell;

use lte_uplink::soak::{run_soak, SoakConfig};
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
        let report = run_soak(&cfg, Some(&mut on_window), &|| false).expect("soak runs");
        (report, lines)
    };
    let (a, a_lines) = run();
    let (b, b_lines) = run();

    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a_lines, b_lines, "the snapshot stream must be identical");
    let reported: String = a
        .windows
        .iter()
        .map(|w| w.to_json(a.clock_hz) + "\n")
        .collect();
    assert_eq!(a_lines, reported, "streamed lines must match the report");
    assert_eq!(a.to_openmetrics(), b.to_openmetrics());
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
    let report = run_soak(&SoakConfig::new(400, 100, 2012), None, &stop).expect("soak runs");
    let covered: u64 = report.windows.iter().map(|w| w.subframes).sum();
    assert_eq!(covered, 150);
    let om = report.to_openmetrics();
    assert!(om.contains("\nsoak_subframes_total 150\n"), "{om}");
}

//! End-to-end tests of the `lte-sim` binary.

use std::process::Command;

use lte_uplink::artifacts::ARTIFACTS;

fn lte_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lte-sim"))
}

#[test]
fn fig7_writes_csv() {
    // Zero subframes is accepted here: the trace is empty and too short
    // to judge, so the row writes its header and is not checked.
    for (subframes, lines) in [("200", 1 + 200 / 25), ("0", 1)] {
        let dir = std::env::temp_dir().join(format!("lte_sim_cli_fig7_{subframes}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = lte_sim()
            .args(["fig7", "--subframes", subframes, "--out"])
            .arg(&dir)
            .output()
            .expect("run lte-sim");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read_to_string(dir.join("fig7_users.csv")).expect("csv exists");
        assert!(csv.starts_with("subframe,users\n"));
        assert_eq!(csv.lines().count(), lines);
    }
}

#[test]
fn help_lists_every_command_and_flag() {
    for flag in ["--help", "-h", "help"] {
        let out = lte_sim().arg(flag).output().expect("run lte-sim");
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let rows = ARTIFACTS.iter().map(|row| row.id);
        for cmd in rows.chain([
            "trace",
            "chaos",
            "govern",
            "soak",
            "serve",
            "deploy",
            "fingerprint",
            "vectors",
            "all",
        ]) {
            assert!(
                stdout.contains(cmd),
                "help missing command {cmd}:\n{stdout}"
            );
        }
        for f in [
            "--quick",
            "--subframes",
            "--seed",
            "--out",
            "--perfetto",
            "--metrics",
            "--workers",
            "--window",
            "--traffic",
            "--config",
            "--policy",
            "--chaos",
            "--calibration",
            "--write",
            "--check",
            "--scalar",
            "--golden",
            "--cells",
            "--ues",
            "--coupling-milli",
        ] {
            assert!(stdout.contains(f), "help missing flag {f}:\n{stdout}");
        }
        // `lte-sim perf` and its flags are retired (`baseline` also
        // covers --scaling-baseline and --decode-baseline).
        for gone in ["baseline", "--pin"] {
            assert!(!stdout.contains(gone), "help still lists {gone}");
        }
        for gone in ["perf", "bench", "golden", "concurrency", "ablation"] {
            let entry = format!("    {gone} ");
            assert!(
                !stdout.lines().any(|l| l.starts_with(&entry)),
                "help still lists the {gone} command:\n{stdout}"
            );
        }
    }
    // Gone: `perf` and `bench` (examples/lte_bench measures and, in
    // ramp200, verifies ramp subframes), `golden` (the iv-d row verifies
    // against the serial reference), `concurrency` (trace's
    // `sim.max_concurrent_subframes` reports it) and `ablation` (no paper
    // claim).
    for gone in ["perf", "bench", "golden", "concurrency", "ablation"] {
        let out = lte_sim().arg(gone).output().expect("run lte-sim");
        assert_eq!(out.status.code(), Some(2), "{gone} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command: {gone}")),
            "{stderr}"
        );
    }
}

#[test]
fn parse_errors_exit_status_2() {
    // Unknown command, unknown flag, missing value, non-numeric value:
    // each is a parse error and must exit with status 2 exactly.
    for args in [
        vec!["nonsense"],
        vec!["--bogus"],
        vec!["fig7", "--subframes"],
        vec!["fig7", "--subframes", "many"],
        vec!["fig7", "--seed", "1.5"],
        vec!["serve", "--workers"],
        vec!["serve", "--workers", "x"],
        vec!["serve", "--workers", "0"],
        vec!["serve", "--workers", "2,4"],
        vec!["soak", "--window", "soon"],
        vec!["soak", "--window", "0"],
        vec!["serve", "--window", "0"],
        vec!["serve", "--traffic", "nonsense"],
        vec!["serve", "--config"],
        // 2^32 + 1 would wrap to a coupling of 1 if truncated to u32.
        vec!["deploy", "--coupling-milli", "4294967297"],
        vec!["deploy", "--coupling-milli", "-1"],
        // Every deployment cell is the paper's macro cell.
        vec!["deploy", "--cell-kind", "nbiot"],
        // The power study needs at least one subframe.
        vec!["fig11", "--subframes", "0"],
        vec!["fig16", "--quick", "--subframes", "0"],
        vec!["table1", "--subframes", "0"],
        vec!["table2", "--subframes", "0", "--quick"],
        vec!["diurnal", "--subframes", "0"],
        vec!["all", "--subframes", "0"],
    ] {
        let out = lte_sim().args(&args).output().expect("run lte-sim");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
    }
}

#[test]
fn trace_writes_perfetto_and_metrics() {
    let dir = std::env::temp_dir().join("lte_sim_cli_trace");
    let _ = std::fs::remove_dir_all(&dir);
    let perfetto = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    let out = lte_sim()
        .args(["trace", "--quick", "--subframes", "40", "--perfetto"])
        .arg(&perfetto)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("run lte-sim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&perfetto).expect("perfetto file exists");
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"core 0\""), "per-core tracks named");
    assert!(
        trace.contains("\"receiver stages\""),
        "PHY stage track named"
    );
    let snapshot = std::fs::read_to_string(&metrics).expect("metrics file exists");
    for key in [
        "sim.activity",
        "sim.stage.estimation.cycles",
        "sim.stage.total_cycles",
        "sim.core.0.steals",
        "sim.core.0.tasks",
        "pool.worker.0.executed_tasks",
        "power.mean_watts",
    ] {
        assert!(snapshot.contains(key), "metrics missing {key}:\n{snapshot}");
    }
}

#[test]
fn perf_and_its_flags_are_gone() {
    // Performance is measured by examples/lte_bench alone: each flag
    // only `lte-sim perf` understood is unknown on a live command.
    for args in [
        vec!["fingerprint", "--baseline", "x.json"],
        vec!["fingerprint", "--scaling-baseline", "x.json"],
        vec!["fingerprint", "--decode-baseline", "x.json"],
        vec!["fingerprint", "--pin"],
    ] {
        let out = lte_sim().args(&args).output().expect("run lte-sim");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag: {}", args[1])),
            "args {args:?}: {stderr}"
        );
    }
}

#[test]
fn fingerprint_prints_one_stable_line() {
    let run = || {
        let out = lte_sim()
            .args(["fingerprint", "--seed", "7", "--subframes", "4"])
            .output()
            .expect("run lte-sim");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = run();
    assert!(
        a.starts_with("lte-sim-fingerprint-v2 seed=7 subframes=4 "),
        "unexpected fingerprint line: {a}"
    );
    assert!(a.contains(" hash="));
    assert_eq!(a.lines().count(), 1);
    assert_eq!(a, run(), "the fingerprint is stable across processes");
}

#[test]
fn serve_writes_artifacts_and_drains_clean() {
    let dir = std::env::temp_dir().join("lte_sim_cli_serve");
    let _ = std::fs::remove_dir_all(&dir);
    let out = lte_sim()
        .args([
            "serve",
            "--subframes",
            "80",
            "--traffic",
            "voip",
            "--workers",
            "2",
            "--window",
            "40",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("run lte-sim");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("serve campaign-complete:"), "{stdout}");
    assert!(stdout.contains("verified byte-identical"), "{stdout}");
    let json = std::fs::read_to_string(dir.join("SERVE.json")).expect("SERVE.json exists");
    assert!(json.starts_with("{\"schema\":\"lte-sim-serve-v1\""));
    let om = std::fs::read_to_string(dir.join("SERVE.om")).expect("SERVE.om exists");
    assert!(om.contains("serve_admitted"));
    assert!(om.ends_with("# EOF\n"));
}

#[test]
#[cfg(unix)]
fn serve_drains_on_sigterm_with_complete_artifacts_and_exit_3() {
    let dir = std::env::temp_dir().join("lte_sim_cli_serve_sigterm");
    let _ = std::fs::remove_dir_all(&dir);
    // An unbounded campaign (--subframes 0 runs until drained): the
    // signal is the only way it ends.
    let mut child = lte_sim()
        .args(["serve", "--subframes", "0", "--traffic", "voip", "--out"])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn lte-sim serve");
    // Give it time to install handlers and serve a few ticks.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let status = child.wait().expect("serve exits");
    assert_eq!(
        status.code(),
        Some(3),
        "a signal-drained serve exits with the interrupted status"
    );
    let json = std::fs::read_to_string(dir.join("SERVE.json")).expect("SERVE.json flushed");
    assert!(json.starts_with("{\"schema\":\"lte-sim-serve-v1\""));
    assert!(
        json.contains("\"drain_reason\":\"drain-requested\""),
        "the report records the signal-requested drain"
    );
    let om = std::fs::read_to_string(dir.join("SERVE.om")).expect("SERVE.om flushed");
    assert!(om.ends_with("# EOF\n"), "the exposition is complete");
}

#[test]
fn iv_d_verifies_the_pool_against_the_serial_reference() {
    let dir = std::env::temp_dir().join("lte_sim_cli_iv_d");
    let _ = std::fs::remove_dir_all(&dir);
    let out = lte_sim()
        .args(["iv-d", "--out"])
        .arg(&dir)
        .output()
        .expect("run lte-sim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("iv-d (§IV-D): ok — ") && stdout.contains("bit-exact"),
        "{stdout}"
    );
    assert!(!dir.exists(), "iv-d writes no file");
}

#[test]
fn quick_is_the_base_that_seed_and_subframes_overlay() {
    let fig7 = |tag: &str, args: &[&str]| {
        let dir = std::env::temp_dir().join(format!("lte_sim_cli_overlay_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = lte_sim()
            .args(args)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("run lte-sim");
        assert!(out.status.success(), "{args:?}");
        std::fs::read(dir.join("fig7_users.csv")).expect("csv exists")
    };
    let before = fig7(
        "before",
        &["fig7", "--seed", "7", "--subframes", "400", "--quick"],
    );
    let after = fig7(
        "after",
        &["fig7", "--quick", "--subframes", "400", "--seed", "7"],
    );
    let default_seed = fig7("default", &["fig7", "--quick", "--subframes", "400"]);
    assert_eq!(
        before, after,
        "--quick must not discard --seed or --subframes"
    );
    assert_ne!(before, default_seed, "--seed 7 must change the trace");
    assert_eq!(
        String::from_utf8_lossy(&before).lines().count(),
        1 + 400 / 25
    );
}

#[test]
fn all_quick_writes_every_file_once_and_judges_every_row() {
    let dir = std::env::temp_dir().join("lte_sim_cli_all_quick");
    let _ = std::fs::remove_dir_all(&dir);
    let out = lte_sim()
        .args(["all", "--quick", "--subframes", "400", "--out"])
        .arg(&dir)
        .output()
        .expect("run lte-sim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(std::fs::read_dir(&dir).expect("out dir").count(), 13);
    for row in &ARTIFACTS {
        let verdict = if row.needs > 400 {
            "not checked: needs 68 000 subframes"
        } else {
            "ok — "
        };
        let line = format!("{} ({}): {verdict}", row.id, row.paper);
        assert!(stdout.contains(&line), "missing '{line}' in:\n{stdout}");
    }
    for technique in ["NONAP", "IDLE", "NAP", "NAP+IDLE", "PowerGating"] {
        assert!(stdout.contains(technique), "{technique}: {stdout}");
    }
}

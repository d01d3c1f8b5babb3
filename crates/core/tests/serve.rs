//! End-to-end tests of the serve subsystem: overload escalation
//! ordering under a seeded burst flood, byte-identity across worker
//! counts, graceful drain, hot reload, worker-crash recovery and the
//! forced watchdog restart — every drill the ingest service must
//! survive without losing or corrupting admitted work.

use std::sync::Arc;
use std::time::Duration;

use lte_fault::IngestFaults;
use lte_obs::SloViolation;
use lte_uplink::serve::{
    run_serve, DrainReason, ServeConfig, ServeControl, ServeOutcome, ServeParams, TrafficModel,
};

fn run(cfg: &ServeConfig) -> ServeOutcome {
    run_serve(cfg, &ServeControl::new()).expect("serve campaign runs")
}

/// A cheap quiet campaign: small VoIP-like subframes, two workers.
fn voip_cfg(ticks: u64, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(ticks, seed);
    cfg.workers = 2;
    cfg.params.traffic = TrafficModel::Voip;
    cfg
}

/// The seeded flood campaign: the smoke fault plan (an arrival stall,
/// then a 2x flood for 40 ticks) against a 1.5/tick token bucket. The
/// statements about it concern admission control, so the serial golden
/// rebuild is skipped to keep it cheap.
fn flood_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(140, 11);
    cfg.workers = 2;
    cfg.faults = Some(IngestFaults::smoke(11));
    cfg.verify = false;
    cfg
}

#[test]
fn escalation_tiers_engage_in_order_under_burst_flood() {
    // The queue grows ~0.5 subframes per tick until the reject
    // watermark opens an overload episode, which escalates to shedding
    // as it persists.
    let out = run(&flood_cfg());

    let [reject, shed] = out.first_tier_tick;
    let reject = reject.expect("reject tier engaged");
    let shed = shed.expect("shed tier engaged");
    assert!(
        reject < shed,
        "tiers must engage in order: reject @{reject} < shed @{shed}"
    );
    assert!(out.episodes >= 1, "the flood opens an overload episode");

    let s = &out.snapshot;
    assert!(s.rejected_backpressure > 0, "rejects counted");
    assert!(s.shed_users > 0, "shed users counted");
    assert_eq!(s.degraded_subframes, 0, "nothing degrades");
    assert!(s.rejected_malformed > 0, "malformed arrivals refused");
    assert!(
        s.deadline_misses > 0,
        "the backlog produces queue-wait misses"
    );
    assert!(s.balanced(), "work conserved: {s:?}");
    assert!(
        out.windows.iter().any(|w| w.chaos_active),
        "chaos windows are annotated"
    );
    assert!(
        out.windows.iter().any(|w| !w.chaos_active),
        "the tail window is calm"
    );
}

#[test]
fn shed_rate_divides_by_the_users_offered() {
    // One SLO window over every tick: its shed rate is the share of the
    // offered users (decoded or shed) that were shed.
    let mut cfg = flood_cfg();
    cfg.window = cfg.ticks;
    let out = run(&cfg);
    assert_eq!(out.windows.len(), 1);
    let shed = out.snapshot.shed_users;
    assert!(shed > 0, "the flood sheds");
    let observed = out.windows[0]
        .verdict
        .violations
        .iter()
        .find_map(|v| match v {
            SloViolation::ShedRate { observed, .. } => Some(*observed),
            _ => None,
        })
        .expect("shedding breaks the 1 % shed budget");
    assert_eq!(
        observed,
        shed as f64 / (out.jobs_completed + shed) as f64,
        "shed rate must be a fraction of the offered users"
    );
}

#[test]
fn admitted_subframes_are_byte_identical_at_every_worker_count() {
    // Arrivals, admission, escalation and shedding are pure functions
    // of (seed, tick, queue depth): campaigns at 1, 2 and 4 workers
    // must admit the same subframes and decode them to the same bytes.
    let outcomes: Vec<ServeOutcome> = [1usize, 2, 4]
        .iter()
        .map(|&workers| {
            let mut cfg = ServeConfig::new(64, 7);
            cfg.workers = workers;
            cfg.params.traffic = TrafficModel::BurstyIot;
            run(&cfg)
        })
        .collect();
    for out in &outcomes {
        assert!(out.verified, "golden verification ran");
        assert!(
            out.verify_error.is_none(),
            "bytes match the serial reference: {:?}",
            out.verify_error
        );
        assert!(
            out.snapshot.balanced(),
            "work conserved: {:?}",
            out.snapshot
        );
    }
    let first = &outcomes[0];
    for out in &outcomes[1..] {
        assert_eq!(out.fingerprint, first.fingerprint, "fingerprints match");
        assert_eq!(out.snapshot.arrivals, first.snapshot.arrivals);
        assert_eq!(out.snapshot.admitted, first.snapshot.admitted);
        assert_eq!(
            out.snapshot.rejected_rate_limited,
            first.snapshot.rejected_rate_limited
        );
        assert_eq!(out.snapshot.deadline_misses, first.snapshot.deadline_misses);
        assert_eq!(out.snapshot.shed_users, first.snapshot.shed_users);
    }
}

#[test]
fn requested_drain_finishes_in_flight_and_flushes_complete_artifacts() {
    // An unbounded paced campaign, drained from the outside exactly as
    // the CLI drains on SIGINT/SIGTERM.
    let mut cfg = voip_cfg(0, 3);
    cfg.delta = Duration::from_millis(1);
    let control = Arc::new(ServeControl::new());
    let trigger = Arc::clone(&control);
    let t = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        trigger.request_drain();
    });
    let out = run_serve(&cfg, &control).expect("serve campaign runs");
    t.join().unwrap();

    assert_eq!(out.drain_reason, DrainReason::Requested);
    assert!(
        out.snapshot.balanced(),
        "work conserved: {:?}",
        out.snapshot
    );
    assert_eq!(
        out.snapshot.admitted,
        out.snapshot.completed_subframes + out.snapshot.drain_shed_subframes,
        "every admitted subframe either completed or was drain-shed"
    );
    let last = out.lifecycle.last().expect("lifecycle recorded");
    assert_eq!(last.state, "drained");
    assert!(
        out.lifecycle.iter().any(|e| e.state == "draining"),
        "drain transition recorded"
    );
    // The artifacts are complete: the JSON report carries the
    // fingerprint of everything that was decoded.
    assert!(out.json.starts_with("{\"schema\":\"lte-sim-serve-v1\""));
    assert!(out.json.contains(&format!("{:016x}", out.fingerprint)));
    assert!(out.openmetrics.contains("serve_completed_subframes"));
}

#[test]
fn hot_reload_applies_at_a_tick_boundary_without_dropping_work() {
    let mut cfg = ServeConfig::new(48, 9);
    cfg.workers = 2;
    cfg.params.traffic = TrafficModel::BurstyIot;
    let after = ServeParams {
        traffic: TrafficModel::Voip,
        ..ServeParams::default()
    };
    cfg.reload_at = Some((16, after));
    let out = run(&cfg);

    assert_eq!(out.snapshot.reloads, 1, "exactly one reload applied");
    assert!(
        out.lifecycle
            .iter()
            .any(|e| e.state == "reload" && e.tick == 16),
        "reload recorded at its boundary: {:?}",
        out.lifecycle
    );
    assert!(
        out.snapshot.balanced(),
        "no work dropped: {:?}",
        out.snapshot
    );
    assert!(out.verified && out.verify_error.is_none());

    // Reloads stay deterministic: the same campaign replays to the
    // same bytes.
    let again = run(&cfg);
    assert_eq!(again.fingerprint, out.fingerprint);
}

#[test]
fn worker_kill_and_forced_restart_preserve_byte_identity() {
    let baseline = run(&voip_cfg(40, 5));
    assert!(baseline.verified && baseline.verify_error.is_none());

    // Self-healing drill: one worker dies mid-campaign; supervision
    // respawns it and the decoded bytes do not change.
    let mut kill = voip_cfg(40, 5);
    kill.kill_worker_at = Some(8);
    let killed = run(&kill);
    assert!(killed.worker_respawns >= 1, "the pool respawned the worker");
    assert!(killed.verified && killed.verify_error.is_none());
    assert_eq!(killed.fingerprint, baseline.fingerprint);
    assert!(killed.snapshot.balanced());

    // Watchdog drill: a forced bounded restart of the receive path is
    // recorded in the lifecycle and also leaves the bytes untouched.
    let mut restart = voip_cfg(40, 5);
    restart.force_restart_at = Some(12);
    let restarted = run(&restart);
    assert_eq!(restarted.snapshot.watchdog_restarts, 1);
    assert!(
        restarted
            .lifecycle
            .iter()
            .any(|e| e.state == "watchdog-restart"),
        "restart recorded: {:?}",
        restarted.lifecycle
    );
    assert!(restarted.verified && restarted.verify_error.is_none());
    assert_eq!(restarted.fingerprint, baseline.fingerprint);
    assert!(restarted.snapshot.balanced());
}

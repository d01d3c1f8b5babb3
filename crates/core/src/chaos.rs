//! The `chaos` command: a deterministic fault-injection campaign.
//!
//! Three sub-campaigns run against one seeded [`FaultPlan`] and share a
//! single event recorder, so one Perfetto trace and one metrics snapshot
//! describe the whole exercise:
//!
//! 1. **DES chaos** — the tile simulator runs the evaluation ramp with a
//!    fail-stopped core, a slow core, seeded task panics and a subframe
//!    deadline budget, exercising orphan adoption, retry-after-panic and
//!    shedding the cheapest users on overload.
//! 2. **Pool conservation** — the real work-stealing pool executes a
//!    known task population while the plan injects task panics and
//!    worker kills; every task must run exactly once and every killed
//!    worker must respawn.
//! 3. **Link faults** — a small uplink user population is received
//!    while the plan injects deep noise bursts and resource-grid
//!    corruption; a bursted block must fail its CRC, and a corrupted
//!    grid must decode or fail without a panic.
//!
//! Everything exported is derived from the seeded plan or from simulated
//! time — never from wall-clock measurements — so two runs with the same
//! seed produce byte-identical artefacts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lte_dsp::{Complex32, Modulation, Xoshiro256};
use lte_fault::FaultPlan;
use lte_obs::{Event, FaultKind, MetricsRegistry, PerfettoExporter, Recorder, RingRecorder};
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::process_user;
use lte_phy::tx::synthesize_user;
use lte_power::NapPolicy;
use lte_sched::sim::{SimReport, Simulator};
use lte_sched::{silence_injected_panics, InjectedPanic, PoolError, TaskPool};

use crate::experiments::ExperimentContext;

/// Cap on the DES campaign length: chaos is a robustness exercise, not a
/// power study, and 400 subframes cover the full load ramp.
pub const CHAOS_SUBFRAME_CAP: usize = 400;

/// Workers in the real-pool conservation campaign. Small on purpose:
/// two injected kills against four workers take half the pool down over
/// the campaign, which is the interesting regime.
const POOL_WORKERS: usize = 4;
/// Subframes driven through the real pool.
const POOL_SUBFRAMES: usize = 64;
/// Jobs per pool subframe, each one root task spawned by the coordinator.
const POOL_JOBS: usize = 4;
/// Tasks each pool job's root task spawns.
const POOL_TASKS: usize = 8;
/// Subframes in the link-level campaign.
const LINK_SUBFRAMES: usize = 40;
/// Users received per link subframe.
const LINK_USERS: usize = 2;
/// SNR (dB) of un-bursted transmissions.
const LINK_NOMINAL_SNR_DB: f64 = 10.0;

/// Deterministic counters from all three campaigns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// DES: subframes finishing past the deadline budget.
    pub overruns: u64,
    /// DES: user jobs shed on overload.
    pub shed_jobs: u64,
    /// DES: tasks that hit a seeded panic and were retried.
    pub sim_poisoned_tasks: u64,
    /// DES: jobs adopted by survivors after their owner fail-stopped.
    pub adopted_jobs: u64,
    /// Pool: tasks the plan dispatched.
    pub pool_tasks_expected: u64,
    /// Pool: tasks that actually started (== expected when healthy).
    pub pool_tasks_run: u64,
    /// Pool: tasks that never ran (`expected - run`, floored at 0).
    pub lost_tasks: u64,
    /// Pool: tasks that ran more than once (`run - expected`, floored).
    pub duplicated_tasks: u64,
    /// Pool: seeded task panics injected.
    pub task_panics: u64,
    /// Pool: worker kills injected.
    pub kills_injected: u64,
    /// Pool: workers respawned by the supervisor.
    pub worker_respawns: u64,
    /// Link: transport blocks received.
    pub link_blocks: u64,
    /// Link: deep noise bursts injected.
    pub noise_bursts: u64,
    /// Link: resource-grid corruption events injected.
    pub grid_corruptions: u64,
    /// Link: blocks delivered with a passing CRC.
    pub delivered_ok: u64,
}

impl ChaosSummary {
    /// True when no task was lost or double-run anywhere.
    pub fn conserved(&self) -> bool {
        self.lost_tasks == 0 && self.duplicated_tasks == 0
    }
}

/// Everything the `chaos` command produces.
pub struct ChaosArtifacts {
    /// Chrome/Perfetto trace-event JSON including every fault instant.
    pub perfetto_json: String,
    /// Flat metrics snapshot (sorted-key JSON object).
    pub metrics_json: String,
    /// The deterministic campaign counters.
    pub summary: ChaosSummary,
    /// DES subframes actually simulated.
    pub subframes: usize,
}

/// Runs the three chaos campaigns under one seeded plan and exports the
/// shared trace and metrics artefacts.
pub fn run_chaos(ctx: &ExperimentContext) -> Result<ChaosArtifacts, PoolError> {
    // The smoke plan's -2 dB bursts are survivable for well-conditioned
    // antenna configurations; chaos wants every burst to fail its block,
    // so bursts go deeper here.
    let plan = FaultPlan {
        burst_snr_db: -12.0,
        ..FaultPlan::smoke(ctx.seed)
    };
    let n = ctx.n_subframes.min(CHAOS_SUBFRAME_CAP);
    let cfg = ctx.sim_config(NapPolicy::NapIdle);
    let capacity = (n * cfg.n_workers * 64).clamp(1024, 4_000_000);
    let recorder = RingRecorder::new(capacity);

    let report = run_des_campaign(ctx, &plan, n, &recorder);
    let mut summary = ChaosSummary {
        overruns: report.overruns,
        shed_jobs: report.shed_jobs,
        sim_poisoned_tasks: report.poisoned_tasks,
        adopted_jobs: report.adopted_jobs,
        ..ChaosSummary::default()
    };
    run_pool_campaign(&plan, &mut summary, &recorder, report.end_time)?;
    run_link_campaign(ctx, &plan, &mut summary, &recorder, cfg.dispatch_period);

    let metrics = MetricsRegistry::new();
    fill_chaos_metrics(&metrics, &summary, n);
    metrics.set_gauge(
        "chaos.power.mean_watts",
        lte_power::PowerModel::mean(&ctx.power.power_trace(&report.buckets, &cfg)),
    );
    let perfetto_json =
        PerfettoExporter::new(cfg.clock_hz).export(&recorder.events(), cfg.n_workers);
    Ok(ChaosArtifacts {
        perfetto_json,
        metrics_json: metrics.to_json(),
        summary,
        subframes: n,
    })
}

/// Campaign 1: the DES under dead/slow cores, seeded panics and a
/// one-dispatch-period deadline budget (tight enough that the load
/// ramp's peak genuinely overruns).
fn run_des_campaign(
    ctx: &ExperimentContext,
    plan: &FaultPlan,
    n: usize,
    recorder: &RingRecorder,
) -> SimReport {
    let cfg = ctx.sim_config(NapPolicy::NapIdle);
    let subframes = &ctx.subframes()[..n];
    let targets = vec![cfg.n_workers; n];
    let loads = ctx.loads(subframes, &targets);
    Simulator::with_recorder(cfg, recorder)
        .with_deadline(cfg.dispatch_period)
        .with_chaos(plan.clone())
        .run(&loads)
}

/// Campaign 2: conservation on the real pool. Every task increments a
/// shared counter before (possibly) panicking, so `run == expected`
/// proves nothing was lost and nothing ran twice — through seeded task
/// panics and worker kills alike.
fn run_pool_campaign(
    plan: &FaultPlan,
    summary: &mut ChaosSummary,
    recorder: &RingRecorder,
    t_base: u64,
) -> Result<(), PoolError> {
    silence_injected_panics();
    let pool = TaskPool::new(POOL_WORKERS)?;
    let started = Arc::new(AtomicU64::new(0));
    let mut ordinal = 0u64;
    for sf in 0..POOL_SUBFRAMES {
        if let Some(worker) = plan.worker_kill_at(sf, POOL_SUBFRAMES, POOL_WORKERS) {
            pool.inject_worker_kill();
            summary.kills_injected += 1;
            recorder.record(Event::Fault {
                kind: FaultKind::CoreDeath,
                core: worker as u32,
                subframe: sf as u32,
                t: t_base + ordinal,
            });
            ordinal += 1;
        }
        for job in 0..POOL_JOBS {
            // Bookkeeping on the dispatch thread keeps the recorded
            // event order deterministic; the draws inside the tasks see
            // the exact same plan stream.
            for task in 0..POOL_TASKS {
                if plan.task_panics(sf, job * POOL_TASKS + task) {
                    summary.task_panics += 1;
                    recorder.record(Event::Fault {
                        kind: FaultKind::TaskPanic,
                        core: u32::MAX,
                        subframe: sf as u32,
                        t: t_base + ordinal,
                    });
                    ordinal += 1;
                }
            }
            // The job's root task enters the global queue; on its worker
            // it spawns the job's tasks onto that worker's deque, where
            // the other workers can steal them.
            let started = Arc::clone(&started);
            let plan = plan.clone();
            let handle = pool.handle();
            pool.spawn(move || {
                for task in 0..POOL_TASKS {
                    let started = Arc::clone(&started);
                    let panics = plan.task_panics(sf, job * POOL_TASKS + task);
                    handle.spawn(move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        if panics {
                            std::panic::panic_any(InjectedPanic);
                        }
                    });
                }
            });
        }
        pool.wait_all();
    }
    // `wait_all` covered the kill tasks themselves; the supervisor counts
    // each respawn a moment after its kill is released, so give it a
    // bounded window.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.worker_respawns() < summary.kills_injected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    summary.worker_respawns = pool.worker_respawns();
    for _ in 0..summary.worker_respawns {
        recorder.record(Event::Fault {
            kind: FaultKind::WorkerRespawn,
            core: u32::MAX,
            subframe: u32::MAX,
            t: t_base + ordinal,
        });
        ordinal += 1;
    }
    summary.pool_tasks_expected = (POOL_SUBFRAMES * POOL_JOBS * POOL_TASKS) as u64;
    summary.pool_tasks_run = started.load(Ordering::SeqCst);
    summary.lost_tasks = summary
        .pool_tasks_expected
        .saturating_sub(summary.pool_tasks_run);
    summary.duplicated_tasks = summary
        .pool_tasks_run
        .saturating_sub(summary.pool_tasks_expected);
    Ok(())
}

/// Campaign 3: link-level faults. Bursted transmissions arrive at the
/// plan's deep-fade SNR and corrupted grids lose cells to garbage; each
/// block is decoded once.
fn run_link_campaign(
    ctx: &ExperimentContext,
    plan: &FaultPlan,
    summary: &mut ChaosSummary,
    recorder: &RingRecorder,
    dispatch_period: u64,
) {
    let cell = CellConfig::with_antennas(ctx.n_rx);
    let user = UserConfig::new(6, 1, Modulation::Qpsk);
    for sf in 0..LINK_SUBFRAMES {
        for u in 0..LINK_USERS {
            let t = sf as u64 * dispatch_period + u as u64;
            let mut rng = Xoshiro256::seed_from_u64(link_seed(ctx.seed, sf, u));
            let bursted = plan.noise_burst(sf, u);
            let snr = if bursted {
                summary.noise_bursts += 1;
                recorder.record(Event::Fault {
                    kind: FaultKind::NoiseBurst,
                    core: u32::MAX,
                    subframe: sf as u32,
                    t,
                });
                f64::from(plan.burst_snr_db)
            } else {
                LINK_NOMINAL_SNR_DB
            };
            let mut input = synthesize_user(&cell, &user, snr, &mut rng);
            if plan.grid_corruption(sf, u) {
                summary.grid_corruptions += 1;
                corrupt_grid(&mut input, &cell, plan, sf, u);
                recorder.record(Event::Fault {
                    kind: FaultKind::GridCorruption,
                    core: u32::MAX,
                    subframe: sf as u32,
                    t,
                });
            }
            summary.link_blocks += 1;
            if process_user(&cell, &input, TurboMode::Passthrough).crc_ok {
                summary.delivered_ok += 1;
            }
        }
    }
}

/// Overwrites `corrupt_cells` resource-grid cells with large garbage
/// values, positions and values drawn from the plan's per-index stream.
fn corrupt_grid(
    input: &mut lte_phy::grid::UserInput,
    cell: &CellConfig,
    plan: &FaultPlan,
    sf: usize,
    u: usize,
) {
    let mut rng = plan.corruption_rng(sf, u);
    for _ in 0..plan.corrupt_cells {
        let slot = rng.next_below(input.slots.len() as u64) as usize;
        let sym = rng.next_below(input.slots[slot].data.len() as u64) as usize;
        let rx = rng.next_below(cell.n_rx as u64) as usize;
        let lane = input.slots[slot].data[sym].antenna_mut(rx);
        let idx = rng.next_below(lane.len() as u64) as usize;
        lane[idx] = Complex32::new(8.0 * (rng.next_f32() - 0.5), 8.0 * (rng.next_f32() - 0.5));
    }
}

/// A per-(subframe, user) seed for the link campaign: SplitMix64-style
/// avalanche so draw order can never matter.
fn link_seed(seed: u64, sf: usize, u: usize) -> u64 {
    let mut z = seed
        ^ (sf as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes the campaign counters into the metrics snapshot.
fn fill_chaos_metrics(metrics: &MetricsRegistry, s: &ChaosSummary, n: usize) {
    metrics.set_counter("chaos.sim.subframes", n as u64);
    metrics.set_counter("chaos.sim.overruns", s.overruns);
    metrics.set_counter("chaos.sim.shed_jobs", s.shed_jobs);
    metrics.set_counter("chaos.sim.poisoned_tasks", s.sim_poisoned_tasks);
    metrics.set_counter("chaos.sim.adopted_jobs", s.adopted_jobs);
    metrics.set_counter("chaos.pool.tasks_expected", s.pool_tasks_expected);
    metrics.set_counter("chaos.pool.tasks_run", s.pool_tasks_run);
    metrics.set_counter("chaos.pool.lost_tasks", s.lost_tasks);
    metrics.set_counter("chaos.pool.duplicated_tasks", s.duplicated_tasks);
    metrics.set_counter("chaos.pool.task_panics", s.task_panics);
    metrics.set_counter("chaos.pool.kills_injected", s.kills_injected);
    metrics.set_counter("chaos.pool.worker_respawns", s.worker_respawns);
    metrics.set_counter("chaos.link.blocks", s.link_blocks);
    metrics.set_counter("chaos.link.noise_bursts", s.noise_bursts);
    metrics.set_counter("chaos.link.grid_corruptions", s.grid_corruptions);
    metrics.set_counter("chaos.link.delivered_ok", s.delivered_ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> ExperimentContext {
        ExperimentContext {
            n_subframes: 120,
            ..ExperimentContext::quick()
        }
    }

    #[test]
    fn chaos_campaign_conserves_tasks_and_fails_exactly_the_bursts() {
        let art = run_chaos(&quick_ctx()).expect("pool spawns");
        let s = &art.summary;
        assert!(
            s.conserved(),
            "lost {} dup {}",
            s.lost_tasks,
            s.duplicated_tasks
        );
        assert_eq!(s.worker_respawns, s.kills_injected);
        assert!(s.task_panics > 0, "the smoke plan must inject panics");
        assert!(s.noise_bursts > 0, "the smoke plan must burst");
        assert_eq!(s.link_blocks, (LINK_SUBFRAMES * LINK_USERS) as u64);
        // Every burst fails its block; every other block, corrupted or
        // not, decodes.
        assert_eq!(s.delivered_ok + s.noise_bursts, s.link_blocks);
        assert!(s.delivered_ok < s.link_blocks);
        assert!(!art.metrics_json.is_empty() && !art.perfetto_json.is_empty());
    }
}

//! Behavioural tests of the engine, carried over from the pre-split
//! `sim.rs` with `NapPolicy` call sites rewritten onto [`NapMode`].

pub use super::*;
pub use crate::cycles::SimJob;
pub use lte_fault::FaultPlan;
pub use lte_obs::FaultKind;

#[cfg(test)]
mod engine_tests {
    use super::*;

    fn small_cfg(policy: NapMode) -> SimConfig {
        SimConfig {
            n_workers: 8,
            dispatch_period: 100_000,
            steal_latency: 100,
            task_overhead: 50,
            wake_period: 20_000,
            clock_hz: 700.0e6,
            nap: policy,
        }
    }

    fn job(units: u64) -> SimJob {
        SimJob {
            est_tasks: vec![units; 4],
            weights_cost: units / 2,
            combine_tasks: vec![units; 8],
            finish_cost: units,
        }
    }

    fn loads(n: usize, units: u64, target: usize) -> Vec<SubframeLoad> {
        (0..n)
            .map(|_| SubframeLoad {
                jobs: vec![job(units)],
                active_target: target,
            })
            .collect()
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        for policy in NapMode::ALL {
            let report = Simulator::new(small_cfg(policy)).run(&loads(10, 3_000, 4));
            assert_eq!(report.jobs_total, 10, "{policy}");
            assert_eq!(report.job_latencies.len(), 10, "{policy}");
        }
    }

    #[test]
    fn latency_percentile_bounds_are_min_and_max() {
        let report = Simulator::new(small_cfg(NapMode::NONE)).run(&loads(10, 3_000, 8));
        let min = *report.job_latencies.iter().min().unwrap();
        let max = *report.job_latencies.iter().max().unwrap();
        assert_eq!(report.latency_percentile(0), min);
        assert_eq!(report.latency_percentile(100), max);
        // Out-of-range percentiles clamp to the maximum, never panic.
        assert_eq!(report.latency_percentile(1000), max);
        let p50 = report.latency_percentile(50);
        assert!((min..=max).contains(&p50));
    }

    #[test]
    fn empty_run_has_zero_latency_percentiles() {
        let report = Simulator::new(small_cfg(NapMode::NONE)).run(&[]);
        assert_eq!(report.jobs_total, 0);
        for p in [0, 50, 100] {
            assert_eq!(report.latency_percentile(p), 0, "p{p} of an empty run");
        }
    }

    #[test]
    fn busy_cycles_equal_work_plus_overhead() {
        // Conservation: total busy time must equal the sum of all task
        // costs plus per-task overheads and steal latencies.
        let cfg = small_cfg(NapMode::NONE);
        let subframes = loads(5, 2_000, 8);
        let report = Simulator::new(cfg).run(&subframes);
        let busy: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
        let work: u64 = subframes
            .iter()
            .flat_map(|s| &s.jobs)
            .map(|j| j.total_cycles())
            .sum();
        let tasks_per_job = 4 + 1 + 8 + 1;
        let min = work + 5 * tasks_per_job * cfg.task_overhead;
        let max = min + 5 * tasks_per_job * cfg.steal_latency;
        assert!(
            (min..=max).contains(&busy),
            "busy {busy} outside [{min}, {max}]"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Simulator::new(small_cfg(NapMode::NAP_IDLE)).run(&loads(20, 1_500, 3));
        let b = Simulator::new(small_cfg(NapMode::NAP_IDLE)).run(&loads(20, 1_500, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn nonap_never_naps() {
        let report = Simulator::new(small_cfg(NapMode::NONE)).run(&loads(5, 1_000, 2));
        let naps: u64 = report.buckets.iter().map(|b| b.nap_cycles).sum();
        assert_eq!(naps, 0);
        let pulses: u64 = report.buckets.iter().map(|b| b.wake_pulses).sum();
        assert_eq!(pulses, 0);
    }

    #[test]
    fn idle_policy_naps_idle_cores() {
        let report = Simulator::new(small_cfg(NapMode::IDLE)).run(&loads(5, 1_000, 8));
        let naps: u64 = report.buckets.iter().map(|b| b.nap_cycles).sum();
        assert!(naps > 0, "reactive policy must nap idle cores");
        let pulses: u64 = report.buckets.iter().map(|b| b.wake_pulses).sum();
        assert!(pulses > 0, "napping cores must wake periodically");
    }

    #[test]
    fn nap_policy_reduces_spin_relative_to_nonap() {
        // With a low active target, proactive napping converts spin
        // cycles into nap cycles.
        let spin_of = |policy| {
            let r = Simulator::new(small_cfg(policy)).run(&loads(20, 1_000, 2));
            r.buckets.iter().map(|b| b.spin_cycles).sum::<u64>()
        };
        let nonap = spin_of(NapMode::NONE);
        let nap = spin_of(NapMode::NAP);
        assert!(nap < nonap, "NAP spin {nap} !< NONAP spin {nonap}");
    }

    #[test]
    fn low_target_increases_latency() {
        // Throttling to 2 cores must slow jobs down vs 8 cores.
        let latency_of = |target| {
            let r = Simulator::new(small_cfg(NapMode::NAP)).run(&loads(10, 5_000, target));
            *r.job_latencies.iter().max().unwrap()
        };
        assert!(latency_of(2) > latency_of(8));
    }

    #[test]
    fn conservation_under_stealing_with_many_workers() {
        // Many small jobs per subframe: work must still be conserved.
        let cfg = SimConfig {
            n_workers: 16,
            ..small_cfg(NapMode::NONE)
        };
        let subframes: Vec<SubframeLoad> = (0..10)
            .map(|_| SubframeLoad {
                jobs: vec![job(500); 4],
                active_target: 16,
            })
            .collect();
        let report = Simulator::new(cfg).run(&subframes);
        assert_eq!(report.jobs_total, 40);
        let busy: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
        let work: u64 = subframes
            .iter()
            .flat_map(|s| &s.jobs)
            .map(|j| j.total_cycles())
            .sum();
        assert!(busy >= work, "busy {busy} < work {work}");
    }

    #[test]
    fn occupancy_accounts_for_all_core_time() {
        // busy + spin + nap over all buckets should equal workers ×
        // end_time (within the final partial bucket's slack).
        let cfg = small_cfg(NapMode::NAP_IDLE);
        let report = Simulator::new(cfg).run(&loads(10, 2_000, 4));
        let accounted: u64 = report
            .buckets
            .iter()
            .map(|b| b.busy_cycles + b.spin_cycles + b.nap_cycles)
            .sum();
        let total = cfg.n_workers as u64 * report.end_time;
        let diff = (accounted as i64 - total as i64).unsigned_abs();
        assert!(
            diff <= total / 100,
            "accounted {accounted} vs total {total}"
        );
    }

    #[test]
    fn activity_reflects_load() {
        let cfg = small_cfg(NapMode::NONE);
        let light = Simulator::new(cfg).run(&loads(10, 500, 8));
        let heavy = Simulator::new(cfg).run(&loads(10, 20_000, 8));
        assert!(heavy.mean_activity(&cfg) > 3.0 * light.mean_activity(&cfg));
        assert!(heavy.mean_activity(&cfg) <= 1.0);
    }

    #[test]
    fn windowed_activity_covers_run() {
        let cfg = small_cfg(NapMode::NONE);
        let report = Simulator::new(cfg).run(&loads(10, 1_000, 8));
        let w = report.windowed_activity(&cfg, 5);
        assert_eq!(w.len(), 2);
        for a in w {
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn empty_run_is_fine() {
        let report = Simulator::new(small_cfg(NapMode::NONE)).run(&[]);
        assert_eq!(report.jobs_total, 0);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(NapMode::NONE.to_string(), "NONAP");
        assert_eq!(NapMode::NAP_IDLE.to_string(), "NAP+IDLE");
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use lte_fault::{DeadCore, SlowCore};

    fn cfg(policy: NapMode) -> SimConfig {
        SimConfig {
            n_workers: 8,
            dispatch_period: 100_000,
            steal_latency: 100,
            task_overhead: 50,
            wake_period: 20_000,
            clock_hz: 700.0e6,
            nap: policy,
        }
    }

    fn job(units: u64) -> SimJob {
        SimJob {
            est_tasks: vec![units; 4],
            weights_cost: units / 2,
            combine_tasks: vec![units; 8],
            finish_cost: units,
        }
    }

    /// A load that overruns the dispatch period: each subframe carries
    /// several multiples of one period of work.
    fn overload(n: usize) -> Vec<SubframeLoad> {
        (0..n)
            .map(|i| SubframeLoad {
                jobs: vec![job(8_000), job(12_000 + 100 * (i as u64 % 3)), job(20_000)],
                active_target: 8,
            })
            .collect()
    }

    /// One dispatch period of deadline budget.
    const BUDGET: u64 = 100_000;

    #[test]
    fn overruns_are_counted_and_the_cheapest_users_shed() {
        // Reverse each subframe's users so index order is not cost order.
        let loads: Vec<SubframeLoad> = overload(10)
            .into_iter()
            .map(|mut l| {
                l.jobs.reverse();
                l
            })
            .collect();
        let recorder = lte_obs::RingRecorder::new(1 << 20);
        let report = Simulator::with_recorder(cfg(NapMode::NONE), &recorder)
            .with_deadline(BUDGET)
            .run(&loads);
        assert!(report.overruns > 0, "overloaded run must overrun");
        assert!(report.shed_jobs > 0, "shedding must have engaged");
        assert_eq!(
            report.jobs_total as u64,
            30 - report.shed_jobs,
            "shed jobs never enter the machine"
        );
        assert_eq!(report.job_latencies.len(), report.jobs_total);

        // Each shed subframe keeps at least one user and loses its k
        // cheapest: the finish stage then burns exactly the kept users'
        // finish costs (one task overhead each).
        let overhead = cfg(NapMode::NONE).task_overhead;
        let mut shed_per_subframe = vec![0usize; loads.len()];
        for e in recorder.events() {
            if let lte_obs::Event::Fault {
                kind: FaultKind::UserShed,
                subframe,
                ..
            } = e
            {
                shed_per_subframe[subframe as usize] += 1;
            }
        }
        let mut expected_finish = 0;
        for (load, &k) in loads.iter().zip(&shed_per_subframe) {
            assert!(k < load.jobs.len(), "at least one user survives");
            let mut finish: Vec<u64> = load.jobs.iter().map(|j| j.finish_cost).collect();
            finish.sort_unstable();
            expected_finish += finish[k..].iter().map(|c| c + overhead).sum::<u64>();
        }
        assert_eq!(report.stage_cycles[3], expected_finish);
    }

    #[test]
    fn shedding_ends_the_campaign_sooner_than_running_every_user() {
        let unbounded = Simulator::new(cfg(NapMode::NONE))
            .with_deadline(u64::MAX)
            .run(&overload(12));
        assert_eq!(unbounded.overruns, 0, "infinite budget never overruns");
        assert_eq!(unbounded.shed_jobs, 0, "infinite budget never sheds");
        let shedding = Simulator::new(cfg(NapMode::NONE))
            .with_deadline(BUDGET)
            .run(&overload(12));
        let full = Simulator::new(cfg(NapMode::NONE)).run(&overload(12));
        assert!(shedding.end_time < full.end_time);
    }

    #[test]
    fn dead_core_loses_no_jobs() {
        for policy in NapMode::ALL {
            let plan = FaultPlan {
                dead_core: Some(DeadCore {
                    core: 0,
                    at_cycle: 150_000,
                }),
                ..FaultPlan::quiet(11)
            };
            let report = Simulator::new(cfg(policy))
                .with_chaos(plan)
                .run(&overload(10));
            assert_eq!(report.jobs_total, 30, "{policy}");
            assert_eq!(report.job_latencies.len(), 30, "{policy}");
            // The dead core stops accumulating busy cycles; survivors
            // carry the load.
            assert!(
                report.busy_per_core[1..].iter().sum::<u64>() > 0,
                "{policy}"
            );
        }
    }

    #[test]
    fn dead_user_core_job_is_adopted() {
        // Core 0 picks up the first job immediately (it owns it) and dies
        // mid-subframe: ownership must migrate.
        let plan = FaultPlan {
            dead_core: Some(DeadCore {
                core: 0,
                at_cycle: 10_000,
            }),
            ..FaultPlan::quiet(3)
        };
        let report = Simulator::new(cfg(NapMode::NONE))
            .with_chaos(plan)
            .run(&overload(6));
        assert_eq!(report.job_latencies.len(), report.jobs_total);
        assert!(report.adopted_jobs >= 1, "core 0 owned a job when it died");
    }

    #[test]
    fn poisoned_tasks_are_retried_not_lost() {
        let plan = FaultPlan {
            task_panic_permille: 100,
            ..FaultPlan::quiet(21)
        };
        let quiet = Simulator::new(cfg(NapMode::NONE)).run(&overload(10));
        let chaotic = Simulator::new(cfg(NapMode::NONE))
            .with_chaos(plan)
            .run(&overload(10));
        assert!(
            chaotic.poisoned_tasks > 0,
            "10% rate must fire in 360 tasks"
        );
        assert_eq!(chaotic.jobs_total, 30);
        assert_eq!(chaotic.job_latencies.len(), 30);
        // Re-executed tasks burn extra cycles.
        let busy = |r: &SimReport| r.buckets.iter().map(|b| b.busy_cycles).sum::<u64>();
        assert!(busy(&chaotic) > busy(&quiet));
    }

    #[test]
    fn slow_core_stretches_execution() {
        let plan = FaultPlan {
            slow_cores: vec![SlowCore {
                core: 0,
                factor_permille: 3000,
            }],
            ..FaultPlan::quiet(5)
        };
        let fast = Simulator::new(cfg(NapMode::NONE)).run(&overload(6));
        let slowed = Simulator::new(cfg(NapMode::NONE))
            .with_chaos(plan)
            .run(&overload(6));
        assert_eq!(slowed.jobs_total, fast.jobs_total);
        let busy = |r: &SimReport| r.buckets.iter().map(|b| b.busy_cycles).sum::<u64>();
        assert!(
            busy(&slowed) > busy(&fast),
            "3x slower core must inflate busy cycles"
        );
    }

    #[test]
    fn chaos_campaigns_are_deterministic() {
        let run = || {
            Simulator::new(cfg(NapMode::NAP_IDLE))
                .with_chaos(FaultPlan::smoke(42))
                .with_deadline(BUDGET)
                .run(&overload(20))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_events_reach_the_recorder() {
        let recorder = lte_obs::RingRecorder::new(1 << 20);
        let plan = FaultPlan {
            task_panic_permille: 100,
            dead_core: Some(DeadCore {
                core: 2,
                at_cycle: 120_000,
            }),
            slow_cores: vec![SlowCore {
                core: 1,
                factor_permille: 1500,
            }],
            ..FaultPlan::quiet(9)
        };
        Simulator::with_recorder(cfg(NapMode::NONE), &recorder)
            .with_chaos(plan)
            .with_deadline(BUDGET)
            .run(&overload(10));
        let events = recorder.events();
        let kinds: Vec<FaultKind> = events
            .iter()
            .filter_map(|e| match e {
                lte_obs::Event::Fault { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        for expect in [
            FaultKind::TaskPanic,
            FaultKind::CoreDeath,
            FaultKind::SlowCore,
            FaultKind::UserShed,
        ] {
            assert!(kinds.contains(&expect), "missing fault kind {expect}");
        }
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            n_workers: 8,
            dispatch_period: 100_000,
            steal_latency: 100,
            task_overhead: 50,
            wake_period: 20_000,
            clock_hz: 700.0e6,
            nap: NapMode::NONE,
        }
    }

    fn job(units: u64) -> SimJob {
        SimJob {
            est_tasks: vec![units; 4],
            weights_cost: units / 2,
            combine_tasks: vec![units; 8],
            finish_cost: units,
        }
    }

    #[test]
    fn light_load_processes_one_subframe_at_a_time() {
        let loads: Vec<SubframeLoad> = (0..10)
            .map(|_| SubframeLoad {
                jobs: vec![job(1_000)],
                active_target: 8,
            })
            .collect();
        let report = Simulator::new(cfg()).run(&loads);
        assert_eq!(report.max_concurrent_subframes, 1);
    }

    #[test]
    fn heavy_load_overlaps_subframes() {
        // Each subframe carries far more than one period of work.
        let loads: Vec<SubframeLoad> = (0..10)
            .map(|_| SubframeLoad {
                jobs: vec![job(30_000); 2],
                active_target: 8,
            })
            .collect();
        let report = Simulator::new(cfg()).run(&loads);
        assert!(
            report.max_concurrent_subframes >= 2,
            "overloaded run must overlap subframes: {}",
            report.max_concurrent_subframes
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let loads: Vec<SubframeLoad> = (0..20)
            .map(|i| SubframeLoad {
                jobs: vec![job(500 + 200 * (i % 5) as u64)],
                active_target: 8,
            })
            .collect();
        let report = Simulator::new(cfg()).run(&loads);
        let p50 = report.latency_percentile(50);
        let p95 = report.latency_percentile(95);
        let p100 = report.latency_percentile(100);
        assert!(p50 <= p95 && p95 <= p100);
        assert_eq!(p100, *report.job_latencies.iter().max().unwrap());
        assert_eq!(SimReport::default().latency_percentile(99), 0);
    }
}

#[cfg(test)]
mod per_core_tests {
    use super::*;

    fn cfg(policy: NapMode) -> SimConfig {
        SimConfig {
            n_workers: 8,
            dispatch_period: 100_000,
            steal_latency: 100,
            task_overhead: 50,
            wake_period: 20_000,
            clock_hz: 700.0e6,
            nap: policy,
        }
    }

    fn loads(n: usize, target: usize) -> Vec<SubframeLoad> {
        (0..n)
            .map(|_| SubframeLoad {
                jobs: vec![SimJob {
                    est_tasks: vec![2_000; 4],
                    weights_cost: 1_000,
                    combine_tasks: vec![2_000; 8],
                    finish_cost: 2_000,
                }],
                active_target: target,
            })
            .collect()
    }

    #[test]
    fn per_core_busy_sums_to_bucket_busy() {
        let report = Simulator::new(cfg(NapMode::NONE)).run(&loads(10, 8));
        let per_core: u64 = report.busy_per_core.iter().sum();
        let buckets: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
        assert_eq!(per_core, buckets);
    }

    #[test]
    fn proactive_nap_concentrates_work_on_low_cores() {
        let report = Simulator::new(cfg(NapMode::NAP)).run(&loads(40, 3));
        let low: u64 = report.busy_per_core[..3].iter().sum();
        let high: u64 = report.busy_per_core[3..].iter().sum();
        assert!(
            low > 5 * high.max(1),
            "work must concentrate below the target: low {low} high {high}"
        );
    }

    #[test]
    fn nonap_spreads_work_more_evenly() {
        let report = Simulator::new(cfg(NapMode::NONE)).run(&loads(40, 8));
        let busiest = *report.busy_per_core.iter().max().unwrap() as f64;
        let active = report.busy_per_core.iter().filter(|&&b| b > 0).count();
        assert!(active >= 4, "several cores should participate: {active}");
        let total: u64 = report.busy_per_core.iter().sum();
        assert!(
            busiest < 0.8 * total as f64,
            "no single core should dominate"
        );
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use lte_obs::{event_json, RingRecorder};

    fn cfg(policy: NapMode) -> SimConfig {
        SimConfig {
            n_workers: 8,
            dispatch_period: 100_000,
            steal_latency: 100,
            task_overhead: 50,
            wake_period: 20_000,
            clock_hz: 700.0e6,
            nap: policy,
        }
    }

    fn loads(n: usize, units: u64, target: usize) -> Vec<SubframeLoad> {
        (0..n)
            .map(|_| SubframeLoad {
                jobs: vec![SimJob {
                    est_tasks: vec![units; 4],
                    weights_cost: units / 2,
                    combine_tasks: vec![units; 8],
                    finish_cost: units,
                }],
                active_target: target,
            })
            .collect()
    }

    #[test]
    fn stage_breakdown_sums_to_busy_cycles_under_every_policy() {
        for policy in NapMode::ALL {
            let report = Simulator::new(cfg(policy)).run(&loads(10, 2_000, 3));
            let stage_total: u64 = report.stage_breakdown().iter().map(|(_, c)| c).sum();
            let busy: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
            assert_eq!(stage_total, busy, "{policy}");
            // Every coarse stage ran at least once.
            for (stage, cycles) in report.stage_breakdown() {
                assert!(cycles > 0, "{policy}: stage {stage} never accounted");
            }
        }
    }

    #[test]
    fn per_core_counters_are_consistent() {
        let report = Simulator::new(cfg(NapMode::NAP_IDLE)).run(&loads(10, 2_000, 3));
        // 4 est + 1 weights + 8 combine + 1 finish per job.
        let tasks: u64 = report.tasks_per_core.iter().sum();
        assert_eq!(tasks, 10 * 14);
        let pulses: u64 = report.wake_pulses_per_core.iter().sum();
        let bucket_pulses: u64 = report.buckets.iter().map(|b| b.wake_pulses).sum();
        assert_eq!(pulses, bucket_pulses);
        let steals: u64 = report.steals_per_core.iter().sum();
        assert!(steals > 0, "parallel phases require steals");
    }

    #[test]
    fn recorded_spans_cover_every_core_cycle() {
        // The emitted CoreSpans must tile [0, end_time) on every core:
        // contiguous, non-overlapping, starting at 0.
        let recorder = RingRecorder::new(1 << 20);
        let report =
            Simulator::with_recorder(cfg(NapMode::NAP_IDLE), &recorder).run(&loads(10, 2_000, 3));
        let mut next_start = [0u64; 8];
        let mut busy_from_spans = 0u64;
        for ev in recorder.events() {
            if let lte_obs::Event::CoreSpan {
                core,
                state,
                start,
                end,
                ..
            } = ev
            {
                assert_eq!(start, next_start[core as usize], "gap on core {core}");
                assert!(end > start);
                next_start[core as usize] = end;
                if state == lte_obs::CoreState::Busy {
                    busy_from_spans += end - start;
                }
            }
        }
        for (core, &t) in next_start.iter().enumerate() {
            assert_eq!(t, report.end_time, "core {core} not covered to the end");
        }
        let busy: u64 = report.buckets.iter().map(|b| b.busy_cycles).sum();
        assert_eq!(busy_from_spans, busy);
    }

    #[test]
    fn recorder_sees_dispatches_subframes_steals_and_wakes() {
        let recorder = RingRecorder::new(1 << 20);
        Simulator::with_recorder(cfg(NapMode::NAP_IDLE), &recorder).run(&loads(10, 2_000, 3));
        let events = recorder.events();
        let count = |f: &dyn Fn(&lte_obs::Event) -> bool| events.iter().filter(|e| f(e)).count();
        assert_eq!(count(&|e| matches!(e, lte_obs::Event::Dispatch { .. })), 10);
        assert_eq!(
            count(&|e| matches!(e, lte_obs::Event::SubframeSpan { .. })),
            10
        );
        assert!(count(&|e| matches!(e, lte_obs::Event::Steal { .. })) > 0);
        assert!(count(&|e| matches!(e, lte_obs::Event::WakePulse { .. })) > 0);
    }

    #[test]
    fn tracing_does_not_change_results() {
        let plain = Simulator::new(cfg(NapMode::NAP_IDLE)).run(&loads(20, 1_500, 3));
        let recorder = RingRecorder::new(1 << 20);
        let traced =
            Simulator::with_recorder(cfg(NapMode::NAP_IDLE), &recorder).run(&loads(20, 1_500, 3));
        assert_eq!(plain, traced);
        assert!(recorder.total_recorded() > 0);
    }

    #[test]
    fn identical_runs_record_identical_traces() {
        let trace_of = || {
            let r = RingRecorder::new(1 << 20);
            Simulator::with_recorder(cfg(NapMode::NAP_IDLE), &r).run(&loads(15, 1_500, 3));
            let events = r.events();
            assert_eq!(
                events.len() as u64,
                r.total_recorded(),
                "the ring kept every event"
            );
            events.iter().map(event_json).collect::<Vec<_>>()
        };
        assert_eq!(trace_of(), trace_of());
    }
}

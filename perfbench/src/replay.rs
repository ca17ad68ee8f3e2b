//! The traced campaign run: every trial replayed serially through the
//! layers' public functions, with a span around each call. The replay
//! follows the campaign executor's trial path call for call — a paper
//! scenario's design prefix once per design-cache key, as the executor
//! computes it — so its statuses, and its whole report, must equal
//! `run_campaign`'s.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ftsched_campaign::cache::DesignKey;
use ftsched_campaign::prelude::trial_seed;
use ftsched_campaign::stats::{LatencyCurve, ResponseHistogram, TaskResponse};
use ftsched_campaign::trial::{BaselineVerdicts, SimSummary};
use ftsched_campaign::{
    CampaignReport, CampaignSpec, Scenario, ScenarioReport, ScenarioStats, TrialKind, TrialOutcome,
    TrialStatus, WorkloadSpec,
};
use ftsched_core::pipeline::slots_from_solution;
use ftsched_design::baseline::{
    compare_schemes_with, primary_backup_schedulable, static_lockstep_schedulable,
    static_parallel_schedulable,
};
use ftsched_design::partitioner::partition_system;
use ftsched_design::quanta::distribute_slack;
use ftsched_design::region::{max_feasible_period_with, max_slack_ratio_period_with};
use ftsched_design::sensitivity::wcet_scaling_margin_with;
use ftsched_design::{AnalysisContext, DesignError, DesignGoal, DesignProblem, DesignSolution};
use ftsched_platform::FaultSchedule;
use ftsched_sim::{simulate_in, SimArena, SimulationConfig, SimulationReport, SlotSchedule};
use ftsched_task::generator::generate_taskset;
use ftsched_task::{SystemPartition, TaskSet, Time};

use crate::campaign::{config, nproc, reference_report, run_and_encode};
use crate::metrics::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Counts taken from call results during the replay.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub context_points: u64,
    pub period_searches: u64,
    pub period_rejects: u64,
    pub region_samples: u64,
    pub partitions: u64,
    pub partition_failures: u64,
    pub faults: u64,
}

/// The replay's products: the report it folded (encoded), its status
/// tallies, and what it counted.
pub struct Replay {
    pub json: String,
    pub tallies: BTreeMap<&'static str, u64>,
    pub counts: ReplayCounts,
}

const STATUSES: [TrialStatus; 5] = [
    TrialStatus::Accepted,
    TrialStatus::GenerationFailed,
    TrialStatus::PartitionFailed,
    TrialStatus::DesignRejected,
    TrialStatus::SimulationFailed,
];

pub fn status_name(status: TrialStatus) -> &'static str {
    match status {
        TrialStatus::Accepted => "accepted",
        TrialStatus::GenerationFailed => "generation_failed",
        TrialStatus::PartitionFailed => "partition_failed",
        TrialStatus::DesignRejected => "design_rejected",
        TrialStatus::SimulationFailed => "simulation_failed",
    }
}

/// Per-status trial tallies of a report.
pub fn report_tallies(report: &CampaignReport) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in &report.scenarios {
        let st = &s.stats;
        for (name, n) in [
            ("accepted", st.accepted),
            ("generation_failed", st.generation_failures),
            ("partition_failed", st.partition_failures),
            ("design_rejected", st.design_rejected),
            ("simulation_failed", st.simulation_failures),
        ] {
            *out.entry(name).or_insert(0) += n;
        }
    }
    out
}

/// Replays every trial of `spec` in grid order. Covers what the
/// workloads run: `DesignAndValidate` trials with a searched period.
pub fn replay(spec: &CampaignSpec, tracer: &mut Tracer) -> Replay {
    assert!(
        spec.kind == TrialKind::DesignAndValidate
            && !matches!(spec.goal, DesignGoal::FixedPeriod(_)),
        "the replay covers DesignAndValidate trials with a searched period"
    );
    let scenarios = spec.scenarios();
    let mut stats: Vec<ScenarioStats> = vec![ScenarioStats::default(); scenarios.len()];
    let mut tallies: BTreeMap<&'static str, u64> =
        STATUSES.iter().map(|&s| (status_name(s), 0)).collect();
    let mut counts = ReplayCounts::default();
    let mut arena = SimArena::new();
    let mut designs = HashMap::new();
    for scenario in &scenarios {
        for trial in 0..spec.trials_per_scenario {
            let group = (scenario.index * spec.trials_per_scenario + trial) as u64;
            tracer.open("trial", group);
            let outcome = replay_trial(
                spec,
                scenario,
                trial,
                &mut designs,
                tracer,
                &mut arena,
                &mut counts,
            );
            tracer.span("campaign.fold", || stats[scenario.index].observe(&outcome));
            tracer.close();
            *tallies.entry(status_name(outcome.status)).or_insert(0) += 1;
        }
    }
    let json = tracer.span("campaign.report_encode", || {
        let rows = scenarios
            .iter()
            .zip(stats)
            .map(|(scenario, stats)| ScenarioReport::for_scenario(spec, scenario, stats))
            .collect();
        CampaignReport::new(spec.clone(), rows).to_json()
    });
    Replay {
        json,
        tallies,
        counts,
    }
}

/// The design stage of one trial, from the problem to the slot schedule.
/// It needs no randomness, so a paper trial's is a pure function of its
/// [`DesignKey`] and the replay, like the executor's design cache,
/// computes it once per key.
struct DesignPrefix {
    baselines: Option<BaselineVerdicts>,
    /// Simulation horizon; `None` when the problem was invalid.
    horizon: Option<f64>,
    stage: Result<Box<Designed>, TrialStatus>,
}

struct Designed {
    problem: DesignProblem,
    ctx: AnalysisContext,
    solution: DesignSolution,
    slots: SlotSchedule,
    /// Set in a paper prefix, which computes the margin once per key.
    wcet_margin: Option<f64>,
}

/// Problem, context, baselines, period search and allocation, each in
/// its span.
fn design_prefix(
    spec: &CampaignSpec,
    scenario: &Scenario,
    tasks: TaskSet,
    partition: SystemPartition,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> DesignPrefix {
    let Ok(problem) = tracer.span("core.problem", || {
        DesignProblem::with_total_overhead(tasks, partition, scenario.overhead, scenario.algorithm)
    }) else {
        return DesignPrefix {
            baselines: None,
            horizon: None,
            stage: Err(TrialStatus::PartitionFailed),
        };
    };
    let region = spec.region_config(&problem);
    let ctx = tracer
        .span("analysis.context", || problem.analysis_context())
        .expect("a validated problem always yields a context");
    counts.context_points += ctx.point_count() as u64;

    let baselines = spec.compare_baselines.then(|| {
        let cmp = tracer
            .span("design.baselines", || {
                compare_schemes_with(&problem, &ctx, &region)
            })
            .expect("compare_schemes is infallible on a validated problem");
        BaselineVerdicts {
            flexible: cmp.flexible,
            static_lockstep: cmp.static_lockstep,
            static_parallel: cmp.static_parallel,
            primary_backup: cmp.primary_backup,
        }
    });
    let horizon = Some(problem.tasks.hyperperiod() * spec.horizon_hyperperiods.max(1) as f64);
    let failed = |status| DesignPrefix {
        baselines,
        horizon,
        stage: Err(status),
    };

    counts.period_searches += 1;
    counts.region_samples += region.samples as u64;
    let period = tracer.span("design.period_search", || match spec.goal {
        DesignGoal::MaximizeSlackBandwidth => {
            max_slack_ratio_period_with(&ctx, &region).map(|p| p.period)
        }
        _ => max_feasible_period_with(&ctx, &region),
    });
    counts.period_rejects += u64::from(period.is_err());
    let Ok(period) = period else {
        return failed(TrialStatus::DesignRejected);
    };
    let designed = tracer.span("design.allocation", || -> Result<_, DesignError> {
        let allocation = ctx.minimum_allocation(period)?;
        let mut solution = DesignSolution::new(&problem, spec.goal, allocation)?;
        solution.allocation = distribute_slack(&solution.allocation, spec.slack_policy);
        Ok(solution)
    });
    let Ok(solution) = designed else {
        return failed(TrialStatus::DesignRejected);
    };
    let Ok(slots) = tracer.span("design.allocation", || slots_from_solution(&solution)) else {
        return failed(TrialStatus::SimulationFailed);
    };
    DesignPrefix {
        baselines,
        horizon,
        stage: Ok(Box::new(Designed {
            problem,
            ctx,
            solution,
            slots,
            wcet_margin: None,
        })),
    }
}

fn wcet_margin(spec: &CampaignSpec, designed: &Designed, tracer: &mut Tracer) -> Option<f64> {
    spec.wcet_margin.map(|m| {
        tracer
            .span("design.wcet_margin", || {
                wcet_scaling_margin_with(&designed.ctx, designed.solution.period, m.tolerance)
            })
            .expect("a designed period always admits a margin search")
    })
}

fn draw_faults(
    spec: &CampaignSpec,
    horizon: f64,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> FaultSchedule {
    let faults = tracer.span("platform.fault_draw", || {
        spec.faults.schedule(rng, Time::from_units(horizon))
    });
    counts.faults += faults.len() as u64;
    faults
}

/// Mirrors the executor's trial: seed, workload, partition, design
/// prefix, fault draw, simulation, margin and summary. A paper trial's
/// design prefix comes from `designs`, as the executor's comes from its
/// design cache, and its margin is computed with the prefix; a synthetic
/// trial computes its prefix, draws its faults whenever the problem is
/// valid (the executor draws them before the period search) and searches
/// its margin only once simulated.
fn replay_trial(
    spec: &CampaignSpec,
    scenario: &Scenario,
    trial: usize,
    designs: &mut HashMap<DesignKey, DesignPrefix>,
    tracer: &mut Tracer,
    arena: &mut SimArena,
    counts: &mut ReplayCounts,
) -> TrialOutcome {
    let seed = tracer.span("campaign.trial_seed", || {
        trial_seed(spec.master_seed, scenario.workload_point, trial)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let finish = |status, baselines, sim| TrialOutcome {
        scenario: scenario.index,
        trial,
        seed,
        status,
        baselines,
        sim,
    };

    let synthetic;
    let (prefix, faults) = if matches!(spec.workload, WorkloadSpec::Paper) {
        let key = DesignKey::new(
            scenario.workload_point,
            scenario.algorithm,
            scenario.overhead,
        );
        let prefix = designs.entry(key).or_insert_with(|| {
            let (tasks, partition) =
                tracer.span("task.paper_example", ftsched_task::examples::paper_example);
            let mut prefix = design_prefix(spec, scenario, tasks, partition, tracer, counts);
            if let Ok(designed) = &mut prefix.stage {
                designed.wcet_margin = wcet_margin(spec, designed, tracer);
            }
            prefix
        });
        let faults = match (&prefix.stage, prefix.horizon) {
            (Ok(_), Some(horizon)) => Some(draw_faults(spec, horizon, &mut rng, tracer, counts)),
            _ => None,
        };
        (&*prefix, faults)
    } else {
        let config = spec
            .workload
            .generator_config(scenario.utilization.unwrap_or(1.0))
            .expect("synthetic workloads have generator configs");
        let Some(tasks) = tracer.span("task.generate", || generate_taskset(&mut rng, &config).ok())
        else {
            return finish(TrialStatus::GenerationFailed, None, None);
        };
        let heuristic = scenario.partition_heuristic;
        let partition = tracer.span("design.partition", || {
            partition_system(&tasks, heuristic).ok()
        });
        counts.partitions += 1;
        let Some(partition) = partition else {
            counts.partition_failures += 1;
            let baselines = spec.compare_baselines.then(|| {
                tracer.span("design.baselines", || BaselineVerdicts {
                    flexible: false,
                    static_lockstep: static_lockstep_schedulable(&tasks, scenario.algorithm),
                    static_parallel: static_parallel_schedulable(&tasks, scenario.algorithm),
                    primary_backup: primary_backup_schedulable(&tasks, scenario.algorithm),
                })
            });
            return finish(TrialStatus::PartitionFailed, baselines, None);
        };
        synthetic = design_prefix(spec, scenario, tasks, partition, tracer, counts);
        let faults = synthetic
            .horizon
            .map(|horizon| draw_faults(spec, horizon, &mut rng, tracer, counts));
        (&synthetic, faults)
    };

    let baselines = prefix.baselines;
    let designed = match &prefix.stage {
        Ok(designed) => designed,
        Err(status) => return finish(*status, baselines, None),
    };
    let faults = faults.expect("a designed trial has drawn its faults");
    let injected = faults.len() as u64;
    let problem = &designed.problem;
    let record_response_times = spec.response_histogram.is_some() || spec.latency_curves.is_some();
    let simulated = tracer.span("sim.simulate", || {
        simulate_in(
            &problem.tasks,
            &problem.partition,
            problem.algorithm,
            &designed.slots,
            &SimulationConfig {
                horizon: prefix.horizon.expect("a designed problem is valid"),
                fault_schedule: faults,
                record_trace: false,
                record_response_times,
            },
            arena,
        )
    });
    let Ok(report) = simulated else {
        return finish(TrialStatus::SimulationFailed, baselines, None);
    };
    let margin = designed
        .wcet_margin
        .or_else(|| wcet_margin(spec, designed, tracer));
    let sim = tracer.span("campaign.fold", || {
        summarize(
            spec,
            &designed.solution,
            &report,
            &problem.tasks,
            injected,
            margin,
        )
    });
    finish(TrialStatus::Accepted, baselines, Some(sim))
}

/// The compact per-trial summary the executor folds, built from the
/// public report fields exactly as the campaign crate builds it.
fn summarize(
    spec: &CampaignSpec,
    solution: &DesignSolution,
    report: &SimulationReport,
    tasks: &TaskSet,
    injected_faults: u64,
    wcet_margin: Option<f64>,
) -> SimSummary {
    let response = spec.response_histogram.map(|hist| {
        report
            .response_times
            .as_ref()
            .map(|per_task| {
                per_task
                    .iter()
                    .map(|(&task, times)| {
                        let mut histogram = ResponseHistogram::new(hist);
                        for &rt in times {
                            histogram.observe(rt);
                        }
                        TaskResponse { task, histogram }
                    })
                    .collect()
            })
            .unwrap_or_default()
    });
    let latency = spec.latency_curves.map(|curve_spec| {
        let mut curve = LatencyCurve::new(curve_spec);
        if let Some(recorded) = &report.response_times {
            for (task, times) in recorded {
                let Some(deadline) = tasks.get(*task).map(|t| t.deadline) else {
                    continue;
                };
                for &rt in times {
                    curve.observe(rt / deadline);
                }
            }
        }
        curve
    });
    SimSummary {
        period: solution.period,
        slack_bandwidth: solution.slack_bandwidth(),
        overhead_bandwidth: solution.overhead_bandwidth(),
        released_jobs: report.released_jobs,
        completed_jobs: report.completed_jobs,
        deadline_misses: report.deadline_misses,
        injected_faults,
        effective_faults: report.effective_faults,
        outcomes: report.outcomes,
        max_response_time: report
            .worst_response_times
            .values()
            .fold(0.0_f64, |acc, &rt| acc.max(rt)),
        response,
        wcet_margin,
        latency,
    }
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median wall time of `reps` untraced runs, with the report bytes of
/// each run checked against `expected`.
fn timed(
    spec: &CampaignSpec,
    threads: usize,
    cache: bool,
    reps: usize,
    expected: &str,
    run: &mut RunResult,
) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let (json, wall) = run_and_encode(spec, &config(threads, cache));
            run.check(json == expected);
            wall.as_secs_f64()
        })
        .collect();
    stats::median(&walls)
}

/// The traced run of a campaign workload. Untraced runs first give the
/// comparison walls (uncached 1-thread, cached 1-thread with the obs
/// counters around it, cached nproc); then the traced replay gives the
/// per-layer numbers.
pub fn traced(spec: CampaignSpec, trace_out: Option<&std::path::Path>) -> RunResult {
    const REPS: usize = 3;
    let mut run = RunResult::default();
    let (expected, _) = reference_report(&spec);
    let trials = spec.trial_count() as f64;
    let threads = nproc();

    let uncached_1t = timed(&spec, 1, false, REPS, &expected, &mut run);
    // Cache hit shares and stage shares are ratios: over several runs
    // they equal one run's.
    let obs = ftsched_obs::metrics();
    let before = obs.snapshot();
    let cached_1t = timed(&spec, 1, true, REPS, &expected, &mut run);
    let cached = obs.snapshot().since(&before);
    let cached_np = timed(&spec, threads, true, REPS, &expected, &mut run);

    let hit = |c: ftsched_obs::CacheSnapshot| frac(c.hits, c.hits + c.misses);
    run.set(
        "campaign.cache.gen_hit_frac",
        hit(cached.timing.generation_cache),
    );
    run.set(
        "campaign.cache.partition_hit_frac",
        hit(cached.timing.partition_cache),
    );
    run.set(
        "campaign.cache.design_hit_frac",
        hit(cached.timing.design_cache),
    );
    run.set("campaign.cache_speedup", uncached_1t / cached_1t);
    run.set(
        "campaign.parallel_efficiency",
        (trials / cached_np) / (threads as f64 * trials / cached_1t),
    );
    let stage_ns = |label: &str| {
        cached
            .timing
            .spans
            .iter()
            .find(|s| s.stage.label() == label)
            .map_or(0, |s| s.histo.total_nanos)
    };
    let stage_total: u64 = cached
        .timing
        .spans
        .iter()
        .map(|s| s.histo.total_nanos)
        .sum();
    run.set(
        "campaign.stage.design_frac",
        frac(stage_ns("design"), stage_total),
    );
    run.set(
        "campaign.stage.validate_frac",
        frac(stage_ns("validate"), stage_total),
    );

    let mut tracer = Tracer::new();
    let before = obs.snapshot();
    let start = Instant::now();
    let replayed = replay(&spec, &mut tracer);
    let wall = start.elapsed().as_secs_f64();
    let during = obs.snapshot().since(&before);

    // Correctness gates: the replay's tallies equal the report's, and its
    // folded report is byte-identical to `run_campaign`'s.
    let report: CampaignReport = serde_json::from_str(&expected).expect("reports parse");
    let tallies_match = replayed.tallies == report_tallies(&report);
    run.check(tallies_match);
    run.check(replayed.json == expected);
    run.note(format!(
        "replay tallies {:?} {} the report; replayed report {} run_campaign's",
        replayed.tallies,
        if tallies_match {
            "equal"
        } else {
            "DIFFER FROM"
        },
        if replayed.json == expected {
            "is byte-identical to"
        } else {
            "DIFFERS FROM"
        }
    ));

    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let counts = &replayed.counts;
    run.set(
        "analysis.context.calls",
        total("analysis.context").count as f64,
    );
    run.set("analysis.context.ms", total("analysis.context").ms());
    run.set("analysis.context.points", counts.context_points as f64);
    let rescales = during.timing.sweep_rescales_quantised + during.timing.sweep_rescales_scalar;
    run.set(
        "analysis.rescale.quantised_frac",
        frac(during.timing.sweep_rescales_quantised, rescales),
    );
    run.set("design.period_search.calls", counts.period_searches as f64);
    run.set(
        "design.period_search.ms",
        total("design.period_search").ms(),
    );
    run.set(
        "design.period_search.reject_frac",
        frac(counts.period_rejects, counts.period_searches),
    );
    run.set("design.region_samples", counts.region_samples as f64);
    run.set("design.allocation.ms", total("design.allocation").ms());
    run.set(
        "design.wcet_margin.calls",
        total("design.wcet_margin").count as f64,
    );
    run.set("design.wcet_margin.ms", total("design.wcet_margin").ms());
    run.set("design.baselines.ms", total("design.baselines").ms());
    run.set("design.partition.calls", counts.partitions as f64);
    run.set("design.partition.ms", total("design.partition").ms());
    run.set(
        "design.partition.fail_frac",
        frac(counts.partition_failures, counts.partitions),
    );
    run.set("core.problem.ms", total("core.problem").ms());
    run.set("task.generate.calls", total("task.generate").count as f64);
    run.set("task.generate.ms", total("task.generate").ms());
    run.set("platform.fault_draw.ms", total("platform.fault_draw").ms());
    run.set("platform.faults", counts.faults as f64);
    let sim = total("sim.simulate");
    run.set("sim.runs", sim.count as f64);
    run.set("sim.ms", sim.ms());
    run.set("sim.events", during.counters.sim_events as f64);
    run.set("sim.jobs", during.counters.sim_jobs_released as f64);
    run.set(
        "sim.ns_per_event",
        sim.self_ns as f64 / during.counters.sim_events.max(1) as f64,
    );
    run.set("campaign.fold.ms", total("campaign.fold").ms());
    run.set(
        "campaign.report_encode.ms",
        total("campaign.report_encode").ms(),
    );
    run.set("campaign.report_bytes", expected.len() as f64);
    let trial_us = tracer.durations_us("trial");
    let (trial_tail, trial_p) = stats::tail(&trial_us);
    run.set("campaign.trial_us.p50", stats::median(&trial_us));
    run.set("campaign.trial_us.p99", trial_tail);

    let covered = tracer.covered_ns() as f64;
    let share = |prefixes: &[&str]| {
        let ns: u64 = totals
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, t)| t.self_ns)
            .sum();
        ns as f64 / covered.max(1.0)
    };
    run.set("trace.coverage", covered / (wall * 1e9));
    // The replay caches what the executor's design cache caches and no
    // more, so its untraced twin is the cached run for a paper campaign
    // and the uncached one for a synthetic campaign.
    let untraced = if matches!(spec.workload, WorkloadSpec::Paper) {
        cached_1t
    } else {
        uncached_1t
    };
    run.set("trace.overhead", wall / untraced - 1.0);
    run.set("trace.design_frac", share(&["design.", "analysis."]));
    run.set("trace.sim_frac", share(&["sim.", "platform."]));
    run.set("trace.wall_ms", wall * 1e3);
    run.set("trace.spans", tracer.spans().len() as f64);
    run.note(format!(
        "{} trials replayed in {:.1} ms (untraced uncached 1t {:.1} ms, cached 1t {:.1} ms, \
         cached {threads}t {:.1} ms); campaign.trial_us.p99 is p{trial_p}",
        spec.trial_count(),
        wall * 1e3,
        uncached_1t * 1e3,
        cached_1t * 1e3,
        cached_np * 1e3,
    ));
    if let Some(path) = trace_out {
        crate::write_trace(&tracer, path);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use ftsched_campaign::run_campaign;

    fn check_fidelity(spec: CampaignSpec) {
        let report = run_campaign(&spec, &config(2, true)).unwrap();
        let mut tracer = Tracer::new();
        let replayed = replay(&spec, &mut tracer);
        assert_eq!(replayed.tallies, report_tallies(&report));
        assert_eq!(replayed.json, report.to_json());
        assert_eq!(
            tracer.durations_us("trial").len(),
            spec.trial_count(),
            "one trial span per trial"
        );
    }

    #[test]
    fn replayed_synthetic_grid_matches_run_campaign() {
        let spec = CampaignSpec {
            utilizations: vec![0.6, 1.5],
            overheads: vec![0.02, 0.1],
            ..workloads::design_grid(11, 2)
        };
        check_fidelity(spec);
    }

    #[test]
    fn replayed_paper_validation_matches_run_campaign() {
        let spec = CampaignSpec {
            overheads: vec![0.01, 0.05],
            horizon_hyperperiods: 1,
            ..workloads::validate_faults(11, 3)
        };
        check_fidelity(spec.clone());
        // As in the executor's design cache, each scenario is designed
        // once, however many trials it has.
        let mut tracer = Tracer::new();
        replay(&spec, &mut tracer);
        let scenarios = spec.scenarios().len();
        assert_eq!(tracer.durations_us("design.period_search").len(), scenarios);
        assert_eq!(tracer.durations_us("analysis.context").len(), scenarios);
        assert!(tracer.durations_us("sim.simulate").len() > scenarios);
    }

    #[test]
    fn replay_tallies_every_status_even_when_absent() {
        let spec = CampaignSpec {
            utilizations: vec![3.5],
            overheads: vec![0.05],
            partition_heuristics: vec![],
            algorithms: vec![ftsched_analysis::Algorithm::RateMonotonic],
            ..workloads::design_grid(5, 2)
        };
        let mut tracer = Tracer::new();
        let replayed = replay(&spec, &mut tracer);
        assert_eq!(replayed.tallies.len(), 5);
        assert_eq!(replayed.tallies["accepted"], 0);
        assert_eq!(replayed.tallies.values().sum::<u64>(), 2);
    }
}

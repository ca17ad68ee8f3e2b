//! The per-trial kernel: one seeded workload through the
//! design(-and-validate) pipeline.
//!
//! A trial is a pure function of `(spec, scenario, trial_index)`: it
//! derives its seed with [`crate::seed::trial_seed`], draws the workload
//! and the fault schedule from one RNG in a fixed order, and runs either
//! the feasibility check or the full [`ftsched_core::design_and_validate`]
//! pipeline. Re-running a trial with the coordinates recorded in a report
//! reproduces its outcome exactly.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ftsched_core::pipeline::{design_stage_with, validate_stage, PipelineError, PipelineOutcome};
use ftsched_core::PipelineConfig;
use ftsched_design::baseline::compare_schemes_with;
use ftsched_design::partitioner::partition_system;
use ftsched_design::problem::DesignProblem;
use ftsched_design::region::max_feasible_period_with;
use ftsched_design::sensitivity::wcet_scaling_margin_with;
use ftsched_design::DesignSolution;
use ftsched_platform::FaultSchedule;
use ftsched_sim::report::OutcomeCounts;
use ftsched_sim::{SimArena, SimulationReport, SlotSchedule};
use ftsched_task::generator::generate_taskset;
use ftsched_task::{PerMode, SystemPartition, TaskSet, Time};

use crate::cache::DesignKey;
use crate::cache::{DesignCache, MemoCache, PartitionKey};
use crate::seed::trial_seed;
use crate::spec::{
    CampaignSpec, LatencyCurveSpec, ResponseHistogramSpec, Scenario, TrialKind, WorkloadSpec,
};
use crate::stats::{LatencyCurve, ResponseHistogram, TaskResponse};

/// Why a trial stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialStatus {
    /// The design stage found a feasible period (and, for
    /// [`TrialKind::DesignAndValidate`], the simulation ran).
    Accepted,
    /// The workload generator could not satisfy the configuration
    /// (UUniFast-discard cap, degenerate parameters).
    GenerationFailed,
    /// No valid partition of the workload onto the mode channels.
    PartitionFailed,
    /// The feasible-period region of Eq. 15 is empty for the overhead.
    DesignRejected,
    /// The design stage succeeded but the simulator rejected the slot
    /// schedule (should not happen for consistent designs).
    SimulationFailed,
}

/// Compact, serialisable result of one trial's simulation stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Chosen slot period.
    pub period: f64,
    /// Bandwidth left unallocated by the chosen design.
    pub slack_bandwidth: f64,
    /// Bandwidth spent on mode-switch overheads.
    pub overhead_bandwidth: f64,
    /// Jobs released inside the horizon.
    pub released_jobs: u64,
    /// Jobs completed inside the horizon.
    pub completed_jobs: u64,
    /// Deadline misses.
    pub deadline_misses: u64,
    /// Faults drawn from the fault model for this trial.
    pub injected_faults: u64,
    /// Faults that overlapped at least one job.
    pub effective_faults: u64,
    /// Per-mode job outcome counters.
    pub outcomes: PerMode<OutcomeCounts>,
    /// Worst observed response time over all tasks (time units; 0 when no
    /// job completed).
    pub max_response_time: f64,
    /// Per-task response-time histograms (sorted by task id), when the
    /// spec asked for them.
    pub response: Option<Vec<TaskResponse>>,
    /// WCET-scaling margin of the chosen design at its period, when the
    /// spec's `wcet_margin` metric is enabled.
    pub wcet_margin: Option<f64>,
    /// This trial's deadline-relative latency observations, pooled over
    /// tasks, when the spec's `latency_curves` metric is enabled.
    pub latency: Option<LatencyCurve>,
}

impl SimSummary {
    fn from_report(
        outcome: &PipelineOutcome,
        tasks: &TaskSet,
        injected_faults: u64,
        histogram: Option<ResponseHistogramSpec>,
        wcet_margin: Option<f64>,
        latency_spec: Option<LatencyCurveSpec>,
    ) -> Self {
        let report: &SimulationReport = &outcome.simulation;
        let response = histogram.map(|spec| {
            report
                .response_times
                .as_ref()
                .map(|per_task| {
                    // BTreeMap iteration: task-id order, deterministic.
                    per_task
                        .iter()
                        .map(|(&task, times)| {
                            let mut histogram = ResponseHistogram::new(spec);
                            for &rt in times {
                                histogram.observe(rt);
                            }
                            TaskResponse { task, histogram }
                        })
                        .collect()
                })
                .unwrap_or_default()
        });
        // The latency curve pools *deadline-relative* response times over
        // all tasks (BTreeMap order: task-id, then completion-record
        // order within a task — deterministic). The normalisation matches
        // `SimulationReport::normalized_response_times`, inlined here so
        // the per-trial hot path allocates nothing.
        let latency = latency_spec.map(|spec| {
            let mut curve = LatencyCurve::new(spec);
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
            period: outcome.solution.period,
            slack_bandwidth: outcome.solution.slack_bandwidth(),
            overhead_bandwidth: outcome.solution.overhead_bandwidth(),
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
}

/// Baseline-scheme verdicts for one trial, in the fixed scheme order
/// flexible / static-lockstep / static-parallel / primary-backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineVerdicts {
    /// The paper's flexible scheme (period region non-empty).
    pub flexible: bool,
    /// Permanently lock-stepped platform.
    pub static_lockstep: bool,
    /// Permanently parallel platform (ignores fault requirements).
    pub static_parallel: bool,
    /// Software primary/backup replication.
    pub primary_backup: bool,
}

/// The complete, serialisable outcome of one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Scenario grid index.
    pub scenario: usize,
    /// Trial index within the scenario.
    pub trial: usize,
    /// The derived RNG seed (sufficient to re-run this trial).
    pub seed: u64,
    /// Where the trial stopped.
    pub status: TrialStatus,
    /// Baseline verdicts, when the spec asked for them.
    pub baselines: Option<BaselineVerdicts>,
    /// Simulation summary, for accepted `DesignAndValidate` trials.
    pub sim: Option<SimSummary>,
}

/// The deterministic, trial-independent prefix of a `WorkloadSpec::Paper`
/// trial: problem construction, baseline comparison and the design stage.
/// A pure function of `(spec, scenario)` — no randomness — which is what
/// the campaign's [`DesignCache`] shares across trials and workers.
#[derive(Debug)]
pub(crate) struct PaperPrefix {
    baselines: Option<BaselineVerdicts>,
    stage: PaperStage,
}

/// Where the deterministic prefix stopped, mirroring the per-trial
/// statuses of the uncached path exactly.
#[derive(Debug)]
enum PaperStage {
    /// Problem construction failed (cannot happen for the paper example;
    /// kept so the cached path maps statuses 1:1 with the uncached one).
    ProblemInvalid,
    /// Feasibility verdict of a [`TrialKind::DesignOnly`] campaign.
    DesignOnly { feasible: bool },
    /// Full design-stage result of a [`TrialKind::DesignAndValidate`]
    /// campaign; the per-trial remainder is fault draw + simulation.
    /// Boxed: this variant dwarfs the tag-only ones.
    Designed(Box<DesignedStage>),
    /// The feasible-period region of Eq. 15 is empty for the overhead.
    DesignRejected,
    /// Slot-schedule construction failed (cannot happen for consistent
    /// designs).
    SlotsFailed,
}

/// The cached output of the design stage for one Paper scenario.
#[derive(Debug)]
struct DesignedStage {
    problem: DesignProblem,
    solution: DesignSolution,
    slots: SlotSchedule,
    /// WCET-scaling margin of the chosen design (when the spec's
    /// `wcet_margin` metric is enabled): deterministic, so it is computed
    /// once here — through the prefix's shared analysis context — and
    /// reused by every trial of the scenario.
    wcet_margin: Option<f64>,
}

/// The design-cache type campaigns share across workers.
pub(crate) type TrialDesignCache = DesignCache<PaperPrefix>;

/// The deterministic generation stage of one synthetic trial: the task
/// set (or `None` for a generation failure) and the RNG state *after*
/// the draw, so cached trials resume the stream exactly where an
/// uncached trial would.
#[derive(Debug)]
pub(crate) struct GenPrefix {
    tasks: Option<TaskSet>,
    rng: StdRng,
}

/// The partition of one generated task set under one heuristic, stored
/// with the set itself so content-hash collisions are detected by `==`
/// instead of silently reusing a wrong partition.
#[derive(Debug)]
pub(crate) struct PartitionEntry {
    tasks: TaskSet,
    partition: Option<SystemPartition>,
}

/// The caches one campaign shares across its workers. The paper design
/// cache memoises the whole deterministic prefix per grid coordinate;
/// the synthetic caches memoise the generation stage per workload
/// coordinate and the partitioning stage per task-set content hash, both
/// of which repeat across the algorithm / overhead / heuristic axes
/// (scenarios of one workload point draw identical task sets).
///
/// Each sub-cache is enabled only when the grid shape lets it hit:
/// caching 30 000 task sets that are each used once would spend memory
/// to save nothing. The synthetic caches are additionally bounded: every
/// key's read count is known from the grid shape, so entries evict on
/// their last read, and a capacity cap keeps worst-case residency at
/// tens of megabytes however large the campaign is (cache misses beyond
/// the cap just recompute — results are unaffected either way).
#[derive(Debug)]
pub(crate) struct TrialCaches {
    pub(crate) design: TrialDesignCache,
    gen: MemoCache<(usize, usize), GenPrefix>,
    partition: MemoCache<PartitionKey, PartitionEntry>,
}

/// Live-entry cap of each synthetic cache (entries are one generated
/// task set plus bookkeeping, so this is tens of megabytes at worst).
const SYNTHETIC_CACHE_CAPACITY: usize = 1 << 16;

impl TrialCaches {
    /// Builds the cache set for one campaign, sizing enablement and use
    /// budgets to the spec's grid shape. `enabled = false` (the
    /// `--no-design-cache` reference path) disables everything.
    pub(crate) fn new(spec: &CampaignSpec, enabled: bool) -> Self {
        let synthetic = matches!(spec.workload, WorkloadSpec::Synthetic { .. });
        let algorithms = spec.algorithms.len();
        let overheads = spec.effective_overheads().len();
        let heuristics = spec.effective_partition_heuristics().len();
        // Scenarios sharing one workload point all draw the same task
        // set — one generation read per (algorithm, overhead, heuristic)
        // combination; the partition is additionally shared across
        // algorithms and overheads (it depends only on the set and the
        // heuristic), so each partition key is read once per
        // (algorithm, overhead) combination.
        let gen_uses = algorithms * overheads * heuristics;
        let partition_uses = algorithms * overheads;
        TrialCaches {
            design: TrialDesignCache::new(enabled).with_stats(|m| &m.design_cache),
            gen: MemoCache::with_limits(
                enabled && synthetic && gen_uses > 1,
                gen_uses,
                SYNTHETIC_CACHE_CAPACITY,
            )
            .with_stats(|m| &m.generation_cache),
            partition: MemoCache::with_limits(
                enabled && synthetic && partition_uses > 1,
                partition_uses,
                SYNTHETIC_CACHE_CAPACITY,
            )
            .with_stats(|m| &m.partition_cache),
        }
    }
}

/// Computes the deterministic prefix of a Paper-workload trial.
fn paper_prefix(spec: &CampaignSpec, scenario: &Scenario) -> PaperPrefix {
    let (tasks, partition) = ftsched_task::examples::paper_example();
    let problem = match DesignProblem::with_total_overhead(
        tasks,
        partition,
        scenario.overhead,
        scenario.algorithm,
    ) {
        Ok(p) => p,
        Err(_) => {
            return PaperPrefix {
                baselines: None,
                stage: PaperStage::ProblemInvalid,
            }
        }
    };
    let region = spec.region_config(&problem);
    // One point-set enumeration serves the baseline comparison and the
    // design search alike.
    let ctx = problem
        .analysis_context()
        .expect("a validated problem always yields a context");

    let baselines = spec.compare_baselines.then(|| {
        let cmp = compare_schemes_with(&problem, &ctx, &region)
            .expect("compare_schemes is infallible on a validated problem");
        BaselineVerdicts {
            flexible: cmp.flexible,
            static_lockstep: cmp.static_lockstep,
            static_parallel: cmp.static_parallel,
            primary_backup: cmp.primary_backup,
        }
    });

    let stage = match spec.kind {
        TrialKind::DesignOnly => {
            let feasible = match &baselines {
                // `compare_schemes` already answered the feasibility
                // question; don't sweep the region twice.
                Some(b) => b.flexible,
                None => max_feasible_period_with(&ctx, &region).is_ok(),
            };
            PaperStage::DesignOnly { feasible }
        }
        TrialKind::DesignAndValidate => {
            match design_stage_with(&problem, &ctx, spec.goal, &region, spec.slack_policy) {
                Ok((solution, slots)) => {
                    let wcet_margin = spec.wcet_margin.map(|m| {
                        wcet_scaling_margin_with(&ctx, solution.period, m.tolerance)
                            .expect("a designed period always admits a margin search")
                    });
                    PaperStage::Designed(Box::new(DesignedStage {
                        problem,
                        solution,
                        slots,
                        wcet_margin,
                    }))
                }
                Err(PipelineError::Design(_)) => PaperStage::DesignRejected,
                Err(PipelineError::Simulation(_)) => PaperStage::SlotsFailed,
            }
        }
    };
    PaperPrefix { baselines, stage }
}

/// Runs one trial. See the module docs for the determinism contract.
pub fn run_trial(spec: &CampaignSpec, scenario: &Scenario, trial: usize) -> TrialOutcome {
    let (outcome, _) = run_trial_full(spec, scenario, trial);
    outcome
}

/// Runs one trial and also returns the full [`PipelineOutcome`] for
/// accepted `DesignAndValidate` trials (used by reproduction tests and
/// debugging tools; campaigns keep only the compact summary).
pub fn run_trial_full(
    spec: &CampaignSpec,
    scenario: &Scenario,
    trial: usize,
) -> (TrialOutcome, Option<PipelineOutcome>) {
    let mut arena = SimArena::new();
    run_trial_inner(spec, scenario, trial, None, &mut arena, false)
}

/// [`run_trial_full`] with full execution tracing: the returned
/// [`PipelineOutcome`]'s simulation report carries the complete
/// [`Trace`](ftsched_sim::trace::Trace) (every slot boundary, execution slice
/// and job record) for accepted `DesignAndValidate` trials.
///
/// This is the single-trial inspection path (`ftsched inspect`):
/// campaigns never record traces — a trace over a whole grid would dwarf
/// the report — but any (scenario, trial) coordinate from a report can be
/// re-run through here and dissected slice by slice.
pub fn run_trial_traced(
    spec: &CampaignSpec,
    scenario: &Scenario,
    trial: usize,
) -> (TrialOutcome, Option<PipelineOutcome>) {
    let mut arena = SimArena::new();
    run_trial_inner(spec, scenario, trial, None, &mut arena, true)
}

/// The campaign executor's entry point: shared [`TrialCaches`] plus a
/// per-worker [`SimArena`]. Produces exactly the outcome of
/// [`run_trial`] — the caches and the arena change only how much work is
/// redone, never the result.
pub(crate) fn run_trial_with(
    spec: &CampaignSpec,
    scenario: &Scenario,
    trial: usize,
    caches: &TrialCaches,
    arena: &mut SimArena,
) -> TrialOutcome {
    run_trial_inner(spec, scenario, trial, Some(caches), arena, false).0
}

fn run_trial_inner(
    spec: &CampaignSpec,
    scenario: &Scenario,
    trial: usize,
    caches: Option<&TrialCaches>,
    arena: &mut SimArena,
    record_trace: bool,
) -> (TrialOutcome, Option<PipelineOutcome>) {
    // Seeds key on the workload coordinate so every non-workload axis is
    // paired (same task sets, same fault draws) — see
    // `Scenario::workload_point`.
    let seed = trial_seed(spec.master_seed, scenario.workload_point, trial);
    let mut rng = StdRng::seed_from_u64(seed);
    let finish = |status: TrialStatus,
                  baselines: Option<BaselineVerdicts>,
                  sim: Option<SimSummary>| TrialOutcome {
        scenario: scenario.index,
        trial,
        seed,
        status,
        baselines,
        sim,
    };

    // The paper workload consumes no randomness before the fault draw, so
    // its whole design prefix is a pure function of (spec, scenario) and
    // goes through the design cache.
    if matches!(spec.workload, WorkloadSpec::Paper) {
        // One request per trial — a pure function of the spec, unlike the
        // hit/miss split, which depends on worker interleaving.
        ftsched_obs::record(|m| m.design_cache_requests.incr());
        let key = DesignKey::new(
            scenario.workload_point,
            scenario.algorithm,
            scenario.overhead,
        );
        let prefix: Arc<PaperPrefix> = match caches {
            Some(caches) => caches
                .design
                .get_or_compute(key, || paper_prefix(spec, scenario)),
            None => Arc::new(paper_prefix(spec, scenario)),
        };
        let baselines = prefix.baselines;
        return match &prefix.stage {
            PaperStage::ProblemInvalid => (finish(TrialStatus::PartitionFailed, None, None), None),
            PaperStage::DesignOnly { feasible } => {
                let status = if *feasible {
                    TrialStatus::Accepted
                } else {
                    TrialStatus::DesignRejected
                };
                (finish(status, baselines, None), None)
            }
            PaperStage::DesignRejected => {
                (finish(TrialStatus::DesignRejected, baselines, None), None)
            }
            PaperStage::SlotsFailed => {
                (finish(TrialStatus::SimulationFailed, baselines, None), None)
            }
            PaperStage::Designed(designed) => {
                let DesignedStage {
                    problem,
                    solution,
                    slots,
                    wcet_margin,
                } = designed.as_ref();
                // Per-trial remainder: fault schedule over the exact
                // simulation horizon, then the validation stage.
                let hyperperiod = problem.tasks.hyperperiod();
                let horizon = hyperperiod * spec.horizon_hyperperiods.max(1) as f64;
                let faults: FaultSchedule =
                    spec.faults.schedule(&mut rng, Time::from_units(horizon));
                let injected = faults.len() as u64;
                let config = PipelineConfig {
                    region: spec.region_config(problem),
                    slack_policy: spec.slack_policy,
                    horizon_hyperperiods: spec.horizon_hyperperiods,
                    fault_schedule: faults,
                    record_trace,
                    record_response_times: spec.response_histogram.is_some()
                        || spec.latency_curves.is_some(),
                };
                match validate_stage(problem, solution, slots, &config, arena) {
                    Ok(outcome) => {
                        let sim = SimSummary::from_report(
                            &outcome,
                            &problem.tasks,
                            injected,
                            spec.response_histogram,
                            *wcet_margin,
                            spec.latency_curves,
                        );
                        (
                            finish(TrialStatus::Accepted, baselines, Some(sim)),
                            Some(outcome),
                        )
                    }
                    Err(_) => (finish(TrialStatus::SimulationFailed, baselines, None), None),
                }
            }
        };
    }

    // 1. Workload. The RNG is consumed in a fixed order (task set first,
    //    fault schedule second) — do not reorder. The generation cache
    //    stores the post-draw RNG state, so cached trials resume the
    //    stream exactly where uncached ones would.
    let config = spec
        .workload
        .generator_config(scenario.utilization.unwrap_or(1.0))
        .expect("synthetic workloads have generator configs");
    ftsched_obs::record(|m| m.generation_cache_requests.incr());
    let gen_span = ftsched_obs::time(ftsched_obs::Stage::Generation);
    let tasks: Option<TaskSet> = match caches.filter(|c| c.gen.enabled()) {
        Some(c) => {
            let prefix = c.gen.get_or_compute((scenario.workload_point, trial), || {
                let mut fresh = rng.clone();
                let tasks = generate_taskset(&mut fresh, &config).ok();
                GenPrefix { tasks, rng: fresh }
            });
            rng = prefix.rng.clone();
            prefix.tasks.clone()
        }
        None => generate_taskset(&mut rng, &config).ok(),
    };
    drop(gen_span);
    let Some(tasks) = tasks else {
        return (finish(TrialStatus::GenerationFailed, None, None), None);
    };

    // 2. Partition (shared across the algorithm and overhead axes via the
    //    task set's content hash). Baselines that ignore the partition
    //    are still evaluated when partitioning fails.
    let heuristic = scenario.partition_heuristic;
    ftsched_obs::record(|m| m.partition_cache_requests.incr());
    let partition_span = ftsched_obs::time(ftsched_obs::Stage::Partition);
    let partition: Option<SystemPartition> = match caches.filter(|c| c.partition.enabled()) {
        Some(c) => {
            let key = PartitionKey {
                taskset_hash: tasks.content_hash(),
                heuristic,
            };
            let entry = c.partition.get_or_compute(key, || PartitionEntry {
                tasks: tasks.clone(),
                partition: partition_system(&tasks, heuristic).ok(),
            });
            if entry.tasks == tasks {
                ftsched_obs::record(|m| m.partition_cache.verified_hits.incr());
                entry.partition.clone()
            } else {
                // 64-bit content-hash collision: recompute rather than
                // trust the wrong set's partition.
                partition_system(&tasks, heuristic).ok()
            }
        }
        None => partition_system(&tasks, heuristic).ok(),
    };
    drop(partition_span);
    let partition = match partition {
        Some(p) => p,
        None => {
            let baselines = spec.compare_baselines.then(|| BaselineVerdicts {
                flexible: false,
                static_lockstep: ftsched_design::baseline::static_lockstep_schedulable(
                    &tasks,
                    scenario.algorithm,
                ),
                static_parallel: ftsched_design::baseline::static_parallel_schedulable(
                    &tasks,
                    scenario.algorithm,
                ),
                primary_backup: ftsched_design::baseline::primary_backup_schedulable(
                    &tasks,
                    scenario.algorithm,
                ),
            });
            return (finish(TrialStatus::PartitionFailed, baselines, None), None);
        }
    };

    let problem = match DesignProblem::with_total_overhead(
        tasks,
        partition,
        scenario.overhead,
        scenario.algorithm,
    ) {
        Ok(p) => p,
        Err(_) => return (finish(TrialStatus::PartitionFailed, None, None), None),
    };
    let region = spec.region_config(&problem);
    // One point-set enumeration serves the baseline comparison and the
    // design search alike.
    let ctx = problem
        .analysis_context()
        .expect("a validated problem always yields a context");

    let baselines = spec.compare_baselines.then(|| {
        let cmp = compare_schemes_with(&problem, &ctx, &region)
            .expect("compare_schemes is infallible on a validated problem");
        BaselineVerdicts {
            flexible: cmp.flexible,
            static_lockstep: cmp.static_lockstep,
            static_parallel: cmp.static_parallel,
            primary_backup: cmp.primary_backup,
        }
    });

    match spec.kind {
        TrialKind::DesignOnly => {
            let feasible = match &baselines {
                // `compare_schemes` already answered the feasibility
                // question; don't sweep the region twice.
                Some(b) => b.flexible,
                None => max_feasible_period_with(&ctx, &region).is_ok(),
            };
            let status = if feasible {
                TrialStatus::Accepted
            } else {
                TrialStatus::DesignRejected
            };
            (finish(status, baselines, None), None)
        }
        TrialKind::DesignAndValidate => {
            // 3. Fault schedule over the exact simulation horizon the
            //    pipeline will use.
            let hyperperiod = problem.tasks.hyperperiod();
            let horizon = hyperperiod * spec.horizon_hyperperiods.max(1) as f64;
            let faults: FaultSchedule = spec.faults.schedule(&mut rng, Time::from_units(horizon));
            let injected = faults.len() as u64;
            let config = PipelineConfig {
                region,
                slack_policy: spec.slack_policy,
                horizon_hyperperiods: spec.horizon_hyperperiods,
                fault_schedule: faults,
                record_trace,
                record_response_times: spec.response_histogram.is_some()
                    || spec.latency_curves.is_some(),
            };
            let designed = design_stage_with(
                &problem,
                &ctx,
                spec.goal,
                &config.region,
                config.slack_policy,
            );
            match designed.and_then(|(solution, slots)| {
                validate_stage(&problem, &solution, &slots, &config, arena).map(|outcome| {
                    // Only accepted trials report a margin, so the search
                    // runs after validation succeeds. It reuses the
                    // trial's context: the point sets were enumerated
                    // once, each probe only rescales W(t).
                    let wcet_margin = spec.wcet_margin.map(|m| {
                        wcet_scaling_margin_with(&ctx, solution.period, m.tolerance)
                            .expect("a designed period always admits a margin search")
                    });
                    (outcome, wcet_margin)
                })
            }) {
                Ok((outcome, wcet_margin)) => {
                    let sim = SimSummary::from_report(
                        &outcome,
                        &problem.tasks,
                        injected,
                        spec.response_histogram,
                        wcet_margin,
                        spec.latency_curves,
                    );
                    (
                        finish(TrialStatus::Accepted, baselines, Some(sim)),
                        Some(outcome),
                    )
                }
                Err(PipelineError::Design(_)) => {
                    (finish(TrialStatus::DesignRejected, baselines, None), None)
                }
                Err(PipelineError::Simulation(_)) => {
                    (finish(TrialStatus::SimulationFailed, baselines, None), None)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use ftsched_analysis::Algorithm;

    fn validate_spec() -> CampaignSpec {
        CampaignSpec {
            kind: TrialKind::DesignAndValidate,
            faults: ftsched_platform::FaultModel::Poisson {
                mean_interarrival: 8.0,
                fault_duration: 0.25,
            },
            horizon_hyperperiods: 1,
            trials_per_scenario: 3,
            ..CampaignSpec::base("trial-test")
        }
    }

    #[test]
    fn paper_trial_reproduces_table_2b() {
        let spec = CampaignSpec {
            workload: WorkloadSpec::Paper,
            utilizations: vec![],
            ..validate_spec()
        };
        let scenario = spec.scenarios()[0];
        let (outcome, full) = run_trial_full(&spec, &scenario, 0);
        assert_eq!(outcome.status, TrialStatus::Accepted);
        let sim = outcome
            .sim
            .expect("accepted validation trials carry a summary");
        assert!((sim.period - 2.966).abs() < 0.01, "period {}", sim.period);
        assert_eq!(sim.deadline_misses, 0);
        assert!(full.is_some());
    }

    #[test]
    fn trials_are_reproducible() {
        let spec = validate_spec();
        let scenario = spec.scenarios()[0];
        let (a, full_a) = run_trial_full(&spec, &scenario, 1);
        let (b, full_b) = run_trial_full(&spec, &scenario, 1);
        assert_eq!(a, b);
        assert_eq!(full_a, full_b);
        let (c, _) = run_trial_full(&spec, &scenario, 2);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn design_only_trials_carry_no_simulation() {
        let spec = CampaignSpec {
            kind: TrialKind::DesignOnly,
            compare_baselines: true,
            algorithms: vec![Algorithm::EarliestDeadlineFirst],
            ..CampaignSpec::base("design-only")
        };
        let scenario = spec.scenarios()[0];
        let outcome = run_trial(&spec, &scenario, 0);
        assert!(outcome.sim.is_none());
        assert!(outcome.baselines.is_some());
        assert!(matches!(
            outcome.status,
            TrialStatus::Accepted | TrialStatus::DesignRejected | TrialStatus::PartitionFailed
        ));
    }

    #[test]
    fn overloaded_scenarios_are_rejected_not_crashed() {
        let spec = CampaignSpec {
            utilizations: vec![12.5], // far beyond 4 processors
            kind: TrialKind::DesignOnly,
            ..CampaignSpec::base("overload")
        };
        let scenario = spec.scenarios()[0];
        let outcome = run_trial(&spec, &scenario, 0);
        assert_ne!(outcome.status, TrialStatus::Accepted);
    }

    #[test]
    fn histogram_trials_carry_per_task_response_histograms() {
        let spec = CampaignSpec {
            response_histogram: Some(ResponseHistogramSpec {
                bin_width: 0.5,
                bins: 64,
            }),
            ..validate_spec()
        };
        let scenario = spec.scenarios()[0];
        let (outcome, _) = run_trial_full(&spec, &scenario, 0);
        if outcome.status == TrialStatus::Accepted {
            let sim = outcome.sim.unwrap();
            let response = sim.response.expect("histograms were requested");
            assert!(!response.is_empty());
            // Sorted by task id, one entry per task that completed jobs,
            // counts matching the completions.
            assert!(response.windows(2).all(|w| w[0].task < w[1].task));
            let total: u64 = response.iter().map(|r| r.histogram.total()).sum();
            assert_eq!(total, sim.completed_jobs);
        }
        // Without the spec field, no histograms are collected.
        let bare = run_trial(&validate_spec(), &scenario, 0);
        if let Some(sim) = bare.sim {
            assert!(sim.response.is_none());
        }
    }

    #[test]
    fn latency_trials_pool_deadline_relative_response_times() {
        let spec = CampaignSpec {
            latency_curves: Some(LatencyCurveSpec {
                bin_width: 0.03125,
                bins: 64,
            }),
            ..validate_spec()
        };
        let scenario = spec.scenarios()[0];
        let (outcome, _) = run_trial_full(&spec, &scenario, 0);
        if outcome.status == TrialStatus::Accepted {
            let sim = outcome.sim.unwrap();
            let curve = sim.latency.expect("latency curves were requested");
            // One observation per completed job, pooled over all tasks.
            assert_eq!(curve.samples(), sim.completed_jobs);
            // The per-task raw histograms were NOT requested.
            assert!(sim.response.is_none());
            assert!(curve.p50() <= curve.p95() && curve.p95() <= curve.p99());
        }
        // Without the spec block, no curve is collected.
        let bare = run_trial(&validate_spec(), &scenario, 0);
        if let Some(sim) = bare.sim {
            assert!(sim.latency.is_none());
        }
    }

    #[test]
    fn cached_synthetic_trials_match_uncached_ones() {
        // The gen/partition caches must be a pure optimisation: identical
        // outcomes per trial, across every axis combination.
        let spec = CampaignSpec {
            algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
            overheads: vec![0.02, 0.08],
            partition_heuristics: vec![
                ftsched_design::partitioner::PartitionHeuristic::FirstFitDecreasing,
                ftsched_design::partitioner::PartitionHeuristic::WorstFitDecreasing,
            ],
            utilizations: vec![0.8, 1.6],
            ..validate_spec()
        };
        let caches = TrialCaches::new(&spec, true);
        assert!(caches.gen.enabled() && caches.partition.enabled());
        let mut arena = SimArena::new();
        for scenario in &spec.scenarios() {
            for trial in 0..spec.trials_per_scenario {
                let cached = run_trial_with(&spec, scenario, trial, &caches, &mut arena);
                let uncached = run_trial(&spec, scenario, trial);
                assert_eq!(
                    cached, uncached,
                    "scenario {} trial {trial}",
                    scenario.index
                );
            }
            if scenario.index == 0 {
                // Mid-campaign the generation cache holds the first
                // scenario's trials (one entry per trial index)...
                assert_eq!(caches.gen.len(), spec.trials_per_scenario);
            }
        }
        // ...and once every scenario sharing a key has taken its
        // budgeted read, the entries are evicted: campaign size does not
        // pin cache memory.
        assert!(caches.gen.is_empty());
        assert!(caches.partition.is_empty());
    }

    #[test]
    fn single_column_grids_disable_the_synthetic_caches() {
        let spec = CampaignSpec {
            algorithms: vec![Algorithm::EarliestDeadlineFirst],
            ..validate_spec()
        };
        let caches = TrialCaches::new(&spec, true);
        assert!(caches.design.enabled());
        assert!(!caches.gen.enabled());
        assert!(!caches.partition.enabled());
    }
}

//! The per-trial kernel: one seeded workload through the
//! design(-and-validate) pipeline.
//!
//! A trial is a pure function of `(spec, scenario, trial_index)`: it
//! derives its seed with [`crate::seed::trial_seed`], draws the workload
//! and the fault schedule from one RNG in a fixed order, and runs either
//! the feasibility check or the full [`ftsched_core::design_and_validate`]
//! pipeline. Re-running a trial with the coordinates recorded in a report
//! reproduces its outcome exactly.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ftsched_analysis::Algorithm;
use ftsched_core::pipeline::{
    design_stage_at, validation_horizon, validation_span, PipelineError, PipelineOutcome,
};
use ftsched_design::baseline::{compare_static_schemes, BaselineComparison};
use ftsched_design::goals::goal_period_with;
use ftsched_design::partitioner::partition_system;
use ftsched_design::problem::DesignProblem;
use ftsched_design::region::last_feasible_period_with;
use ftsched_design::sensitivity::wcet_scaling_margin_with;
use ftsched_design::{AnalysisContext, DesignGoal, DesignSolution};
use ftsched_obs::Stage;
use ftsched_platform::FaultSchedule;
use ftsched_sim::report::OutcomeCounts;
use ftsched_sim::{Schedule, ScheduleConfig, SimArena, SimError, SlotSchedule};
use ftsched_task::generator::{generate_taskset, GeneratorConfig};
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
    /// The fault-free part of every summary of one design: everything
    /// but the fault counts, which `classify_trial` fills per draw.
    fn fault_free(
        solution: &DesignSolution,
        schedule: &Schedule,
        tasks: &TaskSet,
        histogram: Option<ResponseHistogramSpec>,
        wcet_margin: Option<f64>,
        latency_spec: Option<LatencyCurveSpec>,
    ) -> Self {
        let recorded = schedule.response_times();
        let response = histogram.map(|spec| {
            recorded
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
        // the per-trial synthetic path allocates nothing.
        let latency = latency_spec.map(|spec| {
            let mut curve = LatencyCurve::new(spec);
            for (task, times) in recorded.into_iter().flatten() {
                let Some(deadline) = tasks.get(*task).map(|t| t.deadline) else {
                    continue;
                };
                for &rt in times {
                    curve.observe(rt / deadline);
                }
            }
            curve
        });
        SimSummary {
            period: solution.period,
            slack_bandwidth: solution.slack_bandwidth(),
            overhead_bandwidth: solution.overhead_bandwidth(),
            released_jobs: schedule.released_jobs(),
            completed_jobs: schedule.completed_jobs(),
            deadline_misses: schedule.deadline_misses(),
            injected_faults: 0,
            effective_faults: 0,
            outcomes: PerMode::splat(OutcomeCounts::default()),
            max_response_time: schedule
                .worst_response_times()
                .values()
                .fold(0.0_f64, |acc, &rt| acc.max(rt)),
            response,
            wcet_margin,
            latency,
        }
    }
}

/// A Paper design's fault-independent validation, shared by every fault
/// draw of its trials: the schedule over the trial horizon and the
/// fault-free part of each trial's summary.
#[derive(Debug)]
struct Validation {
    schedule: Schedule,
    summary: SimSummary,
}

/// Applies one trial's fault draw to a design's schedule: fills the fault
/// counts into the design's fault-free `summary`, and also returns the
/// full pipeline outcome when `full` carries the design.
fn classify_trial(
    schedule: &Schedule,
    mut summary: SimSummary,
    faults: &FaultSchedule,
    full: Option<(&DesignSolution, &SlotSchedule)>,
    arena: &mut SimArena,
) -> (SimSummary, Option<PipelineOutcome>) {
    summary.injected_faults = faults.len() as u64;
    let outcome = match full {
        Some((solution, slots)) => {
            let simulation = schedule.report(faults, arena);
            summary.outcomes = simulation.outcomes;
            summary.effective_faults = simulation.effective_faults;
            Some(PipelineOutcome {
                solution: solution.clone(),
                slots: slots.clone(),
                simulation,
            })
        }
        None => {
            let classified = schedule.classify(faults, arena);
            summary.outcomes = classified.outcomes;
            summary.effective_faults = classified.effective_faults;
            None
        }
    };
    (summary, outcome)
}

/// Builds the schedule of a designed trial over the spec's horizon,
/// recording the response times its metrics need, plus the trace when
/// asked.
fn build_schedule(
    spec: &CampaignSpec,
    problem: &DesignProblem,
    slots: &SlotSchedule,
    record_trace: bool,
    arena: &mut SimArena,
) -> Result<Schedule, SimError> {
    let config = ScheduleConfig {
        horizon: validation_horizon(problem, spec.horizon_hyperperiods),
        record_trace,
        record_response_times: spec.response_histogram.is_some() || spec.latency_curves.is_some(),
    };
    Schedule::build(
        &problem.tasks,
        &problem.partition,
        problem.algorithm,
        slots,
        &config,
        arena,
    )
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

impl From<BaselineComparison> for BaselineVerdicts {
    fn from(cmp: BaselineComparison) -> Self {
        BaselineVerdicts {
            flexible: cmp.flexible,
            static_lockstep: cmp.static_lockstep,
            static_parallel: cmp.static_parallel,
            primary_backup: cmp.primary_backup,
        }
    }
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

/// The deterministic design prefix of one trial: problem construction,
/// analysis context, baseline verdicts and the design stage with its
/// WCET margin. Paper trials cache it per scenario in the
/// [`DesignCache`]; synthetic trials compute it per trial from the
/// [`SharedAnalysis`] of their task set.
#[derive(Debug)]
struct DesignPrefix {
    baselines: Option<BaselineVerdicts>,
    stage: DesignStage,
}

/// Where the design prefix stopped; each variant maps to one trial
/// status.
#[derive(Debug)]
enum DesignStage {
    /// Problem construction failed.
    ProblemInvalid,
    /// A [`TrialKind::DesignOnly`] campaign found a feasible period.
    Feasible,
    /// The feasible-period region of Eq. 15 is empty for the overhead,
    /// or the goal's period does not fit.
    Rejected,
    /// Design-stage result of a [`TrialKind::DesignAndValidate`]
    /// campaign; the rest of the trial is fault draw and classification.
    /// Boxed: this variant dwarfs the tag-only ones.
    Designed(Box<Designed>),
    /// Slot-schedule construction failed (cannot happen for consistent
    /// designs).
    SlotsFailed,
}

/// The output of one trial's design stage.
#[derive(Debug)]
struct Designed {
    problem: DesignProblem,
    solution: DesignSolution,
    slots: SlotSchedule,
    /// WCET-scaling margin at the chosen period, when the spec's
    /// `wcet_margin` metric is enabled.
    wcet_margin: Option<f64>,
}

/// The cached prefix of a `WorkloadSpec::Paper` trial: a pure function of
/// `(spec, scenario)`, since the paper workload draws nothing before its
/// faults, which never change a schedule.
#[derive(Debug)]
pub(crate) struct PaperPrefix {
    design: DesignPrefix,
    /// The design's schedule and fault-free summary, shared by every
    /// fault draw; `None` when nothing was designed or the simulator
    /// rejected the design.
    validation: Option<Validation>,
}

/// Where a designed trial's schedule comes from.
#[derive(Clone, Copy)]
enum ScheduleSource<'a> {
    /// The paper prefix's shared one (`None`: the simulator rejected it).
    Shared(Option<&'a Validation>),
    /// Built for this trial alone.
    Own,
}

/// The design-cache type campaigns share across workers.
pub(crate) type TrialDesignCache = DesignCache<PaperPrefix>;

/// One lazily computed value per scheduling algorithm, built by the
/// first trial that asks for it and read by every later one.
#[derive(Debug)]
struct PerAlgorithm<T>([OnceLock<T>; Algorithm::ALL.len()]);

impl<T> Default for PerAlgorithm<T> {
    fn default() -> Self {
        PerAlgorithm(std::array::from_fn(|_| OnceLock::new()))
    }
}

impl<T> PerAlgorithm<T> {
    fn get_or_init(&self, algorithm: Algorithm, init: impl FnOnce() -> T) -> &T {
        self.0[algorithm as usize].get_or_init(init)
    }
}

/// The deterministic generation stage of one synthetic trial: the task
/// set (or `None` for a generation failure) and the RNG state *after*
/// the draw, so cached trials resume the stream exactly where an
/// uncached trial would. It also carries what every scenario of the set
/// derives from the set alone: its content hash (the partition cache's
/// key) and the static baseline verdicts per algorithm.
#[derive(Debug)]
pub(crate) struct GenPrefix {
    tasks: Option<TaskSet>,
    rng: StdRng,
    content_hash: OnceLock<u64>,
    /// [`compare_static_schemes`] with `flexible` left false; each trial
    /// sets its own flexible verdict.
    static_verdicts: PerAlgorithm<BaselineVerdicts>,
}

impl GenPrefix {
    /// Draws a task set from a copy of `rng`.
    fn draw(rng: &StdRng, config: &GeneratorConfig) -> Self {
        let mut rng = rng.clone();
        let tasks = generate_taskset(&mut rng, config).ok();
        GenPrefix {
            tasks,
            rng,
            content_hash: OnceLock::new(),
            static_verdicts: PerAlgorithm::default(),
        }
    }

    fn content_hash(&self, tasks: &TaskSet) -> u64 {
        *self.content_hash.get_or_init(|| tasks.content_hash())
    }
}

/// The partition of one generated task set under one heuristic, stored
/// with the set itself so content-hash collisions are detected by `==`
/// instead of silently reusing a wrong partition. It also carries the
/// analysis context of the partitioned set per algorithm, which every
/// overhead of the set shares.
#[derive(Debug)]
pub(crate) struct PartitionEntry {
    tasks: TaskSet,
    partition: Option<SystemPartition>,
    contexts: PerAlgorithm<AnalysisContext>,
}

/// What one synthetic trial's design prefix reads from the analysis its
/// task set shares with the other scenarios of the grid: with the caches
/// on, the generation and partition entries hold it; without them, the
/// trial owns a fresh one.
struct SharedAnalysis<'a> {
    /// Static baseline verdicts per algorithm (they depend on the task
    /// set alone).
    static_verdicts: &'a PerAlgorithm<BaselineVerdicts>,
    /// The analysis context per algorithm: its sweeps depend on the
    /// channel task sets, not on the overhead, which each trial sets
    /// with [`AnalysisContext::with_overheads`].
    contexts: &'a PerAlgorithm<AnalysisContext>,
}

impl SharedAnalysis<'_> {
    /// The baseline verdicts of `tasks` under `algorithm`, with the
    /// trial's own flexible verdict.
    fn baselines(&self, tasks: &TaskSet, algorithm: Algorithm, flexible: bool) -> BaselineVerdicts {
        let statics = self.static_verdicts.get_or_init(algorithm, || {
            compare_static_schemes(tasks, algorithm, false).into()
        });
        BaselineVerdicts {
            flexible,
            ..*statics
        }
    }
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
    /// Whether partition entries keep their analysis contexts: only a
    /// grid with several overheads reads one context more than once.
    share_contexts: bool,
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
        // A grid whose only shared axis is the algorithm reads each set
        // once per algorithm, and a hit there (clone, hash, compare, two
        // locks) costs about what regenerating and repartitioning the
        // set does, so both caches wait for an overhead or heuristic
        // axis.
        let synthetic = synthetic && overheads * heuristics > 1;
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
            share_contexts: overheads > 1,
        }
    }
}

/// The design-cache key of a Paper-workload scenario.
fn design_key(scenario: &Scenario) -> DesignKey {
    DesignKey::new(
        scenario.workload_point,
        scenario.algorithm,
        scenario.overhead,
    )
}

/// Computes the design prefixes of `scenarios` into the design cache
/// ahead of their trials (a no-op unless the spec is a Paper workload
/// and the cache is enabled). Campaign executors call this on the thread
/// that owns the run, so the shared schedules are allocated there rather
/// than in every worker's heap.
pub(crate) fn prime_design_cache(
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    caches: &TrialCaches,
) {
    if !matches!(spec.workload, WorkloadSpec::Paper) || !caches.design.enabled() {
        return;
    }
    let mut arena = SimArena::new();
    for scenario in scenarios {
        caches.design.get_or_compute(design_key(scenario), || {
            paper_prefix(spec, scenario, false, &mut arena)
        });
    }
}

/// Computes the cached prefix of a Paper-workload trial.
fn paper_prefix(
    spec: &CampaignSpec,
    scenario: &Scenario,
    record_trace: bool,
    arena: &mut SimArena,
) -> PaperPrefix {
    let (tasks, partition) = ftsched_task::examples::paper_example();
    let shared = SharedAnalysis {
        static_verdicts: &PerAlgorithm::default(),
        contexts: &PerAlgorithm::default(),
    };
    let design = design_prefix(spec, scenario, tasks, partition, shared);
    let validation = match &design.stage {
        DesignStage::Designed(designed) => validation(spec, designed, record_trace, arena).ok(),
        _ => None,
    };
    PaperPrefix { design, validation }
}

/// Computes the design prefix of one trial, all inside one design span.
///
/// The analysis context comes from `shared` (built there by the first
/// trial of the set, partition and algorithm), and the feasible-period
/// search runs at most once: its result is the flexible-scheme verdict,
/// the `DesignOnly` verdict and, under `MinimizeOverheadBandwidth`, the
/// design's period or its rejection. A rejection skips the peak search
/// that only the search's error would report.
fn design_prefix(
    spec: &CampaignSpec,
    scenario: &Scenario,
    tasks: TaskSet,
    partition: SystemPartition,
    shared: SharedAnalysis<'_>,
) -> DesignPrefix {
    let _span = ftsched_obs::time(Stage::Design);
    let Ok(problem) =
        DesignProblem::with_total_overhead(tasks, partition, scenario.overhead, scenario.algorithm)
    else {
        return DesignPrefix {
            baselines: None,
            stage: DesignStage::ProblemInvalid,
        };
    };
    let region = spec.region_config(&problem);
    let ctx = shared
        .contexts
        .get_or_init(problem.algorithm, || {
            problem
                .analysis_context()
                .expect("a validated problem always yields a context")
        })
        .with_overheads(problem.overheads);
    let design_only = matches!(spec.kind, TrialKind::DesignOnly);
    let min_overhead = matches!(spec.goal, DesignGoal::MinimizeOverheadBandwidth);
    let search = (spec.compare_baselines || design_only || min_overhead)
        .then(|| last_feasible_period_with(&ctx, &region).ok().flatten());
    let feasible = matches!(search, Some(Some(_)));
    let baselines = spec
        .compare_baselines
        .then(|| shared.baselines(&problem.tasks, problem.algorithm, feasible));
    if design_only {
        return DesignPrefix {
            baselines,
            stage: if feasible {
                DesignStage::Feasible
            } else {
                DesignStage::Rejected
            },
        };
    }

    ftsched_obs::record(|m| m.design_stage_runs.incr());
    let period = match search {
        Some(Some(period)) if min_overhead => Ok(period),
        // No sample is feasible, so the goal's own search (the same scan
        // for the slack goal) would reject too; only a fixed period can
        // still fit.
        Some(None) if !matches!(spec.goal, DesignGoal::FixedPeriod(_)) => {
            return DesignPrefix {
                baselines,
                stage: DesignStage::Rejected,
            }
        }
        _ => goal_period_with(&ctx, spec.goal, &region),
    };
    let designed = period
        .map_err(PipelineError::from)
        .and_then(|period| design_stage_at(&problem, &ctx, spec.goal, period, spec.slack_policy));
    let stage = match designed {
        Ok((solution, slots)) => {
            let wcet_margin = spec.wcet_margin.map(|m| {
                wcet_scaling_margin_with(&ctx, solution.period, m.tolerance)
                    .expect("a designed period always admits a margin search")
            });
            DesignStage::Designed(Box::new(Designed {
                problem,
                solution,
                slots,
                wcet_margin,
            }))
        }
        Err(PipelineError::Design(_)) => DesignStage::Rejected,
        Err(PipelineError::Simulation(_)) => DesignStage::SlotsFailed,
    };
    DesignPrefix { baselines, stage }
}

/// Builds a design's schedule and the fault-free part of its trials'
/// summaries.
fn validation(
    spec: &CampaignSpec,
    designed: &Designed,
    record_trace: bool,
    arena: &mut SimArena,
) -> Result<Validation, SimError> {
    let schedule = build_schedule(
        spec,
        &designed.problem,
        &designed.slots,
        record_trace,
        arena,
    )?;
    Ok(Validation {
        summary: SimSummary::fault_free(
            &designed.solution,
            &schedule,
            &designed.problem.tasks,
            spec.response_histogram,
            designed.wcet_margin,
            spec.latency_curves,
        ),
        schedule,
    })
}

/// How much of an accepted `DesignAndValidate` trial its caller keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Detail {
    /// The compact [`SimSummary`] only (campaigns).
    Summary,
    /// The full [`PipelineOutcome`] too.
    Outcome,
    /// The full outcome with the simulation's execution trace.
    Traced,
}

/// Runs one trial. See the module docs for the determinism contract.
pub fn run_trial(spec: &CampaignSpec, scenario: &Scenario, trial: usize) -> TrialOutcome {
    let mut arena = SimArena::new();
    run_trial_inner(spec, scenario, trial, None, &mut arena, Detail::Summary).0
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
    run_trial_inner(spec, scenario, trial, None, &mut arena, Detail::Outcome)
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
    run_trial_inner(spec, scenario, trial, None, &mut arena, Detail::Traced)
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
    run_trial_inner(spec, scenario, trial, Some(caches), arena, Detail::Summary).0
}

fn run_trial_inner(
    spec: &CampaignSpec,
    scenario: &Scenario,
    trial: usize,
    caches: Option<&TrialCaches>,
    arena: &mut SimArena,
    detail: Detail,
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
    let record_trace = detail == Detail::Traced;

    // The paper workload consumes no randomness before the fault draw, so
    // its whole design prefix — the schedule included, since faults never
    // change it — is a pure function of (spec, scenario) and goes through
    // the design cache.
    if matches!(spec.workload, WorkloadSpec::Paper) {
        // One request per trial — a pure function of the spec, unlike the
        // hit/miss split, which depends on worker interleaving.
        ftsched_obs::record(|m| m.design_cache_requests.incr());
        let prefix: Arc<PaperPrefix> = match caches {
            Some(caches) => caches.design.get_or_compute(design_key(scenario), || {
                paper_prefix(spec, scenario, record_trace, arena)
            }),
            None => Arc::new(paper_prefix(spec, scenario, record_trace, arena)),
        };
        let source = ScheduleSource::Shared(prefix.validation.as_ref());
        let (status, sim, outcome) =
            finish_design(spec, &prefix.design, source, &mut rng, arena, detail);
        return (finish(status, prefix.design.baselines, sim), outcome);
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
    let gen_span = ftsched_obs::time(Stage::Generation);
    let gen: Arc<GenPrefix> = match caches.filter(|c| c.gen.enabled()) {
        Some(c) => c.gen.get_or_compute((scenario.workload_point, trial), || {
            GenPrefix::draw(&rng, &config)
        }),
        None => Arc::new(GenPrefix::draw(&rng, &config)),
    };
    rng = gen.rng.clone();
    drop(gen_span);
    let Some(tasks) = gen.tasks.clone() else {
        return (finish(TrialStatus::GenerationFailed, None, None), None);
    };

    // 2. Partition (shared across the algorithm and overhead axes via the
    //    task set's content hash, together with the analysis context
    //    built on it). Baselines that ignore the partition are still
    //    evaluated when partitioning fails.
    let heuristic = scenario.partition_heuristic;
    ftsched_obs::record(|m| m.partition_cache_requests.incr());
    let partition_span = ftsched_obs::time(Stage::Partition);
    let entry = caches.filter(|c| c.partition.enabled()).and_then(|c| {
        let key = PartitionKey {
            taskset_hash: gen.content_hash(&tasks),
            heuristic,
        };
        let entry = c.partition.get_or_compute(key, || PartitionEntry {
            tasks: tasks.clone(),
            partition: partition_system(&tasks, heuristic).ok(),
            contexts: PerAlgorithm::default(),
        });
        // A 64-bit content-hash collision recomputes below rather than
        // trust the wrong set's partition.
        (entry.tasks == tasks).then(|| {
            ftsched_obs::record(|m| m.partition_cache.verified_hits.incr());
            entry
        })
    });
    let partition = match &entry {
        Some(entry) => entry.partition.clone(),
        None => partition_system(&tasks, heuristic).ok(),
    };
    drop(partition_span);
    let own_contexts = PerAlgorithm::default();
    let contexts = match &entry {
        Some(entry) if caches.is_some_and(|c| c.share_contexts) => &entry.contexts,
        _ => &own_contexts,
    };
    let shared = SharedAnalysis {
        static_verdicts: &gen.static_verdicts,
        contexts,
    };
    let Some(partition) = partition else {
        let baselines = spec.compare_baselines.then(|| {
            let _span = ftsched_obs::time(Stage::Design);
            shared.baselines(&tasks, scenario.algorithm, false)
        });
        return (finish(TrialStatus::PartitionFailed, baselines, None), None);
    };

    // 3. Design, then (for validate trials) the fault schedule over the
    //    exact simulation horizon and its classification.
    let prefix = design_prefix(spec, scenario, tasks, partition, shared);
    let (status, sim, outcome) =
        finish_design(spec, &prefix, ScheduleSource::Own, &mut rng, arena, detail);
    (finish(status, prefix.baselines, sim), outcome)
}

/// The rest of a trial after its design prefix: the status each stage
/// maps to and, for a designed trial, its fault draw classified against
/// the design's schedule.
fn finish_design(
    spec: &CampaignSpec,
    prefix: &DesignPrefix,
    source: ScheduleSource<'_>,
    rng: &mut StdRng,
    arena: &mut SimArena,
    detail: Detail,
) -> (TrialStatus, Option<SimSummary>, Option<PipelineOutcome>) {
    let designed = match &prefix.stage {
        DesignStage::ProblemInvalid => return (TrialStatus::PartitionFailed, None, None),
        DesignStage::Feasible => return (TrialStatus::Accepted, None, None),
        DesignStage::Rejected => return (TrialStatus::DesignRejected, None, None),
        DesignStage::SlotsFailed => return (TrialStatus::SimulationFailed, None, None),
        DesignStage::Designed(designed) => designed,
    };
    let _span = validation_span();
    let horizon = validation_horizon(&designed.problem, spec.horizon_hyperperiods);
    let faults: FaultSchedule = spec.faults.schedule(rng, Time::from_units(horizon));
    let own;
    let (schedule, summary) = match source {
        ScheduleSource::Shared(Some(shared)) => (&shared.schedule, shared.summary.clone()),
        ScheduleSource::Own => match validation(spec, designed, detail == Detail::Traced, arena) {
            Ok(Validation { schedule, summary }) => {
                own = schedule;
                (&own, summary)
            }
            Err(_) => return (TrialStatus::SimulationFailed, None, None),
        },
        ScheduleSource::Shared(None) => return (TrialStatus::SimulationFailed, None, None),
    };
    let full = (detail != Detail::Summary).then_some((&designed.solution, &designed.slots));
    let (sim, outcome) = classify_trial(schedule, summary, &faults, full, arena);
    (TrialStatus::Accepted, Some(sim), outcome)
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
    fn paper_baselines_leave_the_design_and_outcome_unchanged() {
        for goal in [
            DesignGoal::MinimizeOverheadBandwidth,
            DesignGoal::MaximizeSlackBandwidth,
        ] {
            let off = CampaignSpec {
                workload: WorkloadSpec::Paper,
                utilizations: vec![],
                algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
                // 0.3 exceeds the paper set's admissible overhead.
                overheads: vec![0.05, 0.3],
                goal,
                wcet_margin: Some(crate::spec::WcetMarginSpec { tolerance: 1e-3 }),
                ..validate_spec()
            };
            let on = CampaignSpec {
                compare_baselines: true,
                ..off.clone()
            };
            let mut rejected = 0;
            for scenario in &off.scenarios() {
                for trial in 0..2 {
                    let (without, full_without) = run_trial_full(&off, scenario, trial);
                    let (with, full_with) = run_trial_full(&on, scenario, trial);
                    let verdicts = with.baselines.expect("baselines were requested");
                    assert_eq!(
                        verdicts.flexible,
                        with.status == TrialStatus::Accepted,
                        "{goal:?}"
                    );
                    assert_eq!(
                        TrialOutcome {
                            baselines: None,
                            ..with
                        },
                        without,
                        "{goal:?}"
                    );
                    assert_eq!(full_with, full_without, "{goal:?}");
                    rejected += usize::from(without.status == TrialStatus::DesignRejected);
                }
            }
            assert!(rejected > 0, "the grid exercises the rejection error");
        }
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

    #[test]
    fn algorithm_only_grids_disable_the_synthetic_caches() {
        let algorithms = vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic];
        let spec = CampaignSpec {
            algorithms: algorithms.clone(),
            overheads: vec![0.05],
            partition_heuristics: vec![],
            ..validate_spec()
        };
        let caches = TrialCaches::new(&spec, true);
        assert!(!caches.gen.enabled());
        assert!(!caches.partition.enabled());
        // A second overhead or heuristic makes entries worth keeping.
        let spec = CampaignSpec {
            algorithms,
            overheads: vec![0.02, 0.05],
            ..validate_spec()
        };
        let caches = TrialCaches::new(&spec, true);
        assert!(caches.gen.enabled() && caches.partition.enabled());
    }
}

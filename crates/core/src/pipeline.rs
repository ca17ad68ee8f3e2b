//! The end-to-end pipeline: design problem → slot parameters → simulated
//! validation.
//!
//! The paper's methodology stops at choosing `(P, Q_FT, Q_FS, Q_NF)`; this
//! module additionally turns the chosen design into a
//! [`ftsched_sim::SlotSchedule`] and runs the discrete-event simulator over
//! a configurable horizon (several hyperperiods by default) to confirm that
//! no deadline is missed and — if a fault schedule is supplied — that the
//! mode semantics hold (FT masks, FS silences, NF may corrupt).

use serde::{Deserialize, Serialize};

use ftsched_design::goals::solve_with;
use ftsched_design::quanta::{distribute_slack, SlackPolicy};
use ftsched_design::region::RegionConfig;
use ftsched_design::{DesignError, DesignGoal, DesignProblem, DesignSolution};
use ftsched_platform::FaultSchedule;
use ftsched_sim::{
    simulate_in, SimArena, SimError, SimulationConfig, SimulationReport, SlotSchedule,
};
use ftsched_task::PerMode;

/// Configuration of the design-and-validate pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Period-region sweep parameters.
    pub region: RegionConfig,
    /// How the residual slack is distributed before simulating.
    pub slack_policy: SlackPolicy,
    /// Simulation horizon in hyperperiods of the task set (at least 1).
    pub horizon_hyperperiods: u32,
    /// Fault schedule injected during validation (empty by default).
    pub fault_schedule: FaultSchedule,
    /// Whether the simulation keeps its full trace.
    pub record_trace: bool,
    /// Whether the simulation records every completed job's response time
    /// per task (feeds campaign response-time histograms).
    pub record_response_times: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            region: RegionConfig::paper_figure4(),
            slack_policy: SlackPolicy::KeepUnallocated,
            horizon_hyperperiods: 2,
            fault_schedule: FaultSchedule::none(),
            record_trace: false,
            record_response_times: false,
        }
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineOutcome {
    /// The chosen design (period, quanta, slack, bandwidths).
    pub solution: DesignSolution,
    /// The slot schedule the simulator executed.
    pub slots: SlotSchedule,
    /// The simulation report over the configured horizon.
    pub simulation: SimulationReport,
}

/// Errors of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The design stage failed (no feasible period, invalid problem, …).
    Design(DesignError),
    /// The simulation stage failed (inconsistent slot schedule, …).
    Simulation(SimError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Design(e) => write!(f, "design stage failed: {e}"),
            PipelineError::Simulation(e) => write!(f, "simulation stage failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<DesignError> for PipelineError {
    fn from(e: DesignError) -> Self {
        PipelineError::Design(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Simulation(e)
    }
}

/// Converts a design solution into the slot schedule the simulator runs.
///
/// # Errors
///
/// Propagates slot-schedule validation errors (cannot occur for a
/// consistent solution).
pub fn slots_from_solution(solution: &DesignSolution) -> Result<SlotSchedule, SimError> {
    SlotSchedule::new(
        solution.period,
        PerMode::from_fn(|m| solution.allocation.useful[m]),
        PerMode::from_fn(|m| solution.allocation.overheads[m]),
    )
}

/// The deterministic design stage of the pipeline: solve the design
/// problem for `goal`, apply the slack policy, build the slot schedule.
///
/// This half is a pure function of `(problem, goal, region, policy)` — no
/// randomness, no simulation — which is what makes it cacheable across
/// the trials of a validation campaign (only the fault draw differs per
/// trial).
///
/// # Errors
///
/// Returns a [`PipelineError`] if the design stage fails.
pub fn design_stage(
    problem: &DesignProblem,
    goal: DesignGoal,
    region: &RegionConfig,
    slack_policy: SlackPolicy,
) -> Result<(DesignSolution, SlotSchedule), PipelineError> {
    design_stage_with(
        problem,
        &problem.analysis_context()?,
        goal,
        region,
        slack_policy,
    )
}

/// [`design_stage`] over a prebuilt
/// [`AnalysisContext`](ftsched_design::AnalysisContext) of the same
/// problem, for callers (baseline comparison + design in one trial) that
/// already paid for the point-set enumeration.
///
/// # Errors
///
/// Returns a [`PipelineError`] if the design stage fails.
pub fn design_stage_with(
    problem: &DesignProblem,
    ctx: &ftsched_design::AnalysisContext,
    goal: DesignGoal,
    region: &RegionConfig,
    slack_policy: SlackPolicy,
) -> Result<(DesignSolution, SlotSchedule), PipelineError> {
    // The run count is scheduling-dependent (the campaign caches this
    // stage); the span feeds the design-vs-validate wall-clock split.
    ftsched_obs::record(|m| m.design_stage_runs.incr());
    let _span = ftsched_obs::time(ftsched_obs::Stage::Design);
    let mut solution = solve_with(problem, ctx, goal, region)?;
    solution.allocation = distribute_slack(&solution.allocation, slack_policy);
    let slots = slots_from_solution(&solution)?;
    Ok((solution, slots))
}

/// The validation stage: simulate an already-designed slot schedule over
/// the configured horizon with the configured fault schedule, reusing the
/// caller's [`SimArena`].
///
/// # Errors
///
/// Returns a [`PipelineError`] if the simulation stage fails.
pub fn validate_stage(
    problem: &DesignProblem,
    solution: &DesignSolution,
    slots: &SlotSchedule,
    config: &PipelineConfig,
    arena: &mut SimArena,
) -> Result<PipelineOutcome, PipelineError> {
    // Validation is never cached: exactly one run per accepted trial, so
    // the counter is deterministic; the span is the timing half.
    ftsched_obs::record(|m| m.validate_runs.incr());
    let _span = ftsched_obs::time(ftsched_obs::Stage::Validate);
    let hyperperiod = problem.tasks.hyperperiod();
    let horizon = hyperperiod * config.horizon_hyperperiods.max(1) as f64;
    let simulation = simulate_in(
        &problem.tasks,
        &problem.partition,
        problem.algorithm,
        slots,
        &SimulationConfig {
            horizon,
            fault_schedule: config.fault_schedule.clone(),
            record_trace: config.record_trace,
            record_response_times: config.record_response_times,
        },
        arena,
    )?;

    Ok(PipelineOutcome {
        solution: solution.clone(),
        slots: slots.clone(),
        simulation,
    })
}

/// Runs the full pipeline: solve the design problem for `goal`, apply the
/// configured slack policy, build the slot schedule and simulate it.
///
/// # Errors
///
/// Returns a [`PipelineError`] if either stage fails.
pub fn design_and_validate(
    problem: &DesignProblem,
    goal: DesignGoal,
    config: &PipelineConfig,
) -> Result<PipelineOutcome, PipelineError> {
    let mut arena = SimArena::default();
    design_and_validate_in(problem, goal, config, &mut arena)
}

/// [`design_and_validate`] with a caller-owned [`SimArena`], for hot
/// loops that run many pipelines back to back.
///
/// # Errors
///
/// Returns a [`PipelineError`] if either stage fails.
pub fn design_and_validate_in(
    problem: &DesignProblem,
    goal: DesignGoal,
    config: &PipelineConfig,
    arena: &mut SimArena,
) -> Result<PipelineOutcome, PipelineError> {
    let (solution, slots) = design_stage(problem, goal, &config.region, config.slack_policy)?;
    validate_stage(problem, &solution, &slots, config, arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_analysis::Algorithm;
    use ftsched_design::problem::paper_problem;
    use ftsched_task::Mode;

    #[test]
    fn pipeline_reproduces_table_2b_and_validates_it() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        let outcome = design_and_validate(
            &problem,
            DesignGoal::MinimizeOverheadBandwidth,
            &PipelineConfig::default(),
        )
        .unwrap();
        assert!((outcome.solution.period - 2.966).abs() < 0.01);
        assert!(outcome.simulation.all_deadlines_met());
        assert!(outcome.simulation.integrity_preserved());
        assert!((outcome.slots.period().as_units() - outcome.solution.period).abs() < 1e-6);
    }

    #[test]
    fn pipeline_with_slack_distribution_still_meets_deadlines() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        for policy in [
            SlackPolicy::Proportional,
            SlackPolicy::Even,
            SlackPolicy::AllTo(Mode::NonFaultTolerant),
        ] {
            let config = PipelineConfig {
                slack_policy: policy,
                ..PipelineConfig::default()
            };
            let outcome =
                design_and_validate(&problem, DesignGoal::MaximizeSlackBandwidth, &config).unwrap();
            assert!(
                outcome.simulation.all_deadlines_met(),
                "{policy:?}: {} misses",
                outcome.simulation.deadline_misses
            );
        }
    }

    #[test]
    fn pipeline_surfaces_design_failures() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst)
            .with_overheads(PerMode::splat(0.1))
            .unwrap();
        let err = design_and_validate(
            &problem,
            DesignGoal::MinimizeOverheadBandwidth,
            &PipelineConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Design(DesignError::NoFeasiblePeriod { .. })
        ));
        assert!(err.to_string().contains("design stage"));
    }

    #[test]
    fn rm_pipeline_also_validates() {
        let problem = paper_problem(Algorithm::RateMonotonic);
        let outcome = design_and_validate(
            &problem,
            DesignGoal::MinimizeOverheadBandwidth,
            &PipelineConfig::default(),
        )
        .unwrap();
        // With O_tot = 0.05 the RM-feasible region shrinks below the
        // zero-overhead bound of 2.381 (Figure 4, point 2).
        assert!(outcome.solution.period < 2.381);
        assert!(outcome.solution.period > 1.0);
        assert!(outcome.simulation.all_deadlines_met());
    }
}

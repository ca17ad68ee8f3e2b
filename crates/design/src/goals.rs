//! Design goals (§4): how to pick the operating point inside the feasible
//! region.
//!
//! The paper works through two goals:
//!
//! 1. **Minimise the bandwidth wasted in overhead** `O_tot / P` — achieved
//!    by selecting the *largest* feasible period (Table 2(b)). The quanta
//!    are then forced to their Eq. 12–14 minima and no slack remains.
//! 2. **Maximise the bandwidth that can be redistributed at run time** —
//!    achieved by maximising `(f(P) − O_tot) / P` over the feasible
//!    periods (Table 2(c)); 12.1 % of the bandwidth stays free to be moved
//!    between modes when tasks arrive or leave dynamically.
//!
//! A third option fixes the period explicitly (useful when the period is
//! dictated by other system constraints, e.g. an existing major frame).

use serde::{Deserialize, Serialize};

use crate::context::AnalysisContext;
use crate::error::DesignError;
use crate::problem::DesignProblem;
use crate::region::{max_feasible_period_with, max_slack_ratio_period_with, RegionConfig};
use crate::solution::DesignSolution;

/// The optimisation objective used to choose the slot period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DesignGoal {
    /// Select the largest feasible period, minimising `O_tot / P`
    /// (Table 2(b)).
    MinimizeOverheadBandwidth,
    /// Select the period maximising the redistributable slack bandwidth
    /// `(f(P) − O_tot) / P` (Table 2(c)).
    MaximizeSlackBandwidth,
    /// Use exactly this period (must be feasible).
    FixedPeriod(f64),
}

/// Solves the design problem for the given goal.
///
/// # Errors
///
/// * [`DesignError::NoFeasiblePeriod`] when the overhead exceeds the
///   maximum admissible value;
/// * [`DesignError::InfeasiblePeriod`] when a fixed period does not fit.
pub fn solve(
    problem: &DesignProblem,
    goal: DesignGoal,
    config: &RegionConfig,
) -> Result<DesignSolution, DesignError> {
    solve_with(problem, &problem.analysis_context()?, goal, config)
}

/// [`solve`] over a prebuilt [`AnalysisContext`] of the same problem: the
/// period search and the final allocation both reuse the precomputed
/// point sets, so one context serves any number of goals.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_with(
    problem: &DesignProblem,
    ctx: &AnalysisContext,
    goal: DesignGoal,
    config: &RegionConfig,
) -> Result<DesignSolution, DesignError> {
    solve_at(problem, ctx, goal, goal_period_with(ctx, goal, config)?)
}

/// The period `goal` selects: the largest feasible period
/// ([`max_feasible_period_with`]), the slack-ratio argmax or the fixed
/// period.
///
/// # Errors
///
/// [`DesignError::NoFeasiblePeriod`] when the search finds no feasible
/// period.
pub fn goal_period_with(
    ctx: &AnalysisContext,
    goal: DesignGoal,
    config: &RegionConfig,
) -> Result<f64, DesignError> {
    Ok(match goal {
        DesignGoal::MinimizeOverheadBandwidth => max_feasible_period_with(ctx, config)?,
        DesignGoal::MaximizeSlackBandwidth => max_slack_ratio_period_with(ctx, config)?.period,
        DesignGoal::FixedPeriod(p) => p,
    })
}

/// The solution for `goal` at a `period` already chosen for it (by
/// [`goal_period_with`], or by a caller that ran the same search for
/// another purpose): the minimum allocation of Eq. 12–14 at that period.
///
/// # Errors
///
/// [`DesignError::InfeasiblePeriod`] when the period does not fit.
pub fn solve_at(
    problem: &DesignProblem,
    ctx: &AnalysisContext,
    goal: DesignGoal,
    period: f64,
) -> Result<DesignSolution, DesignError> {
    let allocation = ctx.minimum_allocation(period)?;
    DesignSolution::new(problem, goal, allocation)
}

/// Solves the same problem under every goal (convenience for reports and
/// the Table 2 regeneration binary). One [`AnalysisContext`] is shared by
/// both searches.
///
/// # Errors
///
/// Propagates the first failing goal's error.
pub fn solve_all(
    problem: &DesignProblem,
    config: &RegionConfig,
) -> Result<Vec<DesignSolution>, DesignError> {
    let ctx = problem.analysis_context()?;
    Ok(vec![
        solve_with(problem, &ctx, DesignGoal::MinimizeOverheadBandwidth, config)?,
        solve_with(problem, &ctx, DesignGoal::MaximizeSlackBandwidth, config)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::paper_problem;
    use crate::quanta::minimum_allocation;
    use ftsched_analysis::Algorithm;
    use ftsched_task::PerMode;

    #[test]
    fn min_overhead_goal_selects_the_largest_period() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        let config = RegionConfig::paper_figure4();
        let sol = solve(&problem, DesignGoal::MinimizeOverheadBandwidth, &config).unwrap();
        // Any larger period must be infeasible.
        assert!(minimum_allocation(&problem, sol.period + 0.05).is_err());
        // The overhead bandwidth is the smallest among the computed goals.
        let slack_sol = solve(&problem, DesignGoal::MaximizeSlackBandwidth, &config).unwrap();
        assert!(sol.overhead_bandwidth() <= slack_sol.overhead_bandwidth() + 1e-9);
    }

    #[test]
    fn max_slack_goal_beats_min_overhead_goal_on_slack() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        let config = RegionConfig::paper_figure4();
        let a = solve(&problem, DesignGoal::MinimizeOverheadBandwidth, &config).unwrap();
        let b = solve(&problem, DesignGoal::MaximizeSlackBandwidth, &config).unwrap();
        assert!(b.slack_bandwidth() > a.slack_bandwidth());
        assert!(b.slack_bandwidth() > 0.10);
    }

    #[test]
    fn fixed_period_goal_uses_the_given_period() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        let config = RegionConfig::paper_figure4();
        let sol = solve(&problem, DesignGoal::FixedPeriod(1.5), &config).unwrap();
        assert_eq!(sol.period, 1.5);
        assert!(sol.covers_requirements());
    }

    #[test]
    fn fixed_infeasible_period_is_rejected() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        let config = RegionConfig::paper_figure4();
        assert!(matches!(
            solve(&problem, DesignGoal::FixedPeriod(3.4), &config),
            Err(DesignError::InfeasiblePeriod { .. })
        ));
    }

    #[test]
    fn excessive_overhead_yields_no_feasible_period() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst)
            .with_overheads(PerMode::splat(0.1))
            .unwrap(); // O_tot = 0.3 > 0.201
        let config = RegionConfig::paper_figure4();
        for goal in [
            DesignGoal::MinimizeOverheadBandwidth,
            DesignGoal::MaximizeSlackBandwidth,
        ] {
            assert!(matches!(
                solve(&problem, goal, &config),
                Err(DesignError::NoFeasiblePeriod { .. })
            ));
        }
    }

    #[test]
    fn solve_all_returns_both_paper_goals() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        let solutions = solve_all(&problem, &RegionConfig::paper_figure4()).unwrap();
        assert_eq!(solutions.len(), 2);
        assert_eq!(solutions[0].goal, DesignGoal::MinimizeOverheadBandwidth);
        assert_eq!(solutions[1].goal, DesignGoal::MaximizeSlackBandwidth);
    }

    #[test]
    fn rm_solutions_exist_but_with_smaller_periods_than_edf() {
        let config = RegionConfig::paper_figure4();
        let edf = solve(
            &paper_problem(Algorithm::EarliestDeadlineFirst),
            DesignGoal::MinimizeOverheadBandwidth,
            &config,
        )
        .unwrap();
        let rm = solve(
            &paper_problem(Algorithm::RateMonotonic),
            DesignGoal::MinimizeOverheadBandwidth,
            &config,
        )
        .unwrap();
        assert!(rm.period < edf.period);
    }
}

//! Sensitivity analysis of a chosen design.
//!
//! Table 2(c) motivates keeping slack so the design can absorb run-time
//! changes. This module quantifies that robustness for a *fixed* period:
//!
//! * [`max_total_overhead_at_period`] — how large `O_tot` may grow before
//!   Eq. 15 fails at the chosen period;
//! * [`wcet_scaling_margin`] — the largest factor by which *every* WCET can
//!   be inflated while the design stays feasible (a global margin against
//!   WCET under-estimation);
//! * [`wcet_margin_curve`] — that margin over a whole period grid (the
//!   natural Table 2(c) plot: slack-vs-period);
//! * [`mode_bandwidth_margin`] — per mode, how much extra bandwidth demand
//!   the unallocated slack could absorb if it were handed to that mode.
//!
//! The WCET searches are built on the parametric kernel: the scheduling
//! points / deadline sets are WCET-independent, so one
//! [`AnalysisContext`] is enumerated per problem and every probe of an
//! inflation factor `λ` merely rewrites the workload sums of one scratch
//! clone of it ([`AnalysisContext::rescale_into`]) — no problem clone, no
//! re-validation, no re-enumeration, identical results to the historical
//! rebuild-per-probe search bit for bit.

use ftsched_task::{PerMode, Task, TaskSet};

use crate::context::AnalysisContext;
use crate::error::DesignError;
use crate::problem::DesignProblem;

/// Cap on the exponential growth phase of the WCET-margin search: factors
/// beyond this are reported as the cap itself (the deadline clamp makes
/// ever-larger factors indistinguishable anyway). Public because it
/// bounds the margin *domain* — consumers binning margins (the campaign
/// layer's histogram) size themselves from it.
pub const MAX_WCET_SCALE: f64 = 64.0;

/// The maximum total overhead the design tolerates at a fixed period:
/// exactly the Eq. 15 slack `f(P)`.
///
/// # Errors
///
/// Propagates analysis errors for invalid periods.
pub fn max_total_overhead_at_period(
    problem: &DesignProblem,
    period: f64,
) -> Result<f64, DesignError> {
    problem.eq15_lhs(period)
}

/// The largest uniform WCET inflation factor `λ ≥ 1` such that the problem
/// with every `C_i` replaced by `λ C_i` (clamped at `D_i`) still admits
/// the given period. Returns 1.0 if the design has no margin at all.
/// Binary search to the requested tolerance; factors beyond 64 are
/// reported as the last *tested* feasible factor.
///
/// Builds the scheduling points exactly once; each probe rescales the
/// workload sums in place. One-shot convenience over
/// [`wcet_scaling_margin_with`].
///
/// # Errors
///
/// Propagates analysis errors.
pub fn wcet_scaling_margin(
    problem: &DesignProblem,
    period: f64,
    tolerance: f64,
) -> Result<f64, DesignError> {
    let ctx = problem.analysis_context()?;
    wcet_scaling_margin_with(&ctx, period, tolerance)
}

/// [`wcet_scaling_margin`] over a prebuilt [`AnalysisContext`], for
/// callers (campaign trials, margin curves) that already paid for the
/// point-set enumeration.
///
/// # Errors
///
/// Propagates analysis errors (invalid period).
pub fn wcet_scaling_margin_with(
    ctx: &AnalysisContext,
    period: f64,
    tolerance: f64,
) -> Result<f64, DesignError> {
    let mut scratch = ctx.clone();
    margin_with_scratch(ctx, &mut scratch, period, tolerance)
}

/// The probe sequence of every WCET-margin search: exponential growth
/// from 1 capped at 64 (reporting the last *tested* feasible factor —
/// the untested doubling could overstate the margin by 2×), then
/// bisection to `tolerance`, over a caller-supplied feasibility oracle.
///
/// The production search, the rebuild-per-probe baseline of the
/// sensitivity benchmark and the equivalence tests all drive this one
/// skeleton — "identical probe sequence" holds by construction, only
/// the oracles differ.
///
/// # Errors
///
/// Propagates the oracle's errors.
pub fn margin_search<E>(
    mut feasible_at: impl FnMut(f64) -> Result<bool, E>,
    tolerance: f64,
) -> Result<f64, E> {
    if !feasible_at(1.0)? {
        return Ok(1.0);
    }
    let mut lo = 1.0;
    let mut hi = 2.0;
    while feasible_at(hi)? {
        lo = hi;
        hi *= 2.0;
        if hi > MAX_WCET_SCALE {
            return Ok(lo);
        }
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if feasible_at(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The margin search proper, over a caller-owned scratch clone of `ctx`
/// so period grids reuse one allocation for every probe of every period.
fn margin_with_scratch(
    ctx: &AnalysisContext,
    scratch: &mut AnalysisContext,
    period: f64,
    tolerance: f64,
) -> Result<f64, DesignError> {
    // Each probe changes every WCET, but only the workload sums W(t)
    // depend on them: rescale the shared context in place and evaluate
    // at the single period under test.
    margin_search(
        |factor| {
            ctx.rescale_into(factor, scratch);
            match scratch.minimum_allocation(period) {
                Ok(_) => Ok(true),
                Err(DesignError::InfeasiblePeriod { .. }) => Ok(false),
                Err(e) => Err(e),
            }
        },
        tolerance,
    )
}

/// The WCET-scaling margin at every period of `periods` — the Table 2(c)
/// robustness-vs-period curve — from a **single** context build: the
/// scheduling points / deadline sets are enumerated once and every probe
/// of every period reuses one scratch. Infeasible periods report a margin
/// of 1.0 (no room at all), matching [`wcet_scaling_margin`].
///
/// # Errors
///
/// Propagates analysis errors (invalid periods in the grid).
pub fn wcet_margin_curve(
    problem: &DesignProblem,
    periods: &[f64],
    tolerance: f64,
) -> Result<Vec<f64>, DesignError> {
    let ctx = problem.analysis_context()?;
    let mut scratch = ctx.clone();
    periods
        .iter()
        .map(|&period| margin_with_scratch(&ctx, &mut scratch, period, tolerance))
        .collect()
}

/// Per-mode bandwidth headroom at a fixed period: the unallocated slack of
/// the minimal allocation expressed as extra bandwidth the mode could be
/// given (`slack / P`), plus the spare already inside the mode's slot
/// (allocated minus required utilisation).
///
/// # Errors
///
/// Propagates allocation errors (infeasible period).
pub fn mode_bandwidth_margin(
    problem: &DesignProblem,
    period: f64,
) -> Result<PerMode<f64>, DesignError> {
    let alloc = AnalysisContext::new(problem)?.minimum_allocation(period)?;
    let required = problem.required_utilizations()?;
    let bw = alloc.allocated_bandwidth();
    let redistributable = alloc.slack_bandwidth();
    Ok(PerMode::from_fn(|m| {
        (bw[m] - required[m]).max(0.0) + redistributable
    }))
}

/// A copy of the problem with every WCET multiplied by `factor`, clamped
/// at the task deadline.
///
/// The margin searches above no longer need this (they rescale the
/// analysis context in place); it remains the reference semantics those
/// searches must match, and the rebuild-per-probe baseline the
/// sensitivity benchmark times against.
///
/// # Errors
///
/// Propagates task/partition validation errors (cannot occur for
/// `factor ≥ 1` on a validated problem).
pub fn scale_wcets(problem: &DesignProblem, factor: f64) -> Result<DesignProblem, DesignError> {
    let scaled: Result<Vec<Task>, _> = problem
        .tasks
        .iter()
        .map(|t| {
            let mut clone = t.clone();
            clone.wcet = (t.wcet * factor).min(clone.deadline);
            clone.validate().map(|_| clone)
        })
        .collect();
    let tasks = TaskSet::new(scaled?)?;
    Ok(DesignProblem {
        tasks,
        partition: problem.partition.clone(),
        overheads: problem.overheads,
        algorithm: problem.algorithm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::paper_problem;
    use ftsched_analysis::Algorithm;
    use ftsched_task::Mode;

    fn problem() -> DesignProblem {
        paper_problem(Algorithm::EarliestDeadlineFirst)
    }

    #[test]
    fn overhead_margin_equals_eq15_slack() {
        let p = problem();
        let margin = max_total_overhead_at_period(&p, 0.855).unwrap();
        // Table 2(c): f(0.855) ≈ 0.103 + 0.05 = 0.153.
        assert!((margin - 0.153).abs() < 0.01, "margin {margin:.4}");
    }

    #[test]
    fn wcet_margin_is_larger_at_the_slack_optimal_period() {
        let p = problem();
        let tight = wcet_scaling_margin(&p, 2.966, 1e-3).unwrap();
        let roomy = wcet_scaling_margin(&p, 0.855, 1e-3).unwrap();
        assert!(tight >= 1.0);
        assert!(roomy > tight, "roomy {roomy:.3} vs tight {tight:.3}");
        assert!(roomy > 1.05);
    }

    #[test]
    fn wcet_margin_is_one_when_the_period_has_no_room() {
        // Just past the max feasible period the margin collapses to 1.
        let p = problem();
        let margin = wcet_scaling_margin(&p, 3.3, 1e-3).unwrap();
        assert!((margin - 1.0).abs() < 1e-9);
    }

    #[test]
    fn margin_with_context_matches_the_one_shot_form() {
        let p = problem();
        let ctx = p.analysis_context().unwrap();
        for period in [0.5, 0.855, 1.5, 2.966] {
            let one_shot = wcet_scaling_margin(&p, period, 1e-3).unwrap();
            let with_ctx = wcet_scaling_margin_with(&ctx, period, 1e-3).unwrap();
            assert_eq!(one_shot.to_bits(), with_ctx.to_bits(), "P={period}");
        }
    }

    #[test]
    fn margin_matches_the_rebuild_per_probe_reference() {
        // The in-place rescale must reproduce the historical
        // clone-and-rebuild probe bit for bit: same skeleton
        // (`margin_search`), independent feasibility oracle.
        let p = problem();
        for period in [0.5, 0.855, 2.0, 2.966] {
            let fast = wcet_scaling_margin(&p, period, 1e-3).unwrap();
            let reference: f64 = margin_search::<std::convert::Infallible>(
                |factor| {
                    let scaled = scale_wcets(&p, factor).unwrap();
                    Ok(scaled
                        .analysis_context()
                        .unwrap()
                        .minimum_allocation(period)
                        .is_ok())
                },
                1e-3,
            )
            .unwrap();
            assert_eq!(fast.to_bits(), reference.to_bits(), "P={period}");
        }
    }

    #[test]
    fn capped_growth_returns_the_last_tested_factor() {
        // A problem whose margin exceeds the 64x growth cap: shrink every
        // WCET of the paper set 100-fold, so even 64x inflation stays far
        // below the original (feasible) load. The search must report the
        // last factor it actually verified (64), not the untested 128 the
        // pre-fix code returned.
        let p = problem();
        let tiny: Vec<Task> = p
            .tasks
            .iter()
            .map(|t| {
                let mut clone = t.clone();
                clone.wcet = t.wcet * 0.01;
                clone
            })
            .collect();
        let roomy = DesignProblem {
            tasks: TaskSet::new(tiny).unwrap(),
            partition: p.partition.clone(),
            overheads: p.overheads,
            algorithm: p.algorithm,
        };
        let margin = wcet_scaling_margin(&roomy, 0.855, 1e-3).unwrap();
        assert_eq!(margin, 64.0, "must be the tested cap, not an untested 2x");
        // And the reported factor really is feasible.
        let at_cap = scale_wcets(&roomy, margin).unwrap();
        assert!(at_cap
            .analysis_context()
            .unwrap()
            .minimum_allocation(0.855)
            .is_ok());
    }

    #[test]
    fn margin_curve_matches_per_period_searches() {
        let p = problem();
        let grid = [0.5, 0.855, 1.5, 2.966, 3.3];
        let curve = wcet_margin_curve(&p, &grid, 1e-3).unwrap();
        assert_eq!(curve.len(), grid.len());
        for (i, &period) in grid.iter().enumerate() {
            let direct = wcet_scaling_margin(&p, period, 1e-3).unwrap();
            assert_eq!(curve[i].to_bits(), direct.to_bits(), "P={period}");
        }
        // The infeasible tail of the grid reports no margin at all.
        assert!((curve[4] - 1.0).abs() < 1e-9);
        // And invalid periods propagate as errors.
        assert!(wcet_margin_curve(&p, &[1.0, -1.0], 1e-3).is_err());
    }

    #[test]
    fn mode_margins_are_positive_inside_the_region() {
        let p = problem();
        let margins = mode_bandwidth_margin(&p, 0.855).unwrap();
        for mode in Mode::ALL {
            assert!(margins[mode] > 0.0, "{mode}");
        }
        // The redistributable part (~12 %) is included in every mode's margin.
        assert!(margins.nf >= 0.12);
    }

    #[test]
    fn margins_fail_cleanly_outside_the_region() {
        let p = problem();
        assert!(mode_bandwidth_margin(&p, 3.4).is_err());
    }
}

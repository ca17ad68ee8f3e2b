//! Per-mode quantum selection (Eq. 12–14) and slack distribution.
//!
//! Once a feasible period `P` has been chosen from the region of Eq. 15,
//! the per-mode constraints
//!
//! ```text
//! Q_FT − minQ(T_FT, alg, P)              ≥ O_FT        (Eq. 12)
//! Q_FS − max_i minQ(T_FS^i, alg, P)      ≥ O_FS        (Eq. 13)
//! Q_NF − max_i minQ(T_NF^i, alg, P)      ≥ O_NF        (Eq. 14)
//! ```
//!
//! fix the minimum slot lengths. Whatever remains of the period,
//! `slack = P − Σ_k Q_k`, can either be kept unallocated (the paper's
//! "redistributable bandwidth" of Table 2(c)) or handed out to the modes
//! according to a [`SlackPolicy`].

use serde::{Deserialize, Serialize};

use ftsched_task::{Mode, PerMode};

use crate::error::DesignError;
use crate::problem::DesignProblem;

/// How the residual slack of Eq. 15 is distributed over the three slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SlackPolicy {
    /// Keep the slack unallocated so it can be redistributed at run time
    /// (the design of Table 2(c)).
    KeepUnallocated,
    /// Split the slack proportionally to each mode's minimum quantum
    /// (every mode's spare capacity grows by the same factor).
    Proportional,
    /// Split the slack evenly over the three modes.
    Even,
    /// Give all the slack to one mode (e.g. NF to maximise delivered
    /// parallel computing power, or FT to maximise protected time).
    AllTo(Mode),
}

/// A complete allocation of the period to slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantaAllocation {
    /// The slot period `P`.
    pub period: f64,
    /// Per-mode switching overheads `O_k`.
    pub overheads: PerMode<f64>,
    /// Minimum useful quanta `Q̃_k = minQ(...)` required by Eq. 12–14.
    pub min_useful: PerMode<f64>,
    /// Allocated useful quanta `Q̃_k` (≥ the minimum).
    pub useful: PerMode<f64>,
    /// Allocated slot lengths `Q_k = Q̃_k + O_k`.
    pub slots: PerMode<f64>,
    /// Unallocated slack `P − Σ Q_k`.
    pub slack: f64,
}

impl QuantaAllocation {
    /// Allocated bandwidth per mode, `Q̃_k / P` (the "alloc. util." rows of
    /// Table 2).
    pub fn allocated_bandwidth(&self) -> PerMode<f64> {
        self.useful.map(|&q| q / self.period)
    }

    /// Bandwidth spent in mode switches, `O_tot / P`.
    pub fn overhead_bandwidth(&self) -> f64 {
        self.overheads.total() / self.period
    }

    /// Redistributable slack bandwidth, `slack / P` (12.1 % in
    /// Table 2(c)).
    pub fn slack_bandwidth(&self) -> f64 {
        self.slack / self.period
    }
}

/// Computes the minimal allocation at a given period: every useful quantum
/// set to its Eq. 12–14 minimum and all remaining time left as slack.
///
/// One-shot convenience over
/// [`AnalysisContext::minimum_allocation`](crate::context::AnalysisContext::minimum_allocation);
/// callers probing many periods of one problem should build the context
/// once.
///
/// # Errors
///
/// [`DesignError::InfeasiblePeriod`] if the minimum slots plus overheads do
/// not fit in the period (Eq. 15 violated).
pub fn minimum_allocation(
    problem: &DesignProblem,
    period: f64,
) -> Result<QuantaAllocation, DesignError> {
    problem.analysis_context()?.minimum_allocation(period)
}

/// Applies a slack-distribution policy to a minimal allocation.
pub fn distribute_slack(allocation: &QuantaAllocation, policy: SlackPolicy) -> QuantaAllocation {
    let mut result = *allocation;
    if allocation.slack <= 0.0 {
        return result;
    }
    let extra: PerMode<f64> = match policy {
        SlackPolicy::KeepUnallocated => PerMode::splat(0.0),
        SlackPolicy::Even => PerMode::splat(allocation.slack / 3.0),
        SlackPolicy::Proportional => {
            let total_min = allocation.min_useful.total();
            if total_min <= 0.0 {
                PerMode::splat(allocation.slack / 3.0)
            } else {
                allocation
                    .min_useful
                    .map(|&q| allocation.slack * q / total_min)
            }
        }
        SlackPolicy::AllTo(mode) => {
            let mut e = PerMode::splat(0.0);
            e[mode] = allocation.slack;
            e
        }
    };
    let distributed: f64 = extra.total();
    result.useful = PerMode::from_fn(|m| allocation.useful[m] + extra[m]);
    result.slots = PerMode::from_fn(|m| result.useful[m] + result.overheads[m]);
    result.slack = (allocation.slack - distributed).max(0.0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::paper_problem;
    use ftsched_analysis::Algorithm;

    fn edf() -> DesignProblem {
        paper_problem(Algorithm::EarliestDeadlineFirst)
    }

    /// Slots sum to at most the period, every useful quantum is at least
    /// its minimum, and slack accounts for the remainder.
    fn consistent(alloc: &QuantaAllocation) -> bool {
        let slack_ok = (alloc.period - alloc.slots.total() - alloc.slack).abs() < 1e-6;
        let min_ok = Mode::ALL
            .iter()
            .all(|&m| alloc.useful[m] + 1e-9 >= alloc.min_useful[m] && alloc.useful[m] >= 0.0);
        let slot_ok = Mode::ALL
            .iter()
            .all(|&m| (alloc.slots[m] - alloc.useful[m] - alloc.overheads[m]).abs() < 1e-9);
        slack_ok && min_ok && slot_ok && alloc.slack >= -1e-9
    }

    #[test]
    fn table_2b_quanta_at_the_max_feasible_period() {
        // Paper Table 2(b): at P = 2.966 with O_tot = 0.05 the minimum
        // useful quanta are Q̃_FT = 0.820, Q̃_FS = 1.281, Q̃_NF = 0.815 and
        // the slack is 0.
        let alloc = minimum_allocation(&edf(), 2.966).unwrap();
        assert!(
            (alloc.min_useful.ft - 0.820).abs() < 0.005,
            "FT {:.4}",
            alloc.min_useful.ft
        );
        assert!(
            (alloc.min_useful.fs - 1.281).abs() < 0.005,
            "FS {:.4}",
            alloc.min_useful.fs
        );
        assert!(
            (alloc.min_useful.nf - 0.815).abs() < 0.005,
            "NF {:.4}",
            alloc.min_useful.nf
        );
        assert!(alloc.slack.abs() < 0.01, "slack {:.4}", alloc.slack);
        // Allocated bandwidths: 0.276 / 0.432 / 0.275.
        let bw = alloc.allocated_bandwidth();
        assert!((bw.ft - 0.276).abs() < 0.005);
        assert!((bw.fs - 0.432).abs() < 0.005);
        assert!((bw.nf - 0.275).abs() < 0.005);
        assert!(consistent(&alloc));
    }

    #[test]
    fn table_2c_quanta_at_the_slack_optimal_period() {
        // Paper Table 2(c): at P = 0.855 the minimum quanta are
        // 0.230 / 0.252 / 0.220 and the slack is 0.103 (12.1 % of P).
        let alloc = minimum_allocation(&edf(), 0.855).unwrap();
        assert!(
            (alloc.min_useful.ft - 0.230).abs() < 0.005,
            "FT {:.4}",
            alloc.min_useful.ft
        );
        assert!(
            (alloc.min_useful.fs - 0.252).abs() < 0.005,
            "FS {:.4}",
            alloc.min_useful.fs
        );
        assert!(
            (alloc.min_useful.nf - 0.220).abs() < 0.005,
            "NF {:.4}",
            alloc.min_useful.nf
        );
        assert!(
            (alloc.slack - 0.103).abs() < 0.005,
            "slack {:.4}",
            alloc.slack
        );
        assert!((alloc.slack_bandwidth() - 0.121).abs() < 0.005);
        let bw = alloc.allocated_bandwidth();
        assert!((bw.ft - 0.269).abs() < 0.005);
        assert!((bw.fs - 0.294).abs() < 0.01);
        assert!((bw.nf - 0.257).abs() < 0.005);
        assert!(consistent(&alloc));
    }

    #[test]
    fn infeasible_periods_are_rejected() {
        // Beyond the maximum feasible period the minimum slots no longer fit.
        let err = minimum_allocation(&edf(), 3.4).unwrap_err();
        assert!(matches!(err, DesignError::InfeasiblePeriod { .. }));
    }

    #[test]
    fn allocated_bandwidth_covers_required_utilization() {
        // Necessary condition checked in the paper: Q̃_k / P ≥ max_i U(T_k^i).
        let problem = edf();
        let required = problem.required_utilizations().unwrap();
        for period in [0.5, 0.855, 1.5, 2.0, 2.966] {
            let alloc = minimum_allocation(&problem, period).unwrap();
            let bw = alloc.allocated_bandwidth();
            for mode in Mode::ALL {
                assert!(
                    bw[mode] + 1e-9 >= required[mode],
                    "P={period}, mode {mode}: bandwidth {:.3} < required {:.3}",
                    bw[mode],
                    required[mode]
                );
            }
        }
    }

    #[test]
    fn slack_policies_conserve_the_period() {
        let alloc = minimum_allocation(&edf(), 0.855).unwrap();
        for policy in [
            SlackPolicy::KeepUnallocated,
            SlackPolicy::Even,
            SlackPolicy::Proportional,
            SlackPolicy::AllTo(Mode::NonFaultTolerant),
            SlackPolicy::AllTo(Mode::FaultTolerant),
        ] {
            let d = distribute_slack(&alloc, policy);
            assert!(consistent(&d), "{policy:?}");
            let used = d.slots.total() + d.slack;
            assert!((used - d.period).abs() < 1e-6, "{policy:?}");
            // Distribution never shrinks any quantum.
            for mode in Mode::ALL {
                assert!(d.useful[mode] + 1e-12 >= alloc.useful[mode]);
            }
        }
    }

    #[test]
    fn keep_unallocated_preserves_the_slack() {
        let alloc = minimum_allocation(&edf(), 0.855).unwrap();
        let kept = distribute_slack(&alloc, SlackPolicy::KeepUnallocated);
        assert!((kept.slack - alloc.slack).abs() < 1e-12);
    }

    #[test]
    fn all_to_nf_gives_everything_to_nf() {
        let alloc = minimum_allocation(&edf(), 0.855).unwrap();
        let d = distribute_slack(&alloc, SlackPolicy::AllTo(Mode::NonFaultTolerant));
        assert!(d.slack.abs() < 1e-12);
        assert!((d.useful.nf - (alloc.useful.nf + alloc.slack)).abs() < 1e-12);
        assert!((d.useful.ft - alloc.useful.ft).abs() < 1e-12);
    }

    #[test]
    fn proportional_distribution_is_proportional() {
        let alloc = minimum_allocation(&edf(), 0.855).unwrap();
        let d = distribute_slack(&alloc, SlackPolicy::Proportional);
        let factor_ft = d.useful.ft / alloc.useful.ft;
        let factor_fs = d.useful.fs / alloc.useful.fs;
        let factor_nf = d.useful.nf / alloc.useful.nf;
        assert!((factor_ft - factor_fs).abs() < 1e-9);
        assert!((factor_fs - factor_nf).abs() < 1e-9);
        assert!(factor_ft > 1.0);
    }

    #[test]
    fn distribution_of_zero_slack_is_a_no_op() {
        let alloc = minimum_allocation(&edf(), 2.966).unwrap();
        let d = distribute_slack(&alloc, SlackPolicy::Even);
        // Slack at the boundary period is ~0, so nothing changes materially.
        for mode in Mode::ALL {
            assert!((d.useful[mode] - alloc.useful[mode]).abs() < 0.01);
        }
    }

    #[test]
    fn rm_needs_at_least_as_much_quantum_as_edf() {
        let edf_alloc = minimum_allocation(&edf(), 2.0).unwrap();
        let rm_alloc = minimum_allocation(&paper_problem(Algorithm::RateMonotonic), 2.0).unwrap();
        for mode in Mode::ALL {
            assert!(rm_alloc.min_useful[mode] + 1e-9 >= edf_alloc.min_useful[mode]);
        }
    }
}

//! The design problem of §3 (final paragraph): a mode-annotated task set,
//! its partition onto channels, the per-mode switching overheads and the
//! local scheduling algorithm.

use serde::{Deserialize, Serialize};

use ftsched_analysis::Algorithm;
use ftsched_task::{PerMode, SystemPartition, TaskSet};

use crate::context::AnalysisContext;
use crate::error::DesignError;

/// A fully specified instance of the paper's design problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignProblem {
    /// The application task set (all modes together).
    pub tasks: TaskSet,
    /// The partition of each mode's tasks onto that mode's channels.
    pub partition: SystemPartition,
    /// Mode-switch overheads `O_FT, O_FS, O_NF` (time spent switching *out*
    /// of each mode, charged to that mode's slot).
    pub overheads: PerMode<f64>,
    /// The local scheduling algorithm used on every channel.
    pub algorithm: Algorithm,
}

impl DesignProblem {
    /// Builds and validates a design problem.
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] if the partition does not cover the task
    /// set or the overheads are negative.
    pub fn new(
        tasks: TaskSet,
        partition: SystemPartition,
        overheads: PerMode<f64>,
        algorithm: Algorithm,
    ) -> Result<Self, DesignError> {
        partition.validate(&tasks)?;
        for (_, &o) in overheads.iter() {
            if !(o >= 0.0 && o.is_finite()) {
                return Err(DesignError::InvalidOverhead { value: o });
            }
        }
        Ok(DesignProblem {
            tasks,
            partition,
            overheads,
            algorithm,
        })
    }

    /// Builds a problem with the total overhead split equally over the
    /// three modes (the paper's example only constrains the total
    /// `O_tot`, so an even split is the natural default).
    ///
    /// # Errors
    ///
    /// Same as [`DesignProblem::new`].
    pub fn with_total_overhead(
        tasks: TaskSet,
        partition: SystemPartition,
        total_overhead: f64,
        algorithm: Algorithm,
    ) -> Result<Self, DesignError> {
        if !(total_overhead >= 0.0 && total_overhead.is_finite()) {
            return Err(DesignError::InvalidOverhead {
                value: total_overhead,
            });
        }
        DesignProblem::new(
            tasks,
            partition,
            PerMode::splat(total_overhead / 3.0),
            algorithm,
        )
    }

    /// Total switching overhead `O_tot = O_FT + O_FS + O_NF`.
    pub fn total_overhead(&self) -> f64 {
        self.overheads.total()
    }

    /// Per-mode, per-channel task sets of this problem's partition.
    ///
    /// # Errors
    ///
    /// Propagates unknown-task errors (cannot happen on a validated
    /// problem).
    pub fn channel_task_sets(&self) -> Result<PerMode<Vec<TaskSet>>, DesignError> {
        Ok(self.partition.channel_task_sets(&self.tasks)?)
    }

    /// Precomputes the sweep-aware [`AnalysisContext`] of this problem:
    /// the per-mode, per-channel `(t, W(t))` point sets that every period
    /// search reuses. Build it once per problem, evaluate it at any
    /// number of periods.
    ///
    /// # Errors
    ///
    /// Propagates partition errors (cannot occur on a validated problem).
    pub fn analysis_context(&self) -> Result<AnalysisContext, DesignError> {
        AnalysisContext::new(self)
    }

    /// The per-mode minimum useful quanta
    /// `Q̃_k ≥ max_i minQ(T_k^i, alg, P)` of Eq. 12–14 at the given period.
    ///
    /// One-shot convenience over [`DesignProblem::analysis_context`];
    /// period-grid consumers should hold the context instead.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (invalid period).
    pub fn min_quanta(&self, period: f64) -> Result<PerMode<f64>, DesignError> {
        self.analysis_context()?.min_quanta(period)
    }

    /// The left-hand side of Eq. 15 at the given period:
    /// `f(P) = P − Σ_k max_i minQ(T_k^i, alg, P)`.
    ///
    /// The period is feasible for a total overhead `O_tot` iff
    /// `f(P) ≥ O_tot` **and** the individual quanta fit, which is always
    /// the case when the sum fits because the per-mode constraints are
    /// satisfied with equality plus non-negative slack distribution.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (invalid period).
    pub fn eq15_lhs(&self, period: f64) -> Result<f64, DesignError> {
        let quanta = self.min_quanta(period)?;
        Ok(period - quanta.total())
    }

    /// Per-mode maximum channel utilisation — the "required utilisation" row
    /// of Table 2(a).
    ///
    /// # Errors
    ///
    /// Propagates unknown-task errors (cannot happen on a validated
    /// problem).
    pub fn required_utilizations(&self) -> Result<PerMode<f64>, DesignError> {
        Ok(self.partition.max_channel_utilizations(&self.tasks)?)
    }

    /// A copy of this problem with a different scheduling algorithm (used
    /// for the EDF-vs-RM comparisons of Figure 4).
    pub fn with_algorithm(&self, algorithm: Algorithm) -> DesignProblem {
        DesignProblem {
            algorithm,
            ..self.clone()
        }
    }

    /// A copy of this problem with different per-mode overheads.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite overheads.
    pub fn with_overheads(&self, overheads: PerMode<f64>) -> Result<DesignProblem, DesignError> {
        for (_, &o) in overheads.iter() {
            if !(o >= 0.0 && o.is_finite()) {
                return Err(DesignError::InvalidOverhead { value: o });
            }
        }
        Ok(DesignProblem {
            overheads,
            ..self.clone()
        })
    }
}

/// Convenience constructor: the paper's complete §4 example (Table 1 task
/// set, manual partition, `O_tot = 0.05` split evenly, EDF unless
/// overridden).
pub fn paper_problem(algorithm: Algorithm) -> DesignProblem {
    let (tasks, partition) = ftsched_task::examples::paper_example();
    DesignProblem::with_total_overhead(
        tasks,
        partition,
        ftsched_task::examples::PAPER_TOTAL_OVERHEAD,
        algorithm,
    )
    .expect("the paper example is a valid design problem")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_task::{examples, Mode};

    #[test]
    fn paper_problem_is_valid() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        assert_eq!(p.tasks.len(), 13);
        assert!((p.total_overhead() - 0.05).abs() < 1e-12);
        assert_eq!(p.algorithm, Algorithm::EarliestDeadlineFirst);
    }

    #[test]
    fn required_utilizations_match_table_2a() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let req = p.required_utilizations().unwrap();
        assert!((req.ft - 0.267).abs() < 1e-3);
        assert!((req.fs - 0.267).abs() < 1e-3);
        assert!((req.nf - 0.250).abs() < 1e-3);
    }

    #[test]
    fn negative_overheads_are_rejected() {
        let (tasks, partition) = examples::paper_example();
        let mut overheads = PerMode::splat(0.01);
        overheads.fs = -0.01;
        assert!(matches!(
            DesignProblem::new(
                tasks,
                partition,
                overheads,
                Algorithm::EarliestDeadlineFirst
            ),
            Err(DesignError::InvalidOverhead { .. })
        ));
    }

    #[test]
    fn invalid_partitions_are_rejected() {
        let tasks = examples::paper_taskset();
        // Build a partition missing τ13 from the FT channel.
        use ftsched_task::{Mode, ModePartition, SystemPartition, TaskId};
        let id = TaskId;
        let partition = SystemPartition::new(
            ModePartition::new(Mode::FaultTolerant, vec![vec![id(10), id(11), id(12)]]).unwrap(),
            examples::paper_partition().mode(Mode::FailSilent).clone(),
            examples::paper_partition()
                .mode(Mode::NonFaultTolerant)
                .clone(),
        );
        assert!(DesignProblem::new(
            tasks,
            partition,
            PerMode::splat(0.0),
            Algorithm::EarliestDeadlineFirst
        )
        .is_err());
    }

    #[test]
    fn min_quanta_are_positive_and_monotone_in_period() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let q1 = p.min_quanta(1.0).unwrap();
        let q2 = p.min_quanta(2.0).unwrap();
        for mode in Mode::ALL {
            assert!(q1[mode] > 0.0);
            assert!(q2[mode] >= q1[mode]);
        }
    }

    #[test]
    fn eq15_lhs_is_period_minus_quanta() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let period = 2.0;
        let lhs = p.eq15_lhs(period).unwrap();
        let quanta = p.min_quanta(period).unwrap();
        assert!((lhs - (period - quanta.total())).abs() < 1e-12);
    }

    #[test]
    fn with_algorithm_changes_only_the_algorithm() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let rm = p.with_algorithm(Algorithm::RateMonotonic);
        assert_eq!(rm.algorithm, Algorithm::RateMonotonic);
        assert_eq!(rm.tasks, p.tasks);
        assert_eq!(rm.overheads, p.overheads);
    }

    #[test]
    fn with_overheads_validates() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        assert!(p.with_overheads(PerMode::splat(f64::NAN)).is_err());
        let q = p
            .with_overheads(PerMode {
                ft: 0.02,
                fs: 0.02,
                nf: 0.01,
            })
            .unwrap();
        assert!((q.total_overhead() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let p = paper_problem(Algorithm::RateMonotonic);
        let json = serde_json::to_string(&p).unwrap();
        let back: DesignProblem = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}

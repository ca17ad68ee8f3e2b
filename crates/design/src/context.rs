//! The sweep-aware analysis context of one design problem.
//!
//! Every design-layer search — the Figure 4 region sweep of Eq. 15, the
//! bisection for the maximum feasible period, the slack-ratio
//! maximisation, the quanta allocation of Eq. 12–14 — evaluates the same
//! per-mode, per-channel `minQ` functions at many candidate periods. An
//! [`AnalysisContext`] precomputes the period-independent part (one
//! [`MinQSweepMulti`] per mode, built from the problem's channel task
//! sets) so each period sample costs only the closed-form fold of
//! [`ftsched_analysis::sweep`], with no re-enumeration and no allocation.
//!
//! The context also carries the problem's overheads, making it
//! self-contained for the region functions: `eq15_lhs`, `min_quanta` and
//! the minimal allocation are all answerable from the context alone.

use ftsched_analysis::{Algorithm, MinQSweepMulti};
use ftsched_task::{Mode, PerMode};

use crate::error::DesignError;
use crate::problem::DesignProblem;
use crate::quanta::QuantaAllocation;

/// Precomputed per-mode `minQ` sweeps plus the overheads of one
/// [`DesignProblem`]: everything the period searches need, reusable across
/// any number of period samples.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisContext {
    sweeps: PerMode<MinQSweepMulti>,
    overheads: PerMode<f64>,
    algorithm: Algorithm,
}

impl AnalysisContext {
    /// Builds the context: enumerates scheduling points / deadline sets
    /// and workloads for every channel of every mode, once.
    ///
    /// # Errors
    ///
    /// Propagates partition/analysis errors (cannot occur on a validated
    /// problem).
    pub fn new(problem: &DesignProblem) -> Result<Self, DesignError> {
        let channels = problem.channel_task_sets()?;
        let sweeps = PerMode {
            ft: MinQSweepMulti::new(channels.get(Mode::FaultTolerant), problem.algorithm)?,
            fs: MinQSweepMulti::new(channels.get(Mode::FailSilent), problem.algorithm)?,
            nf: MinQSweepMulti::new(channels.get(Mode::NonFaultTolerant), problem.algorithm)?,
        };
        Ok(AnalysisContext {
            sweeps,
            overheads: problem.overheads,
            algorithm: problem.algorithm,
        })
    }

    /// The scheduling algorithm the context was built for.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Per-mode switching overheads of the underlying problem.
    pub fn overheads(&self) -> PerMode<f64> {
        self.overheads
    }

    /// Total switching overhead `O_tot`.
    pub fn total_overhead(&self) -> f64 {
        self.overheads.total()
    }

    /// Total number of precomputed `(t, W(t))` points over all modes and
    /// channels — the per-period cost of every evaluation below.
    pub fn point_count(&self) -> usize {
        Mode::ALL
            .iter()
            .map(|&m| self.sweeps[m].point_count())
            .sum()
    }

    /// The largest instant or workload of any precomputed point (see
    /// [`MinQSweepMulti::magnitude`]).
    pub fn magnitude(&self) -> f64 {
        Mode::ALL
            .iter()
            .map(|&m| self.sweeps[m].magnitude())
            .fold(0.0, f64::max)
    }

    /// The per-mode minimum useful quanta
    /// `Q̃_k ≥ max_i minQ(T_k^i, alg, P)` of Eq. 12–14 at one period
    /// (bit-identical to [`DesignProblem::min_quanta`]).
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (invalid period).
    pub fn min_quanta(&self, period: f64) -> Result<PerMode<f64>, DesignError> {
        let mut result = PerMode::splat(0.0);
        for mode in Mode::ALL {
            result[mode] = self.sweeps[mode].min_quantum_at(period)?.quantum;
        }
        Ok(result)
    }

    /// The left-hand side of Eq. 15 at one period:
    /// `f(P) = P − Σ_k max_i minQ(T_k^i, alg, P)`
    /// (bit-identical to [`DesignProblem::eq15_lhs`]).
    ///
    /// # Errors
    ///
    /// Propagates analysis errors (invalid period).
    pub fn eq15_lhs(&self, period: f64) -> Result<f64, DesignError> {
        let quanta = self.min_quanta(period)?;
        Ok(period - quanta.total())
    }

    /// The context for every base WCET multiplied by `lambda`, clamped
    /// at each task's deadline — exactly the problem
    /// [`crate::sensitivity::scale_wcets`] would build, without cloning
    /// the problem or re-enumerating a single scheduling point. The
    /// `lambda = 1` context is bit-identical to `self`.
    ///
    /// Probing many factors (a sensitivity bisection) should reuse a
    /// [`ScaledContext`] scratch instead, which makes every probe
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn scaled(&self, lambda: f64) -> AnalysisContext {
        AnalysisContext {
            sweeps: PerMode::from_fn(|m| self.sweeps[m].with_scaled_wcets(lambda)),
            overheads: self.overheads,
            algorithm: self.algorithm,
        }
    }

    /// [`Self::scaled`] into an existing context, reusing its point
    /// allocations (no allocation once `out` shares this context's
    /// enumerations — see [`ScaledContext`]).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn rescale_into(&self, lambda: f64, out: &mut AnalysisContext) {
        for mode in Mode::ALL {
            self.sweeps[mode].rescale_into(lambda, &mut out.sweeps[mode]);
        }
        out.overheads = self.overheads;
        out.algorithm = self.algorithm;
    }

    /// The minimal allocation of Eq. 12–14 at one period: every useful
    /// quantum at its minimum, the remainder as slack (bit-identical to
    /// [`crate::quanta::minimum_allocation`]).
    ///
    /// # Errors
    ///
    /// [`DesignError::InfeasiblePeriod`] if the minimum slots plus
    /// overheads do not fit in the period (Eq. 15 violated).
    pub fn minimum_allocation(&self, period: f64) -> Result<QuantaAllocation, DesignError> {
        let min_useful = self.min_quanta(period)?;
        let overheads = self.overheads;
        let slots = PerMode::from_fn(|m| min_useful[m] + overheads[m]);
        let slack = period - slots.total();
        if slack < -1e-9 {
            return Err(DesignError::InfeasiblePeriod { period, slack });
        }
        Ok(QuantaAllocation {
            period,
            overheads,
            min_useful,
            useful: min_useful,
            slots,
            slack: slack.max(0.0),
        })
    }
}

/// A reusable scratch context for WCET-scaling probes.
///
/// The WCET-sensitivity searches of [`crate::sensitivity`] evaluate the
/// same problem at dozens of inflation factors `λ`. Each probe only
/// changes the workload sums `W(t)`, so the scratch holds one clone of
/// the base context and [`ScaledContext::rescale`] rewrites its load
/// vectors in place: after construction, probing a factor allocates
/// nothing and re-enumerates nothing.
#[derive(Debug, Clone)]
pub struct ScaledContext {
    ctx: AnalysisContext,
}

impl ScaledContext {
    /// A scratch seeded from (and sharing the enumerations of) `base`.
    pub fn new(base: &AnalysisContext) -> Self {
        ScaledContext { ctx: base.clone() }
    }

    /// Rewrites the scratch to `base.scaled(lambda)` and returns it for
    /// evaluation. Bit-identical to [`AnalysisContext::scaled`];
    /// allocation-free when `base` is the context the scratch was seeded
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn rescale(&mut self, base: &AnalysisContext, lambda: f64) -> &AnalysisContext {
        base.rescale_into(lambda, &mut self.ctx);
        &self.ctx
    }

    /// The context as last rescaled.
    pub fn context(&self) -> &AnalysisContext {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::paper_problem;
    use crate::quanta::minimum_allocation;
    use ftsched_analysis::Algorithm;

    #[test]
    fn context_matches_problem_bit_for_bit() {
        for alg in Algorithm::ALL {
            let p = paper_problem(alg);
            let ctx = AnalysisContext::new(&p).unwrap();
            assert_eq!(ctx.algorithm(), alg);
            for i in 1..=40 {
                let period = i as f64 * 0.08;
                let direct = p.min_quanta(period).unwrap();
                let swept = ctx.min_quanta(period).unwrap();
                for mode in Mode::ALL {
                    assert_eq!(direct[mode].to_bits(), swept[mode].to_bits());
                }
                assert_eq!(
                    p.eq15_lhs(period).unwrap().to_bits(),
                    ctx.eq15_lhs(period).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn context_allocation_matches_direct_allocation() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let ctx = AnalysisContext::new(&p).unwrap();
        for period in [0.5, 0.855, 1.5, 2.0, 2.966] {
            let direct = minimum_allocation(&p, period).unwrap();
            let swept = ctx.minimum_allocation(period).unwrap();
            assert_eq!(direct, swept);
        }
        assert!(ctx.minimum_allocation(3.4).is_err());
    }

    #[test]
    fn context_exposes_overheads_and_points() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let ctx = AnalysisContext::new(&p).unwrap();
        assert!((ctx.total_overhead() - 0.05).abs() < 1e-12);
        assert_eq!(ctx.overheads(), p.overheads);
        assert!(ctx.point_count() > 0);
    }

    #[test]
    fn invalid_periods_error() {
        let p = paper_problem(Algorithm::RateMonotonic);
        let ctx = AnalysisContext::new(&p).unwrap();
        assert!(ctx.eq15_lhs(0.0).is_err());
        assert!(ctx.min_quanta(f64::NAN).is_err());
    }

    #[test]
    fn scaled_context_matches_a_scaled_problem_rebuild() {
        use crate::sensitivity::scale_wcets;
        for alg in Algorithm::ALL {
            let p = paper_problem(alg);
            let ctx = AnalysisContext::new(&p).unwrap();
            for lambda in [1.0, 1.05, 1.2, 2.0] {
                let scaled = ctx.scaled(lambda);
                let rebuilt = AnalysisContext::new(&scale_wcets(&p, lambda).unwrap()).unwrap();
                for i in 1..=30 {
                    let period = i as f64 * 0.1;
                    let a = scaled.min_quanta(period).unwrap();
                    let b = rebuilt.min_quanta(period).unwrap();
                    for mode in Mode::ALL {
                        assert_eq!(
                            a[mode].to_bits(),
                            b[mode].to_bits(),
                            "{alg} λ={lambda} P={period} {mode}"
                        );
                    }
                }
            }
            // λ = 1 is the exact identity.
            assert_eq!(ctx.scaled(1.0), ctx);
        }
    }

    #[test]
    fn scaled_scratch_is_bit_identical_to_scaled() {
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let ctx = AnalysisContext::new(&p).unwrap();
        let mut scratch = ScaledContext::new(&ctx);
        for lambda in [1.5, 1.0, 3.0, 1.01] {
            let via_scratch = scratch.rescale(&ctx, lambda);
            assert_eq!(via_scratch, &ctx.scaled(lambda));
            assert_eq!(scratch.context(), &ctx.scaled(lambda));
        }
    }
}

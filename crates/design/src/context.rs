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
//!
//! The sweeps depend only on the channel task sets and the algorithm, not
//! on the overheads, so they sit behind an [`Arc`]: a clone or a
//! [`AnalysisContext::with_overheads`] copy shares them, and
//! [`AnalysisContext::rescale_into`] copies them on its first write.

use std::sync::Arc;

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
    /// Shared by clones and by [`Self::with_overheads`] copies.
    sweeps: Arc<PerMode<MinQSweepMulti>>,
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
            sweeps: Arc::new(sweeps),
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

    /// The context of the same channel task sets and algorithm at other
    /// per-mode overheads: the context [`Self::new`] builds for the
    /// problem with those overheads, bit for bit, sharing this one's
    /// sweeps instead of enumerating them again. The overheads enter only
    /// Eq. 15's test and the allocation, never a `minQ`.
    pub fn with_overheads(&self, overheads: PerMode<f64>) -> AnalysisContext {
        AnalysisContext {
            sweeps: Arc::clone(&self.sweeps),
            overheads,
            algorithm: self.algorithm,
        }
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
    /// Probing many factors (a sensitivity bisection) should rescale one
    /// scratch clone with [`Self::rescale_into`] instead, which makes
    /// every probe allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn scaled(&self, lambda: f64) -> AnalysisContext {
        AnalysisContext {
            sweeps: Arc::new(PerMode::from_fn(|m| {
                self.sweeps[m].with_scaled_wcets(lambda)
            })),
            overheads: self.overheads,
            algorithm: self.algorithm,
        }
    }

    /// [`Self::scaled`] into an existing context, reusing its point
    /// allocations: once `out` is a clone of `self` (and so shares its
    /// enumerations), a rescale allocates nothing and re-enumerates
    /// nothing.
    ///
    /// Copy on write: when `out` still shares its sweeps with another
    /// context (a fresh clone does), the first rescale copies them, so
    /// the other context never sees a rescaled load.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn rescale_into(&self, lambda: f64, out: &mut AnalysisContext) {
        let sweeps = Arc::make_mut(&mut out.sweeps);
        for mode in Mode::ALL {
            self.sweeps[mode].rescale_into(lambda, &mut sweeps[mode]);
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
    fn with_overheads_is_a_fresh_context_at_those_overheads() {
        for alg in Algorithm::ALL {
            let base = AnalysisContext::new(&paper_problem(alg)).unwrap();
            for total in [0.0, 0.02, 0.3] {
                let overheads = PerMode::splat(total / 3.0);
                let shared = base.with_overheads(overheads);
                let fresh =
                    AnalysisContext::new(&paper_problem(alg).with_overheads(overheads).unwrap())
                        .unwrap();
                assert_eq!(shared, fresh, "{alg} O_tot={total}");
                assert!(Arc::ptr_eq(&shared.sweeps, &base.sweeps));
                for i in 1..=40 {
                    let period = i as f64 * 0.08;
                    assert_eq!(
                        shared.eq15_lhs(period).unwrap().to_bits(),
                        fresh.eq15_lhs(period).unwrap().to_bits()
                    );
                    assert_eq!(
                        shared.minimum_allocation(period).ok(),
                        fresh.minimum_allocation(period).ok()
                    );
                }
            }
        }
    }

    #[test]
    fn rescaling_a_clone_leaves_the_shared_original_untouched() {
        for alg in Algorithm::ALL {
            let original = AnalysisContext::new(&paper_problem(alg)).unwrap();
            let snapshot = AnalysisContext::new(&paper_problem(alg)).unwrap();
            let sibling = original.with_overheads(PerMode::splat(0.0));
            let mut scratch = original.clone();
            assert!(Arc::ptr_eq(&scratch.sweeps, &original.sweeps));
            original.rescale_into(1.7, &mut scratch);
            // The first write copied the sweeps; later ones reuse the copy.
            assert!(!Arc::ptr_eq(&scratch.sweeps, &original.sweeps));
            let copy = Arc::as_ptr(&scratch.sweeps);
            original.rescale_into(1.3, &mut scratch);
            assert_eq!(Arc::as_ptr(&scratch.sweeps), copy);
            assert_eq!(scratch, original.scaled(1.3));
            // Neither context sharing the original's sweeps sees a load.
            assert_eq!(original, snapshot, "{alg}");
            assert_eq!(sibling, snapshot.with_overheads(PerMode::splat(0.0)));
            assert!(Arc::ptr_eq(&sibling.sweeps, &original.sweeps));
        }
    }

    #[test]
    fn scaled_scratch_is_bit_identical_to_scaled() {
        for alg in Algorithm::ALL {
            let ctx = AnalysisContext::new(&paper_problem(alg)).unwrap();
            // One scratch clone, rescaled in place at every factor (in no
            // particular order), must equal the freshly scaled context.
            let mut scratch = ctx.clone();
            for lambda in [1.5, 1.0, 3.0, 1.01, 1.05, 2.0, 1.2] {
                ctx.rescale_into(lambda, &mut scratch);
                assert_eq!(scratch, ctx.scaled(lambda), "{alg} λ={lambda}");
            }
        }
    }
}

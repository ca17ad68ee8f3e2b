//! The feasible-period region of Eq. 15 (the paper's Figure 4).
//!
//! For a given design problem, define
//!
//! ```text
//! f(P) = P − Σ_{k ∈ {FT,FS,NF}}  max_{i = 1..numP_k}  minQ(T_k^i, alg, P)
//! ```
//!
//! Eq. 15 states that a period `P` can only be feasible if
//! `f(P) ≥ O_tot`. The paper's Figure 4 plots `f(P)` against `P` for both
//! EDF and RM; the horizontal line at `O_tot` cuts out the feasible
//! periods. From the same curve one reads off:
//!
//! * the **maximum feasible period** for a given overhead (points 1, 2 and
//!   5 in the figure) — used by the "minimise overhead bandwidth" design
//!   goal;
//! * the **maximum admissible overhead** (points 3 and 4) — the peak of
//!   the curve;
//! * the period maximising the **redistributable slack bandwidth**
//!   `(f(P) − O_tot)/P` — the second design goal of §4.
//!
//! ## Slope-bounded searches
//!
//! The three searches answer from the configured period grid, yet they
//! evaluate only the samples that can change their answer: the samples
//! already evaluated bound all the others. Take one scheduling point with
//! demand `W` at instant `t`. Its quantum is `q = (s − a)/2`, with
//! `a = t − P` and `s = √(a² + 4PW)`.
//!
//! * `q` is nondecreasing in `P`.
//! * If `W ≤ t`, then `dq/dP ≤ 1`, because
//!   `s² − (2W − t + P)² = 4W(t − W) ≥ 0`.
//! * If `W > t`, then `q > P` at every `P`.
//!
//! Both folds preserve this: the FP minimum over points and the maximum
//! over channels and EDF points. So for `P_j < P_i`, with
//! `d = P_i − P_j`, every mode satisfies
//! `minQ_k(P_j) ≥ clamp(minQ_k(P_i) − d, 0, P_j)`, and
//!
//! * from the right, `f(P_j) ≤ U_i(P_j) = P_j − Σ_k clamp(m_k − d, 0, P_j)`,
//!   where `m_k = minQ_k(P_i)`; this equals `f(P_i) + 2d` while every
//!   `m_k ≤ P_i` exceeds `d`;
//! * from the left, `f(P) ≤ f(a) + (P − a)` for `P > a`.
//!
//! Between two evaluated samples the smaller of the two bounds is a
//! concave piecewise-linear function of `P` with at most nine knots, so
//! its maximum and its super-level sets cost a few operations. The
//! searches use it three ways:
//!
//! * the **last feasible sample** scans right to left and evaluates only
//!   the last sample the nearest evaluated one cannot rule out, then
//!   bisects the bracket to its right;
//! * the **peak** is a best-first branch and bound over the gaps between
//!   evaluated samples;
//! * the **slack argmax** is the same branch and bound on
//!   `(f − O_tot)/P` over the samples the scan left feasible.
//!
//! A gap is dropped only when its bound falls strictly below the best
//! sample so far, so ties survive and each search returns the sample the
//! eager sweep returns (the last of equal maxima, as `max_by` keeps it),
//! bit for bit. Every bound is compared with a rounding guard sized from
//! the magnitudes each `q(t)` is rounded at: the largest enumerated
//! instant or workload (the EDF horizon caps instants at 100,000) and
//! `period_max`. [`sweep_region_with`] still evaluates the whole curve:
//! Figure 4 plots it, and the tests use it as the searches' oracle.

use serde::{Deserialize, Serialize};

use ftsched_task::{Mode, PerMode};

use crate::context::AnalysisContext;
use crate::error::DesignError;
use crate::problem::DesignProblem;

/// Configuration of the period sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionConfig {
    /// Smallest period to consider (must be > 0).
    pub period_min: f64,
    /// Largest period to consider.
    pub period_max: f64,
    /// Number of grid samples between `period_min` and `period_max`.
    pub samples: usize,
    /// Number of refinement iterations (bisection steps / local grid
    /// passes) applied after the coarse sweep.
    pub refine_iterations: usize,
}

impl RegionConfig {
    /// The sweep used to reproduce the paper's Figure 4: periods up to 3.5
    /// with a fine grid.
    pub fn paper_figure4() -> Self {
        RegionConfig {
            period_min: 0.02,
            period_max: 3.5,
            samples: 1_400,
            refine_iterations: 60,
        }
    }

    /// A default sweep whose upper bound adapts to the task set (twice the
    /// largest deadline is always past the peak of `f`).
    pub fn for_problem(problem: &DesignProblem) -> Self {
        let max_deadline = problem
            .tasks
            .iter()
            .map(|t| t.deadline)
            .fold(0.0_f64, f64::max)
            .max(1.0);
        RegionConfig {
            period_min: 0.02,
            period_max: max_deadline,
            samples: 1_000,
            refine_iterations: 60,
        }
    }

    fn validate(&self) -> Result<(), DesignError> {
        if !(self.period_min > 0.0
            && self.period_max > self.period_min
            && self.period_min.is_finite()
            && self.period_max.is_finite()
            && self.samples >= 2)
        {
            return Err(DesignError::InvalidSearchRange {
                min: self.period_min,
                max: self.period_max,
            });
        }
        Ok(())
    }

    /// The spacing of the period grid.
    fn step(&self) -> f64 {
        (self.period_max - self.period_min) / (self.samples - 1) as f64
    }

    /// The period of grid sample `index`.
    fn sample(&self, index: usize, step: f64) -> f64 {
        self.period_min + index as f64 * step
    }
}

/// One sample of the Figure 4 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionPoint {
    /// The candidate slot period `P`.
    pub period: f64,
    /// The left-hand side of Eq. 15, `f(P)`.
    pub lhs: f64,
}

/// The sampled feasible-period region of one design problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeasibleRegion {
    /// Samples of `f(P)` in increasing period order.
    pub points: Vec<RegionPoint>,
    /// Total overhead `O_tot` of the problem the sweep was computed for.
    pub total_overhead: f64,
}

impl FeasibleRegion {
    /// The sample with the largest `f(P)` — an approximation of the
    /// maximum admissible overhead (points 3/4 of Figure 4).
    pub fn peak(&self) -> RegionPoint {
        *self
            .points
            .iter()
            .max_by(|a, b| a.lhs.partial_cmp(&b.lhs).expect("finite lhs"))
            .expect("a sweep always has samples")
    }

    /// The largest sampled period with `f(P) ≥ threshold`.
    pub fn last_feasible_sample(&self, threshold: f64) -> Option<RegionPoint> {
        self.points
            .iter()
            .rev()
            .find(|p| p.lhs >= threshold)
            .copied()
    }

    /// All samples with `f(P) ≥ threshold` (the feasible sub-grid).
    pub fn feasible_samples(&self, threshold: f64) -> Vec<RegionPoint> {
        self.points
            .iter()
            .filter(|p| p.lhs >= threshold)
            .copied()
            .collect()
    }
}

/// Sweeps `f(P)` over every sample of the configured period grid.
///
/// Builds the problem's [`AnalysisContext`] once and evaluates only the
/// closed-form `q(t)` per grid sample.
///
/// # Errors
///
/// Returns a [`DesignError`] for an invalid search range or analysis
/// failure.
pub fn sweep_region(
    problem: &DesignProblem,
    config: &RegionConfig,
) -> Result<FeasibleRegion, DesignError> {
    sweep_region_with(&problem.analysis_context()?, config)
}

/// [`sweep_region`] over a prebuilt [`AnalysisContext`]: the whole
/// curve, sample by sample. The searches below answer the same questions
/// from a few samples.
///
/// # Errors
///
/// Returns a [`DesignError`] for an invalid search range or analysis
/// failure.
pub fn sweep_region_with(
    ctx: &AnalysisContext,
    config: &RegionConfig,
) -> Result<FeasibleRegion, DesignError> {
    config.validate()?;
    let step = config.step();
    let points = (0..config.samples)
        .map(|i| {
            let period = config.sample(i, step);
            Ok(RegionPoint {
                period,
                lhs: ctx.eq15_lhs(period)?,
            })
        })
        .collect::<Result<Vec<_>, DesignError>>()?;
    Ok(FeasibleRegion {
        points,
        total_overhead: ctx.total_overhead(),
    })
}

/// The largest feasible period for the problem's total overhead: the
/// largest `P` in the search range with `f(P) ≥ O_tot` (point 5 of
/// Figure 4 for `O_tot = 0.05`, points 1/2 for `O_tot = 0`).
///
/// The coarse grid locates the last feasible sample and bisection refines
/// the boundary where `f` drops below the overhead.
///
/// # Errors
///
/// [`DesignError::NoFeasiblePeriod`] if no sampled period is feasible.
pub fn max_feasible_period(
    problem: &DesignProblem,
    config: &RegionConfig,
) -> Result<f64, DesignError> {
    max_feasible_period_with(&problem.analysis_context()?, config)
}

/// [`max_feasible_period`] over a prebuilt [`AnalysisContext`]: the
/// answer of [`last_feasible_period_with`], and on a rejection the peak
/// of the curve for the error.
///
/// # Errors
///
/// [`DesignError::NoFeasiblePeriod`] if no sampled period is feasible.
pub fn max_feasible_period_with(
    ctx: &AnalysisContext,
    config: &RegionConfig,
) -> Result<f64, DesignError> {
    let mut search = Search::new(ctx, config)?;
    let threshold = ctx.total_overhead();
    match search.feasible_period(threshold)? {
        Some(period) => Ok(period),
        None => Err(search.no_feasible_period(threshold)),
    }
}

/// The largest feasible period for the context's total overhead, or
/// `None` when no sampled period is feasible: [`max_feasible_period_with`]
/// without the peak search that only its error reports. Callers that
/// need just the verdict on a rejection (a campaign trial) skip that
/// search.
///
/// # Errors
///
/// Returns a [`DesignError`] for an invalid search range or analysis
/// failure.
pub fn last_feasible_period_with(
    ctx: &AnalysisContext,
    config: &RegionConfig,
) -> Result<Option<f64>, DesignError> {
    Search::new(ctx, config)?.feasible_period(ctx.total_overhead())
}

/// The maximum admissible total overhead: `max_P f(P)` over the search
/// range, refined with a local fine grid around the best coarse sample
/// (points 3 and 4 of Figure 4). Returns the maximising period and the
/// overhead value.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn max_admissible_overhead(
    problem: &DesignProblem,
    config: &RegionConfig,
) -> Result<RegionPoint, DesignError> {
    max_admissible_overhead_with(&problem.analysis_context()?, config)
}

/// [`max_admissible_overhead`] over a prebuilt [`AnalysisContext`].
///
/// # Errors
///
/// Propagates sweep errors.
pub fn max_admissible_overhead_with(
    ctx: &AnalysisContext,
    config: &RegionConfig,
) -> Result<RegionPoint, DesignError> {
    let mut search = Search::new(ctx, config)?;
    search.evaluate(config.samples - 1)?;
    let coarse = search.best(Objective::Peak)?;
    search.refine_maximum(coarse, |lhs, _| lhs)
}

/// The period maximising the redistributable slack bandwidth
/// `(f(P) − O_tot) / P` over the feasible periods — the second design goal
/// of §4 (Table 2(c)). Returns the maximising period and the corresponding
/// `f(P)` value.
///
/// # Errors
///
/// [`DesignError::NoFeasiblePeriod`] if no period is feasible for the
/// problem's overhead.
pub fn max_slack_ratio_period(
    problem: &DesignProblem,
    config: &RegionConfig,
) -> Result<RegionPoint, DesignError> {
    max_slack_ratio_period_with(&problem.analysis_context()?, config)
}

/// [`max_slack_ratio_period`] over a prebuilt [`AnalysisContext`].
///
/// # Errors
///
/// [`DesignError::NoFeasiblePeriod`] if no period is feasible for the
/// problem's overhead.
pub fn max_slack_ratio_period_with(
    ctx: &AnalysisContext,
    config: &RegionConfig,
) -> Result<RegionPoint, DesignError> {
    let mut search = Search::new(ctx, config)?;
    let threshold = ctx.total_overhead();
    let Some(last) = search.last_feasible(threshold)? else {
        return Err(search.no_feasible_period(threshold));
    };
    // Every sample right of the last feasible one is infeasible.
    search.samples.retain(|s| s.index <= last.index);
    let coarse = search.best(Objective::Slack { threshold })?;
    search.refine_maximum(coarse, |lhs, period| (lhs - threshold) / period)
}

/// Rounding allowance of every bound comparison, in ulps of the largest
/// magnitude a search rounds at. The error of one `q(t)` is a few ulps of
/// that magnitude; summed over three modes, carried through a bound and
/// compared twice, it stays well below this.
const GUARD_ULPS: f64 = 1024.0;

/// What a branch and bound maximises over the grid samples.
#[derive(Debug, Clone, Copy)]
enum Objective {
    /// `f(P)` itself: the peak of the curve.
    Peak,
    /// The slack ratio `(f(P) − O_tot)/P` over the feasible samples.
    Slack { threshold: f64 },
}

impl Objective {
    /// The score of `f(P) = lhs`, or `None` when `P` is no candidate. It
    /// grows with `lhs`, and along a linear piece of a bound on `lhs` it
    /// is monotone in `P`, so over the piece it peaks at an end.
    fn score(self, period: f64, lhs: f64) -> Option<f64> {
        match self {
            Objective::Peak => Some(lhs),
            Objective::Slack { threshold } => {
                (lhs >= threshold).then(|| (lhs - threshold) / period)
            }
        }
    }
}

/// One evaluated grid sample: its point of the curve and the per-mode
/// quanta the bound to its left starts from.
#[derive(Debug, Clone, Copy)]
struct Sample {
    index: usize,
    point: RegionPoint,
    quanta: PerMode<f64>,
}

impl Sample {
    /// `U(P)`: the bound on `f(P)` for a period `P` left of this sample.
    fn bound_left(&self, period: f64) -> f64 {
        let d = self.point.period - period;
        period
            - Mode::ALL
                .iter()
                .map(|&m| (self.quanta[m] - d).clamp(0.0, period))
                .sum::<f64>()
    }
}

/// The unevaluated samples `first..=last` between two evaluated ones,
/// where `f(P) ≤ min(α + P, U(P))`: `α = f(a) − a` from the evaluated
/// sample `a` on the left (zero without one, since `f(P) ≤ P`) and `U`
/// from the evaluated sample on the right.
struct Gap<'s> {
    first: usize,
    last: usize,
    alpha: f64,
    next: &'s Sample,
    search: &'s Search<'s>,
}

impl Gap<'_> {
    fn bound(&self, period: f64) -> f64 {
        (self.alpha + period).min(self.next.bound_left(period))
    }

    /// The knots of the bound over `[P_first, P_last]` in increasing
    /// order: the ends, the periods where a mode's clamp leaves zero and
    /// the crossings of the two bounds. The bound is linear between
    /// consecutive knots.
    fn knots(&self) -> ([f64; 9], usize) {
        let lo = self.search.period(self.first);
        let hi = self.search.period(self.last);
        let mut breaks = [lo, hi, 0.0, 0.0, 0.0];
        let mut n = 2;
        for mode in Mode::ALL {
            let knot = self.next.point.period - self.next.quanta[mode];
            if knot > lo && knot < hi {
                breaks[n] = knot;
                n += 1;
            }
        }
        breaks[..n].sort_by(f64::total_cmp);
        let mut knots = [lo; 9];
        let mut len = 1;
        for pair in breaks[..n].windows(2) {
            let (p0, p1) = (pair[0], pair[1]);
            let e0 = self.next.bound_left(p0) - (self.alpha + p0);
            let e1 = self.next.bound_left(p1) - (self.alpha + p1);
            if (e0 > 0.0 && e1 < 0.0) || (e0 < 0.0 && e1 > 0.0) {
                knots[len] = p0 + (p1 - p0) * (e0 / (e0 - e1));
                len += 1;
            }
            knots[len] = p1;
            len += 1;
        }
        (knots, len)
    }

    /// An upper bound of `objective` over the gap's samples and the
    /// sample nearest to where it is attained, or `None` when no sample
    /// of the gap can be a candidate. Between knots the bound is linear,
    /// and both objectives are monotone along a linear piece, so the
    /// knots carry the maximum.
    fn best_bound(&self, objective: Objective) -> Option<(f64, usize)> {
        let (knots, len) = self.knots();
        let mut best: Option<(f64, f64)> = None;
        for &period in &knots[..len] {
            let bound = self.bound(period) + self.search.guard;
            if let Some(score) = objective.score(period, bound) {
                if best.is_none_or(|(b, _)| score > b) {
                    best = Some((score, period));
                }
            }
        }
        best.map(|(score, period)| {
            let nearest = self.search.position(period).round() as usize;
            (score, nearest.clamp(self.first, self.last))
        })
    }

    /// The last sample of the gap whose bound reaches `cutoff`, or `None`.
    /// The bound is concave, so the periods where it reaches the cutoff
    /// form one interval; samples farther than the guard outside it fall
    /// short, and the few inside are checked one by one.
    fn last_reaching(&self, cutoff: f64) -> Option<usize> {
        let (knots, len) = self.knots();
        let knots = &knots[..len];
        let mut values = [0.0; 9];
        for (value, &period) in values.iter_mut().zip(knots) {
            *value = self.bound(period);
        }
        let crossing = |i: usize, j: usize| {
            knots[i] + (knots[j] - knots[i]) * ((values[i] - cutoff) / (values[i] - values[j]))
        };
        let top = (0..len).rev().find(|&i| values[i] >= cutoff)?;
        let bottom = (0..len).find(|&i| values[i] >= cutoff)?;
        let hi = if top + 1 < len {
            crossing(top, top + 1)
        } else {
            knots[top]
        };
        let lo = if bottom > 0 {
            crossing(bottom, bottom - 1)
        } else {
            knots[bottom]
        };
        let guard = self.search.guard;
        let from = (self.search.position(hi + guard).floor() as usize).min(self.last);
        let to = (self.search.position(lo - guard).ceil() as usize).max(self.first);
        (to..=from)
            .rev()
            .find(|&i| self.bound(self.search.period(i)) >= cutoff)
    }
}

/// Makes `sample` the best one if it scores higher, or equal and further
/// right.
fn offer(best: &mut Option<(f64, Sample)>, objective: Objective, sample: &Sample) {
    let Some(score) = objective.score(sample.point.period, sample.point.lhs) else {
        return;
    };
    if best.is_none_or(|(b, s)| score > b || (score == b && sample.index > s.index)) {
        *best = Some((score, *sample));
    }
}

/// The grid of one search and the samples of `f` it has evaluated.
struct Search<'a> {
    ctx: &'a AnalysisContext,
    config: &'a RegionConfig,
    step: f64,
    /// Rounding allowance of every bound comparison.
    guard: f64,
    /// Evaluated samples in increasing index order.
    samples: Vec<Sample>,
    /// `f(P)` evaluations made, on the grid and in refinement.
    evaluations: u64,
}

impl Drop for Search<'_> {
    fn drop(&mut self) {
        let evaluations = self.evaluations;
        ftsched_obs::record(|m| m.region_evaluations.add(evaluations));
    }
}

impl<'a> Search<'a> {
    fn new(ctx: &'a AnalysisContext, config: &'a RegionConfig) -> Result<Self, DesignError> {
        config.validate()?;
        let scale = ctx.magnitude() + config.period_max;
        Ok(Search {
            ctx,
            config,
            step: config.step(),
            guard: GUARD_ULPS * f64::EPSILON * scale,
            samples: Vec::new(),
            evaluations: 0,
        })
    }

    /// The period of grid sample `index`.
    fn period(&self, index: usize) -> f64 {
        self.config.sample(index, self.step)
    }

    /// Where `period` falls on the grid, in samples (never negative).
    fn position(&self, period: f64) -> f64 {
        ((period - self.config.period_min) / self.step).max(0.0)
    }

    /// `f(P)` at any period.
    fn lhs(&mut self, period: f64) -> Result<f64, DesignError> {
        self.evaluations += 1;
        self.ctx.eq15_lhs(period)
    }

    /// Evaluates grid sample `index` and files it with the others.
    fn evaluate(&mut self, index: usize) -> Result<Sample, DesignError> {
        let period = self.period(index);
        self.evaluations += 1;
        let quanta = self.ctx.min_quanta(period)?;
        let sample = Sample {
            index,
            point: RegionPoint {
                period,
                lhs: period - quanta.total(),
            },
            quanta,
        };
        let at = self.samples.partition_point(|s| s.index < index);
        self.samples.insert(at, sample);
        Ok(sample)
    }

    /// The unevaluated samples left of `samples[at]`, if there are any.
    fn gap(&self, at: usize) -> Option<Gap<'_>> {
        let next = &self.samples[at];
        let (first, alpha) = match at.checked_sub(1).map(|i| &self.samples[i]) {
            Some(prev) => (prev.index + 1, prev.point.lhs - prev.point.period),
            None => (0, 0.0),
        };
        (first < next.index).then(|| Gap {
            first,
            last: next.index - 1,
            alpha,
            next,
            search: self,
        })
    }

    /// The last grid sample with `f(P) ≥ threshold`, scanning right to
    /// left, or `None` when no sample is feasible. Each evaluated sample
    /// rules out every sample to its left whose bound stays below the
    /// threshold, down to the next one that could reach it.
    fn last_feasible(&mut self, threshold: f64) -> Result<Option<Sample>, DesignError> {
        let cutoff = threshold - self.guard;
        let mut next = self.evaluate(self.config.samples - 1)?;
        while next.point.lhs < threshold {
            match self.gap(0).and_then(|gap| gap.last_reaching(cutoff)) {
                Some(index) => next = self.evaluate(index)?,
                None => return Ok(None),
            }
        }
        Ok(Some(next))
    }

    /// The largest period with `f(P) ≥ threshold`: the last feasible
    /// sample, refined by bisecting the bracket to its right on the
    /// continuous function `f(P) − threshold`.
    fn feasible_period(&mut self, threshold: f64) -> Result<Option<f64>, DesignError> {
        let Some(last) = self.last_feasible(threshold)? else {
            return Ok(None);
        };
        if last.index + 1 >= self.config.samples {
            // Feasible up to the end of the search range.
            return Ok(Some(last.point.period));
        }
        let mut lo = last.point.period;
        let mut hi = self.period(last.index + 1);
        for _ in 0..self.config.refine_iterations {
            let mid = 0.5 * (lo + hi);
            if self.lhs(mid)? >= threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Some(lo))
    }

    /// The error of a search that found no feasible sample: it carries
    /// the peak of the curve, found from the samples the scan evaluated.
    fn no_feasible_period(&mut self, threshold: f64) -> DesignError {
        match self.best(Objective::Peak) {
            Ok(peak) => DesignError::NoFeasiblePeriod {
                total_overhead: threshold,
                max_admissible_overhead: peak.lhs,
            },
            Err(e) => e,
        }
    }

    /// The last sample maximising `objective` over the grid up to the
    /// last evaluated sample: a best-first branch and bound over the gaps
    /// between evaluated samples. A gap is dropped only when its bound
    /// falls strictly below the best score, so an equal sample further
    /// right still replaces the best, as `max_by` would.
    fn best(&mut self, objective: Objective) -> Result<RegionPoint, DesignError> {
        let mut best = None;
        for sample in &self.samples {
            offer(&mut best, objective, sample);
        }
        // `bounds[at]`: the bound of the gap left of `samples[at]`.
        let gap_bound =
            |search: &Self, at: usize| search.gap(at).and_then(|gap| gap.best_bound(objective));
        let mut bounds: Vec<_> = (0..self.samples.len())
            .map(|at| gap_bound(self, at))
            .collect();
        loop {
            let mut pick: Option<(f64, usize, usize)> = None;
            for (at, bound) in bounds.iter().enumerate() {
                let Some((score, index)) = *bound else {
                    continue;
                };
                if best.is_none_or(|(b, _)| score >= b) && pick.is_none_or(|(p, _, _)| score > p) {
                    pick = Some((score, index, at));
                }
            }
            let Some((_, index, at)) = pick else {
                break;
            };
            let sample = self.evaluate(index)?;
            offer(&mut best, objective, &sample);
            bounds.insert(at, gap_bound(self, at));
            bounds[at + 1] = gap_bound(self, at + 1);
        }
        Ok(best.expect("the grid has an evaluated candidate").1.point)
    }

    /// Refines a maximiser of `score(f(P), P)` with successive local
    /// grids around the coarse sample.
    fn refine_maximum(
        &mut self,
        coarse: RegionPoint,
        score: impl Fn(f64, f64) -> f64,
    ) -> Result<RegionPoint, DesignError> {
        let mut best = coarse;
        let mut best_score = score(coarse.lhs, coarse.period);
        let mut step = self.step;
        // Each pass samples 21 points spanning ±step around the current
        // best and then shrinks the window; a handful of passes reaches
        // ~1e-9 precision.
        let passes = (self.config.refine_iterations / 10).clamp(4, 12);
        for _ in 0..passes {
            let lo = (best.period - step).max(1e-6);
            let hi = best.period + step;
            let local_step = (hi - lo) / 20.0;
            for i in 0..=20 {
                let period = lo + i as f64 * local_step;
                let lhs = self.lhs(period)?;
                let s = score(lhs, period);
                if s > best_score {
                    best_score = s;
                    best = RegionPoint { period, lhs };
                }
            }
            step = local_step;
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::paper_problem;
    use ftsched_analysis::Algorithm;
    use ftsched_task::PerMode;

    fn edf_problem_with_overhead(o: f64) -> DesignProblem {
        paper_problem(Algorithm::EarliestDeadlineFirst)
            .with_overheads(PerMode::splat(o / 3.0))
            .unwrap()
    }

    fn rm_problem_with_overhead(o: f64) -> DesignProblem {
        paper_problem(Algorithm::RateMonotonic)
            .with_overheads(PerMode::splat(o / 3.0))
            .unwrap()
    }

    #[test]
    fn sweep_produces_the_requested_samples() {
        let p = edf_problem_with_overhead(0.05);
        let config = RegionConfig {
            period_min: 0.1,
            period_max: 3.5,
            samples: 50,
            refine_iterations: 20,
        };
        let region = sweep_region(&p, &config).unwrap();
        assert_eq!(region.points.len(), 50);
        assert!((region.points[0].period - 0.1).abs() < 1e-12);
        assert!((region.points[49].period - 3.5).abs() < 1e-12);
        assert!((region.total_overhead - 0.05).abs() < 1e-12);
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        let p = edf_problem_with_overhead(0.05);
        let bad = RegionConfig {
            period_min: 2.0,
            period_max: 1.0,
            samples: 10,
            refine_iterations: 5,
        };
        assert!(matches!(
            sweep_region(&p, &bad),
            Err(DesignError::InvalidSearchRange { .. })
        ));
        let bad = RegionConfig {
            period_min: 0.0,
            period_max: 1.0,
            samples: 10,
            refine_iterations: 5,
        };
        assert!(sweep_region(&p, &bad).is_err());
    }

    // ---- Figure 4 anchor points -------------------------------------------

    #[test]
    fn figure4_point1_edf_max_period_with_zero_overhead() {
        // Paper: maximum feasible period 3.176 under EDF with O_tot = 0.
        let p = edf_problem_with_overhead(0.0);
        let period = max_feasible_period(&p, &RegionConfig::paper_figure4()).unwrap();
        assert!((period - 3.176).abs() < 0.01, "EDF max period {period:.4}");
    }

    #[test]
    fn figure4_point2_rm_max_period_with_zero_overhead() {
        // Paper: maximum feasible period 2.381 under RM with O_tot = 0.
        let p = rm_problem_with_overhead(0.0);
        let period = max_feasible_period(&p, &RegionConfig::paper_figure4()).unwrap();
        assert!((period - 2.381).abs() < 0.01, "RM max period {period:.4}");
    }

    #[test]
    fn figure4_point3_edf_max_admissible_overhead() {
        // Paper: maximum admissible total overhead 0.201 under EDF.
        let p = edf_problem_with_overhead(0.0);
        let peak = max_admissible_overhead(&p, &RegionConfig::paper_figure4()).unwrap();
        assert!(
            (peak.lhs - 0.201).abs() < 0.005,
            "EDF max overhead {:.4}",
            peak.lhs
        );
    }

    #[test]
    fn figure4_point4_rm_max_admissible_overhead() {
        // Paper: maximum admissible total overhead 0.129 under RM.
        let p = rm_problem_with_overhead(0.0);
        let peak = max_admissible_overhead(&p, &RegionConfig::paper_figure4()).unwrap();
        assert!(
            (peak.lhs - 0.129).abs() < 0.005,
            "RM max overhead {:.4}",
            peak.lhs
        );
    }

    #[test]
    fn figure4_point5_edf_max_period_with_paper_overhead() {
        // Paper: maximum feasible period 2.966 under EDF with O_tot = 0.05.
        let p = edf_problem_with_overhead(0.05);
        let period = max_feasible_period(&p, &RegionConfig::paper_figure4()).unwrap();
        assert!((period - 2.966).abs() < 0.01, "EDF max period {period:.4}");
    }

    #[test]
    fn edf_region_dominates_rm_region() {
        // Every RM-feasible period is EDF-feasible (Figure 4: the EDF curve
        // lies above the RM curve).
        let edf = edf_problem_with_overhead(0.05);
        let rm = rm_problem_with_overhead(0.05);
        let config = RegionConfig {
            period_min: 0.1,
            period_max: 3.5,
            samples: 120,
            refine_iterations: 0,
        };
        let edf_region = sweep_region(&edf, &config).unwrap();
        let rm_region = sweep_region(&rm, &config).unwrap();
        for (e, r) in edf_region.points.iter().zip(&rm_region.points) {
            assert!(e.lhs + 1e-9 >= r.lhs, "P={}", e.period);
        }
    }

    #[test]
    fn no_feasible_period_when_overhead_exceeds_the_peak() {
        let p = edf_problem_with_overhead(0.3); // > 0.201
        let err = max_feasible_period(&p, &RegionConfig::paper_figure4()).unwrap_err();
        match err {
            DesignError::NoFeasiblePeriod {
                max_admissible_overhead,
                ..
            } => {
                assert!((max_admissible_overhead - 0.201).abs() < 0.01);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn max_slack_ratio_matches_table_2c() {
        // Paper Table 2(c): the slack-maximising design has P = 0.855 and
        // redistributes 12.1 % of the bandwidth.
        let p = edf_problem_with_overhead(0.05);
        let best = max_slack_ratio_period(&p, &RegionConfig::paper_figure4()).unwrap();
        let ratio = (best.lhs - 0.05) / best.period;
        assert!(
            (best.period - 0.855).abs() < 0.02,
            "slack-optimal period {:.4}",
            best.period
        );
        assert!((ratio - 0.121).abs() < 0.005, "slack ratio {ratio:.4}");
    }

    /// The bounds the searches prune with, checked sample by sample with
    /// anchors evaluated at a few strides: every unevaluated `f(P)` lies
    /// within its gap's bound plus the guard; the knots carry the largest
    /// objective score the bound allows at any sample; and the scan's
    /// candidate is never left of a sample the bound lets reach the
    /// cutoff. Besides the paper problem, a task with `W(t) = t` makes
    /// the right-hand bound exact (its quantum is `P`), a very light
    /// task makes the left-hand one nearly exact, and under RM and DM a
    /// channel whose every point has `W(t) > t` needs the clamp at `P`.
    #[test]
    fn gap_bounds_cover_every_sample() {
        use crate::partitioner::{partition_system, PartitionHeuristic};
        use ftsched_task::{Mode, Task, TaskSet};

        let problem = |tasks: Vec<Task>, o: f64, alg: Algorithm| {
            let tasks = TaskSet::new(tasks).unwrap();
            let partition =
                partition_system(&tasks, PartitionHeuristic::FirstFitDecreasing).unwrap();
            DesignProblem::with_total_overhead(tasks, partition, o, alg).unwrap()
        };
        let task = |c: f64, t: f64, mode: Mode| Task::implicit_deadline(1, c, t, mode).unwrap();
        let full = vec![task(8.0, 8.0, Mode::NonFaultTolerant)];
        let light = vec![task(0.01, 10.0, Mode::FaultTolerant)];
        let overloaded = vec![
            task(2.0, 4.0, Mode::NonFaultTolerant),
            Task::implicit_deadline(2, 3.0, 6.0, Mode::NonFaultTolerant).unwrap(),
        ];
        let dyadic = RegionConfig {
            period_min: 0.25,
            period_max: 4.0,
            samples: 61,
            refine_iterations: 0,
        };
        let mut cases = Vec::new();
        for alg in Algorithm::ALL {
            for o in [0.0, 0.05, 0.15] {
                let paper = paper_problem(alg)
                    .with_overheads(PerMode::splat(o / 3.0))
                    .unwrap();
                cases.push((paper, RegionConfig::paper_figure4()));
                cases.push((problem(full.clone(), o, alg), dyadic));
                cases.push((
                    problem(light.clone(), o, alg),
                    RegionConfig::paper_figure4(),
                ));
                cases.push((
                    problem(overloaded.clone(), o, alg),
                    RegionConfig::paper_figure4(),
                ));
            }
        }
        for (problem, config) in cases {
            let ctx = problem.analysis_context().unwrap();
            let curve = sweep_region_with(&ctx, &config).unwrap().points;
            let threshold = ctx.total_overhead();
            let cutoff = threshold - 1e-3;
            for stride in [2, 7, 37, 250] {
                let mut search = Search::new(&ctx, &config).unwrap();
                for index in (0..config.samples).rev().step_by(stride) {
                    search.evaluate(index).unwrap();
                }
                for at in 0..search.samples.len() {
                    let Some(gap) = search.gap(at) else {
                        continue;
                    };
                    let inside = &curve[gap.first..=gap.last];
                    let bounds: Vec<f64> = inside.iter().map(|p| gap.bound(p.period)).collect();
                    for (p, bound) in inside.iter().zip(&bounds) {
                        assert!(p.lhs <= bound + search.guard, "{p:?} above {bound}");
                    }
                    let slack = Objective::Slack { threshold };
                    for objective in [Objective::Peak, slack] {
                        let top = inside
                            .iter()
                            .zip(&bounds)
                            .filter_map(|(p, b)| objective.score(p.period, b + search.guard))
                            .reduce(f64::max);
                        if let Some(top) = top {
                            let (bound, _) = gap.best_bound(objective).expect("a candidate");
                            assert!(top <= bound + 1e-12, "{objective:?}: {top} > {bound}");
                        }
                    }
                    let reaching = (0..inside.len()).rev().find(|&i| bounds[i] >= cutoff);
                    let reached = gap.last_reaching(cutoff);
                    assert_eq!(reached, reaching.map(|i| gap.first + i));
                }
            }
        }
    }

    #[test]
    fn equal_scores_keep_the_rightmost_sample_as_max_by_does() {
        let sample = |index: usize| Sample {
            index,
            point: RegionPoint {
                period: index as f64,
                lhs: 1.0,
            },
            quanta: PerMode::splat(0.0),
        };
        for order in [[5, 9], [9, 5]] {
            let mut best = None;
            for index in order {
                offer(&mut best, Objective::Peak, &sample(index));
            }
            assert_eq!(best.unwrap().1.index, 9, "offered in order {order:?}");
        }
    }

    #[test]
    fn searches_count_their_evaluations() {
        // Paper EDF problem, O_tot = 0.05, 1,400 samples; the eager sweep
        // counts nothing. The feasible period takes 32 scan samples and 60
        // bisection steps, with or without the error's peak search (a
        // feasible problem never runs it). The slack argmax adds 269
        // branch-and-bound samples to the scan and the peak takes 265;
        // both then refine with 6 local passes of 21 periods.
        let p = paper_problem(Algorithm::EarliestDeadlineFirst);
        let config = RegionConfig::paper_figure4();
        let ctx = p.analysis_context().unwrap();
        let count = |search: &dyn Fn()| {
            let run = ftsched_obs::Recorder::new();
            {
                let _current = run.enter();
                search();
            }
            run.snapshot().timing.region_evaluations
        };
        let counts = [
            count(&|| drop(sweep_region_with(&ctx, &config))),
            count(&|| drop(max_feasible_period_with(&ctx, &config))),
            count(&|| drop(last_feasible_period_with(&ctx, &config))),
            count(&|| drop(max_slack_ratio_period_with(&ctx, &config))),
            count(&|| drop(max_admissible_overhead_with(&ctx, &config))),
        ];
        assert_eq!(counts, [0, 92, 92, 427, 391]);
    }

    #[test]
    fn feasible_samples_threshold_filters() {
        let p = edf_problem_with_overhead(0.05);
        let config = RegionConfig {
            period_min: 0.1,
            period_max: 3.5,
            samples: 200,
            refine_iterations: 0,
        };
        let region = sweep_region(&p, &config).unwrap();
        let feasible = region.feasible_samples(0.05);
        assert!(!feasible.is_empty());
        assert!(feasible.iter().all(|pt| pt.lhs >= 0.05));
        assert!(feasible.len() < region.points.len());
    }
}

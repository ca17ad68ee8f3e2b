//! Sweep-aware evaluation of `minQ(T, alg, P)` over period grids.
//!
//! The design layer never asks for `minQ` at a single period: Figure 4
//! region sweeps, design-goal searches and acceptance-ratio campaigns all
//! evaluate the same task set at hundreds of candidate periods. The naive
//! kernel re-derives the test-point sets (Bini–Buttazzo scheduling points
//! for FP, the capped-hyperperiod deadline set for EDF) and re-sums the
//! workloads at every call — yet **neither depends on the slot period**.
//! Only the closed form
//!
//! ```text
//! q(t) = ( sqrt((t − P)² + 4 P W(t)) − (t − P) ) / 2
//! ```
//!
//! does. A [`MinQSweep`] therefore computes the `(t, W(t))` pairs once per
//! `(task set, algorithm)` and answers [`MinQSweep::min_quantum_at`] for
//! any number of periods with O(points) float work per sample — no
//! re-sorting, no re-enumeration, no allocation.
//!
//! The one-shot [`crate::min_quantum`] is a thin wrapper over this type
//! (build, evaluate once, drop), so there is exactly one code path and the
//! sweep is bit-for-bit identical to the historical per-sample kernel:
//! same iteration order, same `f64` operations, same tie-breaking.
//!
//! ## Parametric in the WCETs
//!
//! The point *instants* are WCET-independent (they come from deadlines
//! and periods only); the WCETs enter solely through the workload sums
//! `W(t) = Σ nᵢ(t) · Cᵢ`, whose activation coefficients `nᵢ(t)` are again
//! WCET-independent. A sweep therefore stores those coefficients (its
//! `SweepShape`) alongside the baked `W(t)` values, and
//! [`MinQSweep::with_scaled_wcets`] / [`MinQSweep::rescale_into`]
//! re-derive only the load vector for a uniform WCET inflation `λ` — no
//! re-enumeration, no re-sort, and (for `rescale_into`) no allocation.
//! Scaled WCETs are clamped at the task deadline, exactly like the
//! sensitivity search's problem-cloning `scale_wcets`. The rescale is one
//! sequential f64 fold in the order of [`fp_workload`] / [`edf_demand`],
//! so the loads at every `λ` are **bit-identical** to a fresh build over
//! the scaled task set.

use std::sync::Arc;

use ftsched_task::{Task, TaskSet};

use crate::edf::DEFAULT_HORIZON_CAP;
use crate::error::AnalysisError;
use crate::minq::{quantum_at_point, MinQuantum};
use crate::points::{capped_hyperperiod, deadline_set, scheduling_points};
use crate::scheduler::Algorithm;
use crate::workload::{edf_demand, fp_workload};

/// One precomputed test point: the instant `t` and the period-independent
/// workload/demand `W(t)` at that instant.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PointLoad {
    t: f64,
    w: f64,
}

/// Per-task WCET parameters of the sweep's shape: the *base* (unscaled)
/// WCET and the deadline that clamps any inflation of it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TaskParams {
    wcet: f64,
    deadline: f64,
}

impl TaskParams {
    /// The parameters of `tasks`, in the order given.
    fn of(tasks: &[Task]) -> Vec<TaskParams> {
        tasks
            .iter()
            .map(|t| TaskParams {
                wcet: t.wcet,
                deadline: t.deadline,
            })
            .collect()
    }
}

/// The WCET-independent part of a sweep: the per-task base parameters
/// and the flat activation-coefficient array `nᵢ(t)`, in exactly the
/// workload fold order.
///
/// * **Fixed priority** — a point of the `g`-th task (priority order) has
///   `g + 1` coefficients: the task's own (always `1.0`), then
///   `⌈t / T_j⌉` for each higher-priority task `j = 0..g` in order.
/// * **EDF** — every point has one coefficient per task in set order:
///   `max(⌊(t + T_i − D_i) / T_i⌋, 0)`.
///
/// Together with the point grouping of [`SweepKind`] this fixes every
/// point's span, so [`rescale_loads`] walks the array once, point by
/// point.
///
/// Shapes are shared (`Arc`) between a sweep and everything derived from
/// it via [`MinQSweep::with_scaled_wcets`], so rescaling never copies the
/// enumeration.
#[derive(Debug, PartialEq)]
struct SweepShape {
    tasks: Vec<TaskParams>,
    coeffs: Vec<f64>,
}

/// Recomputes every point's `W(t)` from the shape's coefficients at WCET
/// inflation `lambda`, with `scaled` as the reusable buffer of scaled
/// WCETs. The sequential f64 fold runs in exactly the order of
/// [`fp_workload`] / [`edf_demand`], so the loads are bit-identical to a
/// fresh build over the scaled task set.
fn rescale_loads(
    points: &mut [PointLoad],
    kind: &SweepKind,
    shape: &SweepShape,
    scaled: &mut Vec<f64>,
    lambda: f64,
) {
    // Each WCET is clamped at its deadline, as the design layer's
    // `scale_wcets` does when it clones a problem.
    scaled.clear();
    for t in &shape.tasks {
        scaled.push((t.wcet * lambda).min(t.deadline));
    }
    let mut c = 0usize;
    match kind {
        SweepKind::FixedPriority { groups } => {
            let mut start = 0usize;
            for (task, &(end, _)) in groups.iter().enumerate() {
                for p in &mut points[start..end] {
                    // fp_workload's fold order: the task's own WCET first
                    // (its coefficient is exactly 1.0), then each
                    // higher-priority term in priority order.
                    let span = &shape.coeffs[c..c + 1 + task];
                    let mut w = span[0] * scaled[task];
                    for (&n, &cj) in span[1..].iter().zip(&scaled[..task]) {
                        w += n * cj;
                    }
                    p.w = w;
                    c += span.len();
                }
                start = end;
            }
        }
        SweepKind::EarliestDeadlineFirst => {
            for (p, span) in points
                .iter_mut()
                .zip(shape.coeffs.chunks_exact(scaled.len()))
            {
                // edf_demand's fold order: a left fold from 0.0 over the
                // tasks in set order.
                let mut w = 0.0;
                for (&n, &cj) in span.iter().zip(scaled.iter()) {
                    w += n * cj;
                }
                p.w = w;
                c += span.len();
            }
        }
    }
    debug_assert_eq!(c, shape.coeffs.len(), "coefficient layout mismatch");
    ftsched_obs::record(|m| m.sweep_rescales_scalar.incr());
}

/// How the precomputed points are quantified over, mirroring Eq. 6 vs
/// Eq. 11.
#[derive(Debug, Clone, PartialEq)]
enum SweepKind {
    /// Eq. 6: points are grouped per task (in priority order); each group
    /// takes its *minimum* `q(t)`, the sweep takes the *maximum* over
    /// groups. `groups[i]` is `(end, fallback)`: the exclusive end index
    /// of task `i`'s points in the flat array and the task's relative
    /// deadline (the binding instant reported if the group were empty).
    FixedPriority { groups: Vec<(usize, f64)> },
    /// Eq. 11: one flat point set, maximum over all points.
    EarliestDeadlineFirst,
}

/// Precomputed `(t, W(t))` pairs for one task set under one algorithm,
/// ready to answer `minQ` at any period in O(points) without allocating.
///
/// The WCET-independent enumeration (instants, activation coefficients,
/// grouping) lives in a shared `SweepShape`;
/// [`Self::with_scaled_wcets`] derives the sweep for uniformly inflated
/// WCETs by recomputing only the `W(t)` sums.
#[derive(Debug, Clone)]
pub struct MinQSweep {
    algorithm: Algorithm,
    shape: Arc<SweepShape>,
    /// The WCET inflation the current loads are baked for (1.0 after
    /// [`Self::new`]); always relative to the *base* WCETs in the shape.
    scale: f64,
    points: Vec<PointLoad>,
    kind: SweepKind,
    /// Reusable buffer of scaled WCETs — not part of the sweep's
    /// identity.
    scaled_wcets: Vec<f64>,
}

impl PartialEq for MinQSweep {
    fn eq(&self, other: &Self) -> bool {
        // The scaled-WCET buffer is working memory, not state: two sweeps
        // with identical enumerations and loads are equal regardless of
        // what their last rescale left behind.
        self.algorithm == other.algorithm
            && self.shape == other.shape
            && self.scale == other.scale
            && self.points == other.points
            && self.kind == other.kind
    }
}

impl MinQSweep {
    /// Enumerates the scheduling points / deadline set of `tasks` under
    /// `algorithm` and computes the period-independent workloads, so that
    /// [`Self::min_quantum_at`] only evaluates the closed-form `q(t)`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::EmptyTaskSet`] for an empty task set.
    pub fn new(tasks: &TaskSet, algorithm: Algorithm) -> Result<Self, AnalysisError> {
        if tasks.is_empty() {
            return Err(AnalysisError::EmptyTaskSet);
        }
        // Build-vs-rescale attribution for the metrics layer: a fresh
        // enumeration is the expensive path `rescale_into` exists to
        // avoid.
        ftsched_obs::record(|m| m.sweep_builds.incr());
        let mut coeffs = Vec::new();
        let (params, points, kind) = match algorithm {
            Algorithm::RateMonotonic | Algorithm::DeadlineMonotonic => {
                let order = algorithm
                    .priority_order()
                    .expect("fixed-priority algorithms define an order");
                let sorted = tasks.sorted_by_priority(order);
                let mut points = Vec::new();
                let mut groups = Vec::with_capacity(sorted.len());
                for (i, task) in sorted.iter().enumerate() {
                    let hp = &sorted[..i];
                    for t in scheduling_points(task.deadline, hp) {
                        points.push(PointLoad {
                            t,
                            w: fp_workload(task, hp, t),
                        });
                        coeffs.push(1.0);
                        coeffs.extend(hp.iter().map(|h| (t / h.period).ceil()));
                    }
                    groups.push((points.len(), task.deadline));
                }
                (
                    TaskParams::of(&sorted),
                    points,
                    SweepKind::FixedPriority { groups },
                )
            }
            Algorithm::EarliestDeadlineFirst => {
                let horizon = capped_hyperperiod(tasks.tasks(), DEFAULT_HORIZON_CAP);
                let instants = deadline_set(tasks.tasks(), horizon);
                coeffs.reserve(instants.len() * tasks.len());
                let points = instants
                    .into_iter()
                    .map(|t| {
                        coeffs.extend(tasks.iter().map(|task| {
                            (((t + task.period - task.deadline) / task.period).floor()).max(0.0)
                        }));
                        PointLoad {
                            t,
                            w: edf_demand(tasks.tasks(), t),
                        }
                    })
                    .collect();
                (
                    TaskParams::of(tasks.tasks()),
                    points,
                    SweepKind::EarliestDeadlineFirst,
                )
            }
        };
        Ok(MinQSweep {
            algorithm,
            shape: Arc::new(SweepShape {
                tasks: params,
                coeffs,
            }),
            scale: 1.0,
            points,
            kind,
            scaled_wcets: Vec::new(),
        })
    }

    /// The algorithm the sweep was built for.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The sweep for every base WCET multiplied by `lambda` (clamped at
    /// the task deadline, matching the sensitivity search's problem
    /// clone): shares this sweep's enumeration and recomputes only the
    /// `W(t)` sums. Bit-identical to building a fresh sweep over the
    /// scaled task set — in particular `with_scaled_wcets(1.0)` equals
    /// `self` exactly.
    ///
    /// `lambda` is always relative to the *base* WCETs, not to any scale
    /// already applied.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn with_scaled_wcets(&self, lambda: f64) -> Self {
        let mut scaled = self.clone();
        self.rescale_into(lambda, &mut scaled);
        scaled
    }

    /// [`Self::with_scaled_wcets`] into an existing sweep, reusing its
    /// point allocation: the per-probe cost of a WCET-sensitivity search
    /// is one pass over the coefficients, with no allocation when `out`
    /// already shares this sweep's shape.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn rescale_into(&self, lambda: f64, out: &mut Self) {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "WCET scale {lambda} must be finite and positive"
        );
        ftsched_obs::record(|m| m.sweep_rescales.incr());
        if !Arc::ptr_eq(&self.shape, &out.shape) {
            // Different enumeration: copy it once; subsequent rescales
            // against the same base are allocation-free.
            out.algorithm = self.algorithm;
            out.shape = Arc::clone(&self.shape);
            out.kind.clone_from(&self.kind);
            out.points.clone_from(&self.points);
        }
        out.scale = lambda;
        rescale_loads(
            &mut out.points,
            &out.kind,
            &out.shape,
            &mut out.scaled_wcets,
            lambda,
        );
    }

    /// Number of precomputed `(t, W(t))` points — the per-sample work of
    /// [`Self::min_quantum_at`].
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were enumerated (cannot happen for the task
    /// sets accepted by [`Self::new`], kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The largest instant or workload among the precomputed points.
    /// Every `q(t)` the sweep evaluates at a period `P` is exact to a few
    /// ulps of this magnitude plus `P`, so it sizes the rounding guard of
    /// the design layer's slope-bounded period searches.
    pub fn magnitude(&self) -> f64 {
        self.points.iter().fold(0.0, |m, p| m.max(p.t).max(p.w))
    }

    /// Evaluates `minQ` at one period by folding the closed-form `q(t)`
    /// over the precomputed points. Bit-for-bit identical to the
    /// historical [`crate::min_quantum`] at the same period.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidParameter`] for a non-positive or
    /// non-finite period.
    pub fn min_quantum_at(&self, period: f64) -> Result<MinQuantum, AnalysisError> {
        if !(period > 0.0 && period.is_finite()) {
            return Err(AnalysisError::InvalidParameter {
                name: "period",
                value: period,
            });
        }
        let mut worst = MinQuantum {
            quantum: 0.0,
            period,
            binding_instant: 0.0,
        };
        match &self.kind {
            SweepKind::FixedPriority { groups } => {
                let mut start = 0usize;
                for &(end, fallback) in groups {
                    // Each task needs only its best scheduling point
                    // (Eq. 6: min over t).
                    let mut best = MinQuantum {
                        quantum: f64::INFINITY,
                        period,
                        binding_instant: fallback,
                    };
                    for p in &self.points[start..end] {
                        let q = quantum_at_point(p.t, period, p.w);
                        if q < best.quantum {
                            best = MinQuantum {
                                quantum: q,
                                period,
                                binding_instant: p.t,
                            };
                        }
                    }
                    if best.quantum > worst.quantum {
                        worst = best;
                    }
                    start = end;
                }
            }
            SweepKind::EarliestDeadlineFirst => {
                for p in &self.points {
                    let q = quantum_at_point(p.t, period, p.w);
                    if q > worst.quantum {
                        worst = MinQuantum {
                            quantum: q,
                            period,
                            binding_instant: p.t,
                        };
                    }
                }
            }
        }
        Ok(worst)
    }
}

/// The multi-channel form `max_i minQ(T_i, alg, P)` of Eq. 13–14, with the
/// per-channel point sets precomputed once. Empty channels contribute
/// nothing (mirroring [`crate::min_quantum_multi`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MinQSweepMulti {
    sweeps: Vec<MinQSweep>,
}

impl MinQSweepMulti {
    /// Builds one [`MinQSweep`] per non-empty channel.
    ///
    /// # Errors
    ///
    /// Propagates [`MinQSweep::new`] errors (cannot occur: empty channels
    /// are skipped, not rejected).
    pub fn new(channels: &[TaskSet], algorithm: Algorithm) -> Result<Self, AnalysisError> {
        let mut sweeps = Vec::with_capacity(channels.len());
        for channel in channels {
            if channel.is_empty() {
                continue;
            }
            sweeps.push(MinQSweep::new(channel, algorithm)?);
        }
        Ok(MinQSweepMulti { sweeps })
    }

    /// Number of non-empty channels behind the sweep.
    pub fn channel_count(&self) -> usize {
        self.sweeps.len()
    }

    /// The multi-channel sweep for every base WCET multiplied by `lambda`
    /// (see [`MinQSweep::with_scaled_wcets`]): per-channel enumerations
    /// are shared, only the `W(t)` sums are recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn with_scaled_wcets(&self, lambda: f64) -> Self {
        MinQSweepMulti {
            sweeps: self
                .sweeps
                .iter()
                .map(|s| s.with_scaled_wcets(lambda))
                .collect(),
        }
    }

    /// [`Self::with_scaled_wcets`] into an existing multi-sweep, reusing
    /// its per-channel allocations (see [`MinQSweep::rescale_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn rescale_into(&self, lambda: f64, out: &mut Self) {
        out.sweeps.truncate(self.sweeps.len());
        let filled = out.sweeps.len();
        for (sweep, slot) in self.sweeps.iter().zip(out.sweeps.iter_mut()) {
            sweep.rescale_into(lambda, slot);
        }
        for sweep in self.sweeps.iter().skip(filled) {
            out.sweeps.push(sweep.with_scaled_wcets(lambda));
        }
    }

    /// Total number of precomputed points over all channels.
    pub fn point_count(&self) -> usize {
        self.sweeps.iter().map(MinQSweep::len).sum()
    }

    /// The largest [`MinQSweep::magnitude`] over all channels (zero with
    /// no channels).
    pub fn magnitude(&self) -> f64 {
        self.sweeps
            .iter()
            .map(MinQSweep::magnitude)
            .fold(0.0, f64::max)
    }

    /// `max_i minQ(T_i, alg, P)` at one period. With no channels the mode
    /// needs no slot at all and the quantum is zero.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidParameter`] for an invalid period.
    pub fn min_quantum_at(&self, period: f64) -> Result<MinQuantum, AnalysisError> {
        if !(period > 0.0 && period.is_finite()) {
            return Err(AnalysisError::InvalidParameter {
                name: "period",
                value: period,
            });
        }
        let mut worst = MinQuantum {
            quantum: 0.0,
            period,
            binding_instant: 0.0,
        };
        for sweep in &self.sweeps {
            let mq = sweep.min_quantum_at(period)?;
            if mq.quantum > worst.quantum {
                worst = mq;
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_task::{Mode, Task};

    fn task(id: u32, c: f64, t: f64) -> Task {
        Task::implicit_deadline(id, c, t, Mode::NonFaultTolerant).unwrap()
    }

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::new(tasks).unwrap()
    }

    fn sample_set() -> TaskSet {
        set(vec![
            task(1, 1.0, 6.0),
            task(2, 1.0, 8.0),
            task(3, 2.0, 12.0),
        ])
    }

    #[test]
    fn sweep_matches_one_shot_bit_for_bit() {
        let ts = sample_set();
        for alg in Algorithm::ALL {
            let sweep = MinQSweep::new(&ts, alg).unwrap();
            for i in 1..=60 {
                let p = i as f64 * 0.07;
                let one_shot = crate::min_quantum(&ts, alg, p).unwrap();
                let swept = sweep.min_quantum_at(p).unwrap();
                assert_eq!(one_shot.quantum.to_bits(), swept.quantum.to_bits());
                assert_eq!(
                    one_shot.binding_instant.to_bits(),
                    swept.binding_instant.to_bits()
                );
                assert_eq!(one_shot.period.to_bits(), swept.period.to_bits());
            }
        }
    }

    #[test]
    fn multi_sweep_matches_min_quantum_multi() {
        let c1 = sample_set();
        let c2 = set(vec![task(9, 1.0, 4.0)]);
        let channels = vec![c1, c2];
        for alg in Algorithm::ALL {
            let multi = MinQSweepMulti::new(&channels, alg).unwrap();
            assert_eq!(multi.channel_count(), 2);
            for p in [0.3, 0.855, 1.5, 2.966] {
                let one_shot = crate::min_quantum_multi(&channels, alg, p).unwrap();
                let swept = multi.min_quantum_at(p).unwrap();
                assert_eq!(one_shot.quantum.to_bits(), swept.quantum.to_bits());
                assert_eq!(
                    one_shot.binding_instant.to_bits(),
                    swept.binding_instant.to_bits()
                );
            }
        }
    }

    #[test]
    fn invalid_periods_are_rejected() {
        let sweep = MinQSweep::new(&sample_set(), Algorithm::RateMonotonic).unwrap();
        for p in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                sweep.min_quantum_at(p),
                Err(AnalysisError::InvalidParameter { .. })
            ));
        }
        let multi = MinQSweepMulti::new(&[], Algorithm::EarliestDeadlineFirst).unwrap();
        assert!(multi.min_quantum_at(-1.0).is_err());
    }

    #[test]
    fn no_channels_need_no_slot() {
        let multi = MinQSweepMulti::new(&[], Algorithm::EarliestDeadlineFirst).unwrap();
        let mq = multi.min_quantum_at(2.0).unwrap();
        assert_eq!(mq.quantum, 0.0);
        assert_eq!(multi.point_count(), 0);
    }

    #[test]
    fn point_counts_are_exposed() {
        let sweep = MinQSweep::new(&sample_set(), Algorithm::EarliestDeadlineFirst).unwrap();
        assert!(sweep.len() >= 3);
        assert!(!sweep.is_empty());
        assert_eq!(sweep.algorithm(), Algorithm::EarliestDeadlineFirst);
    }

    /// The task set with every WCET inflated by `lambda`, clamped at the
    /// deadline — the reference `with_scaled_wcets` must reproduce.
    fn scaled_set(tasks: &TaskSet, lambda: f64) -> TaskSet {
        let scaled: Vec<Task> = tasks
            .iter()
            .map(|t| {
                let mut clone = t.clone();
                clone.wcet = (t.wcet * lambda).min(clone.deadline);
                clone
            })
            .collect();
        TaskSet::new(scaled).unwrap()
    }

    #[test]
    fn scaled_sweep_is_bit_identical_to_a_rebuild() {
        let ts = sample_set();
        for alg in Algorithm::ALL {
            let base = MinQSweep::new(&ts, alg).unwrap();
            for lambda in [1.0, 1.3, 2.0, 4.0, 8.0] {
                let scaled = base.with_scaled_wcets(lambda);
                let rebuilt = MinQSweep::new(&scaled_set(&ts, lambda), alg).unwrap();
                assert_eq!(scaled.len(), rebuilt.len());
                for i in 1..=40 {
                    let p = i as f64 * 0.11;
                    let a = scaled.min_quantum_at(p).unwrap();
                    let b = rebuilt.min_quantum_at(p).unwrap();
                    assert_eq!(a.quantum.to_bits(), b.quantum.to_bits(), "{alg} λ={lambda}");
                    assert_eq!(a.binding_instant.to_bits(), b.binding_instant.to_bits());
                }
            }
        }
    }

    #[test]
    fn scale_one_is_the_identity() {
        let ts = sample_set();
        for alg in Algorithm::ALL {
            let base = MinQSweep::new(&ts, alg).unwrap();
            assert_eq!(base.with_scaled_wcets(1.0), base);
        }
    }

    #[test]
    fn rescale_into_reuses_and_matches_with_scaled_wcets() {
        let ts = sample_set();
        let base = MinQSweep::new(&ts, Algorithm::EarliestDeadlineFirst).unwrap();
        let mut scratch = base.clone();
        for lambda in [2.0, 1.5, 6.0, 1.0] {
            base.rescale_into(lambda, &mut scratch);
            assert_eq!(scratch, base.with_scaled_wcets(lambda));
        }
        // A scratch built from a different enumeration is overwritten.
        let other =
            MinQSweep::new(&set(vec![task(9, 1.0, 4.0)]), Algorithm::RateMonotonic).unwrap();
        let mut scratch = other;
        base.rescale_into(3.0, &mut scratch);
        assert_eq!(scratch, base.with_scaled_wcets(3.0));
    }

    #[test]
    fn multi_sweep_scaling_matches_per_channel_rebuilds() {
        let c1 = sample_set();
        let c2 = set(vec![task(9, 1.0, 4.0)]);
        let channels = vec![c1.clone(), c2.clone()];
        let multi = MinQSweepMulti::new(&channels, Algorithm::EarliestDeadlineFirst).unwrap();
        for lambda in [1.0, 2.5, 8.0] {
            let scaled = multi.with_scaled_wcets(lambda);
            let rebuilt = MinQSweepMulti::new(
                &[scaled_set(&c1, lambda), scaled_set(&c2, lambda)],
                Algorithm::EarliestDeadlineFirst,
            )
            .unwrap();
            let mut scratch = multi.with_scaled_wcets(1.0);
            multi.rescale_into(lambda, &mut scratch);
            for p in [0.3, 0.855, 1.5, 2.966] {
                let a = scaled.min_quantum_at(p).unwrap();
                let b = rebuilt.min_quantum_at(p).unwrap();
                let c = scratch.min_quantum_at(p).unwrap();
                assert_eq!(a.quantum.to_bits(), b.quantum.to_bits(), "λ={lambda} P={p}");
                assert_eq!(a.quantum.to_bits(), c.quantum.to_bits());
            }
        }
    }

    #[test]
    fn scaling_clamps_at_the_deadline() {
        // Beyond the clamp point every WCET saturates at its deadline, so
        // further inflation is a no-op.
        let ts = sample_set();
        let base = MinQSweep::new(&ts, Algorithm::EarliestDeadlineFirst).unwrap();
        let at_cap = base.with_scaled_wcets(64.0);
        let beyond = base.with_scaled_wcets(640.0);
        for i in 1..=20 {
            let p = i as f64 * 0.2;
            assert_eq!(
                at_cap.min_quantum_at(p).unwrap().quantum.to_bits(),
                beyond.min_quantum_at(p).unwrap().quantum.to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn invalid_scales_are_rejected() {
        let sweep = MinQSweep::new(&sample_set(), Algorithm::RateMonotonic).unwrap();
        let _ = sweep.with_scaled_wcets(f64::NAN);
    }
}

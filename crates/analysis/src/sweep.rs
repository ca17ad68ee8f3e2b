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
//! sensitivity search's problem-cloning `scale_wcets`, and the `λ = 1`
//! loads are **bit-identical** to a fresh build (same fold order).

use std::sync::Arc;

use ftsched_task::TaskSet;

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

/// The WCET-independent part of a sweep in an explicit SoA layout: the
/// per-task base parameters, the flat activation-coefficient array
/// `nᵢ(t)`, the task index behind every coefficient, and the span
/// offsets delimiting each point's coefficients.
///
/// Layout of `coeffs` (mirroring the workload fold order exactly):
///
/// * **Fixed priority** — a point of the `g`-th task (priority order) has
///   `g + 1` coefficients: the task's own (always `1.0`), then
///   `⌈t / T_j⌉` for each higher-priority task `j = 0..g` in order.
/// * **EDF** — every point has one coefficient per task in set order:
///   `max(⌊(t + T_i − D_i) / T_i⌋, 0)`.
///
/// `spans[p]..spans[p+1]` is point `p`'s range in `coeffs`/`task_idx`, so
/// the rescale kernel is one uniform pass over flat arrays regardless of
/// algorithm. All coefficients are non-negative integers by construction
/// (`1.0`, a `ceil`, or a clamped `floor`); when they also fit `u32`,
/// `coeffs_int` carries an exact integer mirror that enables the
/// quantised fast path of [`MinQSweep::rescale_into`].
///
/// Shapes are shared (`Arc`) between a sweep and everything derived from
/// it via [`MinQSweep::with_scaled_wcets`], so rescaling never copies the
/// enumeration.
#[derive(Debug, PartialEq)]
struct SweepShape {
    tasks: Vec<TaskParams>,
    coeffs: Vec<f64>,
    /// Task index of each coefficient, parallel to `coeffs`.
    task_idx: Vec<u32>,
    /// Span offsets: point `p` owns `coeffs[spans[p]..spans[p + 1]]`.
    spans: Vec<u32>,
    /// Exact `u32` mirror of `coeffs` (empty unless `int_eligible`).
    coeffs_int: Vec<u32>,
    /// Whether every coefficient is an integer representable in `u32`.
    int_eligible: bool,
    /// Largest per-span coefficient sum — the quantised path's overflow
    /// guard bound.
    max_span_sum: f64,
    /// Exact per-point dot products `Σ nᵢ·Mᵢ` of each span against the
    /// *base* WCET mantissa grid (empty unless the base WCETs quantise).
    /// Because integer arithmetic is associative, a dyadic inflation
    /// `λ = λₘ·2^λₑ` factors straight out of the span sum:
    /// `Σ nᵢ·(λₘ·Mᵢ) = λₘ·base_dot[p]` — one multiply per point instead
    /// of one dot product. See the cached branch of [`rescale_loads`].
    base_dot: Vec<u64>,
    /// The base grid's unit exponent: `wcetᵢ = Mᵢ · 2^base_exp` exactly.
    base_exp: i32,
    /// Largest base mantissa `Mᵢ` — guards `λₘ·Mᵢ < 2^53` so every
    /// scaled WCET product is exact.
    base_m_max: u64,
    /// Largest `base_dot` entry — guards `λₘ·Σ < 2^51` so every f64
    /// partial sum of the fresh fold is an exact integer.
    base_dot_max: u64,
}

impl SweepShape {
    /// The per-task WCETs at inflation `λ`, clamped at each deadline —
    /// the same clamp the design layer's `scale_wcets` applies when it
    /// clones a problem.
    fn scaled_wcets(&self, lambda: f64) -> Vec<f64> {
        self.tasks
            .iter()
            .map(|t| (t.wcet * lambda).min(t.deadline))
            .collect()
    }

    /// Fills `scaled` in place — the allocation-free form used by the
    /// rescale scratch.
    fn scaled_wcets_into(&self, lambda: f64, scaled: &mut Vec<f64>) {
        scaled.clear();
        scaled.extend(self.tasks.iter().map(|t| (t.wcet * lambda).min(t.deadline)));
    }

    /// Derives `coeffs_int`, `int_eligible` and `max_span_sum` once the
    /// coefficient/span arrays are complete.
    fn finalise(&mut self) {
        debug_assert_eq!(self.spans.first(), Some(&0));
        debug_assert_eq!(self.spans.last().copied(), Some(self.coeffs.len() as u32));
        self.int_eligible = self
            .coeffs
            .iter()
            .all(|&c| c >= 0.0 && c <= u32::MAX as f64 && c.fract() == 0.0);
        self.coeffs_int = if self.int_eligible {
            self.coeffs.iter().map(|&c| c as u32).collect()
        } else {
            Vec::new()
        };
        let mut max = 0.0f64;
        for pair in self.spans.windows(2) {
            let sum: f64 = self.coeffs[pair[0] as usize..pair[1] as usize].iter().sum();
            if sum > max {
                max = sum;
            }
        }
        self.max_span_sum = max;
        self.finalise_base_grid();
    }

    /// Precomputes the base-WCET integer grid and the per-point span dot
    /// products that power the O(points) cached rescale. Leaves
    /// `base_dot` empty when the base WCETs do not sit on a dyadic grid
    /// or any span sum breaches the exactness bound.
    fn finalise_base_grid(&mut self) {
        self.base_dot = Vec::new();
        self.base_exp = 0;
        self.base_m_max = 0;
        self.base_dot_max = 0;
        if !self.int_eligible {
            return;
        }
        // Decompose every base WCET onto a shared power-of-two grid with
        // u64 mantissas (the cached path multiplies per point, never per
        // coefficient, so the tighter u32 bound of the per-λ kernel is
        // not needed here).
        let mut min_exp = i32::MAX;
        for t in &self.tasks {
            match dyadic_decompose(t.wcet) {
                Some((m, e)) if m != 0 => min_exp = min_exp.min(e),
                Some(_) => {}
                None => return,
            }
        }
        if min_exp == i32::MAX {
            min_exp = 0; // every WCET is zero
        }
        if min_exp < -960 {
            return;
        }
        let mut mantissas = Vec::with_capacity(self.tasks.len());
        let mut m_max = 0u64;
        for t in &self.tasks {
            let (m, e) = dyadic_decompose(t.wcet).expect("validated above");
            let m = if m == 0 {
                0
            } else {
                let shifted = (m as u128) << (e - min_exp).min(96) as u32;
                if shifted >= 1 << 53 {
                    return;
                }
                shifted as u64
            };
            m_max = m_max.max(m);
            mantissas.push(m);
        }
        let mut dots = Vec::with_capacity(self.spans.len() - 1);
        let mut dot_max = 0u64;
        for pair in self.spans.windows(2) {
            let (lo, hi) = (pair[0] as usize, pair[1] as usize);
            let mut dot = 0u128;
            for (&c, &t) in self.coeffs_int[lo..hi].iter().zip(&self.task_idx[lo..hi]) {
                dot += c as u128 * mantissas[t as usize] as u128;
            }
            // `λₘ ≥ 1`, so a span sum at or above 2^51 can never satisfy
            // the per-λ exactness guard — the whole cache is pointless.
            if dot >= 1 << 51 {
                return;
            }
            dot_max = dot_max.max(dot as u64);
            dots.push(dot as u64);
        }
        self.base_dot = dots;
        self.base_exp = min_exp;
        self.base_m_max = m_max;
        self.base_dot_max = dot_max;
    }
}

/// Reusable buffers of one rescale pass: the scaled WCET vector and its
/// dyadic mantissa decomposition. Carried by every [`MinQSweep`] so
/// `rescale_into` allocates nothing; never part of a sweep's identity.
#[derive(Debug, Clone, Default)]
struct RescaleScratch {
    scaled: Vec<f64>,
    mantissas: Vec<u32>,
}

const MANTISSA_MASK: u64 = (1u64 << 52) - 1;
const EXPONENT_MASK: u64 = 0x7FF;

/// Splits a finite non-negative normal `f64` into `(m, e)` with
/// `x = m · 2^e` and `m` odd (or `(0, i32::MAX)` for zero). `None` for
/// subnormals — the quantised path just falls back there.
fn dyadic_decompose(x: f64) -> Option<(u64, i32)> {
    if x == 0.0 {
        return Some((0, i32::MAX));
    }
    if x < 0.0 || x.is_nan() {
        return None;
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & EXPONENT_MASK) as i32;
    if biased == 0 {
        return None; // subnormal
    }
    let mantissa = (bits & MANTISSA_MASK) | (1u64 << 52);
    let tz = mantissa.trailing_zeros();
    Some((mantissa >> tz, biased - 1023 - 52 + tz as i32))
}

/// Tries to put every scaled WCET on a common power-of-two grid:
/// `scaled[i] = mantissas[i] · 2^e` exactly, with each mantissa `< 2^32`
/// and every per-span sum `Σ nᵢ·mᵢ` provably `< 2^51`. Under those
/// bounds every product and partial sum of the sequential f64 fold is an
/// exact integer multiple of `2^e`, so the integer kernel's result is
/// **bit-identical** to the scalar fold — not merely close. Returns the
/// grid unit `2^e`, or `None` when any guard fails (the caller then
/// takes the scalar path).
fn quantise_scaled(scaled: &[f64], mantissas: &mut Vec<u32>, max_span_sum: f64) -> Option<f64> {
    let mut min_exp = i32::MAX;
    for &x in scaled {
        let (_, e) = dyadic_decompose(x)?;
        min_exp = min_exp.min(e);
    }
    if min_exp == i32::MAX {
        min_exp = 0; // every WCET is zero
    }
    // Keep all partial sums m·2^e in normal f64 range so they are exact.
    if min_exp < -960 {
        return None;
    }
    mantissas.clear();
    let mut m_max = 0u32;
    for &x in scaled {
        let (m, e) = dyadic_decompose(x).expect("validated above");
        let m = if m == 0 {
            0
        } else {
            let shifted = (m as u128) << (e - min_exp).min(96) as u32;
            if shifted >= 1 << 32 {
                return None;
            }
            shifted as u32
        };
        m_max = m_max.max(m);
        mantissas.push(m);
    }
    // Conservative span-sum bound: Σ nᵢ·mᵢ ≤ (Σ nᵢ)·m_max < 2^51 keeps
    // every f64 term and partial sum exactly representable.
    if max_span_sum * (m_max as f64) >= (1u64 << 51) as f64 {
        return None;
    }
    Some(f64::from_bits(((min_exp + 1023) as u64) << 52))
}

/// Recomputes every point's `W(t)` from the shape's coefficients at WCET
/// inflation `lambda`, bit-identical to a fresh build over the scaled
/// task set. Three tiers, fastest first:
///
/// 1. **Cached** — when the base WCETs quantised at build time
///    ([`SweepShape::finalise_base_grid`]), `λ` is dyadic and no deadline
///    clamp engages, the span sum factors as `λₘ · base_dot[p]`: one u64
///    multiply per *point*, O(points) instead of O(coefficients).
/// 2. **Quantised** — the scaled WCETs sit exactly on a shared
///    power-of-two grid (guards in [`quantise_scaled`]): integer dot
///    products per span.
/// 3. **Scalar** — the sequential f64 fold in exactly the order of
///    [`fp_workload`] / [`edf_demand`].
///
/// All three produce the same bits: under the exactness guards every f64
/// product and partial sum is an exact integer multiple of the grid
/// unit, so reassociating (or factoring `λ` out of) the integer sum
/// cannot change the rounded result.
fn rescale_loads(
    points: &mut [PointLoad],
    kind: &SweepKind,
    shape: &SweepShape,
    scratch: &mut RescaleScratch,
    lambda: f64,
) {
    if !shape.base_dot.is_empty() {
        if let Some((lm, le)) = dyadic_decompose(lambda) {
            let exp = shape.base_exp + le;
            if lm > 0
                && (lm as u128) * (shape.base_m_max as u128) < 1 << 53
                && (lm as u128) * (shape.base_dot_max as u128) < 1 << 51
                && (-960..=900).contains(&exp)
                && shape.tasks.iter().all(|t| t.wcet * lambda <= t.deadline)
            {
                let unit = f64::from_bits(((exp + 1023) as u64) << 52);
                debug_assert_eq!(points.len(), shape.base_dot.len());
                for (p, &d) in points.iter_mut().zip(&shape.base_dot) {
                    p.w = ((lm * d) as f64) * unit;
                }
                ftsched_obs::record(|m| m.sweep_rescales_quantised.incr());
                return;
            }
        }
    }
    shape.scaled_wcets_into(lambda, &mut scratch.scaled);
    if shape.int_eligible {
        if let Some(unit) =
            quantise_scaled(&scratch.scaled, &mut scratch.mantissas, shape.max_span_sum)
        {
            rescale_loads_quantised(points, kind, shape, &scratch.mantissas, unit);
            ftsched_obs::record(|m| m.sweep_rescales_quantised.incr());
            return;
        }
    }
    rescale_loads_scalar(points, shape, &scratch.scaled);
    ftsched_obs::record(|m| m.sweep_rescales_scalar.incr());
}

/// The sequential f64 fold over the SoA layout. The fold order is exactly
/// the historical one: for FP the first coefficient of a span is the
/// task's own (literally `1.0`, so `0.0 + 1.0·C` reproduces the old
/// `w = C` start bit for bit), then the higher-priority terms in order;
/// for EDF a left fold from `0.0` over the tasks in set order.
fn rescale_loads_scalar(points: &mut [PointLoad], shape: &SweepShape, scaled: &[f64]) {
    debug_assert_eq!(shape.spans.len(), points.len() + 1);
    for (p, pair) in points.iter_mut().zip(shape.spans.windows(2)) {
        let (lo, hi) = (pair[0] as usize, pair[1] as usize);
        let mut w = 0.0;
        for (&c, &t) in shape.coeffs[lo..hi].iter().zip(&shape.task_idx[lo..hi]) {
            w += c * scaled[t as usize];
        }
        p.w = w;
    }
}

/// An exact widening dot product: every term fits `u64` and integer
/// addition is associative, so the compiler is free to chunk, unroll and
/// vectorise the reduction (packed u32×u32→u64 widening multiplies)
/// without any bit-identity risk — the payoff the quantisation buys. The
/// plain iterator form auto-vectorises measurably better than a manual
/// four-accumulator unroll here, so the chunking is left to LLVM.
#[inline]
fn dot_u32(a: &[u32], b: &[u32]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x as u64 * y as u64).sum()
}

/// The integer quantised kernel: with every scaled WCET an exact
/// mantissa on a shared `2^e` grid, each span sum is an exact `u64` dot
/// product ([`dot_u32`] — chunkable, unrollable, gather-free). The span
/// layouts are exploited directly: an FP span is the task's own
/// coefficient followed by the higher-priority tasks `0..i` in order,
/// an EDF span covers tasks `0..n` in order, so both reduce to
/// contiguous-slice zips against the mantissa array. The final
/// `(Σ nᵢ·mᵢ) · 2^e` conversion is exact under the `< 2^51` guard of
/// [`quantise_scaled`].
fn rescale_loads_quantised(
    points: &mut [PointLoad],
    kind: &SweepKind,
    shape: &SweepShape,
    m: &[u32],
    unit: f64,
) {
    let mut c = 0usize;
    match kind {
        SweepKind::FixedPriority { groups } => {
            let mut start = 0usize;
            for (task, &(end, _)) in groups.iter().enumerate() {
                for p in &mut points[start..end] {
                    let own = shape.coeffs_int[c] as u64 * m[task] as u64;
                    let hp = &shape.coeffs_int[c + 1..c + 1 + task];
                    p.w = ((own + dot_u32(hp, &m[..task])) as f64) * unit;
                    c += 1 + task;
                }
                start = end;
            }
        }
        SweepKind::EarliestDeadlineFirst => {
            let n = shape.tasks.len();
            for (p, span) in points.iter_mut().zip(shape.coeffs_int.chunks_exact(n)) {
                p.w = (dot_u32(span, m) as f64) * unit;
                c += n;
            }
        }
    }
    debug_assert_eq!(c, shape.coeffs_int.len(), "coefficient layout mismatch");
}

/// The pre-SoA rescale fold (PR 4): per-call WCET allocation and a manual
/// cursor walk over the grouped coefficient array. Kept verbatim as the
/// benchmark baseline `ftsched bench --minq` / `--sensitivity` pin their
/// rescale speedup contracts against; reports no metrics.
fn rescale_loads_reference(
    points: &mut [PointLoad],
    kind: &SweepKind,
    shape: &SweepShape,
    lambda: f64,
) {
    let scaled = shape.scaled_wcets(lambda);
    let mut c = 0usize;
    match kind {
        SweepKind::FixedPriority { groups } => {
            let mut start = 0usize;
            for (task_idx, &(end, _)) in groups.iter().enumerate() {
                for p in &mut points[start..end] {
                    // fp_workload's fold order: the task's own WCET
                    // first, then each higher-priority term in priority
                    // order.
                    let mut w = shape.coeffs[c] * scaled[task_idx];
                    c += 1;
                    for &cj in &scaled[..task_idx] {
                        w += shape.coeffs[c] * cj;
                        c += 1;
                    }
                    p.w = w;
                }
                start = end;
            }
        }
        SweepKind::EarliestDeadlineFirst => {
            for p in points {
                // edf_demand's fold order: a left fold from 0.0 over the
                // tasks in set order.
                let mut w = 0.0;
                for &cj in &scaled {
                    w += shape.coeffs[c] * cj;
                    c += 1;
                }
                p.w = w;
            }
        }
    }
    debug_assert_eq!(c, shape.coeffs.len(), "coefficient layout mismatch");
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
    /// Reusable rescale buffers — not part of the sweep's identity.
    scratch: RescaleScratch,
}

impl PartialEq for MinQSweep {
    fn eq(&self, other: &Self) -> bool {
        // Scratch buffers are working memory, not state: two sweeps with
        // identical enumerations and loads are equal regardless of what
        // their last rescale left behind.
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
        match algorithm {
            Algorithm::RateMonotonic | Algorithm::DeadlineMonotonic => {
                let order = algorithm
                    .priority_order()
                    .expect("fixed-priority algorithms define an order");
                let sorted = tasks.sorted_by_priority(order);
                let mut points = Vec::new();
                let mut coeffs = Vec::new();
                let mut task_idx = Vec::new();
                let mut spans = vec![0u32];
                let mut groups = Vec::with_capacity(sorted.len());
                for (i, task) in sorted.iter().enumerate() {
                    let hp = &sorted[..i];
                    for t in scheduling_points(task.deadline, hp) {
                        points.push(PointLoad {
                            t,
                            w: fp_workload(task, hp, t),
                        });
                        coeffs.push(1.0);
                        task_idx.push(i as u32);
                        coeffs.extend(hp.iter().map(|h| (t / h.period).ceil()));
                        task_idx.extend(0..i as u32);
                        spans.push(coeffs.len() as u32);
                    }
                    groups.push((points.len(), task.deadline));
                }
                let mut shape = SweepShape {
                    tasks: sorted
                        .iter()
                        .map(|t| TaskParams {
                            wcet: t.wcet,
                            deadline: t.deadline,
                        })
                        .collect(),
                    coeffs,
                    task_idx,
                    spans,
                    coeffs_int: Vec::new(),
                    int_eligible: false,
                    max_span_sum: 0.0,
                    base_dot: Vec::new(),
                    base_exp: 0,
                    base_m_max: 0,
                    base_dot_max: 0,
                };
                shape.finalise();
                Ok(MinQSweep {
                    algorithm,
                    shape: Arc::new(shape),
                    scale: 1.0,
                    points,
                    kind: SweepKind::FixedPriority { groups },
                    scratch: RescaleScratch::default(),
                })
            }
            Algorithm::EarliestDeadlineFirst => {
                let horizon = capped_hyperperiod(tasks.tasks(), DEFAULT_HORIZON_CAP);
                let instants = deadline_set(tasks.tasks(), horizon);
                let n = tasks.len();
                let mut coeffs = Vec::with_capacity(instants.len() * n);
                let mut task_idx = Vec::with_capacity(instants.len() * n);
                let mut spans = Vec::with_capacity(instants.len() + 1);
                spans.push(0u32);
                let points = instants
                    .into_iter()
                    .map(|t| {
                        coeffs.extend(tasks.iter().map(|task| {
                            (((t + task.period - task.deadline) / task.period).floor()).max(0.0)
                        }));
                        task_idx.extend(0..n as u32);
                        spans.push(coeffs.len() as u32);
                        PointLoad {
                            t,
                            w: edf_demand(tasks.tasks(), t),
                        }
                    })
                    .collect();
                let mut shape = SweepShape {
                    tasks: tasks
                        .iter()
                        .map(|t| TaskParams {
                            wcet: t.wcet,
                            deadline: t.deadline,
                        })
                        .collect(),
                    coeffs,
                    task_idx,
                    spans,
                    coeffs_int: Vec::new(),
                    int_eligible: false,
                    max_span_sum: 0.0,
                    base_dot: Vec::new(),
                    base_exp: 0,
                    base_m_max: 0,
                    base_dot_max: 0,
                };
                shape.finalise();
                Ok(MinQSweep {
                    algorithm,
                    shape: Arc::new(shape),
                    scale: 1.0,
                    points,
                    kind: SweepKind::EarliestDeadlineFirst,
                    scratch: RescaleScratch::default(),
                })
            }
        }
    }

    /// The algorithm the sweep was built for.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The uniform WCET inflation factor the current loads are baked for,
    /// relative to the base task set the sweep was built from (`1.0`
    /// after [`Self::new`]).
    pub fn wcet_scale(&self) -> f64 {
        self.scale
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
            &mut out.scratch,
            lambda,
        );
    }

    /// [`Self::rescale_into`] through the pre-SoA fold
    /// ([`rescale_loads_reference`]): same results, historical cost
    /// profile (per-call WCET allocation, grouped cursor walk, no
    /// quantised fast path). Exists solely so the benchmark suite can
    /// measure the rescale rewrite against its own baseline; reports no
    /// metrics.
    #[doc(hidden)]
    pub fn rescale_into_reference(&self, lambda: f64, out: &mut Self) {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "WCET scale {lambda} must be finite and positive"
        );
        if !Arc::ptr_eq(&self.shape, &out.shape) {
            out.algorithm = self.algorithm;
            out.shape = Arc::clone(&self.shape);
            out.kind.clone_from(&self.kind);
            out.points.clone_from(&self.points);
        }
        out.scale = lambda;
        rescale_loads_reference(&mut out.points, &out.kind, &out.shape, lambda);
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
                assert_eq!(scaled.wcet_scale(), lambda);
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
    fn rescale_kernels_agree_bitwise_with_reference() {
        let ts = sample_set();
        for alg in Algorithm::ALL {
            let base = MinQSweep::new(&ts, alg).unwrap();
            let mut new_path = base.clone();
            let mut ref_path = base.clone();
            // A mix of grid-friendly (dyadic) and awkward inflations:
            // the former exercise the quantised kernel, the latter the
            // scalar fallback; both must equal the pre-SoA fold bit for
            // bit.
            for lambda in [2.0, 1.5, 0.75, 1.1, 1.0 / 3.0, 2.7] {
                base.rescale_into(lambda, &mut new_path);
                base.rescale_into_reference(lambda, &mut ref_path);
                for (a, b) in new_path.points.iter().zip(&ref_path.points) {
                    assert_eq!(a.w.to_bits(), b.w.to_bits(), "{alg} λ={lambda}");
                    assert_eq!(a.t.to_bits(), b.t.to_bits());
                }
            }
        }
    }

    #[test]
    fn dyadic_inflations_take_the_quantised_path() {
        // sample_set's WCETs (1.0, 1.0, 2.0) sit exactly on a
        // power-of-two grid, so a dyadic λ must hit the integer kernel.
        let m = ftsched_obs::Recorder::new();
        let _current = m.enter();
        let base = MinQSweep::new(&sample_set(), Algorithm::RateMonotonic).unwrap();
        let mut out = base.clone();
        base.rescale_into(2.0, &mut out);
        assert_eq!(m.sweep_rescales_quantised.get(), 1);
        assert_eq!(m.sweep_rescales_scalar.get(), 0);
        // An irrational-ish λ produces full-mantissa WCETs: scalar path.
        base.rescale_into(1.0 / 3.0, &mut out);
        assert_eq!(m.sweep_rescales_quantised.get(), 1);
        assert_eq!(m.sweep_rescales_scalar.get(), 1);
    }

    #[test]
    fn quantise_guards_reject_awkward_grids() {
        let mut m = Vec::new();
        // 0.1's odd mantissa spans 52 bits — over the 2^32 bound.
        assert!(quantise_scaled(&[1.0, 0.1], &mut m, 4.0).is_none());
        // Subnormal input.
        assert!(quantise_scaled(&[f64::MIN_POSITIVE / 4.0], &mut m, 1.0).is_none());
        // Exponent spread below the normal-range floor.
        assert!(quantise_scaled(&[1.0, 2.0f64.powi(-1000)], &mut m, 2.0).is_none());
        // A span sum that could push partial sums past 2^51.
        assert!(quantise_scaled(&[2.0f64.powi(20)], &mut m, 2.0f64.powi(52)).is_none());
        // All-zero WCETs quantise trivially on the unit grid.
        assert_eq!(quantise_scaled(&[0.0, 0.0], &mut m, 3.0), Some(1.0));
        assert_eq!(m, vec![0, 0]);
        // A well-behaved dyadic set: mantissas on the 2^-2 grid.
        assert_eq!(quantise_scaled(&[1.0, 0.25, 6.0], &mut m, 8.0), Some(0.25));
        assert_eq!(m, vec![4, 1, 24]);
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

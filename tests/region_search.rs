//! The slope-bounded period searches of `ftsched_design::region` against
//! the eager oracle: a full sweep of the Eq. 15 curve
//! ([`sweep_region_with`]) read through
//! [`FeasibleRegion::last_feasible_sample`], [`FeasibleRegion::peak`] and
//! [`FeasibleRegion::feasible_samples`], with the bisection and the local
//! refinement the searches apply after their coarse answer.
//!
//! The searches skip every sample their bounds rule out, so they must
//! return exactly what the oracle returns: the same `f64` bits for every
//! answer, and the same error (peak included) for every rejection. The
//! feasibility-only [`last_feasible_period_with`] must answer as
//! `max_feasible_period_with(..).ok()` does, from no more samples. The
//! oracle's bisection runs every one of its steps, so it also checks
//! that the searches' bisection, which stops at its fixed point, lands
//! on the same bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ftsched_analysis::Algorithm;
use ftsched_design::partitioner::{partition_system, PartitionHeuristic};
use ftsched_design::region::{
    last_feasible_period_with, max_admissible_overhead_with, max_feasible_period_with,
    max_slack_ratio_period_with, sweep_region_with, RegionConfig, RegionPoint,
};
use ftsched_design::{AnalysisContext, DesignError, DesignProblem};
use ftsched_task::generator::{generate_taskset, GeneratorConfig};
use ftsched_task::{Mode, Task, TaskSet};

// ---- the eager oracle ------------------------------------------------------

fn no_feasible_period(ctx: &AnalysisContext, config: &RegionConfig) -> DesignError {
    DesignError::NoFeasiblePeriod {
        total_overhead: ctx.total_overhead(),
        max_admissible_overhead: sweep_region_with(ctx, config).unwrap().peak().lhs,
    }
}

fn oracle_max_feasible_period(
    ctx: &AnalysisContext,
    config: &RegionConfig,
) -> Result<f64, DesignError> {
    let region = sweep_region_with(ctx, config)?;
    let threshold = ctx.total_overhead();
    let last = region
        .last_feasible_sample(threshold)
        .ok_or_else(|| no_feasible_period(ctx, config))?;
    let idx = region
        .points
        .iter()
        .position(|p| (p.period - last.period).abs() < 1e-12)
        .unwrap();
    if idx + 1 >= region.points.len() {
        return Ok(last.period);
    }
    let (mut lo, mut hi) = (last.period, region.points[idx + 1].period);
    for _ in 0..config.refine_iterations {
        let mid = 0.5 * (lo + hi);
        if ctx.eq15_lhs(mid)? >= threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

fn oracle_refine(
    ctx: &AnalysisContext,
    config: &RegionConfig,
    coarse: RegionPoint,
    score: impl Fn(f64, f64) -> f64,
) -> RegionPoint {
    let mut best = coarse;
    let mut best_score = score(coarse.lhs, coarse.period);
    let mut step = (config.period_max - config.period_min) / (config.samples - 1) as f64;
    for _ in 0..(config.refine_iterations / 10).clamp(4, 12) {
        let lo = (best.period - step).max(1e-6);
        let hi = best.period + step;
        let local_step = (hi - lo) / 20.0;
        for i in 0..=20 {
            let period = lo + i as f64 * local_step;
            let lhs = ctx.eq15_lhs(period).unwrap();
            let s = score(lhs, period);
            if s > best_score {
                best_score = s;
                best = RegionPoint { period, lhs };
            }
        }
        step = local_step;
    }
    best
}

fn oracle_max_admissible_overhead(ctx: &AnalysisContext, config: &RegionConfig) -> RegionPoint {
    let coarse = sweep_region_with(ctx, config).unwrap().peak();
    oracle_refine(ctx, config, coarse, |lhs, _| lhs)
}

fn oracle_max_slack_ratio_period(
    ctx: &AnalysisContext,
    config: &RegionConfig,
) -> Result<RegionPoint, DesignError> {
    let threshold = ctx.total_overhead();
    let feasible = sweep_region_with(ctx, config)?.feasible_samples(threshold);
    let coarse = *feasible
        .iter()
        .max_by(|a, b| {
            let ra = (a.lhs - threshold) / a.period;
            let rb = (b.lhs - threshold) / b.period;
            ra.partial_cmp(&rb).unwrap()
        })
        .ok_or_else(|| no_feasible_period(ctx, config))?;
    Ok(oracle_refine(ctx, config, coarse, |lhs, period| {
        (lhs - threshold) / period
    }))
}

// ---- bit-for-bit comparison ------------------------------------------------

/// A result as exact text: `f64` bits for answers, the full `Debug` form
/// (whose floats round-trip) for errors.
fn exact<T>(result: &Result<T, DesignError>, bits: impl Fn(&T) -> Vec<u64>) -> String {
    match result {
        Ok(value) => format!("Ok({:x?})", bits(value)),
        Err(e) => format!("Err({e:?})"),
    }
}

fn point_bits(p: &RegionPoint) -> Vec<u64> {
    vec![p.period.to_bits(), p.lhs.to_bits()]
}

/// Checks all three searches against the oracle on one context and grid.
fn assert_searches_match(ctx: &AnalysisContext, config: &RegionConfig) {
    let period = |p: &f64| vec![p.to_bits()];
    assert_eq!(
        exact(&max_feasible_period_with(ctx, config), period),
        exact(&oracle_max_feasible_period(ctx, config), period),
        "max_feasible_period_with, {config:?}"
    );
    assert_eq!(
        exact(&max_slack_ratio_period_with(ctx, config), point_bits),
        exact(&oracle_max_slack_ratio_period(ctx, config), point_bits),
        "max_slack_ratio_period_with, {config:?}"
    );
    assert_eq!(
        exact(&max_admissible_overhead_with(ctx, config), point_bits),
        exact(&Ok(oracle_max_admissible_overhead(ctx, config)), point_bits),
        "max_admissible_overhead_with, {config:?}"
    );
    assert_feasibility_only_matches(ctx, config);
    // The bisection stops once its bracket is two adjacent floats; the
    // oracle runs all 60 steps and must land on the same bits.
    let full = RegionConfig {
        refine_iterations: 60,
        ..*config
    };
    assert_eq!(
        exact(&max_feasible_period_with(ctx, &full), period),
        exact(&oracle_max_feasible_period(ctx, &full), period),
        "60-step bisection, {full:?}"
    );
    // With no refinement the feasible-period search returns the last
    // feasible sample itself.
    let coarse = RegionConfig {
        refine_iterations: 0,
        ..*config
    };
    assert_eq!(
        exact(&max_feasible_period_with(ctx, &coarse), period),
        exact(&oracle_max_feasible_period(ctx, &coarse), period),
        "last feasible sample, {coarse:?}"
    );
}

/// The `f(P)` evaluations `search` makes, read from a run-scoped recorder.
fn evaluations<T>(search: impl FnOnce() -> T) -> (T, u64) {
    let run = ftsched_obs::Recorder::new();
    let result = {
        let _current = run.enter();
        search()
    };
    (result, run.snapshot().timing.region_evaluations)
}

/// The feasibility-only search answers as the full one does, bit for bit,
/// and never evaluates more of the curve (on a rejection it skips the
/// peak search).
fn assert_feasibility_only_matches(ctx: &AnalysisContext, config: &RegionConfig) {
    let (full, full_evaluations) = evaluations(|| max_feasible_period_with(ctx, config));
    let (only, only_evaluations) = evaluations(|| last_feasible_period_with(ctx, config));
    assert_eq!(
        only.unwrap().map(f64::to_bits),
        full.as_ref().ok().map(|p| p.to_bits()),
        "last_feasible_period_with, {config:?}"
    );
    assert!(
        only_evaluations <= full_evaluations,
        "{only_evaluations} > {full_evaluations} evaluations, {config:?}"
    );
    if full.is_ok() {
        assert_eq!(only_evaluations, full_evaluations, "{config:?}");
    }
}

fn context(
    tasks: TaskSet,
    heuristic: PartitionHeuristic,
    overhead: f64,
    algorithm: Algorithm,
) -> Option<AnalysisContext> {
    let partition = partition_system(&tasks, heuristic).ok()?;
    let problem = DesignProblem::with_total_overhead(tasks, partition, overhead, algorithm).ok()?;
    Some(problem.analysis_context().unwrap())
}

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::EarliestDeadlineFirst,
    Algorithm::RateMonotonic,
    Algorithm::DeadlineMonotonic,
];
const OVERHEADS: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.4];
const PERIOD_MAX: [f64; 3] = [3.5, 12.0, 40.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random paper-like task sets (Table 1 periods, FT/FS/NF mix) at low
    /// to overloaded utilisations, every algorithm, zero and positive
    /// overhead, 2–2,000 samples. Fixed-priority channels near and past
    /// full load carry scheduling points with `W(t) > t`.
    #[test]
    fn pruned_searches_equal_the_eager_oracle(
        seed in any::<u64>(),
        task_count in 3usize..=14,
        util_percent in 30u32..=220,
        algorithm in 0usize..ALGORITHMS.len(),
        heuristic in 0usize..PartitionHeuristic::ALL.len(),
        overhead in 0usize..OVERHEADS.len(),
        samples in 2usize..=2_000,
        period_max in 0usize..PERIOD_MAX.len(),
        refine_iterations in 0usize..=60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = GeneratorConfig::paper_like(task_count, util_percent as f64 / 100.0);
        let tasks = generate_taskset(&mut rng, &config).unwrap();
        let Some(ctx) = context(
            tasks,
            PartitionHeuristic::ALL[heuristic],
            OVERHEADS[overhead],
            ALGORITHMS[algorithm],
        ) else {
            return Ok(());
        };
        assert_searches_match(&ctx, &RegionConfig {
            period_min: 0.02,
            period_max: PERIOD_MAX[period_max],
            samples,
            refine_iterations,
        });
    }
}

fn task(id: u32, wcet: f64, period: f64, mode: Mode) -> Task {
    Task::implicit_deadline(id, wcet, period, mode).unwrap()
}

fn grids() -> impl Iterator<Item = RegionConfig> {
    [2, 3, 7, 300, 1_400]
        .into_iter()
        .map(|samples| RegionConfig {
            samples,
            ..RegionConfig::paper_figure4()
        })
}

#[test]
fn the_paper_problem_matches_the_oracle() {
    for algorithm in ALGORITHMS {
        let problem = ftsched_design::problem::paper_problem(algorithm);
        for overhead in OVERHEADS {
            let ctx = context(
                problem.tasks.clone(),
                PartitionHeuristic::FirstFitDecreasing,
                overhead,
                algorithm,
            )
            .unwrap();
            for config in grids() {
                assert_searches_match(&ctx, &config);
            }
        }
    }
}

#[test]
fn points_with_more_demand_than_time_match_the_oracle() {
    // In the first two sets both heavy tasks share a channel. Under RM the
    // second task's scheduling points are t = 5, with W = 1.5 + 3 = 4.5
    // ≤ t, and t = 7, with W = 1.5 + 6 = 7.5 > t: there the quantum
    // exceeds the period at every period. In the third set every point
    // has W > t, so f(P) < 0 everywhere and the feasible-period and slack
    // searches reject.
    let sets = [
        vec![
            task(1, 3.0, 5.0, Mode::NonFaultTolerant),
            task(2, 1.5, 7.0, Mode::NonFaultTolerant),
            task(3, 1.0, 10.0, Mode::FaultTolerant),
        ],
        vec![
            task(1, 3.0, 5.0, Mode::FailSilent),
            task(2, 1.5, 7.0, Mode::FailSilent),
            task(3, 0.5, 4.0, Mode::FaultTolerant),
        ],
        vec![
            task(1, 2.0, 4.0, Mode::NonFaultTolerant),
            task(2, 3.0, 6.0, Mode::NonFaultTolerant),
        ],
    ];
    for tasks in sets {
        let tasks = TaskSet::new(tasks).unwrap();
        for algorithm in [Algorithm::RateMonotonic, Algorithm::DeadlineMonotonic] {
            for overhead in [0.0, 0.05] {
                let ctx = context(
                    tasks.clone(),
                    PartitionHeuristic::FirstFitDecreasing,
                    overhead,
                    algorithm,
                )
                .unwrap();
                for config in grids() {
                    assert_searches_match(&ctx, &config);
                }
            }
        }
    }
}

#[test]
fn a_capped_horizon_matches_the_oracle() {
    // The three non-fault-tolerant tasks share one channel, and their
    // coprime periods put its hyperperiod (716,539) past the 100,000 cap
    // of the EDF deadline set: instants reach the cap, the magnitude the
    // searches' rounding guard is sized from.
    let tasks = TaskSet::new(vec![
        task(1, 20.0, 97.0, Mode::NonFaultTolerant),
        task(2, 15.0, 89.0, Mode::NonFaultTolerant),
        task(3, 10.0, 83.0, Mode::NonFaultTolerant),
        task(4, 9.0, 79.0, Mode::FaultTolerant),
        task(5, 12.0, 73.0, Mode::FailSilent),
    ])
    .unwrap();
    for overhead in [0.0, 0.05, 0.4] {
        let ctx = context(
            tasks.clone(),
            PartitionHeuristic::FirstFitDecreasing,
            overhead,
            Algorithm::EarliestDeadlineFirst,
        )
        .unwrap();
        assert!(ctx.magnitude() >= 99_000.0, "horizon {}", ctx.magnitude());
        for samples in [2, 40, 300] {
            assert_searches_match(
                &ctx,
                &RegionConfig {
                    period_min: 0.02,
                    period_max: 80.0,
                    samples,
                    refine_iterations: 60,
                },
            );
        }
    }
}

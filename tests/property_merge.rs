//! Property tests of the campaign merge algebra: the statistics that
//! make sharded, multi-threaded campaigns byte-identical to sequential
//! ones are exactly associative and commutative, and folding shards
//! equals folding the raw trial stream.
//!
//! These properties are the *mechanism* behind the engine's determinism
//! guarantees (`tests/campaign_determinism.rs` and
//! `tests/campaign_sharding.rs` check the end-to-end effect; this file
//! checks the algebra itself on randomized trial streams).

use proptest::prelude::*;

use ftsched_campaign::trial::BaselineVerdicts;
use ftsched_campaign::{
    LatencyCurve, LatencyCurveSpec, ResponseHistogram, ResponseHistogramSpec, RunCounters,
    ScenarioStats, SimSummary, TaskResponse, TrialOutcome, TrialStatus,
};
use ftsched_sim::report::OutcomeCounts;
use ftsched_task::{PerMode, TaskId};

const HISTOGRAM: ResponseHistogramSpec = ResponseHistogramSpec {
    bin_width: 0.5,
    bins: 32,
};

const LATENCY: LatencyCurveSpec = LatencyCurveSpec {
    bin_width: 0.0625,
    bins: 24,
};

/// Builds a latency-curve point from deadline-relative observations in
/// eighths (`0..24` maps onto `0.0..3.0` deadlines, with some overflow).
fn latency_from(observations: &[u8]) -> LatencyCurve {
    let mut curve = LatencyCurve::new(LATENCY);
    for &scaled in observations {
        curve.observe(f64::from(scaled) / 8.0);
    }
    curve
}

fn status_from(code: u8) -> TrialStatus {
    match code % 5 {
        0 => TrialStatus::Accepted,
        1 => TrialStatus::GenerationFailed,
        2 => TrialStatus::PartitionFailed,
        3 => TrialStatus::DesignRejected,
        _ => TrialStatus::SimulationFailed,
    }
}

/// Builds a sorted per-task histogram list from raw `(task, rt)` pairs.
fn responses_from(observations: &[(u8, u32)]) -> Vec<TaskResponse> {
    let mut out: Vec<TaskResponse> = Vec::new();
    for &(task, rt_scaled) in observations {
        let task = TaskId(u32::from(task % 4));
        let rt = f64::from(rt_scaled) / 4.0; // 0.0 .. 20.0, some overflow
        let i = match out.binary_search_by_key(&task, |r| r.task) {
            Ok(i) => i,
            Err(i) => {
                out.insert(
                    i,
                    TaskResponse {
                        task,
                        histogram: ResponseHistogram::new(HISTOGRAM),
                    },
                );
                i
            }
        };
        out[i].histogram.observe(rt);
    }
    out
}

/// Strategy: one randomized trial outcome, exercising every counter the
/// accumulator folds (statuses, baselines, simulation summaries with
/// per-task histograms).
fn arb_outcome() -> impl Strategy<Value = TrialOutcome> {
    (
        (0u8..5, any::<u64>(), 0u8..32),
        (1u32..200, 0u32..200, 0u32..10, 0u32..20),
        (0u32..400, 0u32..100),
        (
            prop::collection::vec((0u8..8, 0u32..90), 0..10),
            prop::collection::vec(0u8..32, 0..12),
        ),
    )
        .prop_map(
            |(
                (status_code, seed, baseline_bits),
                (released, completed, misses, faults),
                (period_scaled, slack_scaled),
                (observations, latencies),
            )| {
                let status = status_from(status_code);
                let baselines = (baseline_bits < 16).then_some(BaselineVerdicts {
                    flexible: baseline_bits & 1 != 0,
                    static_lockstep: baseline_bits & 2 != 0,
                    static_parallel: baseline_bits & 4 != 0,
                    primary_backup: baseline_bits & 8 != 0,
                });
                let sim = (status == TrialStatus::Accepted).then(|| SimSummary {
                    period: 0.5 + f64::from(period_scaled) / 100.0,
                    slack_bandwidth: f64::from(slack_scaled) / 200.0,
                    overhead_bandwidth: 0.05,
                    released_jobs: u64::from(released),
                    completed_jobs: u64::from(completed.min(released)),
                    deadline_misses: u64::from(misses),
                    injected_faults: u64::from(faults),
                    effective_faults: u64::from(faults / 2),
                    outcomes: PerMode::splat(OutcomeCounts {
                        correct_no_fault: u64::from(completed / 3),
                        correct_masked: u64::from(faults),
                        silenced_lost: u64::from(faults / 3),
                        wrong_result: u64::from(misses / 2),
                    }),
                    max_response_time: f64::from(period_scaled) / 40.0,
                    response: Some(responses_from(&observations)),
                    // Roughly half the accepted trials carry a margin, so
                    // the merge algebra is exercised across present and
                    // absent observations.
                    wcet_margin: (faults % 2 == 0).then(|| 1.0 + f64::from(slack_scaled) / 100.0),
                    // Likewise for the latency curve: some accepted
                    // trials carry one, some do not — the optional-slot
                    // merge must treat `None` as the identity.
                    latency: (released % 3 != 0).then(|| latency_from(&latencies)),
                });
                TrialOutcome {
                    scenario: 0,
                    trial: 0,
                    seed,
                    status,
                    baselines,
                    sim,
                }
            },
        )
}

/// Strategy: one randomized deterministic-counter block, covering the
/// whole `u64` range so saturation is exercised too. The field names
/// come from the counter table through the serialised form, so a new
/// counter is covered without touching this file.
fn arb_counters() -> impl Strategy<Value = RunCounters> {
    let names: Vec<String> = match serde_json::to_value(&RunCounters::default()) {
        serde::Value::Map(fields) => fields.into_iter().map(|(name, _)| name.into()).collect(),
        other => panic!("counters serialise as a map, not {other:?}"),
    };
    prop::collection::vec(any::<u64>(), names.len()).prop_map(move |values| {
        let fields = names
            .iter()
            .map(|name| name.as_str().into())
            .zip(values.into_iter().map(serde::Value::U64))
            .collect();
        serde::Deserialize::from_value(&serde::Value::Map(fields)).unwrap()
    })
}

fn fold(outcomes: &[TrialOutcome]) -> ScenarioStats {
    let mut stats = ScenarioStats::default();
    for outcome in outcomes {
        stats.observe(outcome);
    }
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `ScenarioStats::merge` is associative and commutative over any
    /// three-way split of a trial stream, and reassociates back to the
    /// sequential fold.
    #[test]
    fn scenario_stats_merge_is_associative_and_commutative(
        outcomes in prop::collection::vec(arb_outcome(), 0..40),
        cut_x in 0usize..41,
        cut_y in 0usize..41,
    ) {
        let n = outcomes.len();
        let (lo, hi) = if cut_x <= cut_y { (cut_x, cut_y) } else { (cut_y, cut_x) };
        let (lo, hi) = (lo.min(n), hi.min(n));
        let a = fold(&outcomes[..lo]);
        let b = fold(&outcomes[lo..hi]);
        let c = fold(&outcomes[hi..]);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // Either association equals the plain sequential fold.
        prop_assert_eq!(&left, &fold(&outcomes));

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
    }

    /// Folding contiguous shards of the trial stream and merging the
    /// shard accumulators in shard order reproduces the fold of all
    /// trials — the exact invariant `ftsched merge` relies on.
    #[test]
    fn merge_of_shards_equals_fold_of_all_trials(
        outcomes in prop::collection::vec(arb_outcome(), 1..60),
        shard_count in 1usize..7,
    ) {
        let sequential = fold(&outcomes);
        let n = outcomes.len();
        let mut merged = ScenarioStats::default();
        for shard in 0..shard_count {
            // The same contiguous slicing `run_campaign_shard` uses.
            let lo = shard * n / shard_count;
            let hi = (shard + 1) * n / shard_count;
            merged.merge(&fold(&outcomes[lo..hi]));
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.trials, n as u64);
    }

    /// `ResponseHistogram::merge` is exact: associative, commutative and
    /// count-preserving over arbitrary observation streams.
    #[test]
    fn response_histogram_merge_is_exact(
        observations in prop::collection::vec(0u32..100, 0..80),
        cut_x in 0usize..81,
        cut_y in 0usize..81,
    ) {
        let observe_all = |values: &[u32]| {
            let mut h = ResponseHistogram::new(HISTOGRAM);
            for &v in values {
                h.observe(f64::from(v) / 4.0);
            }
            h
        };
        let n = observations.len();
        let (lo, hi) = if cut_x <= cut_y { (cut_x, cut_y) } else { (cut_y, cut_x) };
        let (lo, hi) = (lo.min(n), hi.min(n));
        let a = observe_all(&observations[..lo]);
        let b = observe_all(&observations[lo..hi]);
        let c = observe_all(&observations[hi..]);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &observe_all(&observations));
        prop_assert_eq!(left.total(), n as u64);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Quantiles are monotone in q and bounded by the bin range.
        let p50 = left.quantile(0.5);
        let p95 = left.quantile(0.95);
        let p99 = left.quantile(0.99);
        prop_assert!(p50 <= p95 && p95 <= p99);
        if n > 0 {
            prop_assert!(p50 > 0.0);
        }
    }

    /// `LatencyCurve::merge` is exact over any three-way split of an
    /// observation stream: associative, commutative, count-preserving —
    /// and reassociates back to the single-pass fold.
    #[test]
    fn latency_curve_merge_is_associative_and_commutative(
        observations in prop::collection::vec(0u8..32, 0..80),
        cut_x in 0usize..81,
        cut_y in 0usize..81,
    ) {
        let n = observations.len();
        let (lo, hi) = if cut_x <= cut_y { (cut_x, cut_y) } else { (cut_y, cut_x) };
        let (lo, hi) = (lo.min(n), hi.min(n));
        let a = latency_from(&observations[..lo]);
        let b = latency_from(&observations[lo..hi]);
        let c = latency_from(&observations[hi..]);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &latency_from(&observations));
        prop_assert_eq!(left.samples(), n as u64);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Quantiles stay monotone under the merge.
        prop_assert!(left.p50() <= left.p95() && left.p95() <= left.p99());
    }

    /// Folding contiguous shards of a latency observation stream and
    /// merging the shard curves in shard order reproduces the fold of
    /// all observations — the invariant that makes `--shard` +
    /// `ftsched merge` latency reports byte-identical to unsharded runs.
    #[test]
    fn latency_shard_fold_equals_all_observations_fold(
        observations in prop::collection::vec(0u8..32, 1..60),
        shard_count in 1usize..7,
    ) {
        let sequential = latency_from(&observations);
        let n = observations.len();
        let mut merged = LatencyCurve::new(LATENCY);
        for shard in 0..shard_count {
            // The same contiguous slicing `run_campaign_shard` uses.
            let lo = shard * n / shard_count;
            let hi = (shard + 1) * n / shard_count;
            merged.merge(&latency_from(&observations[lo..hi]));
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.samples(), n as u64);
    }

    /// `RunCounters::merged` — the fold behind `ftsched merge
    /// --metrics` — is associative and commutative with
    /// `RunCounters::default()` as the identity, so shard metrics can be
    /// folded in any grouping and any order.
    #[test]
    fn run_counters_merge_is_associative_and_commutative(
        a in arb_counters(),
        b in arb_counters(),
        c in arb_counters(),
    ) {
        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        // Commutativity: a ⊕ b == b ⊕ a.
        prop_assert_eq!(a.merged(&b), b.merged(&a));
        // Zero identity on both sides.
        let zero = RunCounters::default();
        prop_assert_eq!(a.merged(&zero), a);
        prop_assert_eq!(zero.merged(&a), a);
    }
}

//! The synthetic-workload cache contract (the ROADMAP's "design cache
//! for synthetic workloads, keyed on the generated task-set content
//! hash"): campaigns whose grids pair trials across the algorithm /
//! overhead / partition-heuristic axes share the deterministic
//! generation and partitioning stages across scenarios, and the shared
//! path produces **byte-identical** JSON and CSV reports to the uncached
//! reference path (`--no-design-cache`), at any thread/block
//! configuration, with the same deterministic counters. The entries also
//! carry the analysis every scenario of a task set shares: the static
//! baseline verdicts per algorithm and the analysis context per
//! (partition, algorithm), which each overhead reads. Mirrors
//! `tests/campaign_design_cache.rs`, which proves the same contract for
//! the paper workload's design stage.

use ftsched_campaign::prelude::*;

/// A synthetic validation campaign that sweeps every axis the caches
/// key on: two algorithms, two overheads, two heuristics, plus response
/// histograms (so the cached RNG hand-off is exercised through the
/// fault draw and the simulation stage) and WCET margins (whose scratch
/// rescale copies the shared context's sweeps on its first write).
fn widened_synthetic_campaign() -> CampaignSpec {
    CampaignSpec {
        master_seed: 99,
        trials_per_scenario: 8,
        workload: WorkloadSpec::Synthetic {
            task_count: 8,
            max_task_utilization: 0.5,
            periods: PeriodDistribution::table1_like(),
            mode_mix: ModeMix::paper_like(),
            period_granularity: None,
        },
        algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
        utilizations: vec![0.9, 1.3],
        overheads: vec![0.02, 0.08],
        partition_heuristics: vec![
            PartitionHeuristic::FirstFitDecreasing,
            PartitionHeuristic::WorstFitDecreasing,
        ],
        faults: FaultModel::Poisson {
            mean_interarrival: 10.0,
            fault_duration: 0.25,
        },
        horizon_hyperperiods: 1,
        kind: TrialKind::DesignAndValidate,
        compare_baselines: true,
        region_samples: Some(200),
        region_refine_iterations: Some(10),
        response_histogram: Some(ResponseHistogramSpec {
            bin_width: 0.5,
            bins: 64,
        }),
        wcet_margin: Some(WcetMarginSpec { tolerance: 0.01 }),
        ..CampaignSpec::base("synthetic-cache-proof")
    }
}

/// One run's JSON and CSV reports and the metrics it recorded.
fn run(
    spec: &CampaignSpec,
    threads: usize,
    block_size: usize,
    cache: bool,
) -> (String, String, RunMetrics) {
    let config = ExecutorConfig {
        threads,
        block_size,
        progress: false,
        heartbeat: false,
        design_cache: cache,
    };
    let (report, metrics) = run_campaign_recorded(spec, &config, None).unwrap();
    (report.to_json(), report.to_csv(), metrics)
}

#[test]
fn cached_synthetic_campaign_reports_are_byte_identical_to_uncached() {
    let spec = widened_synthetic_campaign();
    for reference_threads in [1, 2] {
        let (reference_json, reference_csv, reference) = run(&spec, reference_threads, 32, false);
        for (threads, block_size) in [(1, 32), (4, 5), (8, 1), (2, 7)] {
            let (json, csv, cached) = run(&spec, threads, block_size, true);
            let config = format!(
                "threads={threads}, block={block_size}, uncached threads={reference_threads}"
            );
            assert_eq!(json, reference_json, "cached JSON diverged ({config})");
            assert_eq!(csv, reference_csv, "cached CSV diverged ({config})");
            assert_eq!(
                cached.counters, reference.counters,
                "cached counters diverged ({config})"
            );
        }
    }
}

#[test]
fn a_cached_run_builds_one_context_per_set_heuristic_and_algorithm() {
    // Uncached, every trial that reaches the design stage enumerates its
    // own context; cached, the first overhead of a (set, heuristic,
    // algorithm) builds it and the others share it. At 1 thread no two
    // workers race on a fresh entry, so the sweep builds (one per
    // non-empty channel of a context) divide exactly by the overheads.
    let spec = widened_synthetic_campaign();
    let (_, _, uncached) = run(&spec, 1, 32, false);
    let (_, _, cached) = run(&spec, 1, 32, true);
    let builds = cached.timing.sweep_builds;
    assert!(builds > 0);
    assert_eq!(
        uncached.timing.sweep_builds,
        builds * spec.overheads.len() as u64,
        "uncached {} vs cached {builds} sweep builds",
        uncached.timing.sweep_builds
    );
    // The same trials reached the design stage either way.
    assert_eq!(cached.counters, uncached.counters);
}

#[test]
fn cached_design_only_campaign_matches_uncached() {
    let spec = CampaignSpec {
        kind: TrialKind::DesignOnly,
        faults: FaultModel::None,
        response_histogram: None,
        wcet_margin: None,
        trials_per_scenario: 16,
        ..widened_synthetic_campaign()
    };
    let (reference_json, reference_csv, reference) = run(&spec, 1, 32, false);
    let (json, csv, cached) = run(&spec, 4, 3, true);
    assert_eq!(json, reference_json);
    assert_eq!(csv, reference_csv);
    assert_eq!(cached.counters, reference.counters);
}

#[test]
fn paired_axes_share_workloads_by_construction() {
    // The caches exist because these columns are paired: same workload
    // point + trial ⇒ same seed ⇒ same task set, across every
    // algorithm / overhead / heuristic combination.
    let spec = widened_synthetic_campaign();
    let scenarios = spec.scenarios();
    let points = spec.utilizations.len();
    for s in &scenarios {
        assert_eq!(s.workload_point, s.index % points);
    }
    for trial in 0..2 {
        let seeds: Vec<u64> = scenarios
            .iter()
            .filter(|s| s.workload_point == 0)
            .map(|s| run_trial(&spec, s, trial).seed)
            .collect();
        assert_eq!(seeds.len(), 8); // 2 algorithms x 2 overheads x 2 heuristics
        assert!(seeds.windows(2).all(|w| w[0] == w[1]));
    }
}

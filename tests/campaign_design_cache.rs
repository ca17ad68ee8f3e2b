//! The design-cache contract: a `WorkloadSpec::Paper` campaign run with
//! the shared design cache produces **byte-identical** JSON and CSV
//! reports to an uncached run (which recomputes the deterministic design
//! stage on every trial), at any thread/block configuration.

use ftsched_campaign::prelude::*;
use ftsched_task::Mode;

/// A paper-workload validation campaign: every trial designs the same
/// Table 1 problem and differs only in its Poisson fault draw — the
/// workload the design cache exists for.
fn paper_validation_campaign() -> CampaignSpec {
    CampaignSpec {
        master_seed: 77,
        trials_per_scenario: 12,
        workload: WorkloadSpec::Paper,
        utilizations: vec![],
        algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
        faults: FaultModel::Poisson {
            mean_interarrival: 6.0,
            fault_duration: 0.25,
        },
        horizon_hyperperiods: 1,
        kind: TrialKind::DesignAndValidate,
        compare_baselines: true,
        ..CampaignSpec::base("design-cache-proof")
    }
}

fn run(spec: &CampaignSpec, threads: usize, block_size: usize, cache: bool) -> (String, String) {
    let report = run_campaign(
        spec,
        &ExecutorConfig {
            threads,
            block_size,
            progress: false,
            heartbeat: false,
            design_cache: cache,
        },
    )
    .unwrap();
    (report.to_json(), report.to_csv())
}

#[test]
fn cached_paper_campaign_reports_are_byte_identical_to_uncached() {
    let spec = paper_validation_campaign();
    let (reference_json, reference_csv) = run(&spec, 1, 32, false);

    for (threads, block_size) in [(1, 32), (4, 5), (8, 1), (2, 7)] {
        let (json, csv) = run(&spec, threads, block_size, true);
        assert_eq!(
            json, reference_json,
            "cached JSON diverged (threads={threads}, block={block_size})"
        );
        assert_eq!(
            csv, reference_csv,
            "cached CSV diverged (threads={threads}, block={block_size})"
        );
    }
}

#[test]
fn cached_design_only_campaign_matches_uncached() {
    let spec = CampaignSpec {
        kind: TrialKind::DesignOnly,
        faults: FaultModel::None,
        trials_per_scenario: 20,
        ..paper_validation_campaign()
    };
    let (reference_json, reference_csv) = run(&spec, 1, 32, false);
    let (json, csv) = run(&spec, 4, 3, true);
    assert_eq!(json, reference_json);
    assert_eq!(csv, reference_csv);
}

#[test]
fn cached_trials_reproduce_table_2b_per_trial() {
    // Spot-check values, not just equality of aggregates: the cached
    // campaign's accepted trials must still carry the Table 2(b) period.
    let spec = paper_validation_campaign();
    let report = run_campaign(
        &spec,
        &ExecutorConfig {
            threads: 4,
            block_size: 4,
            progress: false,
            heartbeat: false,
            design_cache: true,
        },
    )
    .unwrap();
    let edf = &report.scenarios[0];
    assert_eq!(edf.algorithm, Algorithm::EarliestDeadlineFirst);
    assert_eq!(edf.stats.accepted, spec.trials_per_scenario as u64);
    let mean_period = edf.stats.sim.mean_period();
    assert!(
        (mean_period - 2.966).abs() < 0.01,
        "mean accepted period {mean_period:.4} should be the Table 2(b) design"
    );
}

/// A paper campaign where the shared schedule does all the work: dense
/// faults over several hyperperiods, with per-task response histograms
/// and latency curves, so every part of the per-trial summary is either
/// taken from the cached schedule or classified per fault draw.
fn dense_fault_paper_campaign() -> CampaignSpec {
    CampaignSpec {
        master_seed: 4242,
        trials_per_scenario: 9,
        overheads: vec![0.01, 0.05],
        faults: FaultModel::Poisson {
            mean_interarrival: 1.5,
            fault_duration: 0.3,
        },
        horizon_hyperperiods: 3,
        response_histogram: Some(ResponseHistogramSpec {
            bin_width: 0.25,
            bins: 96,
        }),
        latency_curves: Some(LatencyCurveSpec {
            bin_width: 0.03125,
            bins: 64,
        }),
        compare_baselines: false,
        ..paper_validation_campaign()
    }
}

fn run_recorded(
    spec: &CampaignSpec,
    threads: usize,
    block_size: usize,
    cache: bool,
) -> (CampaignReport, RunCounters) {
    let config = ExecutorConfig {
        threads,
        block_size,
        progress: false,
        heartbeat: false,
        design_cache: cache,
    };
    let (report, metrics) = run_campaign_recorded(spec, &config, None).unwrap();
    (report, metrics.counters)
}

#[test]
fn shared_schedules_reproduce_uncached_histograms_curves_and_counters() {
    let spec = dense_fault_paper_campaign();
    let (reference, reference_counters) = run_recorded(&spec, 1, 32, false);
    for scenario in &reference.scenarios {
        let sim = &scenario.stats.sim;
        assert_eq!(scenario.stats.accepted, spec.trials_per_scenario as u64);
        assert!(!sim.response.is_empty(), "histograms are reported");
        assert!(sim.latency.is_some(), "latency curves are reported");
        assert!(sim.outcomes[Mode::NonFaultTolerant].wrong_result > 0);
    }
    let reference = reference.to_json();
    let trials = (spec.scenarios().len() * spec.trials_per_scenario) as u64;
    assert_eq!(reference_counters.sim_runs, trials);
    assert!(reference_counters.sim_faults_injected > trials * 10);

    for (threads, block_size) in [(1, 32), (1, 4), (2, 1), (2, 5), (2, 64)] {
        let (report, counters) = run_recorded(&spec, threads, block_size, true);
        assert_eq!(
            report.to_json(),
            reference,
            "cached report diverged (threads={threads}, block={block_size})"
        );
        assert_eq!(
            counters, reference_counters,
            "cached counters diverged (threads={threads}, block={block_size})"
        );
    }
}

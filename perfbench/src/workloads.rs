//! The benchmark's workloads and every input they use, generated from the
//! workload seed alone.

use ftsched_analysis::Algorithm;
use ftsched_campaign::spec::{
    CampaignSpec, LatencyCurveSpec, ResponseHistogramSpec, TrialKind, WcetMarginSpec, WorkloadSpec,
};
use ftsched_design::partitioner::PartitionHeuristic;
use ftsched_design::quanta::SlackPolicy;
use ftsched_design::DesignGoal;
use ftsched_platform::FaultModel;
use ftsched_task::generator::{GeneratorConfig, ModeMix, PeriodDistribution};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synthetic design-heavy campaign grid.
    DesignGrid,
    /// Table 1 under dense faults: the simulator-heavy campaign.
    ValidateFaults,
    /// Open-loop admission requests over a unix socket.
    ServeAdmission,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DesignGrid,
        Workload::ValidateFaults,
        Workload::ServeAdmission,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignGrid => "design_grid",
            Workload::ValidateFaults => "validate_faults",
            Workload::ServeAdmission => "serve_admission",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: spreads consecutive workload seeds over the whole seed
/// space, so seed 1 and seed 2 share no campaign master seed.
pub fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The synthetic task-set shape shared by the grid and the admission
/// stream: ten tasks on the Table 1 period menu (hyperperiod ≤ 120).
pub fn generator_config(total_utilization: f64) -> GeneratorConfig {
    GeneratorConfig {
        task_count: 10,
        total_utilization,
        max_task_utilization: 0.7,
        periods: PeriodDistribution::table1_like(),
        mode_mix: ModeMix::paper_like(),
        period_granularity: None,
    }
}

/// `design_grid`: EDF and RM × three overheads × three partition
/// heuristics × a utilisation sweep that runs into infeasibility, with
/// baselines, WCET margins and response histograms switched on.
pub fn design_grid(seed: u64, trials_per_scenario: usize) -> CampaignSpec {
    CampaignSpec {
        master_seed: mix_seed(seed),
        trials_per_scenario,
        workload: WorkloadSpec::Synthetic {
            task_count: 10,
            max_task_utilization: 0.7,
            periods: PeriodDistribution::table1_like(),
            mode_mix: ModeMix::paper_like(),
            period_granularity: None,
        },
        algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
        utilizations: vec![0.6, 0.9, 1.2, 1.5, 1.8],
        partition_heuristic: PartitionHeuristic::WorstFitDecreasing,
        total_overhead: 0.05,
        goal: DesignGoal::MinimizeOverheadBandwidth,
        slack_policy: SlackPolicy::KeepUnallocated,
        faults: FaultModel::Poisson {
            mean_interarrival: 10.0,
            fault_duration: 0.25,
        },
        horizon_hyperperiods: 1,
        kind: TrialKind::DesignAndValidate,
        compare_baselines: true,
        region_samples: Some(300),
        region_refine_iterations: Some(10),
        overheads: vec![0.02, 0.05, 0.1],
        partition_heuristics: vec![
            PartitionHeuristic::FirstFitDecreasing,
            PartitionHeuristic::BestFitDecreasing,
            PartitionHeuristic::WorstFitDecreasing,
        ],
        response_histogram: Some(ResponseHistogramSpec {
            bin_width: 0.25,
            bins: 160,
        }),
        wcet_margin: Some(WcetMarginSpec { tolerance: 0.01 }),
        latency_curves: None,
        ..CampaignSpec::base("perfbench-design-grid")
    }
}

/// `validate_faults`: the paper's Table 1 set with EDF and RM across
/// three overheads, dense Poisson faults over a long horizon, response
/// histograms and latency curves.
pub fn validate_faults(seed: u64, trials_per_scenario: usize) -> CampaignSpec {
    CampaignSpec {
        master_seed: mix_seed(seed),
        trials_per_scenario,
        workload: WorkloadSpec::Paper,
        algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
        utilizations: vec![],
        total_overhead: 0.05,
        goal: DesignGoal::MinimizeOverheadBandwidth,
        slack_policy: SlackPolicy::KeepUnallocated,
        faults: FaultModel::Poisson {
            mean_interarrival: 4.0,
            fault_duration: 0.25,
        },
        horizon_hyperperiods: 4,
        kind: TrialKind::DesignAndValidate,
        compare_baselines: false,
        overheads: vec![0.01, 0.03, 0.05],
        response_histogram: Some(ResponseHistogramSpec {
            bin_width: 0.25,
            bins: 160,
        }),
        latency_curves: Some(LatencyCurveSpec {
            bin_width: 0.03125,
            bins: 96,
        }),
        ..CampaignSpec::base("perfbench-validate-faults")
    }
}

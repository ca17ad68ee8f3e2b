//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] describes a *grid* of scenarios — workload
//! parameters crossed with scheduling algorithms, utilisation levels and
//! (optionally) mode-switch overheads and partition heuristics — plus
//! everything one trial needs: design goal, slack policy, fault model,
//! simulation horizon. Specs serialise to JSON (see `examples/*.json` at
//! the repository root) and expand deterministically into an ordered
//! scenario list; together with the per-trial seed derivation of
//! [`crate::seed`], a spec file *is* the experiment.
//!
//! Backward compatibility: the `overheads` / `partition_heuristics` axes
//! and the `response_histogram` / `wcet_margin` / `latency_curves` metric
//! blocks are optional extensions. A spec that omits them behaves exactly
//! like the pre-axis engine (single overhead, single heuristic, no extra
//! metrics), and — because absent extensions are also omitted when the
//! spec is echoed into a report — produces **byte-identical** reports to
//! it (enforced by `tests/campaign_golden.rs`).

use serde::{Deserialize, Serialize};

use ftsched_analysis::Algorithm;
use ftsched_design::partitioner::PartitionHeuristic;
use ftsched_design::quanta::SlackPolicy;
use ftsched_design::region::RegionConfig;
use ftsched_design::{DesignGoal, DesignProblem};
use ftsched_platform::FaultModel;
use ftsched_task::generator::{GeneratorConfig, ModeMix, PeriodDistribution};

use crate::CampaignError;

/// Where each trial's workload comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's 13-task Table 1 example with its §4 manual partition.
    /// The spec's `utilizations` axis must be empty for this workload
    /// (the task set fixes its own utilisation).
    Paper,
    /// Seeded random task sets (UUniFast-discard utilisations, the
    /// spec's `utilizations` axis supplies the per-scenario target).
    Synthetic {
        /// Number of tasks per generated set.
        task_count: usize,
        /// Per-task utilisation cap (UUniFast-discard).
        max_task_utilization: f64,
        /// Period distribution.
        periods: PeriodDistribution,
        /// FT/FS/NF shares.
        mode_mix: ModeMix,
        /// Optional period grid (keeps hyperperiods tractable).
        period_granularity: Option<f64>,
    },
}

impl WorkloadSpec {
    /// A synthetic workload with the paper-like defaults of
    /// [`GeneratorConfig::paper_like`].
    pub fn synthetic_paper_like(task_count: usize) -> Self {
        WorkloadSpec::Synthetic {
            task_count,
            max_task_utilization: 1.0,
            periods: PeriodDistribution::table1_like(),
            mode_mix: ModeMix::paper_like(),
            period_granularity: None,
        }
    }

    /// The generator configuration for one scenario's target utilisation
    /// (`None` for the paper workload).
    pub fn generator_config(&self, total_utilization: f64) -> Option<GeneratorConfig> {
        match *self {
            WorkloadSpec::Paper => None,
            WorkloadSpec::Synthetic {
                task_count,
                max_task_utilization,
                periods,
                mode_mix,
                period_granularity,
            } => Some(GeneratorConfig {
                task_count,
                total_utilization,
                max_task_utilization,
                periods,
                mode_mix,
                period_granularity,
            }),
        }
    }
}

/// How far each trial's pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialKind {
    /// Stop after the feasibility question: is the period region of
    /// Eq. 15 non-empty for the configured overhead? Cheap; the kernel of
    /// acceptance-ratio and baseline-comparison campaigns.
    DesignOnly,
    /// Run the full `design_and_validate` pipeline: choose a design for
    /// the goal, build the slot schedule, simulate it over the horizon
    /// under the fault model. The kernel of fault-injection and
    /// validation campaigns.
    DesignAndValidate,
}

/// Binning of the deterministic per-task response-time histograms (see
/// [`crate::stats::ResponseHistogram`]). Fixed bins with integer counts:
/// the histograms merge exactly, so sharded and multi-threaded campaigns
/// report bit-identical percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseHistogramSpec {
    /// Width of one bin, in paper time units.
    pub bin_width: f64,
    /// Number of regular bins (at most [`Self::MAX_BINS`]); response
    /// times at or beyond `bins * bin_width` land in a single overflow
    /// bin.
    pub bins: usize,
}

impl ResponseHistogramSpec {
    /// Upper bound on `bins`, enforced by [`CampaignSpec::validate`]:
    /// one histogram is allocated per task per trial, so a runaway bin
    /// count in a spec file must fail validation instead of aborting a
    /// long campaign on an enormous allocation mid-run. A million
    /// 8-byte bins (8 MB per histogram) is already far past any useful
    /// resolution.
    pub const MAX_BINS: usize = 1_000_000;
}

/// The WCET-scaling sensitivity metric of a campaign (Table 2(c)'s
/// robustness argument as a grid axis): every accepted
/// [`TrialKind::DesignAndValidate`] trial additionally computes the
/// uniform WCET inflation margin of its chosen design, via the trial's
/// already-built analysis context (for the paper workload, via the shared
/// design cache). Reports gain `wcet_margin_mean` / `wcet_margin_p50`
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WcetMarginSpec {
    /// Bisection tolerance of each margin search (absolute, on the
    /// inflation factor).
    pub tolerance: f64,
}

/// The latency-vs-load metric of a campaign: every accepted
/// [`TrialKind::DesignAndValidate`] trial pools its completed jobs'
/// **deadline-relative** response times (response time divided by the
/// task's relative deadline `D_i`, so `1.0` = "finished exactly at the
/// deadline" whatever the period) into one fixed-bin integer-count
/// histogram per scenario — a [`crate::stats::LatencyCurve`] point.
/// Reports gain `lat_p50/p95/p99` columns per utilisation (the QoS
/// latency-vs-load question), a long-format `--latency-csv` export, and
/// a pooled per-utilisation curve in the JSON report. Like every
/// campaign statistic, curves merge exactly: byte-identical across
/// thread counts, shards and `ftsched merge`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurveSpec {
    /// Width of one bin, as a fraction of the relative deadline (e.g.
    /// `0.03125` resolves the distribution to 1/32 of a deadline).
    pub bin_width: f64,
    /// Number of regular bins (at most
    /// [`ResponseHistogramSpec::MAX_BINS`]); normalised response times at
    /// or beyond `bins * bin_width` land in a single overflow bin.
    pub bins: usize,
}

/// A declarative experiment campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Human-readable campaign name (echoed in reports).
    pub name: String,
    /// Master seed; per-trial seeds derive from it (see [`crate::seed`]).
    pub master_seed: u64,
    /// Trials per scenario grid point.
    pub trials_per_scenario: usize,
    /// Workload source.
    pub workload: WorkloadSpec,
    /// Grid axis: local scheduling algorithms to evaluate.
    pub algorithms: Vec<Algorithm>,
    /// Grid axis: target total utilisations (empty for [`WorkloadSpec::Paper`]).
    pub utilizations: Vec<f64>,
    /// Partitioning heuristic for synthetic workloads (the single-value
    /// fallback when the `partition_heuristics` axis is empty).
    pub partition_heuristic: PartitionHeuristic,
    /// Total mode-switch overhead `O_tot`, split evenly over the modes
    /// (the single-value fallback when the `overheads` axis is empty).
    pub total_overhead: f64,
    /// Design objective (only used by [`TrialKind::DesignAndValidate`]).
    pub goal: DesignGoal,
    /// Slack distribution policy (only used by [`TrialKind::DesignAndValidate`]).
    pub slack_policy: SlackPolicy,
    /// Fault process injected during validation.
    pub faults: FaultModel,
    /// Simulation horizon in task-set hyperperiods (at least 1).
    pub horizon_hyperperiods: u32,
    /// How far each trial runs.
    pub kind: TrialKind,
    /// Also evaluate the three static baseline schemes per trial.
    pub compare_baselines: bool,
    /// Override for the period-region sample count (default: adaptive).
    pub region_samples: Option<usize>,
    /// Override for the region bisection refinement iterations.
    pub region_refine_iterations: Option<usize>,
    /// Grid axis: total mode-switch overheads to sweep. Empty (the
    /// default, and what every pre-axis spec deserialises to) means the
    /// single [`Self::total_overhead`] value.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub overheads: Vec<f64>,
    /// Grid axis: partition heuristics to sweep (synthetic workloads
    /// only). Empty means the single [`Self::partition_heuristic`].
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub partition_heuristics: Vec<PartitionHeuristic>,
    /// When set, `DesignAndValidate` trials record per-task response-time
    /// histograms with this binning, and reports gain p50/p95/p99
    /// response-time columns.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub response_histogram: Option<ResponseHistogramSpec>,
    /// When set, accepted `DesignAndValidate` trials compute the
    /// WCET-scaling margin of their chosen design and reports gain
    /// `wcet_margin_{mean,p50}` columns.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wcet_margin: Option<WcetMarginSpec>,
    /// When set, accepted `DesignAndValidate` trials pool their
    /// deadline-relative response times into per-scenario
    /// latency-vs-load curve points; reports gain `lat_p50/p95/p99`
    /// columns, a `--latency-csv` export and a pooled JSON curve.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency_curves: Option<LatencyCurveSpec>,
}

/// Shared binning rules of the histogram-shaped metric blocks
/// (`response_histogram`, `latency_curves`): a positive finite bin width
/// and a bin count in `1..=MAX_BINS`.
fn validate_binning(block: &str, bin_width: f64, bins: usize) -> Result<(), CampaignError> {
    if !(bin_width > 0.0 && bin_width.is_finite()) {
        return Err(CampaignError::InvalidSpec(format!(
            "{block} bin_width {bin_width} must be positive"
        )));
    }
    if bins == 0 {
        return Err(CampaignError::InvalidSpec(format!(
            "{block} needs at least one bin"
        )));
    }
    if bins > ResponseHistogramSpec::MAX_BINS {
        return Err(CampaignError::InvalidSpec(format!(
            "{block} bins {bins} exceeds the maximum of {}",
            ResponseHistogramSpec::MAX_BINS
        )));
    }
    Ok(())
}

impl CampaignSpec {
    /// A minimal, valid spec with paper-flavoured defaults; campaigns
    /// usually start from this and override the axes they sweep.
    pub fn base(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            master_seed: 2007,
            trials_per_scenario: 100,
            workload: WorkloadSpec::synthetic_paper_like(13),
            algorithms: vec![Algorithm::EarliestDeadlineFirst],
            utilizations: vec![1.0],
            partition_heuristic: PartitionHeuristic::WorstFitDecreasing,
            total_overhead: 0.05,
            goal: DesignGoal::MinimizeOverheadBandwidth,
            slack_policy: SlackPolicy::KeepUnallocated,
            faults: FaultModel::None,
            horizon_hyperperiods: 2,
            kind: TrialKind::DesignOnly,
            compare_baselines: false,
            region_samples: None,
            region_refine_iterations: None,
            overheads: Vec::new(),
            partition_heuristics: Vec::new(),
            response_histogram: None,
            wcet_margin: None,
            latency_curves: None,
        }
    }

    /// True when the spec sweeps the overhead axis explicitly (reports
    /// then carry a per-scenario overhead column).
    pub fn has_overhead_axis(&self) -> bool {
        !self.overheads.is_empty()
    }

    /// True when the spec sweeps the partition-heuristic axis explicitly
    /// (reports then carry a per-scenario heuristic column).
    pub fn has_heuristic_axis(&self) -> bool {
        !self.partition_heuristics.is_empty()
    }

    /// The overhead axis the grid actually crosses: the explicit
    /// `overheads` list, or the single `total_overhead` fallback.
    pub fn effective_overheads(&self) -> Vec<f64> {
        if self.overheads.is_empty() {
            vec![self.total_overhead]
        } else {
            self.overheads.clone()
        }
    }

    /// The heuristic axis the grid actually crosses: the explicit
    /// `partition_heuristics` list, or the single `partition_heuristic`
    /// fallback.
    pub fn effective_partition_heuristics(&self) -> Vec<PartitionHeuristic> {
        if self.partition_heuristics.is_empty() {
            vec![self.partition_heuristic]
        } else {
            self.partition_heuristics.clone()
        }
    }

    /// Validates the spec before execution.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidSpec`] describing the first
    /// problem found.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let fail = |reason: String| Err(CampaignError::InvalidSpec(reason));
        if self.trials_per_scenario == 0 {
            return fail("trials_per_scenario must be at least 1".into());
        }
        if self.algorithms.is_empty() {
            return fail("at least one algorithm is required".into());
        }
        for &overhead in std::iter::once(&self.total_overhead).chain(&self.overheads) {
            if !(overhead >= 0.0 && overhead.is_finite()) {
                return fail(format!("total_overhead {overhead} must be non-negative"));
            }
        }
        if self.horizon_hyperperiods == 0 {
            return fail("horizon_hyperperiods must be at least 1".into());
        }
        if let Some(samples) = self.region_samples.filter(|&n| n < 2) {
            return fail(format!(
                "region_samples {samples} must be at least 2: the period grid needs both ends"
            ));
        }
        if let Some(histogram) = &self.response_histogram {
            validate_binning("response_histogram", histogram.bin_width, histogram.bins)?;
        }
        if let Some(margin) = &self.wcet_margin {
            if !(margin.tolerance > 0.0 && margin.tolerance.is_finite()) {
                return fail(format!(
                    "wcet_margin tolerance {} must be positive and finite",
                    margin.tolerance
                ));
            }
            if self.kind != TrialKind::DesignAndValidate {
                return fail(
                    "the wcet_margin metric needs a chosen design per trial; \
                     set kind to DesignAndValidate"
                        .into(),
                );
            }
        }
        if let Some(latency) = &self.latency_curves {
            validate_binning("latency_curves", latency.bin_width, latency.bins)?;
            if self.kind != TrialKind::DesignAndValidate {
                return fail(
                    "the latency_curves metric needs simulated response times; \
                     set kind to DesignAndValidate"
                        .into(),
                );
            }
        }
        if let FaultModel::Poisson {
            mean_interarrival,
            fault_duration,
        } = self.faults
        {
            if !(mean_interarrival > 0.0 && fault_duration > 0.0) {
                return fail(format!(
                    "Poisson fault model needs positive parameters \
                     (mean {mean_interarrival}, duration {fault_duration})"
                ));
            }
        }
        match &self.workload {
            WorkloadSpec::Paper => {
                if !self.utilizations.is_empty() {
                    return fail(
                        "the paper workload fixes its own utilisation; \
                         `utilizations` must be empty"
                            .into(),
                    );
                }
                if !self.partition_heuristics.is_empty() {
                    return fail(
                        "the paper workload carries its §4 manual partition; \
                         `partition_heuristics` must be empty"
                            .into(),
                    );
                }
            }
            WorkloadSpec::Synthetic { .. } => {
                if self.utilizations.is_empty() {
                    return fail("synthetic workloads need at least one utilisation".into());
                }
                for &u in &self.utilizations {
                    // Probe a full generator configuration per axis value
                    // so spec errors surface before any trial runs.
                    let config = self
                        .workload
                        .generator_config(u)
                        .expect("synthetic workloads have generator configs");
                    config
                        .validate()
                        .map_err(|e| CampaignError::InvalidSpec(format!("utilisation {u}: {e}")))?;
                }
            }
        }
        Ok(())
    }

    /// Expands the grid into its ordered scenario list: algorithm-major,
    /// then overhead, then partition heuristic, then workload point —
    /// matching report order. With the extension axes at their single
    /// default values this degenerates to the original
    /// algorithm × utilisation order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let points: Vec<Option<f64>> = match &self.workload {
            WorkloadSpec::Paper => vec![None],
            WorkloadSpec::Synthetic { .. } => self.utilizations.iter().copied().map(Some).collect(),
        };
        let overheads = self.effective_overheads();
        let heuristics = self.effective_partition_heuristics();
        let mut out = Vec::with_capacity(
            self.algorithms.len() * overheads.len() * heuristics.len() * points.len(),
        );
        for &algorithm in &self.algorithms {
            for &overhead in &overheads {
                for &partition_heuristic in &heuristics {
                    for (workload_point, &utilization) in points.iter().enumerate() {
                        let index = out.len();
                        out.push(Scenario {
                            index,
                            workload_point,
                            algorithm,
                            utilization,
                            overhead,
                            partition_heuristic,
                        });
                    }
                }
            }
        }
        out
    }

    /// Total number of trials the campaign will run.
    pub fn trial_count(&self) -> usize {
        self.scenarios().len() * self.trials_per_scenario
    }

    /// The period-region sweep configuration for one problem, with the
    /// spec's overrides applied.
    pub fn region_config(&self, problem: &DesignProblem) -> RegionConfig {
        let mut region = RegionConfig::for_problem(problem);
        if let Some(samples) = self.region_samples {
            region.samples = samples;
        }
        if let Some(refine) = self.region_refine_iterations {
            region.refine_iterations = refine;
        }
        region
    }
}

/// One point of the expanded scenario grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Position in the expanded grid (stable across runs of one spec).
    pub index: usize,
    /// Position along the workload axis only. Per-trial seeds derive from
    /// *this* coordinate, not `index`, so scenarios that differ only in
    /// algorithm, overhead or partition heuristic draw identical
    /// workloads — comparisons along every non-workload axis are paired,
    /// the stronger experimental design (and the one the EDF ⊇ RM
    /// dominance property is stated for).
    pub workload_point: usize,
    /// Local scheduling algorithm.
    pub algorithm: Algorithm,
    /// Target total utilisation (`None` for the paper workload).
    pub utilization: Option<f64>,
    /// Total mode-switch overhead `O_tot` of this grid point.
    pub overhead: f64,
    /// Partitioning heuristic of this grid point.
    pub partition_heuristic: PartitionHeuristic,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_spec() -> CampaignSpec {
        CampaignSpec {
            algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
            utilizations: vec![0.5, 1.0, 1.5],
            trials_per_scenario: 7,
            ..CampaignSpec::base("test")
        }
    }

    #[test]
    fn grid_expansion_is_algorithm_major_and_stable() {
        let scenarios = sweep_spec().scenarios();
        assert_eq!(scenarios.len(), 6);
        assert_eq!(scenarios[0].algorithm, Algorithm::EarliestDeadlineFirst);
        assert_eq!(scenarios[0].utilization, Some(0.5));
        assert_eq!(scenarios[2].utilization, Some(1.5));
        assert_eq!(scenarios[3].algorithm, Algorithm::RateMonotonic);
        assert!(scenarios.iter().enumerate().all(|(i, s)| s.index == i));
        // Single-valued extension axes collapse onto the fallbacks.
        assert!(scenarios.iter().all(|s| s.overhead == 0.05));
        assert!(scenarios
            .iter()
            .all(|s| s.partition_heuristic == PartitionHeuristic::WorstFitDecreasing));
        // The workload axis repeats per algorithm: paired comparisons.
        assert_eq!(scenarios[0].workload_point, scenarios[3].workload_point);
        assert_eq!(scenarios[2].workload_point, scenarios[5].workload_point);
        assert_ne!(scenarios[0].workload_point, scenarios[1].workload_point);
        assert_eq!(sweep_spec().trial_count(), 42);
    }

    #[test]
    fn widened_axes_cross_the_full_grid() {
        let spec = CampaignSpec {
            overheads: vec![0.02, 0.05],
            partition_heuristics: vec![
                PartitionHeuristic::FirstFitDecreasing,
                PartitionHeuristic::WorstFitDecreasing,
            ],
            ..sweep_spec()
        };
        spec.validate().unwrap();
        let scenarios = spec.scenarios();
        // 2 algorithms x 2 overheads x 2 heuristics x 3 utilisations.
        assert_eq!(scenarios.len(), 24);
        assert_eq!(spec.trial_count(), 24 * 7);
        assert!(scenarios.iter().enumerate().all(|(i, s)| s.index == i));
        // Order: algorithm-major, then overhead, then heuristic, then
        // workload point.
        assert_eq!(scenarios[0].overhead, 0.02);
        assert_eq!(
            scenarios[0].partition_heuristic,
            PartitionHeuristic::FirstFitDecreasing
        );
        assert_eq!(
            scenarios[3].partition_heuristic,
            PartitionHeuristic::WorstFitDecreasing
        );
        assert_eq!(scenarios[6].overhead, 0.05);
        assert_eq!(scenarios[12].algorithm, Algorithm::RateMonotonic);
        // Every scenario of one workload point shares that coordinate:
        // trials stay paired across ALL non-workload axes.
        for s in &scenarios {
            assert_eq!(s.workload_point, s.index % 3);
            assert_eq!(s.utilization, Some([0.5, 1.0, 1.5][s.workload_point]));
        }
    }

    #[test]
    fn paper_workload_is_a_single_point_per_algorithm() {
        let spec = CampaignSpec {
            workload: WorkloadSpec::Paper,
            utilizations: vec![],
            ..sweep_spec()
        };
        spec.validate().unwrap();
        assert_eq!(spec.scenarios().len(), 2);
        assert_eq!(spec.scenarios()[0].utilization, None);
    }

    #[test]
    fn paper_workload_can_sweep_overheads_but_not_heuristics() {
        let spec = CampaignSpec {
            workload: WorkloadSpec::Paper,
            utilizations: vec![],
            overheads: vec![0.0, 0.05, 0.1],
            ..sweep_spec()
        };
        spec.validate().unwrap();
        assert_eq!(spec.scenarios().len(), 6);
        assert_eq!(spec.scenarios()[1].overhead, 0.05);
        let bad = CampaignSpec {
            partition_heuristics: vec![PartitionHeuristic::FirstFitDecreasing],
            ..spec
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn region_samples_below_two_are_rejected_by_name() {
        for samples in [0, 1] {
            let err = CampaignSpec {
                region_samples: Some(samples),
                ..sweep_spec()
            }
            .validate()
            .unwrap_err();
            assert!(
                matches!(&err, CampaignError::InvalidSpec(reason) if reason.contains("region_samples")),
                "{err:?}"
            );
        }
        CampaignSpec {
            region_samples: Some(2),
            ..sweep_spec()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let spec = sweep_spec();
        spec.validate().unwrap();
        assert!(CampaignSpec {
            trials_per_scenario: 0,
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            algorithms: vec![],
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            utilizations: vec![],
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            total_overhead: -0.1,
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            overheads: vec![0.05, f64::NAN],
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            response_histogram: Some(ResponseHistogramSpec {
                bin_width: 0.0,
                bins: 10
            }),
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            response_histogram: Some(ResponseHistogramSpec {
                bin_width: 0.5,
                bins: 0
            }),
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            response_histogram: Some(ResponseHistogramSpec {
                bin_width: 0.5,
                bins: ResponseHistogramSpec::MAX_BINS + 1
            }),
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            horizon_hyperperiods: 0,
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            wcet_margin: Some(WcetMarginSpec { tolerance: 0.0 }),
            kind: TrialKind::DesignAndValidate,
            ..spec.clone()
        }
        .validate()
        .is_err());
        // The margin metric needs a chosen design, i.e. DesignAndValidate.
        assert!(CampaignSpec {
            wcet_margin: Some(WcetMarginSpec { tolerance: 0.01 }),
            kind: TrialKind::DesignOnly,
            ..spec.clone()
        }
        .validate()
        .is_err());
        CampaignSpec {
            wcet_margin: Some(WcetMarginSpec { tolerance: 0.01 }),
            kind: TrialKind::DesignAndValidate,
            ..spec.clone()
        }
        .validate()
        .unwrap();
        for bad_latency in [
            LatencyCurveSpec {
                bin_width: 0.0,
                bins: 64,
            },
            LatencyCurveSpec {
                bin_width: f64::NAN,
                bins: 64,
            },
            LatencyCurveSpec {
                bin_width: 0.05,
                bins: 0,
            },
            LatencyCurveSpec {
                bin_width: 0.05,
                bins: ResponseHistogramSpec::MAX_BINS + 1,
            },
        ] {
            assert!(CampaignSpec {
                latency_curves: Some(bad_latency),
                kind: TrialKind::DesignAndValidate,
                ..spec.clone()
            }
            .validate()
            .is_err());
        }
        // The latency metric needs simulated response times, i.e.
        // DesignAndValidate.
        assert!(CampaignSpec {
            latency_curves: Some(LatencyCurveSpec {
                bin_width: 0.05,
                bins: 64
            }),
            kind: TrialKind::DesignOnly,
            ..spec.clone()
        }
        .validate()
        .is_err());
        CampaignSpec {
            latency_curves: Some(LatencyCurveSpec {
                bin_width: 0.05,
                bins: 64,
            }),
            kind: TrialKind::DesignAndValidate,
            ..spec.clone()
        }
        .validate()
        .unwrap();
        assert!(CampaignSpec {
            faults: FaultModel::Poisson {
                mean_interarrival: 0.0,
                fault_duration: 1.0
            },
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            workload: WorkloadSpec::Paper,
            // utilisation axis left non-empty: invalid for Paper
            ..spec.clone()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            utilizations: vec![-1.0],
            ..spec
        }
        .validate()
        .is_err());
    }

    #[test]
    fn spec_serde_round_trip() {
        let spec = CampaignSpec {
            workload: WorkloadSpec::Synthetic {
                task_count: 10,
                max_task_utilization: 0.7,
                periods: PeriodDistribution::LogUniform {
                    min: 5.0,
                    max: 50.0,
                },
                mode_mix: ModeMix::uniform(),
                period_granularity: Some(2.5),
            },
            faults: FaultModel::Poisson {
                mean_interarrival: 8.0,
                fault_duration: 0.25,
            },
            kind: TrialKind::DesignAndValidate,
            compare_baselines: true,
            region_samples: Some(300),
            overheads: vec![0.01, 0.05],
            partition_heuristics: vec![
                PartitionHeuristic::BestFitDecreasing,
                PartitionHeuristic::WorstFitDecreasing,
            ],
            response_histogram: Some(ResponseHistogramSpec {
                bin_width: 0.25,
                bins: 64,
            }),
            wcet_margin: Some(WcetMarginSpec { tolerance: 0.005 }),
            latency_curves: Some(LatencyCurveSpec {
                bin_width: 0.03125,
                bins: 96,
            }),
            ..sweep_spec()
        };
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn optional_spec_fields_may_be_omitted_in_json() {
        let json = serde_json::to_string(&sweep_spec()).unwrap();
        // Drop the two nullable region overrides entirely.
        let trimmed = json
            .replace("\"region_samples\":null,", "")
            .replace("\"region_refine_iterations\":null", "");
        let trimmed = trimmed.trim_end_matches(['}', ',']).to_string() + "}";
        let back: CampaignSpec = serde_json::from_str(&trimmed).unwrap();
        assert_eq!(back, sweep_spec());
    }

    #[test]
    fn default_axes_are_not_serialized() {
        // The serialised form of a spec without extension axes must not
        // mention them at all — pre-axis reports stay byte-identical.
        let json = serde_json::to_string(&sweep_spec()).unwrap();
        assert!(!json.contains("overheads"));
        assert!(!json.contains("partition_heuristics"));
        assert!(!json.contains("response_histogram"));
        assert!(!json.contains("wcet_margin"));
        assert!(!json.contains("latency_curves"));
        // And explicit axes round-trip through the same field names.
        let widened = CampaignSpec {
            overheads: vec![0.1],
            ..sweep_spec()
        };
        assert!(serde_json::to_string(&widened)
            .unwrap()
            .contains("overheads"));
    }
}

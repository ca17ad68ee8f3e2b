//! # ftsched-campaign
//!
//! A parallel, deterministic experiment-campaign engine for the `ftsched`
//! workspace.
//!
//! The paper evaluates one hand-built task set (Table 1) and one design
//! sweep (Figure 4). The extension experiments need much more: thousands
//! of generate → partition → design → simulate pipelines swept over
//! utilisations, algorithms and fault models. This crate turns those
//! one-off experiment scripts into a subsystem:
//!
//! * [`spec`] — a declarative, serialisable [`CampaignSpec`] describing a
//!   scenario grid (workload × algorithm × utilisation, optionally
//!   crossed with mode-switch overheads and partition heuristics) plus
//!   the design goal, slack policy, fault model and horizon of every
//!   trial. A JSON spec file *is* the experiment.
//! * [`seed`] — per-trial seeds derived from the master seed by a frozen
//!   SplitMix64 mix of the trial's *workload* coordinates, so every
//!   non-workload axis is paired; any report line can be re-run in
//!   isolation.
//! * [`trial`] — the per-trial kernel over
//!   [`ftsched_core::design_and_validate`] (or the cheaper
//!   feasible-region check), with optional baseline-scheme comparison
//!   and per-task response-time histograms.
//! * [`cache`] — deterministic-stage memo tables: the paper workload's
//!   design stage per `(workload, algorithm, overhead)` key, and the
//!   synthetic workloads' generation + partitioning stages (keyed on the
//!   generated task set's content hash), all with byte-identical
//!   reports.
//! * [`stats`] — mergeable streaming accumulators, including exact
//!   fixed-bin [`ResponseHistogram`]s and deadline-relative
//!   [`LatencyCurve`] points (the latency-vs-load metric); workers never
//!   keep raw trial lists, so memory stays flat at any campaign size.
//! * [`executor`] — a scoped-thread fan-out with dynamic scheduling but
//!   *static* aggregation order, making every report a pure function of
//!   its spec: **byte-identical output for any worker count**. The same
//!   mechanism shards across processes/hosts via [`run_campaign_shard`].
//! * [`report`] — JSON / CSV / table renderings that echo the spec for
//!   reproducibility, and [`merge_reports`], which folds shard partials
//!   into a report byte-identical to the unsharded run.
//! * [`metrics`] — the `--metrics-json` side channel: deterministic
//!   event counters (byte-identical at any worker count, additive
//!   across shards) strictly separated from machine-dependent timings.
//!   Reports never embed metrics, so collecting them cannot perturb a
//!   campaign's bytes.
//! * [`checkpoint`] — atomic, integrity-checked per-shard checkpoints
//!   (partial report + deterministic counters) so an interrupted
//!   campaign resumes losslessly.
//! * [`columnar`] — the compact columnar report encoding: a streaming
//!   writer/reader with the checkpoint integrity-footer pattern, a
//!   block-wise streaming shard merge ([`merge_columnar`]) and the
//!   [`ReportFormat`] axis behind `ftsched convert` — decode∘encode is
//!   the identity, so JSON → columnar → JSON is byte-exact.
//! * [`orchestrator`] — the fault-tolerant shard driver behind
//!   `ftsched orchestrate`: a [`WorkerBackend`] pool with per-shard
//!   timeouts, deterministic retry/backoff, checkpoint adoption on
//!   restart, and `--allow-partial` graceful degradation.
//!
//! ```
//! use ftsched_campaign::prelude::*;
//!
//! let spec = CampaignSpec {
//!     utilizations: vec![0.8, 1.6],
//!     trials_per_scenario: 8,
//!     ..CampaignSpec::base("doc-example")
//! };
//! let report = run_campaign(&spec, &ExecutorConfig::default()).unwrap();
//! assert_eq!(report.total_trials(), 16);
//! // Light workloads are (almost) always feasible.
//! assert!(report.scenarios[0].stats.acceptance_ratio() > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod checkpoint;
pub mod columnar;
pub mod executor;
pub mod metrics;
pub mod orchestrator;
pub mod report;
pub mod seed;
pub mod spec;
pub mod stats;
pub mod trial;

use std::fmt;

pub use checkpoint::{
    load_checkpoint, write_checkpoint, write_checkpoint_in, Checkpoint, CheckpointError,
};
pub use columnar::{merge_columnar, ColumnarError, ColumnarReader, ColumnarWriter, ReportFormat};
pub use executor::{run_campaign, run_campaign_shard, ExecutorConfig};
pub use metrics::{
    run_campaign_recorded, CacheSnapshot, RunCounters, RunMetrics, RunTimings, StageSpan,
};
pub use orchestrator::{
    orchestrate, InProcessBackend, LocalProcessBackend, OrchestratorConfig, OrchestratorEvent,
    OrchestratorMetrics, OrchestratorOutcome, OrchestratorStats, ShardLaunch, WorkerBackend,
    WorkerFailure,
};
pub use report::{
    merge_reports, merge_reports_partial, CampaignReport, LatencyCurvePoint, MergeFold,
    ScenarioReport, ShardInfo,
};
pub use spec::{
    CampaignSpec, LatencyCurveSpec, ResponseHistogramSpec, Scenario, TrialKind, WcetMarginSpec,
    WorkloadSpec,
};
pub use stats::{
    BaselineCounts, ExactSum, LatencyCurve, ResponseHistogram, ScenarioStats, SimAggregate,
    TaskResponse, WcetMarginStats,
};
pub use trial::{
    run_trial, run_trial_full, run_trial_traced, SimSummary, TrialOutcome, TrialStatus,
};

/// Campaign-level errors. Per-trial failures (generation, partitioning,
/// design rejection) are not errors — they are counted outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec fails validation; the string explains why.
    InvalidSpec(String),
    /// Shard reports cannot be merged; the string explains why.
    InvalidMerge(String),
    /// The orchestrator could not complete the campaign (shards failed
    /// permanently and `--allow-partial` was off, or checkpoint /
    /// worker I/O failed unrecoverably); the string explains why.
    Orchestration(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidSpec(reason) => write!(f, "invalid campaign spec: {reason}"),
            CampaignError::InvalidMerge(reason) => {
                write!(f, "cannot merge shard reports: {reason}")
            }
            CampaignError::Orchestration(reason) => {
                write!(f, "orchestration failed: {reason}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// The most commonly used items, re-exported — including the spec
/// vocabulary from the lower layers (algorithms, goals, policies, fault
/// models) so spec-building code needs only this one import.
pub mod prelude {
    pub use crate::checkpoint::{load_checkpoint, write_checkpoint, Checkpoint, CheckpointError};
    pub use crate::columnar::{merge_columnar, ColumnarError, ReportFormat};
    pub use crate::executor::{run_campaign, run_campaign_shard, ExecutorConfig};
    pub use crate::metrics::{run_campaign_recorded, RunCounters, RunMetrics, RunTimings};
    pub use crate::orchestrator::{
        orchestrate, OrchestratorConfig, OrchestratorEvent, OrchestratorOutcome, WorkerBackend,
    };
    pub use crate::report::{
        merge_reports, merge_reports_partial, CampaignReport, LatencyCurvePoint, ScenarioReport,
        ShardInfo,
    };
    pub use crate::seed::trial_seed;
    pub use crate::spec::{
        CampaignSpec, LatencyCurveSpec, ResponseHistogramSpec, Scenario, TrialKind, WcetMarginSpec,
        WorkloadSpec,
    };
    pub use crate::stats::{LatencyCurve, ResponseHistogram, ScenarioStats, WcetMarginStats};
    pub use crate::trial::{
        run_trial, run_trial_full, run_trial_traced, TrialOutcome, TrialStatus,
    };
    pub use crate::CampaignError;

    pub use ftsched_analysis::Algorithm;
    pub use ftsched_design::partitioner::PartitionHeuristic;
    pub use ftsched_design::quanta::SlackPolicy;
    pub use ftsched_design::DesignGoal;
    pub use ftsched_platform::FaultModel;
    pub use ftsched_task::generator::{ModeMix, PeriodDistribution};
}

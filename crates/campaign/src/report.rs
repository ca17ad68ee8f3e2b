//! Campaign reports: JSON, CSV and human-readable renderings, plus the
//! shard-merge fold.
//!
//! A [`CampaignReport`] is a pure function of its spec (the executor
//! guarantees this); it echoes the spec so a report file alone is enough
//! to reproduce, extend or audit the experiment. Reports produced by
//! [`crate::run_campaign_shard`] are *partial*: they carry their
//! [`ShardInfo`] and cover only the scenarios their trial slice touched;
//! [`merge_reports`] folds a complete set of partials back into a report
//! byte-identical to the unsharded run.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use ftsched_analysis::Algorithm;
use ftsched_design::partitioner::PartitionHeuristic;
use ftsched_task::Mode;

use crate::spec::{CampaignSpec, Scenario, TrialKind};
use crate::stats::{LatencyCurve, ScenarioStats};
use crate::CampaignError;

/// Coordinates of one campaign shard: slice `index` of `count` contiguous,
/// near-equal slices of the global trial index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// Which slice this shard executes (`0 <= index < count`).
    pub index: usize,
    /// Total number of shards the campaign is split into.
    pub count: usize,
}

impl ShardInfo {
    /// Parses the CLI syntax `i/N` (e.g. `0/3`), requiring `i < N`.
    pub fn parse(text: &str) -> Option<ShardInfo> {
        ShardInfo::parse_detailed(text).ok()
    }

    /// [`ShardInfo::parse`] with a one-line reason for every rejection:
    /// malformed syntax, non-numeric parts, a zero shard count or an
    /// out-of-range index each name the exact problem, so the CLI can
    /// reject bad `--shard` values at argument-parse time with a usable
    /// message.
    pub fn parse_detailed(text: &str) -> Result<ShardInfo, String> {
        let Some((index, count)) = text.split_once('/') else {
            return Err(format!("expected I/N (e.g. 0/4), got `{text}`"));
        };
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("shard index `{}` is not a number", index.trim()))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("shard count `{}` is not a number", count.trim()))?;
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} is out of range for {count} shards (indices are 0-based)"
            ));
        }
        Ok(ShardInfo { index, count })
    }

    /// The half-open range `[lo, hi)` of the global trial index space
    /// this shard executes: the `index`-th of `count` contiguous,
    /// near-equal slices of `total` trials. A pure function of the
    /// coordinates — the executor, the merge validation and the
    /// orchestrator's missing-range reporting all share it.
    pub fn slice(&self, total: usize) -> (usize, usize) {
        (
            self.index * total / self.count,
            (self.index + 1) * total / self.count,
        )
    }
}

impl std::fmt::Display for ShardInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Aggregated results for one scenario grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Grid index (matches [`CampaignSpec::scenarios`] order).
    pub scenario: usize,
    /// Local scheduling algorithm of the point.
    pub algorithm: Algorithm,
    /// Target utilisation of the point (`None` for the paper workload).
    pub utilization: Option<f64>,
    /// Total overhead of the point — `Some` only when the spec sweeps
    /// the `overheads` axis explicitly (keeps pre-axis reports
    /// byte-identical).
    pub overhead: Option<f64>,
    /// Partition heuristic of the point — `Some` only when the spec
    /// sweeps the `partition_heuristics` axis explicitly.
    pub partition_heuristic: Option<PartitionHeuristic>,
    /// The merged trial statistics.
    pub stats: ScenarioStats,
}

impl ScenarioReport {
    /// Builds the report row for one scenario: the executor and the
    /// shard merge both go through here, so rows are constructed
    /// identically everywhere (a precondition of byte-identical merges).
    pub fn for_scenario(spec: &CampaignSpec, scenario: &Scenario, stats: ScenarioStats) -> Self {
        ScenarioReport {
            scenario: scenario.index,
            algorithm: scenario.algorithm,
            utilization: scenario.utilization,
            overhead: spec.has_overhead_axis().then_some(scenario.overhead),
            partition_heuristic: spec
                .has_heuristic_axis()
                .then_some(scenario.partition_heuristic),
            stats,
        }
    }
}

// Hand-written serialisation: the two axis columns appear only when
// their axis is explicit, so reports of pre-axis specs do not change by
// a byte. Field order otherwise matches the old derive output.
impl Serialize for ScenarioReport {
    fn serialize(&self, out: &mut serde::Writer) {
        out.begin_map();
        out.field("scenario", &self.scenario);
        out.field("algorithm", &self.algorithm);
        out.field("utilization", &self.utilization);
        if let Some(overhead) = &self.overhead {
            out.field("overhead", overhead);
        }
        if let Some(heuristic) = &self.partition_heuristic {
            out.field("partition_heuristic", heuristic);
        }
        out.field("stats", &self.stats);
        out.end_map();
    }
}

impl Deserialize for ScenarioReport {
    fn from_value(v: &serde::Value<'_>) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a map for `ScenarioReport`"))?;
        let field = |name: &str| {
            serde::get_field(m, name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in `ScenarioReport`"))
            })
        };
        Ok(ScenarioReport {
            scenario: Deserialize::from_value(field("scenario")?)?,
            algorithm: Deserialize::from_value(field("algorithm")?)?,
            utilization: Deserialize::from_value(field("utilization")?)?,
            overhead: match serde::get_field(m, "overhead") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
            partition_heuristic: match serde::get_field(m, "partition_heuristic") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
            stats: Deserialize::from_value(field("stats")?)?,
        })
    }
}

/// One point of the report's pooled latency-vs-load curve: everything the
/// campaign observed at one utilisation (workload point), merged across
/// the algorithm / overhead / heuristic axes. Quantiles are
/// deadline-relative (`1.0` = finished exactly at the deadline); a
/// quantile whose rank falls into the overflow bin is infinite, and a
/// point with no samples has NaN quantiles — both serialise as JSON
/// `null`, so "no data" can never be mistaken for "zero latency".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurvePoint {
    /// Target utilisation of the workload point (`None` for the paper
    /// workload).
    pub utilization: Option<f64>,
    /// Completed-job observations pooled into the point.
    pub samples: u64,
    /// Median deadline-relative latency.
    pub lat_p50: f64,
    /// 95th-percentile deadline-relative latency.
    pub lat_p95: f64,
    /// 99th-percentile deadline-relative latency.
    pub lat_p99: f64,
}

/// The complete result of one campaign run (or one shard of it).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The spec that produced this report, echoed verbatim.
    pub spec: CampaignSpec,
    /// Per-scenario results, in grid order. Partial (shard) reports list
    /// only the scenarios their trial slice touched.
    pub scenarios: Vec<ScenarioReport>,
    /// `Some` for partial reports produced by
    /// [`crate::run_campaign_shard`]; `None` for complete reports.
    pub shard: Option<ShardInfo>,
    /// Shards absent from an `--allow-partial` merge
    /// ([`merge_reports_partial`]): the campaign degraded gracefully
    /// instead of failing, and this field records exactly which slices of
    /// the trial space are missing. Empty for complete reports and for
    /// strict merges (and then absent from the JSON, so pre-existing
    /// reports are byte-identical).
    pub missing_shards: Vec<ShardInfo>,
}

// Hand-written serialisation: the shard marker appears only on partial
// reports (complete reports stay byte-identical to the pre-shard
// engine's output), and the pooled latency curve appears only when the
// spec enables the metric. The curve is *derived* from the per-scenario
// statistics at serialisation time — deserialisation recomputes it — so
// shard-merged reports reproduce it byte-identically for free.
impl Serialize for CampaignReport {
    fn serialize(&self, out: &mut serde::Writer) {
        out.begin_map();
        out.field("spec", &self.spec);
        out.field("scenarios", &self.scenarios);
        if let Some(points) = self.pooled_latency_curve() {
            out.field("latency_curve", &points);
        }
        if let Some(shard) = &self.shard {
            out.field("shard", shard);
        }
        if !self.missing_shards.is_empty() {
            out.field("missing_shards", &self.missing_shards);
        }
        out.end_map();
    }
}

impl Deserialize for CampaignReport {
    fn from_value(v: &serde::Value<'_>) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a map for `CampaignReport`"))?;
        let field = |name: &str| {
            serde::get_field(m, name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in `CampaignReport`"))
            })
        };
        Ok(CampaignReport {
            spec: Deserialize::from_value(field("spec")?)?,
            scenarios: Deserialize::from_value(field("scenarios")?)?,
            shard: match serde::get_field(m, "shard") {
                Some(v) => Some(Deserialize::from_value(v)?),
                None => None,
            },
            missing_shards: match serde::get_field(m, "missing_shards") {
                Some(v) => Deserialize::from_value(v)?,
                None => Vec::new(),
            },
        })
    }
}

impl CampaignReport {
    /// Assembles a complete report (used by the executor).
    pub fn new(spec: CampaignSpec, scenarios: Vec<ScenarioReport>) -> Self {
        CampaignReport {
            spec,
            scenarios,
            shard: None,
            missing_shards: Vec::new(),
        }
    }

    /// Total trials across all scenarios.
    pub fn total_trials(&self) -> u64 {
        self.scenarios.iter().map(|s| s.stats.trials).sum()
    }

    /// True when this report covers the whole grid (not a shard, and not
    /// an `--allow-partial` merge with missing shards).
    pub fn is_complete(&self) -> bool {
        self.shard.is_none() && self.missing_shards.is_empty()
    }

    /// Pretty JSON rendering of the full report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign reports always serialise")
    }

    /// CSV rendering: a header plus one row per scenario, stable column
    /// order, suitable for plotting scripts. The `overhead`, `heuristic`
    /// and `rt_p*` percentile columns appear only when the spec enables
    /// the corresponding axis/histograms, so pre-axis CSVs are unchanged.
    pub fn to_csv(&self) -> String {
        let has_overhead = self.spec.has_overhead_axis();
        let has_heuristic = self.spec.has_heuristic_axis();
        let has_response = self.spec.response_histogram.is_some();
        let has_margin = self.spec.wcet_margin.is_some();
        let has_latency = self.spec.latency_curves.is_some();
        let mut out = String::from("scenario,algorithm,utilization");
        if has_overhead {
            out.push_str(",overhead");
        }
        if has_heuristic {
            out.push_str(",heuristic");
        }
        out.push_str(
            ",trials,sampled,accepted,acceptance_ratio,\
             generation_failures,partition_failures,design_rejected,simulation_failures,\
             sim_runs,released_jobs,completed_jobs,deadline_misses,injected_faults,\
             effective_faults,masked_jobs,silenced_jobs,corrupted_jobs,mean_period,\
             mean_slack_bandwidth,max_response_time,",
        );
        if has_response {
            out.push_str("rt_p50,rt_p95,rt_p99,");
        }
        if has_margin {
            out.push_str("wcet_margin_mean,wcet_margin_p50,");
        }
        if has_latency {
            out.push_str("lat_p50,lat_p95,lat_p99,");
        }
        out.push_str(
            "baseline_evaluated,baseline_flexible,\
             baseline_lockstep,baseline_parallel,baseline_primary_backup\n",
        );
        for s in &self.scenarios {
            let st = &s.stats;
            let totals = st.sim.total_outcomes();
            let _ = write!(
                out,
                "{},{},{}",
                s.scenario,
                s.algorithm.label(),
                s.utilization.map(|u| u.to_string()).unwrap_or_default(),
            );
            if has_overhead {
                let _ = write!(
                    out,
                    ",{}",
                    s.overhead.map(|o| o.to_string()).unwrap_or_default()
                );
            }
            if has_heuristic {
                let _ = write!(
                    out,
                    ",{}",
                    s.partition_heuristic
                        .map(|h| h.label().to_string())
                        .unwrap_or_default()
                );
            }
            let _ = write!(
                out,
                ",{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},",
                st.trials,
                st.sampled(),
                st.accepted,
                st.acceptance_ratio(),
                st.generation_failures,
                st.partition_failures,
                st.design_rejected,
                st.simulation_failures,
                st.sim.runs,
                st.sim.released_jobs,
                st.sim.completed_jobs,
                st.sim.deadline_misses,
                st.sim.injected_faults,
                st.sim.effective_faults,
                totals.correct_masked,
                totals.silenced_lost,
                totals.wrong_result,
                st.sim.mean_period(),
                st.sim.mean_slack_bandwidth(),
                st.sim.max_response_time,
            );
            if has_response {
                match st.sim.pooled_response() {
                    Some(pooled) => {
                        let _ = write!(
                            out,
                            "{},{},{},",
                            pooled.quantile(0.50),
                            pooled.quantile(0.95),
                            pooled.quantile(0.99),
                        );
                    }
                    None => out.push_str(",,,"),
                }
            }
            if has_margin {
                let margin = &st.sim.wcet_margin;
                if margin.runs > 0 {
                    let _ = write!(out, "{},{},", margin.mean(), margin.p50());
                } else {
                    out.push_str(",,");
                }
            }
            if has_latency {
                match &st.sim.latency {
                    Some(curve) => {
                        let _ = write!(out, "{},{},{},", curve.p50(), curve.p95(), curve.p99());
                    }
                    None => out.push_str(",,,"),
                }
            }
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                st.baselines.evaluated,
                st.baselines.flexible,
                st.baselines.static_lockstep,
                st.baselines.static_parallel,
                st.baselines.primary_backup,
            );
        }
        out
    }

    /// Per-task response-time percentile CSV (`None` when the spec did
    /// not request histograms): one row per `(scenario, task)` with
    /// p50/p95/p99 and the exact observation counts behind them.
    pub fn response_csv(&self) -> Option<String> {
        self.spec.response_histogram?;
        let has_overhead = self.spec.has_overhead_axis();
        let has_heuristic = self.spec.has_heuristic_axis();
        let mut out = String::from("scenario,algorithm,utilization");
        if has_overhead {
            out.push_str(",overhead");
        }
        if has_heuristic {
            out.push_str(",heuristic");
        }
        out.push_str(",task,completed,rt_p50,rt_p95,rt_p99,overflow\n");
        for s in &self.scenarios {
            for response in &s.stats.sim.response {
                let _ = write!(
                    out,
                    "{},{},{}",
                    s.scenario,
                    s.algorithm.label(),
                    s.utilization.map(|u| u.to_string()).unwrap_or_default(),
                );
                if has_overhead {
                    let _ = write!(
                        out,
                        ",{}",
                        s.overhead.map(|o| o.to_string()).unwrap_or_default()
                    );
                }
                if has_heuristic {
                    let _ = write!(
                        out,
                        ",{}",
                        s.partition_heuristic
                            .map(|h| h.label().to_string())
                            .unwrap_or_default()
                    );
                }
                let h = &response.histogram;
                let _ = writeln!(
                    out,
                    ",{},{},{},{},{},{}",
                    response.task.0,
                    h.total(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.overflow,
                );
            }
        }
        Some(out)
    }

    /// Long-format latency-vs-load CSV (`None` when the spec did not
    /// request `latency_curves`): one row per scenario — i.e. one curve
    /// point per (algorithm, overhead, heuristic) combination and
    /// utilisation — with the pooled sample count, the deadline-relative
    /// `lat_p50/p95/p99` quantiles and the overflow count. Scenarios
    /// without an accepted trial have no curve point and emit no row,
    /// exactly like [`Self::response_csv`].
    pub fn latency_csv(&self) -> Option<String> {
        self.spec.latency_curves?;
        let has_overhead = self.spec.has_overhead_axis();
        let has_heuristic = self.spec.has_heuristic_axis();
        let mut out = String::from("scenario,algorithm,utilization");
        if has_overhead {
            out.push_str(",overhead");
        }
        if has_heuristic {
            out.push_str(",heuristic");
        }
        out.push_str(",samples,lat_p50,lat_p95,lat_p99,overflow\n");
        for s in &self.scenarios {
            let Some(curve) = &s.stats.sim.latency else {
                continue;
            };
            let _ = write!(
                out,
                "{},{},{}",
                s.scenario,
                s.algorithm.label(),
                s.utilization.map(|u| u.to_string()).unwrap_or_default(),
            );
            if has_overhead {
                let _ = write!(
                    out,
                    ",{}",
                    s.overhead.map(|o| o.to_string()).unwrap_or_default()
                );
            }
            if has_heuristic {
                let _ = write!(
                    out,
                    ",{}",
                    s.partition_heuristic
                        .map(|h| h.label().to_string())
                        .unwrap_or_default()
                );
            }
            let _ = writeln!(
                out,
                ",{},{},{},{},{}",
                curve.samples(),
                curve.p50(),
                curve.p95(),
                curve.p99(),
                curve.histogram.overflow,
            );
        }
        Some(out)
    }

    /// The pooled latency-vs-load curve (`None` when the spec did not
    /// request `latency_curves`): per workload point — in grid order —
    /// the exact merge of every scenario's curve across the algorithm /
    /// overhead / heuristic axes. This is the campaign's one-look QoS
    /// answer; the per-combination curves live in [`Self::latency_csv`].
    /// Derived purely from the per-scenario statistics, so shard merges
    /// reproduce it byte-identically.
    pub fn pooled_latency_curve(&self) -> Option<Vec<LatencyCurvePoint>> {
        self.spec.latency_curves?;
        let grid = self.spec.scenarios();
        let points = grid.iter().map(|s| s.workload_point).max()? + 1;
        let mut utilizations: Vec<Option<f64>> = vec![None; points];
        for s in &grid {
            utilizations[s.workload_point] = s.utilization;
        }
        let mut pooled: Vec<Option<LatencyCurve>> = vec![None; points];
        for row in &self.scenarios {
            // Rows outside the grid cannot come from this spec; skip
            // rather than panic on a hand-edited report.
            let Some(scenario) = grid.get(row.scenario) else {
                continue;
            };
            crate::stats::merge_latency(
                &mut pooled[scenario.workload_point],
                row.stats.sim.latency.as_ref(),
            );
        }
        Some(
            pooled
                .iter()
                .zip(utilizations)
                .map(|(curve, utilization)| LatencyCurvePoint {
                    utilization,
                    samples: curve.as_ref().map_or(0, LatencyCurve::samples),
                    // NaN (not 0.0) for sample-less points: it
                    // serialises as JSON `null`, so "no data" can never
                    // read as "zero latency".
                    lat_p50: curve.as_ref().map_or(f64::NAN, LatencyCurve::p50),
                    lat_p95: curve.as_ref().map_or(f64::NAN, LatencyCurve::p95),
                    lat_p99: curve.as_ref().map_or(f64::NAN, LatencyCurve::p99),
                })
                .collect(),
        )
    }

    /// Human-readable summary table: one row per non-algorithm grid
    /// point (utilisation, crossed with overhead / heuristic when those
    /// axes are explicit), one acceptance column per algorithm (plus
    /// fault columns for validation campaigns). Partial (shard) reports
    /// render as a flat per-scenario listing instead.
    pub fn render_table(&self) -> String {
        let grid = self.spec.scenarios();
        if self.shard.is_some()
            || !self.missing_shards.is_empty()
            || self.scenarios.len() != grid.len()
        {
            return self.render_partial_table();
        }
        let mut out = String::new();
        let algorithms = &self.spec.algorithms;
        let has_overhead = self.spec.has_overhead_axis();
        let has_heuristic = self.spec.has_heuristic_axis();
        let validating = self.spec.kind == TrialKind::DesignAndValidate;

        let _ = write!(out, "{:>8}", "U");
        if has_overhead {
            let _ = write!(out, " {:>8}", "O_tot");
        }
        if has_heuristic {
            let _ = write!(out, " {:>6}", "part");
        }
        for alg in algorithms {
            let _ = write!(out, " {:>12}", format!("{} accept", alg.label()));
        }
        let _ = write!(out, " {:>9}", "sampled");
        if validating {
            let _ = write!(
                out,
                " {:>9} {:>9} {:>9} {:>9} {:>9}",
                "faults", "masked", "silenced", "corrupt", "misses"
            );
        }
        out.push('\n');

        // Scenario order is algorithm-major; walk the inner axes here
        // (the first algorithm's grid block carries each row's axis
        // labels — every algorithm repeats the same inner coordinates).
        let points = self.scenarios.len() / algorithms.len().max(1);
        for (p, labels) in grid.iter().take(points).enumerate() {
            let row: Vec<&ScenarioReport> = (0..algorithms.len())
                .map(|a| &self.scenarios[a * points + p])
                .collect();
            match row[0].utilization {
                Some(u) => {
                    let _ = write!(out, "{u:>8.2}");
                }
                None => {
                    let _ = write!(out, "{:>8}", "paper");
                }
            }
            if has_overhead {
                let _ = write!(out, " {:>8.3}", labels.overhead);
            }
            if has_heuristic {
                let _ = write!(out, " {:>6}", labels.partition_heuristic.label());
            }
            for s in &row {
                let _ = write!(out, " {:>11.1}%", 100.0 * s.stats.acceptance_ratio());
            }
            let _ = write!(out, " {:>9}", row[0].stats.sampled());
            if validating {
                let mut faults = 0;
                let mut masked = 0;
                let mut silenced = 0;
                let mut corrupted = 0;
                let mut misses = 0;
                for s in &row {
                    let totals = s.stats.sim.total_outcomes();
                    faults += s.stats.sim.injected_faults;
                    masked += totals.correct_masked;
                    silenced += totals.silenced_lost;
                    corrupted += totals.wrong_result;
                    misses += s.stats.sim.deadline_misses;
                }
                let _ = write!(
                    out,
                    " {faults:>9} {masked:>9} {silenced:>9} {corrupted:>9} {misses:>9}"
                );
            }
            out.push('\n');
        }
        out
    }

    /// The flat rendering used for partial (shard) reports, where the
    /// algorithm-paired row layout of [`Self::render_table`] does not
    /// apply.
    fn render_partial_table(&self) -> String {
        let mut out = String::new();
        if let Some(shard) = self.shard {
            let _ = writeln!(
                out,
                "partial report: shard {shard} of campaign `{}`",
                self.spec.name
            );
        }
        if !self.missing_shards.is_empty() {
            let total = self.spec.trial_count();
            let ranges: Vec<String> = self
                .missing_shards
                .iter()
                .map(|s| {
                    let (lo, hi) = s.slice(total);
                    format!("{s} (trials {lo}..{hi})")
                })
                .collect();
            let _ = writeln!(
                out,
                "INCOMPLETE report for campaign `{}`: missing shards {}",
                self.spec.name,
                ranges.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "{:>9} {:>6} {:>8} {:>9} {:>11}",
            "scenario", "alg", "U", "trials", "accept"
        );
        for s in &self.scenarios {
            let u = s
                .utilization
                .map(|u| format!("{u:.2}"))
                .unwrap_or_else(|| "paper".into());
            let _ = writeln!(
                out,
                "{:>9} {:>6} {:>8} {:>9} {:>10.1}%",
                s.scenario,
                s.algorithm.label(),
                u,
                s.stats.trials,
                100.0 * s.stats.acceptance_ratio()
            );
        }
        out
    }

    /// Sanity predicate used by validation campaigns: no protected-mode
    /// corruption anywhere in the report.
    pub fn integrity_preserved(&self) -> bool {
        self.scenarios.iter().all(|s| {
            s.stats.sim.outcomes[Mode::FaultTolerant].wrong_result == 0
                && s.stats.sim.outcomes[Mode::FailSilent].wrong_result == 0
        })
    }
}

/// Folds a complete set of shard reports back into the unsharded
/// campaign report — **byte-identical** to running the campaign in one
/// piece, because per-scenario statistics merge associatively and the
/// fold walks shards in index order (= global trial order).
///
/// # Errors
///
/// Returns [`CampaignError::InvalidMerge`] when the parts are not the
/// complete, consistent shard set of one campaign: mismatched specs,
/// missing/duplicate shard indices, disagreeing shard counts, unknown
/// scenario indices or a trial count that does not add up.
pub fn merge_reports(parts: Vec<CampaignReport>) -> Result<CampaignReport, CampaignError> {
    merge_impl(parts, false)
}

/// [`merge_reports`] with graceful degradation: an *incomplete* shard set
/// still folds, and every absent shard index is recorded in the result's
/// [`CampaignReport::missing_shards`] (so the report explicitly says
/// which trial ranges are missing, instead of silently passing off a
/// subset as the whole campaign). The result covers only the scenarios
/// the present shards touched and is **not** complete
/// ([`CampaignReport::is_complete`] is false) unless every shard is
/// present — in which case the output is byte-identical to
/// [`merge_reports`].
///
/// # Errors
///
/// Returns [`CampaignError::InvalidMerge`] for the inconsistencies that
/// graceful degradation cannot paper over: no parts at all, mismatched
/// specs, duplicate shard indices, disagreeing shard counts or trial
/// counts that do not add up to the present slices.
pub fn merge_reports_partial(parts: Vec<CampaignReport>) -> Result<CampaignReport, CampaignError> {
    merge_impl(parts, true)
}

/// Streaming shard-merge accumulator: the block-wise core both
/// [`merge_reports`] and the streaming paths (`ftsched merge`,
/// [`crate::columnar::merge_columnar`]) fold through, so JSON and
/// columnar merges share one set of validation rules and one reduction.
///
/// Feed it one [`MergeFold::add_header`] per shard (spec + shard
/// coordinates) and then the shard's scenario blocks via
/// [`MergeFold::add_scenario`] — in any arrival order, because
/// [`ScenarioStats::merge`] is exactly associative *and* commutative
/// (integer counters, saturating tick sums, `f64::max`, sorted-union
/// histograms), the fold is byte-identical regardless of shard order.
/// Peak memory is O(grid), never O(total report bytes): scenario blocks
/// are merged as they stream in and dropped.
#[derive(Debug, Default)]
pub struct MergeFold {
    spec: Option<CampaignSpec>,
    grid: Vec<Scenario>,
    count: usize,
    seen: Vec<bool>,
    parts: usize,
    stats: Vec<ScenarioStats>,
}

impl MergeFold {
    /// An empty fold; the first [`MergeFold::add_header`] fixes the spec
    /// and shard count.
    pub fn new() -> MergeFold {
        MergeFold::default()
    }

    /// Opens one shard: validates its spec and shard coordinates against
    /// the fold (the first call defines them).
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidMerge`] for an invalid or mismatched
    /// spec, a complete (non-shard) report, a disagreeing shard count,
    /// an out-of-range index or a duplicate shard.
    pub fn add_header(
        &mut self,
        spec: &CampaignSpec,
        shard: Option<ShardInfo>,
    ) -> Result<(), CampaignError> {
        let fail = |reason: String| Err(CampaignError::InvalidMerge(reason));
        let Some(current) = &self.spec else {
            spec.validate()
                .map_err(|e| CampaignError::InvalidMerge(format!("echoed spec is invalid: {e}")))?;
            let Some(shard) = shard else {
                return fail(format!(
                    "report for `{}` is not a shard (already complete?)",
                    spec.name
                ));
            };
            if shard.index >= shard.count {
                return fail(format!(
                    "shard {shard} disagrees with the shard count {}",
                    shard.count
                ));
            }
            self.grid = spec.scenarios();
            self.spec = Some(spec.clone());
            self.count = shard.count;
            self.seen = vec![false; shard.count];
            self.seen[shard.index] = true;
            self.parts = 1;
            self.stats = vec![ScenarioStats::default(); self.grid.len()];
            return Ok(());
        };
        if spec != current {
            return fail("partial reports come from different campaign specs".into());
        }
        match shard {
            Some(shard) if shard.count == self.count && shard.index < self.count => {
                if std::mem::replace(&mut self.seen[shard.index], true) {
                    return fail(format!("shard {shard} appears twice"));
                }
            }
            Some(shard) => {
                return fail(format!(
                    "shard {shard} disagrees with the shard count {}",
                    self.count
                ));
            }
            None => return fail("a complete report cannot be merged with shards".into()),
        }
        self.parts += 1;
        Ok(())
    }

    /// Merges one scenario block of the most recently opened shard.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidMerge`] when the scenario index is outside
    /// the campaign grid (or no header was added yet).
    pub fn add_scenario(
        &mut self,
        index: usize,
        stats: &ScenarioStats,
    ) -> Result<(), CampaignError> {
        if self.spec.is_none() || index >= self.grid.len() {
            return Err(CampaignError::InvalidMerge(format!(
                "scenario index {index} is outside the campaign grid"
            )));
        }
        self.stats[index].merge(stats);
        Ok(())
    }

    /// [`MergeFold::add_header`] plus every scenario block of an
    /// in-memory report — the non-streaming convenience path.
    ///
    /// # Errors
    ///
    /// Any error of the two underlying steps.
    pub fn add_report(&mut self, report: &CampaignReport) -> Result<(), CampaignError> {
        self.add_header(&report.spec, report.shard)?;
        for row in &report.scenarios {
            self.add_scenario(row.scenario, &row.stats)?;
        }
        Ok(())
    }

    /// Shards folded so far.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The shard count fixed by the first header (0 before any header).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Closes the fold and assembles the merged report. With
    /// `allow_missing` an incomplete shard set degrades gracefully,
    /// recording absent indices in
    /// [`CampaignReport::missing_shards`]; otherwise every shard must be
    /// present.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidMerge`] when no shard was added, the set
    /// is incomplete (strict mode) or the merged trial totals do not
    /// match the present shards' slices of the trial space.
    pub fn finish(self, allow_missing: bool) -> Result<CampaignReport, CampaignError> {
        let fail = |reason: String| Err(CampaignError::InvalidMerge(reason));
        let Some(spec) = self.spec else {
            return fail("no partial reports to merge".into());
        };
        if !allow_missing && self.parts != self.count {
            return fail(format!(
                "campaign `{}` was split into {} shards, got {} reports",
                spec.name, self.count, self.parts
            ));
        }
        let count = self.count;
        let missing: Vec<ShardInfo> = self
            .seen
            .iter()
            .enumerate()
            .filter(|(_, present)| !**present)
            .map(|(index, _)| ShardInfo { index, count })
            .collect();
        let total = spec.trial_count();
        let expected: u64 = (0..count)
            .filter(|&i| self.seen[i])
            .map(|index| {
                let (lo, hi) = ShardInfo { index, count }.slice(total);
                (hi - lo) as u64
            })
            .sum();
        let merged_trials: u64 = self.stats.iter().map(|s| s.trials).sum();
        if merged_trials != expected {
            return fail(format!(
                "merged shards cover {merged_trials} trials, their slices of campaign `{}` hold {expected}",
                spec.name,
            ));
        }

        // A degraded merge lists only the scenarios its shards touched,
        // like any other partial report; a complete merge lists the
        // whole grid.
        let rows = self
            .grid
            .iter()
            .zip(self.stats)
            .filter(|(_, stats)| missing.is_empty() || stats.trials > 0)
            .map(|(scenario, stats)| ScenarioReport::for_scenario(&spec, scenario, stats))
            .collect();
        let mut report = CampaignReport::new(spec, rows);
        report.missing_shards = missing;
        Ok(report)
    }
}

fn merge_impl(
    parts: Vec<CampaignReport>,
    allow_missing: bool,
) -> Result<CampaignReport, CampaignError> {
    let fail = |reason: String| Err(CampaignError::InvalidMerge(reason));
    let Some(first) = parts.first() else {
        return fail("no partial reports to merge".into());
    };
    let mut fold = MergeFold::new();
    fold.add_header(&first.spec, first.shard)?;
    if parts.len() != fold.count() && (!allow_missing || parts.len() > fold.count()) {
        return fail(format!(
            "campaign `{}` was split into {} shards, got {} reports",
            first.spec.name,
            fold.count(),
            parts.len()
        ));
    }
    for part in parts.iter().skip(1) {
        fold.add_header(&part.spec, part.shard)?;
    }

    // Fold shard statistics in shard-index order for symmetry with the
    // unsharded executor's reduction order (the merge is exactly
    // commutative, so any order yields the same bytes — see MergeFold).
    let mut ordered: Vec<&CampaignReport> = parts.iter().collect();
    ordered.sort_by_key(|p| p.shard.expect("checked above").index);
    for part in ordered {
        for row in &part.scenarios {
            fold.add_scenario(row.scenario, &row.stats)?;
        }
    }
    fold.finish(allow_missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn tiny_report() -> CampaignReport {
        let spec = CampaignSpec {
            algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
            utilizations: vec![0.5, 1.5],
            trials_per_scenario: 4,
            ..CampaignSpec::base("render-test")
        };
        let scenarios = spec
            .scenarios()
            .iter()
            .map(|sc| {
                let mut stats = ScenarioStats::default();
                stats.trials = 4;
                stats.accepted = if sc.utilization == Some(0.5) { 4 } else { 1 };
                stats.design_rejected = 4 - stats.accepted;
                ScenarioReport::for_scenario(&spec, sc, stats)
            })
            .collect();
        CampaignReport::new(spec, scenarios)
    }

    #[test]
    fn json_round_trips() {
        let report = tiny_report();
        let json = report.to_json();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // Complete reports never mention sharding, and without explicit
        // axes the per-scenario overhead/heuristic columns are absent
        // (the spec's scalar `partition_heuristic` is the only mention).
        assert!(!json.contains("shard"));
        assert!(!json.contains("\"overhead\""));
        assert_eq!(json.matches("\"partition_heuristic\"").count(), 1);
    }

    #[test]
    fn csv_has_one_row_per_scenario_and_stable_header() {
        let report = tiny_report();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("scenario,algorithm,utilization,trials"));
        assert!(lines[1].starts_with("0,EDF,0.5,4,4,4,1,"));
        let header_cols = lines[0].split(',').count();
        assert!(lines[1..]
            .iter()
            .all(|l| l.split(',').count() == header_cols));
    }

    #[test]
    fn widened_axes_add_csv_columns_and_table_labels() {
        let spec = CampaignSpec {
            overheads: vec![0.02, 0.08],
            partition_heuristics: vec![
                PartitionHeuristic::FirstFitDecreasing,
                PartitionHeuristic::WorstFitDecreasing,
            ],
            ..tiny_report().spec
        };
        let scenarios: Vec<ScenarioReport> = spec
            .scenarios()
            .iter()
            .map(|sc| {
                let stats = ScenarioStats {
                    trials: 4,
                    accepted: 2,
                    design_rejected: 2,
                    ..ScenarioStats::default()
                };
                ScenarioReport::for_scenario(&spec, sc, stats)
            })
            .collect();
        assert!(scenarios.iter().all(|s| s.overhead.is_some()));
        let report = CampaignReport::new(spec, scenarios);
        let csv = report.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.starts_with("scenario,algorithm,utilization,overhead,heuristic,trials"));
        assert!(csv.lines().nth(1).unwrap().contains(",0.02,FFD,"));
        let table = report.render_table();
        assert!(table.contains("O_tot") && table.contains("part"));
        assert!(table.contains("FFD") && table.contains("WFD"));
        // 2 overheads x 2 heuristics x 2 utilisations rows + header.
        assert_eq!(table.lines().count(), 9);
        let back: CampaignReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn table_is_utilization_major_with_per_algorithm_columns() {
        let table = tiny_report().render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("EDF accept") && lines[0].contains("RM accept"));
        assert!(lines[1].trim_start().starts_with("0.50"));
        assert!(lines[1].contains("100.0%"));
        assert!(lines[2].trim_start().starts_with("1.50"));
        assert!(lines[2].contains("25.0%"));
    }

    #[test]
    fn totals_and_integrity() {
        let report = tiny_report();
        assert_eq!(report.total_trials(), 16);
        assert!(report.integrity_preserved());
        assert!(report.is_complete());
    }

    #[test]
    fn shard_info_parses_and_prints() {
        assert_eq!(
            ShardInfo::parse("0/3"),
            Some(ShardInfo { index: 0, count: 3 })
        );
        assert_eq!(ShardInfo::parse("2/3").unwrap().to_string(), "2/3");
        assert_eq!(ShardInfo::parse("3/3"), None);
        assert_eq!(ShardInfo::parse("x/3"), None);
        assert_eq!(ShardInfo::parse("3"), None);
    }

    #[test]
    fn shard_parse_detailed_names_each_rejection() {
        assert!(ShardInfo::parse_detailed("3").unwrap_err().contains("I/N"));
        assert!(ShardInfo::parse_detailed("x/3")
            .unwrap_err()
            .contains("not a number"));
        assert!(ShardInfo::parse_detailed("0/y")
            .unwrap_err()
            .contains("not a number"));
        assert!(ShardInfo::parse_detailed("0/0")
            .unwrap_err()
            .contains("at least 1"));
        assert!(ShardInfo::parse_detailed("3/3")
            .unwrap_err()
            .contains("out of range"));
        assert_eq!(
            ShardInfo::parse_detailed("1/4"),
            Ok(ShardInfo { index: 1, count: 4 })
        );
    }

    #[test]
    fn shard_slices_partition_the_trial_space() {
        for total in [0usize, 1, 7, 100] {
            for count in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for index in 0..count {
                    let (lo, hi) = ShardInfo { index, count }.slice(total);
                    assert_eq!(lo, covered, "slices must be contiguous");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, total, "slices must cover every trial");
            }
        }
    }

    #[test]
    fn partial_merge_records_missing_shards() {
        let spec = tiny_report().spec;
        let exec = crate::ExecutorConfig {
            threads: 1,
            ..crate::ExecutorConfig::default()
        };
        let full = crate::run_campaign(&spec, &exec).unwrap();
        let parts: Vec<CampaignReport> = (0..4)
            .map(|index| {
                crate::run_campaign_shard(&spec, &exec, Some(ShardInfo { index, count: 4 }))
                    .unwrap()
            })
            .collect();
        // All shards present: partial merge == strict merge, byte for byte.
        let complete = merge_reports_partial(parts.clone()).unwrap();
        assert!(complete.is_complete());
        assert_eq!(
            complete.to_json(),
            merge_reports(parts.clone()).unwrap().to_json()
        );
        assert_eq!(complete.to_json(), full.to_json());
        // Drop shard 2: the merge degrades gracefully and says so.
        let subset: Vec<CampaignReport> = parts
            .iter()
            .filter(|p| p.shard.unwrap().index != 2)
            .cloned()
            .collect();
        let degraded = merge_reports_partial(subset.clone()).unwrap();
        assert!(!degraded.is_complete());
        assert_eq!(
            degraded.missing_shards,
            vec![ShardInfo { index: 2, count: 4 }]
        );
        let json = degraded.to_json();
        assert!(json.contains("missing_shards"));
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, degraded);
        assert!(degraded.render_table().contains("missing shards 2/4"));
        // The strict merge still refuses the incomplete set.
        assert!(matches!(
            merge_reports(subset),
            Err(CampaignError::InvalidMerge(_))
        ));
    }

    #[test]
    fn partial_reports_serialize_their_shard_and_render_flat() {
        let mut report = tiny_report();
        report.shard = Some(ShardInfo { index: 1, count: 2 });
        let json = report.to_json();
        assert!(json.contains("\"shard\""));
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(!back.is_complete());
        assert!(report
            .render_table()
            .starts_with("partial report: shard 1/2"));
    }

    #[test]
    fn merge_rejects_inconsistent_shard_sets() {
        let complete = tiny_report();
        assert!(matches!(
            merge_reports(vec![complete.clone()]),
            Err(CampaignError::InvalidMerge(_))
        ));
        let mut a = complete.clone();
        a.shard = Some(ShardInfo { index: 0, count: 2 });
        // Wrong count of parts.
        assert!(merge_reports(vec![a.clone()]).is_err());
        // Duplicate shard index.
        assert!(merge_reports(vec![a.clone(), a.clone()]).is_err());
        // Mismatched specs.
        let mut b = complete.clone();
        b.shard = Some(ShardInfo { index: 1, count: 2 });
        b.spec.master_seed += 1;
        assert!(merge_reports(vec![a, b]).is_err());
        assert!(merge_reports(vec![]).is_err());
    }
}

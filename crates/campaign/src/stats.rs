//! Mergeable streaming statistics.
//!
//! Campaign workers never keep raw trial lists: each worker folds its
//! block of trials into a [`ScenarioStats`] accumulator, and the executor
//! merges block accumulators **in block order** at the end. Merging is
//! associative, and because the merge order is fixed by trial index — not
//! by scheduling — every floating-point sum is evaluated in exactly the
//! same order regardless of worker count. That is the whole mechanism
//! behind the engine's byte-identical-reports guarantee; see
//! `tests/campaign_determinism.rs` for the proof.

use serde::{Deserialize, Serialize};

use ftsched_sim::report::OutcomeCounts;
use ftsched_task::{Mode, PerMode, TaskId};

use crate::spec::{LatencyCurveSpec, ResponseHistogramSpec};
use crate::trial::{TrialOutcome, TrialStatus};

/// A deterministic fixed-bin histogram of response times.
///
/// Bins are `[i*w, (i+1)*w)` for bin width `w`; observations at or past
/// the last regular bin land in a single overflow bin. Counts are
/// integers, so [`ResponseHistogram::merge`] is **exactly** associative
/// and commutative — the property that lets sharded and multi-threaded
/// campaigns report bit-identical percentiles
/// (`tests/property_merge.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseHistogram {
    /// Width of one regular bin, in paper time units.
    pub bin_width: f64,
    /// Per-bin observation counts.
    pub counts: Vec<u64>,
    /// Observations at or beyond `counts.len() * bin_width`.
    pub overflow: u64,
}

impl ResponseHistogram {
    /// An empty histogram with the spec's binning.
    pub fn new(spec: ResponseHistogramSpec) -> Self {
        ResponseHistogram {
            bin_width: spec.bin_width,
            counts: vec![0; spec.bins],
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn observe(&mut self, value: f64) {
        let bin = (value / self.bin_width).max(0.0);
        if bin < self.counts.len() as f64 {
            self.counts[bin as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Merges another histogram (associative and commutative for
    /// histograms of the same binning — which all histograms of one
    /// campaign share by construction). A wider `counts` vector on
    /// either side is tolerated by widening, so malformed partial
    /// reports degrade instead of panicking.
    pub fn merge(&mut self, other: &ResponseHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (into, &from) in self.counts.iter_mut().zip(&other.counts) {
            *into += from;
        }
        self.overflow += other.overflow;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper edge of the bin
    /// holding the `ceil(q * total)`-th smallest observation —
    /// a deterministic, conservative (never under-reporting) estimate.
    /// Returns `0.0` for an empty histogram and `f64::INFINITY` when the
    /// rank falls into the overflow bin.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (bin, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return (bin as f64 + 1.0) * self.bin_width;
            }
        }
        f64::INFINITY
    }
}

/// One task's response-time histogram within a scenario aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskResponse {
    /// The task.
    pub task: TaskId,
    /// Its merged response-time histogram.
    pub histogram: ResponseHistogram,
}

/// Merges per-task histogram lists (both sorted by task id) in place —
/// an order-preserving union where shared tasks merge bin-wise.
pub(crate) fn merge_task_responses(into: &mut Vec<TaskResponse>, from: &[TaskResponse]) {
    for response in from {
        match into.binary_search_by_key(&response.task, |r| r.task) {
            Ok(i) => into[i].histogram.merge(&response.histogram),
            Err(i) => into.insert(i, response.clone()),
        }
    }
}

/// Order-independent accumulator for sums of small reals.
///
/// Floating-point addition is not associative, so folding trials into
/// blocks and merging block partials would let the executor's block size
/// leak into `f64` sums. `ExactSum` quantises each observation to
/// `2^-24` time units (≈ 6 × 10⁻⁸, far below reporting precision) and
/// sums the resulting integer ticks, where addition **is** exactly
/// associative and commutative. Saturating arithmetic bounds the domain
/// at ±5.5 × 10¹¹ — billions of trials of any realistic magnitude.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactSum {
    ticks: i64,
}

impl ExactSum {
    const SCALE: f64 = (1u64 << 24) as f64;

    /// Adds one observation.
    pub fn observe(&mut self, value: f64) {
        let ticks = (value * Self::SCALE).round();
        // Saturate rather than wrap on absurd magnitudes (±5.5e11).
        let ticks = if ticks >= i64::MAX as f64 {
            i64::MAX
        } else if ticks <= i64::MIN as f64 {
            i64::MIN
        } else {
            ticks as i64
        };
        self.ticks = self.ticks.saturating_add(ticks);
    }

    /// Merges another accumulator (associative and commutative).
    pub fn merge(&mut self, other: &ExactSum) {
        self.ticks = self.ticks.saturating_add(other.ticks);
    }

    /// The raw quantised tick count — the exact internal state, for
    /// binary encodings that must round-trip the accumulator losslessly
    /// (see [`crate::columnar`]).
    pub fn ticks(&self) -> i64 {
        self.ticks
    }

    /// Rebuilds an accumulator from raw ticks (the exact inverse of
    /// [`ExactSum::ticks`]).
    pub fn from_ticks(ticks: i64) -> ExactSum {
        ExactSum { ticks }
    }

    /// The accumulated sum.
    pub fn value(&self) -> f64 {
        self.ticks as f64 / Self::SCALE
    }
}

/// Aggregated WCET-scaling margins of accepted validation trials (the
/// [`crate::CampaignSpec::wcet_margin`] metric).
///
/// The mean comes from an [`ExactSum`]; the median from a fixed-bin
/// integer-count histogram over the margin domain `[0, 64]` (the
/// sensitivity search's growth cap) with a hard-coded bin width — both
/// exactly associative and commutative, so sharded and multi-threaded
/// campaigns report bit-identical margin columns. The histogram is
/// allocated lazily on the first observation and sized to the largest
/// observed bin (typical margins are a handful, so a few hundred bins —
/// not the full 16k-bin domain), keeping margin-free campaigns
/// allocation- and byte-identical to the pre-metric engine and
/// margin-enabled reports compact. The length is a pure function of the
/// observation multiset (and merging takes the wider side), so the
/// byte-identity guarantees are unaffected.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WcetMarginStats {
    /// Trials with a margin recorded (accepted `DesignAndValidate`
    /// trials of a campaign with the metric enabled).
    pub runs: u64,
    /// Sum of margins (for the mean), in [`ExactSum`] ticks.
    pub sum: ExactSum,
    /// Fixed-bin histogram of the margins (`None` until the first
    /// observation).
    pub histogram: Option<ResponseHistogram>,
}

impl WcetMarginStats {
    /// Histogram bin width: margins resolve to ~0.004, far below any
    /// useful tolerance. Hard-coded (not spec-derived) so every report
    /// of every campaign shares one binning.
    pub const BIN_WIDTH: f64 = 1.0 / 256.0;
    /// Upper bound on regular bins, covering the margin domain up to the
    /// sensitivity search's growth cap with one spare row so the cap
    /// value itself stays out of the overflow bin (whose quantile would
    /// print as `inf`).
    pub const BINS: usize =
        (ftsched_design::sensitivity::MAX_WCET_SCALE / Self::BIN_WIDTH) as usize + 1;

    fn empty_histogram() -> ResponseHistogram {
        ResponseHistogram {
            bin_width: Self::BIN_WIDTH,
            counts: Vec::new(),
            overflow: 0,
        }
    }

    /// Folds one trial's margin into the accumulator.
    pub fn observe(&mut self, margin: f64) {
        self.runs += 1;
        self.sum.observe(margin);
        let histogram = self.histogram.get_or_insert_with(Self::empty_histogram);
        // Grow to the observation's bin (never beyond the domain cap):
        // the final length is the maximum over all observations, which is
        // order-independent — merges and shards stay byte-identical.
        let needed = (((margin / Self::BIN_WIDTH).max(0.0) as usize) + 1).min(Self::BINS);
        if histogram.counts.len() < needed {
            histogram.counts.resize(needed, 0);
        }
        histogram.observe(margin);
    }

    /// Merges another accumulator (associative and commutative).
    pub fn merge(&mut self, other: &WcetMarginStats) {
        self.runs += other.runs;
        self.sum.merge(&other.sum);
        if let Some(h) = &other.histogram {
            self.histogram
                .get_or_insert_with(Self::empty_histogram)
                .merge(h);
        }
    }

    /// Mean margin over the recorded trials (0 when none).
    pub fn mean(&self) -> f64 {
        mean(self.sum.value(), self.runs)
    }

    /// Median margin: the deterministic, conservative bin-edge quantile
    /// of the histogram (0 when no margin was recorded).
    pub fn p50(&self) -> f64 {
        self.histogram.as_ref().map_or(0.0, |h| h.quantile(0.50))
    }
}

/// One point of a latency-vs-load curve: the pooled distribution of
/// **deadline-relative** response times (response time divided by the
/// task's relative deadline, so `1.0` = "finished exactly at the
/// deadline") over every completed job of one scenario's accepted
/// trials. Normalising by the deadline is what makes the pool meaningful:
/// tasks with 4-unit and 30-unit periods land on one comparable axis, and
/// curves of different utilisation points answer the QoS question
/// "how does latency degrade with load?".
///
/// The histogram is fixed-bin with integer counts (binning comes from the
/// spec's [`LatencyCurveSpec`], shared by every curve of one campaign),
/// so [`LatencyCurve::merge`] is **exactly** associative and commutative
/// — sharded and multi-threaded campaigns report bit-identical curves
/// (`tests/property_merge.rs`, `tests/campaign_latency.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurve {
    /// The pooled deadline-relative response-time histogram.
    pub histogram: ResponseHistogram,
}

impl LatencyCurve {
    /// An empty curve point with the spec's binning.
    pub fn new(spec: LatencyCurveSpec) -> Self {
        LatencyCurve {
            histogram: ResponseHistogram {
                bin_width: spec.bin_width,
                counts: vec![0; spec.bins],
                overflow: 0,
            },
        }
    }

    /// Adds one deadline-relative response-time observation.
    pub fn observe(&mut self, normalized: f64) {
        self.histogram.observe(normalized);
    }

    /// Merges another curve point (associative and commutative for the
    /// shared campaign binning).
    pub fn merge(&mut self, other: &LatencyCurve) {
        self.histogram.merge(&other.histogram);
    }

    /// Observations pooled into this point.
    pub fn samples(&self) -> u64 {
        self.histogram.total()
    }

    /// Median deadline-relative latency (conservative bin-edge quantile;
    /// 0 when empty, infinite when the rank falls into the overflow bin).
    pub fn p50(&self) -> f64 {
        self.histogram.quantile(0.50)
    }

    /// 95th-percentile deadline-relative latency.
    pub fn p95(&self) -> f64 {
        self.histogram.quantile(0.95)
    }

    /// 99th-percentile deadline-relative latency.
    pub fn p99(&self) -> f64 {
        self.histogram.quantile(0.99)
    }
}

/// Merges an optional curve point into an optional accumulator slot —
/// `None` is the identity, so scenarios without accepted trials stay
/// curve-free and serialised reports omit the field entirely.
pub(crate) fn merge_latency(into: &mut Option<LatencyCurve>, from: Option<&LatencyCurve>) {
    if let Some(from) = from {
        match into {
            Some(into) => into.merge(from),
            None => *into = Some(from.clone()),
        }
    }
}

/// Per-scheme acceptance counters for the baseline comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineCounts {
    /// Trials with baseline verdicts recorded.
    pub evaluated: u64,
    /// The paper's flexible scheme.
    pub flexible: u64,
    /// Permanently lock-stepped platform.
    pub static_lockstep: u64,
    /// Permanently parallel platform.
    pub static_parallel: u64,
    /// Software primary/backup replication.
    pub primary_backup: u64,
}

/// Aggregated simulation counters for accepted validation trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimAggregate {
    /// Simulated (accepted `DesignAndValidate`) trials.
    pub runs: u64,
    /// Total jobs released.
    pub released_jobs: u64,
    /// Total jobs completed.
    pub completed_jobs: u64,
    /// Total deadline misses.
    pub deadline_misses: u64,
    /// Total faults drawn from the fault model.
    pub injected_faults: u64,
    /// Total faults overlapping at least one job.
    pub effective_faults: u64,
    /// Per-mode job outcome counters, summed.
    pub outcomes: PerMode<OutcomeCounts>,
    /// Sum of chosen periods (for the mean), in [`ExactSum`] ticks.
    pub sum_period: ExactSum,
    /// Sum of slack bandwidths (for the mean), in [`ExactSum`] ticks.
    pub sum_slack_bandwidth: ExactSum,
    /// Sum of overhead bandwidths (for the mean), in [`ExactSum`] ticks.
    pub sum_overhead_bandwidth: ExactSum,
    /// Sum of per-trial worst response times, in [`ExactSum`] ticks.
    pub sum_max_response_time: ExactSum,
    /// Worst response time over every simulated trial (`max` is exact and
    /// associative in `f64`, so no quantisation is needed here).
    pub max_response_time: f64,
    /// Per-task response-time histograms, sorted by task id — populated
    /// only when the spec sets
    /// [`response_histogram`](crate::CampaignSpec::response_histogram).
    /// Omitted from serialised reports when empty, so histogram-free
    /// campaigns stay byte-identical to the pre-histogram engine.
    pub response: Vec<TaskResponse>,
    /// WCET-scaling margin aggregate — populated only when the spec sets
    /// [`wcet_margin`](crate::CampaignSpec::wcet_margin). Omitted from
    /// serialised reports while empty, so margin-free campaigns stay
    /// byte-identical to the pre-metric engine.
    pub wcet_margin: WcetMarginStats,
    /// This scenario's latency-vs-load curve point — `Some` only when the
    /// spec sets [`latency_curves`](crate::CampaignSpec::latency_curves)
    /// and at least one trial was accepted. Omitted from serialised
    /// reports while `None`, so curve-free campaigns stay byte-identical
    /// to the pre-metric engine.
    pub latency: Option<LatencyCurve>,
}

// Serialisation is written by hand so that the `response` field only
// appears when histograms were collected (byte-compatibility with
// pre-histogram reports); everything else matches the derive's output
// field for field.
impl Serialize for SimAggregate {
    fn serialize(&self, out: &mut serde::Writer) {
        out.begin_map();
        out.field("runs", &self.runs);
        out.field("released_jobs", &self.released_jobs);
        out.field("completed_jobs", &self.completed_jobs);
        out.field("deadline_misses", &self.deadline_misses);
        out.field("injected_faults", &self.injected_faults);
        out.field("effective_faults", &self.effective_faults);
        out.field("outcomes", &self.outcomes);
        out.field("sum_period", &self.sum_period);
        out.field("sum_slack_bandwidth", &self.sum_slack_bandwidth);
        out.field("sum_overhead_bandwidth", &self.sum_overhead_bandwidth);
        out.field("sum_max_response_time", &self.sum_max_response_time);
        out.field("max_response_time", &self.max_response_time);
        if !self.response.is_empty() {
            out.field("response", &self.response);
        }
        if self.wcet_margin.runs > 0 {
            out.field("wcet_margin", &self.wcet_margin);
        }
        if let Some(latency) = &self.latency {
            out.field("latency", latency);
        }
        out.end_map();
    }
}

impl Deserialize for SimAggregate {
    fn from_value(v: &serde::Value<'_>) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a map for `SimAggregate`"))?;
        let field = |name: &str| {
            serde::get_field(m, name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in `SimAggregate`"))
            })
        };
        Ok(SimAggregate {
            runs: Deserialize::from_value(field("runs")?)?,
            released_jobs: Deserialize::from_value(field("released_jobs")?)?,
            completed_jobs: Deserialize::from_value(field("completed_jobs")?)?,
            deadline_misses: Deserialize::from_value(field("deadline_misses")?)?,
            injected_faults: Deserialize::from_value(field("injected_faults")?)?,
            effective_faults: Deserialize::from_value(field("effective_faults")?)?,
            outcomes: Deserialize::from_value(field("outcomes")?)?,
            sum_period: Deserialize::from_value(field("sum_period")?)?,
            sum_slack_bandwidth: Deserialize::from_value(field("sum_slack_bandwidth")?)?,
            sum_overhead_bandwidth: Deserialize::from_value(field("sum_overhead_bandwidth")?)?,
            sum_max_response_time: Deserialize::from_value(field("sum_max_response_time")?)?,
            max_response_time: Deserialize::from_value(field("max_response_time")?)?,
            response: match serde::get_field(m, "response") {
                Some(v) => Deserialize::from_value(v)?,
                None => Vec::new(),
            },
            wcet_margin: match serde::get_field(m, "wcet_margin") {
                Some(v) => Deserialize::from_value(v)?,
                None => WcetMarginStats::default(),
            },
            latency: match serde::get_field(m, "latency") {
                Some(v) => Some(Deserialize::from_value(v)?),
                None => None,
            },
        })
    }
}

impl SimAggregate {
    fn observe(&mut self, sim: &crate::trial::SimSummary) {
        self.runs += 1;
        self.released_jobs += sim.released_jobs;
        self.completed_jobs += sim.completed_jobs;
        self.deadline_misses += sim.deadline_misses;
        self.injected_faults += sim.injected_faults;
        self.effective_faults += sim.effective_faults;
        for mode in Mode::ALL {
            add_outcomes(&mut self.outcomes[mode], &sim.outcomes[mode]);
        }
        self.sum_period.observe(sim.period);
        self.sum_slack_bandwidth.observe(sim.slack_bandwidth);
        self.sum_overhead_bandwidth.observe(sim.overhead_bandwidth);
        self.sum_max_response_time.observe(sim.max_response_time);
        self.max_response_time = self.max_response_time.max(sim.max_response_time);
        if let Some(response) = &sim.response {
            merge_task_responses(&mut self.response, response);
        }
        if let Some(margin) = sim.wcet_margin {
            self.wcet_margin.observe(margin);
        }
        merge_latency(&mut self.latency, sim.latency.as_ref());
    }

    fn merge(&mut self, other: &SimAggregate) {
        self.runs += other.runs;
        self.released_jobs += other.released_jobs;
        self.completed_jobs += other.completed_jobs;
        self.deadline_misses += other.deadline_misses;
        self.injected_faults += other.injected_faults;
        self.effective_faults += other.effective_faults;
        for mode in Mode::ALL {
            add_outcomes(&mut self.outcomes[mode], &other.outcomes[mode]);
        }
        self.sum_period.merge(&other.sum_period);
        self.sum_slack_bandwidth.merge(&other.sum_slack_bandwidth);
        self.sum_overhead_bandwidth
            .merge(&other.sum_overhead_bandwidth);
        self.sum_max_response_time
            .merge(&other.sum_max_response_time);
        self.max_response_time = self.max_response_time.max(other.max_response_time);
        merge_task_responses(&mut self.response, &other.response);
        self.wcet_margin.merge(&other.wcet_margin);
        merge_latency(&mut self.latency, other.latency.as_ref());
    }

    /// Total outcome counters over all modes.
    pub fn total_outcomes(&self) -> OutcomeCounts {
        let mut total = OutcomeCounts::default();
        for mode in Mode::ALL {
            add_outcomes(&mut total, &self.outcomes[mode]);
        }
        total
    }

    /// Mean chosen period over the simulated trials.
    pub fn mean_period(&self) -> f64 {
        mean(self.sum_period.value(), self.runs)
    }

    /// Mean slack bandwidth over the simulated trials.
    pub fn mean_slack_bandwidth(&self) -> f64 {
        mean(self.sum_slack_bandwidth.value(), self.runs)
    }

    /// All per-task response histograms pooled into one (exact: integer
    /// counts over a shared binning). `None` when no histograms were
    /// collected.
    pub fn pooled_response(&self) -> Option<ResponseHistogram> {
        let mut tasks = self.response.iter();
        let mut pooled = tasks.next()?.histogram.clone();
        for response in tasks {
            pooled.merge(&response.histogram);
        }
        Some(pooled)
    }
}

fn add_outcomes(into: &mut OutcomeCounts, from: &OutcomeCounts) {
    into.correct_no_fault += from.correct_no_fault;
    into.correct_masked += from.correct_masked;
    into.silenced_lost += from.silenced_lost;
    into.wrong_result += from.wrong_result;
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The streaming accumulator for one scenario grid point.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioStats {
    /// Trials observed.
    pub trials: u64,
    /// Trials whose workload generation failed.
    pub generation_failures: u64,
    /// Trials whose partitioning failed.
    pub partition_failures: u64,
    /// Trials rejected by the design stage (empty period region).
    pub design_rejected: u64,
    /// Trials accepted by the design stage.
    pub accepted: u64,
    /// Accepted designs the simulator nonetheless rejected.
    pub simulation_failures: u64,
    /// Baseline-scheme counters (when the spec compares baselines).
    pub baselines: BaselineCounts,
    /// Simulation aggregate (for `DesignAndValidate` campaigns).
    pub sim: SimAggregate,
}

impl ScenarioStats {
    /// Folds one trial outcome into the accumulator.
    pub fn observe(&mut self, outcome: &TrialOutcome) {
        self.trials += 1;
        match outcome.status {
            TrialStatus::Accepted => self.accepted += 1,
            TrialStatus::GenerationFailed => self.generation_failures += 1,
            TrialStatus::PartitionFailed => self.partition_failures += 1,
            TrialStatus::DesignRejected => self.design_rejected += 1,
            TrialStatus::SimulationFailed => self.simulation_failures += 1,
        }
        if let Some(b) = &outcome.baselines {
            self.baselines.evaluated += 1;
            self.baselines.flexible += u64::from(b.flexible);
            self.baselines.static_lockstep += u64::from(b.static_lockstep);
            self.baselines.static_parallel += u64::from(b.static_parallel);
            self.baselines.primary_backup += u64::from(b.primary_backup);
        }
        if let Some(sim) = &outcome.sim {
            self.sim.observe(sim);
        }
    }

    /// Merges another accumulator into this one. Associative; callers
    /// must fix the merge order (the executor merges in block order).
    pub fn merge(&mut self, other: &ScenarioStats) {
        self.trials += other.trials;
        self.generation_failures += other.generation_failures;
        self.partition_failures += other.partition_failures;
        self.design_rejected += other.design_rejected;
        self.accepted += other.accepted;
        self.simulation_failures += other.simulation_failures;
        self.baselines.evaluated += other.baselines.evaluated;
        self.baselines.flexible += other.baselines.flexible;
        self.baselines.static_lockstep += other.baselines.static_lockstep;
        self.baselines.static_parallel += other.baselines.static_parallel;
        self.baselines.primary_backup += other.baselines.primary_backup;
        self.sim.merge(&other.sim);
    }

    /// Trials that produced a workload (the acceptance-ratio denominator
    /// of the extension experiments: generation failures are excluded,
    /// partition failures count as rejections).
    pub fn sampled(&self) -> u64 {
        self.trials - self.generation_failures
    }

    /// Fraction of sampled workloads the design stage accepted.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.sampled() == 0 {
            0.0
        } else {
            self.accepted as f64 / self.sampled() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{BaselineVerdicts, SimSummary, TrialOutcome, TrialStatus};

    fn latency_curve(values: &[f64]) -> LatencyCurve {
        let mut curve = LatencyCurve::new(LatencyCurveSpec {
            bin_width: 0.125,
            bins: 16,
        });
        for &v in values {
            curve.observe(v);
        }
        curve
    }

    fn outcome(status: TrialStatus, with_sim: bool) -> TrialOutcome {
        TrialOutcome {
            scenario: 0,
            trial: 0,
            seed: 1,
            status,
            baselines: Some(BaselineVerdicts {
                flexible: status == TrialStatus::Accepted,
                static_lockstep: false,
                static_parallel: true,
                primary_backup: false,
            }),
            sim: with_sim.then(|| SimSummary {
                period: 2.0,
                slack_bandwidth: 0.1,
                overhead_bandwidth: 0.02,
                released_jobs: 100,
                completed_jobs: 99,
                deadline_misses: 0,
                injected_faults: 5,
                effective_faults: 3,
                outcomes: PerMode::splat(OutcomeCounts {
                    correct_no_fault: 30,
                    correct_masked: 2,
                    silenced_lost: 1,
                    wrong_result: 0,
                }),
                max_response_time: 1.5,
                response: None,
                wcet_margin: Some(1.25),
                latency: Some(latency_curve(&[0.25, 0.8])),
            }),
        }
    }

    #[test]
    fn observe_and_merge_agree_with_sequential_fold() {
        let outcomes = [
            outcome(TrialStatus::Accepted, true),
            outcome(TrialStatus::DesignRejected, false),
            outcome(TrialStatus::Accepted, true),
            outcome(TrialStatus::GenerationFailed, false),
            outcome(TrialStatus::PartitionFailed, false),
        ];
        let mut sequential = ScenarioStats::default();
        for o in &outcomes {
            sequential.observe(o);
        }

        let mut left = ScenarioStats::default();
        let mut right = ScenarioStats::default();
        for o in &outcomes[..2] {
            left.observe(o);
        }
        for o in &outcomes[2..] {
            right.observe(o);
        }
        let mut merged = ScenarioStats::default();
        merged.merge(&left);
        merged.merge(&right);

        assert_eq!(sequential, merged);
        assert_eq!(merged.trials, 5);
        assert_eq!(merged.sampled(), 4);
        assert_eq!(merged.accepted, 2);
        assert!((merged.acceptance_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(merged.sim.runs, 2);
        assert_eq!(merged.sim.released_jobs, 200);
        assert_eq!(merged.sim.total_outcomes().correct_no_fault, 180);
        assert!((merged.sim.mean_period() - 2.0).abs() < 1e-12);
        assert_eq!(merged.baselines.evaluated, 5);
        assert_eq!(merged.baselines.flexible, 2);
        assert_eq!(merged.baselines.static_parallel, 5);
        assert_eq!(merged.sim.wcet_margin.runs, 2);
        assert!((merged.sim.wcet_margin.mean() - 1.25).abs() < 1e-6);
        // Conservative bin-edge median just above the exact value.
        let p50 = merged.sim.wcet_margin.p50();
        assert!((1.25..=1.25 + WcetMarginStats::BIN_WIDTH).contains(&p50));
        // Two accepted trials, two observations each, pooled into one
        // curve point.
        let latency = merged.sim.latency.as_ref().unwrap();
        assert_eq!(latency.samples(), 4);
        assert_eq!(latency.p50(), 0.375);
    }

    #[test]
    fn latency_curves_merge_exactly_and_handle_emptiness() {
        let all = latency_curve(&[0.1, 0.5, 0.9, 1.3, 5.0]);
        let a = latency_curve(&[0.1, 0.9]);
        let b = latency_curve(&[0.5, 1.3, 5.0]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
        assert_eq!(all.samples(), 5);
        // 5.0 deadlines is past the 16-bin domain: overflow.
        assert_eq!(all.histogram.overflow, 1);
        assert_eq!(all.p99(), f64::INFINITY);
        // `None` is the identity of the optional-slot merge.
        let mut slot: Option<LatencyCurve> = None;
        merge_latency(&mut slot, None);
        assert!(slot.is_none());
        merge_latency(&mut slot, Some(&a));
        assert_eq!(slot.as_ref(), Some(&a));
        merge_latency(&mut slot, Some(&b));
        let mut expected = a.clone();
        expected.merge(&b);
        assert_eq!(slot, Some(expected));
        // An empty curve reports zero quantiles, not garbage.
        let empty = latency_curve(&[]);
        assert_eq!(empty.samples(), 0);
        assert_eq!(empty.p50(), 0.0);
    }

    #[test]
    fn margin_stats_merge_exactly_and_handle_emptiness() {
        let mut all = WcetMarginStats::default();
        assert_eq!(all.mean(), 0.0);
        assert_eq!(all.p50(), 0.0);
        for m in [1.0, 1.5, 2.0, 64.0] {
            all.observe(m);
        }
        let mut a = WcetMarginStats::default();
        a.observe(1.0);
        a.observe(1.5);
        let mut b = WcetMarginStats::default();
        b.observe(2.0);
        b.observe(64.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
        // Merging an empty accumulator is the identity (no histogram is
        // conjured up).
        let mut empty = WcetMarginStats::default();
        empty.merge(&WcetMarginStats::default());
        assert_eq!(empty, WcetMarginStats::default());
        assert!(empty.histogram.is_none());
        // The growth cap itself lands in a regular bin, not overflow.
        assert_eq!(all.histogram.as_ref().unwrap().overflow, 0);
    }

    #[test]
    fn empty_stats_have_safe_ratios() {
        let stats = ScenarioStats::default();
        assert_eq!(stats.acceptance_ratio(), 0.0);
        assert_eq!(stats.sim.mean_period(), 0.0);
        assert!(stats.sim.pooled_response().is_none());
    }

    fn histogram(values: &[f64]) -> ResponseHistogram {
        let mut h = ResponseHistogram::new(ResponseHistogramSpec {
            bin_width: 0.5,
            bins: 8,
        });
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn histogram_bins_quantiles_and_overflow() {
        let h = histogram(&[0.1, 0.4, 0.6, 1.2, 3.9, 100.0]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts[0], 2); // [0.0, 0.5)
        assert_eq!(h.counts[1], 1); // [0.5, 1.0)
        assert_eq!(h.counts[2], 1); // [1.0, 1.5)
        assert_eq!(h.counts[7], 1); // [3.5, 4.0)
        assert_eq!(h.overflow, 1); // >= 4.0
                                   // p50 -> 3rd of 6 observations, in bin [0.5, 1.0) -> edge 1.0.
        assert_eq!(h.quantile(0.5), 1.0);
        // p99 -> 6th observation: overflow.
        assert_eq!(h.quantile(0.99), f64::INFINITY);
        assert_eq!(h.quantile(0.8), 4.0);
        // Empty histograms report 0.
        assert_eq!(histogram(&[]).quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_is_exact_and_commutative() {
        let all = histogram(&[0.1, 0.4, 0.6, 1.2, 3.9, 100.0]);
        let a = histogram(&[0.1, 0.6, 100.0]);
        let b = histogram(&[0.4, 1.2, 3.9]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
    }

    #[test]
    fn task_response_lists_merge_as_sorted_unions() {
        let tr = |id: u32, values: &[f64]| TaskResponse {
            task: TaskId(id),
            histogram: histogram(values),
        };
        let mut into = vec![tr(1, &[0.1]), tr(3, &[1.2])];
        merge_task_responses(&mut into, &[tr(2, &[0.4]), tr(3, &[0.6])]);
        assert_eq!(
            into.iter().map(|r| r.task.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(into[2].histogram.total(), 2);
    }

    #[test]
    fn aggregate_serde_omits_empty_response_and_round_trips_full() {
        let mut stats = ScenarioStats::default();
        stats.observe(&outcome(TrialStatus::Accepted, true));
        let json = serde_json::to_string(&stats).unwrap();
        assert!(!json.contains("\"response\""));
        // The latency field is present exactly when a curve was observed
        // — and round-trips intact.
        assert!(json.contains("\"latency\""));
        let back: ScenarioStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        let bare = ScenarioStats::default();
        assert!(!serde_json::to_string(&bare).unwrap().contains("latency"));

        stats.sim.response = vec![TaskResponse {
            task: TaskId(9),
            histogram: histogram(&[0.25, 1.0]),
        }];
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"response\""));
        let back: ScenarioStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}

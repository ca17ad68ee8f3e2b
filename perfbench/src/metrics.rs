//! The metric catalogue and the result line every run prints.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run. Each applies to
/// every workload; `README.md` gives the campaign and the serve reading.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput", "1/s"),
    ("throughput_1t", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A metric of a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("analysis.context.calls", "count"),
    ("analysis.context.ms", "ms"),
    ("analysis.context.points", "count"),
    ("analysis.rescale.quantised_frac", "ratio"),
    ("design.period_search.calls", "count"),
    ("design.period_search.ms", "ms"),
    ("design.period_search.reject_frac", "ratio"),
    ("design.region_samples", "count"),
    ("design.allocation.ms", "ms"),
    ("design.wcet_margin.calls", "count"),
    ("design.wcet_margin.ms", "ms"),
    ("design.baselines.ms", "ms"),
    ("design.partition.calls", "count"),
    ("design.partition.ms", "ms"),
    ("design.partition.fail_frac", "ratio"),
    ("core.problem.ms", "ms"),
    ("task.generate.calls", "count"),
    ("task.generate.ms", "ms"),
    ("platform.fault_draw.ms", "ms"),
    ("platform.faults", "count"),
    ("sim.runs", "count"),
    ("sim.ms", "ms"),
    ("sim.events", "count"),
    ("sim.jobs", "count"),
    ("sim.ns_per_event", "ns"),
    ("campaign.parallel_efficiency", "ratio"),
    ("campaign.cache.gen_hit_frac", "ratio"),
    ("campaign.cache.partition_hit_frac", "ratio"),
    ("campaign.cache.design_hit_frac", "ratio"),
    ("campaign.cache_speedup", "x"),
    ("campaign.stage.design_frac", "ratio"),
    ("campaign.stage.validate_frac", "ratio"),
    ("campaign.fold.ms", "ms"),
    ("campaign.report_encode.ms", "ms"),
    ("campaign.report_bytes", "bytes"),
    ("campaign.trial_us.p50", "us"),
    ("campaign.trial_us.p99", "us"),
    ("serve.decode_us.p50", "us"),
    ("serve.encode_us.p50", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.admit_hit_us.p50", "us"),
    ("serve.admit_hit_us.p99", "us"),
    ("serve.admit_flip_us.p50", "us"),
    ("serve.admit_cold_us.p50", "us"),
    ("serve.admit_cold_us.p99", "us"),
    ("serve.cache.admission_hit_frac", "ratio"),
    ("serve.cache.context_hit_frac", "ratio"),
    ("serve.gen_lag_us.p99", "us"),
    ("serve.backlog_max", "count"),
    ("serve.samples", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.design_frac", "ratio"),
    ("trace.sim_frac", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.spans", "count"),
];

/// The outcome of one run: operations attempted and failed, and the
/// measured metrics by name.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
    /// End-to-end readings under the names a user of the workload knows
    /// them by (`trials_per_s`, `decision_p99_us`, ...), for standard
    /// error.
    pub named: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Whether the run is correct: an operation was attempted, none
    /// failed, and every value of `catalogue` is finite.
    pub fn is_correct(&self, catalogue: &[(&str, &str)]) -> bool {
        self.failed == 0
            && self.attempted > 0
            && catalogue
                .iter()
                .all(|&(name, _)| self.value(name).is_finite())
    }

    /// The final JSON line. `catalogue` names every metric the line must
    /// carry; one that was not measured reads 0, as does one that is not
    /// finite (which makes the run incorrect).
    pub fn to_json_line(&self, catalogue: &[(&str, &str)]) -> String {
        let correct = self.is_correct(catalogue);
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let mut value = self.value(name);
            if !value.is_finite() {
                value = 0.0;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            fields.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust prints.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_catalogued_metric() {
        let mut run = RunResult::default();
        run.check(true);
        run.set("throughput", 1234.5678);
        let line = run.to_json_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"throughput\": {\"value\": 1234.5678,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0,"));
        run.check(false);
        assert!(run.to_json_line(&END_TO_END).contains("\"correct\": false"));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut run = RunResult::default();
        run.check(true);
        run.set("throughput", f64::NAN);
        assert!(run
            .to_json_line(&END_TO_END)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}

//! Backward compatibility against the pre-axis engine, enforced with
//! golden files: every spec in `examples/` that predates the widened
//! scenario grid must parse under the widened `CampaignSpec` and produce
//! JSON / CSV / table reports **byte-identical** to the pre-PR binary's
//! output (checked into `tests/golden/`, generated before the axes
//! landed).
//!
//! If one of these tests fails, the report format changed for existing
//! specs — that is a breaking change to every published campaign, not a
//! formatting detail. Regenerate the goldens only with a deliberate
//! format-version bump.

use ftsched_campaign::prelude::*;

fn root(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str, extension: &str) -> String {
    let path = root(&format!("tests/golden/{name}.{extension}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Loads `examples/<name>.json`, runs it, and asserts the JSON / CSV /
/// table output is byte-identical to the goldens generated with the
/// `era` binary (plus the per-task response CSV when the spec collects
/// histograms). The shared core of every golden check, so the protocol
/// cannot drift between spec eras.
fn check_against_goldens(name: &str, era: &str) -> CampaignReport {
    let path = root(&format!("examples/{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let spec: CampaignSpec = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{era} spec `{name}` no longer parses: {e}"));
    spec.validate().unwrap();

    let report = run_campaign(
        &spec,
        &ExecutorConfig {
            threads: 2,
            block_size: 32,
            progress: false,
            heartbeat: false,
            design_cache: true,
        },
    )
    .unwrap();
    assert_eq!(
        report.to_json(),
        golden(name, "json"),
        "JSON report for `{name}` diverged from the {era} binary"
    );
    assert_eq!(
        report.to_csv(),
        golden(name, "csv"),
        "CSV report for `{name}` diverged from the {era} binary"
    );
    // The golden table file is the binary's stdout: the table plus the
    // trailing newline `println!` appends.
    assert_eq!(
        format!("{}\n", report.render_table()),
        golden(name, "table.txt"),
        "table for `{name}` diverged from the {era} binary"
    );
    if let Some(response_csv) = report.response_csv() {
        assert_eq!(
            response_csv,
            golden(name, "response.csv"),
            "response CSV for `{name}` diverged from the {era} binary"
        );
    }
    report
}

/// Golden check for the original, pre-axis example specs: they must stay
/// on the single-value fallbacks forever.
fn check_example(name: &str) {
    let report = check_against_goldens(name, "pre-axis");
    let spec = &report.spec;
    assert!(!spec.has_overhead_axis() && !spec.has_heuristic_axis());
    assert!(spec.response_histogram.is_none());
}

/// Golden check for specs that postdate the widened axes (so they may
/// use them) while predating the latency-curve metric: a spec without
/// the metric must never grow the new fields.
fn check_post_axis_example(name: &str) {
    let report = check_against_goldens(name, "pre-latency");
    assert!(report.spec.latency_curves.is_none());
    assert!(report.latency_csv().is_none());
    assert!(!report.to_json().contains("latency"));
}

#[test]
fn acceptance_ratio_example_is_byte_identical_to_pre_axis_binary() {
    check_example("acceptance_ratio");
}

#[test]
fn baseline_comparison_example_is_byte_identical_to_pre_axis_binary() {
    check_example("baseline_comparison");
}

#[test]
fn fault_injection_example_is_byte_identical_to_pre_axis_binary() {
    check_example("fault_injection");
}

#[test]
fn grid_sweep_example_is_byte_identical_to_pre_latency_binary() {
    check_post_axis_example("grid_sweep");
}

/// Pins the baseline verdicts next to a searched design: RM and EDF
/// point tests, the static verdicts on unpartitionable sets, the flexible
/// verdict shared with the `MinimizeOverheadBandwidth` search and the
/// WCET margin. The goldens come from the binary before the static
/// verdicts stopped building task sets.
#[test]
fn baseline_design_example_is_byte_identical_to_task_set_baseline_binary() {
    let report = check_against_goldens("baseline_design", "task-set-baseline");
    let spec = &report.spec;
    assert!(spec.compare_baselines && spec.wcet_margin.is_some());
    assert!(spec.has_overhead_axis() && spec.has_heuristic_axis());
}

#[test]
fn golden_reports_parse_under_the_widened_schema() {
    // A report written by the pre-axis binary still deserialises (the
    // extension fields default), and re-serialising it reproduces the
    // file byte for byte — the round trip is lossless in both formats.
    for name in [
        "acceptance_ratio",
        "baseline_comparison",
        "baseline_design",
        "fault_injection",
        "grid_sweep",
    ] {
        let text = golden(name, "json");
        let report: CampaignReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("golden `{name}` no longer parses: {e}"));
        assert!(report.is_complete());
        assert_eq!(report.to_json(), text, "round trip of golden `{name}`");
    }
}

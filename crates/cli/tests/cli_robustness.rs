//! Black-box robustness tests of the `ftsched` binary: argument
//! validation at parse time, corrupt-input diagnostics that name the
//! offending file and shard, verbosity-independent error reporting, and
//! the full kill-and-resume recovery loop of `orchestrate` driven
//! through the `FTSCHED_ORCH_FAULT` hook.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use ftsched_campaign::prelude::*;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsched"))
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory holding a tiny (fast) campaign spec file.
fn scratch_with_spec(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "ftsched-cli-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = CampaignSpec {
        algorithms: vec![Algorithm::EarliestDeadlineFirst],
        utilizations: vec![0.6, 1.4],
        trials_per_scenario: 3,
        ..CampaignSpec::base("cli-robustness")
    };
    let path = dir.join("spec.json");
    std::fs::write(&path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
    (dir, path)
}

#[test]
fn bad_shard_values_are_rejected_at_parse_time_with_reasons() {
    let (dir, spec) = scratch_with_spec("badshard");
    // (value, expected reason fragment) — one per rejection class. The
    // spec is never even loaded: these fail at argument-parse time.
    let cases = [
        ("0/0", "shard count must be at least 1"),
        ("3/3", "out of range"),
        ("x/3", "is not a number"),
        ("1/y", "is not a number"),
        ("3", "expected I/N"),
    ];
    for (value, reason) in cases {
        let output = bin()
            .args(["run", spec.to_str().unwrap(), "--shard", value, "-q"])
            .output()
            .unwrap();
        assert!(
            !output.status.success(),
            "--shard {value} was accepted but must be rejected"
        );
        let err = stderr(&output);
        assert!(
            err.contains(reason),
            "--shard {value}: stderr {err:?} does not name the reason {reason:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orchestrate_rejects_bad_shard_counts() {
    let (dir, spec) = scratch_with_spec("badshards");
    for value in ["0", "-1", "many"] {
        let output = bin()
            .args([
                "orchestrate",
                spec.to_str().unwrap(),
                "--shards",
                value,
                "-q",
            ])
            .output()
            .unwrap();
        assert!(!output.status.success(), "--shards {value} was accepted");
        assert!(
            stderr(&output).contains("positive shard count"),
            "--shards {value}: stderr {:?}",
            stderr(&output)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_names_the_corrupt_file_and_its_shard() {
    let (dir, spec) = scratch_with_spec("corruptmerge");
    let part0 = dir.join("part0.json");
    let part1 = dir.join("part1.json");
    for (shard, path) in [("0/2", &part0), ("1/2", &part1)] {
        let status = bin()
            .args([
                "run",
                spec.to_str().unwrap(),
                "--shard",
                shard,
                "-q",
                "--out",
            ])
            .arg(path)
            .status()
            .unwrap();
        assert!(status.success());
    }
    // Tear a chunk out of the middle of the second partial (a torn
    // write): the JSON no longer parses, but the trailing `"shard"`
    // block survives for the diagnostic.
    let bytes = std::fs::read(&part1).unwrap();
    let torn = [&bytes[..50], &bytes[150..]].concat();
    std::fs::write(&part1, torn).unwrap();

    let output = bin()
        .args(["merge"])
        .args([&part0, &part1])
        .args(["-q", "--out"])
        .arg(dir.join("merged.json"))
        .output()
        .unwrap();
    assert!(
        !output.status.success(),
        "merging a truncated partial must fail"
    );
    let err = stderr(&output);
    assert!(
        err.contains("part1.json") && err.contains("input #2"),
        "stderr must name the offending file and input position: {err:?}"
    );
    assert!(
        err.contains("shard 1/2"),
        "stderr must name the shard recovered from the truncated text: {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_a_complete_report_naming_the_file() {
    let (dir, spec) = scratch_with_spec("completemerge");
    let full = dir.join("full.json");
    let status = bin()
        .args(["run", spec.to_str().unwrap(), "-q", "--out"])
        .arg(&full)
        .status()
        .unwrap();
    assert!(status.success());
    let output = bin().arg("merge").arg(&full).arg("-q").output().unwrap();
    assert!(!output.status.success());
    let err = stderr(&output);
    assert!(
        err.contains("full.json") && err.contains("complete report"),
        "stderr: {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_one_sample_period_grid_is_rejected_naming_the_field() {
    // A grid of fewer than two samples has no spacing: every design would
    // fail, so the spec is refused before any trial runs.
    let dir = std::env::temp_dir().join(format!(
        "ftsched-cli-test-samples-{}-{}",
        std::process::id(),
        DIR_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/acceptance_ratio.json"
    ))
    .unwrap();
    let mut spec: CampaignSpec = serde_json::from_str(&text).unwrap();
    spec.region_samples = Some(1);
    let path = dir.join("spec.json");
    std::fs::write(&path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
    let output = bin()
        .args(["run", path.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(!output.status.success(), "a one-sample grid must not run");
    assert!(
        stderr(&output).contains("region_samples"),
        "stderr: {:?}",
        stderr(&output)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_print_even_when_quiet_and_exit_codes_match_verbosity() {
    // The same failing invocation, loud and quiet: identical exit code,
    // and the quiet run still explains itself on stderr.
    let loud = bin().args(["merge", "/nonexistent.json"]).output().unwrap();
    let quiet = bin()
        .args(["merge", "/nonexistent.json", "-q"])
        .env("FTSCHED_LOG", "quiet")
        .output()
        .unwrap();
    assert!(!loud.status.success() && !quiet.status.success());
    assert_eq!(loud.status.code(), quiet.status.code());
    assert!(
        stderr(&quiet).contains("cannot read"),
        "quiet mode must not swallow errors: {:?}",
        stderr(&quiet)
    );
}

#[test]
fn killed_worker_recovers_to_a_byte_identical_report_with_visible_retries() {
    let (dir, spec) = scratch_with_spec("killresume");
    let full = dir.join("full.json");
    let recovered = dir.join("recovered.json");
    let metrics = dir.join("orch-metrics.json");

    let status = bin()
        .args(["run", spec.to_str().unwrap(), "-q", "--out"])
        .arg(&full)
        .status()
        .unwrap();
    assert!(status.success());

    // Shard 0's worker aborts on its first attempt; the orchestrator
    // must retry it (clean, the hook is one-shot) and converge.
    let output = bin()
        .args(["orchestrate", spec.to_str().unwrap(), "--shards", "2"])
        .args(["--backoff-ms", "1", "--worker-threads", "1", "-q"])
        .args(["--checkpoint-dir"])
        .arg(dir.join("ckpt"))
        .arg("--out")
        .arg(&recovered)
        .arg("--metrics-json")
        .arg(&metrics)
        .env("FTSCHED_ORCH_FAULT", "kill:0")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "orchestrate failed: {}",
        stderr(&output)
    );

    let full_bytes = std::fs::read(&full).unwrap();
    let recovered_bytes = std::fs::read(&recovered).unwrap();
    assert_eq!(
        full_bytes, recovered_bytes,
        "recovered report differs from the plain run"
    );

    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("\"retries\": 1"),
        "orchestrator metrics must show the retry: {metrics_text}"
    );
    assert!(metrics_text.contains("\"worker_failures\": 1"));
    // A fully successful run cleans its checkpoints up.
    assert!(!dir.join("ckpt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn allow_partial_emits_a_gap_annotated_report_and_succeeds() {
    let (dir, spec) = scratch_with_spec("partial");
    let out = dir.join("partial.json");
    // Shard 1 aborts on every allowed attempt (retry budget 0 keeps the
    // fault one-shot semantics irrelevant: there is no second attempt).
    let output = bin()
        .args(["orchestrate", spec.to_str().unwrap(), "--shards", "2"])
        .args(["--max-retries", "0", "--backoff-ms", "1", "--allow-partial"])
        .args(["--worker-threads", "1"])
        .args(["--checkpoint-dir"])
        .arg(dir.join("ckpt"))
        .arg("--out")
        .arg(&out)
        .env("FTSCHED_ORCH_FAULT", "kill:1")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "--allow-partial must succeed: {}",
        stderr(&output)
    );
    let err = stderr(&output);
    assert!(
        err.contains("PARTIAL") && err.contains("1/2"),
        "stderr must warn about the missing shard: {err:?}"
    );
    let report = std::fs::read_to_string(&out).unwrap();
    assert!(
        report.contains("missing_shards"),
        "report must record the gap"
    );
    // Checkpoints are kept so a rerun can fill the gap.
    assert!(dir.join("ckpt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parent's `ftsched --help` output, byte for byte.
const HELP: &str = include_str!("../../../tests/golden/cli_help.txt");

#[test]
fn help_matches_the_golden_text() {
    let output = bin().arg("--help").output().unwrap();
    assert!(output.status.success());
    assert_eq!(String::from_utf8_lossy(&output.stdout), HELP);
}

#[test]
fn every_argument_mistake_is_rejected_before_any_work() {
    let (dir, spec) = scratch_with_spec("argtable");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (spec, out, ckpt, missing) = (
        spec.to_str().unwrap(),
        path("rejected.json"),
        path("ckpt"),
        path("missing.json"),
    );
    // (arguments, exit success?, fragment): a failure's stderr must hold
    // the fragment; a success is a help request and prints exactly the
    // usage text to stdout.
    let mut cases: Vec<(Vec<&str>, bool, String)> = vec![
        (
            vec!["validate", spec, "--bogus"],
            false,
            "unexpected argument `--bogus`".into(),
        ),
        (
            vec!["validate", spec, &missing],
            false,
            format!("unexpected argument `{missing}`"),
        ),
        (
            vec!["metrics-strip", "--bogus"],
            false,
            "unexpected argument `--bogus`".into(),
        ),
        (
            vec!["example", "--bogus"],
            false,
            "unexpected argument `--bogus`".into(),
        ),
        // `--to` is checked before the (here nonexistent) input is read.
        (
            vec!["convert", &missing, "--to", "bogus"],
            false,
            "invalid --to value `bogus`".into(),
        ),
        (
            vec!["run", spec, "--latency-csv", "l.csv", "--out", &out, "-q"],
            false,
            "--latency-csv needs a spec with `latency_curves` enabled".into(),
        ),
        (
            vec![
                "orchestrate",
                spec,
                "--shards",
                "2",
                "--checkpoint-dir",
                &ckpt,
            ]
            .into_iter()
            .chain(["--response-csv", "r.csv", "--out", &out, "-q"])
            .collect(),
            false,
            "--response-csv needs a spec with `response_histogram` enabled".into(),
        ),
        (
            vec!["serve", "--out", &out],
            false,
            "serve --out needs --replay".into(),
        ),
        (
            vec!["run", spec, "--threads"],
            false,
            "--threads needs a value".into(),
        ),
    ];
    let numeric: [(&[&str], &[&str]); 4] = [
        (&["run", spec], &["--threads"]),
        (
            &["orchestrate", spec, "--shards", "2"],
            &[
                "--workers",
                "--worker-threads",
                "--max-retries",
                "--backoff-ms",
                "--timeout-secs",
            ],
        ),
        (
            &["inspect", spec, "--scenario", "0", "--trial", "0"],
            &["--scenario", "--trial"],
        ),
        (
            &["serve"],
            &["--batch-size", "--max-frame-bytes", "--cache-capacity"],
        ),
    ];
    for (command, flags) in numeric {
        for &flag in flags {
            let args = command.iter().copied().chain([flag, "x"]).collect();
            cases.push((args, false, format!("invalid {flag} value `x`")));
        }
    }
    for command in [
        "run",
        "orchestrate",
        "merge",
        "convert",
        "inspect",
        "metrics-strip",
        "validate",
        "serve",
        "bench",
        "example",
    ] {
        for help in ["--help", "-h"] {
            cases.push((vec![command, help], true, String::new()));
        }
    }

    for (args, success, fragment) in &cases {
        let output = bin()
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        let err = stderr(&output);
        assert_eq!(output.status.success(), *success, "{args:?}: {err}");
        if *success {
            assert_eq!(String::from_utf8_lossy(&output.stdout), HELP, "{args:?}");
        } else {
            assert!(
                err.contains(fragment.as_str()),
                "{args:?}: {err:?} lacks {fragment:?}"
            );
        }
    }
    // The rejected CSV sinks stopped their commands before anything ran.
    assert!(
        !dir.join("rejected.json").exists(),
        "a rejected command wrote --out"
    );
    assert!(
        !dir.join("ckpt").exists(),
        "a rejected orchestrate made checkpoints"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! `ftsched` — run experiment campaigns from declarative spec files.
//!
//! ```text
//! ftsched run <spec.json> [--threads N] [--block-size N] [--shard I/N]
//!                         [--out report.json] [--csv report.csv]
//!                         [--response-csv rt.csv] [--latency-csv lat.csv]
//!                         [--metrics-json m.json] [--format json|columnar]
//!                         [--progress] [--quiet] [--no-design-cache]
//! ftsched orchestrate <spec.json> --shards N [--workers K]
//!                         [--checkpoint-dir D] [--max-retries N]
//!                         [--backoff-ms N] [--timeout-secs N]
//!                         [--allow-partial] [--keep-checkpoints]
//!                         [--worker-threads N] [run outputs...]
//! ftsched merge <part.json>... [--out report.json] [--csv report.csv]
//!                              [--response-csv rt.csv] [--latency-csv lat.csv]
//!                              [--metrics m.json]... [--metrics-json out.json]
//!                              [--format json|columnar]
//! ftsched convert <report> [--from json|columnar]
//!                          --to json|columnar|csv|response-csv|latency-csv
//!                          [--out FILE]
//! ftsched inspect <spec.json> --scenario I --trial J [--trace-json trace.json]
//! ftsched metrics-strip <metrics.json>
//! ftsched validate <spec.json>
//! ftsched serve [--replay file.jsonl] [--out transcript.jsonl]
//!               [--socket path.sock] [--threads N] [--batch-size N]
//!               [--max-frame-bytes N] [--cache-capacity N] [--no-cache]
//!               [--summary-json s.json]
//! ftsched bench [--quick] [--minq] [--sim] [--sensitivity] [--serve]
//! ftsched example
//! ```
//!
//! `run` loads a [`CampaignSpec`], fans its trials out over worker
//! threads with a progress line, prints the summary table and optionally
//! writes the full JSON report and a per-scenario CSV. Reports are a pure
//! function of the spec: the same file produces byte-identical output at
//! any `--threads` value. With `--shard I/N` it executes only the `I`-th
//! of `N` deterministic slices of the campaign (for spreading one
//! campaign across processes or hosts) and writes a *partial* report;
//! `merge` folds a complete set of partials into a report byte-identical
//! to the unsharded run. `orchestrate` drives the whole shard protocol
//! itself: a supervised local worker pool with per-shard timeouts,
//! bounded retry with deterministic backoff + jitter, atomic
//! integrity-checked checkpoints in `--checkpoint-dir` (rerunning with
//! the same directory resumes, re-running only missing or corrupt
//! shards) and `--allow-partial` graceful degradation — the merged
//! report stays byte-identical to a plain `run` whenever every shard
//! completes. Reports travel in two formats: pretty JSON (the default)
//! and the compact columnar encoding from
//! [`ftsched_campaign::columnar`]; `--format columnar` switches
//! `run`/`merge`/`orchestrate` outputs (and orchestrator shard
//! checkpoints) to it, and `convert` translates any report between the
//! two — plus the CSV renderings — losslessly: JSON → columnar → JSON
//! is byte-identical. The `FTSCHED_ORCH_FAULT=kill:I[,stall:J,corrupt:K]`
//! environment hook makes shard worker `I`/`J`/`K` abort, hang or write
//! a corrupt report on its first attempt (tests and CI use it to
//! exercise recovery). `serve` is the online admission service: it
//! answers length-prefixed JSON admission requests over stdin/stdout or
//! a unix socket through the [`ftsched_serve`] engine's hot caches, and
//! `--replay` re-answers a JSONL request log into a transcript that is
//! byte-identical at any `--threads` value (the golden-file contract).
//! `bench` runs the minQ / WCET-sensitivity / simulator / admission-serve
//! micro-benchmarks and writes `BENCH_minq.json` /
//! `BENCH_sensitivity.json` / `BENCH_sim.json` / `BENCH_serve.json` at
//! the repository root.
//!
//! Observability is a side channel, never part of the report:
//! `--metrics-json` writes a [`RunMetrics`] document whose
//! *deterministic counters* half is byte-identical at any thread count
//! and additive across shards (`merge --metrics` re-folds it), while the
//! *timings* half carries the machine-dependent observations;
//! `metrics-strip` prints just the deterministic half for comparisons.
//! `--progress` switches the stderr progress line to a rate-limited
//! heartbeat with throughput, ETA and per-scenario completion.
//! `inspect` re-runs one (scenario, trial) coordinate from a report and
//! can dump the full execution trace. Stderr diagnostics honour `-q` /
//! `--quiet` and `FTSCHED_LOG=quiet|info`; errors always print.

mod ui;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ftsched_campaign::prelude::*;
use ftsched_campaign::{checkpoint, columnar, LocalProcessBackend, MergeFold, OrchestratorMetrics};

const USAGE: &str = "\
ftsched — deterministic experiment campaigns for the flexible \
fault-tolerant scheduling scheme

USAGE:
    ftsched run <spec.json> [OPTIONS]   run a campaign (or one shard of it)
    ftsched orchestrate <spec.json> --shards N [OPTIONS]
                                        run a campaign as N supervised shard
                                        workers with retries and resumable
                                        checkpoints
    ftsched merge <part.json>... [OPTIONS]
                                        fold shard reports into the full one
                                        (JSON and columnar shards both fold,
                                        block-wise, without loading them all)
    ftsched convert <report> --to FORMAT [OPTIONS]
                                        translate a report between the JSON,
                                        columnar and CSV renderings
    ftsched inspect <spec.json> --scenario I --trial J [--trace-json FILE]
                                        re-run one trial, optionally dumping
                                        its full execution trace
    ftsched metrics-strip <metrics.json>
                                        print only the deterministic counter
                                        half of a --metrics-json file
    ftsched validate <spec.json>        check a spec and show its grid
    ftsched serve [OPTIONS]             online admission control: answer
                                        framed JSON admission requests from
                                        stdin or a unix socket, or replay a
                                        JSONL request log deterministically
    ftsched bench [OPTIONS]             run the perf benches, write BENCH_*.json
    ftsched example                     print a sample spec to stdout

OPTIONS (run):
    --threads <N>       worker threads (default: one per core)
    --block-size <N>    trials per work block (default: 32)
    --shard <I/N>       run only the I-th of N deterministic campaign
                        slices and emit a partial report (see `merge`)
    --out <FILE>        write the full JSON report
    --csv <FILE>        write a per-scenario CSV
    --response-csv <FILE>
                        write the per-task response-time percentile CSV
                        (specs with `response_histogram` only)
    --latency-csv <FILE>
                        write the long-format latency-vs-load CSV
                        (specs with `latency_curves` only)
    --metrics-json <FILE>
                        write run metrics (deterministic counters +
                        machine-dependent timings; never in the report)
    --format <json|columnar>
                        --out encoding: pretty JSON (default) or the
                        compact columnar format (see `convert`)
    --progress          live heartbeat on stderr: trials/s, ETA and
                        per-scenario completion (rate-limited)
    -q, --quiet         no progress line, no informational notes
    --no-design-cache   recompute the deterministic trial stages per trial
                        (debugging; reports are byte-identical either way)

OPTIONS (orchestrate):
    --shards <N>        split the campaign into N shard workers (required)
    --workers <K>       concurrent worker processes (default: min(N, cores))
    --worker-threads <N>
                        --threads for each worker (default: worker default)
    --checkpoint-dir <DIR>
                        shard checkpoint directory (default: <spec>.ckpt);
                        rerunning with the same directory resumes from the
                        completed shards
    --max-retries <N>   retry budget per shard beyond the first attempt
                        (default: 3)
    --backoff-ms <N>    base retry backoff; attempt a waits base*2^a
                        (capped) plus deterministic jitter (default: 250)
    --timeout-secs <N>  per-shard timeout; 0 disables it (default: 0)
    --allow-partial     merge whatever completed and record the missing
                        shard ranges instead of failing the run
    --keep-checkpoints  keep checkpoint files after a fully successful run
    --out / --csv / --response-csv / --latency-csv / --format / -q
                        as for `run`; --format also switches the worker
                        shard reports and checkpoints to columnar
    --metrics-json <FILE>
                        write orchestrator stats (timing-classified) plus
                        the shard-merged deterministic worker counters

OPTIONS (merge):
    --out / --csv / --response-csv / --latency-csv / --format as for
                        `run`; input shard formats are sniffed per file
    --metrics <FILE>    a shard's --metrics-json file (repeatable)
    --metrics-json <FILE>
                        write the folded metrics of the --metrics inputs

OPTIONS (convert):
    --from <json|columnar>
                        input format (default: sniffed from the first
                        bytes of the file)
    --to <json|columnar|csv|response-csv|latency-csv>
                        output rendering (required); json <-> columnar
                        round-trips are byte-identical
    --out <FILE>        destination (default: stdout)

ENVIRONMENT:
    FTSCHED_LOG=quiet|info
                        quiet silences notes/warnings like -q; errors
                        always print and exit codes never change
    FTSCHED_ORCH_FAULT=kill:I[,stall:J,corrupt:K]
                        fault injection for `run --shard` workers: shard
                        I aborts, J hangs, K writes a corrupt report —
                        first attempt only (orchestrate retries run clean)

OPTIONS (serve):
    --replay <FILE>     answer a JSONL request log instead of serving a
                        stream; the transcript is byte-identical at any
                        --threads value
    --out <FILE>        replay transcript destination (default: stdout)
    --socket <PATH>     bind a unix socket and serve every connection
                        (default: one framed stream on stdin/stdout)
    --threads <N>       rayon workers for batched replay decisions
    --batch-size <N>    requests decided per replay batch (default: 32)
    --max-frame-bytes <N>
                        frame payload cap; oversized prefixes get a
                        structured error response (default: 1048576)
    --cache-capacity <N>
                        live-entry cap of the admission and context
                        caches (default: 65536)
    --no-cache          recompute every decision (responses are
                        byte-identical either way)
    --summary-json <FILE>
                        write the ServeSummary (requests, verdict counts,
                        latency p50/p95/p99, cache hit rates)
    -q, --quiet         no stderr summary notes

OPTIONS (bench):
    --quick            reduced measurement budget (CI smoke)
    --minq             only the minQ kernel bench
    --sim              only the simulator bench
    --sensitivity      only the WCET-sensitivity search bench
    --serve            only the admission-service bench
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The verbosity gate is global: resolve it before dispatch so every
    // subcommand's notes honour -q/--quiet and FTSCHED_LOG.
    ui::init(args.iter().any(|a| a == "-q" || a == "--quiet"));
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("orchestrate") => cmd_orchestrate(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("metrics-strip") => cmd_metrics_strip(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("example") => match serde_json::to_string_pretty(&example_spec()) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                ui::error(format!("cannot serialise the example spec: {e}"));
                ExitCode::FAILURE
            }
        },
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            ui::error(format!("unknown command `{other}`\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

/// Report output destinations shared by `run` and `merge`.
#[derive(Default)]
struct Outputs<'a> {
    json: Option<&'a str>,
    csv: Option<&'a str>,
    response_csv: Option<&'a str>,
    latency_csv: Option<&'a str>,
    /// Encoding for the `json` destination (`--format`).
    format: ReportFormat,
}

impl Outputs<'_> {
    /// Renders the report in the `--format` encoding (for `--out`).
    fn render(&self, report: &CampaignReport) -> String {
        match self.format {
            ReportFormat::Json => report.to_json(),
            ReportFormat::Columnar => columnar::encode_report(report),
        }
    }

    /// Writes the requested files; returns false on the first failure.
    fn write(&self, report: &CampaignReport) -> bool {
        if let Some(path) = self.json {
            if let Err(e) = std::fs::write(path, self.render(report)) {
                ui::error(format!("cannot write `{path}`: {e}"));
                return false;
            }
            ui::note(format!("wrote {} report to {path}", self.format.label()));
        }
        if let Some(path) = self.csv {
            if let Err(e) = std::fs::write(path, report.to_csv()) {
                ui::error(format!("cannot write `{path}`: {e}"));
                return false;
            }
            ui::note(format!("wrote CSV report to {path}"));
        }
        if let Some(path) = self.response_csv {
            let Some(csv) = report.response_csv() else {
                ui::error("--response-csv needs a spec with `response_histogram` enabled");
                return false;
            };
            if let Err(e) = std::fs::write(path, csv) {
                ui::error(format!("cannot write `{path}`: {e}"));
                return false;
            }
            ui::note(format!("wrote response-time CSV to {path}"));
        }
        if let Some(path) = self.latency_csv {
            let Some(csv) = report.latency_csv() else {
                ui::error("--latency-csv needs a spec with `latency_curves` enabled");
                return false;
            };
            if let Err(e) = std::fs::write(path, csv) {
                ui::error(format!("cannot write `{path}`: {e}"));
                return false;
            }
            ui::note(format!("wrote latency-vs-load CSV to {path}"));
        }
        true
    }
}

/// Serialises `metrics` to `path`, reporting success as a note.
fn write_metrics(metrics: &RunMetrics, path: &str) -> bool {
    let json = serde_json::to_string_pretty(metrics).expect("metrics always serialise");
    if let Err(e) = std::fs::write(path, json) {
        ui::error(format!("cannot write `{path}`: {e}"));
        return false;
    }
    ui::note(format!("wrote run metrics to {path}"));
    true
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut exec = ExecutorConfig {
        progress: true,
        ..ExecutorConfig::default()
    };
    let mut outputs = Outputs::default();
    let mut shard: Option<ShardInfo> = None;
    let mut metrics_json: Option<&str> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => match take_value(args, &mut i) {
                Some(v) => match v.parse() {
                    Ok(n) => exec.threads = n,
                    Err(_) => return usage_error(&format!("invalid --threads value `{v}`")),
                },
                None => return usage_error("--threads needs a value"),
            },
            "--block-size" => match take_value(args, &mut i) {
                Some(v) => match v.parse() {
                    Ok(n) if n > 0 => exec.block_size = n,
                    _ => return usage_error(&format!("invalid --block-size value `{v}`")),
                },
                None => return usage_error("--block-size needs a value"),
            },
            "--shard" => match take_value(args, &mut i) {
                Some(v) => match ShardInfo::parse_detailed(v) {
                    Ok(s) => shard = Some(s),
                    Err(reason) => {
                        return value_error(&format!("invalid --shard value `{v}`: {reason}"))
                    }
                },
                None => return usage_error("--shard needs a value"),
            },
            "--out" => match take_value(args, &mut i) {
                Some(v) => outputs.json = Some(v),
                None => return usage_error("--out needs a value"),
            },
            "--csv" => match take_value(args, &mut i) {
                Some(v) => outputs.csv = Some(v),
                None => return usage_error("--csv needs a value"),
            },
            "--response-csv" => match take_value(args, &mut i) {
                Some(v) => outputs.response_csv = Some(v),
                None => return usage_error("--response-csv needs a value"),
            },
            "--latency-csv" => match take_value(args, &mut i) {
                Some(v) => outputs.latency_csv = Some(v),
                None => return usage_error("--latency-csv needs a value"),
            },
            "--metrics-json" => match take_value(args, &mut i) {
                Some(v) => metrics_json = Some(v),
                None => return usage_error("--metrics-json needs a value"),
            },
            "--format" => match take_value(args, &mut i) {
                Some(v) => match ReportFormat::parse(v) {
                    Some(f) => outputs.format = f,
                    None => {
                        return value_error(&format!(
                            "invalid --format value `{v}`: expected `json` or `columnar`"
                        ))
                    }
                },
                None => return usage_error("--format needs a value"),
            },
            "--progress" => exec.heartbeat = true,
            "-q" | "--quiet" => {
                exec.progress = false;
                exec.heartbeat = false;
            }
            "--no-design-cache" => exec.design_cache = false,
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other);
            }
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let Some(spec_path) = spec_path else {
        return usage_error("run needs a spec file");
    };
    // Progress lines are informational output too.
    if ui::quiet() {
        exec.progress = false;
        exec.heartbeat = false;
    }

    let spec = match load_spec(spec_path) {
        Ok(spec) => spec,
        Err(message) => {
            ui::error(message);
            return ExitCode::FAILURE;
        }
    };

    match shard {
        None => ui::note(format!(
            "campaign `{}`: {} scenarios x {} trials = {} trials on {} threads",
            spec.name,
            spec.scenarios().len(),
            spec.trials_per_scenario,
            spec.trial_count(),
            exec.effective_threads(),
        )),
        Some(shard) => ui::note(format!(
            "campaign `{}` shard {shard}: slice of {} total trials on {} threads",
            spec.name,
            spec.trial_count(),
            exec.effective_threads(),
        )),
    }
    // Worker-side fault injection (tests/CI): only armed in shard mode,
    // so a plain `ftsched run` never trips over a stale environment.
    let fault = shard.and_then(planned_fault);
    match fault {
        Some(FaultAction::Kill) => {
            ui::warn("FTSCHED_ORCH_FAULT: aborting this shard worker");
            std::process::abort();
        }
        Some(FaultAction::Stall) => {
            ui::warn("FTSCHED_ORCH_FAULT: stalling this shard worker");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Some(FaultAction::Corrupt) | None => {}
    }
    // The run counts into a recorder of its own, so nothing this process
    // did before (spec validation, earlier subprocess work) leaks into
    // the metrics document.
    let (report, metrics) = match run_campaign_recorded(&spec, &exec, shard) {
        Ok(done) => done,
        Err(e) => {
            ui::error(e.to_string());
            return ExitCode::FAILURE;
        }
    };
    let elapsed = metrics.timing.wall_seconds;
    let trials = report.total_trials();
    ui::note(format!(
        "completed {trials} trials in {elapsed:.2}s ({:.0} trials/s)",
        trials as f64 / elapsed.max(1e-9)
    ));
    if shard.is_some() && outputs.json.is_none() {
        ui::warn(
            "partial (shard) reports are meant to be saved with --out and folded with `ftsched merge`",
        );
    }

    println!("{}", report.render_table());

    if let Some(path) = metrics_json {
        if !write_metrics(&metrics, path) {
            return ExitCode::FAILURE;
        }
    }

    if let Some(FaultAction::Corrupt) = fault {
        // Claim success while handing the supervisor a truncated report:
        // exactly the failure mode the orchestrator's output validation
        // and checkpoint integrity footer exist to catch.
        ui::warn("FTSCHED_ORCH_FAULT: writing a corrupt report for this shard");
        if let Some(path) = outputs.json {
            let rendered = outputs.render(&report);
            let _ = std::fs::write(path, &rendered[..rendered.len() / 2]);
        }
        return ExitCode::SUCCESS;
    }

    if outputs.write(&report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What `FTSCHED_ORCH_FAULT` tells this shard worker to do.
enum FaultAction {
    Kill,
    Stall,
    Corrupt,
}

/// Parses the fault-injection hook (`kill:I[,stall:J,corrupt:K]`) and
/// returns the action aimed at this worker's shard index, if any.
fn planned_fault(shard: ShardInfo) -> Option<FaultAction> {
    let raw = std::env::var("FTSCHED_ORCH_FAULT").ok()?;
    for item in raw.split(',') {
        let Some((action, index)) = item.trim().split_once(':') else {
            continue;
        };
        if index.trim().parse() != Ok(shard.index) {
            continue;
        }
        match action.trim() {
            "kill" => return Some(FaultAction::Kill),
            "stall" => return Some(FaultAction::Stall),
            "corrupt" => return Some(FaultAction::Corrupt),
            _ => {}
        }
    }
    None
}

fn cmd_orchestrate(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut shards: Option<usize> = None;
    let mut workers = 0usize;
    let mut worker_threads = 0usize;
    let mut max_retries = 3u32;
    let mut backoff_ms = 250u64;
    let mut timeout_secs = 0u64;
    let mut allow_partial = false;
    let mut keep_checkpoints = false;
    let mut checkpoint_dir: Option<&str> = None;
    let mut outputs = Outputs::default();
    let mut metrics_json: Option<&str> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => match take_value(args, &mut i) {
                Some(v) => match v.parse() {
                    Ok(n) if n > 0 => shards = Some(n),
                    _ => {
                        return value_error(&format!(
                            "invalid --shards value `{v}`: expected a positive shard count"
                        ))
                    }
                },
                None => return usage_error("--shards needs a value"),
            },
            "--workers" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) => workers = n,
                _ => return usage_error("--workers needs a number"),
            },
            "--worker-threads" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) => worker_threads = n,
                _ => return usage_error("--worker-threads needs a number"),
            },
            "--max-retries" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) => max_retries = n,
                _ => return usage_error("--max-retries needs a number"),
            },
            "--backoff-ms" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) => backoff_ms = n,
                _ => return usage_error("--backoff-ms needs a number"),
            },
            "--timeout-secs" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) => timeout_secs = n,
                _ => return usage_error("--timeout-secs needs a number"),
            },
            "--checkpoint-dir" => match take_value(args, &mut i) {
                Some(v) => checkpoint_dir = Some(v),
                None => return usage_error("--checkpoint-dir needs a value"),
            },
            "--allow-partial" => allow_partial = true,
            "--keep-checkpoints" => keep_checkpoints = true,
            "--out" => match take_value(args, &mut i) {
                Some(v) => outputs.json = Some(v),
                None => return usage_error("--out needs a value"),
            },
            "--csv" => match take_value(args, &mut i) {
                Some(v) => outputs.csv = Some(v),
                None => return usage_error("--csv needs a value"),
            },
            "--response-csv" => match take_value(args, &mut i) {
                Some(v) => outputs.response_csv = Some(v),
                None => return usage_error("--response-csv needs a value"),
            },
            "--latency-csv" => match take_value(args, &mut i) {
                Some(v) => outputs.latency_csv = Some(v),
                None => return usage_error("--latency-csv needs a value"),
            },
            "--metrics-json" => match take_value(args, &mut i) {
                Some(v) => metrics_json = Some(v),
                None => return usage_error("--metrics-json needs a value"),
            },
            "--format" => match take_value(args, &mut i) {
                Some(v) => match ReportFormat::parse(v) {
                    Some(f) => outputs.format = f,
                    None => {
                        return value_error(&format!(
                            "invalid --format value `{v}`: expected `json` or `columnar`"
                        ))
                    }
                },
                None => return usage_error("--format needs a value"),
            },
            "-q" | "--quiet" => {}
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other);
            }
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let Some(spec_path) = spec_path else {
        return usage_error("orchestrate needs a spec file");
    };
    let Some(shards) = shards else {
        return usage_error("orchestrate needs --shards");
    };

    let spec = match load_spec(spec_path) {
        Ok(spec) => spec,
        Err(message) => {
            ui::error(message);
            return ExitCode::FAILURE;
        }
    };
    let program = match std::env::current_exe() {
        Ok(program) => program,
        Err(e) => {
            ui::error(format!("cannot locate the ftsched binary to spawn: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let checkpoint_dir = checkpoint_dir
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{spec_path}.ckpt")));

    let backend = LocalProcessBackend {
        program,
        spec_path: PathBuf::from(spec_path),
        worker_threads,
        format: outputs.format,
    };
    let mut config = OrchestratorConfig::new(shards, checkpoint_dir.clone());
    config.format = outputs.format;
    config.workers = workers;
    config.max_retries = max_retries;
    config.backoff_base_ms = backoff_ms.max(1);
    config.jitter_seed = spec.master_seed;
    config.shard_timeout = (timeout_secs > 0).then(|| Duration::from_secs(timeout_secs));
    config.allow_partial = allow_partial;
    config.on_event = Some(Box::new(|event| match event {
        OrchestratorEvent::CheckpointAdopted { shard } => {
            ui::note(format!("shard {shard}: adopted completed checkpoint"))
        }
        OrchestratorEvent::CheckpointInvalid { shard, reason } => {
            ui::warn(format!("shard {shard}: {reason} — re-running"))
        }
        OrchestratorEvent::ShardStarted {
            shard,
            attempt,
            worker,
        } => ui::note(format!(
            "worker {worker}: shard {shard} attempt {}",
            attempt + 1
        )),
        OrchestratorEvent::ShardCompleted { shard, attempt } => ui::note(format!(
            "shard {shard}: checkpoint written (attempt {})",
            attempt + 1
        )),
        OrchestratorEvent::ShardFailed {
            shard,
            attempt,
            error,
            retry_in,
        } => ui::warn(format!(
            "shard {shard} attempt {} failed: {error}; retrying in {:.2}s",
            attempt + 1,
            retry_in.as_secs_f64()
        )),
        OrchestratorEvent::ShardAbandoned { shard, error } => ui::warn(format!(
            "shard {shard} abandoned after exhausting its retries: {error}"
        )),
    }));

    ui::note(format!(
        "campaign `{}`: {} trials across {shards} shards (checkpoints in `{}`)",
        spec.name,
        spec.trial_count(),
        checkpoint_dir.display(),
    ));
    let outcome = match orchestrate(&spec, &config, &backend) {
        Ok(outcome) => outcome,
        Err(e) => {
            ui::error(e.to_string());
            return ExitCode::FAILURE;
        }
    };

    if outcome.missing.is_empty() {
        ui::note(format!(
            "orchestration complete: {} launches, {} retries, {} reassignments, \
             {} checkpoints adopted, {:.2}s",
            outcome.stats.launches,
            outcome.stats.retries,
            outcome.stats.reassignments,
            outcome.stats.checkpoints_adopted,
            outcome.stats.wall_seconds,
        ));
    } else {
        let total = spec.trial_count();
        let gaps: Vec<String> = outcome
            .missing
            .iter()
            .map(|shard| {
                let (lo, hi) = shard.slice(total);
                format!("{shard} (trials {lo}..{hi})")
            })
            .collect();
        ui::warn(format!(
            "merged a PARTIAL report — missing shards {}; checkpoints kept in `{}`, \
             rerun to fill the gaps",
            gaps.join(", "),
            checkpoint_dir.display(),
        ));
    }

    println!("{}", outcome.report.render_table());

    if let Some(path) = metrics_json {
        let doc = OrchestratorMetrics {
            orchestrator: outcome.stats.clone(),
            workers: outcome.worker_counters,
        };
        let json = serde_json::to_string_pretty(&doc).expect("metrics always serialise");
        if let Err(e) = std::fs::write(path, json) {
            ui::error(format!("cannot write `{path}`: {e}"));
            return ExitCode::FAILURE;
        }
        ui::note(format!("wrote orchestrator metrics to {path}"));
    }

    if !outputs.write(&outcome.report) {
        return ExitCode::FAILURE;
    }

    // A fully successful campaign no longer needs its checkpoints; a
    // partial one keeps them so a rerun resumes instead of restarting.
    if outcome.missing.is_empty() && !keep_checkpoints {
        for index in 0..shards {
            let shard = ShardInfo {
                index,
                count: shards,
            };
            let _ = std::fs::remove_file(checkpoint::checkpoint_path(&checkpoint_dir, shard));
        }
        let _ = std::fs::remove_dir_all(checkpoint_dir.join("work"));
        let _ = std::fs::remove_dir(&checkpoint_dir);
    }
    ExitCode::SUCCESS
}

fn cmd_merge(args: &[String]) -> ExitCode {
    let mut outputs = Outputs::default();
    let mut files: Vec<&str> = Vec::new();
    let mut metrics_files: Vec<&str> = Vec::new();
    let mut metrics_json: Option<&str> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => match take_value(args, &mut i) {
                Some(v) => outputs.json = Some(v),
                None => return usage_error("--out needs a value"),
            },
            "--csv" => match take_value(args, &mut i) {
                Some(v) => outputs.csv = Some(v),
                None => return usage_error("--csv needs a value"),
            },
            "--response-csv" => match take_value(args, &mut i) {
                Some(v) => outputs.response_csv = Some(v),
                None => return usage_error("--response-csv needs a value"),
            },
            "--latency-csv" => match take_value(args, &mut i) {
                Some(v) => outputs.latency_csv = Some(v),
                None => return usage_error("--latency-csv needs a value"),
            },
            "--metrics" => match take_value(args, &mut i) {
                Some(v) => metrics_files.push(v),
                None => return usage_error("--metrics needs a value"),
            },
            "--metrics-json" => match take_value(args, &mut i) {
                Some(v) => metrics_json = Some(v),
                None => return usage_error("--metrics-json needs a value"),
            },
            "--format" => match take_value(args, &mut i) {
                Some(v) => match ReportFormat::parse(v) {
                    Some(f) => outputs.format = f,
                    None => {
                        return value_error(&format!(
                            "invalid --format value `{v}`: expected `json` or `columnar`"
                        ))
                    }
                },
                None => return usage_error("--format needs a value"),
            },
            "-q" | "--quiet" => {}
            other if !other.starts_with('-') => files.push(other),
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    if files.is_empty() {
        return usage_error("merge needs at least one partial report file");
    }
    if metrics_json.is_some() && metrics_files.is_empty() {
        return usage_error("merge --metrics-json needs at least one --metrics input");
    }
    if metrics_json.is_none() && !metrics_files.is_empty() {
        return usage_error("merge --metrics needs --metrics-json for the folded output");
    }

    // Shards fold into the accumulator one at a time (columnar ones one
    // *scenario block* at a time), so peak memory is one resident shard
    // instead of the whole campaign's worth of partial reports.
    use std::io::{BufRead, Read};
    let mut fold = MergeFold::new();
    for (position, path) in files.iter().enumerate() {
        let read_error = |e: &std::io::Error| {
            ui::error(format!(
                "cannot read partial report `{path}` (input #{}): {e}",
                position + 1
            ));
            ExitCode::FAILURE
        };
        let complete_error = || {
            ui::error(format!(
                "`{path}` (input #{}) is a complete report, not a shard partial — \
                 merge only folds `run --shard` outputs",
                position + 1
            ));
            ExitCode::FAILURE
        };
        let parse_error = |shard_hint: String, e: &dyn std::fmt::Display| {
            ui::error(format!(
                "cannot parse partial report `{path}` (input #{}{shard_hint}): {e} — \
                 the file is truncated or corrupt; re-run that shard",
                position + 1
            ));
            ExitCode::FAILURE
        };
        let file = match std::fs::File::open(path) {
            Ok(file) => file,
            Err(e) => return read_error(&e),
        };
        let mut input = std::io::BufReader::new(file);
        let is_columnar = match input.fill_buf() {
            Ok(head) => head.starts_with(columnar::MAGIC.as_bytes()),
            Err(e) => return read_error(&e),
        };
        if is_columnar {
            let mut reader = match columnar::ColumnarReader::new(input) {
                Ok(reader) => reader,
                Err(e) => return parse_error(String::new(), &e),
            };
            let shard = reader.shard();
            if shard.is_none() {
                return complete_error();
            }
            if let Err(e) = fold.add_header(reader.spec(), shard) {
                ui::error(e.to_string());
                return ExitCode::FAILURE;
            }
            loop {
                match reader.next_block() {
                    Ok(Some((index, stats))) => {
                        if let Err(e) = fold.add_scenario(index, &stats) {
                            ui::error(e.to_string());
                            return ExitCode::FAILURE;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let shard_hint = shard.map(|s| format!(", shard {s}")).unwrap_or_default();
                        return parse_error(shard_hint, &e);
                    }
                }
            }
        } else {
            let mut text = String::new();
            if let Err(e) = input.read_to_string(&mut text) {
                return read_error(&e);
            }
            match serde_json::from_str::<CampaignReport>(&text) {
                Ok(part) => {
                    if part.shard.is_none() {
                        return complete_error();
                    }
                    if let Err(e) = fold.add_report(&part) {
                        ui::error(e.to_string());
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    // A truncated/corrupt partial should still name which
                    // shard it was, if the prefix survived far enough.
                    let shard_hint = guess_shard(&text)
                        .map(|s| format!(", shard {s}"))
                        .unwrap_or_default();
                    return parse_error(shard_hint, &e);
                }
            }
        }
    }

    let report = match fold.finish(false) {
        Ok(report) => report,
        Err(e) => {
            ui::error(e.to_string());
            return ExitCode::FAILURE;
        }
    };
    ui::note(format!(
        "merged campaign `{}`: {} scenarios, {} trials",
        report.spec.name,
        report.scenarios.len(),
        report.total_trials(),
    ));
    println!("{}", report.render_table());

    if let Some(out) = metrics_json {
        // Counter merge is commutative, so the input order of the shard
        // metrics files cannot change the deterministic half.
        let mut folded: Option<RunMetrics> = None;
        for path in metrics_files {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    ui::error(format!("cannot read `{path}`: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            let part: RunMetrics = match serde_json::from_str(&text) {
                Ok(part) => part,
                Err(e) => {
                    ui::error(format!("cannot parse `{path}`: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            folded = Some(match folded {
                Some(acc) => acc.merged(&part),
                None => part,
            });
        }
        let folded = folded.expect("checked non-empty above");
        if !write_metrics(&folded, out) {
            return ExitCode::FAILURE;
        }
    }

    if outputs.write(&report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_convert(args: &[String]) -> ExitCode {
    let mut input: Option<&str> = None;
    let mut from: Option<ReportFormat> = None;
    let mut to: Option<&str> = None;
    let mut out: Option<&str> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--from" => match take_value(args, &mut i) {
                Some(v) => match ReportFormat::parse(v) {
                    Some(f) => from = Some(f),
                    None => {
                        return value_error(&format!(
                            "invalid --from value `{v}`: expected `json` or `columnar`"
                        ))
                    }
                },
                None => return usage_error("--from needs a value"),
            },
            "--to" => match take_value(args, &mut i) {
                Some(v) => to = Some(v),
                None => return usage_error("--to needs a value"),
            },
            "--out" => match take_value(args, &mut i) {
                Some(v) => out = Some(v),
                None => return usage_error("--out needs a value"),
            },
            "-q" | "--quiet" => {}
            other if input.is_none() && !other.starts_with('-') => input = Some(other),
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let Some(input) = input else {
        return usage_error("convert needs a report file");
    };
    let Some(to) = to else {
        return usage_error(
            "convert needs --to (json, columnar, csv, response-csv or latency-csv)",
        );
    };

    let text = match std::fs::read_to_string(input) {
        Ok(text) => text,
        Err(e) => {
            ui::error(format!("cannot read `{input}`: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let Some(from) = from.or_else(|| ReportFormat::sniff(&text)) else {
        return value_error(&format!(
            "cannot tell the format of `{input}`: it starts with neither `{{` (JSON) \
             nor the columnar header; pass --from"
        ));
    };
    // Every conversion routes through the in-memory CampaignReport, so
    // any source format reaches any rendering and json <-> columnar is
    // exactly decode-then-encode (byte-identical both ways).
    let report = match from {
        ReportFormat::Json => match serde_json::from_str::<CampaignReport>(&text) {
            Ok(report) => report,
            Err(e) => {
                ui::error(format!("cannot parse `{input}` as a JSON report: {e}"));
                return ExitCode::FAILURE;
            }
        },
        ReportFormat::Columnar => match columnar::read_report_str(&text) {
            Ok(report) => report,
            Err(e) => {
                ui::error(format!("cannot parse `{input}` as a columnar report: {e}"));
                return ExitCode::FAILURE;
            }
        },
    };
    drop(text);

    let rendered = match to {
        "json" => report.to_json(),
        "columnar" => columnar::encode_report(&report),
        "csv" => report.to_csv(),
        "response-csv" => match report.response_csv() {
            Some(csv) => csv,
            None => {
                ui::error(
                    "--to response-csv needs a report whose spec enables `response_histogram`",
                );
                return ExitCode::FAILURE;
            }
        },
        "latency-csv" => match report.latency_csv() {
            Some(csv) => csv,
            None => {
                ui::error("--to latency-csv needs a report whose spec enables `latency_curves`");
                return ExitCode::FAILURE;
            }
        },
        other => {
            return value_error(&format!(
                "invalid --to value `{other}`: expected json, columnar, csv, \
                 response-csv or latency-csv"
            ))
        }
    };

    match out {
        Some(dest) => {
            if let Err(e) = std::fs::write(dest, rendered) {
                ui::error(format!("cannot write `{dest}`: {e}"));
                return ExitCode::FAILURE;
            }
            ui::note(format!(
                "converted `{input}` ({}) -> {to} at `{dest}`",
                from.label()
            ));
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut scenario_index: Option<usize> = None;
    let mut trial: Option<usize> = None;
    let mut trace_json: Option<&str> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) => scenario_index = Some(n),
                _ => return usage_error("--scenario needs an index"),
            },
            "--trial" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) => trial = Some(n),
                _ => return usage_error("--trial needs an index"),
            },
            "--trace-json" => match take_value(args, &mut i) {
                Some(v) => trace_json = Some(v),
                None => return usage_error("--trace-json needs a value"),
            },
            "-q" | "--quiet" => {}
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other);
            }
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let Some(spec_path) = spec_path else {
        return usage_error("inspect needs a spec file");
    };
    let (Some(scenario_index), Some(trial)) = (scenario_index, trial) else {
        return usage_error("inspect needs --scenario and --trial");
    };

    let spec = match load_spec(spec_path) {
        Ok(spec) => spec,
        Err(message) => {
            ui::error(message);
            return ExitCode::FAILURE;
        }
    };
    let scenarios = spec.scenarios();
    let Some(scenario) = scenarios.get(scenario_index) else {
        ui::error(format!(
            "scenario index {scenario_index} out of range (grid has {} scenarios)",
            scenarios.len()
        ));
        return ExitCode::FAILURE;
    };
    if trial >= spec.trials_per_scenario {
        ui::error(format!(
            "trial index {trial} out of range ({} trials per scenario)",
            spec.trials_per_scenario
        ));
        return ExitCode::FAILURE;
    }

    // The traced path is the campaign trial kernel with recording on:
    // the outcome (stdout JSON) matches the campaign's byte for byte.
    let (outcome, full) = run_trial_traced(&spec, scenario, trial);
    ui::note(format!(
        "scenario {scenario_index} trial {trial}: status {:?}, seed {}",
        outcome.status, outcome.seed
    ));
    match serde_json::to_string_pretty(&outcome) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            ui::error(format!("cannot serialise the trial outcome: {e}"));
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = trace_json {
        let trace = full.as_ref().and_then(|f| f.simulation.trace.as_ref());
        let Some(trace) = trace else {
            ui::error(format!(
                "no execution trace: trial status is {:?} (only accepted \
                 design_and_validate trials simulate)",
                outcome.status
            ));
            return ExitCode::FAILURE;
        };
        let json = serde_json::to_string_pretty(trace).expect("traces always serialise");
        if let Err(e) = std::fs::write(path, json) {
            ui::error(format!("cannot write `{path}`: {e}"));
            return ExitCode::FAILURE;
        }
        ui::note(format!(
            "wrote execution trace ({} slices, {} job records) to {path}",
            trace.slices.len(),
            trace.jobs.len()
        ));
    }
    ExitCode::SUCCESS
}

fn cmd_metrics_strip(args: &[String]) -> ExitCode {
    let files: Vec<&String> = args
        .iter()
        .filter(|a| !matches!(a.as_str(), "-q" | "--quiet"))
        .collect();
    let [path] = files.as_slice() else {
        return usage_error("metrics-strip needs exactly one metrics file");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            ui::error(format!("cannot read `{path}`: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let metrics: RunMetrics = match serde_json::from_str(&text) {
        Ok(metrics) => metrics,
        Err(e) => {
            ui::error(format!("cannot parse `{path}`: {e}"));
            return ExitCode::FAILURE;
        }
    };
    // Only the deterministic half survives: the output is suitable for
    // byte comparison across thread counts and shard splits.
    match serde_json::to_string_pretty(&metrics.counters) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            ui::error(format!("cannot serialise the counter half: {e}"));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    use ftsched_serve::{AdmissionEngine, EngineConfig, DEFAULT_MAX_FRAME_BYTES};

    let mut replay_file: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut socket: Option<&str> = None;
    let mut summary_json: Option<&str> = None;
    let mut batch_size: usize = 32;
    let mut max_frame_bytes: usize = DEFAULT_MAX_FRAME_BYTES;
    let mut config = EngineConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--replay" => match take_value(args, &mut i) {
                Some(v) => replay_file = Some(v),
                None => return usage_error("--replay needs a value"),
            },
            "--out" => match take_value(args, &mut i) {
                Some(v) => out = Some(v),
                None => return usage_error("--out needs a value"),
            },
            "--socket" => match take_value(args, &mut i) {
                Some(v) => socket = Some(v),
                None => return usage_error("--socket needs a value"),
            },
            "--summary-json" => match take_value(args, &mut i) {
                Some(v) => summary_json = Some(v),
                None => return usage_error("--summary-json needs a value"),
            },
            "--threads" => match take_value(args, &mut i) {
                Some(v) => match v.parse::<usize>() {
                    // The vendor rayon shim reads the worker count per
                    // call, so setting it here covers every batch.
                    Ok(n) if n >= 1 => std::env::set_var("RAYON_NUM_THREADS", n.to_string()),
                    _ => return usage_error(&format!("invalid --threads value `{v}`")),
                },
                None => return usage_error("--threads needs a value"),
            },
            "--batch-size" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) if n >= 1 => batch_size = n,
                _ => return usage_error("--batch-size needs a number >= 1"),
            },
            "--max-frame-bytes" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) if n >= 1 => max_frame_bytes = n,
                _ => return usage_error("--max-frame-bytes needs a number >= 1"),
            },
            "--cache-capacity" => match take_value(args, &mut i).map(str::parse) {
                Some(Ok(n)) if n >= 1 => config.cache_capacity = n,
                _ => return usage_error("--cache-capacity needs a number >= 1"),
            },
            "--no-cache" => config.cache = false,
            "-q" | "--quiet" => {}
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    if socket.is_some() && replay_file.is_some() {
        return usage_error("--socket and --replay are mutually exclusive");
    }

    let engine = AdmissionEngine::new(config);

    if let Some(path) = replay_file {
        let log = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                ui::error(format!("cannot read `{path}`: {e}"));
                return ExitCode::FAILURE;
            }
        };
        let stats = if let Some(out_path) = out {
            let mut transcript = Vec::new();
            match ftsched_serve::replay(&engine, &log, &mut transcript, batch_size) {
                Ok(stats) => {
                    if let Err(e) = std::fs::write(out_path, &transcript) {
                        ui::error(format!("cannot write `{out_path}`: {e}"));
                        return ExitCode::FAILURE;
                    }
                    stats
                }
                Err(e) => {
                    ui::error(format!("replay failed: {e}"));
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            match ftsched_serve::replay(&engine, &log, &mut lock, batch_size) {
                Ok(stats) => stats,
                Err(e) => {
                    ui::error(format!("replay failed: {e}"));
                    return ExitCode::FAILURE;
                }
            }
        };
        ui::note(format!(
            "replayed {} requests -> {} responses",
            stats.requests, stats.responses
        ));
        return finish_serve(&engine, summary_json);
    }

    if let Some(path) = socket {
        #[cfg(unix)]
        {
            // A stale socket file from a previous run would make bind
            // fail with AddrInUse even though nobody is listening.
            let _ = std::fs::remove_file(path);
            let listener = match std::os::unix::net::UnixListener::bind(path) {
                Ok(listener) => listener,
                Err(e) => {
                    ui::error(format!("cannot bind `{path}`: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            ui::note(format!("listening on `{path}`"));
            let engine = std::sync::Arc::new(engine);
            if let Err(e) = ftsched_serve::serve_unix(&engine, &listener, max_frame_bytes) {
                ui::error(format!("accept failed: {e}"));
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        #[cfg(not(unix))]
        {
            ui::error(format!(
                "--socket `{path}` is only supported on unix platforms"
            ));
            return ExitCode::FAILURE;
        }
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    match ftsched_serve::serve_stream(&engine, &mut reader, &mut writer, max_frame_bytes) {
        Ok(stats) => {
            ui::note(format!(
                "served {} responses ({} protocol errors)",
                stats.responses, stats.protocol_errors
            ));
            finish_serve(&engine, summary_json)
        }
        Err(e) => {
            ui::error(format!("stream failed: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// Reports the engine summary (stderr note + optional JSON file) and
/// converts it into the subcommand's exit status.
fn finish_serve(engine: &ftsched_serve::AdmissionEngine, summary_json: Option<&str>) -> ExitCode {
    let summary = engine.summary();
    ui::note(format!(
        "admitted {} / rejected {} / errors {}; latency p50 {:.0} us, p95 {:.0} us, \
         p99 {:.0} us; admission cache {}/{} hits, context cache {}/{} hits",
        summary.admitted,
        summary.rejected,
        summary.errors,
        summary.latency_p50_us,
        summary.latency_p95_us,
        summary.latency_p99_us,
        summary.admission_cache_hits,
        summary.admission_cache_hits + summary.admission_cache_misses,
        summary.context_cache_hits,
        summary.context_cache_hits + summary.context_cache_misses,
    ));
    if let Some(path) = summary_json {
        let json = match serde_json::to_string_pretty(&summary) {
            Ok(json) => json,
            Err(e) => {
                ui::error(format!("cannot serialise the serve summary: {e}"));
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, json + "\n") {
            ui::error(format!("cannot write `{path}`: {e}"));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_bench(args: &[String]) -> ExitCode {
    use ftsched_bench::perf::{
        check_minq_contract, check_sensitivity_contract, check_serve_contract, check_sim_contract,
        render_summary, run_minq_bench, run_sensitivity_bench, run_serve_bench, run_sim_bench,
        write_report,
    };

    let quick = args.iter().any(|a| a == "--quick");
    let only_minq = args.iter().any(|a| a == "--minq");
    let only_sim = args.iter().any(|a| a == "--sim");
    let only_sensitivity = args.iter().any(|a| a == "--sensitivity");
    let only_serve = args.iter().any(|a| a == "--serve");
    if let Some(bad) = args.iter().find(|a| {
        !matches!(
            a.as_str(),
            "--quick" | "--minq" | "--sim" | "--sensitivity" | "--serve" | "-q" | "--quiet"
        )
    }) {
        return usage_error(&format!("unexpected argument `{bad}`"));
    }
    let any_selected = only_minq || only_sim || only_sensitivity || only_serve;
    let run_minq = only_minq || !any_selected;
    let run_sim = only_sim || !any_selected;
    let run_sensitivity = only_sensitivity || !any_selected;
    let run_serve = only_serve || !any_selected;

    let mut failed = false;
    for (enabled, file, report) in [
        (run_minq, "BENCH_minq.json", run_minq_bench as fn(bool) -> _),
        (
            run_sensitivity,
            "BENCH_sensitivity.json",
            run_sensitivity_bench as fn(bool) -> _,
        ),
        (run_sim, "BENCH_sim.json", run_sim_bench as fn(bool) -> _),
        (
            run_serve,
            "BENCH_serve.json",
            run_serve_bench as fn(bool) -> _,
        ),
    ] {
        if !enabled {
            continue;
        }
        let report = report(quick);
        print!("{}", render_summary(&report));
        println!("{}", report.to_json());
        match write_report(&report, file) {
            Ok(path) => ui::note(format!("wrote {}", path.display())),
            Err(e) => {
                ui::error(format!("cannot write `{file}`: {e}"));
                failed = true;
            }
        }
        let contract = match report.bench.as_str() {
            "minq" => Some(check_minq_contract(&report)),
            "sensitivity" => Some(check_sensitivity_contract(&report)),
            "serve" => Some(check_serve_contract(&report)),
            "sim" => Some(check_sim_contract(&report)),
            _ => None,
        };
        if let Some(Err(violation)) = contract {
            ui::error(format!("PERF CONTRACT VIOLATED: {violation}"));
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let files: Vec<&String> = args
        .iter()
        .filter(|a| !matches!(a.as_str(), "-q" | "--quiet"))
        .collect();
    let Some(path) = files.first() else {
        return usage_error("validate needs a spec file");
    };
    match load_spec(path) {
        Ok(spec) => {
            let algorithms = spec.algorithms.len();
            let overheads = spec.effective_overheads().len();
            let heuristics = spec.effective_partition_heuristics().len();
            let workload_points =
                spec.scenarios().len() / (algorithms * overheads * heuristics).max(1);
            println!(
                "`{}` is valid: {} scenarios ({algorithms} algorithms x \
                 {overheads} overheads x {heuristics} heuristics x \
                 {workload_points} workload points), \
                 {} trials per scenario, {} trials total",
                spec.name,
                spec.scenarios().len(),
                spec.trials_per_scenario,
                spec.trial_count(),
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            ui::error(message);
            ExitCode::FAILURE
        }
    }
}

fn load_spec(path: &str) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec: CampaignSpec =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))?;
    spec.validate().map_err(|e| format!("`{path}`: {e}"))?;
    Ok(spec)
}

fn take_value<'a>(args: &'a [String], i: &mut usize) -> Option<&'a str> {
    *i += 1;
    args.get(*i).map(String::as_str)
}

fn usage_error(message: &str) -> ExitCode {
    ui::error(format!("{message}\n\n{USAGE}"));
    ExitCode::FAILURE
}

/// A one-line rejection of a bad argument *value*: just the reason,
/// without re-printing the whole usage text (the flag was right, its
/// value was not).
fn value_error(message: &str) -> ExitCode {
    ui::error(message);
    ExitCode::FAILURE
}

/// Best-effort shard-coordinate extraction from a report that no longer
/// parses: scans the raw text for the `"shard": {"index": i, "count": n}`
/// block wherever it survives in the damaged text (it serialises after
/// the scenario rows, so mid-file corruption usually leaves it intact).
fn guess_shard(text: &str) -> Option<String> {
    let at = text.find("\"shard\"")?;
    let window = text
        .get(at..(at + 256).min(text.len()))
        .unwrap_or(&text[at..]);
    let number_after = |key: &str| -> Option<u64> {
        let start = window.find(key)? + key.len();
        let rest = window[start..].trim_start_matches([':', ' ', '\t', '\n', '\r']);
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .map_or(rest, |end| &rest[..end]);
        digits.parse().ok()
    };
    Some(format!(
        "{}/{}",
        number_after("\"index\"")?,
        number_after("\"count\"")?
    ))
}

/// The spec printed by `ftsched example` — built in code so it can never
/// drift out of sync with the schema.
fn example_spec() -> CampaignSpec {
    CampaignSpec {
        trials_per_scenario: 25,
        utilizations: (4..=30).step_by(2).map(|u| u as f64 / 10.0).collect(),
        algorithms: vec![Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
        region_samples: Some(300),
        region_refine_iterations: Some(10),
        ..CampaignSpec::base("example-acceptance-ratio")
    }
}

//! `ftsched` — run experiment campaigns from declarative spec files.
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
//! byte-identical at any `--batch-size` (the golden-file contract).
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
//!
//! The help text below is the one description of the command line; the
//! subcommands parse their arguments by hand with [`args::Cursor`] and
//! report every failure as an [`args::CliError`] that `main` prints.

mod args;
mod ui;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ftsched_campaign::prelude::*;
use ftsched_campaign::{checkpoint, columnar, LocalProcessBackend, MergeFold, OrchestratorMetrics};
use ftsched_serve::{AdmissionEngine, EngineConfig, DEFAULT_MAX_FRAME_BYTES};

use args::{fail, positional, unexpected, usage, CliError, Cursor};

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
                        --batch-size
    --out <FILE>        replay transcript destination (default: stdout)
    --socket <PATH>     bind a unix socket and serve every connection
                        (default: one framed stream on stdin/stdout)
    --batch-size <N>    requests decided per replay batch (default: 32);
                        a batch is decided by min(cores, N) workers, and
                        the next batch starts once all of it is decided
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
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("orchestrate") => cmd_orchestrate(rest),
        Some("merge") => cmd_merge(rest),
        Some("convert") => cmd_convert(rest),
        Some("inspect") => cmd_inspect(rest),
        Some("metrics-strip") => cmd_metrics_strip(rest),
        Some("validate") => cmd_validate(rest),
        Some("serve") => cmd_serve(rest),
        Some("bench") => cmd_bench(rest),
        Some("example") => serde_json::to_string_pretty(&example_spec())
            .map(|json| println!("{json}"))
            .map_err(|e| fail(format!("cannot serialise the example spec: {e}"))),
        Some("--help" | "-h" | "help") | None => Err(CliError::Help),
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
    };
    let message = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Usage(message)) => format!("{message}\n\n{USAGE}"),
        Err(CliError::Failed(message)) => message,
    };
    ui::error(message);
    ExitCode::FAILURE
}

/// Where `run`, `orchestrate` and `merge` send what they produce: the
/// report renderings and the `--metrics-json` document.
#[derive(Default)]
struct ReportSinks<'a> {
    out: Option<&'a str>,
    csv: Option<&'a str>,
    response_csv: Option<&'a str>,
    latency_csv: Option<&'a str>,
    /// Each subcommand writes its own metrics document here.
    metrics_json: Option<&'a str>,
    /// Encoding for the `out` destination (`--format`).
    format: ReportFormat,
}

impl<'a> ReportSinks<'a> {
    /// Consumes `flag` and its value if it is one of the six shared
    /// output flags; returns whether it was.
    fn take(&mut self, flag: &str, args: &mut Cursor<'a>) -> Result<bool, CliError> {
        let slot = match flag {
            "--out" => &mut self.out,
            "--csv" => &mut self.csv,
            "--response-csv" => &mut self.response_csv,
            "--latency-csv" => &mut self.latency_csv,
            "--metrics-json" => &mut self.metrics_json,
            "--format" => {
                self.format = report_format(flag, args)?;
                return Ok(true);
            }
            _ => return Ok(false),
        };
        *slot = Some(args.value(flag)?);
        Ok(true)
    }

    /// Rejects a CSV sink the spec cannot fill: each of the two exists
    /// only for specs that enable its metric. `run` and `orchestrate`
    /// call this right after loading the spec, before any trial runs;
    /// `write` calls it before its first file.
    fn check(&self, spec: &CampaignSpec) -> Result<(), CliError> {
        let (flag, field) = if self.response_csv.is_some() && spec.response_histogram.is_none() {
            ("--response-csv", "response_histogram")
        } else if self.latency_csv.is_some() && spec.latency_curves.is_none() {
            ("--latency-csv", "latency_curves")
        } else {
            return Ok(());
        };
        Err(fail(format!("{flag} needs a spec with `{field}` enabled")))
    }

    /// Renders the report in the `--format` encoding (for `--out`).
    fn render(&self, report: &CampaignReport) -> String {
        match self.format {
            ReportFormat::Json => report.to_json(),
            ReportFormat::Columnar => columnar::encode_report(report),
        }
    }

    /// Writes the requested report files, stopping at the first failure.
    fn write(&self, report: &CampaignReport) -> Result<(), CliError> {
        self.check(&report.spec)?;
        if let Some(path) = self.out {
            let what = format!("{} report", self.format.label());
            write_file(path, self.render(report), Some(&what))?;
        }
        if let Some(path) = self.csv {
            write_file(path, report.to_csv(), Some("CSV report"))?;
        }
        if let Some(path) = self.response_csv {
            let csv = report.response_csv().expect("checked against the spec");
            write_file(path, csv, Some("response-time CSV"))?;
        }
        if let Some(path) = self.latency_csv {
            let csv = report.latency_csv().expect("checked against the spec");
            write_file(path, csv, Some("latency-vs-load CSV"))?;
        }
        Ok(())
    }
}

/// Parses the `json|columnar` value of `--format` or `--from`.
fn report_format(flag: &str, args: &mut Cursor) -> Result<ReportFormat, CliError> {
    let value = args.value(flag)?;
    ReportFormat::parse(value).ok_or_else(|| {
        fail(format!(
            "invalid {flag} value `{value}`: expected `json` or `columnar`"
        ))
    })
}

/// Writes one output file; `what`, if given, names it in a
/// `wrote … to PATH` note.
fn write_file(path: &str, bytes: impl AsRef<[u8]>, what: Option<&str>) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| fail(format!("cannot write `{path}`: {e}")))?;
    if let Some(what) = what {
        ui::note(format!("wrote {what} to {path}"));
    }
    Ok(())
}

fn read_text(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read `{path}`: {e}")))
}

fn read_metrics(path: &str) -> Result<RunMetrics, CliError> {
    serde_json::from_str(&read_text(path)?).map_err(|e| fail(format!("cannot parse `{path}`: {e}")))
}

fn write_metrics(metrics: &RunMetrics, path: &str) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(metrics).expect("metrics always serialise");
    write_file(path, json, Some("run metrics"))
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let mut spec_path = None;
    let mut exec = ExecutorConfig::default();
    let mut sinks = ReportSinks::default();
    let mut shard: Option<ShardInfo> = None;

    let mut args = Cursor::new(args);
    while let Some(arg) = args.next_arg()? {
        if sinks.take(arg, &mut args)? {
            continue;
        }
        match arg {
            "--threads" => exec.threads = args.parse(arg)?,
            "--block-size" => exec.block_size = args.count(arg)?,
            "--shard" => {
                let value = args.value(arg)?;
                let invalid = |reason| fail(format!("invalid --shard value `{value}`: {reason}"));
                shard = Some(ShardInfo::parse_detailed(value).map_err(invalid)?);
            }
            "--progress" => exec.heartbeat = true,
            "--no-design-cache" => exec.design_cache = false,
            other => positional(&mut spec_path, other)?,
        }
    }
    let spec_path = spec_path.ok_or_else(|| usage("run needs a spec file"))?;
    // Progress lines are informational output too.
    exec.progress = !ui::quiet();
    exec.heartbeat &= exec.progress;

    let spec = load_spec(spec_path)?;
    sinks.check(&spec)?;

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
    let (report, metrics) = run_campaign_recorded(&spec, &exec, shard).map_err(fail)?;
    let elapsed = metrics.timing.wall_seconds;
    let trials = report.total_trials();
    ui::note(format!(
        "completed {trials} trials in {elapsed:.2}s ({:.0} trials/s)",
        trials as f64 / elapsed.max(1e-9)
    ));
    if shard.is_some() && sinks.out.is_none() {
        ui::warn(
            "partial (shard) reports are meant to be saved with --out and folded with `ftsched merge`",
        );
    }

    println!("{}", report.render_table());

    if let Some(path) = sinks.metrics_json {
        write_metrics(&metrics, path)?;
    }

    if let Some(FaultAction::Corrupt) = fault {
        // Claim success while handing the supervisor a truncated report:
        // exactly the failure mode the orchestrator's output validation
        // and checkpoint integrity footer exist to catch.
        ui::warn("FTSCHED_ORCH_FAULT: writing a corrupt report for this shard");
        if let Some(path) = sinks.out {
            let rendered = sinks.render(&report);
            let _ = std::fs::write(path, &rendered[..rendered.len() / 2]);
        }
        return Ok(());
    }

    sinks.write(&report)
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
    raw.split(',').find_map(|item| {
        let (action, index) = item.trim().split_once(':')?;
        if index.trim().parse() != Ok(shard.index) {
            return None;
        }
        match action.trim() {
            "kill" => Some(FaultAction::Kill),
            "stall" => Some(FaultAction::Stall),
            "corrupt" => Some(FaultAction::Corrupt),
            _ => None,
        }
    })
}

fn cmd_orchestrate(args: &[String]) -> Result<(), CliError> {
    let mut spec_path = None;
    // `--shards` rejects 0, so a count of 0 means the flag is missing.
    let mut config = OrchestratorConfig::new(0, PathBuf::new());
    let mut worker_threads = 0;
    let mut keep_checkpoints = false;
    let mut checkpoint_dir: Option<&str> = None;
    let mut sinks = ReportSinks::default();

    let mut args = Cursor::new(args);
    while let Some(arg) = args.next_arg()? {
        if sinks.take(arg, &mut args)? {
            continue;
        }
        match arg {
            "--shards" => {
                let value = args.value(arg)?;
                config.shards = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    fail(format!(
                        "invalid --shards value `{value}`: expected a positive shard count"
                    ))
                })?;
            }
            "--workers" => config.workers = args.parse(arg)?,
            "--worker-threads" => worker_threads = args.parse(arg)?,
            "--max-retries" => config.max_retries = args.parse(arg)?,
            "--backoff-ms" => config.backoff_base_ms = args.parse::<u64>(arg)?.max(1),
            "--timeout-secs" => {
                let secs = args.parse(arg)?;
                config.shard_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--checkpoint-dir" => checkpoint_dir = Some(args.value(arg)?),
            "--allow-partial" => config.allow_partial = true,
            "--keep-checkpoints" => keep_checkpoints = true,
            other => positional(&mut spec_path, other)?,
        }
    }
    let spec_path = spec_path.ok_or_else(|| usage("orchestrate needs a spec file"))?;
    if config.shards == 0 {
        return Err(usage("orchestrate needs --shards"));
    }

    let spec = load_spec(spec_path)?;
    sinks.check(&spec)?;
    let program = std::env::current_exe()
        .map_err(|e| fail(format!("cannot locate the ftsched binary to spawn: {e}")))?;
    config.checkpoint_dir =
        checkpoint_dir.map_or_else(|| format!("{spec_path}.ckpt").into(), PathBuf::from);

    let backend = LocalProcessBackend {
        program,
        spec_path: PathBuf::from(spec_path),
        worker_threads,
        format: sinks.format,
    };
    config.format = sinks.format;
    config.jitter_seed = spec.master_seed;
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
        "campaign `{}`: {} trials across {} shards (checkpoints in `{}`)",
        spec.name,
        spec.trial_count(),
        config.shards,
        config.checkpoint_dir.display(),
    ));
    let outcome = orchestrate(&spec, &config, &backend).map_err(fail)?;

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
            config.checkpoint_dir.display(),
        ));
    }

    println!("{}", outcome.report.render_table());

    if let Some(path) = sinks.metrics_json {
        let doc = OrchestratorMetrics {
            orchestrator: outcome.stats.clone(),
            workers: outcome.worker_counters,
        };
        let json = serde_json::to_string_pretty(&doc).expect("metrics always serialise");
        write_file(path, json, Some("orchestrator metrics"))?;
    }

    sinks.write(&outcome.report)?;

    // A fully successful campaign no longer needs its checkpoints; a
    // partial one keeps them so a rerun resumes instead of restarting.
    if outcome.missing.is_empty() && !keep_checkpoints {
        let (count, dir) = (config.shards, &config.checkpoint_dir);
        for shard in (0..count).map(|index| ShardInfo { index, count }) {
            let _ = std::fs::remove_file(checkpoint::checkpoint_path(dir, shard));
        }
        let _ = std::fs::remove_dir_all(dir.join("work"));
        let _ = std::fs::remove_dir(dir);
    }
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), CliError> {
    let mut sinks = ReportSinks::default();
    let mut files = Vec::new();
    let mut metrics_files = Vec::new();

    let mut args = Cursor::new(args);
    while let Some(arg) = args.next_arg()? {
        if sinks.take(arg, &mut args)? {
            continue;
        }
        match arg {
            "--metrics" => metrics_files.push(args.value(arg)?),
            other if !other.starts_with('-') => files.push(other),
            other => return Err(unexpected(other)),
        }
    }
    if files.is_empty() {
        return Err(usage("merge needs at least one partial report file"));
    }
    // The --metrics inputs and the --metrics-json output come together.
    if sinks.metrics_json.is_some() == metrics_files.is_empty() {
        return Err(usage(match sinks.metrics_json {
            Some(_) => "merge --metrics-json needs at least one --metrics input",
            None => "merge --metrics needs --metrics-json for the folded output",
        }));
    }

    // Shards fold into the accumulator one at a time (columnar ones one
    // *scenario block* at a time), so peak memory is one resident shard
    // instead of the whole campaign's worth of partial reports.
    let mut fold = MergeFold::new();
    for (position, path) in files.iter().enumerate() {
        fold_partial(&mut fold, path, position + 1)?;
    }

    let report = fold.finish(false).map_err(fail)?;
    ui::note(format!(
        "merged campaign `{}`: {} scenarios, {} trials",
        report.spec.name,
        report.scenarios.len(),
        report.total_trials(),
    ));
    println!("{}", report.render_table());

    if let Some(out) = sinks.metrics_json {
        // Counter merge is commutative, so the input order of the shard
        // metrics files cannot change the deterministic half.
        let mut folded = read_metrics(metrics_files[0])?;
        for path in &metrics_files[1..] {
            folded = folded.merged(&read_metrics(path)?);
        }
        write_metrics(&folded, out)?;
    }

    sinks.write(&report)
}

/// Folds the partial report at `path`, merge input number `number`, into
/// `fold`. Every error names the file and its input number.
fn fold_partial(fold: &mut MergeFold, path: &str, number: usize) -> Result<(), CliError> {
    use std::io::{BufRead, Read};
    let read_error = |e: std::io::Error| {
        fail(format!(
            "cannot read partial report `{path}` (input #{number}): {e}"
        ))
    };
    let complete_error = || {
        fail(format!(
            "`{path}` (input #{number}) is a complete report, not a shard partial — \
             merge only folds `run --shard` outputs"
        ))
    };
    let parse_error = |shard: Option<String>, e: &dyn std::fmt::Display| {
        let shard_hint = shard.map(|s| format!(", shard {s}")).unwrap_or_default();
        fail(format!(
            "cannot parse partial report `{path}` (input #{number}{shard_hint}): {e} — \
             the file is truncated or corrupt; re-run that shard"
        ))
    };

    let file = std::fs::File::open(path).map_err(read_error)?;
    let mut input = std::io::BufReader::new(file);
    let head = input.fill_buf().map_err(read_error)?;
    if head.starts_with(columnar::MAGIC.as_bytes()) {
        let mut reader = columnar::ColumnarReader::new(input).map_err(|e| parse_error(None, &e))?;
        let shard = reader.shard().ok_or_else(complete_error)?;
        fold.add_header(reader.spec(), Some(shard)).map_err(fail)?;
        while let Some((index, stats)) = reader
            .next_block()
            .map_err(|e| parse_error(Some(shard.to_string()), &e))?
        {
            fold.add_scenario(index, &stats).map_err(fail)?;
        }
    } else {
        let mut text = String::new();
        input.read_to_string(&mut text).map_err(read_error)?;
        // A truncated/corrupt partial should still name which shard it
        // was, if the prefix survived far enough.
        let part: CampaignReport =
            serde_json::from_str(&text).map_err(|e| parse_error(guess_shard(&text), &e))?;
        if part.shard.is_none() {
            return Err(complete_error());
        }
        fold.add_report(&part).map_err(fail)?;
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), CliError> {
    let (mut input, mut from, mut to, mut out) = (None, None, None, None);

    let mut args = Cursor::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg {
            "--from" => from = Some(report_format(arg, &mut args)?),
            "--to" => to = Some(args.value(arg)?),
            "--out" => out = Some(args.value(arg)?),
            other => positional(&mut input, other)?,
        }
    }
    let input = input.ok_or_else(|| usage("convert needs a report file"))?;
    let to = to.ok_or_else(|| {
        usage("convert needs --to (json, columnar, csv, response-csv or latency-csv)")
    })?;

    let text = read_text(input)?;
    let from = from.or_else(|| ReportFormat::sniff(&text)).ok_or_else(|| {
        fail(format!(
            "cannot tell the format of `{input}`: it starts with neither `{{` (JSON) \
             nor the columnar header; pass --from"
        ))
    })?;
    // Every conversion routes through the in-memory CampaignReport, so
    // any source format reaches any rendering and json <-> columnar is
    // exactly decode-then-encode (byte-identical both ways).
    let report = match from {
        ReportFormat::Json => serde_json::from_str::<CampaignReport>(&text)
            .map_err(|e| fail(format!("cannot parse `{input}` as a JSON report: {e}")))?,
        ReportFormat::Columnar => columnar::read_report_str(&text)
            .map_err(|e| fail(format!("cannot parse `{input}` as a columnar report: {e}")))?,
    };
    drop(text);

    let rendered = match to {
        "json" => report.to_json(),
        "columnar" => columnar::encode_report(&report),
        "csv" => report.to_csv(),
        "response-csv" => report.response_csv().ok_or_else(|| {
            fail("--to response-csv needs a report whose spec enables `response_histogram`")
        })?,
        "latency-csv" => report.latency_csv().ok_or_else(|| {
            fail("--to latency-csv needs a report whose spec enables `latency_curves`")
        })?,
        other => {
            return Err(fail(format!(
                "invalid --to value `{other}`: expected json, columnar, csv, \
                 response-csv or latency-csv"
            )))
        }
    };

    match out {
        Some(dest) => {
            write_file(dest, rendered, None)?;
            ui::note(format!(
                "converted `{input}` ({}) -> {to} at `{dest}`",
                from.label()
            ));
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    let (mut spec_path, mut scenario_index, mut trial, mut trace_json) = (None, None, None, None);

    let mut args = Cursor::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg {
            "--scenario" => scenario_index = Some(args.parse::<usize>(arg)?),
            "--trial" => trial = Some(args.parse::<usize>(arg)?),
            "--trace-json" => trace_json = Some(args.value(arg)?),
            other => positional(&mut spec_path, other)?,
        }
    }
    let spec_path = spec_path.ok_or_else(|| usage("inspect needs a spec file"))?;
    let (Some(scenario_index), Some(trial)) = (scenario_index, trial) else {
        return Err(usage("inspect needs --scenario and --trial"));
    };

    let spec = load_spec(spec_path)?;
    let scenarios = spec.scenarios();
    let scenario = scenarios.get(scenario_index).ok_or_else(|| {
        fail(format!(
            "scenario index {scenario_index} out of range (grid has {} scenarios)",
            scenarios.len()
        ))
    })?;
    if trial >= spec.trials_per_scenario {
        return Err(fail(format!(
            "trial index {trial} out of range ({} trials per scenario)",
            spec.trials_per_scenario
        )));
    }

    // The traced path is the campaign trial kernel with recording on:
    // the outcome (stdout JSON) matches the campaign's byte for byte.
    let (outcome, full) = run_trial_traced(&spec, scenario, trial);
    ui::note(format!(
        "scenario {scenario_index} trial {trial}: status {:?}, seed {}",
        outcome.status, outcome.seed
    ));
    let json = serde_json::to_string_pretty(&outcome)
        .map_err(|e| fail(format!("cannot serialise the trial outcome: {e}")))?;
    println!("{json}");

    if let Some(path) = trace_json {
        let trace = full.as_ref().and_then(|f| f.simulation.trace.as_ref());
        let trace = trace.ok_or_else(|| {
            fail(format!(
                "no execution trace: trial status is {:?} (only accepted \
                 design_and_validate trials simulate)",
                outcome.status
            ))
        })?;
        let json = serde_json::to_string_pretty(trace).expect("traces always serialise");
        let what = format!(
            "execution trace ({} slices, {} job records)",
            trace.slices.len(),
            trace.jobs.len()
        );
        write_file(path, json, Some(&what))?;
    }
    Ok(())
}

fn cmd_metrics_strip(args: &[String]) -> Result<(), CliError> {
    let path = Cursor::new(args).lone_path("metrics-strip needs exactly one metrics file")?;
    let metrics = read_metrics(path)?;
    // Only the deterministic half survives: the output is suitable for
    // byte comparison across thread counts and shard splits.
    let json = serde_json::to_string_pretty(&metrics.counters)
        .map_err(|e| fail(format!("cannot serialise the counter half: {e}")))?;
    println!("{json}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (mut replay_file, mut out, mut socket, mut summary_json) = (None, None, None, None);
    let mut batch_size = 32;
    let mut max_frame_bytes = DEFAULT_MAX_FRAME_BYTES;
    let mut config = EngineConfig::default();

    let mut args = Cursor::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg {
            "--replay" => replay_file = Some(args.value(arg)?),
            "--out" => out = Some(args.value(arg)?),
            "--socket" => socket = Some(args.value(arg)?),
            "--summary-json" => summary_json = Some(args.value(arg)?),
            "--batch-size" => batch_size = args.count(arg)?,
            "--max-frame-bytes" => max_frame_bytes = args.count(arg)?,
            "--cache-capacity" => config.cache_capacity = args.count(arg)?,
            "--no-cache" => config.cache = false,
            other => return Err(unexpected(other)),
        }
    }
    if socket.is_some() && replay_file.is_some() {
        return Err(usage("--socket and --replay are mutually exclusive"));
    }
    if out.is_some() && replay_file.is_none() {
        return Err(usage("serve --out needs --replay"));
    }

    let engine = AdmissionEngine::new(config);

    if let Some(path) = replay_file {
        let log = read_text(path)?;
        let replay_error = |e: std::io::Error| fail(format!("replay failed: {e}"));
        let stats = match out {
            Some(out_path) => {
                let mut transcript = Vec::new();
                let stats = ftsched_serve::replay(&engine, &log, &mut transcript, batch_size)
                    .map_err(replay_error)?;
                write_file(out_path, transcript, None)?;
                stats
            }
            None => ftsched_serve::replay(&engine, &log, &mut std::io::stdout().lock(), batch_size)
                .map_err(replay_error)?,
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
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| fail(format!("cannot bind `{path}`: {e}")))?;
            ui::note(format!("listening on `{path}`"));
            let engine = std::sync::Arc::new(engine);
            return ftsched_serve::serve_unix(&engine, &listener, max_frame_bytes)
                .map_err(|e| fail(format!("accept failed: {e}")));
        }
        #[cfg(not(unix))]
        {
            return Err(fail(format!(
                "--socket `{path}` is only supported on unix platforms"
            )));
        }
    }

    let stats = ftsched_serve::serve_stream(
        &engine,
        &mut std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
        max_frame_bytes,
    )
    .map_err(|e| fail(format!("stream failed: {e}")))?;
    ui::note(format!(
        "served {} responses ({} protocol errors)",
        stats.responses, stats.protocol_errors
    ));
    finish_serve(&engine, summary_json)
}

/// Reports the engine summary as a stderr note and, with
/// `--summary-json`, as a JSON file.
fn finish_serve(engine: &AdmissionEngine, summary_json: Option<&str>) -> Result<(), CliError> {
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
        let json = serde_json::to_string_pretty(&summary)
            .map_err(|e| fail(format!("cannot serialise the serve summary: {e}")))?;
        write_file(path, json + "\n", None)?;
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    use ftsched_bench::perf::{
        check_minq_contract, check_sensitivity_contract, check_serve_contract, check_sim_contract,
        render_summary, run_minq_bench, run_sensitivity_bench, run_serve_bench, run_sim_bench,
        write_report, BenchReport,
    };
    type Run = fn(bool) -> BenchReport;
    type Contract = fn(&BenchReport) -> Result<(), String>;
    // (selecting flag, output file, bench, its perf contract), in run order.
    let benches: [(&str, &str, Run, Contract); 4] = [
        (
            "--minq",
            "BENCH_minq.json",
            run_minq_bench,
            check_minq_contract,
        ),
        (
            "--sensitivity",
            "BENCH_sensitivity.json",
            run_sensitivity_bench,
            check_sensitivity_contract,
        ),
        ("--sim", "BENCH_sim.json", run_sim_bench, check_sim_contract),
        (
            "--serve",
            "BENCH_serve.json",
            run_serve_bench,
            check_serve_contract,
        ),
    ];

    let mut quick = false;
    let mut selected = Vec::new();
    let mut args = Cursor::new(args);
    while let Some(arg) = args.next_arg()? {
        match arg {
            "--quick" => quick = true,
            flag if benches.iter().any(|bench| bench.0 == flag) => selected.push(flag),
            other => return Err(unexpected(other)),
        }
    }

    // A failed write or contract does not stop the later benches; every
    // failure is reported once they have all run.
    let mut failures = Vec::new();
    for (flag, file, run, contract) in benches {
        if !selected.is_empty() && !selected.contains(&flag) {
            continue;
        }
        let report = run(quick);
        print!("{}", render_summary(&report));
        println!("{}", report.to_json());
        match write_report(&report, file) {
            Ok(path) => ui::note(format!("wrote {}", path.display())),
            Err(e) => failures.push(format!("cannot write `{file}`: {e}")),
        }
        if let Err(violation) = contract(&report) {
            failures.push(format!("PERF CONTRACT VIOLATED: {violation}"));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(fail(failures.join("; ")))
    }
}

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    let path = Cursor::new(args).lone_path("validate needs a spec file")?;
    let spec = load_spec(path)?;
    let algorithms = spec.algorithms.len();
    let overheads = spec.effective_overheads().len();
    let heuristics = spec.effective_partition_heuristics().len();
    let workload_points = spec.scenarios().len() / (algorithms * overheads * heuristics).max(1);
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
    Ok(())
}

fn load_spec(path: &str) -> Result<CampaignSpec, CliError> {
    let spec: CampaignSpec = serde_json::from_str(&read_text(path)?)
        .map_err(|e| fail(format!("cannot parse `{path}`: {e}")))?;
    spec.validate()
        .map_err(|e| fail(format!("`{path}`: {e}")))?;
    Ok(spec)
}

/// Best-effort shard-coordinate extraction from a report that no longer
/// parses: scans the raw text for the `"shard": {"index": i, "count": n}`
/// block wherever it survives in the damaged text (it serialises after
/// the scenario rows, so mid-file corruption usually leaves it intact).
fn guess_shard(text: &str) -> Option<String> {
    let window = &text[text.find("\"shard\"")?..];
    let window = window.get(..256).unwrap_or(window);
    let number_after = |key: &str| -> Option<u64> {
        let rest = &window[window.find(key)? + key.len()..];
        let rest = rest.trim_start_matches([':', ' ', '\t', '\n', '\r']);
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let (index, count) = (number_after("\"index\"")?, number_after("\"count\"")?);
    Some(format!("{index}/{count}"))
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

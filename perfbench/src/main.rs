//! `perfbench`: the end-to-end benchmark of the ftsched workspace.
//!
//! ```text
//! perfbench --workload <design_grid|validate_faults|serve_admission>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced replay and reports the per-layer metrics. Either way the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a run that is not correct exits
//! with status 1 after printing it. `--work-dir` holds the serve
//! workload's sockets and the traced run's span file.

mod campaign;
mod metrics;
mod replay;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use workloads::Workload;

/// Trials per scenario of each campaign workload.
const DESIGN_GRID_TRIALS: usize = 12;
const VALIDATE_FAULTS_TRIALS: usize = 170;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// Writes the traced run's spans, one JSON object per line.
pub fn write_trace(tracer: &trace::Tracer, path: &Path) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(path))
        .and_then(|file| tracer.write_jsonl(&mut std::io::BufWriter::new(file)));
    if let Err(e) = written {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_out = args.trace.then(|| {
        args.work_dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ))
    });
    let trace_out = trace_out.as_deref();
    let seed = args.seed;
    let run = match (args.workload, args.trace) {
        (Workload::DesignGrid, false) => campaign::measure(
            || workloads::design_grid(seed, DESIGN_GRID_TRIALS),
            args.seconds,
        ),
        (Workload::ValidateFaults, false) => campaign::measure(
            || workloads::validate_faults(seed, VALIDATE_FAULTS_TRIALS),
            args.seconds,
        ),
        (Workload::DesignGrid, true) => {
            replay::traced(workloads::design_grid(seed, DESIGN_GRID_TRIALS), trace_out)
        }
        (Workload::ValidateFaults, true) => replay::traced(
            workloads::validate_faults(seed, VALIDATE_FAULTS_TRIALS),
            trace_out,
        ),
        (Workload::ServeAdmission, false) => serve::measure(seed, args.seconds),
        (Workload::ServeAdmission, true) => {
            serve::traced(seed, args.seconds, &args.work_dir, trace_out)
        }
    };
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "{} seed {} ({} threads available): {} operations, {} failed",
        args.workload.name(),
        args.seed,
        campaign::nproc(),
        run.attempted,
        run.failed
    );
    for note in &run.notes {
        eprintln!("  {note}");
    }
    for &(name, value, unit) in &run.named {
        eprintln!("  {name:<36} {value:>16.4} {unit}");
    }
    if !run.named.is_empty() {
        let rate = run.failed as f64 / run.attempted.max(1) as f64;
        eprintln!("  {:<36} {rate:>16.4} ratio", "error_rate");
    }
    eprintln!("  metrics:");
    for &(name, unit) in catalogue {
        if let Some(value) = run.metrics.get(name) {
            eprintln!("  {name:<36} {value:>16.4} {unit}");
        }
    }
    println!("{}", run.to_json_line(catalogue));
    if run.is_correct(catalogue) {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the run is not correct");
        ExitCode::FAILURE
    }
}

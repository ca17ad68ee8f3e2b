//! Untraced campaign measurement: what `ftsched run --out` costs a user,
//! at one thread and at one thread per core.

use std::time::{Duration, Instant};

use ftsched_campaign::{run_campaign, CampaignSpec, ExecutorConfig};

use crate::metrics::RunResult;
use crate::stats;

pub fn config(threads: usize, design_cache: bool) -> ExecutorConfig {
    ExecutorConfig {
        threads,
        design_cache,
        ..ExecutorConfig::default()
    }
}

/// One campaign as a user runs it: execute, then encode the JSON report.
/// Returns the report bytes and the wall time of both steps.
pub fn run_and_encode(spec: &CampaignSpec, config: &ExecutorConfig) -> (String, Duration) {
    let start = Instant::now();
    let report = run_campaign(spec, config).expect("benchmark specs are valid");
    let json = report.to_json();
    (json, start.elapsed())
}

/// The expected report: the same campaign with every cache disabled, on
/// one thread — the reference path the caches must reproduce.
pub fn reference_report(spec: &CampaignSpec) -> (String, Duration) {
    run_and_encode(spec, &config(1, false))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: build the spec, compute the expected report on the
/// uncached reference path, and warm up once on the cached path. Returns
/// the spec, the expected bytes and the set-up time. A warm-up whose
/// bytes differ from the reference, or a reference that differs from
/// `first`'s, counts as a failed operation.
fn set_up(
    build: &impl Fn() -> CampaignSpec,
    first: Option<&str>,
    run: &mut RunResult,
) -> (CampaignSpec, String, f64) {
    let start = Instant::now();
    let spec = build();
    let (expected, _) = reference_report(&spec);
    let (warm, _) = run_and_encode(&spec, &config(nproc(), true));
    let secs = start.elapsed().as_secs_f64();
    run.check(warm == expected);
    if let Some(first) = first {
        run.check(first == expected);
    }
    (spec, expected, secs)
}

/// Campaign runs per thread count a run makes at least, so that the
/// tail percentile has ten runs beyond it.
const MIN_RUNS: usize = 40;

/// Measures for `seconds` (and at least [`MIN_RUNS`] runs each):
/// alternating 1-thread and nproc campaign runs, each checked byte for
/// byte against the expected report, with the set-ups spread over the
/// window. Throughput is the trials of one campaign over its median wall
/// time, so `latency_p50_ms` is `1000 × trials / throughput` and carries
/// no evidence of its own; `latency_tail_ms` (p75) does.
pub fn measure(build: impl Fn() -> CampaignSpec, seconds: f64) -> RunResult {
    let mut run = RunResult::default();
    let (spec, expected, first) = set_up(&build, None, &mut run);
    let mut setups = vec![first];
    let trials = spec.trial_count() as f64;
    let threads = nproc();
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || serial.len() < MIN_RUNS {
        if stats::setup_due(setups.len(), start.elapsed().as_secs_f64(), seconds) {
            setups.push(set_up(&build, Some(&expected), &mut run).2);
        }
        for (threads, walls) in [(1, &mut serial), (threads, &mut parallel)] {
            let (json, wall) = run_and_encode(&spec, &config(threads, true));
            run.check(json == expected);
            walls.push(wall.as_secs_f64());
        }
    }
    while setups.len() < stats::SETUP_REPEATS {
        setups.push(set_up(&build, Some(&expected), &mut run).2);
    }
    let setup_s = stats::median(&setups);
    let throughput = trials / stats::median(&parallel);
    let throughput_1t = trials / stats::median(&serial);
    let p50 = stats::median(&parallel) * 1e3;
    let p75 = stats::percentile(&parallel, 75.0) * 1e3;
    run.set("throughput", throughput);
    run.set("throughput_1t", throughput_1t);
    run.set("latency_p50_ms", p50);
    run.set("latency_tail_ms", p75);
    run.set("setup_s", setup_s);
    run.set("peak_rss_mb", peak_rss_mb());
    run.named("trials_per_s", throughput, "1/s");
    run.named("trials_per_s_1t", throughput_1t, "1/s");
    run.named("campaign_p50_ms", p50, "ms");
    run.named("campaign_p75_ms", p75, "ms");
    run.named("setup_s", setup_s, "s");
    run.named("peak_rss_mb", peak_rss_mb(), "MB");
    run.note(format!(
        "{} trials per campaign, report {} bytes; {} runs at {threads} threads and {} at 1 \
         thread; trials_per_s from the median wall time",
        spec.trial_count(),
        expected.len(),
        parallel.len(),
        serial.len(),
    ));
    run
}

//! The parallel campaign executor.
//!
//! Work distribution is *dynamic* (workers claim fixed-size blocks of the
//! global trial index space from an atomic cursor) but aggregation is
//! *static*: block boundaries depend only on [`ExecutorConfig::block_size`],
//! each block folds its trials in index order, and the final reduction
//! merges block accumulators in block order. Scheduling therefore affects
//! wall-clock time only — the report is a pure function of the spec, down
//! to the last floating-point bit, whatever the worker count. The
//! determinism contract is enforced by `tests/campaign_determinism.rs`.
//!
//! Metric accumulators ride the same machinery: per-task response
//! histograms, WCET margins and latency-vs-load curve points all fold
//! into [`ScenarioStats`] inside the block accumulators, so every metric
//! inherits the byte-identity guarantee — and, because per-trial seeds
//! key on the workload coordinate alone, curves stay *paired* across the
//! algorithm / overhead / heuristic columns of one workload point.
//!
//! Sharding extends the same mechanism across processes and hosts:
//! [`run_campaign_shard`] restricts the executor to one contiguous,
//! deterministic slice of the global trial index space and emits a
//! *partial* report. Because every scenario's statistics fold in trial
//! order within a shard, and [`crate::merge_reports`] folds the shards in
//! shard order, the merged report is byte-identical to the unsharded run
//! (enforced by `tests/campaign_sharding.rs`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ftsched_obs::Recorder;
use ftsched_sim::SimArena;

use crate::report::{CampaignReport, ScenarioReport, ShardInfo};
use crate::spec::CampaignSpec;
use crate::stats::ScenarioStats;
use crate::trial::{prime_design_cache, run_trial_with, TrialCaches, TrialStatus};
use crate::CampaignError;

/// Execution knobs. These may change *how fast* a campaign runs, never
/// *what* it computes.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Trials per work block. Must be at least 1. The default (32) keeps
    /// worker hand-offs rare while still load-balancing skewed grids.
    pub block_size: usize,
    /// Print a progress line to stderr while running.
    pub progress: bool,
    /// Print the richer live heartbeat instead of the plain progress
    /// line: throughput (trials/s), ETA and per-scenario completion,
    /// rate-limited to a few updates per second. Implies `progress`-style
    /// stderr output; off by default (`ftsched run --progress`).
    pub heartbeat: bool,
    /// Share the deterministic trial stages across the campaign: the
    /// design stage of `WorkloadSpec::Paper` trials, and the generation +
    /// partitioning stages of synthetic trials paired across the
    /// algorithm / overhead / heuristic axes (see [`crate::cache`]). On
    /// by default; turning it off only re-runs identical computations —
    /// reports are byte-identical either way.
    pub design_cache: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            threads: 0,
            block_size: 32,
            progress: false,
            heartbeat: false,
            design_cache: true,
        }
    }
}

impl ExecutorConfig {
    /// Resolved worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Runs a campaign: expands the spec's grid, fans the trials out over
/// worker threads and folds the results into one report.
///
/// # Errors
///
/// Returns [`CampaignError::InvalidSpec`] when the spec fails
/// [`CampaignSpec::validate`]; individual trial failures (generation,
/// partitioning, design rejection) are *data*, counted in the report.
pub fn run_campaign(
    spec: &CampaignSpec,
    config: &ExecutorConfig,
) -> Result<CampaignReport, CampaignError> {
    run_campaign_shard(spec, config, None)
}

/// [`run_campaign`] restricted to one shard of the campaign's trial
/// space.
///
/// Shard `i` of `n` executes the `i`-th of `n` contiguous, near-equal
/// slices of the global trial index space — a pure function of the spec
/// and the shard coordinates, independent of threads and block size. The
/// resulting report is *partial*: it covers only the scenarios the slice
/// touches, carries the shard coordinates in
/// [`CampaignReport::shard`], and is meant to be folded back with
/// [`crate::merge_reports`], which reproduces the unsharded report byte
/// for byte. `shard = None` runs everything (identical to
/// [`run_campaign`]).
///
/// # Errors
///
/// Returns [`CampaignError::InvalidSpec`] for an invalid spec or shard.
pub fn run_campaign_shard(
    spec: &CampaignSpec,
    config: &ExecutorConfig,
    shard: Option<ShardInfo>,
) -> Result<CampaignReport, CampaignError> {
    spec.validate()?;
    if config.block_size == 0 {
        return Err(CampaignError::InvalidSpec(
            "block_size must be at least 1".into(),
        ));
    }
    if let Some(shard) = shard {
        if shard.count == 0 || shard.index >= shard.count {
            return Err(CampaignError::InvalidSpec(format!(
                "shard {}/{} is out of range",
                shard.index, shard.count
            )));
        }
    }
    let scenarios = spec.scenarios();
    let trials_per = spec.trials_per_scenario;
    let total = scenarios.len() * trials_per;
    // The shard's contiguous slice of the global trial index space.
    let (shard_lo, shard_hi) = match shard {
        Some(s) => s.slice(total),
        None => (0, total),
    };
    let shard_trials = shard_hi - shard_lo;
    let block_size = config.block_size;
    let blocks = shard_trials.div_ceil(block_size);
    let threads = config.effective_threads().min(blocks.max(1));

    // Per-block partial statistics, keyed by scenario index in
    // first-touch (= trial index) order.
    type BlockPartials = Vec<(usize, ScenarioStats)>;

    // Deterministic trial stages shared across every worker (paper
    // design stage; synthetic generation and partitioning).
    let caches = TrialCaches::new(spec, config.design_cache);
    // The paper design prefixes of the shard's scenarios, schedules
    // included, are built here before any worker spawns: every trial
    // then only classifies its fault draw, and the shared schedules live
    // in this thread's heap instead of growing each worker's.
    if shard_trials > 0 {
        let touched = &scenarios[shard_lo / trials_per..=(shard_hi - 1) / trials_per];
        prime_design_cache(spec, touched, &caches);
    }

    // The caller's current recorder: the run's counts land there, and
    // every worker thread enters it so leaf sites count into it too.
    let recorder = ftsched_obs::current();

    // Each block folds its contiguous trial range into per-scenario
    // accumulators, reusing the worker's simulation arena. Trial-status
    // tallies flush into the run's counters once per block, keeping the
    // hot loop free of shared atomics.
    let run_block = |b: usize, arena: &mut SimArena| -> BlockPartials {
        let lo = shard_lo + b * block_size;
        let hi = (lo + block_size).min(shard_hi);
        let mut partials: BlockPartials = Vec::new();
        let mut statuses = [0u64; 5];
        for t in lo..hi {
            let scenario = &scenarios[t / trials_per];
            let trial = t % trials_per;
            let outcome = run_trial_with(spec, scenario, trial, &caches, arena);
            statuses[status_slot(outcome.status)] += 1;
            match partials.last_mut() {
                Some((idx, stats)) if *idx == scenario.index => stats.observe(&outcome),
                _ => {
                    let mut stats = ScenarioStats::default();
                    stats.observe(&outcome);
                    partials.push((scenario.index, stats));
                }
            }
        }
        flush_statuses(&recorder, (hi - lo) as u64, &statuses);
        partials
    };

    let slots: Vec<Mutex<Option<BlockPartials>>> = (0..blocks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let heartbeat = config
        .heartbeat
        .then(|| Heartbeat::new(shard_lo, shard_hi, trials_per, scenarios.len()));

    if threads <= 1 {
        let mut arena = SimArena::new();
        for (b, slot) in slots.iter().enumerate() {
            *slot.lock().unwrap() = Some(run_block(b, &mut arena));
            let finished = ((b + 1) * block_size).min(shard_trials);
            if let Some(hb) = &heartbeat {
                hb.note_block(shard_lo + b * block_size, shard_lo + finished, trials_per);
                hb.tick(&spec.name, finished, false);
            } else if config.progress {
                print_progress(&spec.name, finished, shard_trials);
            }
        }
        recorder.record_worker_trials(shard_trials as u64);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let _current = recorder.enter();
                    let mut arena = SimArena::new();
                    let mut worker_trials = 0u64;
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= blocks {
                            break;
                        }
                        let partials = run_block(b, &mut arena);
                        let lo = b * block_size;
                        let completed = (lo + block_size).min(shard_trials) - lo;
                        worker_trials += completed as u64;
                        *slots[b].lock().unwrap() = Some(partials);
                        let finished = done.fetch_add(completed, Ordering::Relaxed) + completed;
                        if let Some(hb) = &heartbeat {
                            hb.note_block(shard_lo + lo, shard_lo + lo + completed, trials_per);
                            hb.tick(&spec.name, finished, false);
                        } else if config.progress {
                            print_progress(&spec.name, finished, shard_trials);
                        }
                    }
                    recorder.record_worker_trials(worker_trials);
                });
            }
        });
    }
    if let Some(hb) = &heartbeat {
        hb.tick(&spec.name, shard_trials, true);
        eprintln!();
    } else if config.progress {
        eprintln!();
    }

    // Deterministic reduction: blocks in index order, scenarios keyed by
    // grid index.
    let mut stats: Vec<ScenarioStats> = vec![ScenarioStats::default(); scenarios.len()];
    for slot in slots {
        let partials = slot
            .into_inner()
            .expect("no worker panicked")
            .expect("every block was executed");
        for (scenario_index, partial) in partials {
            stats[scenario_index].merge(&partial);
        }
    }

    // A partial report covers only the scenarios its slice touched; an
    // unsharded report covers the whole grid.
    let scenario_reports: Vec<ScenarioReport> = scenarios
        .iter()
        .zip(stats)
        .filter(|(_, stats)| shard.is_none() || stats.trials > 0)
        .map(|(scenario, stats)| ScenarioReport::for_scenario(spec, scenario, stats))
        .collect();

    // Wall-clock time is deliberately NOT part of the report: a report is
    // a pure function of its spec, byte for byte (callers wanting timing
    // measure around this call).
    let mut report = CampaignReport::new(spec.clone(), scenario_reports);
    report.shard = shard;
    Ok(report)
}

fn print_progress(name: &str, done: usize, total: usize) {
    let done = done.min(total);
    let percent = 100.0 * done as f64 / total.max(1) as f64;
    eprint!("\r{name}: {done}/{total} trials ({percent:5.1}%)");
}

/// Index of a trial status in a block's local tally.
fn status_slot(status: TrialStatus) -> usize {
    match status {
        TrialStatus::Accepted => 0,
        TrialStatus::GenerationFailed => 1,
        TrialStatus::PartitionFailed => 2,
        TrialStatus::DesignRejected => 3,
        TrialStatus::SimulationFailed => 4,
    }
}

/// Flushes one block's trial tallies into the run's counters.
///
/// Every trial runs exactly once per campaign (or per shard slice), so
/// these counts are pure functions of the spec — the deterministic half
/// of the run metrics, byte-identical at any worker count and additive
/// across shards.
fn flush_statuses(m: &Recorder, trials: u64, statuses: &[u64; 5]) {
    m.trials_started.add(trials);
    m.trials_completed.add(trials);
    m.trials_accepted.add(statuses[0]);
    m.trials_generation_failed.add(statuses[1]);
    m.trials_partition_failed.add(statuses[2]);
    m.trials_design_rejected.add(statuses[3]);
    m.trials_simulation_failed.add(statuses[4]);
}

/// State of the `--progress` heartbeat: a rate-limited stderr line with
/// throughput, ETA and per-scenario completion. Purely observational —
/// it reads the same completion counts the plain progress line does.
struct Heartbeat {
    start: Instant,
    /// Trials in this shard's slice.
    total: usize,
    /// Trials still to run per scenario (global grid index) inside this
    /// shard's slice; scenarios outside the slice start at zero.
    remaining: Vec<AtomicUsize>,
    /// Scenarios the slice touches at all.
    scenarios_total: usize,
    scenarios_done: AtomicUsize,
    /// Milliseconds since `start` of the last printed line.
    last_print_ms: AtomicU64,
}

impl Heartbeat {
    /// Minimum interval between printed lines.
    const INTERVAL_MS: u64 = 250;

    fn new(shard_lo: usize, shard_hi: usize, trials_per: usize, scenarios: usize) -> Self {
        let remaining: Vec<AtomicUsize> = (0..scenarios)
            .map(|s| {
                let lo = (s * trials_per).max(shard_lo);
                let hi = ((s + 1) * trials_per).min(shard_hi);
                AtomicUsize::new(hi.saturating_sub(lo))
            })
            .collect();
        let scenarios_total = remaining
            .iter()
            .filter(|r| r.load(Ordering::Relaxed) > 0)
            .count();
        Heartbeat {
            start: Instant::now(),
            total: shard_hi - shard_lo,
            remaining,
            scenarios_total,
            scenarios_done: AtomicUsize::new(0),
            last_print_ms: AtomicU64::new(0),
        }
    }

    /// Records completion of the global trial index range `[lo, hi)`.
    fn note_block(&self, lo: usize, hi: usize, trials_per: usize) {
        let mut s = lo / trials_per;
        while s < self.remaining.len() && s * trials_per < hi {
            let slo = (s * trials_per).max(lo);
            let shi = ((s + 1) * trials_per).min(hi);
            let n = shi.saturating_sub(slo);
            if n > 0 {
                // The scenario is done when its last remaining trial
                // lands (whichever worker delivers it).
                if self.remaining[s].fetch_sub(n, Ordering::Relaxed) == n {
                    self.scenarios_done.fetch_add(1, Ordering::Relaxed);
                }
            }
            s += 1;
        }
    }

    /// Prints the heartbeat line when the rate limit allows (`force`
    /// bypasses it for the final line). Losing the timestamp race just
    /// skips one update.
    fn tick(&self, name: &str, done: usize, force: bool) {
        let elapsed = self.start.elapsed();
        let now_ms = elapsed.as_millis() as u64;
        if !force {
            let last = self.last_print_ms.load(Ordering::Relaxed);
            if now_ms.saturating_sub(last) < Self::INTERVAL_MS
                || self
                    .last_print_ms
                    .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
        }
        let done = done.min(self.total);
        let total = self.total;
        let secs = elapsed.as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let sd = self.scenarios_done.load(Ordering::Relaxed);
        let st = self.scenarios_total;
        if rate > 0.0 {
            let eta = (total - done) as f64 / rate;
            eprint!(
                "\r{name}: {done}/{total} trials | {rate:.0} trials/s | ETA {eta:.0}s | scenarios {sd}/{st}"
            );
        } else {
            eprint!("\r{name}: {done}/{total} trials | scenarios {sd}/{st}");
        }
    }
}

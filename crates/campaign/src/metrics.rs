//! Serialisable run metrics: the `--metrics-json` side channel.
//!
//! A [`RunMetrics`] document is split into two strictly separated halves,
//! both generated from the counter table in [`ftsched_obs`]:
//!
//! * [`RunCounters`] — **deterministic** event counts. Every field is a
//!   pure `u64` count of events that occur a fixed number of times per
//!   trial, so the whole struct is a pure function of the campaign spec
//!   (and the shard slice): byte-identical at any thread count, and
//!   additive across shards — merging the counters of `--shard 0/2` and
//!   `--shard 1/2` reproduces the unsharded counters exactly. The merge
//!   operation ([`RunCounters::merged`]) is associative and commutative
//!   with [`RunCounters::default`] as identity (enforced by
//!   `tests/property_merge.rs`).
//! * [`RunTimings`] — **machine-dependent** observations: wall clock,
//!   worker throughput, stage-duration histograms, cache hit/miss splits
//!   (racing workers may both miss a fresh key) and arena/sweep reuse
//!   counts (work inside cached stages runs a scheduling-dependent
//!   number of times). These are excluded from every identity check;
//!   `ftsched metrics-strip` drops them before comparing runs.
//!
//! Campaign reports never embed either half: a report stays a pure
//! function of its spec, byte for byte, whether or not metrics are
//! collected.

use std::time::Instant;

use ftsched_obs::Recorder;

pub use ftsched_obs::{CacheSnapshot, RunCounters, RunMetrics, RunTimings, StageSpan};

use crate::executor::{run_campaign_shard, ExecutorConfig};
use crate::report::{CampaignReport, ShardInfo};
use crate::spec::CampaignSpec;
use crate::CampaignError;

/// [`run_campaign_shard`] inside a [`Recorder`] of its own: returns the
/// report together with exactly this run's metrics, whatever else the
/// process runs at the same time. The recorder folds into the caller's
/// current recorder afterwards.
///
/// # Errors
///
/// As [`run_campaign_shard`].
pub fn run_campaign_recorded(
    spec: &CampaignSpec,
    config: &ExecutorConfig,
    shard: Option<ShardInfo>,
) -> Result<(CampaignReport, RunMetrics), CampaignError> {
    let recorder = Recorder::new();
    let _current = recorder.enter();
    let started = Instant::now();
    let report = run_campaign_shard(spec, config, shard)?;
    let mut metrics = recorder.snapshot();
    metrics.timing.wall_seconds = started.elapsed().as_secs_f64();
    metrics.timing.workers = config.effective_threads() as u64;
    Ok((report, metrics))
}

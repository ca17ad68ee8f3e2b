//! Shared, thread-safe memo tables for deterministic trial stages.
//!
//! Two classes of work inside a campaign are pure functions of data that
//! repeats across trials, so the executor computes them once and shares
//! the result across trials and worker threads:
//!
//! * `WorkloadSpec::Paper` campaigns run the *same* task set through the
//!   *same* design pipeline on every trial — only the per-trial fault
//!   draw differs. The design stage (feasible-period search, goal
//!   optimisation, quanta allocation, baseline comparison) is keyed by
//!   [`DesignKey`].
//! * Synthetic campaigns pair trials across the algorithm / overhead /
//!   partition-heuristic axes: scenarios sharing a workload point draw
//!   **identical** task sets per trial index. Workload generation is
//!   keyed by the trial's workload coordinates, and the partitioning
//!   stage is keyed by [`PartitionKey`] — the generated task set's
//!   content hash ([`ftsched_task::TaskSet::content_hash`]) crossed with
//!   the heuristic — so it is shared across the algorithm and overhead
//!   axes.
//!
//! Determinism contract: a cache can change *how often* a stage runs,
//! never *what* it computes — cached and uncached campaigns produce
//! byte-identical reports (enforced by `tests/campaign_design_cache.rs`
//! and `tests/campaign_synthetic_cache.rs`).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use ftsched_analysis::Algorithm;
use ftsched_design::partitioner::PartitionHeuristic;
use ftsched_obs::{CacheStats, Counter, Recorder};

/// Selects one cache's tallies in a [`Recorder`], e.g.
/// `|m| &m.design_cache`.
pub type CacheCounters = fn(&Recorder) -> &CacheStats;

/// The canonical way an `f64` overhead (or any other real-valued cache
/// axis) becomes part of a hashable cache key: its IEEE-754 bit pattern.
///
/// Keying on the bits instead of the float itself is what keeps the
/// caches honest on the edge cases a raw `f64` key mishandles:
///
/// * `-0.0` and `0.0` compare equal but can produce *bitwise different*
///   designs downstream (`c * -0.0` serialises as `-0.0`), so they must
///   be **distinct** keys — collapsing them would let a `-0.0` campaign
///   hit a `0.0` entry and break the byte-identity contract.
/// * `NaN != NaN`, so a raw-float key could never hit its own entry and
///   would poison a `HashMap` with unreachable garbage; the bit pattern
///   is self-equal, so a NaN key hits exactly the entries computed for
///   the *same* NaN payload.
///
/// Every overhead-keyed cache in the workspace ([`DesignKey`] here, the
/// admission keys in `ftsched-serve`) must go through this one helper so
/// the semantics cannot drift between them.
#[inline]
pub fn overhead_key_bits(total_overhead: f64) -> u64 {
    total_overhead.to_bits()
}

/// Identity of one deterministic design-stage computation for the paper
/// workload: the workload grid coordinate, the scheduling algorithm and
/// the total mode-switch overhead. Everything else a design depends on
/// (goal, slack policy, region overrides) is fixed per campaign spec, and
/// each campaign owns its own cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignKey {
    /// Position along the spec's workload axis.
    pub workload_point: usize,
    /// Local scheduling algorithm of the scenario.
    pub algorithm: Algorithm,
    /// Bit pattern of the total overhead (`f64::to_bits`), making the
    /// key hashable without tolerance games.
    pub overhead_bits: u64,
}

impl DesignKey {
    /// Builds the key for one scenario's design computation.
    pub fn new(workload_point: usize, algorithm: Algorithm, total_overhead: f64) -> Self {
        DesignKey {
            workload_point,
            algorithm,
            overhead_bits: overhead_key_bits(total_overhead),
        }
    }
}

/// Identity of one synthetic-workload partitioning computation: the
/// generated task set (by content hash) crossed with the bin-packing
/// heuristic. Scenarios that differ only in algorithm or overhead share
/// the partition of a given task set through this key.
///
/// The content hash is not collision-free, so cached entries carry the
/// task set they were computed for and lookups verify it with `==`
/// before trusting a hit (see `trial.rs`) — a collision costs a
/// recomputation, never a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionKey {
    /// [`ftsched_task::TaskSet::content_hash`] of the generated set.
    pub taskset_hash: u64,
    /// The bin-packing heuristic of the scenario.
    pub heuristic: PartitionHeuristic,
}

/// A keyed memo table shared by the campaign workers. Disabled caches
/// degrade to computing every request (the uncached reference path used
/// by the byte-equality tests).
///
/// Memory is bounded two ways, so campaign size never translates into
/// unbounded cache growth: a per-key **use budget** evicts an entry the
/// moment its last consumer has read it (campaign grids know exactly how
/// many scenarios share one key), and a **capacity cap** stops inserting
/// once the map holds `max_entries` keys — further misses just compute.
/// Neither bound can change a result: cached values are pure functions
/// of their key, so an evicted or never-inserted entry only costs a
/// recomputation.
#[derive(Debug, Default)]
pub struct MemoCache<K, V> {
    enabled: bool,
    /// Evict an entry after this many reads (including the inserting
    /// one); `0` means never evict.
    uses_per_key: usize,
    /// Stop inserting beyond this many live entries; `usize::MAX` (the
    /// [`Self::new`] default) means unbounded.
    max_entries: usize,
    /// Which hit/miss counters of the current recorder this cache
    /// reports into (see [`Self::with_stats`]). These live in the
    /// *timing* half of the run metrics: racing workers may both miss a
    /// fresh key, so the split is scheduling-dependent.
    stats: Option<CacheCounters>,
    map: Mutex<HashMap<K, Entry<V>>>,
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    /// Reads left before eviction; meaningless when `uses_per_key == 0`.
    remaining: usize,
}

/// The paper-workload design cache (see [`DesignKey`]).
pub type DesignCache<V> = MemoCache<DesignKey, V>;

impl<K: Eq + Hash, V> MemoCache<K, V> {
    /// Creates an unbounded cache; `enabled = false` makes
    /// [`Self::get_or_compute`] always compute.
    pub fn new(enabled: bool) -> Self {
        MemoCache::with_limits(enabled, 0, usize::MAX)
    }

    /// Creates a cache with a per-key use budget (`0` = never evict) and
    /// a live-entry capacity cap.
    pub fn with_limits(enabled: bool, uses_per_key: usize, max_entries: usize) -> Self {
        MemoCache {
            enabled,
            uses_per_key,
            max_entries,
            stats: None,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Routes this cache's hit/miss counts into the `stats` counters of
    /// whichever recorder is current on the looking-up thread (the run's,
    /// see [`ftsched_obs::record`]). A disabled cache reports every
    /// request as a miss (it computes every time).
    pub fn with_stats(mut self, stats: CacheCounters) -> Self {
        self.stats = Some(stats);
        self
    }

    fn count(&self, counter: fn(&CacheStats) -> &Counter) {
        if let Some(stats) = self.stats {
            ftsched_obs::record(|m| counter(stats(m)).incr());
        }
    }

    /// Whether the cache stores results at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of distinct keys currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock poisoned").len()
    }

    /// True when nothing is currently cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes one read of the cached value for `key`, computing it on a
    /// miss and inserting when the budget and capacity allow.
    ///
    /// The computation runs *outside* the lock: two workers racing on the
    /// same fresh key may both compute it, which costs duplicated work
    /// but never a wrong answer — `compute` must be (and for the cached
    /// stages is) a pure function of the key, and the first insertion
    /// wins.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        if !self.enabled {
            self.count(|c| &c.misses);
            return Arc::new(compute());
        }
        if let Some(value) = self.take_read(&key) {
            self.count(|c| &c.hits);
            return value;
        }
        self.count(|c| &c.misses);
        let value = Arc::new(compute());
        let mut map = self.map.lock().expect("cache lock poisoned");
        match map.get(&key) {
            // Lost an insertion race: consume a read of the winner.
            Some(_) => {
                drop(map);
                self.take_read(&key).unwrap_or(value)
            }
            None => {
                // The inserting call is itself the first read.
                if self.uses_per_key != 1 && map.len() < self.max_entries {
                    map.insert(
                        key,
                        Entry {
                            value: Arc::clone(&value),
                            remaining: self.uses_per_key.saturating_sub(1),
                        },
                    );
                }
                value
            }
        }
    }

    /// One budgeted read: returns the entry's value and evicts it when
    /// its use budget is exhausted.
    fn take_read(&self, key: &K) -> Option<Arc<V>> {
        let mut map = self.map.lock().expect("cache lock poisoned");
        let entry = map.get_mut(key)?;
        let value = Arc::clone(&entry.value);
        if self.uses_per_key > 0 {
            entry.remaining = entry.remaining.saturating_sub(1);
            if entry.remaining == 0 {
                map.remove(key);
            }
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_by_key_and_computes_once() {
        let cache: DesignCache<u64> = DesignCache::new(true);
        let key = DesignKey::new(0, Algorithm::EarliestDeadlineFirst, 0.05);
        assert!(cache.is_empty());
        let a = cache.get_or_compute(key, || 41);
        let b = cache.get_or_compute(key, || panic!("must hit the cache"));
        assert_eq!(*a, 41);
        assert_eq!(*b, 41);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache: DesignCache<usize> = DesignCache::new(true);
        let k1 = DesignKey::new(0, Algorithm::EarliestDeadlineFirst, 0.05);
        let k2 = DesignKey::new(0, Algorithm::RateMonotonic, 0.05);
        let k3 = DesignKey::new(0, Algorithm::EarliestDeadlineFirst, 0.06);
        cache.get_or_compute(k1, || 1);
        cache.get_or_compute(k2, || 2);
        cache.get_or_compute(k3, || 3);
        assert_eq!(cache.len(), 3);
        assert_eq!(*cache.get_or_compute(k2, || 99), 2);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let cache: DesignCache<u32> = DesignCache::new(false);
        let key = DesignKey::new(1, Algorithm::DeadlineMonotonic, 0.0);
        assert_eq!(*cache.get_or_compute(key, || 1), 1);
        assert_eq!(*cache.get_or_compute(key, || 2), 2);
        assert!(cache.is_empty());
        assert!(!cache.enabled());
    }

    #[test]
    fn use_budget_evicts_entries_after_their_last_read() {
        // Budget of 3 reads: insert (first read), two hits, then gone.
        let cache: MemoCache<u32, u32> = MemoCache::with_limits(true, 3, usize::MAX);
        assert_eq!(*cache.get_or_compute(7, || 70), 70);
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.get_or_compute(7, || 99), 70);
        assert_eq!(*cache.get_or_compute(7, || 99), 70);
        assert!(cache.is_empty(), "third read must evict");
        // A later request recomputes and re-inserts (pure function, so
        // over-budget reads are merely slower, never wrong).
        assert_eq!(*cache.get_or_compute(7, || 70), 70);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn single_use_budget_never_stores() {
        let cache: MemoCache<u32, u32> = MemoCache::with_limits(true, 1, usize::MAX);
        assert_eq!(*cache.get_or_compute(1, || 10), 10);
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_cap_stops_insertions_not_results() {
        let cache: MemoCache<u32, u32> = MemoCache::with_limits(true, 0, 2);
        cache.get_or_compute(1, || 10);
        cache.get_or_compute(2, || 20);
        assert_eq!(*cache.get_or_compute(3, || 30), 30);
        assert_eq!(cache.len(), 2, "cap keeps the map at two entries");
        // The capped-out key recomputes; the resident keys still hit.
        assert_eq!(*cache.get_or_compute(3, || 31), 31);
        assert_eq!(*cache.get_or_compute(1, || 99), 10);
    }

    #[test]
    fn negative_zero_and_zero_are_distinct_self_hitting_keys() {
        // Regression: a raw `f64` key would make -0.0 == 0.0 (one entry
        // shared by bitwise-different computations). The bit keying must
        // keep them apart AND let each hit its own entry.
        assert_ne!(overhead_key_bits(-0.0), overhead_key_bits(0.0));
        let cache: DesignCache<i32> = DesignCache::new(true);
        let pos = DesignKey::new(0, Algorithm::EarliestDeadlineFirst, 0.0);
        let neg = DesignKey::new(0, Algorithm::EarliestDeadlineFirst, -0.0);
        assert_ne!(pos, neg);
        assert_eq!(*cache.get_or_compute(pos, || 1), 1);
        assert_eq!(*cache.get_or_compute(neg, || 2), 2);
        assert_eq!(cache.len(), 2, "-0.0 and 0.0 must not share an entry");
        assert_eq!(*cache.get_or_compute(pos, || 99), 1);
        assert_eq!(*cache.get_or_compute(neg, || 99), 2);
    }

    #[test]
    fn nan_keys_hit_their_own_entry_and_never_poison_the_map() {
        // Regression: a raw `f64` key would satisfy NaN != NaN, so a NaN
        // overhead could never hit its own entry and every lookup would
        // leak another unreachable map slot. The bit pattern is
        // self-equal: one entry, repeated hits, and a different NaN
        // payload is simply a different key.
        let cache: DesignCache<i32> = DesignCache::new(true);
        let quiet = DesignKey::new(0, Algorithm::RateMonotonic, f64::NAN);
        assert_eq!(*cache.get_or_compute(quiet, || 7), 7);
        assert_eq!(*cache.get_or_compute(quiet, || 99), 7, "NaN must self-hit");
        assert_eq!(cache.len(), 1, "repeated NaN lookups must not grow the map");
        let payload = DesignKey::new(
            0,
            Algorithm::RateMonotonic,
            f64::from_bits(f64::NAN.to_bits() ^ 1),
        );
        assert_ne!(quiet, payload, "distinct NaN payloads are distinct keys");
        assert_eq!(*cache.get_or_compute(payload, || 8), 8);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn partition_keys_cross_hash_and_heuristic() {
        let cache: MemoCache<PartitionKey, u32> = MemoCache::new(true);
        let k1 = PartitionKey {
            taskset_hash: 7,
            heuristic: PartitionHeuristic::WorstFitDecreasing,
        };
        let k2 = PartitionKey {
            taskset_hash: 7,
            heuristic: PartitionHeuristic::FirstFitDecreasing,
        };
        let k3 = PartitionKey {
            taskset_hash: 8,
            heuristic: PartitionHeuristic::WorstFitDecreasing,
        };
        cache.get_or_compute(k1, || 1);
        cache.get_or_compute(k2, || 2);
        cache.get_or_compute(k3, || 3);
        assert_eq!(cache.len(), 3);
        assert_eq!(*cache.get_or_compute(k1, || 99), 1);
    }
}

//! # ftsched-obs
//!
//! Instrumentation for the `ftsched` workspace: atomic event counters and
//! fixed-bin duration histograms, kept per run in a [`Recorder`].
//!
//! The build environment is offline and the workspace vendors its own
//! shims, so this crate is hand-rolled in the same spirit instead of
//! pulling in `tracing`: plain `std` atomics, one `Mutex` for the
//! per-worker throughput list, and the vendored `serde` traits for the
//! `--metrics-json` document. Every other crate may depend on it
//! without cycles — it sits below `ftsched-task`.
//!
//! ## One table
//!
//! Every counter is declared once, in the `counters!` table at the
//! bottom of this file. The table generates the atomic fields of
//! [`Recorder`], the plain snapshot types ([`RunCounters`],
//! [`RunTimings`]), their saturating `merged` / `since` arithmetic, the
//! fold of a finished recorder into its parent and the field order of
//! `--metrics-json`. Adding a counter is one line in the table plus the
//! site that bumps it. The section a counter sits in is its class:
//!
//! * **deterministic** ([`RunCounters`]) — pure `u64` event counts
//!   incremented a fixed number of times per campaign trial (trials
//!   started/completed per status, cache *requests*, simulator
//!   windows/slices/jobs). Their totals are sums over trials, so they
//!   are identical at any thread count and add up exactly across
//!   `--shard` runs: the shard-merged value equals the unsharded value,
//!   byte for byte. CI compares this half across runs.
//! * **timing** (in [`RunTimings`]) — cache hit/miss tallies (racing
//!   workers may compute a key twice; shards keep separate caches),
//!   sweep build-vs-rescale counts (they run inside cached stages) and
//!   arena reuse. Explicitly machine- and schedule-dependent, excluded
//!   from every identity check. The wall-clock span histograms and the
//!   per-worker throughput list sit next to them.
//! * **service** — scheduling-dependent tallies of the admission
//!   service, recorded and folded like the timing half but not part of
//!   a campaign run's `--metrics-json` document.
//!
//! ## Run-scoped recorders
//!
//! A run owns a [`Recorder`]: one per CLI campaign run, orchestrator
//! shard, admission engine and bench entry. [`Recorder::enter`] makes it
//! the calling thread's *current* recorder; threads a run spawns carry
//! it by entering it themselves (the campaign executor's workers; the
//! admission engine enters its own on every decision). Leaf sites — the simulator, the
//! sweep kernels, the pipeline stages, the trial caches — never see a
//! handle: they count through [`record`] and [`time`], which reach the
//! current recorder through a thread-local. With no recorder entered,
//! counts go to the process recorder that [`metrics`] returns.
//!
//! A recorder made by [`Recorder::new`] remembers the recorder that was
//! current where it was created and, when its last handle drops, adds
//! its totals into that one. Runs therefore nest: two concurrent runs
//! never see each other's events, and [`metrics`] still ends up
//! counting every finished run of the process.
//!
//! ```
//! use ftsched_obs::{record, time, Recorder, Stage};
//!
//! let run = Recorder::new();
//! {
//!     let _current = run.enter();
//!     record(|m| m.trials_started.incr());
//!     let _span = time(Stage::Design);
//!     // ... design work ...
//! }
//! let snap = run.snapshot();
//! assert_eq!(snap.counters.trials_started, 1);
//! assert_eq!(snap.timing.spans[2].histo.count, 1);
//! ```
//!
//! Counters are always on — one relaxed `fetch_add` per event, batched
//! on hot paths — and recording a span costs two monotonic clock reads.
//! Emission is what callers opt into: nothing here prints or writes.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Entries, Serialize, Value};

/// A monotonically increasing event counter (relaxed atomic `u64`).
///
/// Relaxed ordering is sufficient: counts are only read in aggregate by
/// [`Recorder::snapshot`], never used for synchronisation, and integer
/// addition is commutative, so totals are independent of interleaving.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hit/miss tallies of one memo cache. Scheduling-dependent by nature:
/// two workers racing on a fresh key each count a miss, and sharded runs
/// keep per-process caches — which is exactly why these live in the
/// timing half, never in the deterministic one.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: Counter,
    /// Lookups that had to compute (includes racing double-computes and
    /// every lookup of a disabled cache).
    pub misses: Counter,
    /// Hits whose stored payload was additionally verified equal to the
    /// caller's inputs (the content-hash collision guard).
    pub verified_hits: Counter,
}

/// Point-in-time hit/miss tallies of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Hits additionally verified equal to the caller's inputs.
    pub verified_hits: u64,
}

/// The plain value a table entry snapshots to, combined field-wise.
pub trait Tally: Copy {
    /// Applies `f` to each pair of corresponding counts.
    fn zip(self, other: Self, f: fn(u64, u64) -> u64) -> Self;
}

impl Tally for u64 {
    fn zip(self, other: u64, f: fn(u64, u64) -> u64) -> u64 {
        f(self, other)
    }
}

impl Tally for CacheSnapshot {
    fn zip(self, other: Self, f: fn(u64, u64) -> u64) -> Self {
        CacheSnapshot {
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            verified_hits: f(self.verified_hits, other.verified_hits),
        }
    }
}

/// An atomic table entry and the plain [`Tally`] it snapshots to.
pub trait Atomic {
    /// The snapshot value.
    type Value: Tally;
    /// The current value.
    fn load(&self) -> Self::Value;
    /// Adds a snapshot value (how a finished recorder folds into its
    /// parent).
    fn absorb(&self, value: Self::Value);
}

impl Atomic for Counter {
    type Value = u64;
    fn load(&self) -> u64 {
        self.get()
    }
    fn absorb(&self, value: u64) {
        self.add(value);
    }
}

impl Atomic for CacheStats {
    type Value = CacheSnapshot;
    fn load(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            verified_hits: self.verified_hits.get(),
        }
    }
    fn absorb(&self, value: CacheSnapshot) {
        self.hits.add(value.hits);
        self.misses.add(value.misses);
        self.verified_hits.add(value.verified_hits);
    }
}

/// A fixed-bin histogram of wall-clock durations.
///
/// Bin `i` counts spans in `[2^i, 2^(i+1))` microseconds (bin 0 also
/// takes sub-microsecond spans, the last bin everything beyond the
/// range). Power-of-two bins need no configuration, cover nanosecond
/// kernels to multi-second campaigns in [`Self::BINS`] slots, and — like
/// every count here — merge by plain addition.
#[derive(Debug)]
pub struct DurationHisto {
    bins: [Counter; Self::BINS],
    count: Counter,
    total_nanos: Counter,
}

impl Default for DurationHisto {
    fn default() -> Self {
        DurationHisto {
            bins: std::array::from_fn(|_| Counter::default()),
            count: Counter::default(),
            total_nanos: Counter::default(),
        }
    }
}

impl DurationHisto {
    /// Number of power-of-two microsecond bins: `2^21` µs ≈ 2 s in the
    /// top regular bin, far beyond any single pipeline stage.
    pub const BINS: usize = 22;

    /// Records one span.
    pub fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        // floor(log2(micros)) via the leading-zero count; sub-µs spans
        // land in bin 0, outliers saturate into the last bin.
        let idx = (63 - micros.max(1).leading_zeros()) as usize;
        self.bins[idx.min(Self::BINS - 1)].incr();
        self.count.incr();
        self.total_nanos
            .add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The current contents as plain integers.
    pub fn snapshot(&self) -> HistoSnapshot {
        HistoSnapshot {
            count: self.count.get(),
            total_nanos: self.total_nanos.get(),
            bins: self.bins.iter().map(Counter::get).collect(),
        }
    }

    fn absorb(&self, h: &HistoSnapshot) {
        self.count.add(h.count);
        self.total_nanos.add(h.total_nanos);
        for (bin, &n) in self.bins.iter().zip(&h.bins) {
            bin.add(n);
        }
    }
}

/// Point-in-time contents of one duration histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Spans recorded.
    pub count: u64,
    /// Sum of all span durations, in nanoseconds.
    pub total_nanos: u64,
    /// Per-bin span counts (see [`DurationHisto`] for the bin layout).
    pub bins: Vec<u64>,
}

impl HistoSnapshot {
    fn zip(&self, other: &HistoSnapshot, f: fn(u64, u64) -> u64) -> HistoSnapshot {
        let at = |bins: &[u64], i: usize| bins.get(i).copied().unwrap_or(0);
        HistoSnapshot {
            count: f(self.count, other.count),
            total_nanos: f(self.total_nanos, other.total_nanos),
            bins: (0..self.bins.len().max(other.bins.len()))
                .map(|i| f(at(&self.bins, i), at(&other.bins, i)))
                .collect(),
        }
    }
}

/// The pipeline stages the layer keeps span histograms for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Synthetic task-set generation (UUniFast draw + construction).
    Generation,
    /// Partitioning a drawn task set onto the mode channels.
    Partition,
    /// The deterministic design stage (region sweep, goal search, slot
    /// schedule construction).
    Design,
    /// The validation stage (discrete-event simulation of the design).
    Validate,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 4] = [
        Stage::Generation,
        Stage::Partition,
        Stage::Design,
        Stage::Validate,
    ];

    /// Stable lower-case label (the key used in metrics reports).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Generation => "generation",
            Stage::Partition => "partition",
            Stage::Design => "design",
            Stage::Validate => "validate",
        }
    }
}

/// One stage's span histogram in a snapshot. Serialises flat, as
/// `{stage, count, total_nanos, bins_micros_log2}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// The stage.
    pub stage: Stage,
    /// Its recorded spans.
    pub histo: HistoSnapshot,
}

impl Serialize for StageSpan {
    fn serialize(&self, out: &mut serde::Writer) {
        out.begin_map();
        out.field("stage", self.stage.label());
        out.field("count", &self.histo.count);
        out.field("total_nanos", &self.histo.total_nanos);
        out.field("bins_micros_log2", &self.histo.bins);
        out.end_map();
    }
}

impl Deserialize for StageSpan {
    fn from_value(v: &Value<'_>) -> Result<Self, serde::Error> {
        let m = map_of(v, "StageSpan")?;
        let label: String = field(m, "stage", "StageSpan")?;
        let stage = Stage::ALL
            .into_iter()
            .find(|s| s.label() == label)
            .ok_or_else(|| serde::Error::custom(format!("unknown stage `{label}`")))?;
        Ok(StageSpan {
            stage,
            histo: HistoSnapshot {
                count: field(m, "count", "StageSpan")?,
                total_nanos: field(m, "total_nanos", "StageSpan")?,
                bins: field(m, "bins_micros_log2", "StageSpan")?,
            },
        })
    }
}

/// Combines two span lists stage by stage; a stage present on one side
/// only is combined with zero.
fn zip_spans(ours: &[StageSpan], theirs: &[StageSpan], f: fn(u64, u64) -> u64) -> Vec<StageSpan> {
    let mut out = ours.to_vec();
    for t in theirs {
        match out.iter_mut().find(|s| s.stage == t.stage) {
            Some(s) => s.histo = s.histo.zip(&t.histo, f),
            None => out.push(StageSpan {
                stage: t.stage,
                histo: HistoSnapshot::default().zip(&t.histo, f),
            }),
        }
    }
    out
}

fn map_of<'v, 'a>(v: &'v Value<'a>, ty: &str) -> Result<&'v Entries<'a>, serde::Error> {
    v.as_map()
        .ok_or_else(|| serde::Error::custom(format!("expected a map for `{ty}`")))
}

/// One named field, read the way the derive macro reads it: a missing
/// key is tried against `null`.
fn field<T: Deserialize>(m: &Entries<'_>, key: &str, ty: &str) -> Result<T, serde::Error> {
    match serde::get_field(m, key) {
        Some(v) => T::from_value(v),
        None => T::from_value(&Value::Null)
            .map_err(|_| serde::Error::custom(format!("missing field `{key}` in `{ty}`"))),
    }
}

/// One run's complete metrics: the `--metrics-json` document and what
/// [`Recorder::snapshot`] returns. Serialises as `{counters, timings}`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Deterministic per-trial event counts.
    pub counters: RunCounters,
    /// Machine- and scheduling-dependent data.
    #[serde(rename = "timings")]
    pub timing: RunTimings,
}

impl RunMetrics {
    /// Merges two runs' metrics: counters sum exactly (so merged shard
    /// counters reproduce the unsharded run byte for byte); timings
    /// aggregate lossily (summed wall clock and observations, maximum
    /// worker count, concatenated per-worker throughput).
    pub fn merged(&self, other: &RunMetrics) -> RunMetrics {
        RunMetrics {
            counters: self.counters.merged(&other.counters),
            timing: self.timing.merged(&other.timing),
        }
    }

    /// The events recorded between `baseline` and `self`, for readers
    /// that bracket work with two snapshots of one recorder.
    pub fn since(&self, baseline: &RunMetrics) -> RunMetrics {
        RunMetrics {
            counters: self.counters.since(&baseline.counters),
            timing: self.timing.since(&baseline.timing),
        }
    }
}

impl RunCounters {
    /// Field-wise sum: the shard-merge operation. Saturating, so it is
    /// exactly associative and commutative over all of `u64`, with
    /// [`RunCounters::default`] as the identity.
    pub fn merged(&self, other: &RunCounters) -> RunCounters {
        self.zip(other, u64::saturating_add)
    }

    /// `self − baseline`, per field (saturating).
    pub fn since(&self, baseline: &RunCounters) -> RunCounters {
        self.zip(baseline, u64::saturating_sub)
    }
}

impl RunTimings {
    /// Merges two runs' timings: summed wall clock and observations,
    /// maximum worker count, concatenated per-worker throughput.
    pub fn merged(&self, other: &RunTimings) -> RunTimings {
        RunTimings {
            wall_seconds: self.wall_seconds + other.wall_seconds,
            workers: self.workers.max(other.workers),
            spans: zip_spans(&self.spans, &other.spans, u64::saturating_add),
            worker_trials: [&self.worker_trials[..], &other.worker_trials].concat(),
            ..self.zip_tallies(other, u64::saturating_add)
        }
    }

    /// `self − baseline`: saturating per count; the worker list only
    /// grows, so its delta is the new suffix.
    pub fn since(&self, baseline: &RunTimings) -> RunTimings {
        RunTimings {
            wall_seconds: self.wall_seconds - baseline.wall_seconds,
            workers: self.workers,
            spans: zip_spans(&self.spans, &baseline.spans, u64::saturating_sub),
            worker_trials: self
                .worker_trials
                .get(baseline.worker_trials.len()..)
                .unwrap_or_default()
                .to_vec(),
            ..self.zip_tallies(baseline, u64::saturating_sub)
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

fn process() -> &'static Arc<Recorder> {
    static PROCESS: OnceLock<Arc<Recorder>> = OnceLock::new();
    PROCESS.get_or_init(Arc::default)
}

/// The process recorder: where counts land on threads with no recorder
/// entered, and where every recorder created on such a thread folds its
/// totals when it finishes.
pub fn metrics() -> &'static Recorder {
    process()
}

/// A handle to the calling thread's current recorder (the process
/// recorder when none is entered) — what a run passes to the threads
/// it spawns.
pub fn current() -> Arc<Recorder> {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| Arc::clone(process()))
}

/// Runs `f` on the calling thread's current recorder: how leaf sites
/// count without holding a handle.
#[inline]
pub fn record<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    CURRENT.with(|c| match c.borrow().as_deref() {
        Some(recorder) => f(recorder),
        None => f(metrics()),
    })
}

/// Starts a wall-clock span for `stage`; the elapsed time is recorded
/// into the current recorder when the returned guard drops.
#[inline]
pub fn time(stage: Stage) -> Span {
    Span {
        stage,
        start: Instant::now(),
    }
}

/// An RAII span created by [`time`].
#[derive(Debug)]
#[must_use = "the span is recorded when the guard drops"]
pub struct Span {
    stage: Stage,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        record(|m| m.span_histo(self.stage).record(elapsed));
    }
}

/// Keeps a recorder current on one thread; dropping it restores the
/// previously current recorder. Returned by [`Recorder::enter`].
#[derive(Debug)]
#[must_use = "the recorder is current only while the guard lives"]
pub struct Entered {
    /// The recorder to restore, `None` when the entered recorder was
    /// already current (the guard then changes nothing).
    previous: Option<Option<Arc<Recorder>>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            // Swap first, drop after: releasing the entered handle may
            // finish its recorder, which folds into the parent.
            let entered = CURRENT.with(|c| c.replace(previous));
            drop(entered);
        }
    }
}

impl Recorder {
    /// A recorder for one run. When its last handle drops it adds its
    /// totals into the recorder that is current on the calling thread
    /// now.
    pub fn new() -> Arc<Recorder> {
        let mut recorder = Recorder::default();
        recorder.parent = Some(current());
        Arc::new(recorder)
    }

    /// Makes this recorder current on the calling thread until the
    /// returned guard drops. Guards nest. Entering the recorder that is
    /// already current touches neither the thread's slot nor the
    /// recorder's reference count, so a thread that keeps one recorder
    /// entered can re-enter it per operation at no shared cost.
    pub fn enter(self: &Arc<Self>) -> Entered {
        let previous = CURRENT.with(|c| {
            let mut current = c.borrow_mut();
            let entered = current.as_ref().is_some_and(|r| Arc::ptr_eq(r, self));
            (!entered).then(|| current.replace(Arc::clone(self)))
        });
        Entered {
            previous,
            _thread_bound: PhantomData,
        }
    }

    /// The span histogram of one stage.
    pub fn span_histo(&self, stage: Stage) -> &DurationHisto {
        &self.spans[stage as usize]
    }

    /// Records that one campaign worker processed `trials` trials (the
    /// per-worker throughput list of the timing half).
    pub fn record_worker_trials(&self, trials: u64) {
        self.worker_list().push(trials);
    }

    /// The per-worker throughput list. Every update is a single push or
    /// extend, so the list stays valid even if a holder panicked — and a
    /// recorder reads it while dropping, where it must not panic.
    fn worker_list(&self) -> MutexGuard<'_, Vec<u64>> {
        self.worker_trials
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Some(parent) = self.parent.take() {
            parent.absorb(&self.snapshot());
        }
    }
}

/// Generates every piece of counter plumbing from one declaration per
/// counter; see the crate docs.
macro_rules! counters {
    (
        deterministic { $( $(#[$dm:meta])* $d:ident, )* }
        timing { $( $(#[$tm:meta])* $t:ident: $tty:ty, )* }
        service { $( $(#[$sm:meta])* $s:ident: $sty:ty, )* }
    ) => {
        /// The atomic registry of one run (or of the process, see
        /// [`metrics`]). Instrumentation sites bump its fields through
        /// [`record`]; [`Self::snapshot`] reads them out.
        /// `Recorder::default()` is detached: it folds into nothing.
        #[derive(Debug, Default)]
        pub struct Recorder {
            $( $(#[$dm])* pub $d: Counter, )*
            $( $(#[$tm])* pub $t: $tty, )*
            $( $(#[$sm])* pub $s: $sty, )*
            spans: [DurationHisto; 4],
            worker_trials: Mutex<Vec<u64>>,
            parent: Option<Arc<Recorder>>,
        }

        /// The deterministic half of a run's metrics: pure event counts,
        /// byte-identical across thread counts and additive across
        /// shards.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct RunCounters {
            $( $(#[$dm])* pub $d: u64, )*
        }

        /// The machine-dependent half of a run's metrics. Excluded from
        /// every identity check; merging shards sums the accumulable
        /// observations and concatenates per-worker throughput. The
        /// service tallies are not serialised.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct RunTimings {
            /// Wall-clock seconds of the run (summed across merged
            /// shards; zero in a bare recorder snapshot).
            pub wall_seconds: f64,
            /// Worker threads the run used (max across merged shards).
            pub workers: u64,
            $( $(#[$tm])* pub $t: <$tty as Atomic>::Value, )*
            $( $(#[$sm])* pub $s: <$sty as Atomic>::Value, )*
            /// Per-stage wall-clock span histograms, in [`Stage::ALL`]
            /// order (serialised as `stages`).
            pub spans: Vec<StageSpan>,
            /// Trials processed per campaign worker, in completion order.
            pub worker_trials: Vec<u64>,
        }

        impl Recorder {
            /// A point-in-time copy of everything. Individual loads are
            /// relaxed; read at quiescent points, where no instrumented
            /// work of the run is in flight.
            pub fn snapshot(&self) -> RunMetrics {
                RunMetrics {
                    counters: RunCounters { $( $d: self.$d.get(), )* },
                    timing: RunTimings {
                        wall_seconds: 0.0,
                        workers: 0,
                        $( $t: self.$t.load(), )*
                        $( $s: self.$s.load(), )*
                        spans: Stage::ALL
                            .into_iter()
                            .map(|stage| StageSpan {
                                stage,
                                histo: self.span_histo(stage).snapshot(),
                            })
                            .collect(),
                        worker_trials: self.worker_list().clone(),
                    },
                }
            }

            fn absorb(&self, m: &RunMetrics) {
                $( self.$d.add(m.counters.$d); )*
                $( self.$t.absorb(m.timing.$t); )*
                $( self.$s.absorb(m.timing.$s); )*
                for s in &m.timing.spans {
                    self.span_histo(s.stage).absorb(&s.histo);
                }
                self.worker_list()
                    .extend_from_slice(&m.timing.worker_trials);
            }
        }

        impl RunCounters {
            fn zip(&self, other: &RunCounters, f: fn(u64, u64) -> u64) -> RunCounters {
                RunCounters { $( $d: f(self.$d, other.$d), )* }
            }
        }

        impl RunTimings {
            /// The tallies of `self` and `other` combined by `f`; the
            /// rest at its default.
            fn zip_tallies(&self, other: &RunTimings, f: fn(u64, u64) -> u64) -> RunTimings {
                RunTimings {
                    $( $t: self.$t.zip(other.$t, f), )*
                    $( $s: self.$s.zip(other.$s, f), )*
                    ..RunTimings::default()
                }
            }
        }

        impl Serialize for RunTimings {
            fn serialize(&self, out: &mut serde::Writer) {
                out.begin_map();
                out.field("wall_seconds", &self.wall_seconds);
                out.field("workers", &self.workers);
                $( out.field(stringify!($t), &self.$t); )*
                out.field("stages", &self.spans);
                out.field("worker_trials", &self.worker_trials);
                out.end_map();
            }
        }

        impl Deserialize for RunTimings {
            fn from_value(v: &Value<'_>) -> Result<Self, serde::Error> {
                let m = map_of(v, "RunTimings")?;
                Ok(RunTimings {
                    wall_seconds: field(m, "wall_seconds", "RunTimings")?,
                    workers: field(m, "workers", "RunTimings")?,
                    $( $t: field(m, stringify!($t), "RunTimings")?, )*
                    $( $s: Default::default(), )*
                    spans: field(m, "stages", "RunTimings")?,
                    worker_trials: field(m, "worker_trials", "RunTimings")?,
                })
            }
        }
    };
}

counters! {
    deterministic {
        /// Campaign trials started.
        trials_started,
        /// Campaign trials completed (any status).
        trials_completed,
        /// Trials accepted by the design (and, where applicable,
        /// validation) stage.
        trials_accepted,
        /// Trials whose workload generation failed.
        trials_generation_failed,
        /// Trials whose task set could not be partitioned.
        trials_partition_failed,
        /// Trials whose design stage found no feasible period.
        trials_design_rejected,
        /// Trials rejected by the simulator (consistency backstop).
        trials_simulation_failed,
        /// Lookups *issued* to the paper design cache (one per paper
        /// trial — a pure function of the spec, unlike the hit/miss
        /// split).
        design_cache_requests,
        /// Lookups issued to the synthetic generation cache (one per
        /// synthetic trial).
        generation_cache_requests,
        /// Lookups issued to the synthetic partition cache (one per
        /// generated task set).
        partition_cache_requests,
        /// Validation-stage executions (one per accepted validate trial;
        /// never cached).
        validate_runs,
        /// Simulation runs completed: one per classified fault draw.
        /// This and every other `sim_*` count describe each validated
        /// trial's simulated schedule, whether it was built for that
        /// trial or shared by all trials of one design (faults never
        /// change a schedule, so a shared one is classified per draw).
        sim_runs,
        /// Useful windows the event engine actually walked (idle-jumped
        /// windows are skipped, not counted).
        sim_windows,
        /// Execution slices scheduled across all simulation runs.
        sim_slices,
        /// Jobs released inside simulated horizons.
        sim_jobs_released,
        /// Jobs completed inside simulated horizons.
        sim_jobs_completed,
        /// Faults injected by the simulated fault schedules.
        sim_faults_injected,
        /// Events the simulator processed: windows entered, job
        /// admissions, dispatches and completions.
        sim_events,
        /// Idle spans the event engine skipped by jumping two or more
        /// windows ahead at once.
        sim_idle_spans_jumped,
        /// The summed length, in ticks, of the fault/job overlaps the
        /// fault classifier examined. It measures how much simulated
        /// time faults covered, not work done: the classifier visits
        /// each overlap once, whatever its length. (The name is kept so
        /// existing counter sections stay byte-identical.)
        sim_ticks_materialised,
    }
    timing {
        /// Paper design-stage cache hit/miss tallies.
        design_cache: CacheStats,
        /// Synthetic generation cache hit/miss tallies.
        generation_cache: CacheStats,
        /// Synthetic partition cache hit/miss tallies.
        partition_cache: CacheStats,
        /// Design-stage executions (cache misses recompute, so this is
        /// scheduling-dependent — unlike `validate_runs`).
        design_stage_runs: Counter,
        /// `MinQSweep` enumerations built from scratch.
        sweep_builds: Counter,
        /// `MinQSweep::rescale_into` reuses of an existing enumeration.
        sweep_rescales: Counter,
        /// Always zero: the integer rescale tier it counted is gone. It
        /// stays declared because the benchmark's replay still reads it
        /// (its `analysis.rescale.quantised_frac` metric), and goes
        /// together with that metric.
        sweep_rescales_quantised: Counter,
        /// Rescales through the sequential f64 fold, which serves every
        /// rescale: equal to `sweep_rescales`.
        sweep_rescales_scalar: Counter,
        /// Evaluations of the Eq. 15 curve `f(P)` made by the design
        /// layer's period searches (last feasible period, peak, slack
        /// argmax), on the grid and in their bisection or local
        /// refinement. Full-curve sweeps are not counted. Design caches
        /// decide how often a search runs, so this depends on scheduling.
        region_evaluations: Counter,
        /// Schedule builds that had to grow a fresh arena. Paper
        /// campaigns build one schedule per design, not per trial.
        arena_fresh: Counter,
        /// Schedule builds that reused a warm arena's buffers.
        arena_reused: Counter,
    }
    service {
        /// Admission-service decision cache tallies (`ftsched serve`;
        /// keyed on task-set content hash × goal × overhead bits).
        serve_admission_cache: CacheStats,
        /// Admission-service hot `AnalysisContext` cache tallies (shared
        /// across goals for one platform configuration).
        serve_context_cache: CacheStats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let m = Recorder::default();
        m.trials_started.add(3);
        m.trials_started.incr();
        assert_eq!(m.trials_started.get(), 4);
        let before = m.snapshot();
        m.trials_started.add(5);
        m.sim_runs.add(2);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.counters.trials_started, 5);
        assert_eq!(delta.counters.sim_runs, 2);
        assert_eq!(delta.counters.trials_completed, 0);
    }

    #[test]
    fn histogram_bins_are_power_of_two_micros() {
        let h = DurationHisto::default();
        h.record(Duration::from_nanos(10)); // sub-µs → bin 0
        h.record(Duration::from_micros(1)); // bin 0
        h.record(Duration::from_micros(3)); // bin 1
        h.record(Duration::from_micros(100)); // bin 6 (64..128 µs)
        h.record(Duration::from_secs(60)); // saturates into last bin
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.bins[0], 2);
        assert_eq!(s.bins[1], 1);
        assert_eq!(s.bins[6], 1);
        assert_eq!(s.bins[DurationHisto::BINS - 1], 1);
        assert_eq!(s.bins.iter().sum::<u64>(), 5);
        assert!(s.total_nanos >= 60_000_000_000);
    }

    #[test]
    fn spans_record_into_the_entered_recorder() {
        let run = Recorder::new();
        {
            let _current = run.enter();
            let _design = time(Stage::Design);
            let _validate = time(Stage::Validate);
        }
        let snap = run.snapshot();
        let design = &snap.timing.spans[Stage::Design as usize];
        assert_eq!(design.stage, Stage::Design);
        assert_eq!(design.histo.count, 1);
        assert_eq!(snap.timing.spans[Stage::Validate as usize].histo.count, 1);
        assert_eq!(snap.timing.spans[Stage::Generation as usize].histo.count, 0);
    }

    #[test]
    fn worker_trials_delta_is_the_new_suffix() {
        let m = Recorder::default();
        m.record_worker_trials(10);
        let before = m.snapshot();
        m.record_worker_trials(20);
        m.record_worker_trials(30);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.timing.worker_trials, vec![20, 30]);
    }

    #[test]
    fn cache_stats_split_verified_hits() {
        let m = Recorder::default();
        m.partition_cache.hits.incr();
        m.partition_cache.verified_hits.incr();
        m.partition_cache.misses.add(2);
        assert_eq!(
            m.snapshot().timing.partition_cache,
            CacheSnapshot {
                hits: 1,
                misses: 2,
                verified_hits: 1
            }
        );
    }

    #[test]
    fn global_handle_is_stable() {
        let a = metrics() as *const Recorder;
        let b = metrics() as *const Recorder;
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_runs_stay_apart_and_fold_into_their_creator() {
        let outer = Recorder::new();
        let _current = outer.enter();
        let totals: Vec<RunMetrics> = std::thread::scope(|scope| {
            let workers: Vec<_> = [3u64, 5]
                .map(|n| {
                    let parent = current();
                    scope.spawn(move || {
                        let _carried = parent.enter();
                        let run = Recorder::new();
                        let _current = run.enter();
                        for _ in 0..n {
                            record(|m| m.sim_runs.incr());
                            let _span = time(Stage::Validate);
                        }
                        run.record_worker_trials(n);
                        run.snapshot()
                    })
                })
                .into();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(totals[0].counters.sim_runs, 3);
        assert_eq!(totals[1].counters.sim_runs, 5);
        // Both runs finished on their threads and folded into `outer`,
        // the recorder current where they were created.
        let folded = outer.snapshot();
        assert_eq!(folded.counters.sim_runs, 8);
        assert_eq!(folded.timing.spans[Stage::Validate as usize].histo.count, 8);
        let mut workers = folded.timing.worker_trials;
        workers.sort_unstable();
        assert_eq!(workers, vec![3, 5]);
    }

    #[test]
    fn entered_guards_nest_and_restore() {
        let a = Recorder::new();
        let b = Recorder::new();
        let _in_a = a.enter();
        {
            let _in_b = b.enter();
            record(|m| m.sim_events.incr());
        }
        record(|m| m.sim_events.add(2));
        assert_eq!(b.snapshot().counters.sim_events, 1);
        assert_eq!(a.snapshot().counters.sim_events, 2);
    }

    #[test]
    fn re_entering_the_current_recorder_changes_nothing() {
        let a = Recorder::new();
        let _in_a = a.enter();
        let handles = Arc::strong_count(&a);
        {
            let _again = a.enter();
            assert_eq!(Arc::strong_count(&a), handles);
            record(|m| m.sim_events.incr());
        }
        // Dropping the inner guard left `a` current.
        record(|m| m.sim_events.incr());
        assert_eq!(a.snapshot().counters.sim_events, 2);
    }

    #[test]
    fn metrics_document_round_trips_and_keeps_its_key_order() {
        let m = Recorder::default();
        m.trials_started.add(5);
        m.design_cache.hits.add(3);
        m.serve_context_cache.hits.incr();
        m.record_worker_trials(7);
        let mut doc = m.snapshot();
        doc.timing.wall_seconds = 1.5;
        doc.timing.workers = 4;
        let text = serde_json::to_string(&doc).unwrap();
        let value = serde_json::parse_value_complete(&text).unwrap();
        let timings = serde::get_field(value.as_map().unwrap(), "timings").unwrap();
        let keys: Vec<&str> = timings
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| &**k)
            .collect();
        assert_eq!(keys.first(), Some(&"wall_seconds"));
        assert_eq!(keys[2], "design_cache");
        assert_eq!(&keys[keys.len() - 2..], ["stages", "worker_trials"]);
        assert!(!keys.contains(&"serve_context_cache"));
        // Service tallies are not part of the document; everything else
        // survives the round trip.
        let back = RunMetrics::from_value(&value).unwrap();
        doc.timing.serve_context_cache = CacheSnapshot::default();
        assert_eq!(back, doc);
    }

    #[test]
    fn timings_merge_lossily() {
        let mk = |wall, workers, trials: &[u64]| RunTimings {
            wall_seconds: wall,
            workers,
            design_stage_runs: 1,
            worker_trials: trials.to_vec(),
            ..RunTimings::default()
        };
        let merged = mk(1.0, 2, &[5, 6]).merged(&mk(2.0, 8, &[7]));
        assert!((merged.wall_seconds - 3.0).abs() < 1e-12);
        assert_eq!(merged.workers, 8);
        assert_eq!(merged.worker_trials, vec![5, 6, 7]);
        assert_eq!(merged.design_stage_runs, 2);
    }
}

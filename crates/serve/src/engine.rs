//! The admission engine: the paper's design stage behind hot caches.
//!
//! Two memo tables (both [`ftsched_campaign::cache::MemoCache`], both
//! reporting into the engine's own `ftsched_obs` recorder) sit between
//! a request and the feasible-period search:
//!
//! * the **admission cache** memoises whole decisions, keyed by
//!   [`AdmissionKey`] — the task set's content hash crossed with every
//!   request axis the decision depends on (algorithm, heuristic, goal
//!   and the overhead's *bit pattern* via
//!   [`ftsched_campaign::cache::overhead_key_bits`]);
//! * the **context cache** memoises the prepared
//!   [`AnalysisContext`] (partition + per-mode `minQ` enumerations) per
//!   platform configuration, keyed by [`ContextKey`] — the same axes
//!   *minus* the goal, so an `Exchange`-style workload that flips goals
//!   over one platform pays the context build once.
//!
//! Content hashes are 64-bit and not collision-free, so every cached
//! entry carries the task set it was computed for and a hit is trusted
//! only after an `==` verification — a collision costs a recomputation,
//! never a wrong answer (the same discipline as the campaign's
//! partition cache).
//!
//! Admission latency is recorded per decision into a
//! [`LatencyCurve`] (microsecond bins), the same exact-merging histogram
//! machinery behind the campaign's latency-vs-load curves; the
//! [`ServeSummary`] reports its p50/p95/p99.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftsched_analysis::Algorithm;
use ftsched_campaign::cache::{overhead_key_bits, MemoCache};
use ftsched_campaign::spec::LatencyCurveSpec;
use ftsched_campaign::stats::LatencyCurve;
use ftsched_core::pipeline::design_stage_with;
use ftsched_design::partitioner::{partition_system, PartitionHeuristic};
use ftsched_design::quanta::SlackPolicy;
use ftsched_design::region::RegionConfig;
use ftsched_design::{AnalysisContext, DesignGoal, DesignProblem, DesignSolution};
use ftsched_obs::Recorder;
use ftsched_task::{Task, TaskSet};
use serde::Serialize;

use crate::protocol::{AdmissionRequest, AdmissionResponse, DesignSummary, TaskRequest, Verdict};

/// A [`DesignGoal`] reduced to a hashable cache-key axis. The
/// `FixedPeriod` payload goes through the same bit-keying as the
/// overhead axis ([`overhead_key_bits`]): `-0.0` and `0.0` periods stay
/// distinct, NaN periods are self-equal instead of unhittable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GoalKey {
    /// `DesignGoal::MinimizeOverheadBandwidth`.
    MinOverhead,
    /// `DesignGoal::MaximizeSlackBandwidth`.
    MaxSlack,
    /// `DesignGoal::FixedPeriod`, by the period's bit pattern.
    FixedPeriodBits(u64),
}

impl From<DesignGoal> for GoalKey {
    fn from(goal: DesignGoal) -> Self {
        match goal {
            DesignGoal::MinimizeOverheadBandwidth => GoalKey::MinOverhead,
            DesignGoal::MaximizeSlackBandwidth => GoalKey::MaxSlack,
            DesignGoal::FixedPeriod(period) => GoalKey::FixedPeriodBits(overhead_key_bits(period)),
        }
    }
}

/// Identity of one whole admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdmissionKey {
    /// [`TaskSet::content_hash`] of the validated task set.
    pub taskset_hash: u64,
    /// Local scheduling algorithm.
    pub algorithm: Algorithm,
    /// Partitioning heuristic.
    pub heuristic: PartitionHeuristic,
    /// The design goal, reduced to a hashable key.
    pub goal: GoalKey,
    /// Bit pattern of the total overhead
    /// ([`overhead_key_bits`]).
    pub overhead_bits: u64,
}

/// Identity of one prepared platform configuration (everything an
/// [`AnalysisContext`] depends on — the goal deliberately excluded, so
/// goal changes reuse the hot context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextKey {
    /// [`TaskSet::content_hash`] of the validated task set.
    pub taskset_hash: u64,
    /// Local scheduling algorithm.
    pub algorithm: Algorithm,
    /// Partitioning heuristic.
    pub heuristic: PartitionHeuristic,
    /// Bit pattern of the total overhead.
    pub overhead_bits: u64,
}

impl AdmissionKey {
    /// Builds the decision key for a validated task set.
    pub fn new(tasks: &TaskSet, request: &AdmissionRequest) -> Self {
        AdmissionKey {
            taskset_hash: tasks.content_hash(),
            algorithm: request.algorithm,
            heuristic: request.heuristic,
            goal: GoalKey::from(request.goal),
            overhead_bits: overhead_key_bits(request.total_overhead),
        }
    }
}

impl ContextKey {
    /// Builds the platform-configuration key for a validated task set.
    pub fn new(tasks: &TaskSet, request: &AdmissionRequest) -> Self {
        ContextKey {
            taskset_hash: tasks.content_hash(),
            algorithm: request.algorithm,
            heuristic: request.heuristic,
            overhead_bits: overhead_key_bits(request.total_overhead),
        }
    }
}

/// Why a platform configuration could not be prepared.
#[derive(Debug, Clone)]
enum PrepareFailure {
    /// The request is structurally invalid (maps to [`Verdict::Error`]).
    Invalid(String),
    /// The task set cannot be hosted (maps to [`Verdict::Rejected`]).
    Infeasible(String),
}

/// A prepared platform configuration: the design problem, its hot
/// analysis context and the period-region sweep bounds.
#[derive(Debug)]
struct Prepared {
    problem: DesignProblem,
    context: AnalysisContext,
    region: RegionConfig,
}

/// One context-cache entry; `tasks` backs the collision check.
#[derive(Debug)]
struct ContextEntry {
    tasks: TaskSet,
    prepared: Result<Prepared, PrepareFailure>,
}

/// One admission-cache entry; `tasks` backs the collision check.
#[derive(Debug)]
struct AdmissionEntry {
    tasks: TaskSet,
    verdict: Verdict,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Whether the admission and context caches store anything at all
    /// (disabled caches recompute every request; responses are
    /// byte-identical either way).
    pub cache: bool,
    /// Live-entry capacity cap of each cache.
    pub cache_capacity: usize,
    /// Width of one admission-latency histogram bin, in microseconds.
    pub latency_bin_us: f64,
    /// Number of regular latency bins (decisions at or beyond
    /// `latency_bin_us * latency_bins` land in the overflow bin).
    pub latency_bins: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache: true,
            cache_capacity: 65_536,
            // 25 µs bins over a 100 ms range: cached decisions resolve
            // into the first bins, cold design sweeps stay on-scale.
            latency_bin_us: 25.0,
            latency_bins: 4_000,
        }
    }
}

/// Counts and percentiles of one engine's lifetime, for the stderr
/// summary and `--metrics-json` (never part of a response transcript).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeSummary {
    /// Requests decided (including protocol-error responses).
    pub requests: u64,
    /// Requests admitted with a design.
    pub admitted: u64,
    /// Requests rejected (infeasible task sets).
    pub rejected: u64,
    /// Invalid requests and unparseable frames.
    pub errors: u64,
    /// Admission decisions with a recorded latency.
    pub latency_samples: u64,
    /// Median admission latency, µs (conservative bin edge).
    pub latency_p50_us: f64,
    /// 95th-percentile admission latency, µs.
    pub latency_p95_us: f64,
    /// 99th-percentile admission latency, µs.
    pub latency_p99_us: f64,
    /// Admission-cache hits since the engine was created.
    pub admission_cache_hits: u64,
    /// Admission-cache misses since the engine was created.
    pub admission_cache_misses: u64,
    /// Context-cache hits since the engine was created.
    pub context_cache_hits: u64,
    /// Context-cache misses since the engine was created.
    pub context_cache_misses: u64,
}

/// The admission service's decision core. Thread-safe: the service
/// loops share one engine across connections.
pub struct AdmissionEngine {
    admission: MemoCache<AdmissionKey, AdmissionEntry>,
    contexts: MemoCache<ContextKey, ContextEntry>,
    latency: Mutex<LatencyCurve>,
    latency_span: f64,
    requests: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    /// This engine's metrics: every decision runs with it entered, on
    /// whichever thread decides it. Folds into the recorder that was
    /// current at creation when the engine drops.
    recorder: Arc<Recorder>,
}

impl AdmissionEngine {
    /// Builds an engine with a recorder of its own; cache hit/miss
    /// tallies route into its `serve_admission_cache` /
    /// `serve_context_cache` counters.
    pub fn new(config: EngineConfig) -> Self {
        AdmissionEngine {
            admission: MemoCache::with_limits(config.cache, 0, config.cache_capacity)
                .with_stats(|m| &m.serve_admission_cache),
            contexts: MemoCache::with_limits(config.cache, 0, config.cache_capacity)
                .with_stats(|m| &m.serve_context_cache),
            latency: Mutex::new(LatencyCurve::new(LatencyCurveSpec {
                bin_width: config.latency_bin_us,
                bins: config.latency_bins,
            })),
            latency_span: config.latency_bin_us * config.latency_bins as f64,
            requests: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            recorder: Recorder::new(),
        }
    }

    /// Makes the engine's recorder current on the calling thread until
    /// the guard drops: a thread that decides many requests enters it
    /// once, and each [`Self::admit`] then finds it already current.
    pub(crate) fn enter(&self) -> ftsched_obs::Entered {
        self.recorder.enter()
    }

    /// Decides one request, recording its latency. The response is a
    /// pure function of the request: caches and timing can change how
    /// fast the answer arrives, never what it says.
    pub fn admit(&self, request: &AdmissionRequest) -> AdmissionResponse {
        let _current = self.recorder.enter();
        let start = Instant::now();
        let verdict = self.decide(request);
        let micros = start.elapsed().as_nanos() as f64 / 1_000.0;
        self.latency
            .lock()
            .expect("latency histogram poisoned")
            .observe(micros);
        self.count(&verdict);
        AdmissionResponse {
            id: request.id,
            verdict,
        }
    }

    /// Decides a batch, request by request, in request order; parse
    /// failures (`Err(reason)` slots) become structured error responses
    /// in place.
    pub fn admit_batch(
        &self,
        batch: &[Result<AdmissionRequest, String>],
    ) -> Vec<AdmissionResponse> {
        batch
            .iter()
            .map(|slot| match slot {
                Ok(request) => self.admit(request),
                Err(reason) => self.protocol_error(reason.clone()),
            })
            .collect()
    }

    /// The structured response for a frame that never became a request
    /// (truncated, oversized, or unparseable). Carries id `0` — the
    /// frame's own id, if it had one, was unreadable.
    pub fn protocol_error(&self, reason: String) -> AdmissionResponse {
        let verdict = Verdict::Error { reason };
        self.count(&verdict);
        AdmissionResponse { id: 0, verdict }
    }

    /// Counts and latency percentiles accumulated so far.
    pub fn summary(&self) -> ServeSummary {
        let latency = self.latency.lock().expect("latency histogram poisoned");
        // The conservative quantile is +inf when the rank falls into the
        // overflow bin; clamp to the histogram span so summaries stay
        // finite (and JSON-serialisable).
        let q = |p: f64| latency.histogram.quantile(p).min(self.latency_span);
        let obs = self.recorder.snapshot().timing;
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            latency_samples: latency.samples(),
            latency_p50_us: q(0.50),
            latency_p95_us: q(0.95),
            latency_p99_us: q(0.99),
            admission_cache_hits: obs.serve_admission_cache.hits,
            admission_cache_misses: obs.serve_admission_cache.misses,
            context_cache_hits: obs.serve_context_cache.hits,
            context_cache_misses: obs.serve_context_cache.misses,
        }
    }

    fn count(&self, verdict: &Verdict) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match verdict {
            Verdict::Admitted { .. } => &self.admitted,
            Verdict::Rejected { .. } => &self.rejected,
            Verdict::Error { .. } => &self.errors,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn decide(&self, request: &AdmissionRequest) -> Verdict {
        let tasks = match build_taskset(&request.tasks) {
            Ok(tasks) => tasks,
            Err(reason) => return Verdict::Error { reason },
        };
        let key = AdmissionKey::new(&tasks, request);
        let entry = self.admission.get_or_compute(key, || AdmissionEntry {
            tasks: tasks.clone(),
            verdict: self.compute_verdict(request, &tasks),
        });
        if entry.tasks == tasks {
            self.recorder.serve_admission_cache.verified_hits.incr();
            entry.verdict.clone()
        } else {
            // 64-bit content-hash collision: recompute rather than trust
            // the other task set's decision.
            self.compute_verdict(request, &tasks)
        }
    }

    fn compute_verdict(&self, request: &AdmissionRequest, tasks: &TaskSet) -> Verdict {
        let key = ContextKey::new(tasks, request);
        let entry = self.contexts.get_or_compute(key, || ContextEntry {
            tasks: tasks.clone(),
            prepared: prepare(tasks, request),
        });
        let fallback;
        let prepared = if entry.tasks == *tasks {
            self.recorder.serve_context_cache.verified_hits.incr();
            &entry.prepared
        } else {
            fallback = prepare(tasks, request);
            &fallback
        };
        match prepared {
            Err(PrepareFailure::Invalid(reason)) => Verdict::Error {
                reason: reason.clone(),
            },
            Err(PrepareFailure::Infeasible(reason)) => Verdict::Rejected {
                reason: reason.clone(),
            },
            Ok(prepared) => match design_stage_with(
                &prepared.problem,
                &prepared.context,
                request.goal,
                &prepared.region,
                SlackPolicy::KeepUnallocated,
            ) {
                Ok((solution, _slots)) => Verdict::Admitted {
                    design: summarize(&solution),
                },
                Err(e) => Verdict::Rejected {
                    reason: e.to_string(),
                },
            },
        }
    }
}

/// Validates the request's task list into a [`TaskSet`].
fn build_taskset(tasks: &[TaskRequest]) -> Result<TaskSet, String> {
    let built: Result<Vec<Task>, String> = tasks
        .iter()
        .map(|t| {
            Task::constrained_deadline(t.id, t.wcet, t.period, t.deadline, t.mode)
                .map_err(|e| format!("invalid task {}: {e}", t.id))
        })
        .collect();
    TaskSet::new(built?).map_err(|e| format!("invalid task set: {e}"))
}

/// Prepares one platform configuration: partition, problem, context,
/// region. Pure function of `(tasks, algorithm, heuristic, overhead)`.
fn prepare(tasks: &TaskSet, request: &AdmissionRequest) -> Result<Prepared, PrepareFailure> {
    let partition = partition_system(tasks, request.heuristic)
        .map_err(|e| PrepareFailure::Infeasible(format!("partitioning failed: {e}")))?;
    let problem = DesignProblem::with_total_overhead(
        tasks.clone(),
        partition,
        request.total_overhead,
        request.algorithm,
    )
    .map_err(|e| PrepareFailure::Invalid(format!("invalid problem: {e}")))?;
    let context = problem
        .analysis_context()
        .map_err(|e| PrepareFailure::Infeasible(format!("analysis failed: {e}")))?;
    let region = RegionConfig::for_problem(&problem);
    Ok(Prepared {
        problem,
        context,
        region,
    })
}

/// Flattens a [`DesignSolution`] into the response's design summary.
fn summarize(solution: &DesignSolution) -> DesignSummary {
    DesignSummary {
        period: solution.period,
        useful: solution.allocation.useful,
        slots: solution.allocation.slots,
        slack: solution.allocation.slack,
        overhead_bandwidth: solution.allocation.overhead_bandwidth(),
        slack_bandwidth: solution.allocation.slack_bandwidth(),
        required_utilization: solution.required_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_task::Mode;

    fn paper_request(id: u64, goal: DesignGoal, total_overhead: f64) -> AdmissionRequest {
        let tasks = ftsched_task::examples::paper_taskset()
            .iter()
            .map(|t| TaskRequest {
                id: t.id.0,
                wcet: t.wcet,
                period: t.period,
                deadline: t.deadline,
                mode: t.mode,
            })
            .collect();
        AdmissionRequest {
            id,
            tasks,
            algorithm: Algorithm::EarliestDeadlineFirst,
            goal,
            total_overhead,
            // WFD balances channel load; the greedy first/best-fit packs
            // leave the paper set with no admissible overhead at all.
            heuristic: PartitionHeuristic::WorstFitDecreasing,
        }
    }

    #[test]
    fn paper_taskset_is_admitted_and_cached_hits_answer_identically() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        let request = paper_request(1, DesignGoal::MinimizeOverheadBandwidth, 0.05);
        let cold = engine.admit(&request);
        let hot = engine.admit(&request);
        assert!(matches!(cold.verdict, Verdict::Admitted { .. }));
        assert_eq!(cold, hot, "a cache hit must answer byte-identically");
        let summary = engine.summary();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.admitted, 2);
    }

    #[test]
    fn goal_flip_reuses_the_hot_context() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        let a = paper_request(1, DesignGoal::MinimizeOverheadBandwidth, 0.05);
        let b = paper_request(2, DesignGoal::MaximizeSlackBandwidth, 0.05);
        let ka = AdmissionKey::new(&build_taskset(&a.tasks).unwrap(), &a);
        let kb = AdmissionKey::new(&build_taskset(&b.tasks).unwrap(), &b);
        assert_ne!(ka, kb, "different goals are different decisions");
        assert_eq!(
            ContextKey::new(&build_taskset(&a.tasks).unwrap(), &a),
            ContextKey::new(&build_taskset(&b.tasks).unwrap(), &b),
            "different goals share one platform context"
        );
        let ra = engine.admit(&a);
        let rb = engine.admit(&b);
        assert!(matches!(ra.verdict, Verdict::Admitted { .. }));
        assert!(matches!(rb.verdict, Verdict::Admitted { .. }));
        assert_ne!(ra.verdict, rb.verdict, "the goals choose different designs");
    }

    #[test]
    fn negative_zero_overhead_is_a_distinct_admission_key() {
        // Same regression as the campaign design cache: -0.0 == 0.0 as
        // floats but the keys must stay apart (bitwise-different designs
        // downstream).
        let pos = paper_request(1, DesignGoal::MinimizeOverheadBandwidth, 0.0);
        let neg = paper_request(1, DesignGoal::MinimizeOverheadBandwidth, -0.0);
        let tasks = build_taskset(&pos.tasks).unwrap();
        assert_ne!(
            AdmissionKey::new(&tasks, &pos),
            AdmissionKey::new(&tasks, &neg)
        );
        assert_ne!(ContextKey::new(&tasks, &pos), ContextKey::new(&tasks, &neg));
    }

    #[test]
    fn nan_overhead_is_a_structured_error_with_a_self_equal_key() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        let request = paper_request(9, DesignGoal::MinimizeOverheadBandwidth, f64::NAN);
        let tasks = build_taskset(&request.tasks).unwrap();
        // A raw-f64 key would make NaN != NaN and never hit; the bit
        // keying is self-equal.
        assert_eq!(
            AdmissionKey::new(&tasks, &request),
            AdmissionKey::new(&tasks, &request)
        );
        let first = engine.admit(&request);
        let second = engine.admit(&request);
        assert!(matches!(first.verdict, Verdict::Error { .. }));
        assert_eq!(first, second);
    }

    #[test]
    fn fixed_period_goals_key_on_the_period_bits() {
        match GoalKey::from(DesignGoal::FixedPeriod(2.0)) {
            GoalKey::FixedPeriodBits(bits) => assert_eq!(bits, 2.0f64.to_bits()),
            other => panic!("expected FixedPeriodBits, got {other:?}"),
        }
        assert_ne!(
            GoalKey::from(DesignGoal::FixedPeriod(0.0)),
            GoalKey::from(DesignGoal::FixedPeriod(-0.0))
        );
    }

    #[test]
    fn infeasible_task_sets_are_rejected_not_errored() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        // Four tasks at utilisation ~1.0 each cannot share one FT
        // channel group.
        let tasks = (0..8)
            .map(|i| TaskRequest {
                id: i,
                wcet: 0.99,
                period: 1.0,
                deadline: 1.0,
                mode: Mode::FaultTolerant,
            })
            .collect();
        let request = AdmissionRequest {
            id: 3,
            tasks,
            algorithm: Algorithm::EarliestDeadlineFirst,
            goal: DesignGoal::MinimizeOverheadBandwidth,
            total_overhead: 0.05,
            heuristic: PartitionHeuristic::FirstFitDecreasing,
        };
        let response = engine.admit(&request);
        assert!(matches!(response.verdict, Verdict::Rejected { .. }));
    }

    #[test]
    fn invalid_tasks_are_structured_errors() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        let request = AdmissionRequest {
            id: 4,
            tasks: vec![TaskRequest {
                id: 0,
                wcet: -1.0,
                period: 1.0,
                deadline: 1.0,
                mode: Mode::NonFaultTolerant,
            }],
            algorithm: Algorithm::RateMonotonic,
            goal: DesignGoal::MinimizeOverheadBandwidth,
            total_overhead: 0.0,
            heuristic: PartitionHeuristic::BestFitDecreasing,
        };
        let response = engine.admit(&request);
        assert!(matches!(response.verdict, Verdict::Error { .. }));
        assert_eq!(engine.summary().errors, 1);
    }

    #[test]
    fn batches_preserve_request_order() {
        let engine = AdmissionEngine::new(EngineConfig::default());
        let batch: Vec<Result<AdmissionRequest, String>> = (0..16)
            .map(|i| {
                if i % 5 == 3 {
                    Err(format!("malformed request {i}"))
                } else {
                    Ok(paper_request(
                        i,
                        DesignGoal::MinimizeOverheadBandwidth,
                        0.01 * i as f64,
                    ))
                }
            })
            .collect();
        let responses = engine.admit_batch(&batch);
        assert_eq!(responses.len(), batch.len());
        for (i, response) in responses.iter().enumerate() {
            match &batch[i] {
                Ok(request) => assert_eq!(response.id, request.id),
                Err(_) => {
                    assert_eq!(response.id, 0);
                    assert!(matches!(response.verdict, Verdict::Error { .. }));
                }
            }
        }
    }
}

//! Machine-readable micro-benchmarks of the three hot paths: the minQ
//! analysis kernel, the WCET-sensitivity search and the discrete-event
//! simulator.
//!
//! The paper's experiments are period-grid sweeps and simulation
//! campaigns, so the numbers that matter are (a) minQ evaluated over a
//! period grid — per-sample recomputation vs the sweep-aware
//! [`MinQSweep`] kernel — (b) the WCET-scaling margin search — a fresh
//! problem clone and context per bisection probe vs the parametric
//! in-place rescale — and (c) simulator trials with fresh allocation
//! vs a reused [`SimArena`]. Each run produces a [`BenchReport`] that is
//! written as `BENCH_minq.json` / `BENCH_sensitivity.json` /
//! `BENCH_sim.json` at the repository root, giving the repo a perf
//! trajectory that CI and future PRs can diff.
//!
//! Entry points: [`run_minq_bench`], [`run_sensitivity_bench`],
//! [`run_sim_bench`], [`run_serve_bench`], [`write_report`]. The
//! `minq_performance` / `sim_throughput` bench binaries and the
//! `ftsched bench` CLI subcommand are thin wrappers over these.
//! [`run_serve_bench`] covers the fourth hot path — the admission
//! service's cached decision loop — and carries the
//! `serve_replay_deterministic` transcript contract.

use std::path::PathBuf;
use std::time::{Duration as StdDuration, Instant};

use serde::Serialize;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ftsched_analysis::{min_quantum, Algorithm, MinQSweep};
use ftsched_core::design_stage_with;
use ftsched_design::baseline::compare_static_schemes;
use ftsched_design::partitioner::{partition_system, PartitionHeuristic};
use ftsched_design::quanta::SlackPolicy;
use ftsched_design::region::RegionConfig;
use ftsched_design::sensitivity::{margin_search, scale_wcets, wcet_margin_curve};
use ftsched_design::{AnalysisContext, DesignGoal, DesignProblem};
use ftsched_platform::{FaultModel, FaultSchedule};
use ftsched_sim::{
    simulate, simulate_in, Schedule, ScheduleConfig, SimArena, SimulationConfig, SlotSchedule,
};
use ftsched_task::examples::{paper_example, paper_taskset, PAPER_TOTAL_OVERHEAD};
use ftsched_task::generator::{generate_taskset, GeneratorConfig, ModeMix, PeriodDistribution};
use ftsched_task::{Duration, Mode, PerMode, TaskSet, Time};

use crate::paper_edf;

/// One timed benchmark case.
#[derive(Debug, Clone, Serialize)]
pub struct BenchEntry {
    /// Benchmark name (stable across runs; the trajectory key).
    pub name: String,
    /// Wall-clock nanoseconds per iteration: the minimum over the
    /// measurement batches (scheduler contention only ever adds time, so
    /// the minimum is the least-noisy estimator of the true cost).
    pub ns_per_iter: f64,
    /// Iterations per measurement batch (calibrated, then floored so a
    /// descheduling hiccup cannot dominate a handful of iterations).
    pub iters: u64,
    /// Number of measurement batches behind `ns_per_iter`.
    pub batches: u64,
    /// Relative spread of the per-iter times across the measurement
    /// batches, `(max − min) / min` — the run's own noise estimate. A
    /// large spread flags a number that should not be trusted for
    /// regression comparisons.
    pub spread: f64,
    /// What the measured code actually did, from the `ftsched_obs`
    /// stage counters.
    pub stages: BenchStages,
}

/// Stage counters of one benchmark case, answering *what work the timed
/// loop performed*: kernel builds vs in-place rescales, simulator volume
/// and cache traffic. Each case runs in a recorder of its own, so the
/// counts are the case's alone; they cover every calibration batch plus
/// every measurement batch — `total_iters` iterations in all — so divide
/// by `total_iters` for per-iteration rates. A case's admission engine is
/// created inside the case's recorder and dropped before it is read, so
/// the engine's work counts as the case's. Attached to
/// `BENCH_*.json` entries only; the perf contracts
/// ([`check_minq_contract`], [`check_sensitivity_contract`]) read
/// exclusively from `derived` and are unaffected.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BenchStages {
    /// Iterations executed across all batches (calibration +
    /// measurement).
    pub total_iters: u64,
    /// [`MinQSweep`] constructions.
    pub sweep_builds: u64,
    /// In-place parametric rescales (the sensitivity fast path).
    pub sweep_rescales: u64,
    /// Completed simulator runs.
    pub sim_runs: u64,
    /// Slot windows walked by the simulator.
    pub sim_windows: u64,
    /// Execution slices scheduled by the simulator.
    pub sim_slices: u64,
    /// Memo-cache hits summed over the design/generation/partition
    /// caches and the admission engine's admission/context caches.
    pub cache_hits: u64,
    /// Memo-cache misses summed over the same caches.
    pub cache_misses: u64,
}

impl BenchStages {
    /// Builds the breakdown from the metrics of a case spanning
    /// `total_iters` iterations.
    fn from_metrics(total_iters: u64, m: &ftsched_obs::RunMetrics) -> Self {
        let caches = [
            &m.timing.design_cache,
            &m.timing.generation_cache,
            &m.timing.partition_cache,
            &m.timing.serve_admission_cache,
            &m.timing.serve_context_cache,
        ];
        BenchStages {
            total_iters,
            sweep_builds: m.timing.sweep_builds,
            sweep_rescales: m.timing.sweep_rescales,
            sim_runs: m.counters.sim_runs,
            sim_windows: m.counters.sim_windows,
            sim_slices: m.counters.sim_slices,
            cache_hits: caches.iter().map(|c| c.hits).sum(),
            cache_misses: caches.iter().map(|c| c.misses).sum(),
        }
    }
}

/// A derived metric (speedups, check flags) computed from the entries.
#[derive(Debug, Clone, Serialize)]
pub struct DerivedMetric {
    /// Metric name.
    pub name: String,
    /// Metric value.
    pub value: f64,
}

/// A complete benchmark run, serialised to `BENCH_*.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Which suite this is (`minq` or `sim`).
    pub bench: String,
    /// Whether the run used the reduced quick-mode budget (CI smoke).
    pub quick: bool,
    /// Timed cases.
    pub entries: Vec<BenchEntry>,
    /// Derived speedups / invariants.
    pub derived: Vec<DerivedMetric>,
}

impl BenchReport {
    /// The derived metric with the given name, if present.
    pub fn derived(&self, name: &str) -> Option<f64> {
        self.derived
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.value)
    }

    /// Pretty JSON rendering (what the `BENCH_*.json` files contain).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench reports serialise")
    }
}

/// The result of one [`time_ns`] measurement.
struct Measurement {
    ns_per_iter: f64,
    iters: u64,
    total_iters: u64,
    batches: u64,
    spread: f64,
}

/// Times `f` in two phases. **Calibration** grows the batch size until
/// one batch exceeds the time budget (criterion-style, no statistics).
/// **Measurement** then runs several fixed-size batches, with the batch
/// size additionally floored at a minimum iteration count — the
/// historical single-final-batch scheme could time a 40 ms case off a
/// batch of one iteration, so a single descheduling hiccup became the
/// entry's whole truth and made the derived speedups flaky. The reported
/// per-iter time is the minimum across the measurement batches (noise is
/// strictly additive), and the relative spread between the fastest and
/// slowest batch is kept as the run's own flakiness signal.
fn time_ns(quick: bool, mut f: impl FnMut()) -> Measurement {
    let budget = if quick {
        StdDuration::from_millis(4)
    } else {
        StdDuration::from_millis(40)
    };
    let cap: u64 = if quick { 1 << 12 } else { 1 << 18 };
    let floor: u64 = if quick { 5 } else { 25 };
    let batches: u64 = if quick { 2 } else { 3 };
    let mut iters: u64 = 1;
    let mut total: u64 = 0;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        total += iters;
        if elapsed >= budget || iters >= cap {
            break;
        }
        let per_iter = elapsed.as_nanos().max(1) as f64 / iters as f64;
        let target = (budget.as_nanos() as f64 * 1.25 / per_iter).ceil() as u64;
        iters = target.max(iters * 2).min(cap);
    }
    let m_iters = iters.max(floor);
    let mut best = f64::INFINITY;
    let mut worst = 0.0f64;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..m_iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / m_iters as f64;
        total += m_iters;
        best = best.min(ns);
        worst = worst.max(ns);
    }
    Measurement {
        ns_per_iter: best,
        iters: m_iters,
        total_iters: total,
        batches,
        spread: if best > 0.0 {
            (worst - best) / best
        } else {
            0.0
        },
    }
}

fn entry(entries: &mut Vec<BenchEntry>, name: impl Into<String>, quick: bool, f: impl FnMut()) {
    entry_with(entries, name, quick, || f);
}

/// [`entry`] for a case whose state counts as its work: `setup` builds
/// the timed closure inside the case's recorder, and the closure (with
/// everything it owns) drops before the recorder is read.
fn entry_with<F: FnMut()>(
    entries: &mut Vec<BenchEntry>,
    name: impl Into<String>,
    quick: bool,
    setup: impl FnOnce() -> F,
) {
    let recorder = ftsched_obs::Recorder::new();
    let m = {
        let _current = recorder.enter();
        time_ns(quick, setup())
    };
    entries.push(BenchEntry {
        name: name.into(),
        ns_per_iter: m.ns_per_iter,
        iters: m.iters,
        batches: m.batches,
        spread: m.spread,
        stages: BenchStages::from_metrics(m.total_iters, &recorder.snapshot()),
    });
}

fn mode_sets() -> Vec<(&'static str, TaskSet)> {
    let tasks = paper_taskset();
    vec![
        (
            "FT_channel",
            tasks.tasks_in_mode(Mode::FaultTolerant).unwrap(),
        ),
        ("FS_channel", tasks.tasks_in_mode(Mode::FailSilent).unwrap()),
        (
            "NF_all",
            tasks.tasks_in_mode(Mode::NonFaultTolerant).unwrap(),
        ),
    ]
}

/// The period grid the kernel comparison sweeps (well past the paper's
/// Figure 4 range, ≥ 100 points as the perf contract demands).
/// The `static_baselines/*` batch: 26 generated 10-task sets of the
/// campaign examples' shape, two per utilisation 0.6, 0.8, …, 3.0.
fn static_baseline_sets() -> Vec<TaskSet> {
    let mut rng = StdRng::seed_from_u64(2007);
    (0..26)
        .map(|i| {
            let config = GeneratorConfig {
                task_count: 10,
                total_utilization: 0.6 + 0.2 * (i / 2) as f64,
                max_task_utilization: 0.7,
                periods: PeriodDistribution::Choice {
                    periods: [4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 30.0],
                },
                mode_mix: ModeMix::paper_like(),
                period_granularity: None,
            };
            generate_taskset(&mut rng, &config).expect("the seeded draws are generable")
        })
        .collect()
}

fn period_grid() -> Vec<f64> {
    (1..=120).map(|i| 0.03 * i as f64).collect()
}

/// Benchmarks the minQ kernel: single-shot calls per mode channel, the
/// per-sample grid baseline vs the sweep-aware [`MinQSweep`] kernel, the
/// Eq. 15 region sweep with and without a shared [`AnalysisContext`],
/// and the three static baseline verdicts of a campaign trial.
pub fn run_minq_bench(quick: bool) -> BenchReport {
    let mut entries = Vec::new();
    let grid = period_grid();

    // Single-call shape per mode set (the historical trajectory keys).
    for (label, set) in mode_sets() {
        for alg in [Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic] {
            entry(
                &mut entries,
                format!("minq/{}/{label}", alg.label()),
                quick,
                || {
                    min_quantum(std::hint::black_box(&set), alg, std::hint::black_box(1.5))
                        .unwrap();
                },
            );
        }
    }

    // Grid sweep: per-sample recomputation vs the sweep kernel, plus a
    // bit-for-bit equivalence check over the whole grid.
    let mut speedups: Vec<DerivedMetric> = Vec::new();
    let mut identical = true;
    for (label, set) in mode_sets() {
        for alg in [Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic] {
            let sweep = MinQSweep::new(&set, alg).unwrap();
            for &p in &grid {
                let a = min_quantum(&set, alg, p).unwrap();
                let b = sweep.min_quantum_at(p).unwrap();
                identical &= a.quantum.to_bits() == b.quantum.to_bits()
                    && a.binding_instant.to_bits() == b.binding_instant.to_bits();
            }

            entry(
                &mut entries,
                format!("minq_grid120_per_sample/{}/{label}", alg.label()),
                quick,
                || {
                    for &p in &grid {
                        std::hint::black_box(min_quantum(&set, alg, p).unwrap());
                    }
                },
            );
            entry(
                &mut entries,
                format!("minq_grid120_sweep/{}/{label}", alg.label()),
                quick,
                || {
                    // Build-once is part of the kernel's cost.
                    let sweep = MinQSweep::new(&set, alg).unwrap();
                    for &p in &grid {
                        std::hint::black_box(sweep.min_quantum_at(p).unwrap());
                    }
                },
            );
            let per_sample = entries[entries.len() - 2].ns_per_iter;
            let swept = entries[entries.len() - 1].ns_per_iter;
            speedups.push(DerivedMetric {
                name: format!("minq_grid120_speedup/{}/{label}", alg.label()),
                value: per_sample / swept.max(1.0),
            });
        }
    }

    // The real hot path: the Eq. 15 feasible-region sweep of the paper
    // problem, per-sample vs shared context.
    let problem = paper_edf();
    let region = RegionConfig {
        period_min: 0.02,
        period_max: 3.5,
        samples: 120,
        refine_iterations: 0,
    };
    let grid_eq15: Vec<f64> = (0..region.samples)
        .map(|i| {
            region.period_min
                + i as f64 * (region.period_max - region.period_min) / (region.samples - 1) as f64
        })
        .collect();
    entry(&mut entries, "eq15_grid120_per_sample/EDF", quick, || {
        for &p in &grid_eq15 {
            std::hint::black_box(problem.eq15_lhs(p).unwrap());
        }
    });
    entry(&mut entries, "eq15_grid120_context/EDF", quick, || {
        let ctx = AnalysisContext::new(&problem).unwrap();
        for &p in &grid_eq15 {
            std::hint::black_box(ctx.eq15_lhs(p).unwrap());
        }
    });
    let per_sample = entries[entries.len() - 2].ns_per_iter;
    let ctx_ns = entries[entries.len() - 1].ns_per_iter;
    speedups.push(DerivedMetric {
        name: "eq15_grid120_speedup/EDF".into(),
        value: per_sample / ctx_ns.max(1.0),
    });

    // The static baselines of a `compare_baselines` trial, over a fixed
    // batch of generated 10-task sets; one iteration decides the batch.
    let baseline_sets = static_baseline_sets();
    for alg in [Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic] {
        entry(
            &mut entries,
            format!("static_baselines/{}", alg.label()),
            quick,
            || {
                for tasks in &baseline_sets {
                    std::hint::black_box(compare_static_schemes(
                        std::hint::black_box(tasks),
                        alg,
                        true,
                    ));
                }
            },
        );
    }

    let min_grid_speedup = speedups
        .iter()
        .filter(|d| d.name.starts_with("minq_grid120_speedup"))
        .map(|d| d.value)
        .fold(f64::INFINITY, f64::min);
    speedups.push(DerivedMetric {
        name: "minq_grid120_speedup/min".into(),
        value: min_grid_speedup,
    });
    speedups.push(DerivedMetric {
        name: "sweep_matches_per_sample_bitwise".into(),
        value: if identical { 1.0 } else { 0.0 },
    });

    BenchReport {
        bench: "minq".into(),
        quick,
        entries,
        derived: speedups,
    }
}

/// The historical WCET-margin search: a problem clone, re-validation and
/// full context rebuild (point enumeration + sort) for **every**
/// bisection probe — the baseline the parametric kernel is contracted to
/// beat. The probe sequence is the production `margin_search` skeleton
/// by construction; only the feasibility oracle differs, so the returned
/// margins must match the fast path bit for bit.
fn margin_rebuild_per_probe(problem: &DesignProblem, period: f64, tolerance: f64) -> f64 {
    let margin: Result<f64, std::convert::Infallible> = margin_search(
        |factor| {
            let scaled =
                scale_wcets(problem, factor).expect("scaling up a valid problem stays valid");
            Ok(scaled
                .analysis_context()
                .expect("a validated problem always yields a context")
                .minimum_allocation(period)
                .is_ok())
        },
        tolerance,
    );
    margin.expect("the rebuild oracle is infallible")
}

/// A campaign-sized synthetic design problem (more tasks and channels
/// than the paper example, partitioned automatically) so the sensitivity
/// comparison also covers the workloads campaigns actually sweep.
fn synthetic_problem(algorithm: Algorithm) -> DesignProblem {
    let mut rng = StdRng::seed_from_u64(2007);
    let config = GeneratorConfig {
        task_count: 24,
        total_utilization: 1.6,
        max_task_utilization: 0.5,
        periods: PeriodDistribution::Choice {
            periods: [4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 30.0],
        },
        mode_mix: ModeMix::paper_like(),
        period_granularity: None,
    };
    let tasks = generate_taskset(&mut rng, &config).expect("the seeded draw is generable");
    let partition = partition_system(&tasks, PartitionHeuristic::WorstFitDecreasing)
        .expect("the seeded draw is partitionable");
    DesignProblem::with_total_overhead(tasks, partition, PAPER_TOTAL_OVERHEAD, algorithm)
        .expect("the generated problem is valid")
}

/// Benchmarks the WCET-sensitivity search: margin curves over a period
/// grid, rebuild-per-probe baseline vs the parametric in-place
/// [`AnalysisContext::rescale_into`], plus a
/// bitwise equivalence check of every margin on the grid.
pub fn run_sensitivity_bench(quick: bool) -> BenchReport {
    let tolerance = 1e-3;
    let curve_points = if quick { 6 } else { 16 };
    let mut entries = Vec::new();
    let mut speedups: Vec<DerivedMetric> = Vec::new();
    let mut identical = true;

    let problems: Vec<(String, DesignProblem)> = vec![
        ("paper/EDF".into(), paper_edf()),
        (
            "paper/RM".into(),
            ftsched_design::problem::paper_problem(Algorithm::RateMonotonic),
        ),
        (
            "synthetic24/EDF".into(),
            synthetic_problem(Algorithm::EarliestDeadlineFirst),
        ),
    ];
    for (label, problem) in &problems {
        // Periods spanning the feasible region into the infeasible tail,
        // like a campaign's margin-vs-period sweep.
        let periods: Vec<f64> = (1..=curve_points)
            .map(|i| 0.2 + 3.0 * i as f64 / curve_points as f64)
            .collect();

        let fast = wcet_margin_curve(problem, &periods, tolerance)
            .expect("margin curves on valid grids are infallible");
        let slow: Vec<f64> = periods
            .iter()
            .map(|&p| margin_rebuild_per_probe(problem, p, tolerance))
            .collect();
        identical &= fast
            .iter()
            .zip(&slow)
            .all(|(a, b)| a.to_bits() == b.to_bits());

        entry(
            &mut entries,
            format!("wcet_margin_curve_rebuild/{label}"),
            quick,
            || {
                for &p in &periods {
                    std::hint::black_box(margin_rebuild_per_probe(problem, p, tolerance));
                }
            },
        );
        entry(
            &mut entries,
            format!("wcet_margin_curve_context/{label}"),
            quick,
            || {
                // Building the context once is part of the kernel's cost.
                std::hint::black_box(wcet_margin_curve(problem, &periods, tolerance).unwrap());
            },
        );
        let rebuild = entries[entries.len() - 2].ns_per_iter;
        let context = entries[entries.len() - 1].ns_per_iter;
        speedups.push(DerivedMetric {
            name: format!("sensitivity_speedup/{label}"),
            value: rebuild / context.max(1.0),
        });
    }

    let min_speedup = speedups
        .iter()
        .map(|d| d.value)
        .fold(f64::INFINITY, f64::min);
    speedups.push(DerivedMetric {
        name: "sensitivity_speedup/min".into(),
        value: min_speedup,
    });
    speedups.push(DerivedMetric {
        name: "sensitivity_matches_rebuild_bitwise".into(),
        value: if identical { 1.0 } else { 0.0 },
    });

    BenchReport {
        bench: "sensitivity".into(),
        quick,
        entries,
        derived: speedups,
    }
}

/// The sensitivity kernel's perf contract, enforced in CI alongside
/// [`check_minq_contract`]: every margin on the grid bit-identical to the
/// rebuild-per-probe baseline, and a minimum speedup over it (5× at the
/// full budget, 2× under the noise-prone quick budget — same rationale
/// as the minQ contract).
///
/// # Errors
///
/// A human-readable description of the violated invariant.
pub fn check_sensitivity_contract(report: &BenchReport) -> Result<(), String> {
    if report.derived("sensitivity_matches_rebuild_bitwise") != Some(1.0) {
        return Err(
            "sensitivity search diverged bitwise from the rebuild-per-probe baseline".into(),
        );
    }
    let min_speedup = report
        .derived("sensitivity_speedup/min")
        .ok_or("missing sensitivity_speedup/min")?;
    let threshold = if report.quick { 2.0 } else { 5.0 };
    if min_speedup < threshold {
        return Err(format!(
            "sensitivity speedup regressed to {min_speedup:.2}x (contract: >= {threshold}x)"
        ));
    }
    Ok(())
}

fn table2b_slots() -> SlotSchedule {
    SlotSchedule::new(
        2.966,
        PerMode {
            ft: 0.820,
            fs: 1.281,
            nf: 0.815,
        },
        PerMode::splat(PAPER_TOTAL_OVERHEAD / 3.0),
    )
    .unwrap()
}

/// The seeded fault schedule the fault-injected cases share (one fault
/// every ~8 time units, 0.25 units long — the campaign default shape).
fn bench_faults(horizon: f64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(2007);
    FaultSchedule::poisson(
        &mut rng,
        Time::from_units(horizon),
        Duration::from_units(8.0),
        Duration::from_units(0.25),
    )
}

/// Benchmarks the simulator: fault-free and fault-injected runs over
/// growing horizons, three ways each — fresh per-call allocation, a
/// reused [`SimArena`], and the retired slot-stepping engine
/// ([`ftsched_sim::reference`]) that the event-driven core is contracted
/// to beat while staying bit-identical to it.
pub fn run_sim_bench(quick: bool) -> BenchReport {
    let (tasks, partition) = paper_example();
    let slots = table2b_slots();
    let mut entries = Vec::new();
    let mut derived = Vec::new();

    // The 2400 horizon stays in quick mode: it anchors the event-vs-slot
    // speedup contract, which must hold in the CI smoke too.
    let horizons: &[f64] = if quick {
        &[600.0, 2400.0]
    } else {
        &[120.0, 600.0, 2400.0]
    };
    let bench_case = |entries: &mut Vec<BenchEntry>,
                      derived: &mut Vec<DerivedMetric>,
                      label: String,
                      config: &SimulationConfig| {
        entry(entries, format!("sim_{label}_fresh"), quick, || {
            std::hint::black_box(
                simulate(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    config,
                )
                .unwrap(),
            );
        });
        let mut arena = SimArena::new();
        entry(entries, format!("sim_{label}_arena"), quick, || {
            std::hint::black_box(
                simulate_in(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    config,
                    &mut arena,
                )
                .unwrap(),
            );
        });
        let mut ref_arena = SimArena::new();
        entry(
            entries,
            format!("sim_{label}_slot_reference"),
            quick,
            || {
                std::hint::black_box(
                    ftsched_sim::reference::simulate_slot_stepping_in(
                        &tasks,
                        &partition,
                        Algorithm::EarliestDeadlineFirst,
                        &slots,
                        config,
                        &mut ref_arena,
                    )
                    .unwrap(),
                );
            },
        );
        let fresh = entries[entries.len() - 3].ns_per_iter;
        let reused = entries[entries.len() - 2].ns_per_iter;
        let slot = entries[entries.len() - 1].ns_per_iter;
        derived.push(DerivedMetric {
            name: format!("sim_arena_speedup/{label}"),
            value: fresh / reused.max(1.0),
        });
        derived.push(DerivedMetric {
            name: format!("sim_event_speedup/{label}"),
            value: slot / reused.max(1.0),
        });
    };

    for &horizon in horizons {
        let config = SimulationConfig {
            horizon,
            fault_schedule: FaultSchedule::none(),
            record_trace: false,
            record_response_times: false,
        };
        bench_case(
            &mut entries,
            &mut derived,
            format!("fault_free/{}", horizon as u64),
            &config,
        );
    }
    for &horizon in [600.0, 2400.0].iter() {
        let config = SimulationConfig {
            horizon,
            fault_schedule: bench_faults(horizon),
            record_trace: false,
            record_response_times: false,
        };
        bench_case(
            &mut entries,
            &mut derived,
            format!("fault_injected/{}", horizon as u64),
            &config,
        );
    }

    // Classification alone: the six Table 1 designs `validate_faults`
    // validates, each scheduled once, under fault draws of that
    // workload's density. One iteration classifies one (design, draw)
    // pair, cycling through all of them.
    let designs = paper_schedules_under_faults(8);
    let mut arena = SimArena::new();
    let mut next = 0;
    entry(&mut entries, "sim_classify/paper", quick, || {
        let (schedule, draws) = &designs[next % designs.len()];
        let faults = &draws[next / designs.len() % draws.len()];
        next += 1;
        std::hint::black_box(schedule.classify(faults, &mut arena));
    });

    // The speedup contract anchors at the longest horizon, fault-free
    // and fault-injected alike.
    let min_2400 = [
        "sim_event_speedup/fault_free/2400",
        "sim_event_speedup/fault_injected/2400",
    ]
    .iter()
    .filter_map(|name| derived.iter().find(|d| &d.name == name).map(|d| d.value))
    .fold(f64::INFINITY, f64::min);
    derived.push(DerivedMetric {
        name: "sim_event_speedup/min2400".into(),
        value: min_2400,
    });

    // The identity contract: the event engine's full report — records,
    // classifications, trace, response times — byte-for-byte equal to
    // the slot-stepping engine's, fault-free and under injection.
    let mut identical = true;
    for &horizon in [600.0, 2400.0].iter() {
        for fault_schedule in [FaultSchedule::none(), bench_faults(horizon)] {
            let config = SimulationConfig {
                horizon,
                fault_schedule,
                record_trace: true,
                record_response_times: true,
            };
            let event = simulate(
                &tasks,
                &partition,
                Algorithm::EarliestDeadlineFirst,
                &slots,
                &config,
            )
            .unwrap();
            let slot = ftsched_sim::reference::simulate_slot_stepping(
                &tasks,
                &partition,
                Algorithm::EarliestDeadlineFirst,
                &slots,
                &config,
            )
            .unwrap();
            identical &= event == slot;
        }
    }
    derived.push(DerivedMetric {
        name: "sim_event_matches_reference_bitwise".into(),
        value: if identical { 1.0 } else { 0.0 },
    });

    BenchReport {
        bench: "sim".into(),
        quick,
        entries,
        derived,
    }
}

/// The six Table 1 designs of the `validate_faults` workload (EDF and RM
/// × overheads {0.01, 0.03, 0.05}, minimum overhead bandwidth), each
/// scheduled once over four hyperperiods with response times recorded,
/// paired with `draws` seeded Poisson fault schedules (mean gap 4,
/// length 0.25) over that horizon.
fn paper_schedules_under_faults(draws: usize) -> Vec<(Schedule, Vec<FaultSchedule>)> {
    let faults = FaultModel::Poisson {
        mean_interarrival: 4.0,
        fault_duration: 0.25,
    };
    let mut rng = StdRng::seed_from_u64(2007);
    let mut arena = SimArena::new();
    let mut designs = Vec::new();
    for algorithm in [Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic] {
        for overhead in [0.01, 0.03, 0.05] {
            let (tasks, partition) = paper_example();
            let problem =
                DesignProblem::with_total_overhead(tasks, partition, overhead, algorithm).unwrap();
            let ctx = problem.analysis_context().unwrap();
            let (_, slots) = design_stage_with(
                &problem,
                &ctx,
                DesignGoal::MinimizeOverheadBandwidth,
                &RegionConfig::for_problem(&problem),
                SlackPolicy::KeepUnallocated,
            )
            .unwrap();
            let config = ScheduleConfig {
                horizon: problem.tasks.hyperperiod() * 4.0,
                record_trace: false,
                record_response_times: true,
            };
            let schedule = Schedule::build(
                &problem.tasks,
                &problem.partition,
                algorithm,
                &slots,
                &config,
                &mut arena,
            )
            .unwrap();
            let horizon = Time::from_units(config.horizon);
            let draws = (0..draws)
                .map(|_| faults.schedule(&mut rng, horizon))
                .collect();
            designs.push((schedule, draws));
        }
    }
    designs
}

/// The event engine's perf contract, enforced in CI alongside the kernel
/// contracts: the full simulation report bit-identical to the retired
/// slot-stepping engine, and a minimum speedup over it at the 2400-unit
/// horizon — fault-free and fault-injected both — of 5× at the full
/// budget (2× under the noise-prone quick budget, same rationale as the
/// minQ contract's reduced threshold).
///
/// # Errors
///
/// A human-readable description of the violated invariant.
pub fn check_sim_contract(report: &BenchReport) -> Result<(), String> {
    if report.derived("sim_event_matches_reference_bitwise") != Some(1.0) {
        return Err("event engine diverged bitwise from the slot-stepping reference".into());
    }
    let min_speedup = report
        .derived("sim_event_speedup/min2400")
        .ok_or("missing sim_event_speedup/min2400")?;
    let threshold = if report.quick { 2.0 } else { 5.0 };
    if min_speedup < threshold {
        return Err(format!(
            "event-vs-slot speedup regressed to {min_speedup:.2}x (contract: >= {threshold}x)"
        ));
    }
    Ok(())
}

/// One admission request over the paper task set (WFD is the only
/// heuristic that leaves the full set admissible, see the serve tests).
fn serve_request(
    id: u64,
    goal: DesignGoal,
    total_overhead: f64,
) -> ftsched_serve::AdmissionRequest {
    let tasks = paper_taskset()
        .iter()
        .map(|t| ftsched_serve::TaskRequest {
            id: t.id.0,
            wcet: t.wcet,
            period: t.period,
            deadline: t.deadline,
            mode: t.mode,
        })
        .collect();
    ftsched_serve::AdmissionRequest {
        id,
        tasks,
        algorithm: Algorithm::EarliestDeadlineFirst,
        goal,
        total_overhead,
        heuristic: PartitionHeuristic::WorstFitDecreasing,
    }
}

/// An "exchange"-style request log: two goals flipping over one platform
/// configuration plus a sprinkle of distinct overheads — mostly
/// admission-cache hits, every miss at least a context-cache hit.
fn serve_exchange_log(requests: usize) -> String {
    let mut log = String::new();
    for i in 0..requests {
        let goal = if i % 2 == 0 {
            DesignGoal::MinimizeOverheadBandwidth
        } else {
            DesignGoal::MaximizeSlackBandwidth
        };
        // Eight distinct overhead values cycle through the mix, so the
        // log exercises misses and hits at a fixed ratio.
        let overhead = 0.01 + 0.005 * (i % 8) as f64;
        let request = serve_request(i as u64 + 1, goal, overhead);
        log.push_str(&serde_json::to_string(&request).unwrap());
        log.push('\n');
    }
    log
}

fn serve_replay_transcript(log: &str, batch_size: usize, cache: bool) -> String {
    use ftsched_serve::{AdmissionEngine, EngineConfig};
    let engine = AdmissionEngine::new(EngineConfig {
        cache,
        ..EngineConfig::default()
    });
    let mut transcript = Vec::new();
    ftsched_serve::replay(&engine, log, &mut transcript, batch_size).unwrap();
    String::from_utf8(transcript).unwrap()
}

/// Benchmarks the admission service: the cached hot path (the
/// steady-state of a long-running service answering repeat
/// configurations), the uncached cold path (every request a full
/// feasible-period search) and batched replay throughput over an
/// exchange-style mix, the JSON decode of one request and of a whole
/// report and the JSON encode of one response (timed, with no floor) —
/// plus the transcript-determinism check behind
/// `serve_replay_deterministic`.
pub fn run_serve_bench(quick: bool) -> BenchReport {
    use ftsched_serve::{AdmissionEngine, EngineConfig};

    let mut entries = Vec::new();
    let mut derived = Vec::new();

    // Steady state: the decision is memoised, a request costs request
    // validation + a verified cache hit.
    let hot_request = serve_request(1, DesignGoal::MinimizeOverheadBandwidth, 0.02);
    let request = &hot_request;
    entry_with(&mut entries, "serve_admit_cached_hot", quick, || {
        let engine = AdmissionEngine::new(EngineConfig::default());
        std::hint::black_box(engine.admit(request));
        move || {
            std::hint::black_box(engine.admit(request));
        }
    });
    let hot_ns = entries.last().unwrap().ns_per_iter;
    derived.push(DerivedMetric {
        name: "serve_cached_decisions_per_sec".into(),
        value: 1e9 / hot_ns.max(1.0),
    });

    // Cold path: caches disabled, every request pays partitioning, the
    // minQ enumeration and the feasible-period search.
    entry_with(&mut entries, "serve_admit_cold", quick, || {
        let engine = AdmissionEngine::new(EngineConfig {
            cache: false,
            ..EngineConfig::default()
        });
        move || {
            std::hint::black_box(engine.admit(request));
        }
    });
    let cold_ns = entries.last().unwrap().ns_per_iter;
    derived.push(DerivedMetric {
        name: "serve_cold_decisions_per_sec".into(),
        value: 1e9 / cold_ns.max(1.0),
    });
    derived.push(DerivedMetric {
        name: "serve_cache_speedup".into(),
        value: cold_ns / hot_ns.max(1.0),
    });

    // Replay throughput: JSONL parse + batched decisions + compact
    // transcript encode, over a warmed engine.
    let log_lines: usize = if quick { 64 } else { 256 };
    let log = serve_exchange_log(log_lines);
    entry_with(
        &mut entries,
        format!("serve_replay_exchange/{log_lines}"),
        quick,
        || {
            let engine = AdmissionEngine::new(EngineConfig::default());
            let log = &log;
            move || {
                let mut transcript = Vec::new();
                ftsched_serve::replay(&engine, log, &mut transcript, 32).unwrap();
                std::hint::black_box(transcript);
            }
        },
    );
    let replay_ns = entries.last().unwrap().ns_per_iter;
    derived.push(DerivedMetric {
        name: "serve_replay_decisions_per_sec".into(),
        value: log_lines as f64 * 1e9 / replay_ns.max(1.0),
    });

    // Decode alone, no floor: each line of the checked-in request log in
    // turn (the malformed one included), through the `from_str` replay
    // and the framed loop use. One iteration decodes one line.
    let request_log = repo_text("examples/serve_requests.jsonl");
    let lines: Vec<&str> = request_log.lines().filter(|l| !l.is_empty()).collect();
    let mut next = 0;
    entry(&mut entries, "serve_decode_request", quick, || {
        let line = std::hint::black_box(lines[next % lines.len()]);
        next += 1;
        std::hint::black_box(serde_json::from_str::<ftsched_serve::AdmissionRequest>(line).ok());
    });
    // Encode alone, no floor: each response of the checked-in serve
    // transcript in turn, through the compact writer `replay` and the
    // framed loop use. One iteration encodes one response.
    let transcript = repo_text("tests/golden/serve_transcript.jsonl");
    let responses: Vec<ftsched_serve::AdmissionResponse> = transcript
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    let mut next = 0;
    entry(&mut entries, "serve_encode_response", quick, || {
        let response = std::hint::black_box(&responses[next % responses.len()]);
        next += 1;
        std::hint::black_box(serde_json::to_string(response).unwrap());
    });
    // A whole report, as `convert`, `merge` and checkpoint adoption read
    // one.
    let report = repo_text("tests/golden/grid_sweep.json");
    entry(&mut entries, "json_decode_report", quick, || {
        let text = std::hint::black_box(report.as_str());
        std::hint::black_box(
            serde_json::from_str::<ftsched_campaign::CampaignReport>(text).unwrap(),
        );
    });
    // The same report written back out, through the pretty writer
    // `ftsched run --out` uses.
    let decoded: ftsched_campaign::CampaignReport = serde_json::from_str(&report).unwrap();
    entry(&mut entries, "json_encode_report", quick, || {
        std::hint::black_box(std::hint::black_box(&decoded).to_json());
    });

    // The transcript contract: byte-identical replay whatever the batch
    // size and whether or not the caches answer, fresh engine each side
    // so cache state cannot leak in.
    let single = serve_replay_transcript(&log, 1, false);
    let batched = serve_replay_transcript(&log, 32, true);
    derived.push(DerivedMetric {
        name: "serve_replay_deterministic".into(),
        value: if single == batched { 1.0 } else { 0.0 },
    });

    BenchReport {
        bench: "serve".into(),
        quick,
        entries,
        derived,
    }
}

/// The admission service's perf contract, enforced in CI alongside the
/// kernel contracts: replay transcripts byte-identical across batch sizes
/// and cache settings, and a cached decision rate of at least 100k/s at the full
/// budget (25k/s under the noise-prone quick budget — same rationale as
/// the minQ contract's reduced threshold).
///
/// # Errors
///
/// A human-readable description of the violated invariant.
pub fn check_serve_contract(report: &BenchReport) -> Result<(), String> {
    if report.derived("serve_replay_deterministic") != Some(1.0) {
        return Err(
            "serve replay transcripts diverged between batch 1 without caches and batch 32 \
             with caches"
                .into(),
        );
    }
    let rate = report
        .derived("serve_cached_decisions_per_sec")
        .ok_or("missing serve_cached_decisions_per_sec")?;
    let threshold = if report.quick { 25_000.0 } else { 100_000.0 };
    if rate < threshold {
        return Err(format!(
            "cached admission rate regressed to {rate:.0}/s (contract: >= {threshold:.0}/s)"
        ));
    }
    Ok(())
}

/// The repository root: two levels above this crate.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// A checked-in input file, by its path from the repository root.
fn repo_text(relative: &str) -> String {
    let path = repo_root().join(relative);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("bench input {} is unreadable: {e}", path.display()))
}

/// Where `BENCH_*.json` files go: `$FTSCHED_BENCH_DIR` if set, else the
/// repository root.
pub fn bench_output_dir() -> PathBuf {
    std::env::var_os("FTSCHED_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(repo_root)
}

/// Writes the report to `<bench dir>/<file>` and returns the path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_report(report: &BenchReport, file: &str) -> std::io::Result<PathBuf> {
    let path = bench_output_dir().join(file);
    std::fs::write(&path, report.to_json() + "\n")?;
    Ok(path.canonicalize().unwrap_or(path))
}

/// Renders the human-readable summary lines the bench binaries print.
pub fn render_summary(report: &BenchReport) -> String {
    let mut out = String::new();
    for e in &report.entries {
        out.push_str(&format!(
            "bench {:<55} {:>14.1} ns/iter ({} iters x {} batches, spread {:.1}%)\n",
            e.name,
            e.ns_per_iter,
            e.iters,
            e.batches,
            e.spread * 100.0
        ));
    }
    for d in &report.derived {
        out.push_str(&format!("derived {:<53} {:>14.3}\n", d.name, d.value));
    }
    out
}

/// True when quick mode is requested via `--quick` in `args` or the
/// `FTSCHED_BENCH_QUICK` environment variable.
pub fn quick_mode_from(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quick") || std::env::var_os("FTSCHED_BENCH_QUICK").is_some()
}

/// The sweep kernel's perf contract, enforced in CI: bit-for-bit identity
/// with the per-sample kernel, and a minimum grid speedup.
///
/// The measured margin is >12×, so the full-budget threshold of 5× only
/// trips on a real regression. Quick mode times single ~4 ms batches on
/// possibly contended CI runners, where one descheduling hiccup can
/// inflate a ratio several-fold — the threshold drops to 2× there, which
/// still catches the failure the contract exists for (falling back to
/// per-sample recomputation, a ratio of ~1×) without flaking on noise.
///
/// # Errors
///
/// A human-readable description of the violated invariant.
pub fn check_minq_contract(report: &BenchReport) -> Result<(), String> {
    if report.derived("sweep_matches_per_sample_bitwise") != Some(1.0) {
        return Err("sweep kernel diverged bitwise from the per-sample kernel".into());
    }
    let min_speedup = report
        .derived("minq_grid120_speedup/min")
        .ok_or("missing minq_grid120_speedup/min")?;
    let threshold = if report.quick { 2.0 } else { 5.0 };
    if min_speedup < threshold {
        return Err(format!(
            "grid sweep speedup regressed to {min_speedup:.2}x (contract: >= {threshold}x)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minq_report_has_entries_speedups_and_bitwise_identity() {
        let report = run_minq_bench(true);
        assert_eq!(report.bench, "minq");
        assert!(report.quick);
        assert!(report.entries.len() >= 12);
        assert_eq!(
            report.derived("sweep_matches_per_sample_bitwise"),
            Some(1.0)
        );
        assert!(report.derived("minq_grid120_speedup/min").is_some());
        let json = report.to_json();
        assert!(json.contains("minq_grid120_sweep/EDF/FT_channel"));
        // The sweep-kernel cases build one MinQSweep per iteration, and
        // the breakdown must account for every batch that ran.
        let sweep = report
            .entries
            .iter()
            .find(|e| e.name == "minq_grid120_sweep/EDF/FT_channel")
            .unwrap();
        assert!(sweep.stages.total_iters >= sweep.iters);
        assert_eq!(sweep.stages.sweep_builds, sweep.stages.total_iters);
    }

    #[test]
    fn sensitivity_report_is_bitwise_equivalent_and_has_speedups() {
        let report = run_sensitivity_bench(true);
        assert_eq!(report.bench, "sensitivity");
        assert!(report.entries.len() >= 6);
        assert_eq!(
            report.derived("sensitivity_matches_rebuild_bitwise"),
            Some(1.0)
        );
        assert!(report.derived("sensitivity_speedup/min").is_some());
        assert!(report
            .to_json()
            .contains("wcet_margin_curve_context/paper/EDF"));
        // The contract only inspects the equivalence flag and the
        // speedup floor; a violated flag must fail it.
        let mut broken = report;
        for d in &mut broken.derived {
            if d.name == "sensitivity_matches_rebuild_bitwise" {
                d.value = 0.0;
            }
        }
        assert!(check_sensitivity_contract(&broken).is_err());
    }

    #[test]
    fn sim_report_has_arena_and_event_speedups() {
        let report = run_sim_bench(true);
        assert_eq!(report.bench, "sim");
        assert!(report.derived("sim_arena_speedup/fault_free/600").is_some());
        assert!(report
            .derived("sim_arena_speedup/fault_injected/600")
            .is_some());
        assert!(report.derived("sim_event_speedup/min2400").is_some());
        assert_eq!(
            report.derived("sim_event_matches_reference_bitwise"),
            Some(1.0)
        );
        // Every timed iteration of the production engine is exactly one
        // simulator run, and a run always walks at least one slot
        // window. The slot-stepping reference reports no metrics at all
        // — it must stay invisible to the obs layer.
        for e in &report.entries {
            if e.name.contains("slot_reference") {
                assert_eq!(e.stages.sim_runs, 0, "{}", e.name);
            } else {
                assert_eq!(e.stages.sim_runs, e.stages.total_iters, "{}", e.name);
                assert!(e.stages.sim_windows > 0, "{}", e.name);
            }
        }
    }

    #[test]
    fn serve_entries_count_their_engines_work() {
        let report = run_serve_bench(true);
        assert_eq!(report.derived("serve_replay_deterministic"), Some(1.0));
        let stages = |name: &str| {
            let entry = report.entries.iter().find(|e| e.name == name).unwrap();
            entry.stages.clone()
        };
        // Caches off: every admission partitions and builds its
        // context's sweeps again.
        let cold = stages("serve_admit_cold");
        assert!(cold.sweep_builds >= cold.total_iters, "{cold:?}");
        assert!(cold.cache_misses >= cold.total_iters, "{cold:?}");
        // The warm-up decision misses; every timed one hits.
        let hot = stages("serve_admit_cached_hot");
        assert_eq!(hot.cache_hits, hot.total_iters, "{hot:?}");
    }

    #[test]
    fn summary_renders_every_entry() {
        let report = run_minq_bench(true);
        let summary = render_summary(&report);
        assert_eq!(
            summary.lines().count(),
            report.entries.len() + report.derived.len()
        );
    }
}

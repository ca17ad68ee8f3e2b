//! Property battery pinning the event-driven simulation engine to the
//! slot-stepping reference (`ftsched_sim::reference`): over randomised
//! task sets, fault patterns, horizons and trace configurations the two
//! engines must produce **bit-identical** `SimulationReport`s — same
//! counters, same slices, same per-job records, same response times.
//!
//! The event engine earns its speed by jumping idle spans and walking
//! fault windows lazily, and campaigns build one design's schedule once
//! and only re-classify it per fault draw; every shortcut is only legal
//! if it is observationally invisible. These properties are the contract.
//!
//! The fault classifier is also pinned to a literal slice-major oracle
//! ([`slice_major`]) that reads only a traced report's public slices and
//! job records, and that checks the `sim_ticks_materialised` counter the
//! reference engine does not report.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftsched_core::prelude::*;
use ftsched_design::problem::DesignProblem;
use ftsched_design::quanta::minimum_allocation;
use ftsched_platform::cpu::CoreId;
use ftsched_platform::ChannelLayout;
use ftsched_sim::reference::simulate_slot_stepping;
use ftsched_sim::report::OutcomeCounts;

/// Generates a partitioned problem from a seed; `None` when the workload
/// does not partition (too heavy), which the properties simply skip.
fn problem_from_seed(seed: u64, algorithm: Algorithm) -> Option<DesignProblem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = GeneratorConfig::paper_like(8, 1.0);
    config.max_task_utilization = 0.5;
    let tasks = generate_taskset(&mut rng, &config).ok()?;
    let partition = partition_system(&tasks, PartitionHeuristic::WorstFitDecreasing).ok()?;
    DesignProblem::with_total_overhead(tasks, partition, 0.04, algorithm).ok()
}

fn slots_for(problem: &DesignProblem, period: f64) -> Option<SlotSchedule> {
    let alloc = minimum_allocation(problem, period).ok()?;
    SlotSchedule::new(
        period,
        PerMode::from_fn(|m| alloc.useful[m]),
        PerMode::from_fn(|m| alloc.overheads[m]),
    )
    .ok()
}

fn algorithm_from(pick: u8) -> Algorithm {
    match pick % 3 {
        0 => Algorithm::RateMonotonic,
        1 => Algorithm::DeadlineMonotonic,
        _ => Algorithm::EarliestDeadlineFirst,
    }
}

/// Runs both engines on identical inputs and asserts full-report
/// equality (covers misses, outcomes, executed time, traces, response
/// times — everything `SimulationReport` carries).
fn assert_engines_agree(
    problem: &DesignProblem,
    slots: &SlotSchedule,
    config: &SimulationConfig,
    context: &str,
) -> Result<(), TestCaseError> {
    let event = simulate(
        &problem.tasks,
        &problem.partition,
        problem.algorithm,
        slots,
        config,
    )
    .unwrap();
    let slot = simulate_slot_stepping(
        &problem.tasks,
        &problem.partition,
        problem.algorithm,
        slots,
        config,
    )
    .unwrap();
    prop_assert!(
        event == slot,
        "event engine diverged from reference: {}",
        context
    );
    Ok(())
}

/// Fault draw `draw` of a battery: the empty schedule first, then
/// alternately a dense Poisson draw and a directed one that puts a
/// fault around a slot edge on every core in turn (straddling the edge,
/// starting on it, or zero-length).
fn fault_draw(rng: &mut StdRng, draw: usize, period: f64, horizon: f64) -> FaultSchedule {
    if draw == 0 {
        return FaultSchedule::none();
    }
    if draw % 2 == 1 {
        let mean_gap = rng.gen_range(0.5..6.0);
        return FaultSchedule::poisson(
            rng,
            Time::from_units(horizon),
            Duration::from_units(mean_gap),
            Duration::from_units(0.3),
        );
    }
    let mut faults = Vec::new();
    let mut edge = rng.gen_range(1u32..4);
    let mut free_from = 0.0_f64;
    for core in (0..4).cycle().take(12) {
        let offset = match rng.gen_range(0u32..3) {
            0 => 0.0,
            _ => rng.gen_range(-0.3..0.3),
        };
        let at = (edge as f64 * period + offset).max(free_from);
        let duration = match rng.gen_range(0u32..4) {
            0 => 0.0,
            _ => rng.gen_range(0.01..0.6),
        };
        if at + duration >= horizon {
            break;
        }
        faults.push(Fault {
            at: Time::from_units(at),
            duration: Duration::from_units(duration),
            core: CoreId(core),
            mask: 0x5A5A_0000 | core as u64,
        });
        free_from = at + duration + 0.01;
        edge += rng.gen_range(1u32..3);
    }
    FaultSchedule::new(faults).unwrap()
}

/// What the slice-major rule makes of one fault schedule.
#[derive(Debug, PartialEq)]
struct SliceMajor {
    outcomes: PerMode<OutcomeCounts>,
    effective_faults: u64,
    /// Ticks of every (slice, fault) overlap the rule examined.
    ticks: u64,
}

/// The slice-major classification rule, written out over a traced
/// report's public slices and job records: per channel, slices in time
/// order; each slice is examined against the first fault that ends after
/// it starts; a job already marked skips further checks; an overlap
/// counts its ticks, and marks the job only when the fault struck one of
/// the channel's cores. Effective faults are the distinct arrival
/// instants of the marking faults.
fn slice_major(report: &SimulationReport, faults: &FaultSchedule) -> SliceMajor {
    let trace = report.trace.as_ref().expect("a traced report");
    let faults = faults.faults();
    let mut marked = HashSet::new();
    let mut instants = BTreeSet::new();
    let mut ticks = 0;
    for channel in trace
        .slices
        .chunk_by(|a, b| (a.mode, a.channel) == (b.mode, b.channel))
    {
        let layout = ChannelLayout::canonical(channel[0].mode);
        let cores = layout.cores_of(channel[0].channel);
        let mut cursor = 0;
        for slice in channel {
            while cursor < faults.len() && faults[cursor].end() <= slice.start {
                cursor += 1;
            }
            let Some(fault) = faults.get(cursor) else {
                break;
            };
            if marked.contains(&(slice.mode, slice.job)) || !fault.overlaps(slice.start, slice.end)
            {
                continue;
            }
            ticks += fault.end().min(slice.end).ticks() - fault.at.max(slice.start).ticks();
            if cores.contains(&fault.core) {
                marked.insert((slice.mode, slice.job));
                instants.insert(fault.at.ticks());
            }
        }
    }
    let mut outcomes = PerMode::splat(OutcomeCounts::default());
    for record in &trace.jobs {
        let struck = marked.contains(&(record.mode, record.job));
        outcomes[record.mode].record(classify_outcome(record.mode, struck));
    }
    SliceMajor {
        outcomes,
        effective_faults: instants.len() as u64,
        ticks,
    }
}

/// Classifies `faults` on a schedule built with a trace, under a
/// recorder of its own, and returns what `classify` gave (with the
/// recorder's `sim_ticks_materialised`) next to what the slice-major
/// rule gives on the traced report.
fn classify_and_oracle(
    schedule: &Schedule,
    faults: &FaultSchedule,
    arena: &mut SimArena,
) -> (SliceMajor, SliceMajor) {
    let report = schedule.report(faults, arena);
    let expected = slice_major(&report, faults);
    assert_eq!(
        (report.outcomes, report.effective_faults),
        (expected.outcomes, expected.effective_faults),
        "report"
    );
    let recorder = ftsched_obs::Recorder::new();
    let classified = {
        let _run = recorder.enter();
        schedule.classify(faults, arena)
    };
    let got = SliceMajor {
        outcomes: classified.outcomes,
        effective_faults: classified.effective_faults,
        ticks: recorder.snapshot().counters.sim_ticks_materialised,
    };
    (got, expected)
}

/// Builds the traced schedule of a hand-made system and checks
/// `classify` against the slice-major rule on `faults`; returns the
/// rule's result so a case can assert that it exercised something.
fn check_directed(
    tasks: &TaskSet,
    partition: &SystemPartition,
    slots: &SlotSchedule,
    horizon: f64,
    faults: Vec<Fault>,
) -> SliceMajor {
    let faults = FaultSchedule::new(faults).unwrap();
    let mut arena = SimArena::new();
    let schedule = Schedule::build(
        tasks,
        partition,
        Algorithm::EarliestDeadlineFirst,
        slots,
        &ScheduleConfig {
            horizon,
            record_trace: true,
            record_response_times: false,
        },
        &mut arena,
    )
    .unwrap();
    let (got, expected) = classify_and_oracle(&schedule, &faults, &mut arena);
    assert_eq!(got, expected);
    let config = SimulationConfig {
        horizon,
        fault_schedule: faults,
        record_trace: true,
        record_response_times: false,
    };
    let event = simulate(
        tasks,
        partition,
        Algorithm::EarliestDeadlineFirst,
        slots,
        &config,
    )
    .unwrap();
    let reference = simulate_slot_stepping(
        tasks,
        partition,
        Algorithm::EarliestDeadlineFirst,
        slots,
        &config,
    )
    .unwrap();
    assert!(event == reference, "event engine diverged from reference");
    expected
}

fn fault_at_ticks(at: u64, duration: u64, core: usize) -> Fault {
    Fault {
        at: Time::from_ticks(at),
        duration: Duration::from_ticks(duration),
        core: CoreId(core),
        mask: 0x0F0F,
    }
}

/// One task per mode, on the first channel of each (`wcet`, `period`
/// per mode in FT, FS, NF order).
fn one_task_per_mode(jobs: [(f64, f64); 3]) -> (TaskSet, SystemPartition) {
    let tasks = TaskSet::new(
        Mode::ALL
            .iter()
            .zip(jobs)
            .enumerate()
            .map(|(i, (&mode, (wcet, period)))| {
                Task::implicit_deadline(i as u32 + 1, wcet, period, mode).unwrap()
            })
            .collect(),
    )
    .unwrap();
    let part = |mode, id| ModePartition::new(mode, vec![vec![TaskId(id)]]).unwrap();
    let partition = SystemPartition::new(
        part(Mode::FaultTolerant, 1),
        part(Mode::FailSilent, 2),
        part(Mode::NonFaultTolerant, 3),
    );
    partition.validate(&tasks).unwrap();
    (tasks, partition)
}

#[test]
fn classify_matches_the_slice_major_rule_on_cycle_edges_and_past_the_last_slice() {
    let (tasks, partition) = paper_example();
    let slots = SlotSchedule::new(
        2.966,
        PerMode {
            ft: 0.820,
            fs: 1.281,
            nf: 0.815,
        },
        PerMode::splat(PAPER_TOTAL_OVERHEAD / 3.0),
    )
    .unwrap();
    let p = slots.period().ticks();
    let horizon = 60.0;
    let h = Time::from_units(horizon).ticks();
    let mut faults = Vec::new();
    for k in 1..8u64 {
        let core = (k % 4) as usize;
        // On a cycle edge (zero-length, short, longer than a slot), and
        // across the next one.
        faults.push(fault_at_ticks(
            k * 2 * p,
            [0, 1_000, 900_000][k as usize % 3],
            core,
        ));
        faults.push(fault_at_ticks(
            (k * 2 + 1) * p - 100_000,
            200_000,
            (core + 1) % 4,
        ));
    }
    // Zero-length, strictly inside the FT window of cycle 17 (twice at
    // one instant), then past the last slice and past the horizon.
    faults.push(fault_at_ticks(17 * p + 300_000, 0, 2));
    faults.push(fault_at_ticks(17 * p + 300_000, 0, 3));
    faults.push(fault_at_ticks(h - 1, 0, 0));
    faults.push(fault_at_ticks(h, 5_000, 1));
    faults.push(fault_at_ticks(h + 2 * p, 3 * p, 2));
    let expected = check_directed(&tasks, &partition, &slots, horizon, faults);
    assert!(expected.ticks > 0 && expected.effective_faults > 0);
}

#[test]
fn classify_matches_the_slice_major_rule_inside_a_tick_overshoot_of_the_period() {
    // Tick rounding makes the slots 1 tick longer than the period, so the
    // NF window of cycle k ends 1 tick into cycle k + 1; the NF task is
    // overloaded, so it runs up to every window's end.
    let (tasks, partition) = one_task_per_mode([(0.05, 1.0), (0.05, 1.0), (0.6, 1.2)]);
    let slots = SlotSchedule::new(
        1.0,
        PerMode {
            ft: 0.250_000_6,
            fs: 0.250_000_6,
            nf: 0.499_998_8,
        },
        PerMode::splat(0.0),
    )
    .unwrap();
    let p = slots.period().ticks();
    let allocated: u64 = Mode::ALL
        .iter()
        .map(|&m| slots.useful_quantum(m).ticks() + slots.overhead(m).ticks())
        .sum();
    assert_eq!(allocated, p + 1, "the slots must overshoot the period");
    let mut faults = Vec::new();
    for k in 1..20u64 {
        // Zero-length and one-tick faults on the edge the NF window
        // overshoots, on the NF task's core and on another one.
        faults.push(fault_at_ticks(k * p, k % 2, (k % 2) as usize));
        if k == 8 {
            // A second fault at the same instant strikes the FT job that
            // starts there: one effective fault, two struck jobs.
            faults.push(fault_at_ticks(k * p, 1_000, 1));
        }
    }
    let expected = check_directed(&tasks, &partition, &slots, 20.0, faults);
    assert!(expected.outcomes[Mode::NonFaultTolerant].wrong_result > 0);
    assert!(expected.outcomes[Mode::FaultTolerant].correct_masked > 0);
    assert!(expected.ticks > 0);
}

#[test]
fn classify_matches_the_slice_major_rule_with_a_zero_quantum_mode() {
    // The FS mode gets no useful time: its jobs never run, so no fault
    // can strike them.
    let (tasks, partition) = one_task_per_mode([(0.1, 2.0), (0.1, 2.0), (0.2, 3.0)]);
    let slots = SlotSchedule::new(
        1.0,
        PerMode {
            ft: 0.3,
            fs: 0.0,
            nf: 0.3,
        },
        PerMode::splat(0.01),
    )
    .unwrap();
    let faults = FaultSchedule::poisson(
        &mut StdRng::seed_from_u64(5),
        Time::from_units(100.0),
        Duration::from_units(0.7),
        Duration::from_units(0.2),
    );
    let expected = check_directed(&tasks, &partition, &slots, 100.0, faults.faults().to_vec());
    let fs = expected.outcomes[Mode::FailSilent];
    assert_eq!(fs.correct_no_fault, fs.total());
    assert!(expected.outcomes[Mode::FaultTolerant].correct_masked > 0);
}

#[test]
fn classify_matches_the_slice_major_rule_when_cycles_far_outnumber_slices() {
    // P = 0.01 over 1,000 units is 100,000 cycles for a few dozen slices
    // per channel; faults are short and long against the period.
    let (tasks, partition) = one_task_per_mode([(0.004, 50.0), (0.002, 50.0), (0.005, 50.0)]);
    let slots = SlotSchedule::new(0.01, PerMode::splat(0.003), PerMode::splat(0.000_3)).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let mut faults = Vec::new();
    for release in 0..20 {
        // A few faults around each release (every 50 units), where the
        // slices are: zero-length, shorter and longer than the period.
        let mut at = release as f64 * 50.0 + rng.gen_range(0.0..0.004);
        for _ in 0..3 {
            let duration = [0.0, 0.001, 0.025][rng.gen_range(0usize..3)];
            faults.push(Fault {
                at: Time::from_units(at),
                duration: Duration::from_units(duration),
                core: CoreId(rng.gen_range(0usize..4)),
                mask: 1,
            });
            at += duration + rng.gen_range(0.0..0.006);
        }
    }
    let expected = check_directed(&tasks, &partition, &slots, 1_000.0, faults);
    assert!(expected.effective_faults >= 20, "{expected:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `classify` against the slice-major rule over the same schedule's
    /// trace, on Poisson and slot-edge fault draws: same outcomes, same
    /// effective faults, and the same `sim_ticks_materialised` in a
    /// recorder scoped to the classification.
    #[test]
    fn classify_matches_the_slice_major_rule(
        seed in 0u64..5000,
        fault_seed in 0u64..5000,
        algo_pick in 0u8..3,
        period_tenths in 4u32..20,
        horizon_units in 10u32..200,
        draws in 2usize..7,
    ) {
        let algorithm = algorithm_from(algo_pick);
        let Some(problem) = problem_from_seed(seed, algorithm) else { return Ok(()) };
        let period = period_tenths as f64 / 10.0;
        let Some(slots) = slots_for(&problem, period) else { return Ok(()) };
        let horizon = (horizon_units as f64).min(problem.tasks.hyperperiod() * 4.0);
        let mut arena = SimArena::new();
        let schedule = Schedule::build(
            &problem.tasks,
            &problem.partition,
            problem.algorithm,
            &slots,
            &ScheduleConfig { horizon, record_trace: true, record_response_times: false },
            &mut arena,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(fault_seed);
        for draw in 0..draws {
            let faults = fault_draw(&mut rng, draw, period, horizon);
            let (got, expected) = classify_and_oracle(&schedule, &faults, &mut arena);
            prop_assert!(
                got == expected,
                "seed {seed}, faults {fault_seed}, draw {draw}, P={period}: {got:?} != {expected:?}"
            );
        }
    }

    /// One schedule, many fault draws: building a design's schedule once
    /// and classifying each draw gives exactly what a fresh
    /// `simulate_in` and the slot-stepping reference give for the same
    /// faults — with response times on, with and without the trace.
    #[test]
    fn one_schedule_classifies_every_fault_draw_like_a_fresh_simulation(
        seed in 0u64..5000,
        fault_seed in 0u64..5000,
        algo_pick in 0u8..3,
        period_tenths in 4u32..20,
        horizon_units in 10u32..200,
        draws in 2usize..7,
        record_trace in any::<bool>(),
    ) {
        let algorithm = algorithm_from(algo_pick);
        let Some(problem) = problem_from_seed(seed, algorithm) else { return Ok(()) };
        let period = period_tenths as f64 / 10.0;
        let Some(slots) = slots_for(&problem, period) else { return Ok(()) };
        let horizon = (horizon_units as f64).min(problem.tasks.hyperperiod() * 4.0);
        let build = ScheduleConfig {
            horizon,
            record_trace,
            record_response_times: true,
        };
        let mut arena = SimArena::new();
        let schedule = Schedule::build(
            &problem.tasks,
            &problem.partition,
            problem.algorithm,
            &slots,
            &build,
            &mut arena,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(fault_seed);
        for draw in 0..draws {
            let faults = fault_draw(&mut rng, draw, period, horizon);
            let config = SimulationConfig {
                horizon,
                fault_schedule: faults.clone(),
                record_trace,
                record_response_times: true,
            };
            let context = format!("seed {seed}, faults {fault_seed}, draw {draw}, P={period}");
            let classified = schedule.classify(&faults, &mut arena);
            let reused = schedule.report(&faults, &mut arena);
            let fresh = simulate_in(
                &problem.tasks,
                &problem.partition,
                problem.algorithm,
                &slots,
                &config,
                &mut arena,
            )
            .unwrap();
            prop_assert!(reused == fresh, "shared schedule diverged from simulate_in: {}", context);
            prop_assert!(
                classified.outcomes == fresh.outcomes
                    && classified.effective_faults == fresh.effective_faults,
                "classification diverged from simulate_in: {}",
                context
            );
            assert_engines_agree(&problem, &slots, &config, &context)?;
        }
    }

    /// Randomised workloads × Poisson fault schedules × horizons ×
    /// trace/response-time recording: the engines agree bit for bit.
    #[test]
    fn event_engine_matches_slot_reference(
        seed in 0u64..5000,
        fault_seed in 0u64..5000,
        algo_pick in 0u8..3,
        period_tenths in 4u32..20,
        horizon_units in 40u32..400,
        mean_gap_tenths in 5u32..120,
        record_trace in any::<bool>(),
        record_response_times in any::<bool>(),
    ) {
        let algorithm = algorithm_from(algo_pick);
        let Some(problem) = problem_from_seed(seed, algorithm) else { return Ok(()) };
        let period = period_tenths as f64 / 10.0;
        let Some(slots) = slots_for(&problem, period) else { return Ok(()) };
        let horizon = (horizon_units as f64).min(problem.tasks.hyperperiod() * 4.0);
        let mut rng = StdRng::seed_from_u64(fault_seed);
        let fault_schedule = FaultSchedule::poisson(
            &mut rng,
            Time::from_units(horizon),
            Duration::from_units(mean_gap_tenths as f64 / 10.0),
            Duration::from_units(0.3),
        );
        let config = SimulationConfig {
            horizon,
            fault_schedule,
            record_trace,
            record_response_times,
        };
        assert_engines_agree(
            &problem,
            &slots,
            &config,
            &format!("seed {seed}, faults {fault_seed}, P={period}, H={horizon}"),
        )?;
    }

    /// Fault-free runs (the idle-jump fast path does the most work here)
    /// with full recording on: still bit-identical.
    #[test]
    fn event_engine_matches_reference_fault_free(
        seed in 0u64..5000,
        algo_pick in 0u8..3,
        period_tenths in 4u32..20,
        horizon_units in 40u32..600,
    ) {
        let algorithm = algorithm_from(algo_pick);
        let Some(problem) = problem_from_seed(seed, algorithm) else { return Ok(()) };
        let period = period_tenths as f64 / 10.0;
        let Some(slots) = slots_for(&problem, period) else { return Ok(()) };
        let config = SimulationConfig {
            horizon: horizon_units as f64,
            fault_schedule: FaultSchedule::none(),
            record_trace: true,
            record_response_times: true,
        };
        assert_engines_agree(&problem, &slots, &config, &format!("seed {seed}, P={period}"))?;
    }

    /// Directed adversarial fault windows: straddling slot boundaries,
    /// landing exactly on a boundary, and zero-length windows. These are
    /// the edges where the event engine's lazy fault-window walk could
    /// plausibly diverge from tick-by-tick injection.
    #[test]
    fn event_engine_matches_reference_on_boundary_straddling_faults(
        seed in 0u64..5000,
        algo_pick in 0u8..3,
        boundary in 1u32..12,
        offset_millis in -400i32..400,
        dur_millis in 0u32..900,
        core in 0usize..4,
    ) {
        let algorithm = algorithm_from(algo_pick);
        let Some(problem) = problem_from_seed(seed, algorithm) else { return Ok(()) };
        let period = 1.0;
        let Some(slots) = slots_for(&problem, period) else { return Ok(()) };
        // A fault window positioned around the `boundary`-th slot edge
        // (possibly zero-length, possibly starting exactly on the edge),
        // plus a second one later to exercise the monotone fault cursor.
        let at = (boundary as f64 * period + offset_millis as f64 / 1000.0).max(0.0);
        let duration = dur_millis as f64 / 1000.0;
        let faults = vec![
            Fault {
                at: Time::from_units(at),
                duration: Duration::from_units(duration),
                core: CoreId(core),
                mask: 0xDEAD_BEEF,
            },
            Fault {
                at: Time::from_units(at + duration + 3.5 * period),
                duration: Duration::from_units(0.2),
                core: CoreId((core + 1) % 4),
                mask: 0xBADC_0FFE,
            },
        ];
        let config = SimulationConfig {
            horizon: (boundary as f64 + 8.0) * period,
            fault_schedule: FaultSchedule::new(faults).unwrap(),
            record_trace: true,
            record_response_times: true,
        };
        assert_engines_agree(
            &problem,
            &slots,
            &config,
            &format!("seed {seed}, boundary {boundary}, offset {offset_millis}ms, dur {dur_millis}ms"),
        )?;
    }
}

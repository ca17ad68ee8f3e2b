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

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftsched_core::prelude::*;
use ftsched_design::problem::DesignProblem;
use ftsched_design::quanta::minimum_allocation;
use ftsched_platform::cpu::CoreId;
use ftsched_sim::reference::simulate_slot_stepping;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

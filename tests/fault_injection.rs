//! Integration tests of the fault-injection path: an independent lock-step
//! model of the platform, the job-level classification and the scheduling
//! simulator must tell a consistent story about what a single transient
//! fault can and cannot do in each operating mode.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ftsched_core::prelude::*;
use ftsched_platform::cpu::CoreId;
use ftsched_platform::ChannelLayout;

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

/// What reaches the shared memory after one work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The correct word was committed.
    Committed,
    /// The checker blocked the commit.
    Silent,
    /// A corrupted word was committed.
    Wrong,
}

/// A literal model of the four-core platform of §2.4, independent of
/// `classify_outcome`: every core computes the same output word, a
/// transient fault corrupts the word of the struck core only, and the
/// channel's checker decides what is committed.
fn lockstep_verdict(mode: Mode, channel: &[CoreId], struck: CoreId) -> Verdict {
    const CORRECT: u64 = 0x5EED_F00D;
    let word = |core: &CoreId| {
        if *core == struck {
            CORRECT ^ 0xBAD
        } else {
            CORRECT
        }
    };
    let words: Vec<u64> = channel.iter().map(word).collect();
    let committed = match (mode, words.as_slice()) {
        // FT: four cores in lock-step; the checker commits the majority.
        (Mode::FaultTolerant, &[_, _, _, _]) => words
            .iter()
            .copied()
            .find(|w| 2 * words.iter().filter(|v| *v == w).count() > words.len()),
        // FS: a pair commits only when its two cores agree.
        (Mode::FailSilent, &[a, b]) => (a == b).then_some(a),
        // NF: a lone core commits its own word unchecked.
        (Mode::NonFaultTolerant, &[a]) => Some(a),
        _ => panic!("{mode}: unexpected channel {channel:?}"),
    };
    match committed {
        None => Verdict::Silent,
        Some(w) if w == CORRECT => Verdict::Committed,
        Some(_) => Verdict::Wrong,
    }
}

#[test]
fn classification_matches_an_independent_lockstep_model() {
    let mut checked = 0;
    for mode in Mode::ALL {
        let layout = ChannelLayout::canonical(mode);
        for struck in (0..4).map(CoreId) {
            for channel in 0..layout.channel_count() {
                let cores = layout.cores_of(channel);
                let expected = match classify_outcome(mode, cores.contains(&struck)) {
                    JobOutcome::CorrectNoFault | JobOutcome::CorrectMasked => Verdict::Committed,
                    JobOutcome::SilencedLost => Verdict::Silent,
                    JobOutcome::WrongResult => Verdict::Wrong,
                };
                assert_eq!(
                    lockstep_verdict(mode, cores, struck),
                    expected,
                    "{mode}, channel {channel}, struck core {}",
                    struck.0
                );
                checked += 1;
            }
        }
    }
    // 4 struck cores × (1 FT + 2 FS + 4 NF channels).
    assert_eq!(checked, 28);
}

#[test]
fn platform_level_campaign_preserves_memory_integrity_in_protected_modes() {
    let mut rng = StdRng::seed_from_u64(99);
    for mode in [Mode::FaultTolerant, Mode::FailSilent] {
        let layout = ChannelLayout::canonical(mode);
        let schedule = FaultSchedule::poisson(
            &mut rng,
            Time::from_units(100.0),
            Duration::from_units(2.0),
            Duration::from_units(0.5),
        );
        assert!(schedule.len() > 10, "{mode}: too few faults to campaign");
        // Run every channel while each fault is live: the worst case for
        // the checker.
        let mut silenced = 0;
        for fault in schedule.faults() {
            for channel in 0..layout.channel_count() {
                match lockstep_verdict(mode, layout.cores_of(channel), fault.core) {
                    Verdict::Wrong => panic!(
                        "{mode}: a wrong value from core {} reached the shared memory",
                        fault.core.0
                    ),
                    Verdict::Silent => silenced += 1,
                    Verdict::Committed => {}
                }
            }
        }
        // FT masks every fault; FS silences the struck pair once per fault.
        let expected = match mode {
            Mode::FailSilent => schedule.len(),
            _ => 0,
        };
        assert_eq!(silenced, expected, "{mode}");
    }
}

#[test]
fn platform_level_campaign_lets_wrong_values_through_only_in_nf_mode() {
    let mut rng = StdRng::seed_from_u64(7);
    let schedule = FaultSchedule::poisson(
        &mut rng,
        Time::from_units(50.0),
        Duration::from_units(2.0),
        Duration::from_units(0.5),
    );
    assert!(!schedule.is_empty());
    for mode in Mode::ALL {
        let layout = ChannelLayout::canonical(mode);
        let mut corrupted = 0;
        for fault in schedule.faults() {
            let channel = layout.channel_of_core(fault.core).unwrap();
            if lockstep_verdict(mode, layout.cores_of(channel), fault.core) == Verdict::Wrong {
                corrupted += 1;
            }
        }
        let expected = match mode {
            Mode::NonFaultTolerant => schedule.len(),
            _ => 0,
        };
        assert_eq!(corrupted, expected, "{mode}");
    }
}

#[test]
fn simulator_campaign_matches_mode_guarantees_on_the_paper_design() {
    let (tasks, partition) = paper_example();
    let mut rng = StdRng::seed_from_u64(2007);
    let horizon = 600.0;
    let faults = FaultSchedule::poisson(
        &mut rng,
        Time::from_units(horizon),
        Duration::from_units(8.0),
        Duration::from_units(0.25),
    );
    let injected = faults.len() as u64;
    let report = simulate(
        &tasks,
        &partition,
        Algorithm::EarliestDeadlineFirst,
        &table2b_slots(),
        &SimulationConfig {
            horizon,
            fault_schedule: faults,
            record_trace: false,
            record_response_times: false,
        },
    )
    .unwrap();

    // Mode guarantees.
    assert_eq!(report.outcomes[Mode::FaultTolerant].wrong_result, 0);
    assert_eq!(report.outcomes[Mode::FailSilent].wrong_result, 0);
    assert_eq!(report.outcomes[Mode::FaultTolerant].silenced_lost, 0);
    // With ~75 faults over 600 time units and ~36% of the timeline being
    // NF useful time, some corruption and some masking must be observed.
    assert!(
        report.outcomes[Mode::FaultTolerant].correct_masked > 0,
        "no FT fault was masked"
    );
    assert!(
        report.outcomes[Mode::NonFaultTolerant].wrong_result > 0,
        "no NF job was corrupted"
    );
    assert!(report.effective_faults > 0);
    assert!(report.effective_faults <= injected);
    // Timing is unaffected by faults in this fault model.
    assert!(report.all_deadlines_met());
}

#[test]
fn directed_faults_hit_exactly_the_targeted_mode() {
    let (tasks, partition) = paper_example();
    // Build one fault per mode, each placed in the middle of that mode's
    // first useful window and striking a core of the first channel.
    let cases = [
        (Mode::FaultTolerant, 0.4, 0usize),
        (Mode::FailSilent, 1.2, 1usize),
        (Mode::NonFaultTolerant, 2.5, 0usize),
    ];
    for (mode, at, core) in cases {
        let schedule = FaultSchedule::new(vec![Fault {
            at: Time::from_units(at),
            duration: Duration::from_units(0.1),
            core: CoreId(core),
            mask: 0x1234,
        }])
        .unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 30.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        let affected: u64 = Mode::ALL
            .iter()
            .map(|&m| {
                let o = report.outcomes[m];
                o.correct_masked + o.silenced_lost + o.wrong_result
            })
            .sum();
        let own = report.outcomes[mode];
        let own_affected = own.correct_masked + own.silenced_lost + own.wrong_result;
        assert!(own_affected > 0, "{mode}: the directed fault had no effect");
        assert_eq!(
            affected, own_affected,
            "{mode}: a fault leaked into another mode"
        );
    }
}

#[test]
fn fault_rate_sweep_shows_monotone_exposure_in_nf_mode() {
    // Higher fault rates never reduce the number of corrupted NF jobs
    // (statistically; with fixed seeds the counts are deterministic).
    let (tasks, partition) = paper_example();
    let horizon = 600.0;
    let mut last = 0u64;
    for (i, mean_gap) in [40.0, 10.0, 2.5].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        let faults = FaultSchedule::poisson(
            &mut rng,
            Time::from_units(horizon),
            Duration::from_units(mean_gap),
            Duration::from_units(0.25),
        );
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon,
                fault_schedule: faults,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        let corrupted = report.outcomes[Mode::NonFaultTolerant].wrong_result;
        assert!(
            corrupted >= last,
            "corruption count dropped from {last} to {corrupted} as the fault rate increased"
        );
        last = corrupted;
    }
    assert!(last > 0);
}

#[test]
fn faults_strike_the_channel_a_task_runs_on_when_an_earlier_channel_is_empty() {
    // NF channel 0 (core 0) is left empty, so task 1 runs on channel 1
    // (core 1). Faults on core 0 must strike no NF job, and faults on
    // core 1 must strike task 1's jobs, in both engines alike.
    let tasks = paper_taskset();
    let id = TaskId;
    let nf = ModePartition::new(
        Mode::NonFaultTolerant,
        vec![vec![], vec![id(1)], vec![id(2), id(3)], vec![id(4), id(5)]],
    )
    .unwrap();
    let paper = paper_partition();
    let partition = SystemPartition::new(paper.modes.ft.clone(), paper.modes.fs.clone(), nf);
    partition.validate(&tasks).unwrap();
    let horizon = 240.0;
    let drawn = FaultSchedule::poisson(
        &mut StdRng::seed_from_u64(2007),
        Time::from_units(horizon),
        Duration::from_units(2.0),
        Duration::from_units(0.25),
    );
    for core in [0, 1] {
        let faults = drawn
            .faults()
            .iter()
            .map(|f| Fault {
                core: CoreId(core),
                ..*f
            })
            .collect();
        let config = SimulationConfig {
            horizon,
            fault_schedule: FaultSchedule::new(faults).unwrap(),
            record_trace: true,
            record_response_times: false,
        };
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &config,
        )
        .unwrap();
        let reference = ftsched_sim::reference::simulate_slot_stepping(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &config,
        )
        .unwrap();
        assert_eq!(report, reference, "core {core}");

        let trace = report.trace.as_ref().unwrap();
        let nf_jobs = || {
            trace
                .jobs
                .iter()
                .filter(|r| r.mode == Mode::NonFaultTolerant)
        };
        assert!(nf_jobs().all(|r| r.channel != 0), "core {core}");
        assert!(
            nf_jobs()
                .filter(|r| r.job.task == id(1))
                .all(|r| r.channel == 1),
            "core {core}"
        );
        let struck: Vec<_> = nf_jobs()
            .filter(|r| r.outcome == JobOutcome::WrongResult)
            .collect();
        if core == 0 {
            assert!(
                struck.is_empty(),
                "{} NF jobs struck on core 0",
                struck.len()
            );
        } else {
            assert!(!struck.is_empty(), "no task 1 job struck on core 1");
            assert!(struck.iter().all(|r| r.job.task == id(1)));
        }
    }
}

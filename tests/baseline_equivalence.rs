//! Equivalence of the static baseline verdicts with the analysis
//! functions they stand for.
//!
//! `ftsched::design::baseline` computes the static lock-step,
//! static-parallel and primary/backup verdicts from copies of each task's
//! `(id, C, T, D)`. The oracle below is a literal reimplementation of the
//! scheme on task sets: it re-labels cloned tasks, partitions them with
//! `partition_mode`, splits the channels with `channel_task_sets` and runs
//! `edf::schedulable_dedicated` or `fp::schedulable_with_supply` on each.
//! Every verdict must agree, over random sets of 1–24 tasks with
//! constrained deadlines, non-integer periods and equal utilisations
//! (which exercise the worst-fit tie rules), under EDF, RM and DM.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftsched::analysis::{edf, fp, Algorithm, DedicatedSupply};
use ftsched::design::baseline::{
    compare_static_schemes, primary_backup_schedulable, static_lockstep_schedulable,
    static_parallel_schedulable,
};
use ftsched::design::partitioner::{partition_mode, PartitionHeuristic};
use ftsched::task::{Mode, Task, TaskId, TaskSet};

fn oracle_uniprocessor(tasks: &TaskSet, algorithm: Algorithm) -> bool {
    match algorithm {
        Algorithm::EarliestDeadlineFirst => edf::schedulable_dedicated(tasks),
        Algorithm::RateMonotonic | Algorithm::DeadlineMonotonic => fp::schedulable_with_supply(
            tasks,
            algorithm.priority_order().expect("fixed priority"),
            &DedicatedSupply,
        ),
    }
}

fn oracle_partitioned(tasks: Vec<Task>, algorithm: Algorithm) -> bool {
    let Ok(tasks) = TaskSet::new(tasks) else {
        return false;
    };
    let Ok(partition) = partition_mode(
        &tasks,
        Mode::NonFaultTolerant,
        PartitionHeuristic::WorstFitDecreasing,
    ) else {
        return false;
    };
    let Ok(channels) = partition.channel_task_sets(&tasks) else {
        return false;
    };
    channels.iter().all(|c| oracle_uniprocessor(c, algorithm))
}

fn oracle_lockstep(tasks: &TaskSet, algorithm: Algorithm) -> bool {
    oracle_uniprocessor(tasks, algorithm)
}

fn oracle_parallel(tasks: &TaskSet, algorithm: Algorithm) -> bool {
    let relabelled = tasks
        .iter()
        .map(|t| {
            let mut c = t.clone();
            c.mode = Mode::NonFaultTolerant;
            c
        })
        .collect();
    oracle_partitioned(relabelled, algorithm)
}

fn oracle_primary_backup(tasks: &TaskSet, algorithm: Algorithm) -> bool {
    let mut inflated: Vec<Task> = Vec::with_capacity(tasks.len() * 2);
    let mut next_id = tasks.iter().map(|t| t.id.0).max().unwrap_or(0) + 1;
    for t in tasks.iter() {
        let mut primary = t.clone();
        primary.mode = Mode::NonFaultTolerant;
        inflated.push(primary);
        if t.mode != Mode::NonFaultTolerant {
            let mut backup = t.clone();
            backup.id = TaskId(next_id);
            backup.name = format!("{}-backup", t.name);
            backup.mode = Mode::NonFaultTolerant;
            next_id += 1;
            inflated.push(backup);
        }
    }
    oracle_partitioned(inflated, algorithm)
}

/// Utilisations on a 0.05 grid: sums hit 1 exactly (up to rounding) and
/// many tasks share one utilisation.
const GRID_UTILIZATIONS: [f64; 10] = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];
/// Integer periods with a small hyperperiod (120).
const INTEGER_PERIODS: [f64; 10] = [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0];
/// Half-integer periods (hyperperiod 787.5).
const HALF_PERIODS: [f64; 6] = [2.5, 3.5, 4.5, 7.5, 12.5, 17.5];

/// A random task set. `style` picks the parameter family:
/// 0 — grid utilisations, integer periods, implicit deadlines;
/// 1 — grid utilisations, integer periods, constrained deadlines;
/// 2 — grid utilisations, half-integer periods, some constrained deadlines;
/// 3 — continuous utilisations and periods, implicit deadlines.
fn task_set(seed: u64, style: u8, len: usize) -> TaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    // Distinct ids with gaps, in a shuffled set order.
    let mut ids: Vec<u32> = (0..len as u32)
        .map(|i| 3 * i + rng.gen_range(0..3u32))
        .collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let tasks = ids
        .into_iter()
        .map(|id| {
            let (u, period) = match style {
                0 | 1 => (
                    GRID_UTILIZATIONS[rng.gen_range(0..GRID_UTILIZATIONS.len())],
                    INTEGER_PERIODS[rng.gen_range(0..INTEGER_PERIODS.len())],
                ),
                2 => (
                    GRID_UTILIZATIONS[rng.gen_range(0..GRID_UTILIZATIONS.len())],
                    HALF_PERIODS[rng.gen_range(0..HALF_PERIODS.len())],
                ),
                _ => (rng.gen_range(0.01..0.5), rng.gen_range(2.0..40.0)),
            };
            let wcet = u * period;
            let deadline = match style {
                1 => (wcet + rng.gen_range(0.0..1.0) * (period - wcet)).max(wcet),
                2 if rng.gen_range(0..2u32) == 0 => period - 0.5 * rng.gen_range(0..3u32) as f64,
                _ => period,
            };
            let mode = [
                Mode::FaultTolerant,
                Mode::FailSilent,
                Mode::NonFaultTolerant,
            ][rng.gen_range(0..3usize)];
            Task::constrained_deadline(id, wcet, period, deadline.max(wcet), mode)
                .expect("generated parameters are valid")
        })
        .collect();
    TaskSet::new(tasks).expect("ids are distinct")
}

fn check(tasks: &TaskSet) -> Result<(), TestCaseError> {
    for algorithm in Algorithm::ALL {
        let expected = (
            oracle_lockstep(tasks, algorithm),
            oracle_parallel(tasks, algorithm),
            oracle_primary_backup(tasks, algorithm),
        );
        let separate = (
            static_lockstep_schedulable(tasks, algorithm),
            static_parallel_schedulable(tasks, algorithm),
            primary_backup_schedulable(tasks, algorithm),
        );
        prop_assert!(
            separate == expected,
            "{algorithm:?}: {separate:?} != oracle {expected:?} on {tasks:?}"
        );
        let together = compare_static_schemes(tasks, algorithm, true);
        let together = (
            together.static_lockstep,
            together.static_parallel,
            together.primary_backup,
        );
        prop_assert!(
            together == expected,
            "{algorithm:?}: {together:?} != oracle {expected:?} on {tasks:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn static_verdicts_match_the_task_set_oracle(
        seed in any::<u64>(),
        style in 0u8..4,
        len in 1usize..=24,
    ) {
        check(&task_set(seed, style, len))?;
    }

    #[test]
    fn tight_sets_match_the_task_set_oracle(seed in any::<u64>(), len in 1usize..=12) {
        // Few tasks of large grid utilisation: channel loads land on 1
        // (and on 1 ± rounding) far more often than in the wide search.
        let mut rng = StdRng::seed_from_u64(seed);
        let tasks = TaskSet::new(
            (0..len as u32)
                .map(|id| {
                    let u = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7][rng.gen_range(0..7usize)];
                    let period = INTEGER_PERIODS[rng.gen_range(0..INTEGER_PERIODS.len())];
                    let mode = [Mode::FaultTolerant, Mode::FailSilent, Mode::NonFaultTolerant]
                        [rng.gen_range(0..3usize)];
                    Task::implicit_deadline(id + 1, u * period, period, mode).unwrap()
                })
                .collect(),
        )
        .unwrap();
        check(&tasks)?;
    }
}

#[test]
fn directed_boundary_sets_match_the_task_set_oracle() {
    let nf = |id, c, t| Task::implicit_deadline(id, c, t, Mode::NonFaultTolerant).unwrap();
    let ft = |id, c, t| Task::implicit_deadline(id, c, t, Mode::FaultTolerant).unwrap();
    let sets = [
        // 0.1 + 0.2 + 0.3 + 0.4 rounds to just above 1.
        vec![
            nf(1, 1.0, 10.0),
            nf(2, 2.0, 10.0),
            nf(3, 3.0, 10.0),
            nf(4, 4.0, 10.0),
        ],
        // Equal utilisations with different periods: which processor a
        // task joins decides the RM verdict.
        vec![
            ft(7, 1.0, 2.0),
            ft(3, 2.0, 4.0),
            nf(5, 3.0, 6.0),
            ft(1, 1.5, 3.0),
            nf(2, 2.5, 5.0),
        ],
        // W(0.3) = 0.1 + 0.2 rounds to just above 0.3: only the 1e-9
        // slack of the point test admits it under RM and DM.
        vec![nf(1, 0.1 + 0.2, 0.3)],
        // The same rounding in the EDF demand at the shared deadline 0.3.
        vec![
            Task::constrained_deadline(1, 0.1, 1.0, 0.3, Mode::NonFaultTolerant).unwrap(),
            Task::constrained_deadline(2, 0.2, 1.0, 0.3, Mode::FailSilent).unwrap(),
        ],
        // W(1) of the second task lies within 1e-12 of 1 + 1e-9: a
        // marginal pass, settled on the merged point set.
        vec![
            nf(1, 0.5, 1.0),
            Task::constrained_deadline(2, 0.5 + 1e-9 - 5e-13, 2.0, 1.0, Mode::FaultTolerant)
                .unwrap(),
        ],
        // The paper's Table 1.
        ftsched::task::examples::paper_taskset().tasks().to_vec(),
    ];
    for tasks in sets {
        check(&TaskSet::new(tasks).unwrap()).unwrap();
    }
}

//! Comparison baselines for the paper's flexible scheme.
//!
//! The paper motivates its contribution against two static extremes
//! (§1): a platform permanently configured as a single fault-tolerant
//! lock-step channel (maximum protection, one quarter of the computing
//! power) and a platform permanently configured as four independent
//! processors (maximum performance, no protection). The related-work
//! section also points at software primary/backup replication [11, 17].
//! This module implements all three so the evaluation can quantify how
//! many mixed-criticality workloads each approach admits:
//!
//! * [`static_lockstep_schedulable`] — every task (whatever its required
//!   mode) runs on the single FT channel; schedulability is the plain
//!   uniprocessor test. Fault requirements are trivially satisfied.
//! * [`static_parallel_schedulable`] — every task is partitioned over four
//!   independent processors with worst-fit decreasing, and each processor
//!   takes the uniprocessor test. Timing is easy, but FT/FS tasks run
//!   unprotected, so the configuration *violates* their mode requirement;
//!   it is reported only as a timing upper bound.
//! * [`primary_backup_schedulable`] — software replication on the
//!   four-processor parallel platform: every FT and FS task gets an
//!   active backup with the same parameters, and the inflated workload is
//!   partitioned and tested like the static-parallel one. This is a
//!   timing check of the doubled demand only: nothing keeps a backup off
//!   its primary's processor.
//! * [`flexible_scheme_schedulable`] — the paper's scheme: true iff the
//!   feasible-period region of Eq. 15 is non-empty for the given
//!   overhead.
//!
//! The uniprocessor test is the one of [`edf::schedulable_dedicated`]
//! (`U ≤ 1`, exact for implicit deadlines, else the processor-demand
//! test up to the capped hyperperiod) and of
//! [`fp::schedulable_with_supply`] on a dedicated processor (Theorem 1's
//! scheduling points, walked depth first up to the first point that
//! passes). The static verdicts evaluate both on plain copies of each
//! task's `(id, C, T, D)`, in a scratch buffer that lives on the stack
//! for sets of up to 32 tasks: the scheme never clones a [`Task`], never
//! builds a [`TaskSet`] or partition, and names no backup. Only the
//! constrained-deadline EDF test, which no generated workload reaches,
//! and a point test passing within `1e-12` of its bound run the analysis
//! crate's own code on unnamed task copies. Every verdict is bit for bit
//! the one those analysis functions give on the re-labelled task sets
//! and [`partition_mode`]'s worst-fit partition
//! (`tests/baseline_equivalence.rs`).

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use ftsched_analysis::edf::DEFAULT_HORIZON_CAP;
use ftsched_analysis::points::{capped_hyperperiod, deadline_set, scheduling_points};
use ftsched_analysis::workload::{self, edf_demand};
use ftsched_analysis::Algorithm;
#[cfg(doc)]
use ftsched_analysis::{edf, fp};
use ftsched_task::{Mode, PriorityOrder, Task, TaskId, TaskSet};

use crate::error::DesignError;
#[cfg(doc)]
use crate::partitioner::partition_mode;
use crate::problem::DesignProblem;
use crate::region::{max_feasible_period, RegionConfig};

/// Which baseline scheme a verdict refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// The paper's flexible time-partitioned scheme.
    Flexible,
    /// Static redundant lock-step: one FT channel for everything.
    StaticLockstep,
    /// Static fully parallel: four unprotected processors.
    StaticParallel,
    /// Software primary/backup replication on four processors.
    PrimaryBackup,
}

impl Scheme {
    /// All schemes, in report order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Flexible,
        Scheme::StaticLockstep,
        Scheme::StaticParallel,
        Scheme::PrimaryBackup,
    ];

    /// Short label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            Scheme::Flexible => "flexible",
            Scheme::StaticLockstep => "static-lockstep",
            Scheme::StaticParallel => "static-parallel",
            Scheme::PrimaryBackup => "primary-backup",
        }
    }

    /// Whether the scheme honours the fault-robustness requirement of
    /// every task (static-parallel does not).
    pub const fn respects_fault_modes(self) -> bool {
        !matches!(self, Scheme::StaticParallel)
    }
}

/// Verdicts of every scheme on one task set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineComparison {
    /// Verdict of the paper's flexible scheme.
    pub flexible: bool,
    /// Verdict of the static all-FT lock-step platform.
    pub static_lockstep: bool,
    /// Verdict (timing only) of the static fully parallel platform.
    pub static_parallel: bool,
    /// Verdict of the software primary/backup scheme.
    pub primary_backup: bool,
}

impl BaselineComparison {
    /// Verdict of one scheme.
    pub fn verdict(&self, scheme: Scheme) -> bool {
        match scheme {
            Scheme::Flexible => self.flexible,
            Scheme::StaticLockstep => self.static_lockstep,
            Scheme::StaticParallel => self.static_parallel,
            Scheme::PrimaryBackup => self.primary_backup,
        }
    }
}

/// Channels of the static fully parallel platform (one per processor).
const PARALLEL_CHANNELS: usize = Mode::NonFaultTolerant.channels();

/// Entries a verdict keeps on the stack; larger sets (more than 32 tasks
/// once primary/backup doubles them) use one heap buffer instead.
const INLINE_ENTRIES: usize = 64;

/// The scheduling parameters of one task or replica: everything a static
/// verdict reads, copied out of the [`Task`] so no name is cloned.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u32,
    wcet: f64,
    period: f64,
    deadline: f64,
    utilization: f64,
    /// Processor the worst-fit partition placed the entry on.
    channel: usize,
    /// Position in worst-fit order, i.e. in its channel's assignment order.
    rank: usize,
}

impl Entry {
    const EMPTY: Entry = Entry {
        id: 0,
        wcet: 0.0,
        period: 0.0,
        deadline: 0.0,
        utilization: 0.0,
        channel: 0,
        rank: 0,
    };

    fn of(task: &Task) -> Entry {
        Entry {
            id: task.id.0,
            wcet: task.wcet,
            period: task.period,
            deadline: task.deadline,
            utilization: task.utilization(),
            ..Entry::EMPTY
        }
    }

    /// A task with these parameters and no name.
    fn unnamed_task(&self) -> Task {
        Task {
            id: TaskId(self.id),
            name: String::new(),
            wcet: self.wcet,
            period: self.period,
            deadline: self.deadline,
            mode: Mode::NonFaultTolerant,
        }
    }

    /// [`Task::has_implicit_deadline`] on the copied parameters.
    fn has_implicit_deadline(&self) -> bool {
        (self.deadline - self.period).abs() < f64::EPSILON * self.period.max(1.0)
    }
}

/// Runs `f` on a scratch buffer of `len` entries: on the stack up to
/// [`INLINE_ENTRIES`], else in one heap allocation.
fn with_entries<R>(len: usize, f: impl FnOnce(&mut [Entry]) -> R) -> R {
    if len <= INLINE_ENTRIES {
        f(&mut [Entry::EMPTY; INLINE_ENTRIES][..len])
    } else {
        f(&mut vec![Entry::EMPTY; len])
    }
}

/// Copies the set's tasks into the front of `scratch`, in set order, and
/// returns them.
fn fill<'a>(scratch: &'a mut [Entry], tasks: &TaskSet) -> &'a mut [Entry] {
    for (slot, task) in scratch.iter_mut().zip(tasks.iter()) {
        *slot = Entry::of(task);
    }
    &mut scratch[..tasks.len()]
}

/// Copies the set's tasks into the front of `scratch` with one active
/// replica after every FT and FS task, and returns them. Replica ids
/// count up from the largest id plus one, in set order.
fn replicate<'a>(scratch: &'a mut [Entry], tasks: &TaskSet) -> &'a mut [Entry] {
    let mut next_id = tasks.iter().map(|t| t.id.0).max().unwrap_or(0) + 1;
    let mut len = 0;
    for task in tasks.iter() {
        scratch[len] = Entry::of(task);
        len += 1;
        if task.mode != Mode::NonFaultTolerant {
            scratch[len] = Entry {
                id: next_id,
                ..Entry::of(task)
            };
            next_id += 1;
            len += 1;
        }
    }
    &mut scratch[..len]
}

/// Uniprocessor schedulability of `tasks` on a dedicated processor, as
/// [`edf::schedulable_dedicated`] and [`fp::schedulable_with_supply`] with
/// a [`DedicatedSupply`](ftsched_analysis::DedicatedSupply) decide it.
/// `utilization` is the set's utilisation summed in the order of `tasks`,
/// which EDF also keeps; fixed priorities sort `tasks` in place.
fn uniprocessor_schedulable(tasks: &mut [Entry], utilization: f64, algorithm: Algorithm) -> bool {
    if tasks.is_empty() {
        return true;
    }
    if utilization > 1.0 + 1e-12 {
        return false;
    }
    match algorithm {
        Algorithm::EarliestDeadlineFirst => {
            // Liu & Layland: with implicit deadlines U ≤ 1 is exact.
            tasks.iter().all(Entry::has_implicit_deadline) || edf_demand_schedulable(tasks)
        }
        Algorithm::RateMonotonic | Algorithm::DeadlineMonotonic => {
            let order = algorithm.priority_order().expect("fixed priority");
            tasks.sort_unstable_by(|a, b| priority_cmp(order, a, b));
            (0..tasks.len()).all(|i| point_test(&tasks[i], &tasks[..i]))
        }
    }
}

/// [`TaskSet::sorted_by_priority`]'s order: by period (RM) or deadline
/// (DM), then by id. Ids are unique, so an unstable sort gives the same
/// order as the stable one.
fn priority_cmp(order: PriorityOrder, a: &Entry, b: &Entry) -> Ordering {
    let (x, y) = match order {
        PriorityOrder::RateMonotonic => (a.period, b.period),
        PriorityOrder::DeadlineMonotonic => (a.deadline, b.deadline),
    };
    x.partial_cmp(&y)
        .expect("validated parameters are finite")
        .then(a.id.cmp(&b.id))
}

/// The processor-demand test `W(t) ≤ t` at every absolute deadline
/// up to the capped hyperperiod, as [`edf::schedulable_dedicated`]
/// checks it. Only constrained deadlines reach it (no generated workload
/// has them), so it runs the analysis crate's own point set and demand
/// on unnamed copies of the tasks.
fn edf_demand_schedulable(tasks: &[Entry]) -> bool {
    let tasks: Vec<Task> = tasks.iter().map(Entry::unnamed_task).collect();
    let horizon = capped_hyperperiod(&tasks, DEFAULT_HORIZON_CAP);
    deadline_set(&tasks, horizon)
        .iter()
        .all(|&t| edf_demand(&tasks, t) <= t + 1e-9)
}

/// Theorem 1 on a dedicated processor for one task: some scheduling
/// point `t` has `W_i(t) ≤ t + 1e-9`.
///
/// The Bini–Buttazzo recursion is walked depth first and stops at the
/// first point that passes. [`scheduling_points`] merges points
/// less than `1e-12` apart before testing, and a raw point may pass where
/// the merged one just below it fails only if `W_i` lies within about
/// `1e-12` of the bound. Such a marginal pass is settled on the merged set.
fn point_test(task: &Entry, hp: &[Entry]) -> bool {
    let mut marginal = false;
    walk_points(task, hp, task.deadline, hp.len(), &mut marginal)
        || (marginal && merged_point_test(task, hp))
}

/// `P_level(t)` of the recursion, in [`scheduling_points`]'s
/// enumeration order. True at the first point passing with `1e-12` to
/// spare, below which a merged neighbour passes as well (`W_i` is
/// non-decreasing); `marginal` records any other pass.
fn walk_points(task: &Entry, hp: &[Entry], t: f64, level: usize, marginal: &mut bool) -> bool {
    if level == 0 {
        let w = fp_workload(task, hp, t);
        *marginal |= w <= t + 1e-9;
        return w <= (t - 1e-12) + 1e-9;
    }
    let tj = hp[level - 1].period;
    let floored = (t / tj).floor() * tj;
    walk_points(task, hp, t, level - 1, marginal)
        || (floored < t && floored > 0.0 && walk_points(task, hp, floored, level - 1, marginal))
}

/// The point test over [`scheduling_points`]' sorted, merged set, on
/// unnamed copies of the tasks.
fn merged_point_test(task: &Entry, hp: &[Entry]) -> bool {
    let hp: Vec<Task> = hp.iter().map(Entry::unnamed_task).collect();
    let task = task.unnamed_task();
    scheduling_points(task.deadline, &hp)
        .iter()
        .any(|&t| workload::fp_workload(&task, &hp, t) <= t + 1e-9)
}

/// [`fp_workload`](ftsched_analysis::workload::fp_workload) on entries:
/// `W_i(t) = C_i + Σ_{j ∈ hp(i)} ⌈t / T_j⌉ C_j`, summed in priority order.
fn fp_workload(task: &Entry, hp: &[Entry], t: f64) -> f64 {
    let mut w = task.wcet;
    for h in hp {
        w += (t / h.period).ceil() * h.wcet;
    }
    w
}

/// Worst-fit decreasing onto the four processors, then the uniprocessor
/// test per processor; the order of `entries` is consumed.
///
/// The partition is [`partition_mode`]'s: utilisation descending, then
/// id; each entry goes to the least-loaded processor it fits on
/// (`load + u ≤ 1 + 1e-9`), the first one on a tie. A processor's
/// utilisation is its load, summed in assignment order.
fn partitioned_schedulable(entries: &mut [Entry], algorithm: Algorithm) -> bool {
    entries.sort_unstable_by(|a, b| {
        b.utilization
            .partial_cmp(&a.utilization)
            .expect("utilisations are finite")
            .then(a.id.cmp(&b.id))
    });
    let mut load = [0.0_f64; PARALLEL_CHANNELS];
    for (rank, entry) in entries.iter_mut().enumerate() {
        let u = entry.utilization;
        let mut chosen: Option<usize> = None;
        for c in 0..PARALLEL_CHANNELS {
            if load[c] + u <= 1.0 + 1e-9 && chosen.is_none_or(|best| load[c] < load[best]) {
                chosen = Some(c);
            }
        }
        let Some(c) = chosen else {
            return false;
        };
        load[c] += u;
        entry.channel = c;
        entry.rank = rank;
    }
    // Group by processor: EDF keeps assignment order, fixed priorities
    // sort each group again anyway.
    entries.sort_unstable_by_key(|e| (e.channel, e.rank));
    entries
        .chunk_by_mut(|a, b| a.channel == b.channel)
        .all(|channel| uniprocessor_schedulable(channel, load[channel[0].channel], algorithm))
}

/// Static all-FT lock-step: all tasks on the single fault-tolerant channel.
pub fn static_lockstep_schedulable(tasks: &TaskSet, algorithm: Algorithm) -> bool {
    with_entries(tasks.len(), |entries| lockstep(entries, tasks, algorithm))
}

/// Static fully parallel platform: tasks partitioned (worst-fit
/// decreasing) onto four independent processors, timing checked per
/// processor. Mode requirements are ignored — the caller decides how to
/// interpret that.
pub fn static_parallel_schedulable(tasks: &TaskSet, algorithm: Algorithm) -> bool {
    with_entries(tasks.len(), |entries| parallel(entries, tasks, algorithm))
}

/// Software primary/backup on four parallel processors: FT and FS tasks
/// are actively replicated (an identical backup job with the same period
/// and deadline), the inflated task set is partitioned over the four
/// processors, and every processor must pass the uniprocessor test.
///
/// This is a timing-only check. Primaries and backups are partitioned as
/// independent tasks, and nothing keeps a backup off its primary's
/// processor, so an accepted set may place both on one processor, where
/// a single fault hits both.
pub fn primary_backup_schedulable(tasks: &TaskSet, algorithm: Algorithm) -> bool {
    with_entries(2 * tasks.len(), |entries| {
        primary_backup(entries, tasks, algorithm)
    })
}

/// The three static verdicts on one task set next to the given flexible
/// verdict, sharing one scratch buffer.
pub fn compare_static_schemes(
    tasks: &TaskSet,
    algorithm: Algorithm,
    flexible: bool,
) -> BaselineComparison {
    with_entries(2 * tasks.len(), |entries| BaselineComparison {
        flexible,
        static_lockstep: lockstep(entries, tasks, algorithm),
        static_parallel: parallel(entries, tasks, algorithm),
        primary_backup: primary_backup(entries, tasks, algorithm),
    })
}

fn lockstep(scratch: &mut [Entry], tasks: &TaskSet, algorithm: Algorithm) -> bool {
    uniprocessor_schedulable(fill(scratch, tasks), tasks.utilization(), algorithm)
}

fn parallel(scratch: &mut [Entry], tasks: &TaskSet, algorithm: Algorithm) -> bool {
    partitioned_schedulable(fill(scratch, tasks), algorithm)
}

fn primary_backup(scratch: &mut [Entry], tasks: &TaskSet, algorithm: Algorithm) -> bool {
    partitioned_schedulable(replicate(scratch, tasks), algorithm)
}

/// The paper's flexible scheme: schedulable iff a feasible period exists
/// for the problem's overhead (Eq. 15).
pub fn flexible_scheme_schedulable(problem: &DesignProblem, config: &RegionConfig) -> bool {
    max_feasible_period(problem, config).is_ok()
}

/// Evaluates every scheme on one design problem.
///
/// # Errors
///
/// This function itself never fails; it is fallible only to keep the
/// signature uniform with the rest of the design API.
pub fn compare_schemes(
    problem: &DesignProblem,
    config: &RegionConfig,
) -> Result<BaselineComparison, DesignError> {
    compare_schemes_with(problem, &problem.analysis_context()?, config)
}

/// [`compare_schemes`] over a prebuilt [`AnalysisContext`](crate::AnalysisContext) of the same
/// problem, so the flexible-scheme region sweep shares the context with
/// the caller's own searches instead of rebuilding it.
///
/// # Errors
///
/// Same as [`compare_schemes`].
pub fn compare_schemes_with(
    problem: &DesignProblem,
    ctx: &crate::context::AnalysisContext,
    config: &RegionConfig,
) -> Result<BaselineComparison, DesignError> {
    let flexible = crate::region::max_feasible_period_with(ctx, config).is_ok();
    Ok(compare_static_schemes(
        &problem.tasks,
        problem.algorithm,
        flexible,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::paper_problem;
    use ftsched_task::examples::paper_taskset;

    #[test]
    fn paper_example_is_schedulable_by_flexible_and_parallel_schemes() {
        let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
        let cmp = compare_schemes(&problem, &RegionConfig::paper_figure4()).unwrap();
        assert!(cmp.flexible);
        assert!(cmp.static_parallel);
        assert!(cmp.primary_backup);
        // Total utilisation ≈ 1.35 > 1: the single all-FT channel cannot
        // host everything.
        assert!(!cmp.static_lockstep);
    }

    #[test]
    fn static_lockstep_accepts_light_workloads() {
        let tasks = paper_taskset();
        let light: Vec<Task> = tasks
            .iter()
            .map(|t| {
                let mut c = t.clone();
                c.wcet *= 0.5;
                c
            })
            .collect();
        let light = TaskSet::new(light).unwrap();
        // Halved WCETs bring the total utilisation to ≈ 0.68 < 1.
        assert!(static_lockstep_schedulable(
            &light,
            Algorithm::EarliestDeadlineFirst
        ));
    }

    #[test]
    fn primary_backup_doubles_protected_demand() {
        // A workload with heavy FT tasks that fits in parallel but not once
        // the backups double the protected demand per processor.
        let tasks = TaskSet::new(vec![
            Task::implicit_deadline(1, 6.0, 10.0, Mode::FaultTolerant).unwrap(),
            Task::implicit_deadline(2, 6.0, 10.0, Mode::FaultTolerant).unwrap(),
            Task::implicit_deadline(3, 6.0, 10.0, Mode::FaultTolerant).unwrap(),
            Task::implicit_deadline(4, 6.0, 10.0, Mode::FaultTolerant).unwrap(),
        ])
        .unwrap();
        assert!(static_parallel_schedulable(
            &tasks,
            Algorithm::EarliestDeadlineFirst
        ));
        // 8 copies of U=0.6 need 4.8 processors' worth of bandwidth.
        assert!(!primary_backup_schedulable(
            &tasks,
            Algorithm::EarliestDeadlineFirst
        ));
    }

    #[test]
    fn primary_backup_accepts_what_it_can_replicate() {
        let tasks = TaskSet::new(vec![
            Task::implicit_deadline(1, 1.0, 10.0, Mode::FaultTolerant).unwrap(),
            Task::implicit_deadline(2, 1.0, 10.0, Mode::FailSilent).unwrap(),
            Task::implicit_deadline(3, 1.0, 10.0, Mode::NonFaultTolerant).unwrap(),
        ])
        .unwrap();
        assert!(primary_backup_schedulable(
            &tasks,
            Algorithm::EarliestDeadlineFirst
        ));
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(Scheme::ALL.len(), 4);
        assert!(Scheme::Flexible.respects_fault_modes());
        assert!(!Scheme::StaticParallel.respects_fault_modes());
        assert_eq!(Scheme::PrimaryBackup.label(), "primary-backup");
    }

    #[test]
    fn verdict_lookup_matches_fields() {
        let cmp = BaselineComparison {
            flexible: true,
            static_lockstep: false,
            static_parallel: true,
            primary_backup: false,
        };
        assert!(cmp.verdict(Scheme::Flexible));
        assert!(!cmp.verdict(Scheme::StaticLockstep));
        assert!(cmp.verdict(Scheme::StaticParallel));
        assert!(!cmp.verdict(Scheme::PrimaryBackup));
    }

    #[test]
    fn parallel_baseline_rejects_overloaded_workloads() {
        let tasks = TaskSet::new(
            (1..=5)
                .map(|i| Task::implicit_deadline(i, 9.0, 10.0, Mode::NonFaultTolerant).unwrap())
                .collect(),
        )
        .unwrap();
        // Five tasks of U=0.9 cannot fit on four processors.
        assert!(!static_parallel_schedulable(
            &tasks,
            Algorithm::EarliestDeadlineFirst
        ));
    }

    #[test]
    fn rm_baselines_are_no_more_permissive_than_edf() {
        let tasks = paper_taskset();
        for scheme_fn in [
            static_lockstep_schedulable,
            static_parallel_schedulable,
            primary_backup_schedulable,
        ] {
            let by_rm = scheme_fn(&tasks, Algorithm::RateMonotonic);
            let by_edf = scheme_fn(&tasks, Algorithm::EarliestDeadlineFirst);
            if by_rm {
                assert!(by_edf);
            }
        }
    }
}

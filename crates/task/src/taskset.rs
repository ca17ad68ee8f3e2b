//! Task sets: collections of sporadic tasks with the aggregate quantities
//! the analysis needs (utilisation, hyperperiod, priority order, per-mode
//! grouping).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::error::TaskModelError;
use crate::mode::{Mode, PerMode};
use crate::task::{Task, TaskId};
use crate::time::lcm;

/// How tasks are ordered when a fixed-priority scheduler is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PriorityOrder {
    /// Rate monotonic: shorter period ⇒ higher priority. This is the
    /// fixed-priority assignment used in the paper's example (§4).
    RateMonotonic,
    /// Deadline monotonic: shorter relative deadline ⇒ higher priority.
    /// Optimal for constrained-deadline fixed-priority scheduling.
    DeadlineMonotonic,
}

impl PriorityOrder {
    /// `Less` when `a` has the higher priority: the shorter period (RM)
    /// or relative deadline (DM), ties broken by task identifier.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite period or deadline, which a validated task
    /// never has.
    pub fn compare(self, a: &Task, b: &Task) -> std::cmp::Ordering {
        let (x, y) = match self {
            PriorityOrder::RateMonotonic => (a.period, b.period),
            PriorityOrder::DeadlineMonotonic => (a.deadline, b.deadline),
        };
        x.partial_cmp(&y)
            .expect("validated periods and deadlines are finite")
            .then(a.id.cmp(&b.id))
    }
}

/// An immutable, validated collection of sporadic tasks.
///
/// A `TaskSet` may mix tasks of different modes (the whole application) or
/// contain the tasks of a single mode or a single channel — the analysis
/// functions only care about the tasks it holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Builds a task set from a list of tasks, validating every task and
    /// rejecting duplicate identifiers.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn new(tasks: Vec<Task>) -> Result<TaskSet, TaskModelError> {
        if tasks.is_empty() {
            return Err(TaskModelError::EmptyTaskSet);
        }
        let mut seen = HashSet::with_capacity(tasks.len());
        for task in &tasks {
            task.validate()?;
            if !seen.insert(task.id) {
                return Err(TaskModelError::DuplicateTaskId { task: task.id });
            }
        }
        Ok(TaskSet { tasks })
    }

    /// Number of tasks in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the set holds no tasks. (Never true for a validated set, but
    /// kept for API completeness on derived/filtered sets.)
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Slice of the tasks, in insertion order.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Iterator over the tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Looks a task up by identifier.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Total utilisation `U(T) = Σ C_i / T_i`.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Total density `Σ C_i / D_i`.
    pub fn density(&self) -> f64 {
        self.tasks.iter().map(Task::density).sum()
    }

    /// Largest single-task utilisation in the set.
    pub fn max_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).fold(0.0, f64::max)
    }

    /// Hyperperiod of the set, i.e. the least common multiple of the task
    /// periods, expressed in paper time units.
    ///
    /// Periods are converted to exact tick counts before taking the LCM so
    /// that fractional periods (e.g. generated workloads) are handled
    /// consistently; the result saturates gracefully for pathological
    /// period combinations.
    pub fn hyperperiod(&self) -> f64 {
        let ticks = self.tasks.iter().map(Task::period_in_ticks).fold(1u64, lcm);
        ticks as f64 / crate::time::TICKS_PER_UNIT as f64
    }

    /// True if every task has an implicit deadline (`D_i = T_i`).
    pub fn all_implicit_deadlines(&self) -> bool {
        self.tasks.iter().all(Task::has_implicit_deadline)
    }

    /// A stable 64-bit hash of the set's scheduling-relevant content:
    /// each task's `(id, C_i, T_i, D_i, mode)` in set order, with the
    /// real-valued parameters hashed by IEEE-754 bit pattern (no
    /// tolerance games). Task names are deliberately excluded — two sets
    /// that schedule identically hash identically.
    ///
    /// The hash is FNV-1a over 64-bit words, fixed for all platforms, so
    /// it can key cross-process memo tables (the campaign engine's
    /// synthetic design cache keys on it). It is *not* collision-free:
    /// callers that must never confuse distinct sets should verify with
    /// `==` on a hit.
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |word: u64| {
            // FNV-1a over the word's bytes, little-endian.
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(self.tasks.len() as u64);
        for task in &self.tasks {
            mix(u64::from(task.id.0));
            mix(task.wcet.to_bits());
            mix(task.period.to_bits());
            mix(task.deadline.to_bits());
            mix(task.mode as u64);
        }
        hash
    }

    /// The subset of tasks requiring the given mode, preserving order.
    ///
    /// Returns `None` if no task requires that mode.
    pub fn tasks_in_mode(&self, mode: Mode) -> Option<TaskSet> {
        let tasks: Vec<Task> = self
            .tasks
            .iter()
            .filter(|t| t.mode == mode)
            .cloned()
            .collect();
        if tasks.is_empty() {
            None
        } else {
            Some(TaskSet { tasks })
        }
    }

    /// Splits the set into the three per-mode subsets `T_FT`, `T_FS`,
    /// `T_NF` (§2.3). Modes with no tasks map to `None`.
    pub fn split_by_mode(&self) -> PerMode<Option<TaskSet>> {
        PerMode::from_fn(|mode| self.tasks_in_mode(mode))
    }

    /// Utilisation of the subset of tasks requiring `mode` (0 if none).
    pub fn mode_utilization(&self, mode: Mode) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.mode == mode)
            .map(Task::utilization)
            .sum()
    }

    /// A copy of the tasks sorted by the given fixed-priority order,
    /// highest priority first. Ties are broken by task identifier so the
    /// order is deterministic.
    pub fn sorted_by_priority(&self, order: PriorityOrder) -> Vec<Task> {
        let mut sorted = self.tasks.clone();
        sorted.sort_by(|a, b| order.compare(a, b));
        sorted
    }

    /// A new task set holding only the tasks whose identifiers are in
    /// `ids`, in the order given by `ids`.
    ///
    /// # Errors
    ///
    /// Returns [`TaskModelError::UnknownTask`] if an identifier is not part
    /// of this set, or [`TaskModelError::EmptyTaskSet`] if `ids` is empty.
    pub fn subset(&self, ids: &[TaskId]) -> Result<TaskSet, TaskModelError> {
        if ids.is_empty() {
            return Err(TaskModelError::EmptyTaskSet);
        }
        let mut tasks = Vec::with_capacity(ids.len());
        for &id in ids {
            let task = self
                .get(id)
                .ok_or(TaskModelError::UnknownTask { task: id })?;
            tasks.push(task.clone());
        }
        TaskSet::new(tasks)
    }

    /// All task identifiers in insertion order.
    pub fn ids(&self) -> Vec<TaskId> {
        self.tasks.iter().map(|t| t.id).collect()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskBuilder;

    fn task(id: u32, c: f64, t: f64, mode: Mode) -> Task {
        Task::implicit_deadline(id, c, t, mode).unwrap()
    }

    fn sample_set() -> TaskSet {
        TaskSet::new(vec![
            task(1, 1.0, 6.0, Mode::NonFaultTolerant),
            task(2, 1.0, 8.0, Mode::NonFaultTolerant),
            task(9, 1.0, 4.0, Mode::FailSilent),
            task(10, 1.0, 12.0, Mode::FaultTolerant),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_sets() {
        assert!(matches!(
            TaskSet::new(vec![]),
            Err(TaskModelError::EmptyTaskSet)
        ));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let err = TaskSet::new(vec![
            task(1, 1.0, 6.0, Mode::NonFaultTolerant),
            task(1, 1.0, 8.0, Mode::NonFaultTolerant),
        ])
        .unwrap_err();
        assert!(matches!(err, TaskModelError::DuplicateTaskId { .. }));
    }

    #[test]
    fn rejects_invalid_member_tasks() {
        let bad = Task {
            id: TaskId(1),
            name: "bad".into(),
            wcet: 2.0,
            period: 1.0,
            deadline: 1.0,
            mode: Mode::NonFaultTolerant,
        };
        let err = TaskSet::new(vec![bad]).unwrap_err();
        assert!(matches!(err, TaskModelError::WcetExceedsDeadline { .. }));
    }

    #[test]
    fn content_hash_keys_on_scheduling_parameters_only() {
        let set = sample_set();
        assert_eq!(set.content_hash(), sample_set().content_hash());
        // Renaming a task does not change the hash...
        let mut renamed = set.tasks().to_vec();
        renamed[0].name = "rebadged".into();
        let renamed = TaskSet::new(renamed).unwrap();
        assert_eq!(renamed.content_hash(), set.content_hash());
        // ...but changing any scheduling parameter, the mode, the id or
        // the task order does.
        let shorter = TaskSet::new(vec![
            task(1, 1.0, 6.0, Mode::NonFaultTolerant),
            task(2, 1.0, 8.0, Mode::NonFaultTolerant),
            task(9, 0.5, 4.0, Mode::FailSilent),
            task(10, 1.0, 12.0, Mode::FaultTolerant),
        ])
        .unwrap();
        assert_ne!(shorter.content_hash(), set.content_hash());
        let remoded = TaskSet::new(vec![
            task(1, 1.0, 6.0, Mode::FailSilent),
            task(2, 1.0, 8.0, Mode::NonFaultTolerant),
            task(9, 1.0, 4.0, Mode::FailSilent),
            task(10, 1.0, 12.0, Mode::FaultTolerant),
        ])
        .unwrap();
        assert_ne!(remoded.content_hash(), set.content_hash());
        let mut reordered = set.tasks().to_vec();
        reordered.swap(0, 1);
        let reordered = TaskSet::new(reordered).unwrap();
        assert_ne!(reordered.content_hash(), set.content_hash());
    }

    #[test]
    fn utilization_sums_members() {
        let set = sample_set();
        let expected = 1.0 / 6.0 + 1.0 / 8.0 + 0.25 + 1.0 / 12.0;
        assert!((set.utilization() - expected).abs() < 1e-12);
        assert!((set.max_utilization() - 0.25).abs() < 1e-12);
        assert_eq!(set.density(), set.utilization());
    }

    #[test]
    fn hyperperiod_of_integer_periods() {
        let set = sample_set();
        // lcm(6, 8, 4, 12) = 24
        assert!((set.hyperperiod() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn hyperperiod_handles_fractional_periods() {
        let set = TaskSet::new(vec![
            task(1, 0.1, 0.5, Mode::NonFaultTolerant),
            task(2, 0.1, 0.75, Mode::NonFaultTolerant),
        ])
        .unwrap();
        assert!((set.hyperperiod() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn split_by_mode_partitions_the_set() {
        let set = sample_set();
        let split = set.split_by_mode();
        assert_eq!(split.nf.as_ref().unwrap().len(), 2);
        assert_eq!(split.fs.as_ref().unwrap().len(), 1);
        assert_eq!(split.ft.as_ref().unwrap().len(), 1);
        let total: usize = Mode::ALL
            .iter()
            .map(|&m| split.get(m).as_ref().map_or(0, TaskSet::len))
            .sum();
        assert_eq!(total, set.len());
    }

    #[test]
    fn tasks_in_mode_returns_none_when_absent() {
        let set = TaskSet::new(vec![task(1, 1.0, 6.0, Mode::NonFaultTolerant)]).unwrap();
        assert!(set.tasks_in_mode(Mode::FaultTolerant).is_none());
    }

    #[test]
    fn mode_utilization_matches_split() {
        let set = sample_set();
        for mode in Mode::ALL {
            let direct = set.mode_utilization(mode);
            let via_split = set
                .tasks_in_mode(mode)
                .map(|s| s.utilization())
                .unwrap_or(0.0);
            assert!((direct - via_split).abs() < 1e-12);
        }
    }

    #[test]
    fn rm_priority_order_sorts_by_period() {
        let set = sample_set();
        let sorted = set.sorted_by_priority(PriorityOrder::RateMonotonic);
        let periods: Vec<f64> = sorted.iter().map(|t| t.period).collect();
        assert_eq!(periods, vec![4.0, 6.0, 8.0, 12.0]);
    }

    #[test]
    fn dm_priority_order_sorts_by_deadline() {
        let set = TaskSet::new(vec![
            Task::constrained_deadline(1, 1.0, 10.0, 3.0, Mode::NonFaultTolerant).unwrap(),
            Task::constrained_deadline(2, 1.0, 5.0, 5.0, Mode::NonFaultTolerant).unwrap(),
        ])
        .unwrap();
        let dm = set.sorted_by_priority(PriorityOrder::DeadlineMonotonic);
        assert_eq!(dm[0].id, TaskId(1));
        let rm = set.sorted_by_priority(PriorityOrder::RateMonotonic);
        assert_eq!(rm[0].id, TaskId(2));
    }

    #[test]
    fn priority_ties_break_by_id() {
        let set = TaskSet::new(vec![
            task(7, 1.0, 10.0, Mode::NonFaultTolerant),
            task(3, 1.0, 10.0, Mode::NonFaultTolerant),
        ])
        .unwrap();
        let sorted = set.sorted_by_priority(PriorityOrder::RateMonotonic);
        assert_eq!(sorted[0].id, TaskId(3));
    }

    #[test]
    fn subset_selects_and_orders_by_ids() {
        let set = sample_set();
        let sub = set.subset(&[TaskId(9), TaskId(1)]).unwrap();
        assert_eq!(sub.ids(), vec![TaskId(9), TaskId(1)]);
        assert!(matches!(
            set.subset(&[TaskId(99)]),
            Err(TaskModelError::UnknownTask { .. })
        ));
        assert!(matches!(set.subset(&[]), Err(TaskModelError::EmptyTaskSet)));
    }

    #[test]
    fn get_finds_tasks_by_id() {
        let set = sample_set();
        assert_eq!(set.get(TaskId(9)).unwrap().mode, Mode::FailSilent);
        assert!(set.get(TaskId(42)).is_none());
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let set = sample_set();
        let ids: Vec<u32> = (&set).into_iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 2, 9, 10]);
    }

    #[test]
    fn all_implicit_deadlines_detects_constrained_tasks() {
        let mut tasks = sample_set().tasks().to_vec();
        assert!(TaskSet::new(tasks.clone())
            .unwrap()
            .all_implicit_deadlines());
        tasks.push(
            TaskBuilder::new(20)
                .wcet(1.0)
                .period(10.0)
                .deadline(5.0)
                .mode(Mode::NonFaultTolerant)
                .build()
                .unwrap(),
        );
        assert!(!TaskSet::new(tasks).unwrap().all_implicit_deadlines());
    }

    #[test]
    fn serde_round_trip() {
        let set = sample_set();
        let json = serde_json::to_string(&set).unwrap();
        let back: TaskSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }
}

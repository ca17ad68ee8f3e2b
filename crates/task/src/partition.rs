//! Static partitions of tasks onto the channels of each operating mode.
//!
//! The paper adopts partitioned scheduling (§3): during NF mode the NF tasks
//! are split into four per-processor subsets `T_NF^1 … T_NF^4`, during FS
//! mode the FS tasks are split into two per-channel subsets
//! `T_FS^1, T_FS^2`, and during FT mode all FT tasks run on the single
//! fault-tolerant channel. [`ModePartition`] represents one mode's
//! assignment and [`SystemPartition`] the whole application's.

use serde::{Deserialize, Serialize};

use crate::error::TaskModelError;
use crate::mode::{Mode, PerMode};
use crate::task::TaskId;
use crate::taskset::TaskSet;

/// Assignment of one mode's tasks to that mode's logical channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModePartition {
    mode: Mode,
    /// `channels[i]` is the set of task ids assigned to channel `i`.
    channels: Vec<Vec<TaskId>>,
}

impl ModePartition {
    /// Creates a partition for `mode` from explicit per-channel id lists.
    ///
    /// Channels may be fewer than the mode provides (unused channels stay
    /// idle) but never more.
    ///
    /// # Errors
    ///
    /// Returns [`TaskModelError::TooManyChannels`] if more channels are
    /// supplied than the mode offers, or
    /// [`TaskModelError::TaskAssignedTwice`] if a task id appears twice.
    pub fn new(mode: Mode, channels: Vec<Vec<TaskId>>) -> Result<Self, TaskModelError> {
        if channels.len() > mode.channels() {
            return Err(TaskModelError::TooManyChannels {
                mode,
                used: channels.len(),
                available: mode.channels(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for channel in &channels {
            for &id in channel {
                if !seen.insert(id) {
                    return Err(TaskModelError::TaskAssignedTwice { task: id });
                }
            }
        }
        Ok(ModePartition { mode, channels })
    }

    /// Creates an empty partition (no channels used) for `mode`.
    pub fn empty(mode: Mode) -> Self {
        ModePartition {
            mode,
            channels: Vec::new(),
        }
    }

    /// The mode this partition belongs to.
    #[inline]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The per-channel id lists.
    #[inline]
    pub fn channels(&self) -> &[Vec<TaskId>] {
        &self.channels
    }

    /// Number of channels actually used (non-empty or explicitly listed).
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// All task ids assigned by this partition, in channel order.
    pub fn assigned_ids(&self) -> Vec<TaskId> {
        self.channels.iter().flatten().copied().collect()
    }

    /// Materialises the per-channel task sets from the full task set.
    ///
    /// Empty channels are skipped (they impose no constraint on the slot
    /// length).
    ///
    /// # Errors
    ///
    /// Propagates unknown-task errors from [`TaskSet::subset`].
    pub fn channel_task_sets(&self, tasks: &TaskSet) -> Result<Vec<TaskSet>, TaskModelError> {
        let mut sets = Vec::with_capacity(self.channels.len());
        for channel in &self.channels {
            if channel.is_empty() {
                continue;
            }
            sets.push(tasks.subset(channel)?);
        }
        Ok(sets)
    }

    /// Validates the partition against the full application task set:
    /// every referenced task must exist, require this mode, and every task
    /// of this mode in `tasks` must be assigned to exactly one channel.
    pub fn validate(&self, tasks: &TaskSet) -> Result<(), TaskModelError> {
        for &id in self.channels.iter().flatten() {
            let task = tasks
                .get(id)
                .ok_or(TaskModelError::UnknownTask { task: id })?;
            if task.mode != self.mode {
                return Err(TaskModelError::ModeMismatch {
                    task: id,
                    expected: task.mode,
                    found: self.mode,
                });
            }
        }
        let assigned: std::collections::HashSet<TaskId> = self.assigned_ids().into_iter().collect();
        for task in tasks.iter().filter(|t| t.mode == self.mode) {
            if !assigned.contains(&task.id) {
                return Err(TaskModelError::TaskNotAssigned {
                    task: task.id,
                    mode: self.mode,
                });
            }
        }
        Ok(())
    }

    /// Largest per-channel utilisation of this partition
    /// (`max_i U(T_k^i)`), the quantity the necessary bandwidth condition
    /// of §4 compares against `Q̃_k / P`.
    pub fn max_channel_utilization(&self, tasks: &TaskSet) -> Result<f64, TaskModelError> {
        let sets = self.channel_task_sets(tasks)?;
        Ok(sets.iter().map(TaskSet::utilization).fold(0.0, f64::max))
    }
}

/// The application-wide partition: one [`ModePartition`] per operating mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemPartition {
    /// Per-mode channel assignments.
    pub modes: PerMode<ModePartition>,
}

impl SystemPartition {
    /// Builds a system partition from the three per-mode partitions.
    pub fn new(ft: ModePartition, fs: ModePartition, nf: ModePartition) -> Self {
        SystemPartition {
            modes: PerMode { ft, fs, nf },
        }
    }

    /// The partition of the given mode.
    pub fn mode(&self, mode: Mode) -> &ModePartition {
        self.modes.get(mode)
    }

    /// Validates every per-mode partition against the application task set.
    pub fn validate(&self, tasks: &TaskSet) -> Result<(), TaskModelError> {
        for mode in Mode::ALL {
            self.modes.get(mode).validate(tasks)?;
        }
        Ok(())
    }

    /// Per-mode, per-channel task sets.
    pub fn channel_task_sets(
        &self,
        tasks: &TaskSet,
    ) -> Result<PerMode<Vec<TaskSet>>, TaskModelError> {
        let ft = self.modes.ft.channel_task_sets(tasks)?;
        let fs = self.modes.fs.channel_task_sets(tasks)?;
        let nf = self.modes.nf.channel_task_sets(tasks)?;
        Ok(PerMode { ft, fs, nf })
    }

    /// Per-mode maximum channel utilisation.
    pub fn max_channel_utilizations(
        &self,
        tasks: &TaskSet,
    ) -> Result<PerMode<f64>, TaskModelError> {
        Ok(PerMode {
            ft: self.modes.ft.max_channel_utilization(tasks)?,
            fs: self.modes.fs.max_channel_utilization(tasks)?,
            nf: self.modes.nf.max_channel_utilization(tasks)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn task(id: u32, c: f64, t: f64, mode: Mode) -> Task {
        Task::implicit_deadline(id, c, t, mode).unwrap()
    }

    fn mixed_set() -> TaskSet {
        TaskSet::new(vec![
            task(1, 1.0, 6.0, Mode::NonFaultTolerant),
            task(2, 1.0, 8.0, Mode::NonFaultTolerant),
            task(3, 1.0, 12.0, Mode::NonFaultTolerant),
            task(6, 1.0, 10.0, Mode::FailSilent),
            task(9, 1.0, 4.0, Mode::FailSilent),
            task(10, 1.0, 12.0, Mode::FaultTolerant),
        ])
        .unwrap()
    }

    fn id(v: u32) -> TaskId {
        TaskId(v)
    }

    #[test]
    fn partition_rejects_too_many_channels() {
        let err = ModePartition::new(Mode::FailSilent, vec![vec![id(6)], vec![id(9)], vec![]])
            .unwrap_err();
        assert!(matches!(
            err,
            TaskModelError::TooManyChannels {
                used: 3,
                available: 2,
                ..
            }
        ));
    }

    #[test]
    fn partition_rejects_double_assignment() {
        let err = ModePartition::new(Mode::FailSilent, vec![vec![id(6)], vec![id(6)]]).unwrap_err();
        assert!(matches!(err, TaskModelError::TaskAssignedTwice { .. }));
    }

    #[test]
    fn validate_detects_unknown_tasks() {
        let set = mixed_set();
        let part = ModePartition::new(Mode::FailSilent, vec![vec![id(6)], vec![id(99)]]).unwrap();
        assert!(matches!(
            part.validate(&set),
            Err(TaskModelError::UnknownTask { .. })
        ));
    }

    #[test]
    fn validate_detects_mode_mismatch() {
        let set = mixed_set();
        let part =
            ModePartition::new(Mode::FailSilent, vec![vec![id(6), id(1)], vec![id(9)]]).unwrap();
        assert!(matches!(
            part.validate(&set),
            Err(TaskModelError::ModeMismatch { .. })
        ));
    }

    #[test]
    fn validate_detects_unassigned_tasks() {
        let set = mixed_set();
        let part = ModePartition::new(Mode::FailSilent, vec![vec![id(6)]]).unwrap();
        assert!(matches!(
            part.validate(&set),
            Err(TaskModelError::TaskNotAssigned { .. })
        ));
    }

    #[test]
    fn valid_partition_passes_validation() {
        let set = mixed_set();
        let part = ModePartition::new(Mode::FailSilent, vec![vec![id(6)], vec![id(9)]]).unwrap();
        part.validate(&set).unwrap();
    }

    #[test]
    fn channel_task_sets_skip_empty_channels() {
        let set = mixed_set();
        let part = ModePartition::new(
            Mode::NonFaultTolerant,
            vec![vec![id(1)], vec![], vec![id(2), id(3)]],
        )
        .unwrap();
        let sets = part.channel_task_sets(&set).unwrap();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[1].len(), 2);
    }

    #[test]
    fn max_channel_utilization_takes_the_max() {
        let set = mixed_set();
        let part = ModePartition::new(
            Mode::NonFaultTolerant,
            vec![vec![id(1)], vec![id(2), id(3)]],
        )
        .unwrap();
        let max_u = part.max_channel_utilization(&set).unwrap();
        let expected: f64 = 1.0 / 8.0 + 1.0 / 12.0; // channel {τ2, τ3}
        assert!((max_u - expected.max(1.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn system_partition_validates_all_modes() {
        let set = mixed_set();
        let sys = SystemPartition::new(
            ModePartition::new(Mode::FaultTolerant, vec![vec![id(10)]]).unwrap(),
            ModePartition::new(Mode::FailSilent, vec![vec![id(6)], vec![id(9)]]).unwrap(),
            ModePartition::new(
                Mode::NonFaultTolerant,
                vec![vec![id(1)], vec![id(2), id(3)]],
            )
            .unwrap(),
        );
        sys.validate(&set).unwrap();
        let per_mode = sys.channel_task_sets(&set).unwrap();
        assert_eq!(per_mode.ft.len(), 1);
        assert_eq!(per_mode.fs.len(), 2);
        assert_eq!(per_mode.nf.len(), 2);
        let max_u = sys.max_channel_utilizations(&set).unwrap();
        assert!(max_u.fs >= 0.25);
    }

    #[test]
    fn empty_partition_has_no_channels() {
        let p = ModePartition::empty(Mode::FaultTolerant);
        assert_eq!(p.channel_count(), 0);
        assert!(p.assigned_ids().is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let part = ModePartition::new(Mode::FailSilent, vec![vec![id(6)], vec![id(9)]]).unwrap();
        let json = serde_json::to_string(&part).unwrap();
        let back: ModePartition = serde_json::from_str(&json).unwrap();
        assert_eq!(back, part);
    }
}

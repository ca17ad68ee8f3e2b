//! Execution traces: what ran where and how every job ended.

use serde::{Deserialize, Serialize};

use ftsched_platform::JobOutcome;
use ftsched_task::{Duration, Mode, TaskId, Time};

use crate::job::JobId;

/// A contiguous interval during which one job executed on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionSlice {
    /// The executing job.
    pub job: JobId,
    /// The mode the channel belongs to.
    pub mode: Mode,
    /// The channel index inside the mode.
    pub channel: usize,
    /// Start of the slice.
    pub start: Time,
    /// End of the slice (exclusive).
    pub end: Time,
}

impl ExecutionSlice {
    /// Length of the slice.
    pub fn length(&self) -> Duration {
        self.end - self.start
    }
}

/// The complete record of one job's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job.
    pub job: JobId,
    /// The mode of the channel it ran on.
    pub mode: Mode,
    /// The channel index inside the mode.
    pub channel: usize,
    /// Release instant.
    pub release: Time,
    /// Absolute deadline.
    pub deadline: Time,
    /// Completion instant, or `None` if the job never finished inside the
    /// simulated horizon.
    pub completion: Option<Time>,
    /// Whether the deadline was met (unfinished jobs count as misses only
    /// if their deadline lies inside the horizon).
    pub deadline_met: bool,
    /// Fault classification of the job's result.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Response time (completion − release), if the job completed.
    pub fn response_time(&self) -> Option<Duration> {
        self.completion.map(|c| c.saturating_since(self.release))
    }
}

/// The full trace of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Execution slices in chronological order per channel.
    pub slices: Vec<ExecutionSlice>,
    /// One record per job released inside the horizon.
    pub jobs: Vec<JobRecord>,
}

impl Trace {
    /// All records of one task.
    pub fn records_of(&self, task: TaskId) -> Vec<&JobRecord> {
        self.jobs.iter().filter(|r| r.job.task == task).collect()
    }

    /// The worst observed response time of a task, if any of its jobs
    /// completed.
    pub fn worst_response_time(&self, task: TaskId) -> Option<Duration> {
        self.records_of(task)
            .iter()
            .filter_map(|r| r.response_time())
            .max()
    }

    /// True if no two slices of the same channel overlap (a basic sanity
    /// invariant of the generated schedule).
    pub fn slices_are_disjoint_per_channel(&self) -> bool {
        let mut per_channel: std::collections::HashMap<(Mode, usize), Vec<&ExecutionSlice>> =
            std::collections::HashMap::new();
        for slice in &self.slices {
            per_channel
                .entry((slice.mode, slice.channel))
                .or_default()
                .push(slice);
        }
        for slices in per_channel.values_mut() {
            slices.sort_by_key(|s| s.start);
            for pair in slices.windows(2) {
                if pair[1].start < pair[0].end {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(task: u32, channel: usize, start: f64, end: f64) -> ExecutionSlice {
        ExecutionSlice {
            job: JobId {
                task: TaskId(task),
                activation: 0,
            },
            mode: Mode::NonFaultTolerant,
            channel,
            start: Time::from_units(start),
            end: Time::from_units(end),
        }
    }

    #[test]
    fn slice_length() {
        assert!((slice(1, 0, 1.0, 2.5).length().as_units() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn job_record_response_time() {
        let r = JobRecord {
            job: JobId {
                task: TaskId(1),
                activation: 0,
            },
            mode: Mode::FaultTolerant,
            channel: 0,
            release: Time::from_units(4.0),
            deadline: Time::from_units(10.0),
            completion: Some(Time::from_units(7.5)),
            deadline_met: true,
            outcome: JobOutcome::CorrectNoFault,
        };
        assert!((r.response_time().unwrap().as_units() - 3.5).abs() < 1e-9);
        let unfinished = JobRecord {
            completion: None,
            ..r
        };
        assert!(unfinished.response_time().is_none());
    }

    #[test]
    fn disjointness_check_detects_overlaps() {
        let mut trace = Trace::default();
        trace.slices.push(slice(1, 0, 0.0, 1.0));
        trace.slices.push(slice(2, 0, 1.0, 2.0));
        trace.slices.push(slice(3, 1, 0.5, 1.5)); // other channel, fine
        assert!(trace.slices_are_disjoint_per_channel());
        trace.slices.push(slice(4, 0, 0.5, 0.9));
        assert!(!trace.slices_are_disjoint_per_channel());
    }
}

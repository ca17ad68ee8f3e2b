//! Aggregated results of a simulation run.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use ftsched_platform::JobOutcome;
use ftsched_task::{Duration, Mode, PerMode, TaskId, TaskSet};

use crate::trace::Trace;

/// Counters of job outcomes with respect to faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Jobs untouched by any fault.
    pub correct_no_fault: u64,
    /// Jobs whose fault was masked by the FT channel.
    pub correct_masked: u64,
    /// Jobs silenced by the FS comparator (result lost, nothing wrong
    /// propagated).
    pub silenced_lost: u64,
    /// Jobs that may have committed a wrong result (NF mode under fault).
    pub wrong_result: u64,
}

impl OutcomeCounts {
    /// Adds one outcome to the counters.
    pub fn record(&mut self, outcome: JobOutcome) {
        self.add(outcome, 1);
    }

    /// Adds `n` jobs of one outcome to the counters.
    pub fn add(&mut self, outcome: JobOutcome, n: u64) {
        match outcome {
            JobOutcome::CorrectNoFault => self.correct_no_fault += n,
            JobOutcome::CorrectMasked => self.correct_masked += n,
            JobOutcome::SilencedLost => self.silenced_lost += n,
            JobOutcome::WrongResult => self.wrong_result += n,
        }
    }

    /// Total number of classified jobs.
    pub fn total(&self) -> u64 {
        self.correct_no_fault + self.correct_masked + self.silenced_lost + self.wrong_result
    }
}

/// The aggregated result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Length of the simulated interval, in paper time units.
    pub horizon: f64,
    /// Number of jobs released inside the horizon.
    pub released_jobs: u64,
    /// Number of jobs that completed inside the horizon.
    pub completed_jobs: u64,
    /// Number of jobs that missed their deadline.
    pub deadline_misses: u64,
    /// Per-mode outcome counters.
    pub outcomes: PerMode<OutcomeCounts>,
    /// Worst observed response time per task (completed jobs only), in
    /// paper time units.
    pub worst_response_times: HashMap<TaskId, f64>,
    /// Every completed job's response time, grouped per task in task-id
    /// order — only recorded when
    /// [`SimulationConfig::record_response_times`](crate::SimulationConfig)
    /// is set (campaign response-time histograms feed on this). Within a
    /// task, times appear in job-completion record order, which is
    /// deterministic.
    pub response_times: Option<BTreeMap<TaskId, Vec<f64>>>,
    /// Busy (executed) time per mode, in paper time units.
    pub executed_time: PerMode<f64>,
    /// Number of faults that overlapped at least one job.
    pub effective_faults: u64,
    /// The full trace, if recording was enabled.
    pub trace: Option<Trace>,
}

impl SimulationReport {
    /// True if every released job with a deadline inside the horizon met
    /// it.
    pub fn all_deadlines_met(&self) -> bool {
        self.deadline_misses == 0
    }

    /// True if no job may have committed a wrong result (memory integrity
    /// preserved from the application's point of view).
    pub fn integrity_preserved(&self) -> bool {
        Mode::ALL
            .iter()
            .all(|&m| self.outcomes[m].wrong_result == 0)
    }

    /// Total outcome counters over all modes.
    pub fn total_outcomes(&self) -> OutcomeCounts {
        let mut total = OutcomeCounts::default();
        for mode in Mode::ALL {
            let o = self.outcomes[mode];
            total.correct_no_fault += o.correct_no_fault;
            total.correct_masked += o.correct_masked;
            total.silenced_lost += o.silenced_lost;
            total.wrong_result += o.wrong_result;
        }
        total
    }

    /// Worst observed response time of one task, if it completed any job.
    pub fn worst_response_time(&self, task: TaskId) -> Option<Duration> {
        self.worst_response_times
            .get(&task)
            .map(|&rt| Duration::from_units(rt))
    }

    /// Deadline-relative view of [`Self::response_times`]: every recorded
    /// response time divided by its task's relative deadline `D_i`, so
    /// `1.0` means "completed exactly at the deadline" whatever the
    /// task's period. This is the normalisation that makes latency
    /// distributions comparable — and poolable — across tasks and across
    /// workloads with different period ranges; the campaign engine's
    /// latency-vs-load curves feed on it.
    ///
    /// Returns `None` when response times were not recorded
    /// ([`SimulationConfig::record_response_times`](crate::SimulationConfig)
    /// off). Tasks unknown to `tasks` are skipped — they cannot appear in
    /// a report simulated from that set.
    pub fn normalized_response_times(&self, tasks: &TaskSet) -> Option<BTreeMap<TaskId, Vec<f64>>> {
        let recorded = self.response_times.as_ref()?;
        let mut out = BTreeMap::new();
        for (&task, times) in recorded {
            let Some(deadline) = tasks.get(task).map(|t| t.deadline) else {
                continue;
            };
            // Deadlines are validated positive by the task model, so the
            // division is always well-defined.
            out.insert(task, times.iter().map(|&rt| rt / deadline).collect());
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counters_accumulate() {
        let mut c = OutcomeCounts::default();
        c.record(JobOutcome::CorrectNoFault);
        c.record(JobOutcome::CorrectMasked);
        c.record(JobOutcome::CorrectMasked);
        c.record(JobOutcome::SilencedLost);
        c.record(JobOutcome::WrongResult);
        assert_eq!(c.total(), 5);
        assert_eq!(c.correct_masked, 2);
        assert_eq!(c.silenced_lost, 1);
        assert_eq!(c.wrong_result, 1);
    }

    #[test]
    fn report_predicates() {
        let mut outcomes = PerMode::splat(OutcomeCounts::default());
        outcomes[Mode::NonFaultTolerant].wrong_result = 2;
        let report = SimulationReport {
            horizon: 100.0,
            released_jobs: 10,
            completed_jobs: 9,
            deadline_misses: 0,
            outcomes,
            worst_response_times: HashMap::new(),
            response_times: None,
            executed_time: PerMode::splat(0.0),
            effective_faults: 2,
            trace: None,
        };
        assert!(report.all_deadlines_met());
        assert!(!report.integrity_preserved());
        assert_eq!(report.total_outcomes().wrong_result, 2);
        assert!(report.worst_response_time(TaskId(1)).is_none());
    }

    #[test]
    fn response_times_normalize_by_relative_deadline() {
        use ftsched_task::{Mode, Task};

        let tasks = TaskSet::new(vec![
            Task::implicit_deadline(1, 1.0, 4.0, Mode::FaultTolerant).unwrap(),
            Task::implicit_deadline(2, 2.0, 10.0, Mode::NonFaultTolerant).unwrap(),
        ])
        .unwrap();
        let mut recorded = BTreeMap::new();
        recorded.insert(TaskId(1), vec![1.0, 4.0]);
        recorded.insert(TaskId(2), vec![5.0]);
        let report = SimulationReport {
            horizon: 20.0,
            released_jobs: 3,
            completed_jobs: 3,
            deadline_misses: 0,
            outcomes: PerMode::splat(OutcomeCounts::default()),
            worst_response_times: HashMap::new(),
            response_times: Some(recorded),
            executed_time: PerMode::splat(0.0),
            effective_faults: 0,
            trace: None,
        };
        let normalized = report.normalized_response_times(&tasks).unwrap();
        assert_eq!(normalized[&TaskId(1)], vec![0.25, 1.0]);
        assert_eq!(normalized[&TaskId(2)], vec![0.5]);

        // Unrecorded runs normalise to nothing at all.
        let bare = SimulationReport {
            response_times: None,
            ..report
        };
        assert!(bare.normalized_response_times(&tasks).is_none());
    }
}

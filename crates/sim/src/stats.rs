//! Response-time statistics of a trace.
//!
//! The raw [`crate::trace::Trace`] holds every execution slice and job
//! record; this module condenses it into the per-task statistics an
//! evaluation section typically reports (worst / average response time,
//! normalised by period or deadline, miss counts).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use ftsched_task::{TaskId, TaskSet};

use crate::trace::Trace;

/// Per-task response-time statistics extracted from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskStats {
    /// The task.
    pub task: TaskId,
    /// Number of jobs of this task released in the trace.
    pub jobs: u64,
    /// Number of completed jobs.
    pub completed: u64,
    /// Number of deadline misses.
    pub misses: u64,
    /// Worst observed response time (completed jobs), in time units.
    pub worst_response: f64,
    /// Mean observed response time (completed jobs), in time units.
    pub mean_response: f64,
    /// Worst response time divided by the relative deadline (≤ 1 means all
    /// observed jobs met the deadline with margin).
    pub normalized_worst: f64,
}

/// Computes per-task statistics from a trace. Tasks without any record are
/// omitted.
pub fn per_task_stats(trace: &Trace, tasks: &TaskSet) -> Vec<TaskStats> {
    let mut grouped: BTreeMap<TaskId, Vec<&crate::trace::JobRecord>> = BTreeMap::new();
    for record in &trace.jobs {
        grouped.entry(record.job.task).or_default().push(record);
    }
    grouped
        .into_iter()
        .filter_map(|(task_id, records)| {
            let task = tasks.get(task_id)?;
            let jobs = records.len() as u64;
            let misses = records.iter().filter(|r| !r.deadline_met).count() as u64;
            let response_times: Vec<f64> = records
                .iter()
                .filter_map(|r| r.response_time())
                .map(|d| d.as_units())
                .collect();
            let completed = response_times.len() as u64;
            let worst = response_times.iter().copied().fold(0.0, f64::max);
            let mean = if response_times.is_empty() {
                0.0
            } else {
                response_times.iter().sum::<f64>() / response_times.len() as f64
            };
            Some(TaskStats {
                task: task_id,
                jobs,
                completed,
                misses,
                worst_response: worst,
                mean_response: mean,
                normalized_worst: worst / task.deadline,
            })
        })
        .collect()
}

/// Renders per-task statistics as an aligned text table.
pub fn render_stats_table(stats: &[TaskStats]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>6} {:>10} {:>8} {:>12} {:>12} {:>10}",
        "task", "jobs", "completed", "misses", "worst RT", "mean RT", "RT/D"
    );
    for s in stats {
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>10} {:>8} {:>12.3} {:>12.3} {:>10.3}",
            format!("τ{}", s.task.0),
            s.jobs,
            s.completed,
            s.misses,
            s.worst_response,
            s.mean_response,
            s.normalized_worst
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimulationConfig};
    use crate::slot::SlotSchedule;
    use ftsched_analysis::Algorithm;
    use ftsched_task::examples::{paper_example, PAPER_TOTAL_OVERHEAD};
    use ftsched_task::{Mode, PerMode};

    fn run_paper_simulation() -> (TaskSet, Trace) {
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
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &slots,
            &SimulationConfig::fault_free(120.0),
        )
        .unwrap();
        (tasks, report.trace.unwrap())
    }

    #[test]
    fn stats_cover_all_13_tasks_and_meet_deadlines() {
        let (tasks, trace) = run_paper_simulation();
        let stats = per_task_stats(&trace, &tasks);
        assert_eq!(stats.len(), 13);
        for s in &stats {
            assert_eq!(s.misses, 0, "{:?}", s.task);
            assert!(s.jobs >= 4, "{:?} released only {} jobs", s.task, s.jobs);
            assert!(s.completed <= s.jobs);
            assert!(s.mean_response <= s.worst_response + 1e-9);
            assert!(s.normalized_worst <= 1.0 + 1e-9);
            assert!(s.worst_response > 0.0);
        }
    }

    #[test]
    fn stats_table_lists_every_task_once() {
        let (tasks, trace) = run_paper_simulation();
        let stats = per_task_stats(&trace, &tasks);
        let table = render_stats_table(&stats);
        assert_eq!(table.lines().count(), 14); // header + 13 rows
        assert!(table.contains("τ9"));
        assert!(table.contains("τ13"));
    }

    #[test]
    fn empty_trace_yields_no_stats() {
        let (tasks, _) = run_paper_simulation();
        let stats = per_task_stats(&Trace::default(), &tasks);
        assert!(stats.is_empty());
    }

    #[test]
    fn stats_reflect_modes_of_the_partition() {
        let (tasks, trace) = run_paper_simulation();
        // Every record's mode matches the task's required mode.
        for record in &trace.jobs {
            let task = tasks.get(record.job.task).unwrap();
            assert_eq!(record.mode, task.mode);
        }
        // And the FS task with the shortest period (τ9, T = 4) has the most
        // jobs among FS tasks.
        let stats = per_task_stats(&trace, &tasks);
        let fs_jobs: Vec<(u32, u64)> = stats
            .iter()
            .filter(|s| tasks.get(s.task).unwrap().mode == Mode::FailSilent)
            .map(|s| (s.task.0, s.jobs))
            .collect();
        let max = fs_jobs.iter().max_by_key(|(_, j)| *j).unwrap();
        assert_eq!(max.0, 9);
    }
}

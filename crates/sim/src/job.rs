//! Job instances: one activation of a sporadic task.

use serde::{Deserialize, Serialize};

use ftsched_task::{Duration, Task, TaskId, Time};

/// Identifier of a job: the task plus the activation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId {
    /// The task this job belongs to.
    pub task: TaskId,
    /// Zero-based activation index.
    pub activation: u64,
}

/// One activation of a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Identifier (task, activation index).
    pub id: JobId,
    /// Release instant.
    pub release: Time,
    /// Absolute deadline.
    pub deadline: Time,
    /// Worst-case execution time of the job.
    pub wcet: Duration,
    /// Execution time still owed.
    pub remaining: Duration,
    /// Fixed priority of the owning task (smaller = higher priority); used
    /// only by the fixed-priority queues.
    pub priority: usize,
}

impl Job {
    /// Builds the `activation`-th job of a task under the worst-case
    /// (synchronous, strictly periodic) arrival pattern, with the given
    /// fixed priority.
    pub fn nth_of(task: &Task, activation: u64, priority: usize) -> Job {
        let release = Time::ZERO + task.period_ticks() * activation;
        Job {
            id: JobId {
                task: task.id,
                activation,
            },
            release,
            deadline: release + task.deadline_ticks(),
            wcet: task.wcet_ticks(),
            remaining: task.wcet_ticks(),
            priority,
        }
    }

    /// Whether the job has finished executing.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_zero()
    }

    /// Executes the job for `amount`, returning the time actually consumed
    /// (never more than the remaining work).
    pub fn execute(&mut self, amount: Duration) -> Duration {
        let consumed = amount.min(self.remaining);
        self.remaining -= consumed;
        consumed
    }
}

/// Generates all jobs of the tasks in `tasks` released strictly before
/// `horizon`, with priorities taken from the task's position in `tasks`
/// (index 0 = highest priority).
pub fn release_jobs(tasks: &[Task], horizon: Duration) -> Vec<Job> {
    let mut jobs = Vec::new();
    release_jobs_into(tasks, horizon, &mut jobs);
    jobs
}

/// [`release_jobs`] writing into a caller-owned buffer (cleared first).
/// It generates every task's jobs and sorts them; the reference engine
/// keeps it, and it is the oracle of the event engine's merged release.
pub fn release_jobs_into(tasks: &[Task], horizon: Duration, jobs: &mut Vec<Job>) {
    jobs.clear();
    let horizon_time = Time::ZERO + horizon;
    for (priority, task) in tasks.iter().enumerate() {
        let mut activation = 0u64;
        loop {
            let job = Job::nth_of(task, activation, priority);
            if job.release >= horizon_time {
                break;
            }
            jobs.push(job);
            activation += 1;
        }
    }
    jobs.sort_by_key(|j| (j.release, j.id.task));
}

/// One task's release stream in [`merge_releases_into`]: its tick
/// parameters, converted once, and its next job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReleaseStream {
    task: TaskId,
    priority: usize,
    period: Duration,
    deadline: Duration,
    wcet: Duration,
    activation: u64,
    release: Time,
}

/// [`release_jobs_into`] over borrowed tasks, without the sort: the
/// per-task release streams are already in release order, so merging
/// them in (release, task) order yields the same jobs in the same order
/// (no two jobs share both keys). `streams` is scratch space.
pub(crate) fn merge_releases_into(
    tasks: &[&Task],
    horizon: Duration,
    streams: &mut Vec<ReleaseStream>,
    jobs: &mut Vec<Job>,
) {
    jobs.clear();
    streams.clear();
    streams.extend(
        tasks
            .iter()
            .enumerate()
            .map(|(priority, task)| ReleaseStream {
                task: task.id,
                priority,
                period: task.period_ticks(),
                deadline: task.deadline_ticks(),
                wcet: task.wcet_ticks(),
                activation: 0,
                release: Time::ZERO,
            }),
    );
    let horizon = Time::ZERO + horizon;
    // Streams past the horizon leave the list; the few left are scanned
    // for the earliest next job.
    streams.retain(|s| s.release < horizon);
    while let Some(at) = (0..streams.len()).min_by_key(|&i| (streams[i].release, streams[i].task)) {
        let next = &mut streams[at];
        jobs.push(Job {
            id: JobId {
                task: next.task,
                activation: next.activation,
            },
            release: next.release,
            deadline: next.release + next.deadline,
            wcet: next.wcet,
            remaining: next.wcet,
            priority: next.priority,
        });
        next.activation += 1;
        next.release = Time::ZERO + next.period * next.activation;
        if next.release >= horizon {
            streams.swap_remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_task::Mode;

    fn task(id: u32, c: f64, t: f64) -> Task {
        Task::implicit_deadline(id, c, t, Mode::NonFaultTolerant).unwrap()
    }

    #[test]
    fn nth_job_has_periodic_release_and_deadline() {
        let t = task(1, 1.0, 4.0);
        let j0 = Job::nth_of(&t, 0, 0);
        let j3 = Job::nth_of(&t, 3, 0);
        assert_eq!(j0.release, Time::from_units(0.0));
        assert_eq!(j0.deadline, Time::from_units(4.0));
        assert_eq!(j3.release, Time::from_units(12.0));
        assert_eq!(j3.deadline, Time::from_units(16.0));
        assert_eq!(j3.id.activation, 3);
    }

    #[test]
    fn execute_consumes_remaining_work() {
        let t = task(1, 2.0, 4.0);
        let mut j = Job::nth_of(&t, 0, 0);
        assert!(!j.is_complete());
        let used = j.execute(Duration::from_units(1.5));
        assert_eq!(used.as_units(), 1.5);
        let used = j.execute(Duration::from_units(5.0));
        assert!((used.as_units() - 0.5).abs() < 1e-9);
        assert!(j.is_complete());
        assert_eq!(j.execute(Duration::from_units(1.0)), Duration::ZERO);
    }

    #[test]
    fn release_jobs_covers_the_horizon_exclusively() {
        let tasks = vec![task(1, 1.0, 4.0), task(2, 1.0, 6.0)];
        let jobs = release_jobs(&tasks, Duration::from_units(12.0));
        // Task 1 releases at 0, 4, 8; task 2 at 0, 6 → 5 jobs. Releases at
        // exactly the horizon are excluded.
        assert_eq!(jobs.len(), 5);
        assert!(jobs.iter().all(|j| j.release < Time::from_units(12.0)));
        // Sorted by release time.
        for pair in jobs.windows(2) {
            assert!(pair[0].release <= pair[1].release);
        }
    }

    #[test]
    fn merged_releases_equal_the_sorted_ones() {
        // Equal releases across tasks (0, 12, 24), tasks listed out of id
        // order (priority order), a task whose first release is past the
        // horizon, and a fractional period.
        let tasks = [
            task(3, 1.0, 6.0),
            task(1, 1.0, 4.0),
            task(2, 0.5, 12.0),
            task(4, 1.0, 40.0),
            task(5, 0.1, 2.5),
            Task::constrained_deadline(6, 0.2, 3.0, 2.0, Mode::FailSilent).unwrap(),
        ];
        for horizon in [0.0, 1.0, 12.0, 12.5, 30.0, 100.0] {
            let horizon = Duration::from_units(horizon);
            for count in 0..=tasks.len() {
                let owned = &tasks[..count];
                let borrowed: Vec<&Task> = owned.iter().collect();
                let mut merged = Vec::new();
                merge_releases_into(&borrowed, horizon, &mut Vec::new(), &mut merged);
                assert_eq!(merged, release_jobs(owned, horizon), "{count} tasks");
            }
        }
    }

    #[test]
    fn priorities_follow_task_order() {
        let tasks = vec![task(1, 1.0, 4.0), task(2, 1.0, 6.0)];
        let jobs = release_jobs(&tasks, Duration::from_units(8.0));
        for job in &jobs {
            match job.id.task.0 {
                1 => assert_eq!(job.priority, 0),
                2 => assert_eq!(job.priority, 1),
                _ => unreachable!(),
            }
        }
    }
}

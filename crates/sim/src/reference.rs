//! The slot-stepping reference engine: the original simulator kept as an
//! executable specification.
//!
//! The production engine in [`crate::engine`] advances time event-to-event
//! (releases, window edges, completions) and classifies faults with a
//! fault-major pass over a per-channel cycle index. This module preserves
//! the earlier implementation — materialise every useful window up front,
//! walk them one by one, classify faults record-major with a linear
//! schedule scan — so equivalence can be *tested* instead of argued: the
//! proptest battery in `tests/sim_equivalence.rs` and the `ftsched bench
//! --sim` bitwise gate both assert that [`simulate_slot_stepping`] and
//! [`crate::simulate`] return bit-identical [`SimulationReport`]s.
//!
//! Test/bench-only: nothing in the production pipeline calls this engine,
//! and it reports **no** `ftsched_obs` metrics (so benchmark entries that
//! time it don't pollute the `sim_*` counters of the engine under test).

use std::collections::HashMap;

use ftsched_analysis::Algorithm;
use ftsched_platform::{classify_outcome, ChannelLayout};
use ftsched_task::{Duration, Mode, PerMode, Task, TaskSet, Time};

use crate::engine::{SimArena, SimulationConfig};
use crate::error::SimError;
use crate::job::{release_jobs_into, Job};
use crate::report::{OutcomeCounts, SimulationReport};
use crate::slot::SlotSchedule;
use crate::trace::{ExecutionSlice, JobRecord, Trace};

/// [`crate::simulate`] via the slot-stepping reference engine: allocates a
/// fresh [`SimArena`] per call.
///
/// # Errors
///
/// Returns a [`SimError`] for a non-positive horizon or an invalid
/// partition.
pub fn simulate_slot_stepping(
    tasks: &TaskSet,
    partition: &ftsched_task::SystemPartition,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    config: &SimulationConfig,
) -> Result<SimulationReport, SimError> {
    let mut arena = SimArena::default();
    simulate_slot_stepping_in(tasks, partition, algorithm, slots, config, &mut arena)
}

/// [`simulate_slot_stepping`] with caller-owned scratch storage, mirroring
/// [`crate::simulate_in`].
///
/// # Errors
///
/// Returns a [`SimError`] for a non-positive horizon or an invalid
/// partition.
pub fn simulate_slot_stepping_in(
    tasks: &TaskSet,
    partition: &ftsched_task::SystemPartition,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    config: &SimulationConfig,
    arena: &mut SimArena,
) -> Result<SimulationReport, SimError> {
    if !(config.horizon > 0.0 && config.horizon.is_finite()) {
        return Err(SimError::InvalidHorizon);
    }
    partition.validate(tasks)?;
    let horizon = Duration::from_units(config.horizon);
    let horizon_time = Time::ZERO + horizon;

    let mut trace = Trace::default();
    let mut outcomes: PerMode<OutcomeCounts> = PerMode::splat(OutcomeCounts::default());
    let mut worst_response: HashMap<ftsched_task::TaskId, f64> = HashMap::new();
    // BTreeMap: per-task response-time lists iterate in task-id order, so
    // everything derived from them downstream is deterministic.
    let mut response_times: Option<std::collections::BTreeMap<ftsched_task::TaskId, Vec<f64>>> =
        config.record_response_times.then(Default::default);
    let mut executed_time = PerMode::splat(0.0);
    let mut released_jobs = 0u64;
    let mut completed_jobs = 0u64;
    let mut deadline_misses = 0u64;
    let mut effective_faults: std::collections::HashSet<u64> = std::collections::HashSet::new();

    for mode in Mode::ALL {
        let layout = ChannelLayout::canonical(mode);
        // Empty channels run nothing; the others keep their own index.
        for (channel, ids) in partition.mode(mode).channels().iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let channel_set = tasks.subset(ids)?;
            simulate_channel(
                &channel_set,
                mode,
                channel,
                algorithm,
                slots,
                horizon,
                arena,
            );
            released_jobs += arena.records.len() as u64;
            for record in &arena.records {
                // Classify the job against the fault schedule: a fault is
                // effective for this job if its window overlaps one of the
                // job's execution slices and it struck a core of this
                // channel.
                let mut overlapped = false;
                for slice in arena.slices.iter().filter(|s| s.job == record.job) {
                    if let Some(fault) = config.fault_schedule.overlapping(slice.start, slice.end) {
                        if layout.channel_of_core(fault.core) == Some(channel) {
                            overlapped = true;
                            effective_faults.insert(fault.at.ticks());
                            break;
                        }
                    }
                }
                let outcome = classify_outcome(mode, overlapped);
                outcomes[mode].record(outcome);

                let mut record = *record;
                record.outcome = outcome;
                if let Some(completion) = record.completion {
                    completed_jobs += 1;
                    let rt = completion.saturating_since(record.release).as_units();
                    let entry = worst_response.entry(record.job.task).or_insert(0.0);
                    if rt > *entry {
                        *entry = rt;
                    }
                    if let Some(map) = response_times.as_mut() {
                        map.entry(record.job.task).or_default().push(rt);
                    }
                }
                let missed = match record.completion {
                    Some(completion) => completion > record.deadline,
                    None => record.deadline < horizon_time,
                };
                record.deadline_met = !missed;
                if missed {
                    deadline_misses += 1;
                }
                if config.record_trace {
                    trace.jobs.push(record);
                }
            }
            executed_time[mode] += arena
                .slices
                .iter()
                .map(|s| s.length().as_units())
                .sum::<f64>();
            if config.record_trace {
                trace.slices.extend_from_slice(&arena.slices);
            }
        }
    }

    Ok(SimulationReport {
        horizon: config.horizon,
        released_jobs,
        completed_jobs,
        deadline_misses,
        outcomes,
        worst_response_times: worst_response,
        response_times,
        executed_time,
        effective_faults: effective_faults.len() as u64,
        trace: if config.record_trace {
            Some(trace)
        } else {
            None
        },
    })
}

/// Simulates one channel by materialising every useful window of the mode
/// and walking them in order — the original slot-stepping dispatcher.
#[allow(clippy::too_many_arguments)]
fn simulate_channel(
    channel_tasks: &TaskSet,
    mode: Mode,
    channel: usize,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    horizon: Duration,
    arena: &mut SimArena,
) {
    // Order tasks by the dispatching policy's priority (only meaningful for
    // FP; EDF ignores the index).
    let ordered: Vec<Task> = match algorithm.priority_order() {
        Some(order) => channel_tasks.sorted_by_priority(order),
        None => channel_tasks.tasks().to_vec(),
    };
    let SimArena {
        jobs,
        windows,
        queue,
        slices,
        records,
        completions,
        ..
    } = arena;
    release_jobs_into(&ordered, horizon, jobs);
    completions.clear();
    slices.clear();
    records.clear();
    queue.reset(algorithm);
    slots.useful_windows_into(mode, horizon, windows);

    let all_jobs: &[Job] = jobs;
    let mut next_release_idx = 0usize;

    for window in windows.iter() {
        let mut now = window.start;
        loop {
            // Admit everything released up to `now`.
            while next_release_idx < all_jobs.len() && all_jobs[next_release_idx].release <= now {
                queue.push(all_jobs[next_release_idx].clone());
                next_release_idx += 1;
            }
            if now >= window.end {
                break;
            }
            let Some(mut job) = queue.pop() else {
                // Idle until the next release or the end of the window.
                match all_jobs.get(next_release_idx) {
                    Some(next) if next.release < window.end => {
                        now = next.release.max(now);
                        continue;
                    }
                    _ => break,
                }
            };
            // Run until the job completes, the window closes, or a new
            // release may pre-empt it.
            let mut run_until = (now + job.remaining).min(window.end);
            if let Some(next) = all_jobs.get(next_release_idx) {
                if next.release > now && next.release < run_until {
                    run_until = next.release;
                }
            }
            let executed = job.execute(run_until - now);
            debug_assert_eq!(executed, run_until - now);
            slices.push(ExecutionSlice {
                job: job.id,
                mode,
                channel,
                start: now,
                end: run_until,
            });
            now = run_until;
            if job.is_complete() {
                completions.insert(job.id, now);
            } else {
                queue.push(job);
            }
        }
    }

    for job in all_jobs {
        records.push(JobRecord {
            job: job.id,
            mode,
            channel,
            release: job.release,
            deadline: job.deadline,
            completion: completions.get(&job.id).copied(),
            deadline_met: true, // finalised by the caller
            outcome: ftsched_platform::JobOutcome::CorrectNoFault, // finalised by the caller
        });
    }
}

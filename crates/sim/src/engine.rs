//! The event-driven simulation engine.
//!
//! A run has two halves, split on one invariant of the fault model:
//! **faults never change the schedule**. A transient fault only changes
//! the outcome class of the jobs it overlaps (masked, silenced or wrong
//! result, see [`classify_outcome`]); it never delays, aborts or
//! re-dispatches anything. So:
//!
//! * [`Schedule::build`] simulates the fault-independent schedule once:
//!   per-channel execution slices, the job behind each slice, and every
//!   fault-free aggregate (releases, completions, deadline misses,
//!   response times, executed time);
//! * [`Schedule::classify`] applies one [`FaultSchedule`] to a built
//!   schedule and returns the per-mode outcome counts, and
//!   [`Schedule::report`] assembles the full [`SimulationReport`] from
//!   the two halves.
//!
//! [`simulate_in`] is build + report. Campaigns that validate one design
//! under many fault draws build its schedule once and classify it per
//! draw.
//!
//! Because the partitioned scheme makes channels independent (a channel
//! only ever executes its own task subset, and only during its mode's
//! useful windows), the engine simulates one channel at a time. Time
//! advances **event to event** — job releases, useful-window edges and
//! job completions — never tick by tick:
//!
//! * useful windows are derived lazily from the cycle index `k`
//!   (`[kP + offset, kP + offset + Q̃)`, clamped to the horizon) instead
//!   of being materialised up front;
//! * when the ready queue runs dry and the next release falls beyond the
//!   current window, the engine jumps straight to the first window that
//!   can run it, skipping every idle cycle in between;
//! * jobs are dispatched by index into a flat release array, with
//!   remaining-work and completion-time kept in parallel vectors — no
//!   per-job cloning or hashing on the hot path.
//!
//! Fault classification is fault-major: every slice of a channel lies
//! inside one of its mode's useful windows, and all modes share the
//! period `P`, so one cycle index `⌊at / P⌋` and a few compares tell
//! which channels a fault can strike at all. For those, a per-channel
//! cycle index recorded by [`Schedule::build`] names the first slice
//! that ends after the fault's cycle starts, and the walk from there
//! touches only the few slices near the fault: O(faults × channels)
//! lookups plus the overlapping slices, instead of a pass over every
//! slice. Tick granularity is materialised only inside fault windows
//! (the overlap spans the classifier examines); everything else is
//! interval arithmetic.
//!
//! The result is **bit-identical** to the original slot-stepping engine,
//! which survives as [`crate::reference`] — an executable specification
//! the proptest battery and the `ftsched bench --sim` bitwise gate check
//! this engine against.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use ftsched_analysis::Algorithm;
use ftsched_platform::cpu::CoreId;
use ftsched_platform::{classify_outcome, ChannelLayout, FaultSchedule};
use ftsched_task::{Duration, Mode, PerMode, SystemPartition, Task, TaskId, TaskSet, Time};

use crate::error::SimError;
use crate::job::{release_jobs_into, Job, JobId};
use crate::queue::ReadyQueue;
use crate::report::{OutcomeCounts, SimulationReport};
use crate::slot::{SlotSchedule, UsefulWindow};
use crate::trace::{ExecutionSlice, JobRecord, Trace};

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Length of the simulated interval, in paper time units.
    pub horizon: f64,
    /// Transient faults injected during the run.
    pub fault_schedule: FaultSchedule,
    /// Whether to keep the full trace in the report (disable for large
    /// campaigns).
    pub record_trace: bool,
    /// Whether to record every completed job's response time, grouped per
    /// task, in [`SimulationReport::response_times`]. Off by default: the
    /// campaign engine enables it only when a spec asks for response-time
    /// histograms, so trials that don't need the data pay nothing.
    pub record_response_times: bool,
}

impl SimulationConfig {
    /// A fault-free run over the given horizon with trace recording on.
    pub fn fault_free(horizon: f64) -> Self {
        SimulationConfig {
            horizon,
            fault_schedule: FaultSchedule::none(),
            record_trace: true,
            record_response_times: false,
        }
    }
}

/// What a [`Schedule`] is built over: a [`SimulationConfig`] without its
/// faults.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleConfig {
    /// Length of the simulated interval, in paper time units.
    pub horizon: f64,
    /// Keep the per-job records and slice identities a trace needs.
    pub record_trace: bool,
    /// Record every completed job's response time, grouped per task.
    pub record_response_times: bool,
}

/// Reusable scratch storage for [`Schedule::build`] and
/// [`Schedule::classify`]: the per-job dispatch state of one build and
/// the per-job fault marks of one classification, which
/// [`Schedule::report`] reads back for the trace (plus the window/queue/
/// completion buffers of the slot-stepping [`crate::reference`] engine,
/// which shares the arena).
///
/// A fresh arena is allocated by the convenience [`simulate`]; campaign
/// kernels that run thousands of trials keep one arena per worker and
/// pass it to [`simulate_in`], so every trial after the first reuses the
/// buffers instead of reallocating them. The arena carries **no state
/// between runs** — every buffer is cleared before use, and reports are
/// bit-identical with or without reuse.
#[derive(Debug)]
pub struct SimArena {
    pub(crate) jobs: Vec<Job>,
    pub(crate) windows: Vec<UsefulWindow>,
    pub(crate) queue: ReadyQueue,
    pub(crate) slices: Vec<ExecutionSlice>,
    pub(crate) records: Vec<JobRecord>,
    pub(crate) completions: HashMap<JobId, Time>,
    /// Indices (into `jobs`) of released-but-unfinished jobs.
    ready: Vec<u32>,
    /// Remaining work per job, parallel to `jobs`.
    remaining: Vec<Duration>,
    /// Completion instant per job, parallel to `jobs`.
    completed_at: Vec<Option<Time>>,
    /// Fault-overlap flag per job of the classified schedule.
    fault_marks: Vec<bool>,
}

impl Default for SimArena {
    fn default() -> Self {
        SimArena {
            jobs: Vec::new(),
            windows: Vec::new(),
            // Placeholder policy; `reset` installs the real one per run.
            queue: ReadyQueue::new(Algorithm::EarliestDeadlineFirst),
            slices: Vec::new(),
            records: Vec::new(),
            completions: HashMap::new(),
            ready: Vec::new(),
            remaining: Vec::new(),
            completed_at: Vec::new(),
            fault_marks: Vec::new(),
        }
    }
}

impl SimArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        SimArena::default()
    }
}

/// One channel's share of a [`Schedule`]: its slices, jobs and cycle
/// index entries are the ranges between the previous channel's ends and
/// its own.
#[derive(Debug)]
struct ChannelSpan {
    mode: Mode,
    channel: usize,
    /// Bit `c` is set when core `c` belongs to this channel.
    cores: u64,
    /// Offset `o_m` of the mode's useful window in the cycle, in ticks.
    offset: u64,
    /// Length `Q̃_m` of the mode's useful window, in ticks.
    quantum: u64,
    /// End (exclusive) of the channel's slices in [`Schedule::spans`].
    slices_end: usize,
    /// End (exclusive) of the channel's jobs in the schedule's job
    /// numbering.
    jobs_end: usize,
    /// End (exclusive) of the channel's entries in
    /// [`Schedule::cycle_index`].
    index_end: usize,
    /// Each cycle index entry covers `2^bucket_shift` cycles.
    bucket_shift: u32,
}

impl ChannelSpan {
    /// Whether a fault on `core` strikes this channel.
    fn hosts(&self, core: CoreId) -> bool {
        self.cores & core_bit(core) != 0
    }

    /// Whether a fault that starts `phase` ticks into its cycle and lasts
    /// `len` ticks can overlap one of this channel's useful windows, and
    /// so one of its slices. Never false when it can; true may still
    /// find nothing.
    ///
    /// A fault shorter than the period can only meet the windows of its
    /// own cycle, of the next one, or of the previous one when tick
    /// rounding makes `o_m + Q̃_m` overshoot the period (see
    /// [`SlotSchedule::slack`]); the previous-cycle test also covers any
    /// deeper overshoot.
    fn may_overlap(&self, phase: u64, len: u64, period: u64) -> bool {
        let window_end = self.offset + self.quantum;
        len >= period
            || phase + period < window_end
            || (self.offset < phase + len && phase < window_end)
            || period + self.offset < phase + len
    }
}

/// The bit of `core` in a [`ChannelSpan::cores`] mask (none for a core
/// beyond the mask, which no channel layout contains).
fn core_bit(core: CoreId) -> u64 {
    u32::try_from(core.0)
        .ok()
        .and_then(|c| 1u64.checked_shl(c))
        .unwrap_or(0)
}

/// The fault-independent schedule of one design over one horizon: what
/// ran where and when, plus every aggregate faults cannot change.
///
/// Built once by [`Schedule::build`]; [`Schedule::classify`] and
/// [`Schedule::report`] apply any number of fault schedules to it.
#[derive(Debug)]
pub struct Schedule {
    horizon: f64,
    /// The horizon in ticks: no slice ends after it.
    horizon_ticks: u64,
    /// The cycle period `P` in ticks.
    period: u64,
    /// Channels in mode order, then channel order.
    channels: Vec<ChannelSpan>,
    /// Execution slices `(start, end)`, chronological within a channel.
    spans: Vec<(Time, Time)>,
    /// Per channel, entry `b` is the first of its slices (an index into
    /// `spans`) that ends after the start of cycle `b · 2^bucket_shift`.
    cycle_index: Vec<u32>,
    /// Job (in the schedule's numbering) behind each entry of `spans`.
    slice_jobs: Vec<u32>,
    /// Per-job records with the outcome left unclassified, kept only
    /// when the schedule was built for a trace.
    records: Option<Vec<JobRecord>>,
    released_jobs: u64,
    completed_jobs: u64,
    deadline_misses: u64,
    worst_response_times: HashMap<TaskId, f64>,
    response_times: Option<BTreeMap<TaskId, Vec<f64>>>,
    executed_time: PerMode<f64>,
    /// Event-engine tallies of the build (see [`ChannelStats`]).
    stats: ChannelStats,
}

/// Per-mode outcome counts of one fault schedule applied to a
/// [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultClassification {
    /// Per-mode job outcome counters.
    pub outcomes: PerMode<OutcomeCounts>,
    /// Number of faults that overlapped at least one job of the channel
    /// they struck.
    pub effective_faults: u64,
}

/// Tallies of the event engine, batched into `ftsched_obs` once per
/// classification. All three are pure functions of the simulation
/// inputs.
#[derive(Debug, Default, Clone, Copy)]
struct ChannelStats {
    /// Useful windows actually visited (idle-jumped windows don't count).
    windows_walked: u64,
    /// Events processed: windows entered, jobs admitted, dispatches,
    /// completions.
    events: u64,
    /// Idle spans skipped by jumping ≥ 2 windows ahead at once.
    idle_jumps: u64,
}

impl ChannelStats {
    fn add(&mut self, other: ChannelStats) {
        self.windows_walked += other.windows_walked;
        self.events += other.events;
        self.idle_jumps += other.idle_jumps;
    }
}

/// Simulates the partitioned, slot-gated system.
///
/// * `tasks` — the whole application task set;
/// * `partition` — the per-mode channel assignment;
/// * `algorithm` — the local dispatching policy on every channel;
/// * `slots` — the slot schedule (period, quanta, overheads);
/// * `config` — horizon, fault schedule, trace recording.
///
/// Allocates a fresh [`SimArena`] per call; hot loops should hold one
/// arena and call [`simulate_in`] instead.
///
/// # Errors
///
/// Returns a [`SimError`] for a non-positive horizon or an invalid
/// partition.
pub fn simulate(
    tasks: &TaskSet,
    partition: &SystemPartition,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    config: &SimulationConfig,
) -> Result<SimulationReport, SimError> {
    let mut arena = SimArena::default();
    simulate_in(tasks, partition, algorithm, slots, config, &mut arena)
}

/// [`simulate`] with caller-owned scratch storage: buffers in `arena` are
/// cleared and reused instead of reallocated, which is the dominant
/// saving for short campaign trials. The report is bit-identical to
/// [`simulate`]'s.
///
/// This is [`Schedule::build`] followed by [`Schedule::report`].
///
/// # Errors
///
/// Returns a [`SimError`] for a non-positive horizon or an invalid
/// partition.
pub fn simulate_in(
    tasks: &TaskSet,
    partition: &SystemPartition,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    config: &SimulationConfig,
    arena: &mut SimArena,
) -> Result<SimulationReport, SimError> {
    let schedule = Schedule::build(
        tasks,
        partition,
        algorithm,
        slots,
        &ScheduleConfig {
            horizon: config.horizon,
            record_trace: config.record_trace,
            record_response_times: config.record_response_times,
        },
        arena,
    )?;
    Ok(schedule.report(&config.fault_schedule, arena))
}

impl Schedule {
    /// Simulates every channel of the system over `config.horizon`,
    /// without faults (they cannot change the schedule), and aggregates
    /// everything that does not depend on them.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for a non-positive horizon or an invalid
    /// partition.
    pub fn build(
        tasks: &TaskSet,
        partition: &SystemPartition,
        algorithm: Algorithm,
        slots: &SlotSchedule,
        config: &ScheduleConfig,
        arena: &mut SimArena,
    ) -> Result<Schedule, SimError> {
        if !(config.horizon > 0.0 && config.horizon.is_finite()) {
            return Err(SimError::InvalidHorizon);
        }
        partition.validate(tasks)?;
        // Arena warmth before any buffer is touched: a reused arena keeps
        // its capacities from the previous build, a fresh one has none.
        // Scheduling-dependent, so it lives in the timing half.
        let arena_warm = arena.jobs.capacity() > 0;
        ftsched_obs::record(|m| {
            if arena_warm {
                m.arena_reused.incr();
            } else {
                m.arena_fresh.incr();
            }
        });
        let horizon = Duration::from_units(config.horizon);
        let horizon_time = Time::ZERO + horizon;

        let mut schedule = Schedule {
            horizon: config.horizon,
            horizon_ticks: horizon_time.ticks(),
            period: slots.period().ticks(),
            channels: Vec::new(),
            spans: Vec::new(),
            cycle_index: Vec::new(),
            slice_jobs: Vec::new(),
            records: config.record_trace.then(Vec::new),
            released_jobs: 0,
            completed_jobs: 0,
            deadline_misses: 0,
            worst_response_times: HashMap::new(),
            // BTreeMap: per-task response-time lists iterate in task-id
            // order, so everything derived from them downstream is
            // deterministic.
            response_times: config.record_response_times.then(Default::default),
            executed_time: PerMode::splat(0.0),
            stats: ChannelStats::default(),
        };

        for mode in Mode::ALL {
            let layout = ChannelLayout::canonical(mode);
            // Empty channels run nothing, but the channels after them keep
            // their own index, which is what maps a fault's core to them.
            for (channel, ids) in partition.mode(mode).channels().iter().enumerate() {
                if ids.is_empty() {
                    continue;
                }
                let channel_set = tasks.subset(ids)?;
                let slices_start = schedule.spans.len();
                let job_base = u32::try_from(schedule.released_jobs)
                    .expect("a schedule indexes its jobs with u32");
                let stats = simulate_channel(
                    &channel_set,
                    mode,
                    algorithm,
                    slots,
                    horizon,
                    job_base,
                    arena,
                    &mut schedule.spans,
                    &mut schedule.slice_jobs,
                );
                schedule.stats.add(stats);

                for (job, &completion) in arena.jobs.iter().zip(&arena.completed_at) {
                    if let Some(completion) = completion {
                        schedule.completed_jobs += 1;
                        let rt = completion.saturating_since(job.release).as_units();
                        let entry = schedule
                            .worst_response_times
                            .entry(job.id.task)
                            .or_insert(0.0);
                        if rt > *entry {
                            *entry = rt;
                        }
                        if let Some(map) = schedule.response_times.as_mut() {
                            map.entry(job.id.task).or_default().push(rt);
                        }
                    }
                    let missed = match completion {
                        Some(completion) => completion > job.deadline,
                        None => job.deadline < horizon_time,
                    };
                    if missed {
                        schedule.deadline_misses += 1;
                    }
                    if let Some(records) = schedule.records.as_mut() {
                        records.push(JobRecord {
                            job: job.id,
                            mode,
                            channel,
                            release: job.release,
                            deadline: job.deadline,
                            completion,
                            deadline_met: !missed,
                            // Classified per fault schedule by `report`.
                            outcome: ftsched_platform::JobOutcome::CorrectNoFault,
                        });
                    }
                }
                schedule.released_jobs += arena.jobs.len() as u64;
                schedule.executed_time[mode] += schedule.spans[slices_start..]
                    .iter()
                    .map(|&(start, end)| (end - start).as_units())
                    .sum::<f64>();
                let bucket_shift = index_cycles(
                    slices_start,
                    &schedule.spans,
                    schedule.period,
                    schedule.horizon_ticks,
                    &mut schedule.cycle_index,
                );
                schedule.channels.push(ChannelSpan {
                    mode,
                    channel,
                    cores: layout
                        .cores_of(channel)
                        .iter()
                        .fold(0, |mask, &core| mask | core_bit(core)),
                    offset: slots.slot_offset(mode).ticks(),
                    quantum: slots.useful_quantum(mode).ticks(),
                    slices_end: schedule.spans.len(),
                    jobs_end: schedule.released_jobs as usize,
                    index_end: schedule.cycle_index.len(),
                    bucket_shift,
                });
            }
        }
        Ok(schedule)
    }

    /// Number of jobs released inside the horizon.
    pub fn released_jobs(&self) -> u64 {
        self.released_jobs
    }

    /// Number of jobs that completed inside the horizon.
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// Number of jobs that missed their deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Worst observed response time per task (completed jobs only).
    pub fn worst_response_times(&self) -> &HashMap<TaskId, f64> {
        &self.worst_response_times
    }

    /// Every completed job's response time, grouped per task in task-id
    /// order, when the schedule was built with
    /// [`ScheduleConfig::record_response_times`].
    pub fn response_times(&self) -> Option<&BTreeMap<TaskId, Vec<f64>>> {
        self.response_times.as_ref()
    }

    /// Applies one fault schedule: marks every job a fault strikes on its
    /// own channel and counts the outcomes per mode. Records the run's
    /// `sim_*` counters, so a schedule classified `n` times counts as `n`
    /// simulation runs.
    ///
    /// The rule is slice-major: each slice is examined against the first
    /// fault of the schedule that ends after the slice starts, if the two
    /// overlap; a job already marked skips further checks, and an overlap
    /// on a channel the fault did not strike counts its ticks but leaves
    /// the job unmarked, so its later slices are still examined. The pass
    /// is fault-major and reproduces that rule exactly: a fault examines
    /// the slices that overlap it and start no earlier than the previous
    /// fault's end, channel by channel in time order, which is the order
    /// the slice-major rule visits them in. Each channel's cycle index
    /// (built with the schedule) finds the first of those slices, and
    /// channels whose useful windows the fault misses are skipped
    /// outright.
    pub fn classify(&self, faults: &FaultSchedule, arena: &mut SimArena) -> FaultClassification {
        let marks = &mut arena.fault_marks;
        marks.clear();
        marks.resize(self.released_jobs as usize, false);
        let mut struck = PerMode::splat(0u64);
        let mut fault_ticks = 0u64;
        // Effective faults count distinct arrival instants: two
        // zero-length faults may share one.
        let mut effective_faults = 0u64;
        let mut last_effective = None;
        let period = self.period;
        let inverse_period = 1.0 / period as f64;
        let mut previous_end = Time::ZERO;
        for fault in faults.faults() {
            let (at, end) = (fault.at, fault.end());
            // No slice ends after the horizon, and faults come in order.
            if at.ticks() >= self.horizon_ticks || period == 0 {
                break;
            }
            let cycle = cycle_of(at.ticks(), period, inverse_period);
            let phase = at.ticks() - cycle * period;
            let len = fault.duration.ticks();
            let mut hit = false;
            let mut index_start = 0;
            for channel in &self.channels {
                let index = &self.cycle_index[index_start..channel.index_end];
                index_start = channel.index_end;
                if !channel.may_overlap(phase, len, period) {
                    continue;
                }
                let Some(&first) = index.get((cycle >> channel.bucket_shift) as usize) else {
                    continue;
                };
                let hosts = channel.hosts(fault.core);
                for i in first as usize..channel.slices_end {
                    let (start, stop) = self.spans[i];
                    if start >= end {
                        break;
                    }
                    // Slices that end before the fault, or that start
                    // before the previous fault ends (they belong to it).
                    if stop <= at || start < previous_end {
                        continue;
                    }
                    let ji = self.slice_jobs[i] as usize;
                    if marks[ji] {
                        continue;
                    }
                    // Tick granularity exists only here: the overlap span
                    // the classifier examines inside the fault window.
                    fault_ticks += end.min(stop).ticks() - at.max(start).ticks();
                    // Whether the fault struck this channel is a coin flip
                    // per slice; no branch on it.
                    marks[ji] = hosts;
                    struck[channel.mode] += u64::from(hosts);
                    hit |= hosts;
                }
            }
            if hit && last_effective != Some(at) {
                effective_faults += 1;
                last_effective = Some(at);
            }
            previous_end = end;
        }

        let mut outcomes = PerMode::splat(OutcomeCounts::default());
        let mut jobs = PerMode::splat(0u64);
        let mut jobs_start = 0;
        for channel in &self.channels {
            jobs[channel.mode] += (channel.jobs_end - jobs_start) as u64;
            jobs_start = channel.jobs_end;
        }
        for mode in Mode::ALL {
            let counts = &mut outcomes[mode];
            counts.add(classify_outcome(mode, false), jobs[mode] - struck[mode]);
            counts.add(classify_outcome(mode, true), struck[mode]);
        }

        // One batched update per run: every count is a pure function of
        // the schedule and the faults.
        ftsched_obs::record(|m| {
            m.sim_runs.incr();
            m.sim_windows.add(self.stats.windows_walked);
            m.sim_slices.add(self.spans.len() as u64);
            m.sim_jobs_released.add(self.released_jobs);
            m.sim_jobs_completed.add(self.completed_jobs);
            m.sim_faults_injected.add(faults.len() as u64);
            m.sim_events.add(self.stats.events);
            m.sim_idle_spans_jumped.add(self.stats.idle_jumps);
            m.sim_ticks_materialised.add(fault_ticks);
        });
        FaultClassification {
            outcomes,
            effective_faults,
        }
    }

    /// The full report of this schedule under one fault schedule: the
    /// fault-free aggregates plus [`Self::classify`]'s outcomes, and the
    /// trace when the schedule was built for one.
    pub fn report(&self, faults: &FaultSchedule, arena: &mut SimArena) -> SimulationReport {
        let FaultClassification {
            outcomes,
            effective_faults,
        } = self.classify(faults, arena);
        let trace = self.records.as_ref().map(|records| {
            let mut slices = Vec::with_capacity(self.spans.len());
            let mut slices_start = 0;
            for channel in &self.channels {
                let range = slices_start..channel.slices_end;
                slices.extend(
                    self.spans[range.clone()]
                        .iter()
                        .zip(&self.slice_jobs[range])
                        .map(|(&(start, end), &ji)| ExecutionSlice {
                            job: records[ji as usize].job,
                            mode: channel.mode,
                            channel: channel.channel,
                            start,
                            end,
                        }),
                );
                slices_start = channel.slices_end;
            }
            let jobs = records
                .iter()
                .zip(&arena.fault_marks)
                .map(|(record, &struck)| JobRecord {
                    outcome: classify_outcome(record.mode, struck),
                    ..*record
                })
                .collect();
            Trace { slices, jobs }
        });
        SimulationReport {
            horizon: self.horizon,
            released_jobs: self.released_jobs,
            completed_jobs: self.completed_jobs,
            deadline_misses: self.deadline_misses,
            outcomes,
            worst_response_times: self.worst_response_times.clone(),
            response_times: self.response_times.clone(),
            executed_time: self.executed_time,
            effective_faults,
            trace,
        }
    }
}

/// The cycle `⌊at / period⌋` of instant `at` (ticks): a float estimate,
/// fixed up in integers so that the result is exact.
fn cycle_of(at: u64, period: u64, inverse_period: f64) -> u64 {
    let mut cycle = (at as f64 * inverse_period) as u64;
    while cycle.saturating_mul(period) > at {
        cycle -= 1;
    }
    while at - cycle * period >= period {
        cycle += 1;
    }
    cycle
}

/// Appends the cycle index of one channel, whose slices are
/// `spans[first..]`, to `index`, and returns its bucket shift: entry `b`
/// is the first slice that ends after the start of cycle `b · 2^shift`.
///
/// The shift is the smallest one that keeps the index no longer than the
/// channel's slice list, so a short period over a long horizon costs
/// O(slices) rather than O(horizon / P). A channel without slices has no
/// entries.
fn index_cycles(
    first: usize,
    spans: &[(Time, Time)],
    period: u64,
    horizon: u64,
    index: &mut Vec<u32>,
) -> u32 {
    let slices = &spans[first..];
    if slices.is_empty() || period == 0 {
        return 0;
    }
    let cycles = horizon.div_ceil(period);
    let shift = cycles
        .div_ceil(slices.len() as u64)
        .next_power_of_two()
        .trailing_zeros();
    let mut i = 0;
    for bucket in 0..cycles.div_ceil(1 << shift) {
        let from = (bucket << shift) * period;
        while i < slices.len() && slices[i].1.ticks() <= from {
            i += 1;
        }
        index.push(u32::try_from(first + i).expect("a schedule indexes its slices with u32"));
    }
    shift
}

/// Simulates one channel of one mode over the horizon, appending its
/// execution slices to `spans` and the job behind each (`job_base` plus
/// the index into `arena.jobs`) to `slice_jobs`. Leaves the released
/// jobs in `arena.jobs` and their completions in `arena.completed_at`.
///
/// Useful windows are derived on the fly from the cycle index: window `k`
/// of a mode is `[kP + offset, kP + offset + Q̃)` clamped to the horizon,
/// exactly the intervals [`SlotSchedule::useful_windows_into`] would
/// materialise (`u64` tick arithmetic, so `k·P` equals the reference
/// engine's iterated `cycle_start += P` bit for bit). Whenever the ready
/// queue is empty and the next release lies beyond the current window,
/// the cycle index jumps straight to the first window whose useful part
/// can run that release.
#[allow(clippy::too_many_arguments)]
fn simulate_channel(
    channel_tasks: &TaskSet,
    mode: Mode,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    horizon: Duration,
    job_base: u32,
    arena: &mut SimArena,
    spans: &mut Vec<(Time, Time)>,
    slice_jobs: &mut Vec<u32>,
) -> ChannelStats {
    // Order tasks by the dispatching policy's priority (only meaningful for
    // FP; EDF ignores the index).
    let ordered: Vec<Task> = match algorithm.priority_order() {
        Some(order) => channel_tasks.sorted_by_priority(order),
        None => channel_tasks.tasks().to_vec(),
    };
    let SimArena {
        jobs,
        ready,
        remaining,
        completed_at,
        ..
    } = arena;
    release_jobs_into(&ordered, horizon, jobs);
    ready.clear();
    remaining.clear();
    remaining.extend(jobs.iter().map(|j| j.wcet));
    completed_at.clear();
    completed_at.resize(jobs.len(), None);

    let all_jobs: &[Job] = jobs;
    let mut stats = ChannelStats::default();

    // Pick the ready job the dispatching policy would run next. The keys
    // are exactly [`ReadyQueue`]'s and are unique per job (FP priorities
    // are release-array indices per task, and (task, activation) breaks
    // every remaining tie), so selection is order-insensitive.
    let pop_best = |ready: &mut Vec<u32>| -> Option<u32> {
        if ready.is_empty() {
            return None;
        }
        let best = match algorithm {
            Algorithm::RateMonotonic | Algorithm::DeadlineMonotonic => ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| {
                    let j = &all_jobs[i as usize];
                    (j.priority, j.release, j.id.activation, j.id.task)
                })
                .map(|(pos, _)| pos),
            Algorithm::EarliestDeadlineFirst => ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| {
                    let j = &all_jobs[i as usize];
                    (j.deadline, j.id.task, j.id.activation)
                })
                .map(|(pos, _)| pos),
        };
        best.map(|pos| ready.swap_remove(pos))
    };

    let p = slots.period().ticks();
    let o = slots.slot_offset(mode).ticks();
    let q = slots.useful_quantum(mode).ticks();
    let h = (Time::ZERO + horizon).ticks();

    if q == 0 || p == 0 {
        // No useful windows (a zero quantum, or a period that rounds to
        // zero ticks and therefore admits no positive quantum): nothing
        // runs, every job stays incomplete.
        return stats;
    }

    let mut next_release = 0usize;
    let mut k: u64 = 0;
    'windows: loop {
        let w_start = match k.checked_mul(p).and_then(|v| v.checked_add(o)) {
            Some(v) if v < h => v,
            _ => break,
        };
        let w_end = w_start.saturating_add(q).min(h);
        let window_end = Time::from_ticks(w_end);
        let mut now = Time::from_ticks(w_start);
        stats.windows_walked += 1;
        stats.events += 1;
        loop {
            // Admit everything released up to `now`.
            while next_release < all_jobs.len() && all_jobs[next_release].release <= now {
                ready.push(next_release as u32);
                next_release += 1;
                stats.events += 1;
            }
            if now >= window_end {
                break;
            }
            let Some(ji) = pop_best(ready) else {
                // Idle: hop to the next release inside this window, or
                // jump the whole idle span to the first window that can
                // run the next release.
                match all_jobs.get(next_release) {
                    Some(next) if next.release < window_end => {
                        now = next.release.max(now);
                        continue;
                    }
                    Some(next) => {
                        // `release ≥ window_end` and the horizon clamp
                        // only bites on the last window (releases are
                        // strictly inside the horizon), so here
                        // `release ≥ kP + offset + Q̃`: the first cycle
                        // whose useful part ends after the release is
                        // `(release − offset − Q̃) / P + 1`.
                        let r = next.release.ticks();
                        let jump = if r < o + q { 0 } else { (r - o - q) / p + 1 };
                        debug_assert!(jump > k);
                        if jump > k + 1 {
                            stats.idle_jumps += 1;
                        }
                        k = jump.max(k + 1);
                        continue 'windows;
                    }
                    // No pending work and no future releases: done.
                    None => break 'windows,
                }
            };
            let ji = ji as usize;
            // Run until the job completes, the window closes, or a new
            // release may pre-empt it.
            let mut run_until = (now + remaining[ji]).min(window_end);
            if let Some(next) = all_jobs.get(next_release) {
                if next.release > now && next.release < run_until {
                    run_until = next.release;
                }
            }
            remaining[ji] -= run_until - now;
            spans.push((now, run_until));
            slice_jobs.push(job_base + ji as u32);
            now = run_until;
            stats.events += 1;
            if remaining[ji].is_zero() {
                completed_at[ji] = Some(now);
                stats.events += 1;
            } else {
                ready.push(ji as u32);
            }
        }
        k += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_platform::{Fault, FaultSchedule};
    use ftsched_task::examples::{paper_example, PAPER_TOTAL_OVERHEAD};
    use ftsched_task::{Mode, ModePartition, PerMode, TaskId};

    /// The Table 2(b) slot schedule.
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

    fn fault_at(at: f64, dur: f64, core: usize) -> Fault {
        Fault {
            at: Time::from_units(at),
            duration: Duration::from_units(dur),
            core: ftsched_platform::cpu::CoreId(core),
            mask: 0xF0F0,
        }
    }

    #[test]
    fn paper_design_runs_without_deadline_misses_under_edf() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(240.0),
        )
        .unwrap();
        assert!(report.released_jobs > 50);
        assert!(
            report.all_deadlines_met(),
            "misses: {}",
            report.deadline_misses
        );
        assert!(report.integrity_preserved());
        let trace = report.trace.as_ref().unwrap();
        assert!(trace.slices_are_disjoint_per_channel());
    }

    #[test]
    fn paper_design_runs_without_deadline_misses_under_rm() {
        // The Table 2(b) quanta were derived for EDF; for RM we derive the
        // minimum quanta from the analysis layer at a period well inside
        // the RM region of Figure 4 (P = 1.8 < 2.381) and simulate those.
        let (tasks, partition) = paper_example();
        let period = 1.8;
        let channel_sets = partition.channel_task_sets(&tasks).unwrap();
        let quanta = PerMode::from_fn(|mode| {
            ftsched_analysis::min_quantum_multi(
                channel_sets.get(mode),
                Algorithm::RateMonotonic,
                period,
            )
            .unwrap()
            .quantum
        });
        let total = quanta.total() + PAPER_TOTAL_OVERHEAD;
        assert!(
            total <= period,
            "P={period} not RM-feasible (needs {total:.3})"
        );
        let slots =
            SlotSchedule::new(period, quanta, PerMode::splat(PAPER_TOTAL_OVERHEAD / 3.0)).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::RateMonotonic,
            &slots,
            &SimulationConfig::fault_free(240.0),
        )
        .unwrap();
        assert!(
            report.all_deadlines_met(),
            "misses: {}",
            report.deadline_misses
        );
    }

    #[test]
    fn undersized_quanta_produce_deadline_misses() {
        let (tasks, partition) = paper_example();
        // Starve the FT slot: 0.1 per period is far below minQ ≈ 0.82.
        let slots = SlotSchedule::new(
            2.966,
            PerMode {
                ft: 0.1,
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
            &SimulationConfig::fault_free(240.0),
        )
        .unwrap();
        assert!(!report.all_deadlines_met());
        assert!(report.deadline_misses > 0);
    }

    #[test]
    fn response_times_are_bounded_by_deadlines_in_a_valid_design() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(120.0),
        )
        .unwrap();
        for task in tasks.iter() {
            if let Some(rt) = report.worst_response_time(task.id) {
                assert!(
                    rt.as_units() <= task.deadline + 1e-9,
                    "{}: response {:.3} > deadline {}",
                    task.id,
                    rt.as_units(),
                    task.deadline
                );
            }
        }
    }

    #[test]
    fn executed_time_matches_task_demand() {
        let (tasks, partition) = paper_example();
        let horizon = 240.0;
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(horizon),
        )
        .unwrap();
        // All jobs complete, so the executed time per mode approaches the
        // mode utilisation × horizon (edge effects at the horizon aside).
        for mode in Mode::ALL {
            let demand = tasks.mode_utilization(mode) * horizon;
            let executed = report.executed_time[mode];
            assert!(
                (executed - demand).abs() < demand * 0.1 + 5.0,
                "{mode}: executed {executed:.1}, demand {demand:.1}"
            );
        }
    }

    #[test]
    fn fault_on_ft_slot_is_masked() {
        let (tasks, partition) = paper_example();
        // The FT useful window of the first cycle is [0, 0.820); a fault on
        // core 2 during it overlaps whatever FT job is running then.
        let schedule = FaultSchedule::new(vec![fault_at(0.1, 0.3, 2)]).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 60.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.outcomes[Mode::FaultTolerant].correct_masked >= 1);
        assert_eq!(report.outcomes[Mode::FaultTolerant].wrong_result, 0);
        assert!(report.integrity_preserved());
        assert!(report.all_deadlines_met());
        assert!(report.effective_faults >= 1);
    }

    #[test]
    fn fault_on_fs_slot_silences_but_never_corrupts() {
        let (tasks, partition) = paper_example();
        // The FS useful window of the first cycle is roughly
        // [0.837, 2.118); core 1 belongs to FS channel 0.
        let schedule = FaultSchedule::new(vec![fault_at(1.0, 0.4, 1)]).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 60.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.outcomes[Mode::FailSilent].silenced_lost >= 1);
        assert_eq!(report.outcomes[Mode::FailSilent].wrong_result, 0);
        assert!(report.integrity_preserved());
    }

    #[test]
    fn fault_on_nf_slot_can_corrupt_results() {
        let (tasks, partition) = paper_example();
        // The NF useful window of the first cycle is roughly
        // [2.135, 2.950); core 0 hosts NF channel 0 (task τ1).
        let schedule = FaultSchedule::new(vec![fault_at(2.3, 0.4, 0)]).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 60.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.outcomes[Mode::NonFaultTolerant].wrong_result >= 1);
        assert!(!report.integrity_preserved());
        // Protected modes are untouched by an NF-slot fault.
        assert_eq!(report.outcomes[Mode::FaultTolerant].wrong_result, 0);
        assert_eq!(report.outcomes[Mode::FailSilent].wrong_result, 0);
    }

    #[test]
    fn fault_outside_any_execution_has_no_effect() {
        let (tasks, partition) = paper_example();
        // A fault inside the FT switch overhead (~[0.820, 0.837)) of the
        // first cycle hits no executing job — at that instant nothing runs.
        let schedule = FaultSchedule::new(vec![fault_at(0.825, 0.005, 3)]).unwrap();
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
        assert_eq!(report.total_outcomes().silenced_lost, 0);
        assert_eq!(report.total_outcomes().wrong_result, 0);
        assert_eq!(report.effective_faults, 0);
    }

    #[test]
    fn invalid_horizon_is_rejected() {
        let (tasks, partition) = paper_example();
        let err = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(0.0),
        )
        .unwrap_err();
        assert_eq!(err, SimError::InvalidHorizon);
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 30.0,
                fault_schedule: FaultSchedule::none(),
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.trace.is_none());
        assert!(report.released_jobs > 0);
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_allocation() {
        let (tasks, partition) = paper_example();
        let slots = table2b_slots();
        let faults =
            FaultSchedule::new(vec![fault_at(0.1, 0.3, 2), fault_at(1.0, 0.4, 1)]).unwrap();
        let mut arena = SimArena::new();
        for record_trace in [true, false] {
            for horizon in [30.0, 120.0, 60.0] {
                let config = SimulationConfig {
                    horizon,
                    fault_schedule: faults.clone(),
                    record_trace,
                    record_response_times: false,
                };
                let fresh = simulate(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                )
                .unwrap();
                // The same arena reused across horizons and trace modes
                // (dirty from the previous run) must not change a bit.
                let reused = simulate_in(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                    &mut arena,
                )
                .unwrap();
                assert_eq!(fresh, reused, "horizon {horizon}, trace {record_trace}");
            }
        }
    }

    #[test]
    fn per_task_response_times_are_recorded() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(120.0),
        )
        .unwrap();
        // τ9 (C=1, T=4, FS) releases 30 jobs in 120 units; it must appear.
        assert!(report.worst_response_time(TaskId(9)).is_some());
        assert!(report.worst_response_time(TaskId(9)).unwrap().as_units() <= 4.0 + 1e-9);
    }

    #[test]
    fn one_schedule_serves_every_fault_draw() {
        // Faults never change the schedule: building it once and
        // classifying each draw must reproduce a fresh simulation of
        // that draw, and the build counts once while every
        // classification counts as a run.
        let (tasks, partition) = paper_example();
        let slots = table2b_slots();
        let draws = [
            FaultSchedule::none(),
            FaultSchedule::new(vec![fault_at(0.1, 0.3, 2), fault_at(1.0, 0.4, 1)]).unwrap(),
            FaultSchedule::new(vec![fault_at(2.3, 0.4, 0), fault_at(5.9, 0.4, 3)]).unwrap(),
        ];
        let build = ScheduleConfig {
            horizon: 120.0,
            record_trace: true,
            record_response_times: true,
        };
        let recorder = ftsched_obs::Recorder::new();
        let _current = recorder.enter();
        let mut arena = SimArena::new();
        let schedule = Schedule::build(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &slots,
            &build,
            &mut arena,
        )
        .unwrap();
        for faults in &draws {
            let fresh = simulate(
                &tasks,
                &partition,
                Algorithm::EarliestDeadlineFirst,
                &slots,
                &SimulationConfig {
                    horizon: 120.0,
                    fault_schedule: faults.clone(),
                    record_trace: true,
                    record_response_times: true,
                },
            )
            .unwrap();
            assert_eq!(schedule.report(faults, &mut arena), fresh);
            let classified = schedule.classify(faults, &mut arena);
            assert_eq!(classified.outcomes, fresh.outcomes);
            assert_eq!(classified.effective_faults, fresh.effective_faults);
        }
        let m = recorder.snapshot();
        // One shared build plus one per fresh `simulate`; two runs per
        // draw on the shared schedule plus one per fresh simulation.
        assert_eq!(m.timing.arena_fresh + m.timing.arena_reused, 4);
        assert_eq!(m.counters.sim_runs, 9);
    }

    /// Checks every channel's cycle index against its definition and
    /// returns the largest bucket shift.
    fn assert_cycle_index_is_exact(schedule: &Schedule) -> u32 {
        let (mut slices_start, mut index_start) = (0, 0);
        let mut widest = 0;
        for channel in &schedule.channels {
            let slices = &schedule.spans[slices_start..channel.slices_end];
            let index = &schedule.cycle_index[index_start..channel.index_end];
            assert!(!slices.is_empty());
            assert!(index.len() <= slices.len() + 1, "{} entries", index.len());
            for (bucket, &first) in index.iter().enumerate() {
                let from = ((bucket as u64) << channel.bucket_shift) * schedule.period;
                let expected = slices.iter().position(|s| s.1.ticks() > from);
                assert_eq!(
                    first as usize,
                    slices_start + expected.unwrap_or(slices.len())
                );
            }
            let covered = (index.len() as u64) << channel.bucket_shift;
            assert!(covered * schedule.period >= schedule.horizon_ticks);
            widest = widest.max(channel.bucket_shift);
            slices_start = channel.slices_end;
            index_start = channel.index_end;
        }
        widest
    }

    #[test]
    fn cycle_index_is_exact_and_no_longer_than_the_slices() {
        // The paper design: the busy channels have more slices than
        // cycles, so one entry a cycle.
        let (tasks, partition) = paper_example();
        let mut arena = SimArena::new();
        let config = ScheduleConfig {
            horizon: 240.0,
            record_trace: false,
            record_response_times: false,
        };
        let schedule = Schedule::build(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &config,
            &mut arena,
        )
        .unwrap();
        assert_cycle_index_is_exact(&schedule);
        assert!(schedule.channels.iter().any(|c| c.bucket_shift == 0));

        // P = 0.01 over 1,000 units: 100,000 cycles for a few dozen
        // slices per channel, so each entry spans many cycles.
        let tasks = TaskSet::new(
            Mode::ALL
                .iter()
                .enumerate()
                .map(|(i, &mode)| Task::implicit_deadline(i as u32 + 1, 0.004, 50.0, mode).unwrap())
                .collect(),
        )
        .unwrap();
        let part = |mode, id| ModePartition::new(mode, vec![vec![TaskId(id)]]).unwrap();
        let partition = SystemPartition::new(
            part(Mode::FaultTolerant, 1),
            part(Mode::FailSilent, 2),
            part(Mode::NonFaultTolerant, 3),
        );
        let slots = SlotSchedule::new(0.01, PerMode::splat(0.003), PerMode::splat(0.0003)).unwrap();
        let config = ScheduleConfig {
            horizon: 1000.0,
            ..config
        };
        let schedule = Schedule::build(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &slots,
            &config,
            &mut arena,
        )
        .unwrap();
        assert!(assert_cycle_index_is_exact(&schedule) > 0);
        assert!(schedule.cycle_index.len() <= schedule.spans.len() + schedule.channels.len());
    }

    #[test]
    fn event_engine_matches_slot_stepping_reference() {
        // The proptest battery in `tests/sim_equivalence.rs` covers
        // randomised workloads; this is the fast in-crate smoke over the
        // paper design with and without faults.
        let (tasks, partition) = paper_example();
        let slots = table2b_slots();
        let faults =
            FaultSchedule::new(vec![fault_at(0.1, 0.3, 2), fault_at(5.9, 0.4, 1)]).unwrap();
        for schedule in [FaultSchedule::none(), faults] {
            for record_trace in [true, false] {
                let config = SimulationConfig {
                    horizon: 120.0,
                    fault_schedule: schedule.clone(),
                    record_trace,
                    record_response_times: true,
                };
                let event = simulate(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                )
                .unwrap();
                let slot = crate::reference::simulate_slot_stepping(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                )
                .unwrap();
                assert_eq!(event, slot, "trace {record_trace}");
            }
        }
    }
}

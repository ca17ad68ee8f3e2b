//! # ftsched-sim
//!
//! Discrete-event simulation of the paper's time-partitioned, partitioned-
//! scheduling scheme: the time line of Figure 2 (periodic FT/FS/NF slots
//! with switch-out overheads), partitioned FP/EDF dispatching inside each
//! slot, deadline monitoring, and job-level fault semantics driven by the
//! platform model of `ftsched-platform`.
//!
//! The simulator serves two purposes in the reproduction:
//!
//! 1. **Validation of the analysis** — any design produced by
//!    `ftsched-design` (a feasible period and per-mode quanta) must run
//!    without a single deadline miss in the worst-case synchronous-release
//!    scenario. The integration tests exercise exactly that.
//! 2. **Fault-injection experiments** — with a
//!    [`ftsched_platform::FaultSchedule`] attached, every job is classified
//!    as correct, masked, silenced or corrupted according to the mode of
//!    its channel, regenerating the Ext-B experiment of `DESIGN.md`.
//!
//! Modules:
//!
//! * [`slot`] — the [`slot::SlotSchedule`]: which mode (and which phase,
//!   useful or overhead) owns any instant of simulated time.
//! * [`job`] — job instances with release, deadline and remaining work.
//! * [`queue`] — RM/DM/EDF ready queues.
//! * [`engine`] — the per-channel event-driven simulation engine: a
//!   fault-independent [`engine::Schedule`] built once per design, then
//!   classified per fault schedule.
//! * [`trace`] — execution slices and per-job records.
//! * [`report`] — aggregated metrics ([`report::SimulationReport`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod error;
pub mod job;
pub mod queue;
pub mod reference;
pub mod report;
pub mod slot;
pub mod stats;
pub mod trace;

pub use engine::{
    simulate, simulate_in, FaultClassification, Schedule, ScheduleConfig, SimArena,
    SimulationConfig,
};
pub use error::SimError;
pub use report::SimulationReport;
pub use slot::{SlotPhase, SlotSchedule};
pub use stats::{per_task_stats, render_stats_table, TaskStats};

//! # ftsched
//!
//! A from-scratch Rust reproduction of *"A Flexible Scheme for Scheduling
//! Fault-Tolerant Real-Time Tasks on Multiprocessors"* (M. Cirinei,
//! E. Bini, G. Lipari, A. Ferrari — IPPS 2007).
//!
//! The paper proposes a four-processor platform that is periodically
//! reconfigured between a redundant lock-step *fault-tolerant* mode, a
//! dual lock-step *fail-silent* mode and a fully parallel
//! *non-fault-tolerant* mode, and shows how to size the period and the
//! per-mode time slots with hierarchical scheduling theory so that every
//! sporadic task meets its deadlines in the mode its criticality demands.
//!
//! This facade crate re-exports the whole workspace and provides the
//! high-level [`pipeline`] that strings the pieces together:
//!
//! ```
//! use ftsched_core::prelude::*;
//!
//! // The 13-task example of the paper's Table 1, with its manual
//! // partition and O_tot = 0.05.
//! let problem = paper_problem(Algorithm::EarliestDeadlineFirst);
//!
//! // Pick the design that minimises the bandwidth wasted in overheads
//! // (Table 2(b): P = 2.966, quanta 0.820 / 1.281 / 0.815).
//! let outcome = design_and_validate(
//!     &problem,
//!     DesignGoal::MinimizeOverheadBandwidth,
//!     &PipelineConfig::default(),
//! ).unwrap();
//!
//! assert!((outcome.solution.period - 2.966).abs() < 0.01);
//! assert!(outcome.simulation.all_deadlines_met());
//! ```
//!
//! Layering (one crate per subsystem):
//!
//! | crate | contents |
//! |-------|----------|
//! | [`ftsched_task`] | sporadic task model, modes, partitions, generators |
//! | [`ftsched_analysis`] | supply functions, FP/EDF hierarchical tests, `minQ` |
//! | [`ftsched_platform`] | channel layouts, fault model and per-mode job outcomes |
//! | [`ftsched_sim`] | slot-based discrete-event scheduling simulator |
//! | [`ftsched_design`] | feasible-period region, quanta selection, design goals |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pipeline;

pub use pipeline::{
    design_and_validate, design_and_validate_in, design_stage, design_stage_with, validate_stage,
    PipelineConfig, PipelineOutcome,
};

/// Convenience re-exports of the most commonly used items of every layer.
pub mod prelude {
    pub use ftsched_analysis::{
        min_quantum, min_quantum_multi, Algorithm, LinearSupply, PeriodicSlotSupply, SupplyFunction,
    };
    pub use ftsched_design::{
        baseline::{compare_schemes, Scheme},
        goals::{solve, solve_all},
        partitioner::{partition_system, PartitionHeuristic},
        problem::paper_problem,
        quanta::{distribute_slack, minimum_allocation, SlackPolicy},
        region::{
            max_admissible_overhead, max_feasible_period, max_slack_ratio_period, sweep_region,
            RegionConfig,
        },
        sensitivity::{
            max_total_overhead_at_period, mode_bandwidth_margin, wcet_margin_curve,
            wcet_scaling_margin, wcet_scaling_margin_with,
        },
        AnalysisContext, DesignGoal, DesignProblem, DesignSolution,
    };
    pub use ftsched_platform::{classify_outcome, Fault, FaultModel, FaultSchedule, JobOutcome};
    pub use ftsched_sim::{
        simulate, simulate_in, FaultClassification, Schedule, ScheduleConfig, SimArena,
        SimulationConfig, SimulationReport, SlotSchedule,
    };
    pub use ftsched_task::{
        examples::{paper_example, paper_partition, paper_taskset, PAPER_TOTAL_OVERHEAD},
        generator::{generate_taskset, GeneratorConfig},
        Duration, Mode, ModePartition, PerMode, SystemPartition, Task, TaskBuilder, TaskId,
        TaskSet, Time,
    };

    pub use crate::pipeline::{
        design_and_validate, design_and_validate_in, design_stage, design_stage_with,
        validate_stage, PipelineConfig, PipelineOutcome,
    };
}

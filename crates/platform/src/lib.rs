//! # ftsched-platform
//!
//! What the scheduling simulator needs of the reconfigurable
//! four-processor platform of the paper's Figure 1 (§2.4): four identical
//! cores behind a checker that can be reconfigured on line into three
//! arrangements:
//!
//! * **FT** — all four cores in redundant lock-step; the checker commits
//!   the majority value, so a single transient fault is *masked*;
//! * **FS** — two pairs of cores in lock-step; a mismatch inside a pair
//!   blocks the commit and silences that channel, so faults are *detected*
//!   but the affected work is lost;
//! * **NF** — four independent cores; whatever a core produces is
//!   committed, so a fault can propagate a *wrong result*.
//!
//! The paper uses this platform only for these per-mode fault semantics
//! and leaves recovery out of scope (§2.1), so the crate holds just the
//! channel layouts, the single-transient fault model and the job-level
//! outcome each mode implies.
//!
//! Modules:
//!
//! * [`cpu`] — core identifiers.
//! * [`channel`] — grouping of cores into lock-step channels per mode.
//! * [`fault`] — the single-transient-fault model (seeded, or from an
//!   explicit schedule).
//! * [`outcome`] — the per-mode job outcome classification used by the
//!   scheduling simulator (`ftsched-sim`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod cpu;
pub mod fault;
pub mod outcome;

pub use channel::ChannelLayout;
pub use fault::{Fault, FaultModel, FaultSchedule};
pub use outcome::{classify_outcome, JobOutcome};

//! # ftsched-analysis
//!
//! Hierarchical schedulability analysis for the `ftsched` reproduction of
//! *"A Flexible Scheme for Scheduling Fault-Tolerant Real-Time Tasks on
//! Multiprocessors"* (Cirinei, Bini, Lipari, Ferrari — IPPS 2007).
//!
//! The paper schedules each class of tasks (FT / FS / NF) inside a
//! periodically recurring time slot. The computational service a slot
//! provides is captured by a *supply function* and schedulability inside
//! the slot is decided with the hierarchical-scheduling results of Lipari &
//! Bini and Shin & Lee. This crate implements that entire analytical layer:
//!
//! * [`supply`] — supply functions: the exact `Z_k(t)` of the paper's
//!   Lemma 1, the linear lower bound `Z'_k(t) = max(0, α(t − Δ))` of Eq. 3,
//!   and a dedicated-processor reference supply.
//! * [`points`] — the test-point sets the two schedulability theorems
//!   quantify over: Bini–Buttazzo scheduling points `schedP_i` for fixed
//!   priorities and the deadline set `dlSet` up to the hyperperiod for EDF.
//! * [`workload`] — the workload/demand functions: the level-i workload
//!   `W_i(t)` of Eq. 5 and the EDF processor demand `W(t)` of Eq. 9.
//! * [`fp`] — fixed-priority analysis: classic response-time analysis on a
//!   dedicated processor, utilisation bounds, and the hierarchical test of
//!   Theorem 1.
//! * [`edf`] — EDF analysis: processor-demand test on a dedicated
//!   processor and the hierarchical test of Theorem 2.
//! * [`minq`] — the inversion of those tests into the minimum slot quantum
//!   `minQ(T, alg, P)` of Eq. 6 (FP) and Eq. 11 (EDF), the function the
//!   whole design methodology of the paper is built on.
//! * [`sweep`] — the sweep-aware form of `minQ`: [`sweep::MinQSweep`]
//!   precomputes the period-independent `(t, W(t))` pairs once so period
//!   grids evaluate only the closed-form `q(t)` per sample. The one-shot
//!   [`min_quantum`] is a thin wrapper over it.
//! * [`scheduler`] — the [`scheduler::Algorithm`] selector shared by all
//!   layers (RM, DM or EDF).
//!
//! Everything here is pure, allocation-light `f64` math: the design layer
//! sweeps these functions over thousands of candidate periods and the
//! campaign experiments call them millions of times.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod edf;
pub mod error;
pub mod fp;
pub mod minq;
pub mod multislot;
pub mod points;
pub mod scheduler;
pub mod supply;
pub mod sweep;
pub mod workload;

pub use edf::DEFAULT_HORIZON_CAP;
pub use error::AnalysisError;
pub use minq::{min_quantum, min_quantum_multi, MinQuantum};
pub use multislot::{min_quantum_multislot, MultiSlotSupply};
pub use scheduler::Algorithm;
pub use supply::{DedicatedSupply, LinearSupply, PeriodicSlotSupply, SupplyFunction};
pub use sweep::{MinQSweep, MinQSweepMulti};

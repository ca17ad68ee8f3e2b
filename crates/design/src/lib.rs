//! # ftsched-design
//!
//! The design methodology of *"A Flexible Scheme for Scheduling
//! Fault-Tolerant Real-Time Tasks on Multiprocessors"* (Cirinei, Bini,
//! Lipari, Ferrari — IPPS 2007): given a partitioned, mode-annotated task
//! set and the mode-switch overheads, choose the slot period `P` and the
//! per-mode time quanta `Q_FT, Q_FS, Q_NF` so that every task meets its
//! deadlines in its required operating mode.
//!
//! The crate implements §3.3 and §4 of the paper:
//!
//! * [`problem`] — the [`problem::DesignProblem`]: task set, partition,
//!   scheduling algorithm and overheads.
//! * [`context`] — the sweep-aware [`context::AnalysisContext`]: the
//!   per-mode `(t, W(t))` point sets precomputed once per problem, so the
//!   period searches below evaluate any number of candidate periods
//!   without re-enumerating scheduling points or deadline sets.
//! * [`region`] — the feasible-period region of Eq. 15: the function
//!   `f(P) = P − Σ_k max_i minQ(T_k^i, alg, P)` whose super-level set
//!   `{P : f(P) ≥ O_tot}` contains every admissible period. This is what
//!   the paper's Figure 4 plots for EDF and RM.
//! * [`quanta`] — given an admissible period, the minimum per-mode quanta
//!   of Eq. 12–14 and the distribution of the residual slack.
//! * [`goals`] — the two design goals demonstrated in the paper
//!   (minimise the overhead bandwidth ⇒ maximise `P`; maximise the
//!   redistributable slack bandwidth ⇒ maximise `(f(P)−O_tot)/P`) plus a
//!   custom-weight goal.
//! * [`solution`] — the resulting [`solution::DesignSolution`] with the
//!   Table 2 quantities (allocated bandwidths, slack, per-mode
//!   utilisations).
//! * [`partitioner`] — automatic partitioning heuristics (first-fit /
//!   best-fit / worst-fit decreasing) for when no manual partition is
//!   given (the paper assumes a manual partition but cites \[6] for
//!   automatic ones).
//! * [`sensitivity`] — how far each overhead or task WCET can grow before
//!   the chosen design becomes infeasible.
//! * [`baseline`] — comparison baselines: a static all-FT lock-step
//!   platform, a fully parallel platform with no fault protection, and a
//!   software primary/backup scheme.
//! * [`report`] — plain-text and CSV rendering of regions and solutions
//!   used by the experiment binaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod context;
pub mod error;
pub mod goals;
pub mod partitioner;
pub mod problem;
pub mod quanta;
pub mod region;
pub mod report;
pub mod sensitivity;
pub mod solution;

pub use context::{AnalysisContext, ScaledContext};
pub use error::DesignError;
pub use goals::DesignGoal;
pub use problem::DesignProblem;
pub use region::{FeasibleRegion, RegionPoint};
pub use solution::DesignSolution;

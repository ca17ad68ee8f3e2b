//! Shared helpers for the `ftsched` experiment binaries, and the
//! `ftsched bench` perf ledger.
//!
//! Every experiment binary in `src/bin/` regenerates one table or figure of
//! the paper (or the supply-bound ablation) and prints it to stdout in a
//! stable, diff-friendly format. The helpers here keep the binaries short:
//! the paper design problems and common table formatting.
//!
//! Modules:
//!
//! * [`perf`] — the timed workloads behind `ftsched bench`, which write the
//!   `BENCH_*.json` ledger at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod perf;

use ftsched_analysis::Algorithm;
use ftsched_design::problem::paper_problem;
use ftsched_design::DesignProblem;

/// The paper's design problem under EDF (Table 1 task set, §4 partition,
/// `O_tot = 0.05`).
pub fn paper_edf() -> DesignProblem {
    paper_problem(Algorithm::EarliestDeadlineFirst)
}

/// The paper's design problem under RM.
pub fn paper_rm() -> DesignProblem {
    paper_problem(Algorithm::RateMonotonic)
}

/// Prints a rule line used to visually separate experiment sections.
pub fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_problems_build() {
        assert_eq!(paper_edf().tasks.len(), 13);
        assert_eq!(paper_rm().algorithm, Algorithm::RateMonotonic);
    }
}

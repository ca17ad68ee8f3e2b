//! Shared helpers for the `ftsched` experiment binaries and Criterion
//! benchmarks.
//!
//! Every experiment binary in `src/bin/` regenerates one table or figure of
//! the paper (or one of the extension experiments listed in `DESIGN.md`)
//! and prints it to stdout in a stable, diff-friendly format. The helpers
//! here keep the binaries short: a tiny argument parser (`--seed N`,
//! `--fast`), the paper design problems, and common table formatting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod perf;

use ftsched_analysis::Algorithm;
use ftsched_design::problem::paper_problem;
use ftsched_design::DesignProblem;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Seed for every randomised component (default 2007, the paper's
    /// publication year).
    pub seed: u64,
    /// Reduced problem sizes for quick smoke runs (`--fast`).
    pub fast: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seed: 2007,
            fast: false,
        }
    }
}

impl ExperimentOptions {
    /// Parses `--seed <n>` and `--fast` from the process arguments,
    /// ignoring anything else.
    pub fn from_args() -> Self {
        let mut options = ExperimentOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    if let Some(value) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        options.seed = value;
                        i += 1;
                    }
                }
                "--fast" => options.fast = true,
                _ => {}
            }
            i += 1;
        }
        options
    }
}

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
    fn default_options() {
        let o = ExperimentOptions::default();
        assert_eq!(o.seed, 2007);
        assert!(!o.fast);
    }

    #[test]
    fn paper_problems_build() {
        assert_eq!(paper_edf().tasks.len(), 13);
        assert_eq!(paper_rm().algorithm, Algorithm::RateMonotonic);
    }
}

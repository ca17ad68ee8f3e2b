//! Per-mode classification of what a transient fault does to a job.
//!
//! The scheduling simulator (`ftsched-sim`) tracks jobs, not work units; it
//! only needs to know, for a job that executed while a fault was active on
//! one of its channel's cores, what the checker's behaviour implies for
//! the job's result. That mapping is the essence of §2.2/§2.4;
//! `tests/fault_injection.rs` checks it against an independent lock-step
//! model of the four cores.

use serde::{Deserialize, Serialize};

use ftsched_task::Mode;

/// The fate of one job's result with respect to faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobOutcome {
    /// No fault overlapped the job: the correct result was committed.
    CorrectNoFault,
    /// A fault overlapped the job but the redundant lock-step channel
    /// masked it: the correct result was committed (FT mode).
    CorrectMasked,
    /// A fault overlapped the job and the comparator silenced the channel:
    /// no result was committed, but nothing wrong propagated (FS mode).
    SilencedLost,
    /// A fault overlapped the job on an unprotected core: a wrong result
    /// may have been committed (NF mode).
    WrongResult,
}

/// Classifies a job's outcome given the mode its channel was configured in
/// and whether a transient fault on one of that channel's cores overlapped
/// the job's execution.
///
/// This is the job-level summary of the checker behaviour: majority voting
/// masks the fault in FT, comparison blocks the commit in FS, and nothing
/// protects NF.
pub fn classify_outcome(mode: Mode, fault_overlapped: bool) -> JobOutcome {
    if !fault_overlapped {
        return JobOutcome::CorrectNoFault;
    }
    match mode {
        Mode::FaultTolerant => JobOutcome::CorrectMasked,
        Mode::FailSilent => JobOutcome::SilencedLost,
        Mode::NonFaultTolerant => JobOutcome::WrongResult,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_jobs_are_always_correct() {
        for mode in Mode::ALL {
            assert_eq!(classify_outcome(mode, false), JobOutcome::CorrectNoFault);
        }
    }

    #[test]
    fn ft_masks_fs_silences_nf_corrupts() {
        assert_eq!(
            classify_outcome(Mode::FaultTolerant, true),
            JobOutcome::CorrectMasked
        );
        assert_eq!(
            classify_outcome(Mode::FailSilent, true),
            JobOutcome::SilencedLost
        );
        assert_eq!(
            classify_outcome(Mode::NonFaultTolerant, true),
            JobOutcome::WrongResult
        );
    }

    #[test]
    fn outcome_predicates_are_consistent_with_mode_semantics() {
        for mode in Mode::ALL {
            let outcome = classify_outcome(mode, true);
            assert_eq!(
                outcome == JobOutcome::WrongResult,
                mode.can_propagate_wrong_results()
            );
            assert_eq!(outcome == JobOutcome::CorrectMasked, mode.masks_faults());
            assert_eq!(outcome != JobOutcome::WrongResult, mode.detects_faults());
        }
    }

    /// The job-level classification must agree with what each mode's
    /// checker does to one work unit when one replica is corrupted:
    /// majority vote over four (FT), comparison of a pair (FS), no check
    /// on a lone core (NF).
    #[test]
    fn classification_matches_checker_behaviour() {
        const GOLDEN: u64 = 0x5EED;
        let corrupted = |replicas: usize| {
            let mut words = vec![GOLDEN; replicas];
            words[replicas - 1] ^= 0xF00D;
            words
        };
        let check = |words: &[u64]| -> Option<u64> {
            match words {
                [only] => Some(*only),
                [a, b] => (a == b).then_some(*a),
                _ => words
                    .iter()
                    .copied()
                    .find(|w| 2 * words.iter().filter(|v| *v == w).count() > words.len()),
            }
        };
        for mode in Mode::ALL {
            let expected = match check(&corrupted(mode.cores_per_channel())) {
                Some(GOLDEN) => JobOutcome::CorrectMasked,
                None => JobOutcome::SilencedLost,
                Some(_) => JobOutcome::WrongResult,
            };
            assert_eq!(classify_outcome(mode, true), expected, "{mode}");
        }
    }
}

//! Earliest-deadline-first schedulability analysis.
//!
//! * [`schedulable_dedicated`] — processor-demand test on a dedicated
//!   processor (Baruah et al.): `∀ t ∈ dlSet: W(t) ≤ t`, plus the
//!   utilisation ≤ 1 necessary condition. For implicit deadlines this
//!   reduces to `U ≤ 1`.
//! * [`schedulable_with_supply`] — the hierarchical test of the paper's
//!   **Theorem 2**: `∀ t ∈ dlSet(T): W(t) ≤ Z(t)`, where `W(t)` is the
//!   demand of Eq. 9 and `Z` the slot supply. With the linear supply this
//!   is Eq. 8 (`Δ ≤ t − W(t)/α`).

use ftsched_task::TaskSet;

use crate::points::{capped_hyperperiod, deadline_set};
use crate::supply::SupplyFunction;
use crate::workload::edf_demand;

/// Default cap on the analysis horizon when a generated task set has a
/// pathologically long hyperperiod. The Table 1 task sets stay far below
/// this value.
pub const DEFAULT_HORIZON_CAP: f64 = 100_000.0;

/// Exact EDF test on a dedicated processor (processor-demand test).
pub fn schedulable_dedicated(tasks: &TaskSet) -> bool {
    if tasks.is_empty() {
        return true;
    }
    if tasks.utilization() > 1.0 + 1e-12 {
        return false;
    }
    if tasks.all_implicit_deadlines() {
        // Liu & Layland: EDF with implicit deadlines is schedulable iff U ≤ 1.
        return true;
    }
    let horizon = capped_hyperperiod(tasks.tasks(), DEFAULT_HORIZON_CAP);
    deadline_set(tasks.tasks(), horizon)
        .iter()
        .all(|&t| edf_demand(tasks.tasks(), t) <= t + 1e-9)
}

/// The hierarchical EDF test of the paper's **Theorem 2**, generalised to
/// any non-decreasing supply function: all demands up to the hyperperiod
/// must fit in the guaranteed supply.
pub fn schedulable_with_supply(tasks: &TaskSet, supply: &impl SupplyFunction) -> bool {
    schedulable_with_supply_capped(tasks, supply, DEFAULT_HORIZON_CAP)
}

/// Same as [`schedulable_with_supply`] with an explicit cap on the analysis
/// horizon (useful for campaign experiments on generated workloads whose
/// exact hyperperiod is astronomically large; the capped test stays
/// sufficient-only in that case).
pub fn schedulable_with_supply_capped(
    tasks: &TaskSet,
    supply: &impl SupplyFunction,
    horizon_cap: f64,
) -> bool {
    if tasks.is_empty() {
        return true;
    }
    if tasks.utilization() > supply.rate() + 1e-12 {
        return false;
    }
    let horizon = capped_hyperperiod(tasks.tasks(), horizon_cap);
    deadline_set(tasks.tasks(), horizon)
        .iter()
        .all(|&t| edf_demand(tasks.tasks(), t) <= supply.supply(t) + 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::{DedicatedSupply, LinearSupply, PeriodicSlotSupply};
    use ftsched_task::{Mode, Task};

    fn task(id: u32, c: f64, t: f64) -> Task {
        Task::implicit_deadline(id, c, t, Mode::NonFaultTolerant).unwrap()
    }

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::new(tasks).unwrap()
    }

    #[test]
    fn implicit_deadline_sets_are_schedulable_iff_u_at_most_one() {
        let ok = set(vec![task(1, 2.0, 4.0), task(2, 3.0, 6.0)]); // U = 1.0
        assert!(schedulable_dedicated(&ok));
        let overloaded = set(vec![task(1, 2.0, 4.0), task(2, 3.1, 6.0)]);
        assert!(!schedulable_dedicated(&overloaded));
    }

    #[test]
    fn constrained_deadline_demand_test() {
        // U < 1 but a tight deadline makes it infeasible:
        // two tasks with C=2 and D=2 released together cannot both finish by 2.
        let t1 = Task::constrained_deadline(1, 2.0, 10.0, 2.0, Mode::NonFaultTolerant).unwrap();
        let t2 = Task::constrained_deadline(2, 2.0, 10.0, 2.0, Mode::NonFaultTolerant).unwrap();
        assert!(!schedulable_dedicated(&set(vec![t1, t2])));
        // Relax one deadline and it fits.
        let t1 = Task::constrained_deadline(1, 2.0, 10.0, 2.0, Mode::NonFaultTolerant).unwrap();
        let t2 = Task::constrained_deadline(2, 2.0, 10.0, 4.0, Mode::NonFaultTolerant).unwrap();
        assert!(schedulable_dedicated(&set(vec![t1, t2])));
    }

    #[test]
    fn dedicated_supply_agrees_with_dedicated_test() {
        let sets = vec![
            set(vec![task(1, 2.0, 4.0), task(2, 3.0, 6.0)]),
            set(vec![task(1, 1.0, 4.0), task(2, 1.0, 12.0)]),
            set(vec![task(1, 2.0, 4.0), task(2, 3.1, 6.0)]),
        ];
        for ts in sets {
            assert_eq!(
                schedulable_dedicated(&ts),
                schedulable_with_supply(&ts, &DedicatedSupply),
                "{ts:?}"
            );
        }
    }

    #[test]
    fn theorem_2_on_linear_supply_matches_eq_8() {
        // Single task (C=1, T=D=4) on slot (Q̃, P): schedulable iff
        // Δ ≤ 4 − 1/α, i.e. (P − Q̃) ≤ 4 − P/Q̃.
        let ts = set(vec![task(1, 1.0, 4.0)]);
        let tight = LinearSupply::from_slot(1.0, 3.0).unwrap(); // Δ=2 > 4−3=1
        assert!(!schedulable_with_supply(&ts, &tight));
        let ok = LinearSupply::from_slot(2.0, 3.0).unwrap(); // Δ=1 ≤ 4−1.5=2.5
        assert!(schedulable_with_supply(&ts, &ok));
    }

    #[test]
    fn theorem2_slack_threshold_is_exact() {
        let ts = set(vec![task(1, 1.0, 4.0), task(2, 1.0, 6.0)]);
        let alpha = 0.5;
        // Eq. 8's slack `min (t − W(t)/α)` over the deadlines 4, 6, 8, 12
        // of the hyperperiod: 4 − 2, 6 − 4, 8 − 6 and 12 − 10 are all 2.
        let slack = 2.0;
        // Just-feasible delay: Δ = slack. Slightly below is feasible,
        // slightly above is not.
        let ok = LinearSupply::new(alpha, slack - 1e-6).unwrap();
        assert!(schedulable_with_supply(&ts, &ok));
        let bad = LinearSupply::new(alpha, slack + 1e-3).unwrap();
        assert!(!schedulable_with_supply(&ts, &bad));
    }

    #[test]
    fn overloaded_sets_are_rejected_immediately() {
        let ts = set(vec![task(1, 3.0, 4.0)]);
        let supply = LinearSupply::from_slot(1.0, 2.0).unwrap();
        assert!(!schedulable_with_supply(&ts, &supply));
    }

    #[test]
    fn edf_dominates_rm_on_supply() {
        // Any set schedulable by the FP test must also be schedulable by
        // EDF on the same supply (EDF optimality on a shared budget).
        use crate::fp;
        use ftsched_task::PriorityOrder;
        let candidates = vec![
            set(vec![
                task(1, 1.0, 6.0),
                task(2, 1.0, 8.0),
                task(3, 1.0, 12.0),
            ]),
            set(vec![
                task(1, 1.0, 10.0),
                task(2, 1.0, 15.0),
                task(3, 2.0, 20.0),
            ]),
            set(vec![task(4, 2.0, 10.0)]),
        ];
        for ts in candidates {
            for (q, p) in [(0.5, 2.0), (0.82, 2.966), (1.2, 3.0)] {
                let supply = LinearSupply::from_slot(q, p).unwrap();
                let by_rm = fp::schedulable_with_supply(&ts, PriorityOrder::RateMonotonic, &supply);
                let by_edf = schedulable_with_supply(&ts, &supply);
                if by_rm {
                    assert!(
                        by_edf,
                        "RM accepted but EDF refused (q={q}, p={p}, set={ts:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_supply_accepts_whatever_the_linear_bound_accepts() {
        let ts = set(vec![task(1, 1.0, 6.0), task(2, 1.0, 8.0)]);
        for (q, p) in [(0.5, 2.0), (0.9, 3.0), (0.4, 1.5)] {
            let exact = PeriodicSlotSupply::new(q, p).unwrap();
            let linear = exact.linear_bound();
            if schedulable_with_supply(&ts, &linear) {
                assert!(schedulable_with_supply(&ts, &exact));
            }
        }
    }

    #[test]
    fn horizon_cap_keeps_the_test_running_on_nasty_periods() {
        let ts = set(vec![
            task(1, 0.5, 7.001),
            task(2, 0.5, 11.003),
            task(3, 0.5, 13.007),
        ]);
        let supply = LinearSupply::from_slot(1.0, 2.0).unwrap();
        // Must terminate quickly despite the enormous true hyperperiod.
        let _ = schedulable_with_supply_capped(&ts, &supply, 1_000.0);
    }
}

//! Property-based tests of the analysis layer: the invariants the paper's
//! derivations rest on, checked on randomly generated task sets and slot
//! parameters.

use proptest::prelude::*;

use ftsched_analysis::{edf, fp, minq};
use ftsched_core::prelude::*;
use ftsched_task::PriorityOrder;

/// Strategy: a small implicit-deadline task with bounded utilisation.
///
/// Periods are drawn from a fixed harmonic-ish menu so the hyperperiod of
/// any generated set stays small (≤ 120), keeping the EDF deadline-set
/// analysis exact (no horizon capping) — the properties below rely on
/// that exactness.
fn arb_task(id: u32) -> impl Strategy<Value = Task> {
    const PERIODS: [f64; 8] = [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0];
    (0usize..PERIODS.len(), 5u32..=50).prop_map(move |(p_idx, util_percent)| {
        let period = PERIODS[p_idx];
        let wcet = period * util_percent as f64 / 100.0;
        Task::implicit_deadline(id, wcet, period, Mode::NonFaultTolerant).unwrap()
    })
}

/// Strategy: a task set of 1..=5 tasks.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(any::<()>(), 1..=5).prop_flat_map(|slots| {
        let n = slots.len();
        let tasks: Vec<_> = (0..n).map(|i| arb_task(i as u32 + 1)).collect();
        tasks.prop_map(|ts| TaskSet::new(ts).unwrap())
    })
}

/// Strategy: slot parameters (quantum, period) with 0 < quantum <= period.
fn arb_slot() -> impl Strategy<Value = (f64, f64)> {
    (1u32..=100, 1u32..=100).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        (lo as f64 / 10.0, hi as f64 / 10.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exact supply of Lemma 1 always dominates the linear bound of
    /// Eq. 3, and both are monotone non-decreasing and 1-Lipschitz.
    #[test]
    fn exact_supply_dominates_linear_bound((quantum, period) in arb_slot(), window in 0.0f64..50.0) {
        let exact = PeriodicSlotSupply::new(quantum, period).unwrap();
        let linear = exact.linear_bound();
        prop_assert!(linear.supply(window) <= exact.supply(window) + 1e-9);
        prop_assert!(exact.supply(window) <= window + 1e-9);
        // Monotonicity over a short forward step.
        prop_assert!(exact.supply(window + 0.25) + 1e-9 >= exact.supply(window));
    }

    /// The supply inverse is consistent with the supply.
    #[test]
    fn supply_inverse_round_trips((quantum, period) in arb_slot(), demand in 0.01f64..20.0) {
        let exact = PeriodicSlotSupply::new(quantum, period).unwrap();
        let t = exact.inverse(demand);
        prop_assert!(exact.supply(t) + 1e-6 >= demand);
        prop_assert!(exact.supply((t - 1e-4).max(0.0)) <= demand + 1e-6);
    }

    /// EDF dominance: any task set accepted by the hierarchical RM test on
    /// a given linear supply is also accepted by the hierarchical EDF test.
    #[test]
    fn edf_dominates_rm_on_any_supply(tasks in arb_taskset(), (quantum, period) in arb_slot()) {
        let supply = LinearSupply::from_slot(quantum, period).unwrap();
        let rm_ok = fp::schedulable_with_supply(&tasks, PriorityOrder::RateMonotonic, &supply);
        if rm_ok {
            prop_assert!(edf::schedulable_with_supply(&tasks, &supply));
        }
    }

    /// minQ is the exact schedulability threshold for EDF: the returned
    /// quantum is sufficient and (quantum − ε) is not.
    #[test]
    fn minq_is_the_edf_threshold(tasks in arb_taskset(), period_tenths in 2u32..40) {
        let period = period_tenths as f64 / 10.0;
        let mq = minq::min_quantum(&tasks, Algorithm::EarliestDeadlineFirst, period).unwrap();
        if mq.feasible() && mq.quantum > 1e-3 {
            let ok = LinearSupply::from_slot((mq.quantum + 1e-9).min(period), period).unwrap();
            prop_assert!(edf::schedulable_with_supply(&tasks, &ok));
            let bad = LinearSupply::from_slot(mq.quantum - 1e-3, period).unwrap();
            prop_assert!(!edf::schedulable_with_supply(&tasks, &bad));
        }
    }

    /// minQ never allocates less bandwidth than the task-set utilisation
    /// (necessary condition, meaningful only for non-overloaded sets) and
    /// never less under RM than under EDF.
    #[test]
    fn minq_ordering_and_bandwidth(tasks in arb_taskset(), period_tenths in 2u32..40) {
        let period = period_tenths as f64 / 10.0;
        let edf_q = minq::min_quantum(&tasks, Algorithm::EarliestDeadlineFirst, period).unwrap();
        let rm_q = minq::min_quantum(&tasks, Algorithm::RateMonotonic, period).unwrap();
        // EDF dominance only has meaning where RM admits a real slot at
        // all; for overloaded channels both quanta exceed the period and
        // their relative order is unconstrained.
        if rm_q.feasible() {
            prop_assert!(edf_q.quantum <= rm_q.quantum + 1e-9);
        }
        if tasks.utilization() <= 1.0 {
            prop_assert!(edf_q.bandwidth() + 1e-9 >= tasks.utilization());
        }
    }

    /// minQ is monotone in the period: a longer slot period never requires
    /// a shorter quantum.
    #[test]
    fn minq_monotone_in_period(tasks in arb_taskset(), p1_tenths in 2u32..30, delta_tenths in 1u32..20) {
        let p1 = p1_tenths as f64 / 10.0;
        let p2 = p1 + delta_tenths as f64 / 10.0;
        for alg in [Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic] {
            let q1 = minq::min_quantum(&tasks, alg, p1).unwrap().quantum;
            let q2 = minq::min_quantum(&tasks, alg, p2).unwrap().quantum;
            prop_assert!(q2 + 1e-9 >= q1);
        }
    }

    /// The dedicated-processor tests agree between the supply-based
    /// formulation (with Z(t) = t) and the classic formulations.
    #[test]
    fn dedicated_supply_consistency(tasks in arb_taskset()) {
        let by_supply_edf = edf::schedulable_with_supply(&tasks, &ftsched_analysis::DedicatedSupply);
        prop_assert_eq!(by_supply_edf, edf::schedulable_dedicated(&tasks));
        let by_supply_rm = fp::schedulable_with_supply(
            &tasks,
            PriorityOrder::RateMonotonic,
            &ftsched_analysis::DedicatedSupply,
        );
        prop_assert_eq!(by_supply_rm, fp::schedulable_dedicated(&tasks, PriorityOrder::RateMonotonic));
    }

    /// The hyperbolic bound is sufficient: whatever it accepts, the exact
    /// response-time analysis also accepts.
    #[test]
    fn hyperbolic_bound_is_sufficient(tasks in arb_taskset()) {
        if fp::hyperbolic_bound(&tasks) {
            prop_assert!(fp::schedulable_dedicated(&tasks, PriorityOrder::RateMonotonic));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parametric sweep kernel: `with_scaled_wcets(λ)` and
    /// `rescale_into` must be **bit-identical** to a from-scratch
    /// `MinQSweep` built over the `scale_wcets`-style scaled task set
    /// (WCETs multiplied by λ, clamped at the deadline), at every λ.
    ///
    /// The inputs cover full-mantissa and dyadic WCETs (on a 1/64 grid),
    /// and four λ families: a 0.1 grid on [1, 8], dyadic sixteenths on
    /// [1, 8], non-dyadic thirds on [1, 8], and integers on [8, 64] that
    /// clamp WCETs at their deadlines.
    #[test]
    fn scaled_sweep_matches_a_from_scratch_rebuild(
        tasks in arb_taskset(),
        dyadic_wcets in 0usize..2,
        alg_idx in 0usize..3,
        lambda_family in 0usize..4,
        lambda_steps in 0u32..=112,
    ) {
        use ftsched_analysis::MinQSweep;
        let alg = Algorithm::ALL[alg_idx];
        let tasks = if dyadic_wcets == 1 {
            rebuild_with_wcets(&tasks, |t| (t.wcet * 64.0).round() / 64.0)
        } else {
            tasks
        };
        let lambda = match lambda_family {
            0 => 1.0 + f64::from(lambda_steps % 71) * 0.1,
            1 => 1.0 + f64::from(lambda_steps) / 16.0,
            2 => 1.0 + f64::from(lambda_steps % 22) / 3.0,
            _ => 8.0 + f64::from(lambda_steps % 57),
        };

        let base = MinQSweep::new(&tasks, alg).unwrap();
        let scaled = base.with_scaled_wcets(lambda);
        let mut scratch = base.clone();
        base.rescale_into(lambda, &mut scratch);

        let rebuilt_set = rebuild_with_wcets(&tasks, |t| (t.wcet * lambda).min(t.deadline));
        let rebuilt = MinQSweep::new(&rebuilt_set, alg).unwrap();

        prop_assert!(scaled == scratch, "rescale_into must equal with_scaled_wcets");
        prop_assert_eq!(scaled.magnitude().to_bits(), rebuilt.magnitude().to_bits());
        for period in (2..40).map(|tenths| f64::from(tenths) / 10.0) {
            let a = scaled.min_quantum_at(period).unwrap();
            let b = rebuilt.min_quantum_at(period).unwrap();
            prop_assert!(
                a.quantum.to_bits() == b.quantum.to_bits(),
                "λ={lambda} P={period}: {} vs {}",
                a.quantum,
                b.quantum
            );
            prop_assert_eq!(a.binding_instant.to_bits(), b.binding_instant.to_bits());
        }
        if lambda == 1.0 {
            prop_assert!(scaled == base, "λ=1 must be the identity");
        }
    }
}

/// `tasks` with every WCET replaced by `wcet(task)`.
fn rebuild_with_wcets(tasks: &TaskSet, wcet: impl Fn(&Task) -> f64) -> TaskSet {
    TaskSet::new(
        tasks
            .iter()
            .map(|t| {
                let mut clone = t.clone();
                clone.wcet = wcet(t);
                clone
            })
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// UUniFast returns exactly the requested number of non-negative
    /// utilisations summing to the target.
    #[test]
    fn uunifast_invariants(n in 1usize..20, total_tenths in 1u32..30, seed in any::<u64>()) {
        use rand::SeedableRng;
        let total = total_tenths as f64 / 10.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let utils = ftsched_task::generator::uunifast(&mut rng, n, total);
        prop_assert_eq!(utils.len(), n);
        prop_assert!(utils.iter().all(|&u| u >= -1e-12));
        let sum: f64 = utils.iter().sum();
        prop_assert!((sum - total).abs() < 1e-6);
    }

    /// Generated task sets respect the generator configuration.
    #[test]
    fn generator_respects_config(seed in any::<u64>(), n in 2usize..15, u_tenths in 2u32..30) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let total = (u_tenths as f64 / 10.0).min(n as f64 * 0.9);
        let config = GeneratorConfig::paper_like(n, total);
        let set = generate_taskset(&mut rng, &config).unwrap();
        prop_assert_eq!(set.len(), n);
        prop_assert!((set.utilization() - total).abs() < 1e-6);
        prop_assert!(set.iter().all(|t| t.wcet > 0.0 && t.wcet <= t.period));
    }
}

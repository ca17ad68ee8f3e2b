//! Deterministic per-trial seed derivation.
//!
//! Every trial of a campaign owns an independent RNG seeded from a pure
//! function of `(master_seed, workload_point, trial_index)`. The second
//! coordinate is the trial's position along the **workload axis**
//! ([`crate::spec::Scenario::workload_point`]), *not* its full scenario
//! index: scenarios that differ only in algorithm, mode-switch overhead
//! or partition heuristic share workload points and therefore draw
//! identical task sets and fault schedules — comparisons along every
//! non-workload grid axis are paired by construction, and columns stay
//! comparable however many axes a spec opens.
//!
//! Nothing about scheduling — thread count, block size, execution order —
//! enters the derivation, which is what makes campaign results
//! reproducible trial-by-trial: the coordinates recorded in a report are
//! sufficient to re-run exactly that trial in isolation.
//!
//! The mixer is SplitMix64 (Steele, Lea & Flood), applied in two rounds
//! with distinct odd constants per coordinate so that nearby workload
//! points and trial indices land far apart in seed space. The function is
//! frozen: changing it would silently re-randomise every published
//! campaign, so treat any modification as a breaking change to the
//! report format.

/// One SplitMix64 scramble round.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of one trial from the campaign's master seed and
/// the trial's workload-axis coordinates (see the module docs for why the
/// workload point — not the scenario index — is the second coordinate).
pub fn trial_seed(master_seed: u64, workload_point: usize, trial_index: usize) -> u64 {
    let a = splitmix64(master_seed ^ (workload_point as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    splitmix64(a ^ (trial_index as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_pure_functions_of_coordinates() {
        assert_eq!(trial_seed(2007, 3, 17), trial_seed(2007, 3, 17));
        assert_ne!(trial_seed(2007, 3, 17), trial_seed(2007, 3, 18));
        assert_ne!(trial_seed(2007, 3, 17), trial_seed(2007, 4, 17));
        assert_ne!(trial_seed(2007, 3, 17), trial_seed(2008, 3, 17));
    }

    #[test]
    fn nearby_coordinates_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for scenario in 0..64 {
            for trial in 0..256 {
                assert!(
                    seen.insert(trial_seed(42, scenario, trial)),
                    "collision at ({scenario}, {trial})"
                );
            }
        }
    }

    #[test]
    fn derivation_is_frozen() {
        // Golden values: a change here means every published campaign
        // re-randomises. Update only with a report-format version bump.
        assert_eq!(trial_seed(0, 0, 0), 12035550249420947055);
        assert_eq!(trial_seed(2007, 1, 2), 13932908895897689928);
    }

    /// Known-answer vectors of the `rand` shim, frozen like the
    /// derivation above: every synthetic task set and fault draw in the
    /// report goldens rests on these draws. Floats are pinned by their
    /// bits.
    #[test]
    fn rand_shim_draws_are_frozen() {
        use ftsched_task::generator::{generate_taskset, uunifast, GeneratorConfig};
        use ftsched_task::Mode;
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        let mut rng = StdRng::seed_from_u64(2007);
        let raw: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            raw,
            [
                0xb202_b9fb_9feb_d18d,
                0x4459_6ac5_3908_c86a,
                0x8bfc_5d2e_bf07_d85e,
                0x254b_7d6d_9d15_e998,
            ]
        );
        let unit: Vec<u64> = (0..3).map(|_| rng.gen::<f64>().to_bits()).collect();
        assert_eq!(
            unit,
            [
                0x3fe1_ea83_c10f_4e8e,
                0x3fe6_6060_bf71_75a1,
                0x3fd6_72af_5e49_1aee,
            ]
        );
        let ints: Vec<u64> = (0..4).map(|_| rng.gen_range(0u64..1000)).collect();
        assert_eq!(ints, [231, 235, 698, 297]);
        assert_eq!(rng.gen_range(2.0..8.0f64).to_bits(), 0x401b_cca1_422d_82df);

        let mut rng = StdRng::seed_from_u64(2007);
        let utils: Vec<u64> = uunifast(&mut rng, 4, 1.5)
            .iter()
            .map(|u| u.to_bits())
            .collect();
        assert_eq!(
            utils,
            [
                0x3fc5_e682_1024_98f0,
                0x3fe4_8d45_fcab_c381,
                0x3fd3_ea5e_e525_2fd2,
                0x3fd8_07d4_1970_fcb4,
            ]
        );

        let mut rng = StdRng::seed_from_u64(2007);
        let set = generate_taskset(&mut rng, &GeneratorConfig::paper_like(5, 1.2)).unwrap();
        let tasks: Vec<(u32, u64, f64, f64, Mode)> = set
            .iter()
            .map(|t| (t.id.0, t.wcet.to_bits(), t.period, t.deadline, t.mode))
            .collect();
        assert_eq!(
            tasks,
            [
                (1, 0x3ff4_0175_3980_0634, 12.0, 12.0, Mode::NonFaultTolerant),
                (2, 0x4008_f8f3_39f3_3b3a, 8.0, 8.0, Mode::FaultTolerant),
                (3, 0x3ff1_a5d1_ed66_605f, 6.0, 6.0, Mode::NonFaultTolerant),
                (4, 0x400c_8766_1404_9e0f, 8.0, 8.0, Mode::NonFaultTolerant),
                (5, 0x3fe8_5317_ada8_cb52, 10.0, 10.0, Mode::FailSilent),
            ]
        );
    }
}

//! Seeded random workload generators.
//!
//! The paper evaluates a single hand-built task set (Table 1). To support
//! the extension experiments (acceptance-ratio campaigns, baseline
//! comparisons, ablations) this module provides the standard generators
//! used in the real-time scheduling literature:
//!
//! * **UUniFast** (Bini & Buttazzo) — unbiased sampling of `n` utilisations
//!   summing to a target `U`;
//! * **UUniFast-discard** — the same, discarding vectors with any
//!   per-task utilisation above a cap (needed when `U > 1` is split over
//!   multiple channels);
//! * log-uniform period generation over a configurable range, optionally
//!   snapped to a grid so hyperperiods stay small;
//! * mode assignment by configurable FT/FS/NF shares.
//!
//! All generation is driven by an explicit [`rand::Rng`] so experiments can
//! fix their seed and reproduce exactly.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::TaskModelError;
use crate::mode::Mode;
use crate::task::TaskBuilder;
use crate::taskset::TaskSet;

/// How periods are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PeriodDistribution {
    /// Log-uniform between `min` and `max` (inclusive), the usual choice
    /// for synthetic real-time workloads.
    LogUniform {
        /// Smallest period.
        min: f64,
        /// Largest period.
        max: f64,
    },
    /// Uniform over an explicit menu of periods (keeps hyperperiods small;
    /// handy for simulation campaigns).
    Choice {
        /// The candidate periods.
        periods: [f64; 8],
    },
}

impl PeriodDistribution {
    /// A period menu of harmonic-ish values similar in magnitude to
    /// Table 1, keeping hyperperiods below 120 time units.
    pub fn table1_like() -> Self {
        PeriodDistribution::Choice {
            periods: [4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 30.0],
        }
    }

    fn sample(&self, rng: &mut impl Rng) -> f64 {
        match *self {
            PeriodDistribution::LogUniform { min, max } => {
                let u = Uniform::new(min.ln(), max.ln()).sample(rng);
                u.exp()
            }
            PeriodDistribution::Choice { periods } => periods[rng.gen_range(0..periods.len())],
        }
    }
}

/// Share of tasks assigned to each operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeMix {
    /// Fraction of tasks requiring FT mode.
    pub ft: f64,
    /// Fraction of tasks requiring FS mode.
    pub fs: f64,
    /// Fraction of tasks requiring NF mode.
    pub nf: f64,
}

impl ModeMix {
    /// The mix of the paper's example: 4 FT, 4 FS, 5 NF out of 13 tasks.
    pub fn paper_like() -> Self {
        ModeMix {
            ft: 4.0 / 13.0,
            fs: 4.0 / 13.0,
            nf: 5.0 / 13.0,
        }
    }

    /// Equal share for every mode.
    pub fn uniform() -> Self {
        ModeMix {
            ft: 1.0 / 3.0,
            fs: 1.0 / 3.0,
            nf: 1.0 / 3.0,
        }
    }

    /// Validates that the shares are non-negative and sum to ~1.
    pub fn validate(&self) -> Result<(), TaskModelError> {
        let sum = self.ft + self.fs + self.nf;
        if self.ft < 0.0 || self.fs < 0.0 || self.nf < 0.0 || (sum - 1.0).abs() > 1e-6 {
            return Err(TaskModelError::InvalidGeneratorConfig {
                reason: format!(
                    "mode mix must be non-negative and sum to 1 (got {:.3}+{:.3}+{:.3}={:.3})",
                    self.ft, self.fs, self.nf, sum
                ),
            });
        }
        Ok(())
    }

    fn sample(&self, rng: &mut impl Rng) -> Mode {
        let x: f64 = rng.gen();
        if x < self.ft {
            Mode::FaultTolerant
        } else if x < self.ft + self.fs {
            Mode::FailSilent
        } else {
            Mode::NonFaultTolerant
        }
    }
}

/// Configuration of the random task-set generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of tasks to generate.
    pub task_count: usize,
    /// Target total utilisation of the set.
    pub total_utilization: f64,
    /// Cap on any single task's utilisation (UUniFast-discard); use 1.0 to
    /// effectively disable the cap.
    pub max_task_utilization: f64,
    /// Period distribution.
    pub periods: PeriodDistribution,
    /// Mode shares.
    pub mode_mix: ModeMix,
    /// If `Some(g)`, periods are rounded to the nearest multiple of `g`
    /// (never below `g`). Keeps hyperperiods tractable.
    pub period_granularity: Option<f64>,
}

impl GeneratorConfig {
    /// A configuration producing sets similar in flavour to the paper's
    /// example.
    pub fn paper_like(task_count: usize, total_utilization: f64) -> Self {
        GeneratorConfig {
            task_count,
            total_utilization,
            max_task_utilization: 1.0,
            periods: PeriodDistribution::table1_like(),
            mode_mix: ModeMix::paper_like(),
            period_granularity: None,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), TaskModelError> {
        if self.task_count == 0 {
            return Err(TaskModelError::InvalidGeneratorConfig {
                reason: "task_count must be at least 1".into(),
            });
        }
        if self.total_utilization <= 0.0 || !self.total_utilization.is_finite() {
            return Err(TaskModelError::InvalidGeneratorConfig {
                reason: format!(
                    "total utilisation {} must be positive",
                    self.total_utilization
                ),
            });
        }
        if !(0.0 < self.max_task_utilization && self.max_task_utilization <= 1.0) {
            return Err(TaskModelError::InvalidGeneratorConfig {
                reason: format!(
                    "max task utilisation {} must be in (0, 1]",
                    self.max_task_utilization
                ),
            });
        }
        if self.total_utilization > self.max_task_utilization * self.task_count as f64 {
            return Err(TaskModelError::InvalidGeneratorConfig {
                reason: format!(
                    "total utilisation {} cannot be split over {} tasks capped at {}",
                    self.total_utilization, self.task_count, self.max_task_utilization
                ),
            });
        }
        self.mode_mix.validate()?;
        if let PeriodDistribution::LogUniform { min, max } = self.periods {
            if !(min > 0.0 && max >= min) {
                return Err(TaskModelError::InvalidGeneratorConfig {
                    reason: format!("period range [{min}, {max}] is invalid"),
                });
            }
        }
        Ok(())
    }
}

/// UUniFast: draws `n` utilisations that sum exactly to `total` with an
/// unbiased (uniform over the simplex) distribution.
///
/// Classic algorithm from Bini & Buttazzo, "Measuring the performance of
/// schedulability tests".
pub fn uunifast(rng: &mut impl Rng, n: usize, total: f64) -> Vec<f64> {
    assert!(n > 0, "uunifast needs at least one task");
    let mut utils = Vec::with_capacity(n);
    let mut sum_u = total;
    for i in 1..n {
        let exponent = 1.0 / (n - i) as f64;
        let next_sum: f64 = sum_u * rng.gen::<f64>().powf(exponent);
        utils.push(sum_u - next_sum);
        sum_u = next_sum;
    }
    utils.push(sum_u);
    utils
}

/// UUniFast-discard: repeats [`uunifast`] until every utilisation is at most
/// `cap`. Gives up after `max_attempts` and returns `None` (the caller can
/// relax the cap or reduce the target utilisation).
pub fn uunifast_discard(
    rng: &mut impl Rng,
    n: usize,
    total: f64,
    cap: f64,
    max_attempts: usize,
) -> Option<Vec<f64>> {
    for _ in 0..max_attempts {
        let utils = uunifast(rng, n, total);
        if utils.iter().all(|&u| u <= cap + 1e-12) {
            return Some(utils);
        }
    }
    None
}

/// Generates a random task set according to `config`.
///
/// # Errors
///
/// Returns a [`TaskModelError`] if the configuration is invalid or if the
/// UUniFast-discard cap could not be satisfied after many attempts.
pub fn generate_taskset(
    rng: &mut impl Rng,
    config: &GeneratorConfig,
) -> Result<TaskSet, TaskModelError> {
    config.validate()?;
    let utils = uunifast_discard(
        rng,
        config.task_count,
        config.total_utilization,
        config.max_task_utilization,
        10_000,
    )
    .ok_or_else(|| TaskModelError::InvalidGeneratorConfig {
        reason: format!(
            "could not split utilisation {} over {} tasks with per-task cap {}",
            config.total_utilization, config.task_count, config.max_task_utilization
        ),
    })?;

    let mut tasks = Vec::with_capacity(config.task_count);
    for (i, &u) in utils.iter().enumerate() {
        let mut period = config.periods.sample(rng);
        if let Some(g) = config.period_granularity {
            period = (period / g).round().max(1.0) * g;
        }
        // Guard against degenerate utilisations from the simplex sampling.
        let u = u.max(1e-6);
        let wcet = (u * period).max(1e-9);
        let mode = config.mode_mix.sample(rng);
        let task = TaskBuilder::new(i as u32 + 1)
            .wcet(wcet)
            .period(period)
            .mode(mode)
            .build()?;
        tasks.push(task);
    }
    TaskSet::new(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn uunifast_sums_to_target() {
        let mut r = rng(1);
        for n in [1usize, 2, 5, 13, 50] {
            for total in [0.3, 1.0, 2.5] {
                let utils = uunifast(&mut r, n, total);
                assert_eq!(utils.len(), n);
                let sum: f64 = utils.iter().sum();
                assert!((sum - total).abs() < 1e-9, "n={n} total={total} sum={sum}");
                assert!(utils.iter().all(|&u| u >= -1e-12));
            }
        }
    }

    #[test]
    fn uunifast_single_task_gets_everything() {
        let mut r = rng(2);
        let utils = uunifast(&mut r, 1, 0.7);
        assert_eq!(utils, vec![0.7]);
    }

    #[test]
    fn uunifast_discard_respects_cap() {
        let mut r = rng(3);
        let utils = uunifast_discard(&mut r, 10, 2.0, 0.5, 10_000).unwrap();
        assert!(utils.iter().all(|&u| u <= 0.5 + 1e-9));
        let sum: f64 = utils.iter().sum();
        assert!((sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn uunifast_discard_gives_up_when_impossible() {
        let mut r = rng(4);
        // 2 tasks capped at 0.4 can never sum to 1.0.
        assert!(uunifast_discard(&mut r, 2, 1.0, 0.4, 100).is_none());
    }

    #[test]
    fn generated_set_matches_target_utilization() {
        let mut r = rng(5);
        let config = GeneratorConfig::paper_like(13, 1.5);
        let set = generate_taskset(&mut r, &config).unwrap();
        assert_eq!(set.len(), 13);
        assert!((set.utilization() - 1.5).abs() < 1e-6);
        assert!(set.all_implicit_deadlines());
    }

    #[test]
    fn generation_is_reproducible_with_same_seed() {
        let config = GeneratorConfig::paper_like(8, 1.0);
        let a = generate_taskset(&mut rng(42), &config).unwrap();
        let b = generate_taskset(&mut rng(42), &config).unwrap();
        assert_eq!(a, b);
        let c = generate_taskset(&mut rng(43), &config).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn period_granularity_snaps_periods() {
        let mut r = rng(6);
        let config = GeneratorConfig {
            task_count: 20,
            total_utilization: 1.0,
            max_task_utilization: 1.0,
            periods: PeriodDistribution::LogUniform {
                min: 3.0,
                max: 100.0,
            },
            mode_mix: ModeMix::uniform(),
            period_granularity: Some(5.0),
        };
        let set = generate_taskset(&mut r, &config).unwrap();
        for task in set.iter() {
            let ratio = task.period / 5.0;
            assert!(
                (ratio - ratio.round()).abs() < 1e-9,
                "period {}",
                task.period
            );
        }
    }

    #[test]
    fn log_uniform_periods_stay_in_range() {
        let mut r = rng(7);
        let dist = PeriodDistribution::LogUniform {
            min: 10.0,
            max: 100.0,
        };
        for _ in 0..1000 {
            let p = dist.sample(&mut r);
            assert!((10.0..=100.0).contains(&p));
        }
    }

    #[test]
    fn mode_mix_shares_are_respected_in_the_large() {
        let mut r = rng(8);
        let mix = ModeMix {
            ft: 0.5,
            fs: 0.25,
            nf: 0.25,
        };
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[mix.sample(&mut r).slot_index()] += 1;
        }
        assert!((counts[0] as f64 / 10_000.0 - 0.5).abs() < 0.03);
        assert!((counts[1] as f64 / 10_000.0 - 0.25).abs() < 0.03);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut bad = GeneratorConfig::paper_like(0, 1.0);
        assert!(bad.validate().is_err());
        bad = GeneratorConfig::paper_like(5, -1.0);
        assert!(bad.validate().is_err());
        bad = GeneratorConfig::paper_like(5, 1.0);
        bad.max_task_utilization = 1.5;
        assert!(bad.validate().is_err());
        bad = GeneratorConfig::paper_like(2, 1.9);
        bad.max_task_utilization = 0.5;
        assert!(bad.validate().is_err());
        bad = GeneratorConfig::paper_like(5, 1.0);
        bad.mode_mix = ModeMix {
            ft: 0.9,
            fs: 0.9,
            nf: -0.8,
        };
        assert!(bad.validate().is_err());
        bad = GeneratorConfig::paper_like(5, 1.0);
        bad.periods = PeriodDistribution::LogUniform {
            min: -1.0,
            max: 5.0,
        };
        assert!(bad.validate().is_err());
    }
}

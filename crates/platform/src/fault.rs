//! The single-transient-fault injector (§2.1).
//!
//! The paper's fault model is deliberately simple: faults are transient
//! (bit flips from particle strikes), affect a single core, last for a
//! short bounded window, and are rare enough that at most one is active at
//! any time. [`FaultSchedule`] captures a concrete list of such faults —
//! either hand-written for directed tests or drawn from a seeded
//! exponential arrival process for campaigns.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ftsched_task::{Duration, Time, PROCESSOR_COUNT};

use crate::cpu::CoreId;

/// One transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Instant at which the particle strike corrupts the core.
    pub at: Time,
    /// Length of the transient window during which the corruption is live.
    pub duration: Duration,
    /// The struck core.
    pub core: CoreId,
    /// Corruption mask of the strike. No job-level classification reads
    /// it, but [`FaultSchedule::poisson`] still draws it so that a seed
    /// keeps producing the same schedule.
    pub mask: u64,
}

impl Fault {
    /// End of the transient window.
    pub fn end(&self) -> Time {
        self.at + self.duration
    }

    /// Whether the fault window overlaps the half-open interval
    /// `[start, end)`.
    pub fn overlaps(&self, start: Time, end: Time) -> bool {
        self.at < end && start < self.end()
    }
}

/// An ordered list of transient faults respecting the
/// single-outstanding-fault assumption.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
}

impl FaultSchedule {
    /// An empty (fault-free) schedule.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from explicit faults. Faults are sorted by
    /// arrival; overlapping windows are rejected because they would break
    /// the single-transient-fault assumption the analysis relies on.
    pub fn new(mut faults: Vec<Fault>) -> Result<Self, String> {
        faults.sort_by_key(|f| f.at);
        for pair in faults.windows(2) {
            if pair[1].at < pair[0].end() {
                return Err(format!(
                    "faults at {} and {} overlap, violating the single-fault assumption",
                    pair[0].at, pair[1].at
                ));
            }
        }
        Ok(FaultSchedule { faults })
    }

    /// Draws a schedule with exponentially distributed inter-arrival times
    /// (mean `mean_interarrival`), uniform core selection and fixed window
    /// length, covering `[0, horizon)`.
    pub fn poisson(
        rng: &mut impl Rng,
        horizon: Time,
        mean_interarrival: Duration,
        fault_duration: Duration,
    ) -> Self {
        let mut faults = Vec::new();
        let mut t = Time::ZERO;
        let mean = mean_interarrival.as_units().max(1e-9);
        loop {
            // Exponential inter-arrival via inverse transform sampling.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let gap = Duration::from_units(-mean * u.ln());
            // Enforce the single-fault assumption: the next strike cannot
            // land before the previous window has closed.
            let earliest = faults
                .last()
                .map(|f: &Fault| f.end())
                .unwrap_or(Time::ZERO)
                .max(t + gap);
            t = earliest;
            if t >= horizon {
                break;
            }
            faults.push(Fault {
                at: t,
                duration: fault_duration,
                core: CoreId(rng.gen_range(0..PROCESSOR_COUNT)),
                mask: rng.gen::<u64>() | 1,
            });
        }
        FaultSchedule { faults }
    }

    /// The faults in arrival order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault (if any) whose window overlaps `[start, end)`. If several
    /// faults fall inside a long interval the first one is returned — for
    /// job-level bookkeeping one overlapping fault is all that matters
    /// under the single-fault assumption.
    pub fn overlapping(&self, start: Time, end: Time) -> Option<&Fault> {
        self.faults.iter().find(|f| f.overlaps(start, end))
    }
}

/// A declarative, serialisable description of how transient faults are
/// drawn for a run.
///
/// This is the *single* fault-model vocabulary of the workspace: campaign
/// spec files (`ftsched-campaign`), perfbench and directed tests all
/// describe fault processes with this type and
/// materialise them into a concrete [`FaultSchedule`] with
/// [`FaultModel::schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum FaultModel {
    /// Fault-free operation.
    #[default]
    None,
    /// Poisson strikes: exponentially distributed inter-arrival times
    /// (mean `mean_interarrival`, in paper time units), fixed transient
    /// window `fault_duration`, uniformly chosen core — the model of
    /// [`FaultSchedule::poisson`].
    Poisson {
        /// Mean inter-arrival time between strikes, in paper time units.
        mean_interarrival: f64,
        /// Length of each transient window, in paper time units.
        fault_duration: f64,
    },
}

impl FaultModel {
    /// True for the fault-free model.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultModel::None)
    }

    /// Materialises the model into a concrete schedule covering
    /// `[0, horizon)`, drawing from `rng`.
    pub fn schedule(&self, rng: &mut impl Rng, horizon: Time) -> FaultSchedule {
        match *self {
            FaultModel::None => FaultSchedule::none(),
            FaultModel::Poisson {
                mean_interarrival,
                fault_duration,
            } => FaultSchedule::poisson(
                rng,
                horizon,
                Duration::from_units(mean_interarrival),
                Duration::from_units(fault_duration),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fault(at: f64, dur: f64, core: usize) -> Fault {
        Fault {
            at: Time::from_units(at),
            duration: Duration::from_units(dur),
            core: CoreId(core),
            mask: 0xFF,
        }
    }

    #[test]
    fn fault_window_queries() {
        let f = fault(10.0, 2.0, 1);
        assert_eq!(f.end(), Time::from_units(12.0));
        assert!(f.overlaps(Time::from_units(11.0), Time::from_units(15.0)));
        assert!(f.overlaps(Time::from_units(5.0), Time::from_units(10.1)));
        assert!(!f.overlaps(Time::from_units(12.0), Time::from_units(15.0)));
        assert!(!f.overlaps(Time::from_units(0.0), Time::from_units(10.0)));
    }

    #[test]
    fn schedule_rejects_overlapping_faults() {
        let err = FaultSchedule::new(vec![fault(10.0, 5.0, 0), fault(12.0, 1.0, 1)]);
        assert!(err.is_err());
        let ok = FaultSchedule::new(vec![fault(10.0, 2.0, 0), fault(12.0, 1.0, 1)]);
        assert!(ok.is_ok());
    }

    #[test]
    fn schedule_sorts_faults_by_arrival() {
        let s = FaultSchedule::new(vec![fault(20.0, 1.0, 0), fault(5.0, 1.0, 1)]).unwrap();
        assert_eq!(s.faults()[0].at, Time::from_units(5.0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn overlapping_lookups() {
        let s = FaultSchedule::new(vec![fault(5.0, 1.0, 0), fault(10.0, 2.0, 3)]).unwrap();
        assert_eq!(
            s.overlapping(Time::from_units(9.0), Time::from_units(11.0))
                .unwrap()
                .core,
            CoreId(3)
        );
        assert!(s
            .overlapping(Time::from_units(6.5), Time::from_units(9.0))
            .is_none());
    }

    #[test]
    fn poisson_schedules_respect_the_single_fault_assumption() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = FaultSchedule::poisson(
            &mut rng,
            Time::from_units(1_000.0),
            Duration::from_units(10.0),
            Duration::from_units(0.5),
        );
        assert!(!s.is_empty());
        for pair in s.faults().windows(2) {
            assert!(pair[1].at >= pair[0].end());
        }
        // Roughly horizon / mean faults, within a loose factor.
        assert!(s.len() > 40 && s.len() < 200, "{}", s.len());
        // Reproducible with the same seed.
        let mut rng2 = StdRng::seed_from_u64(7);
        let s2 = FaultSchedule::poisson(
            &mut rng2,
            Time::from_units(1_000.0),
            Duration::from_units(10.0),
            Duration::from_units(0.5),
        );
        assert_eq!(s, s2);
    }

    #[test]
    fn fault_model_matches_direct_schedule_construction() {
        let model = FaultModel::Poisson {
            mean_interarrival: 10.0,
            fault_duration: 0.5,
        };
        let direct = FaultSchedule::poisson(
            &mut StdRng::seed_from_u64(7),
            Time::from_units(1_000.0),
            Duration::from_units(10.0),
            Duration::from_units(0.5),
        );
        let via_model = model.schedule(&mut StdRng::seed_from_u64(7), Time::from_units(1_000.0));
        assert_eq!(direct, via_model);
        assert!(FaultModel::None
            .schedule(&mut StdRng::seed_from_u64(7), Time::from_units(100.0))
            .is_empty());
        assert!(FaultModel::default().is_none());
    }

    #[test]
    fn fault_model_serde_round_trip() {
        for model in [
            FaultModel::None,
            FaultModel::Poisson {
                mean_interarrival: 8.0,
                fault_duration: 0.25,
            },
        ] {
            let json = serde_json::to_string(&model).unwrap();
            let back: FaultModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
    }
}

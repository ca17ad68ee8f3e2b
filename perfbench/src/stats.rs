//! Order statistics used by every metric: nearest-rank percentiles and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Percentiles a tail metric may report, in per-mille, highest first;
/// no metric is named beyond p99.
const TAIL_LADDER_PER_MILLE: [usize; 5] = [990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Set-ups a run makes; `setup_s` is their median. The first runs before
/// timing starts and the others at even shares of the measuring window,
/// so that they sample the host over the same span as the other metrics.
pub const SETUP_REPEATS: usize = 5;

/// Whether the next set-up is due, with `done` of them made and
/// `elapsed` of the `seconds` the run measures gone.
pub fn setup_due(done: usize, elapsed: f64, seconds: f64) -> bool {
    done < SETUP_REPEATS && elapsed >= seconds * done as f64 / SETUP_REPEATS as f64
}

/// 1-based nearest rank of per-mille `pm` among `n` samples.
fn rank(n: usize, pm: usize) -> usize {
    (n * pm).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pm = (p * 10.0).round() as usize;
    sorted[rank(sorted.len(), pm) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile of the tail ladder that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its nearest rank, or
/// `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PER_MILLE
        .into_iter()
        .find(|&pm| n > 0 && n - rank(n, pm) >= MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// The value at [`tail_percentile`] and the percentile used; the median
/// when there are too few samples for any tail.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = tail_percentile(values.len()).unwrap_or(50.0);
    (percentile(values, p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn set_ups_spread_over_the_window() {
        assert!(!setup_due(1, 0.0, 30.0));
        assert!(setup_due(1, 6.0, 30.0));
        assert!(!setup_due(4, 23.9, 30.0));
        assert!(setup_due(4, 24.0, 30.0));
        assert!(!setup_due(SETUP_REPEATS, 1e9, 30.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: 10 lie above p99's rank, 9 of 999.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 57, 100, 999, 1000, 4321, 10_000] {
            let p = tail_percentile(n).unwrap();
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let beyond = v.iter().filter(|&&x| x > percentile(&v, p)).count();
            assert!(beyond >= MIN_BEYOND, "n {n} p {p} leaves {beyond}");
        }
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99.0));
        assert_eq!(tail(&[5.0, 1.0]), (1.0, 50.0));
    }
}

//! Order statistics and cross-task aggregation.
//!
//! Latency percentiles use the nearest-rank definition on the pooled
//! samples of one task. A tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a "p99" is never the largest
//! of a handful of values. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default exclusive method), so
//! the calibration table matches any external check that uses it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them.
///
/// # Panics
///
/// Panics with fewer than two values (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Index of the nearest-rank `q` percentile in a sorted sample of `n`.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank `q` percentile of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let v = sorted(values);
    v[rank(q, v.len())]
}

/// Whether the `q` percentile of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supports(q: f64, n: usize) -> bool {
    n > 0 && n - 1 - rank(q, n) >= MIN_BEYOND
}

/// The highest tail percentile `n` samples support, if any.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| supports(q, n))
}

/// Geometric mean: each item counts equally whatever its scale, which is
/// how the serving workloads weigh their six deployed models.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean of non-positive values {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Work completed per second when each item contributes `(work, seconds)`:
/// total work over total time, the rate the user of a job waits for.
pub fn work_weighted(items: &[(f64, f64)]) -> f64 {
    let work: f64 = items.iter().map(|(w, _)| w).sum();
    let secs: f64 = items.iter().map(|(_, s)| s).sum();
    work / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!supports(0.9, 99), "p90 of 99 has 9 beyond");
        assert!(supports(0.9, 100), "p90 of 100 has 10 beyond");
        assert!(!supports(0.99, 999));
        assert!(supports(0.99, 1000));
        assert_eq!(highest_tail(50), None);
        assert_eq!(highest_tail(100), Some(0.9));
        assert_eq!(highest_tail(8448), Some(0.99));
        assert_eq!(highest_tail(10_000), Some(0.999));
    }

    #[test]
    fn geomean_weighs_items_equally_work_weighting_by_time() {
        // a fast and a slow task: 1000/s and 10/s
        assert!((geomean(&[1000.0, 10.0]) - 100.0).abs() < 1e-9);
        // 100 items in 0.1 s plus 100 items in 10 s: the slow task dominates
        let rate = work_weighted(&[(100.0, 0.1), (100.0, 10.0)]);
        assert!((rate - 200.0 / 10.1).abs() < 1e-9);
        // doubling one task's speed moves the geomean by √2 either way, but
        // the work-weighted rate only when that task holds the time
        let g = geomean(&[2000.0, 10.0]) / geomean(&[1000.0, 10.0]);
        assert!((g - 2f64.sqrt()).abs() < 1e-9);
        let w = work_weighted(&[(100.0, 0.05), (100.0, 10.0)]) / rate;
        assert!(
            w < 1.01,
            "speeding up the fast task barely helps a job: {w}"
        );
    }
}

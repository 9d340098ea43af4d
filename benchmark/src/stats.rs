//! Order statistics over small samples of runs.

/// Median of `xs`; `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    gvfs_bench::perfjson::median(&mut xs.to_vec())
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the "exclusive" method:
/// position `i * (n + 1) / 4`, interpolated, clamped to the sample), so
/// the spreads printed here are the ones the acceptance check computes.
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    match n {
        0 => None,
        1 => Some([s[0]; 3]),
        _ => Some([1usize, 2, 3].map(|i| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * delta
        })),
    }
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a constant sample, `NaN` when empty.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some([q1, q2, q3]) if q3 > q1 => (q3 - q1) / q2.abs(),
        Some(_) => 0.0,
        None => f64::NAN,
    }
}

/// Percentiles a latency report may quote, ascending, each with the
/// share of samples beyond it in thousandths.
const PERCENTILES: [(f64, u64); 5] = [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest of p50, p90, p95, p99 and p99.9 that still has at least
/// `beyond` samples above it in a sample of `n`, if any does.
pub fn highest_percentile(n: u64, beyond: u64) -> Option<f64> {
    PERCENTILES
        .iter()
        .rfind(|(_, per_mille)| n * per_mille >= beyond * 1000)
        .map(|(p, _)| *p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), 1.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // 512 clones: 25.6 beyond p95, only 5.1 beyond p99.
        assert_eq!(highest_percentile(512, 10), Some(95.0));
        // 2,560 clones: 25.6 beyond p99, only 2.6 beyond p99.9.
        assert_eq!(highest_percentile(2560, 10), Some(99.0));
        assert_eq!(highest_percentile(10_000, 10), Some(99.9));
        assert_eq!(highest_percentile(20, 10), Some(50.0));
        assert_eq!(highest_percentile(19, 10), None);
    }
}

//! Order statistics over timing samples.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, by the method of Python's
/// `statistics.quantiles` (the "exclusive" one: the `i`-th of `n` sorted
/// values sits at `i / (n + 1)`, linear in between, clamped to the extremes)
/// — the acceptance driver computes run-to-run spread this way, so
/// calibration must, and one method serves every statistic. `values` need
/// not be sorted.
///
/// # Panics
/// Panics on an empty slice — every caller samples a fixed, non-zero count.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pos = (q * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest value.
pub fn min(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The largest value.
pub fn max(values: &[f64]) -> f64 {
    quantile(values, 1.0)
}

/// The arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let v = [4.0, 1.0, 2.0];
        assert_eq!(
            (quantile(&v, 0.25), median(&v), quantile(&v, 0.75)),
            (1.0, 2.0, 4.0)
        );
        assert_eq!((min(&v), max(&v)), (1.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

//! Percentile, tail-selection and spread arithmetic.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks (the "inclusive" method), so a latency reads with
/// all its digits instead of snapping to one sample. 0 for no samples.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` and returns their median.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// The mean of `values` (0 for none).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentile a latency class is reported at: the highest of p99
/// and p95 that still has at least ten samples beyond it — p99 from 1,000
/// samples, p95 from 200 — and `None` (report the maximum) below that.
#[must_use]
pub fn tail_quantile(samples: usize) -> Option<f64> {
    if samples >= 1_000 {
        Some(0.99)
    } else if samples >= 200 {
        Some(0.95)
    } else {
        None
    }
}

/// The tail of `sorted` at the percentile [`tail_quantile`] selects.
#[must_use]
pub fn tail(sorted: &[f64]) -> f64 {
    match tail_quantile(sorted.len()) {
        Some(q) => quantile(sorted, q),
        None => sorted.last().copied().unwrap_or(0.0),
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio with nothing under it is reported
/// as 0, not as a failure).
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The relative difference of two readings of one metric, as a share of
/// their mean — what the A/A self-check compares with the metric's bound.
#[must_use]
pub fn relative_spread(a: f64, b: f64) -> f64 {
    ratio((a - b).abs(), (a.abs() + b.abs()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_closest_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert!((quantile(&v, 0.25) - 17.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
    }

    #[test]
    fn tail_selection_follows_the_sample_count() {
        assert_eq!(tail_quantile(5_000), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), None);
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&few), 50.0);
        let many: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert!((tail(&many) - 990.0).abs() < 1e-9);
        let some: Vec<f64> = (0..=200).map(f64::from).collect();
        assert!((tail(&some) - 190.0).abs() < 1e-9);
    }

    #[test]
    fn spread_is_relative_to_the_mean() {
        assert_eq!(relative_spread(100.0, 100.0), 0.0);
        assert!((relative_spread(90.0, 110.0) - 0.2).abs() < 1e-12);
        assert_eq!(relative_spread(0.0, 0.0), 0.0);
    }
}

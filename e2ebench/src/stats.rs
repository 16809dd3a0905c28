//! Order statistics shared by the run, trace and compare paths.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Arithmetic mean; NaN when empty.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median (the mean of the two middle values for an even count); NaN
/// when empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` (its default exclusive method) and
/// `statistics.median`. With fewer than two samples all three equal
/// the single value (NaN when empty).
pub(crate) fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), median(&s), q(3))
}

/// The highest nearest-rank percentile that has at least `beyond`
/// samples ranked above it, as `(percentile, value)`: with 1,000
/// samples and `beyond = 10` that is p99. `None` when there are not
/// more than `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (n > beyond).then(|| (100.0 * (n - beyond) as f64 / n as f64, s[n - 1 - beyond]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}

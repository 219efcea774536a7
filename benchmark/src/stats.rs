//! Order statistics over timing samples.

/// Nearest-rank quantile of `q` in `[0, 1]`; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by linear interpolation (the mean of the two middle values for
/// an even count); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` with the default ("exclusive") method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads agree with tools that
/// use it. A single sample gives the lone value three times.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        len => {
            // The same integer arithmetic as CPython's implementation.
            let m = len as i64 + 1;
            let at = |i: i64| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (s[j as usize - 1], s[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}

//! Small-sample statistics for the benchmark's own reporting.

/// Median, minimum, maximum and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarise `values`. Panics on an empty slice: every caller measures at
/// least once.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize: no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    Summary { median, min: v[0], max: v[n - 1], n }
}

/// Geometric mean of strictly positive values (0 for none), summed in slice
/// order so the result is bit-identical whenever the slice is.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s, Summary { median: 2.0, min: 1.0, max: 3.0, n: 3 });
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Summary { median: 2.5, min: 1.0, max: 4.0, n: 4 });
        assert_eq!(summarize(&[7.5]).median, 7.5);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

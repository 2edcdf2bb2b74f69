//! Order statistics for timing samples: median, quartiles (the method of
//! Python's `statistics.quantiles(values, n=4)`, which the acceptance
//! check uses), MAD and tail percentiles.

/// The values sorted ascending. Timings are never NaN; a NaN would sort
/// last rather than panic.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; 0 for an empty slice (a metric whose workload does not produce
/// it reads 0, never NaN).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method). Needs at least
/// two values; fewer yield the single value (or 0) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (the acceptance check's
/// "spread"); 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile, `p` in (0, 1]; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the rule
/// for which tail percentile may be reported (p90 from 100 samples, p99
/// from 1000).
pub fn tail_allowed(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0 - 1e-9
}

/// Summary of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub mad: f64,
    /// Reported only with at least ten samples beyond it.
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let n = values.len();
    Summary {
        n,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        median: median(values),
        mad: mad(values),
        p90: tail_allowed(n, 0.90).then(|| percentile(values, 0.90)),
        p99: tail_allowed(n, 0.99).then(|| percentile(values, 0.99)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 1.0, 2.0, 2.0, 100.0]), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(!tail_allowed(99, 0.90));
        assert!(tail_allowed(100, 0.90));
        assert!(!tail_allowed(999, 0.99));
        assert!(tail_allowed(1000, 0.99));
        let few = summarize(&[1.0; 50]);
        assert_eq!((few.p90, few.p99), (None, None));
        let some = summarize(&vec![1.0; 100]);
        assert_eq!((some.p90, some.p99), (Some(1.0), None));
        let many = summarize(&vec![1.0; 1000]);
        assert_eq!((many.p90, many.p99), (Some(1.0), Some(1.0)));
    }
}

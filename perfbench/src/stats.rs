//! Order statistics.

/// The nearest-rank `p`-quantile of `samples`, or `None` when fewer than
/// ten samples lie beyond it: a tail percentile read from fewer samples is
/// one outlier, not a percentile.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of `samples`, which may be too few for a tail percentile.
pub fn median_u64(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(
            percentile(&samples, 0.99),
            None,
            "989 of 999: 10 beyond is needed"
        );
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990));
        assert_eq!(percentile(&samples, 0.5), Some(500));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[5; 10], 0.5), None);
        assert_eq!(percentile(&[5; 20], 0.5), Some(5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_u64(&[7]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.1), 1.1);
    }
}

//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank
/// rule; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `samples` (mean of the two middle values when even).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The interquartile mean: the mean of the middle half of `samples`
/// (the median when there are fewer than four). Outliers in either
/// tail do not move it, yet unlike the median it averages over the
/// states a noisy host alternates between during a run.
pub fn iqm(samples: &[f64]) -> f64 {
    if samples.len() < 4 {
        return median(samples);
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Microseconds in a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(v[0], 100.0, "the samples keep their order");
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn iqm_drops_both_tails() {
        assert_eq!(iqm(&[1.0, 2.0, 3.0, 4.0, 100.0, 0.0, 2.5, 3.5]), 2.75);
        assert_eq!(iqm(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

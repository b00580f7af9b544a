//! Order statistics used by every workload: extremes, medians and the tail
//! rule.
//!
//! A tail percentile is reported only when it is backed by data: p99 needs
//! at least 1000 samples, and below that the benchmark reports the highest
//! percentile that still has at least [`MIN_BEYOND`] samples above it,
//! together with that percentile and the sample count.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples from which p99 itself is reported.
pub const P99_SAMPLES: usize = 1000;

/// A tail percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile actually used (99 when there are enough samples).
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Sorts a copy of `values` ascending (NaN-free input).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty set.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values`; infinite for an empty set.
#[must_use]
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest of `values`; negative infinity for an empty set.
#[must_use]
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The tail of `values` under the benchmark's rule: p99 with at least
/// [`P99_SAMPLES`] samples; otherwise the highest nearest-rank percentile
/// with at least [`MIN_BEYOND`] samples above it. `None` when fewer than
/// `MIN_BEYOND + 1` samples exist, since no percentile qualifies.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n >= P99_SAMPLES {
        return Some(Tail {
            value: nearest_rank(&v, 99.0),
            percentile: 99.0,
            samples: n,
        });
    }
    if n <= MIN_BEYOND {
        return None;
    }
    // Rank r (1-based) leaves n - r samples beyond it.
    let rank = n - MIN_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!((min(&[3.0, 1.0, 2.0]), max(&[3.0, 1.0, 2.0])), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_is_used_from_a_thousand_samples() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // Exactly ten samples (991..=1000) lie beyond the reported one.
        assert_eq!(values.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn small_sets_fall_back_to_ten_samples_beyond() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(values.iter().filter(|&&x| x > t.value).count(), 10);
        for n in [11usize, 57, 999] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&values).unwrap();
            assert_eq!(values.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
            assert!(t.percentile < 99.0);
        }
    }

    #[test]
    fn no_tail_without_enough_samples() {
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&values).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&v, 50.0), 20.0);
        assert_eq!(nearest_rank(&v, 51.0), 30.0);
        assert_eq!(nearest_rank(&v, 100.0), 40.0);
    }
}

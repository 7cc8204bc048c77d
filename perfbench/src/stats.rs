//! Order statistics over host-time samples.

use std::time::Duration;

/// Nearest-rank percentile `p` (in `0..=100`) of `samples`; 0 when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples needed so that at least ten lie beyond percentile `p`: a tail
/// percentile is reported as supported only from this many samples on.
#[must_use]
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// Whether `n` samples put at least ten beyond percentile `p`.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    n >= samples_needed(p)
}

/// Milliseconds in `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(99.0), 1000);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        // At exactly the threshold, ten samples lie strictly above p99.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0);
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}

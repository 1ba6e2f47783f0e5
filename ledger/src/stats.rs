//! Order statistics for latency samples: nearest-rank percentiles, the
//! "at least ten samples beyond it" rule for the tail percentile,
//! quartiles and the median absolute deviation.
//!
//! The ledger reports medians and a tail percentile, never means of
//! times: one descheduled query moves a mean of a few hundred samples by
//! percents and a median not at all.

/// Samples a tail percentile needs beyond its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail metric may be named after, highest first.
pub const TAIL_CANDIDATES: [u32; 5] = [99, 95, 90, 75, 50];

/// Ascending copy of `samples` under IEEE total order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, at least 1. In integers, so p95 of 200 is rank 190
/// and not 191 by a float rounding.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(rank(sorted.len(), p.min(100)) - 1).copied()
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples above its rank.
pub fn supported(n: usize, p: u32) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest of [`TAIL_CANDIDATES`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<u32> {
    TAIL_CANDIDATES.iter().copied().find(|&p| supported(n, p))
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so a spread printed
/// here is the spread the acceptance check computes. `None` below two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; `None` below two samples
/// or when the median is zero.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = mid_median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The interpolating median (mean of the two middle values for an even
/// count) — what `statistics.median` gives for a set of run results.
pub fn mid_median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median absolute deviation from the median; `None` when empty.
pub fn mad(samples: &[f64]) -> Option<f64> {
    let m = mid_median(samples)?;
    let deviations: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    mid_median(&deviations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_statistics() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(mid_median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(mad(&[]), None);
        assert_eq!(spread(&[]), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn one_sample_is_every_percentile_and_supports_none() {
        let one = [4.25];
        for p in [0, 1, 50, 95, 100] {
            assert_eq!(percentile(&one, p), Some(4.25));
        }
        assert_eq!(quartiles(&one), None);
        assert_eq!(mad(&one), Some(0.0));
        assert_eq!(highest_supported(1), None);
    }

    #[test]
    fn nearest_rank_returns_a_sample_never_an_interpolation() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 91), Some(10.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
    }

    #[test]
    fn ties_do_not_move_the_rank() {
        let v = sorted(&[2.0, 1.0, 2.0, 2.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 50), Some(2.0));
        assert_eq!(percentile(&v, 17), Some(2.0));
        assert_eq!(percentile(&v, 16), Some(1.0));
        assert_eq!(mad(&[2.0, 1.0, 2.0, 2.0, 3.0, 2.0]), Some(0.0));
    }

    #[test]
    fn two_hundred_and_three_hundred_samples_both_pick_p95() {
        // p95 of 200 is rank 190: exactly ten beyond. p99 would leave two.
        assert!(supported(200, 95));
        assert!(!supported(199, 95));
        assert!(!supported(200, 99));
        assert_eq!(highest_supported(200), Some(95));
        assert_eq!(highest_supported(300), Some(95));
        assert_eq!(highest_supported(1000), Some(99));
        assert_eq!(highest_supported(199), Some(90));
        assert_eq!(highest_supported(100), Some(90));
        assert_eq!(highest_supported(99), Some(75));
        assert_eq!(highest_supported(20), Some(50));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).expect("ten samples");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).expect("two samples");
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        let s = spread(&v).expect("spread");
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 1000.0]), Some(1.0));
    }
}

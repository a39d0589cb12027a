//! Summary statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark reports are
//! the ones a reader recomputes from its raw samples with the standard
//! library.

/// Samples sorted ascending (NaN-free by construction: every sample is a
/// measured duration or a ratio of counts).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median; the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the exclusive method of Python's
/// `statistics.quantiles(data, n=4)`. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let v = sorted(samples);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        // Position i*m/4 (1-based), clamped to the data like Python does.
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// The 1-based nearest rank of percentile `p` among `n` samples,
/// `ceil(p/100 * n)`. The product is rounded to 1e-9 first, so that
/// binary rounding (99.9/100 * 10000 = 9990.000000000002) cannot push
/// an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    let exact = p / 100.0 * n as f64;
    ((exact * 1e9).round() / 1e9).ceil() as usize
}

/// Nearest-rank percentile `p` (0 < p < 100) of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    v[rank(v.len(), p).clamp(1, v.len()) - 1]
}

/// Samples that lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest of `candidates` (percentiles, ascending or not) that has
/// at least `min_beyond` samples beyond it, or `None` if none has.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= min_beyond)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // Two samples extrapolate linearly, as in Python: [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // The middle quartile is the median.
        let odd = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quartiles(&odd)[1], median(&odd));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        let cands = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(highest_supported(100, &cands, 10), Some(90.0));
        assert_eq!(highest_supported(99, &cands, 10), Some(50.0));
        assert_eq!(highest_supported(999, &cands, 10), Some(90.0));
        assert_eq!(highest_supported(1000, &cands, 10), Some(99.0));
        assert_eq!(highest_supported(10_000, &cands, 10), Some(99.9));
        assert_eq!(highest_supported(19, &cands, 10), None);
        assert_eq!(highest_supported(20, &cands, 10), Some(50.0));
    }
}

//! Order statistics the runner and `compare` report.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
/// If `sorted` is empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a timing may be reported at, lowest first, each with the
/// `n` of "one sample in `n` lies beyond it".
pub const PERCENTILE_LADDER: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest rung of [`PERCENTILE_LADDER`] that still has at least ten
/// samples beyond it — a tail read off fewer than ten samples is noise.
/// `None` when even the median does not.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .filter(|&&(_, one_in)| samples >= 10 * one_in)
        .map(|&(p, _)| p)
        .next_back()
}

/// Median of unsorted values (mean of the middle two when even).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 for fewer than two
/// values, where no spread can be seen).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 99.9), 7);
        assert_eq!(percentile(&[1u32, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1u32, 2, 3, 4], 51.0), 3);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(2_000_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}

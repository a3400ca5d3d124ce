//! Order statistics the harness reports: medians, quartiles, nearest-rank
//! percentiles and the choice of tail percentile a sample count supports.

pub use gcgt_serve::percentile as nearest_rank;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default exclusive method), so the spread computed here is
/// the spread the driver computes. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it; the median when even p90 does not.
pub fn tail_percentile(samples: usize) -> f64 {
    // (percentile, samples beyond it per thousand): integers, so that
    // exactly ten samples beyond counts.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond_per_mille)| samples * beyond_per_mille >= 10 * 1000)
        .map_or(50.0, |(pct, _)| pct)
}

/// Nearest-rank percentile `pct` (0–100) of unsorted values.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    nearest_rank(&sorted(values), pct / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(50), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert!((iqr_ratio(&v) - 1.0).abs() < 1e-12);
    }
}

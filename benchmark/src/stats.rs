//! Order statistics: quartiles, spreads, percentiles and the "at least ten
//! samples beyond it" rule for tail percentiles.

/// Which direction of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times, bytes, memory.
    Lower,
    /// Rates.
    Higher,
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The tail percentile every workload reports (`lat_p95_ms`).
pub const TAIL_PERCENTILE: f64 = 95.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// First quartile, median and third quartile by the exclusive method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, so spreads
/// computed here and by anyone re-checking them agree. One value is its own
/// quartiles; no value yields zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        let delta = delta.clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The best-quartile boundary across identical repetitions (the layer
/// probes' estimator): Q1 where lower is better, Q3 where higher is. On a
/// shared VM the slow tail of identical repetitions is the host's noise, not
/// the program's cost.
pub fn best_quartile(values: &[f64], better: Better) -> f64 {
    let (q1, _, q3) = quartiles(values);
    match better {
        Better::Lower => q1,
        Better::Higher => q3,
    }
}

/// The nearest rank of percentile `p` among `samples` observations:
/// `ceil(p/100 × samples)`, forgiving the last bit of the product (99.9% of
/// 10 000 is 9 990, not 9 991).
fn nearest_rank(samples: usize, p: f64) -> usize {
    ((p / 100.0) * samples as f64 - 1e-9).ceil() as usize
}

/// The `p`-th percentile (nearest rank, `0 < p <= 100`) of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[nearest_rank(v.len(), p).clamp(1, v.len()) - 1]
}

/// True when `samples` observations leave at least [`MIN_SAMPLES_BEYOND`] of
/// them beyond percentile `p`.
pub fn tail_supported(samples: usize, p: f64) -> bool {
    samples - nearest_rank(samples, p).min(samples) >= MIN_SAMPLES_BEYOND
}

/// The highest percentile of a fixed ladder that `samples` observations
/// support under the ten-beyond rule (50 when nothing higher is supported).
pub fn highest_supported_percentile(samples: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| tail_supported(samples, *p))
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] extrapolates;
        // we clamp to the sample instead, which only matters below 3 values.
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn best_quartile_picks_the_good_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((best_quartile(&v, Better::Lower) - 2.75).abs() < 1e-12);
        assert!((best_quartile(&v, Better::Higher) - 8.25).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples leaves exactly 10 beyond; 199 leave 9.
        assert!(tail_supported(200, 95.0));
        assert!(!tail_supported(199, 95.0));
        assert!(tail_supported(1_000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert_eq!(highest_supported_percentile(330), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(22), 50.0);
    }
}

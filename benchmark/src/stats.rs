//! Order statistics for timing samples: median, quartiles, and the
//! percentile rule (a tail percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it).

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the benchmark reports, highest last.
const LADDER: [f64; 5] = [0.90, 0.95, 0.99, 0.999, 0.9999];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    median_of_sorted(&sorted(values))
}

fn median_of_sorted(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (its default "exclusive"
/// method), so a spread computed here matches one computed there. A
/// single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    quartiles_of_sorted(&sorted(values))
}

fn quartiles_of_sorted(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A tail percentile was asked of a sample too small to support it.
#[derive(Debug, PartialEq)]
pub struct Unsupported {
    pub p: f64,
    pub n: usize,
}

fn beyond(n: usize, p: f64) -> usize {
    // Samples strictly above the nearest-rank position of `p`.
    n - rank(n, p) - 1
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.95 * 400` (380.00000000000006) at rank 380.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` in `(0.5, 1)`; refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, Unsupported> {
    assert!(p > 0.5 && p < 1.0, "tail percentile out of range: {p}");
    let n = values.len();
    if n == 0 || beyond(n, p) < MIN_BEYOND {
        return Err(Unsupported { p, n });
    }
    Ok(sorted(values)[rank(n, p)])
}

/// The highest percentile of the ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// A metric's value with the dispersion of the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Median and quartiles of timing samples.
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        let (q1, q3) = quartiles_of_sorted(&v);
        Self {
            value: median_of_sorted(&v),
            q1,
            q3,
            min: v[0],
            n: v.len(),
        }
    }

    /// A value measured once (a count, a ratio, a tail percentile).
    pub fn single(value: f64, n: usize) -> Self {
        Self {
            value,
            q1: value,
            q3: value,
            min: value,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentile_rule_refuses_unsupported_tails() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        // p95 of 400 has 20 samples beyond it; p99 has 4.
        assert_eq!(tail_percentile(&v, 0.95), Ok(380.0));
        assert_eq!(
            tail_percentile(&v, 0.99),
            Err(Unsupported { p: 0.99, n: 400 })
        );
        assert_eq!(highest_supported(400), Some(0.95));
        assert_eq!(highest_supported(300_000), Some(0.9999));
        assert_eq!(highest_supported(1100), Some(0.99));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(50), None);
        assert!(tail_percentile(&[], 0.9).is_err());
    }

    #[test]
    fn summary_carries_dispersion() {
        let s = Summary::of(&[1.0, 2.0, 4.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (2.0, 1.0, 4.0, 3));
    }
}

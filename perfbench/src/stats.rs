//! The summary statistics every reported number goes through.

/// Sorts a copy of `xs` ascending (total order, so NaN cannot panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// First quartile, median and third quartile by the "exclusive" method
/// (the default of Python's `statistics.quantiles(xs, n=4)`), so spreads
/// computed here and by an outside script agree. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The quartiles as a JSON array, for the report line.
pub fn quartiles_json(xs: &[f64]) -> String {
    if xs.len() < 2 {
        return "null".to_string();
    }
    let (q1, q2, q3) = quartiles(xs);
    format!("[{q1},{q2},{q3}]")
}

/// A tail latency: the highest percentile at or below `target` that still
/// has at least `min_beyond` samples strictly above it. Returns
/// `(percentile, value)`; the value is the nearest-rank sample, so exactly
/// `n - ceil(p·n)` samples lie beyond it. With too few samples for any
/// percentile above the median, it is the median.
pub fn tail(xs: &[f64], target: f64, min_beyond: usize) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    let n = v.len() as f64;
    let p = target.min(1.0 - min_beyond as f64 / n);
    if p <= 0.5 {
        return (0.5, median(xs));
    }
    // The epsilon keeps 0.96 × 250 = 240.000…03 at rank 240.
    let rank = ((p * n - 1e-9).ceil() as usize).clamp(1, v.len());
    (p, v[rank - 1])
}

/// The geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no ratios");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric mean needs positive ratios"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=4000).map(f64::from).collect();
        let (p, v) = tail(&big, 0.99, 10);
        assert_eq!(p, 0.99);
        assert_eq!(v, 3960.0);
        assert_eq!(big.iter().filter(|&&x| x > v).count(), 40);

        // 250 samples: p99 would leave 2 beyond, so the tail drops to p96.
        let mid: Vec<f64> = (1..=250).map(f64::from).collect();
        let (p, v) = tail(&mid, 0.99, 10);
        assert!((p - 0.96).abs() < 1e-12);
        assert_eq!(mid.iter().filter(|&&x| x > v).count(), 10);

        // 20 samples: only the median has ten beyond it.
        let small: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail(&small, 0.99, 10), (0.5, 10.5));

        // Fewer than twenty never reports below the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0], 0.99, 10), (0.5, 2.0));
        assert_eq!(tail(&[1.0, 2.0, 3.0, 4.0], 0.99, 10), (0.5, 2.5));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}

//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile of `xs` that still has ten samples beyond it,
/// as `(percentile, value)`; the maximum alone says little about a tail.
/// With ten samples or fewer the answer is the minimum, at percentile 0.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len().saturating_sub(11);
    Some((100.0 * idx as f64 / v.len() as f64, v[idx]))
}

/// Geometric mean; `None` when empty or any value is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them (the
/// exclusive method), which is what the acceptance rule is stated in.
/// `None` with fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([q(1), q(2), q(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!(v, 189.0);
        assert!((pct - 94.5).abs() < 1e-9);
        assert_eq!(tail(&[5.0, 7.0]), Some((0.0, 5.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}

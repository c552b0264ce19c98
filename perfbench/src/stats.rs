//! Order statistics and answer-quality measures.

/// Fewest samples that must lie strictly beyond a reported percentile
/// (so `p99` needs at least 1000 samples, `p95` at least 200).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`p` in whole percent) of `samples`,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: usize) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (p * n).div_ceil(100).clamp(1, n);
    let idx = rank - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Median, as Python's `statistics.median`.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Python's exact integer `i*m - j*n`; it leaves 0..4 only where
        // the clamp moved j, which the signed value handles.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `|retrieved ∩ truth| / |truth|` — the paper's accuracy (Eq. 15) when
/// `truth` is the exact k-NN, and range recall when it is the exact
/// in-ε set. An empty truth is fully recalled.
pub fn recall(retrieved: &[usize], truth: &[usize]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = truth.iter().filter(|id| retrieved.contains(id)).count();
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50), Some(50.0));
        assert_eq!(percentile(&hundred, 90), Some(90.0));
        // p95 of 100 samples leaves only 5 beyond it.
        assert_eq!(percentile(&hundred, 95), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 99), None);
        let two_hundred: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&two_hundred, 95), Some(190.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[1.0; 10], 50), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 9.0]), Some(4.0));
    }

    #[test]
    fn recall_on_hand_built_answers() {
        // kNN: 3 of the 4 true neighbours returned, in another order.
        assert_eq!(recall(&[7, 1, 9, 4], &[1, 2, 4, 7]), 0.75);
        assert_eq!(recall(&[5, 6], &[1, 2]), 0.0);
        // Range: a superset of the true in-ε set recalls all of it.
        assert_eq!(recall(&[1, 2, 3, 8], &[2, 8]), 1.0);
        assert_eq!(recall(&[2], &[2, 8, 9, 10]), 0.25);
        assert_eq!(recall(&[], &[]), 1.0);
    }
}

//! Exact linear scan — the no-index baseline of Fig. 14b, and the
//! ground truth the index accuracy tests compare against.

use sapla_core::{Result, TimeSeries};
use sapla_distance::{euclidean_early_abandon, safe_sq_bound};

use crate::knn::{KnnHeap, SearchStats, SearchTally};

/// Exact k-NN by scanning every series (with early abandoning on the
/// running kth-best bound). `measured` equals the database size — linear
/// scan has no pruning power by definition.
///
/// # Errors
///
/// Propagates length mismatches.
pub fn linear_scan_knn(query: &TimeSeries, raws: &[TimeSeries], k: usize) -> Result<SearchStats> {
    let mut results = KnnHeap::new(k, raws.len());
    let mut tally = SearchTally::default();
    tally.consider(raws.len());
    for (i, s) in raws.iter().enumerate() {
        let bound = results.threshold();
        tally.measure();
        if let Some(d) = euclidean_early_abandon(query, s, bound * bound)? {
            results.push(d, i);
        }
    }
    let (retrieved, distances) = results.into_sorted();
    Ok(SearchStats { retrieved, distances, measured: tally.finish_scan(), total: raws.len() })
}

/// Exact ε-range search by scanning every series.
///
/// # Errors
///
/// Propagates length mismatches.
pub fn linear_scan_range(
    query: &TimeSeries,
    raws: &[TimeSeries],
    epsilon: f64,
) -> Result<SearchStats> {
    let mut hits: Vec<(f64, usize)> = Vec::new();
    let mut tally = SearchTally::default();
    tally.consider(raws.len());
    for (i, s) in raws.iter().enumerate() {
        tally.measure();
        // Abandon at `safe_sq_bound(ε)`, not `ε·ε`: the rounded square
        // can sit below the true one, which would drop a hit at d = ε.
        if let Some(d) = euclidean_early_abandon(query, s, safe_sq_bound(epsilon))? {
            if d <= epsilon {
                hits.push((d, i));
            }
        }
    }
    hits.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(SearchStats {
        retrieved: hits.iter().map(|&(_, i)| i).collect(),
        distances: hits.iter().map(|&(d, _)| d).collect(),
        measured: tally.finish_scan(),
        total: raws.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Vec<TimeSeries> {
        (0..20)
            .map(|i| {
                TimeSeries::new((0..32).map(|t| ((t * (i + 2)) as f64 * 0.11).sin()).collect())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn returns_true_knn() {
        let raws = dataset();
        let q = raws[4].clone();
        let stats = linear_scan_knn(&q, &raws, 3).unwrap();
        assert_eq!(stats.retrieved[0], 4);
        assert_eq!(stats.measured, 20);
        assert!((stats.pruning_power() - 1.0).abs() < 1e-12);
        // Verify ordering against brute force.
        let mut truth: Vec<(f64, usize)> =
            raws.iter().enumerate().map(|(i, s)| (q.euclidean(s).unwrap(), i)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(stats.retrieved, truth[..3].iter().map(|&(_, i)| i).collect::<Vec<_>>());
    }

    #[test]
    fn accuracy_is_one_by_construction() {
        let raws = dataset();
        let q = raws[0].clone();
        let stats = linear_scan_knn(&q, &raws, 5).unwrap();
        let truth: Vec<usize> = stats.retrieved.clone();
        assert_eq!(stats.accuracy(&truth), 1.0);
    }

    #[test]
    fn range_scan_matches_definition() {
        let raws = dataset();
        let q = raws[4].clone();
        let got = linear_scan_range(&q, &raws, 1.5).unwrap();
        for (i, s) in raws.iter().enumerate() {
            let d = q.euclidean(s).unwrap();
            assert_eq!(got.retrieved.contains(&i), d <= 1.5, "series {i} at {d}");
        }
        assert!(got.distances.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn range_scan_keeps_the_hit_at_exactly_epsilon() {
        // d = √3 = ε, but ε·ε rounds to 2.9999999999999996 < 3: abandoning
        // at the rounded square would drop this hit.
        let q = TimeSeries::new(vec![0.0, 0.0, 0.0]).unwrap();
        let s = TimeSeries::new(vec![1.0, 1.0, 1.0]).unwrap();
        let epsilon = 3f64.sqrt();
        assert!(q.euclidean(&s).unwrap() <= epsilon);
        let got = linear_scan_range(&q, &[s], epsilon).unwrap();
        assert_eq!(got.retrieved, vec![0]);
        assert_eq!(got.distances, vec![epsilon]);
    }

    #[test]
    fn empty_database() {
        let q = TimeSeries::new(vec![1.0, 2.0]).unwrap();
        let stats = linear_scan_knn(&q, &[], 3).unwrap();
        assert!(stats.retrieved.is_empty());
        assert_eq!(stats.total, 0);
    }
}

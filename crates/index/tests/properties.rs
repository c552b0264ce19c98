//! Property-based tests over the index structures: GEMINI exactness for
//! valid bounds, structural invariants, and build/insert equivalence.

use proptest::prelude::*;
use sapla_baselines::{reduce_batch, reduce_batch_parallel, Paa, Pla, Reducer, SaplaReducer};
use sapla_core::{Representation, TimeSeries};
use sapla_distance::{dist_par, ParScratch};
use sapla_index::scheme::AdaptiveLinearScheme;
use sapla_index::{
    linear_scan_knn, linear_scan_range, scheme_for, DbchTree, Engine, EngineConfig, NodeDistRule,
    Query, RTree, Scheme,
};

/// Random small database of regime-style series.
fn db_strategy(n_series: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TimeSeries>> {
    (
        n_series,
        proptest::collection::vec((-3.0f64..3.0, -0.2f64..0.2, 0.0f64..std::f64::consts::TAU), 40),
    )
        .prop_map(|(count, params)| {
            (0..count)
                .map(|i| {
                    let (lvl, slope, phase) = params[i % params.len()];
                    TimeSeries::new(
                        (0..48)
                            .map(|t| {
                                let x = t as f64;
                                lvl + slope * x + ((x * 0.4) + phase + i as f64).sin()
                            })
                            .collect(),
                    )
                    .unwrap()
                    .znormalized()
                })
                .collect()
        })
}

/// A one-shard SAPLA/DBCH engine (`m = 12`, fill 2..5, the paper's node
/// rule — the `EngineConfig` defaults) reduced on `threads` workers.
fn one_shard(raws: &[TimeSeries], threads: usize) -> Engine {
    Engine::build(EngineConfig::default(), Box::new(SaplaReducer::new()), raws.to_vec(), threads)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With PAA's unconditional bounds, the R-tree k-NN equals the linear
    /// scan for every k (GEMINI's no-false-dismissal guarantee).
    #[test]
    fn rtree_paa_knn_is_exact(raws in db_strategy(8..30), k in 1usize..6) {
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> =
            raws.iter().map(|s| Paa.reduce(s, 8).unwrap()).collect();
        let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        let q = Query::new(&raws[0], &Paa, 8).unwrap();
        let got = tree.knn(&q, k, scheme.as_ref(), &raws).unwrap();
        let want = linear_scan_knn(&raws[0], &raws, k).unwrap();
        prop_assert_eq!(got.retrieved, want.retrieved);
    }

    /// Same guarantee for PLA, through range queries.
    #[test]
    fn rtree_pla_range_is_exact(raws in db_strategy(8..30), eps in 0.5f64..15.0) {
        let scheme = scheme_for("PLA").unwrap();
        let reps: Vec<Representation> =
            raws.iter().map(|s| Pla.reduce(s, 8).unwrap()).collect();
        let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        let q = Query::new(&raws[0], &Pla, 8).unwrap();
        let got = tree.range(&q, eps, scheme.as_ref(), &raws).unwrap();
        let want = linear_scan_range(&raws[0], &raws, eps).unwrap();
        prop_assert_eq!(got.retrieved, want.retrieved);
    }

    /// DBCH structural invariants hold for any database and fill factors.
    #[test]
    fn dbch_shape_invariants(raws in db_strategy(3..40), max_fill in 4usize..9) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = DbchTree::build(scheme.as_ref(), reps, 2, max_fill).unwrap();
        let shape = tree.shape();
        prop_assert_eq!(shape.entries, raws.len());
        prop_assert!(shape.leaf_nodes >= raws.len().div_ceil(max_fill));
        prop_assert!(shape.height >= 1);
        // Every leaf holds at most max_fill entries on average.
        prop_assert!(shape.avg_leaf_fill() <= max_fill as f64 + 1e-9);
    }

    /// The k-NN result never contains duplicates and is sorted by exact
    /// distance, for both trees.
    #[test]
    fn knn_results_are_sound(raws in db_strategy(6..25), k in 1usize..8) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let rtree = RTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
        let dbch = DbchTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        let q = Query::new(&raws[raws.len() - 1], &reducer, 12).unwrap();
        for stats in [
            rtree.knn(&q, k, scheme.as_ref(), &raws).unwrap(),
            dbch.knn(&q, k, scheme.as_ref(), &raws).unwrap(),
        ] {
            prop_assert!(stats.retrieved.len() <= k);
            let mut ids = stats.retrieved.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), stats.retrieved.len(), "duplicates in result");
            prop_assert!(stats.distances.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(stats.measured <= raws.len());
            for (&id, &d) in stats.retrieved.iter().zip(&stats.distances) {
                let exact = q.raw.euclidean(&raws[id]).unwrap();
                prop_assert!((exact - d).abs() < 1e-9);
            }
        }
    }

    /// The query-compiled `Dist_PAR` plan and the early-abandoning bound
    /// change *how* the leaf filter is computed, never *what* it answers:
    /// for every candidate, the scheme's distance is bitwise the
    /// streaming reference `dist_par`, its memoisable square roots to
    /// the same bits, and at every threshold (including the distance
    /// itself) the abandoning filter keeps exactly what the reference
    /// comparison keeps, with the same bits. Whole searches are pinned
    /// to an independent oracle by the crate's reference proptests.
    #[test]
    fn planned_and_abandoning_searches_are_bit_identical(
        raws in db_strategy(6..25),
        frac in 0.0f64..2.0,
    ) {
        let reducer = SaplaReducer::new();
        let scheme = AdaptiveLinearScheme;
        let q = Query::new(&raws[0], &reducer, 12).unwrap();
        let q_lin = q.rep.as_linear().unwrap();
        let mut scratch = ParScratch::default();
        for raw in &raws {
            let rep = reducer.reduce(raw, 12).unwrap();
            let want = dist_par(q_lin, rep.as_linear().unwrap()).unwrap();
            let (got, sq) = scheme.rep_dist_sq_with(&q, &rep, &mut scratch).unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(sq.map(|s| s.sqrt().to_bits()), Some(want.to_bits()));
            for threshold in [want, want * frac, f64::INFINITY] {
                let kept = scheme.rep_dist_pruned(&q, &rep, threshold, &mut scratch).unwrap();
                let reference = (want <= threshold).then_some(want.to_bits());
                prop_assert_eq!(kept.map(f64::to_bits), reference, "threshold {}", threshold);
            }
        }
    }

    /// Parallel batch reduction is bit-for-bit the sequential one for any
    /// database, segment budget, and thread count.
    #[test]
    fn parallel_reduction_is_bit_identical(
        raws in db_strategy(3..30),
        m in 2usize..6,
    ) {
        let reducer = SaplaReducer::new();
        let budget = 3 * m; // SAPLA coefficients come in ⟨a, b, r⟩ triples.
        let seq = reduce_batch(&reducer, &raws, budget).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let par = reduce_batch_parallel(&reducer, &raws, budget, threads).unwrap();
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
        }
    }

    /// A one-shard engine built on any thread count (work-stealing
    /// reduction + sequential insertion) holds the very tree of the fully
    /// sequential pipeline — its snapshot image is byte-identical to one
    /// over sequentially reduced representations — and answers
    /// bit-for-bit what `DbchTree::build_with_rule` + `DbchTree::knn`
    /// answer.
    #[test]
    fn parallel_ingest_is_bit_identical(
        raws in db_strategy(5..25),
        k in 1usize..5,
    ) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let seq_image = Engine::from_parts(
            EngineConfig::default(), Box::new(SaplaReducer::new()), reps.clone(), raws.clone(),
        ).unwrap().snapshot_image(None).unwrap();
        let seq = DbchTree::build_with_rule(
            scheme.as_ref(), reps, 2, 5, NodeDistRule::Paper,
        ).unwrap();
        let q = Query::new(&raws[0], &reducer, 12).unwrap();
        let want = seq.knn(&q, k, scheme.as_ref(), &raws).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let engine = one_shard(&raws, threads);
            prop_assert!(
                engine.snapshot_image(None).unwrap() == seq_image, "threads = {}", threads
            );
            let (got, _) = engine.knn(std::slice::from_ref(&q), k, 1).unwrap();
            prop_assert_eq!(&got[0], &want, "threads = {}", threads);
        }
    }

    /// Multi-query k-NN through a one-shard engine returns, per query,
    /// bit-for-bit the sequential `DbchTree::knn` answer — including
    /// exact distances and measured counts — at every thread count, and
    /// its batch aggregate equals the per-query sum.
    #[test]
    fn parallel_knn_batch_is_bit_identical(
        raws in db_strategy(6..25),
        k in 1usize..6,
        n_queries in 2usize..9,
    ) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = DbchTree::build_with_rule(
            scheme.as_ref(), reps, 2, 5, NodeDistRule::Paper,
        ).unwrap();
        let n_queries = n_queries.min(raws.len());
        let engine = one_shard(&raws, 2);
        let queries = engine.prepare(&raws[..n_queries], 2).unwrap();
        let seq: Vec<_> = queries
            .iter()
            .map(|q| tree.knn(q, k, scheme.as_ref(), &raws).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 7] {
            let (got, batch) = engine.knn(&queries, k, threads).unwrap();
            prop_assert_eq!(&got, &seq, "threads = {}", threads);
            for (g, s) in got.iter().zip(&seq) {
                for (gd, sd) in g.distances.iter().zip(&s.distances) {
                    prop_assert!(gd.to_bits() == sd.to_bits());
                }
            }
            prop_assert_eq!(
                batch.measured,
                seq.iter().map(|s| s.measured).sum::<usize>()
            );
        }
    }
}

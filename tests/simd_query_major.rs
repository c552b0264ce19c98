//! End-to-end pins for the SIMD dispatch and query-major batching:
//! whatever SIMD level is forced and however many threads share a
//! batch, every search path — `DbchTree::knn`, `RTree::knn`, and
//! `Engine::knn` over one-shard DBCH and R-tree engines and a
//! three-shard engine — must return bit-for-bit the scalar
//! query-at-a-time answers. The batch holds more queries than one
//! query-major block (`DEFAULT_QUERY_BLOCK`), so it runs full and
//! partial blocks.
//!
//! Everything runs inside one `#[test]` because `simd::force` is
//! process-global: parallel test threads would race the dispatch level.

use sapla_baselines::{Reducer, SaplaReducer};
use sapla_core::simd::{self, supported_levels, SimdLevel};
use sapla_core::TimeSeries;
use sapla_index::{
    scheme_for, DbchTree, Engine, EngineConfig, Query, RTree, SearchStats, TreeKind,
    DEFAULT_QUERY_BLOCK,
};

fn dataset(n_series: usize, len: usize) -> Vec<TimeSeries> {
    (0..n_series)
        .map(|i| {
            TimeSeries::new(
                (0..len)
                    .map(|t| {
                        ((t + i * 11) as f64 * 0.17).sin() * (1.0 + (i % 5) as f64 * 0.2)
                            + (i as f64 * 0.61).sin() * 0.5
                    })
                    .collect(),
            )
            .unwrap()
            .znormalized()
        })
        .collect()
}

fn assert_bitwise_eq(got: &[SearchStats], want: &[SearchStats], what: &str) {
    assert_eq!(got, want, "{what}");
    for (g, w) in got.iter().zip(want) {
        for (gd, wd) in g.distances.iter().zip(&w.distances) {
            assert_eq!(gd.to_bits(), wd.to_bits(), "{what}");
        }
    }
}

#[test]
fn every_simd_level_and_block_size_matches_scalar_query_at_a_time() {
    let raws = dataset(48, 64);
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
    let dbch = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
    let rtree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
    let engine = |tree: TreeKind, shards: usize| {
        let cfg = EngineConfig { shards, tree, ..EngineConfig::default() };
        Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 2).unwrap()
    };
    let (dbch_1, rtree_1, dbch_3) =
        (engine(TreeKind::Dbch, 1), engine(TreeKind::Rtree, 1), engine(TreeKind::Dbch, 3));
    let raw_queries: Vec<TimeSeries> = raws.iter().cycle().take(40).cloned().collect();
    assert!(raw_queries.len() > DEFAULT_QUERY_BLOCK);
    assert_ne!(raw_queries.len() % DEFAULT_QUERY_BLOCK, 0);
    let queries = dbch_1.prepare(&raw_queries, 2).unwrap();
    let per_query = |search: &dyn Fn(&Query) -> SearchStats| -> Vec<SearchStats> {
        queries.iter().map(search).collect()
    };
    let dbch_knn = |q: &Query| dbch.knn(q, 5, scheme.as_ref(), &raws).unwrap();
    let rtree_knn = |q: &Query| rtree.knn(q, 5, scheme.as_ref(), &raws).unwrap();

    // Scalar query-at-a-time references: the trees' own `knn`, and the
    // three-shard engine answering one query per batch.
    simd::force(SimdLevel::Scalar).unwrap();
    let dbch_ref = per_query(&dbch_knn);
    let rtree_ref = per_query(&rtree_knn);
    let sharded_ref =
        per_query(&|q| dbch_3.knn(std::slice::from_ref(q), 5, 1).unwrap().0.remove(0));

    for level in supported_levels() {
        simd::force(level).unwrap();
        let name = level.name();
        assert_bitwise_eq(&per_query(&dbch_knn), &dbch_ref, &format!("{name} dbch"));
        assert_bitwise_eq(&per_query(&rtree_knn), &rtree_ref, &format!("{name} rtree"));
        for threads in [1usize, 2, 4] {
            for (what, engine, want) in [
                ("1-shard dbch", &dbch_1, &dbch_ref),
                ("1-shard rtree", &rtree_1, &rtree_ref),
                ("3-shard dbch", &dbch_3, &sharded_ref),
            ] {
                let (got, _) = engine.knn(&queries, 5, threads).unwrap();
                assert_bitwise_eq(&got, want, &format!("{name} {what} x{threads}"));
            }
        }
    }
    // Leave the process on the auto-detected level for any later tests.
    simd::force(simd::detect()).unwrap();
}

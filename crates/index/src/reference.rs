//! Test-only reference searches: the sequential best-first k-NN walk
//! and the depth-first ε-range walk that `batched.rs` replaced, kept as
//! an independent oracle (as `sapla_core::naive` keeps the original
//! SAPLA kernel). They are written once over [`BatchTree`] with their
//! own copy of the leaf filter, so the proptests below compare the
//! production traversals against code they do not share.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sapla_core::{OrdF64, Result, TimeSeries};
use sapla_distance::{euclidean_early_abandon, safe_sq_bound, ParScratch};

use crate::batched::{BatchTree, NodeView};
use crate::knn::{HullMemo, KnnHeap, SearchStats};
use crate::scheme::{Query, Scheme};

/// What a leaf's refined candidates feed: a k-NN heap or an ε-hit list.
enum Target<'a> {
    Knn(&'a mut KnnHeap),
    Range(f64, &'a mut Vec<(f64, usize)>),
}

impl Target<'_> {
    fn threshold(&self) -> f64 {
        match self {
            Target::Knn(heap) => heap.threshold(),
            Target::Range(epsilon, _) => *epsilon,
        }
    }
}

/// The old per-leaf body: filter every entry (memo replay, SoA or AoS
/// kernel, all widened by the tree's slack), refine the survivors with
/// early abandoning, and count `measured`.
#[allow(clippy::too_many_arguments)]
fn leaf<T: BatchTree + ?Sized>(
    tree: &T,
    nid: usize,
    entries: &[usize],
    q: &Query,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
    target: &mut Target<'_>,
    dist: &mut ParScratch,
    memo: &HullMemo,
    measured: &mut usize,
) -> Result<()> {
    let use_soa = scheme.supports_par_plan() && q.plan.is_some();
    let block = tree.leaf_block(nid, entries.len()).filter(|_| use_soa);
    for (j, &e) in entries.iter().enumerate() {
        let threshold = target.threshold();
        let prune_at = threshold + tree.lb_slack();
        let kept = if matches!(target, Target::Knn(_)) && threshold.is_infinite() {
            Some(f64::INFINITY)
        } else if let Some(kept) = memo.filter(e, prune_at) {
            kept
        } else if let Some(b) = block {
            scheme.rep_dist_pruned_soa(q, b.entry(j)?, prune_at, dist)?
        } else {
            scheme.rep_dist_pruned(q, &tree.reps()[e], prune_at, dist)?
        };
        if kept.is_none() {
            continue;
        }
        *measured += 1;
        let Some(exact) = euclidean_early_abandon(&q.raw, &raws[e], safe_sq_bound(threshold))?
        else {
            continue;
        };
        match target {
            Target::Knn(heap) => heap.push(exact, e),
            Target::Range(epsilon, hits) => {
                if exact <= *epsilon {
                    hits.push((exact, e));
                }
            }
        }
    }
    Ok(())
}

/// Sequential best-first k-NN: pop the closest node, stop once it lies
/// beyond the k-th best distance (widened by the tree's slack), expand
/// internal nodes, evaluate leaves.
pub(crate) fn knn<T: BatchTree + ?Sized>(
    tree: &T,
    q: &Query,
    k: usize,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
) -> Result<SearchStats> {
    let mut results = KnnHeap::new(k);
    let mut heap = BinaryHeap::new();
    let mut dist = ParScratch::default();
    let mut memo = HullMemo::default();
    let mut measured = 0;
    let slack = tree.lb_slack();
    if !tree.is_empty() {
        let d = tree.node_bound(q, scheme, tree.root(), &mut dist, &mut memo)?;
        heap.push(Reverse((OrdF64::new(d), tree.root())));
    }
    while let Some(Reverse((d, nid))) = heap.pop() {
        if d.get() > results.threshold() + slack {
            break;
        }
        match tree.node_view(nid) {
            NodeView::Internal(children) => {
                for &c in children {
                    let node_d = tree.node_bound(q, scheme, c, &mut dist, &mut memo)?;
                    if node_d <= results.threshold() + slack {
                        heap.push(Reverse((OrdF64::new(node_d), c)));
                    }
                }
            }
            NodeView::Leaf(entries) => {
                let mut target = Target::Knn(&mut results);
                leaf(
                    tree,
                    nid,
                    entries,
                    q,
                    scheme,
                    raws,
                    &mut target,
                    &mut dist,
                    &memo,
                    &mut measured,
                )?;
            }
        }
    }
    let (retrieved, distances) = results.into_sorted();
    Ok(SearchStats { retrieved, distances, measured, total: tree.reps().len() })
}

/// Depth-first ε-range: prune a node whose bound exceeds ε (widened by
/// the tree's slack), evaluate every surviving leaf, sort the hits by
/// `(distance, id)`.
pub(crate) fn range<T: BatchTree + ?Sized>(
    tree: &T,
    q: &Query,
    epsilon: f64,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
) -> Result<SearchStats> {
    let mut hits = Vec::new();
    let mut dist = ParScratch::default();
    let mut memo = HullMemo::default();
    let mut measured = 0;
    let mut stack = if tree.is_empty() { vec![] } else { vec![tree.root()] };
    while let Some(nid) = stack.pop() {
        if tree.node_bound(q, scheme, nid, &mut dist, &mut memo)? > epsilon + tree.lb_slack() {
            continue;
        }
        match tree.node_view(nid) {
            NodeView::Internal(children) => stack.extend(children.iter().copied()),
            NodeView::Leaf(entries) => {
                let mut target = Target::Range(epsilon, &mut hits);
                leaf(
                    tree,
                    nid,
                    entries,
                    q,
                    scheme,
                    raws,
                    &mut target,
                    &mut dist,
                    &memo,
                    &mut measured,
                )?;
            }
        }
    }
    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(SearchStats {
        retrieved: hits.iter().map(|&(_, i)| i).collect(),
        distances: hits.iter().map(|&(d, _)| d).collect(),
        measured,
        total: tree.reps().len(),
    })
}

/// Per-shard reference searches merged the way the engine merges:
/// global id `local * shards + shard`, `(distance, global id)` order,
/// `measured` summed. `k = None` is an ε-range search at `epsilon`.
fn engine_search(
    engine: &crate::Engine,
    q: &Query,
    k: Option<usize>,
    epsilon: f64,
) -> Result<SearchStats> {
    use crate::engine::ShardIndex;
    let n_shards = engine.shards.len();
    let mut merged = Vec::new();
    let mut measured = 0;
    for (si, shard) in engine.shards.iter().enumerate() {
        let scheme = engine.scheme.as_ref();
        let stats = match (&shard.index, k) {
            (ShardIndex::Dbch(t), Some(k)) => knn(t, q, k, scheme, &shard.raws)?,
            (ShardIndex::Rtree(t), Some(k)) => knn(t, q, k, scheme, &shard.raws)?,
            (ShardIndex::Dbch(t), None) => range(t, q, epsilon, scheme, &shard.raws)?,
            (ShardIndex::Rtree(t), None) => range(t, q, epsilon, scheme, &shard.raws)?,
        };
        measured += stats.measured;
        merged.extend(
            stats.distances.iter().zip(&stats.retrieved).map(|(&d, &l)| (d, l * n_shards + si)),
        );
    }
    merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    merged.truncate(k.unwrap_or(usize::MAX));
    Ok(SearchStats {
        retrieved: merged.iter().map(|&(_, id)| id).collect(),
        distances: merged.iter().map(|&(d, _)| d).collect(),
        measured,
        total: engine.len(),
    })
}

/// Ids, distance bits and `measured` must all agree.
pub(crate) fn assert_same(got: &SearchStats, want: &SearchStats, context: &str) {
    assert_eq!(got.retrieved, want.retrieved, "{context}: ids");
    let bits = |s: &SearchStats| s.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{context}: distance bits");
    assert_eq!(got.measured, want.measured, "{context}: measured");
    assert_eq!(got.total, want.total, "{context}: total");
}

// Redundant under the file-level gate, but it marks the block as test
// code for `sapla-audit`.
#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sapla_baselines::{Reducer, SaplaReducer};
    use sapla_core::Representation;

    use super::*;
    use crate::batched::{knn_query_major, BlockScratch};
    use crate::dbch::{DbchTree, NodeDistRule};
    use crate::engine::{Engine, EngineConfig, TreeKind};
    use crate::rtree::RTree;
    use crate::scheme::scheme_for;

    /// Random small database of regime-style series (level, slope and
    /// phase per series), z-normalised.
    fn db_strategy(n_series: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TimeSeries>> {
        (
            n_series,
            proptest::collection::vec(
                (-3.0f64..3.0, -0.2f64..0.2, 0.0f64..std::f64::consts::TAU),
                40,
            ),
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

    fn rule_of(triangle: bool) -> NodeDistRule {
        if triangle {
            NodeDistRule::Triangle
        } else {
            NodeDistRule::Paper
        }
    }

    /// Queries over the first few series; `planned = false` strips the
    /// plan so the AoS filter path runs instead of the SoA kernel.
    fn queries(raws: &[TimeSeries], reducer: &dyn Reducer, planned: bool) -> Vec<Query> {
        raws.iter()
            .take(5)
            .map(|r| {
                let mut q = Query::new(r, reducer, 12).unwrap();
                if !planned {
                    q.plan = None;
                }
                q
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `DbchTree::knn`/`range` and `RTree::knn`/`range` against the
        /// reference walks, under both node rules, with and without the
        /// planned SoA kernels; plus multi-query blocks of every size.
        #[test]
        fn tree_searches_match_reference(
            raws in db_strategy(2..40),
            k in 1usize..8,
            epsilon in 0.0f64..9.0,
            triangle in 0usize..2,
            planned in 0usize..2,
        ) {
            let (triangle, planned) = (triangle == 1, planned == 1);
            let reducer = SaplaReducer::new();
            let scheme = scheme_for("SAPLA").unwrap();
            let reps: Vec<Representation> =
                raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
            let dbch =
                DbchTree::build_with_rule(scheme.as_ref(), reps.clone(), 2, 5, rule_of(triangle))
                    .unwrap();
            let rtree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
            let qs = queries(&raws, &reducer, planned);
            let s = scheme.as_ref();
            for (qi, q) in qs.iter().enumerate() {
                let ctx = format!("query {qi}, k {k}, eps {epsilon}, triangle {triangle}");
                assert_same(
                    &dbch.knn(q, k, s, &raws).unwrap(),
                    &knn(&dbch, q, k, s, &raws).unwrap(),
                    &format!("dbch knn, {ctx}"),
                );
                assert_same(
                    &rtree.knn(q, k, s, &raws).unwrap(),
                    &knn(&rtree, q, k, s, &raws).unwrap(),
                    &format!("rtree knn, {ctx}"),
                );
                assert_same(
                    &dbch.range(q, epsilon, s, &raws).unwrap(),
                    &range(&dbch, q, epsilon, s, &raws).unwrap(),
                    &format!("dbch range, {ctx}"),
                );
                assert_same(
                    &rtree.range(q, epsilon, s, &raws).unwrap(),
                    &range(&rtree, q, epsilon, s, &raws).unwrap(),
                    &format!("rtree range, {ctx}"),
                );
            }
            // One scratch carried across every block of every size.
            let mut scratch = BlockScratch::new();
            for block in [1usize, 2, 16] {
                let got: Vec<SearchStats> = qs
                    .chunks(block)
                    .flat_map(|b| knn_query_major(&dbch, b, k, s, &raws, &mut scratch).unwrap())
                    .collect();
                for (qi, (g, q)) in got.iter().zip(&qs).enumerate() {
                    assert_same(
                        g,
                        &knn(&dbch, q, k, s, &raws).unwrap(),
                        &format!("block {block}, query {qi}"),
                    );
                }
            }
        }

        /// Multi-shard `Engine::knn`/`range` against the per-shard
        /// reference walks merged by `(distance, global id)`: DBCH under
        /// both rules and the R-tree, exact lineage and (DBCH only)
        /// quantized-snapshot lineage, where every prune is widened by a
        /// non-zero `lb_slack`.
        #[test]
        fn engine_searches_match_reference(
            raws in db_strategy(2..40),
            k in 1usize..8,
            epsilon in 0.0f64..9.0,
            shards in 1usize..4,
            tree in 0usize..3,
            quantized in 0usize..2,
            step in 1e-3f64..2e-1,
        ) {
            let quantize = (quantized == 1).then_some(step);
            let kind = if tree == 2 { TreeKind::Rtree } else { TreeKind::Dbch };
            let rule = rule_of(tree == 1);
            let cfg = EngineConfig { shards, tree: kind, rule, ..EngineConfig::default() };
            let mut engine =
                Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 2).unwrap();
            if let (Some(step), TreeKind::Dbch) = (quantize, kind) {
                let image = engine.snapshot_image(Some(step)).unwrap();
                engine = Engine::from_snapshot_image(&image).unwrap();
                prop_assert!(engine.lb_slack() > 0.0);
            }
            let qs = engine.prepare(&raws[..raws.len().min(5)], 2).unwrap();
            let (got, _) = engine.knn(&qs, k, 2).unwrap();
            for (qi, q) in qs.iter().enumerate() {
                let ctx = format!("query {qi}, shards {shards}, tree {tree}, step {quantize:?}");
                assert_same(
                    &got[qi],
                    &engine_search(&engine, q, Some(k), 0.0).unwrap(),
                    &format!("knn, {ctx}"),
                );
                assert_same(
                    &engine.range(q, epsilon).unwrap(),
                    &engine_search(&engine, q, None, epsilon).unwrap(),
                    &format!("range eps {epsilon}, {ctx}"),
                );
            }
        }
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let scheme = scheme_for("SAPLA").unwrap();
        let raw = TimeSeries::new((0..48).map(|t| (t as f64).sin()).collect()).unwrap();
        let q = Query::new(&raw, &SaplaReducer::new(), 12).unwrap();
        let tree = DbchTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        let s = scheme.as_ref();
        assert_same(&tree.knn(&q, 3, s, &[]).unwrap(), &knn(&tree, &q, 3, s, &[]).unwrap(), "knn");
        assert_same(
            &tree.range(&q, 1.0, s, &[]).unwrap(),
            &range(&tree, &q, 1.0, s, &[]).unwrap(),
            "range",
        );
    }
}

//! The search traversals: the one k-NN driver ([`knn_query_major`])
//! and the one ε-range walk ([`range_walk`]). Both run over the
//! [`BatchTree`] trait, so the DBCH-tree (hull bounds) and the R-tree
//! (MINDIST bounds) share them, and both share the node-pruning cutoff
//! ([`node_cutoff`]) and the leaf filter + exact refinement
//! ([`eval_leaf`], generic over a [`HitSink`]: the k-NN heap or the
//! ε-hit list). The `lb_slack` widening and the hull-memo replay
//! therefore each live in one function.
//!
//! **k-NN, query-major.** A query-at-a-time driver streams every
//! surviving leaf block through the planned kernel once per query, so
//! with `Q` queries each leaf block is pulled through the cache up to
//! `Q` times. This driver flips the inner loop. A block of queries
//! advances in *rounds*: in each round every still-active query walks
//! its own best-first frontier (internal nodes expanded inline) until it
//! yields its next leaf; the pending `(leaf, query)` pairs are then
//! sorted by leaf and evaluated leaf-by-leaf, so all queries that
//! reached the same leaf in the same round run over its
//! slopes/intercepts/endpoints back-to-back. A single query is a block
//! of one ([`knn_single`], behind `DbchTree::knn` and `RTree::knn`).
//!
//! **Bit-identity.** Each query's result is a pure function of the tree
//! and its own search state — candidate heap, node queue, thresholds —
//! none of which is shared across queries. The round structure only
//! interleaves *which query runs next*; within one query the operation
//! sequence (node pops, bound computations, filter decisions,
//! refinements, heap pushes) is exactly the sequential best-first one.
//! The crate's test-only `reference` module keeps that sequential walk
//! as independent code, and proptests pin this driver to it bitwise
//! (ids, distance bits, `measured`) over both trees, both DBCH node
//! rules, exact and quantized lineage, and several shard counts.
//!
//! **Range.** An ε-range search has a fixed cutoff, so there is nothing
//! to co-schedule: [`range_walk`] is a depth-first walk that prunes a
//! node when its bound exceeds ε and collects every refined entry
//! within ε.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sapla_core::{Error, OrdF64, Representation, Result, TimeSeries};
use sapla_distance::{euclidean_early_abandon, safe_sq_bound, ParScratch};

use crate::knn::{HullMemo, KnnHeap, SearchStats, SearchTally};
use crate::scheme::{Query, Scheme};
use crate::soa::LeafBlock;

/// How many queries ride in one co-scheduled block of an
/// [`crate::Engine::knn`] batch. Large enough that shared leaves
/// amortise a block fetch across many queries, small enough that a
/// block's heaps and scratches stay resident next to the leaf data.
pub const DEFAULT_QUERY_BLOCK: usize = 16;

/// One node of a [`BatchTree`], as the driver sees it.
pub(crate) enum NodeView<'a> {
    /// Child node ids.
    Internal(&'a [usize]),
    /// Entry ids held by a leaf.
    Leaf(&'a [usize]),
}

/// The tree shape both traversals walk — implemented by
/// [`crate::dbch::DbchTree`] (hull bounds) and [`crate::rtree::RTree`]
/// (MINDIST bounds).
pub(crate) trait BatchTree {
    /// Root node id (meaningless when [`BatchTree::is_empty`]).
    fn root(&self) -> usize;
    /// `true` iff the tree holds no entries.
    fn is_empty(&self) -> bool;
    /// Stored representations, entry-id order.
    fn reps(&self) -> &[Representation];
    /// Children of an internal node / entries of a leaf.
    fn node_view(&self, nid: usize) -> NodeView<'_>;
    /// The leaf's SoA mirror, if coherent with `n_entries` entries.
    fn leaf_block(&self, nid: usize, n_entries: usize) -> Option<&LeafBlock>;
    /// Query-to-node bound (hull rule / MINDIST). The DBCH-tree records
    /// the squared hull-representative distances it computes in `memo`
    /// for bitwise replay at the leaf filter; the R-tree's MINDIST has
    /// nothing to memoise and leaves it untouched.
    fn node_bound(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        nid: usize,
        dist: &mut ParScratch,
        memo: &mut HullMemo,
    ) -> Result<f64>;
    /// Per-level fanout accounting hook (the DBCH-tree's lane counter;
    /// the R-tree reports nothing).
    fn count_fanout(&self, _depth: usize, _children: usize) {}
    /// Additive `Dist_LB` slack the strict-invariants audit must allow
    /// for this tree's stored representations (non-zero only for trees
    /// loaded from quantized snapshot leaves, where the stored `Ĉ~` is
    /// perturbed from the least-squares `Ĉ` by at most this much in the
    /// windowed metric).
    fn lb_slack(&self) -> f64 {
        0.0
    }
}

/// The node-pruning cutoff for a search at `threshold` (the k-th best
/// distance so far, or ε). Node bounds over quantized-lineage reps can
/// overshoot the true distance by up to `lb_slack`, so a node is pruned
/// only when its bound exceeds `threshold + lb_slack`. Exact-lineage
/// trees have slack 0.0 and `t + 0.0` is bitwise `t`, so their
/// decisions are untouched.
fn node_cutoff<T: BatchTree + ?Sized>(tree: &T, threshold: f64) -> f64 {
    threshold + tree.lb_slack()
}

/// Where the leaf filter delivers refined candidates: the k-NN heap, or
/// the ε-range hit list.
trait HitSink {
    /// The current pruning threshold: the k-th best distance so far (∞
    /// while fewer than k are known), or ε.
    fn threshold(&self) -> f64;
    /// Entry `id` refined to exact distance `exact` without abandoning
    /// at `safe_sq_bound(threshold())`.
    fn offer(&mut self, exact: f64, id: usize);
    /// Refinement abandoned a candidate: its exact distance exceeds the
    /// threshold strictly.
    fn abandoned(&self) {}
}

impl HitSink for KnnHeap {
    fn threshold(&self) -> f64 {
        KnnHeap::threshold(self)
    }
    // An offer beyond the threshold pops straight back out, leaving the
    // heap as it was.
    fn offer(&mut self, exact: f64, id: usize) {
        self.push(exact, id);
    }
    fn abandoned(&self) {
        sapla_obs::counter!("index.knn.refine_abandoned");
    }
}

/// The ε-range sink: every refined entry within `epsilon`.
struct RangeHits {
    epsilon: f64,
    hits: Vec<(f64, usize)>,
}

impl HitSink for RangeHits {
    fn threshold(&self) -> f64 {
        self.epsilon
    }
    fn offer(&mut self, exact: f64, id: usize) {
        if exact <= self.epsilon {
            self.hits.push((exact, id));
        }
    }
}

/// One in-flight k-NN query's buffers: the candidate heap, the
/// best-first node queue, the `Dist_PAR` partition buffer, and the
/// per-query [`HullMemo`]. Reusing one **never changes results**: both
/// heaps and the memo are cleared by [`KnnScratch::reset`], the
/// partition buffer is cleared by every distance call, and the buffered
/// `Dist_PAR` is bit-for-bit the streaming one.
#[derive(Debug, Default)]
struct KnnScratch {
    results: KnnHeap,
    // Best-first queue of (node distance, node id, node depth). Depth
    // rides along purely for the per-level fanout lanes: node ids are
    // unique in the queue, so comparisons never reach the depth field
    // and the pop order is bit-identical to the (distance, id) queue.
    nodes: BinaryHeap<Reverse<(OrdF64, usize, usize)>>,
    dist: ParScratch,
    hull: HullMemo,
}

impl KnnScratch {
    /// Clear all buffers and size the result heap for `k` neighbours.
    fn reset(&mut self, k: usize) -> &mut Self {
        self.results.reset(k);
        self.nodes.clear();
        self.hull.clear();
        self
    }
}

/// Per-worker state for [`knn_query_major`]: one warm [`KnnScratch`]
/// per in-flight query plus the round's pending `(leaf, query)` pairs.
/// One instance per worker makes steady-state search allocation-light;
/// reuse never changes results — every buffer is reset per block.
#[derive(Default)]
pub(crate) struct BlockScratch {
    scratches: Vec<KnnScratch>,
    pending: Vec<(usize, usize)>,
}

impl BlockScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Evaluate leaf `nid`'s entries for one query: representation filter
/// (SoA planned kernel when the query carries a plan and the leaf's
/// block is coherent, AoS otherwise) then early-abandoning exact
/// refinement, with every survivor offered to `sink`. This is the one
/// copy of the leaf body; both traversals call it.
#[allow(clippy::too_many_arguments)] // the flattened per-query search state
fn eval_leaf<T: BatchTree + ?Sized, S: HitSink>(
    tree: &T,
    nid: usize,
    q: &Query,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
    sink: &mut S,
    dist: &mut ParScratch,
    memo: &HullMemo,
    tally: &mut SearchTally,
) -> Result<()> {
    let NodeView::Leaf(entries) = tree.node_view(nid) else {
        unreachable!("only leaves are evaluated")
    };
    let use_soa = scheme.supports_par_plan() && q.plan.is_some();
    let block = if use_soa { tree.leaf_block(nid, entries.len()) } else { None };
    let reps = tree.reps();
    let lb_slack = tree.lb_slack();
    tally.consider(entries.len());
    for (j, &e) in entries.iter().enumerate() {
        let threshold = sink.threshold();
        // Quantized-lineage trees store reps perturbed by up to
        // `lb_slack` in the windowed metric, so their Dist_LB can
        // overshoot the true distance by that much. Widening the filter
        // cutoff restores soundness: a candidate is pruned only when
        // even `lb - lb_slack` (a true lower bound) exceeds the
        // threshold. Exact-lineage trees have slack 0 and `t + 0.0` is
        // bitwise `t`, so their decisions are untouched.
        let prune_at = threshold + lb_slack;
        // While the threshold is ∞ (a k-NN heap not yet full) no filter
        // can prune, so the representation distance is skipped outright
        // — the keep-decision is identical (`d ≤ ∞`). Strict-invariants
        // builds still evaluate it to keep the lb ≤ exact audit on every
        // candidate.
        let skip_filter = threshold.is_infinite() && !cfg!(feature = "strict-invariants");
        let kept = if skip_filter {
            Some(f64::INFINITY)
        } else if let Some(kept) = memo.filter(e, prune_at) {
            // A hull representative this query already evaluated fully
            // during node bounding: replaying the memoised square is
            // the identical decision and kept value (see `HullMemo`).
            sapla_obs::counter!("index.hull_memo.hits");
            kept
        } else {
            match block {
                Some(b) => scheme.rep_dist_pruned_soa(q, b.entry(j)?, prune_at, dist)?,
                None => scheme.rep_dist_pruned(q, &reps[e], prune_at, dist)?,
            }
        };
        if kept.is_some() {
            tally.measure();
            // Early-abandoning refinement: an abandoned candidate has
            // exact > threshold *strictly* (the safe_sq_bound slack
            // absorbs the t² rounding), so it could be neither a k-NN
            // member nor an ε-hit.
            match euclidean_early_abandon(&q.raw, &raws[e], safe_sq_bound(threshold))? {
                Some(exact) => {
                    #[cfg(feature = "strict-invariants")]
                    crate::scheme::assert_lb_le_exact(q, &reps[e], exact, lb_slack)?;
                    sink.offer(exact, e);
                }
                // The invariant lb ≤ exact holds here by construction:
                // lb ≤ threshold < exact.
                None => sink.abandoned(),
            }
        } else {
            tally.prune();
        }
    }
    Ok(())
}

/// Keep the earliest-by-query-index error: queries are independent, so
/// running every one to completion-or-failure and surfacing the
/// smallest index's error reproduces exactly what a sequential
/// query-by-query loop reports.
fn note_err(slot: &mut Option<(usize, Error)>, qi: usize, e: Error) {
    if slot.as_ref().is_none_or(|(q, _)| qi < *q) {
        *slot = Some((qi, e));
    }
}

/// One k-NN query: a block of one through [`knn_query_major`].
pub(crate) fn knn_single<T: BatchTree + ?Sized>(
    tree: &T,
    q: &Query,
    k: usize,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
) -> Result<SearchStats> {
    debug_assert_eq!(raws.len(), tree.reps().len());
    let mut stats =
        knn_query_major(tree, std::slice::from_ref(q), k, scheme, raws, &mut BlockScratch::new())?;
    Ok(stats.swap_remove(0))
}

/// Answer a block of k-NN queries query-major (see module docs):
/// round-based co-scheduling with per-leaf grouped evaluation. Results
/// are bit-for-bit the sequential per-query searches', in query order;
/// on failure the earliest (by query index) error is returned, as a
/// sequential loop would.
pub(crate) fn knn_query_major<T: BatchTree + ?Sized>(
    tree: &T,
    queries: &[Query],
    k: usize,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
    scratch: &mut BlockScratch,
) -> Result<Vec<SearchStats>> {
    let BlockScratch { scratches, pending } = scratch;
    scratches.resize_with(scratches.len().max(queries.len()), KnnScratch::default);
    let mut tallies = vec![SearchTally::default(); queries.len()];
    let mut done = vec![false; queries.len()];
    let mut first_err: Option<(usize, Error)> = None;

    // Seed every query's frontier with the root, in query order.
    for (qi, q) in queries.iter().enumerate() {
        let s = scratches[qi].reset(k);
        if tree.is_empty() {
            done[qi] = true;
            continue;
        }
        match tree.node_bound(q, scheme, tree.root(), &mut s.dist, &mut s.hull) {
            Ok(d) => s.nodes.push(Reverse((OrdF64::new(d), tree.root(), 0))),
            Err(e) => {
                done[qi] = true;
                note_err(&mut first_err, qi, e);
            }
        }
    }

    loop {
        // Advance phase: each active query walks its best-first
        // frontier until it yields its next leaf (or finishes).
        pending.clear();
        for (qi, q) in queries.iter().enumerate() {
            if done[qi] {
                continue;
            }
            let s = &mut scratches[qi];
            let tally = &mut tallies[qi];
            loop {
                let Some(Reverse((d, nid, depth))) = s.nodes.pop() else {
                    done[qi] = true;
                    break;
                };
                if d.get() > node_cutoff(tree, s.results.threshold()) {
                    // Best-first order: the popped node *and* everything
                    // still queued behind it are beyond the threshold.
                    tally.prune_nodes(1 + s.nodes.len());
                    s.nodes.clear();
                    done[qi] = true;
                    break;
                }
                tally.visit_node();
                match tree.node_view(nid) {
                    NodeView::Internal(children) => {
                        tree.count_fanout(depth, children.len());
                        let mut failed = false;
                        for &c in children {
                            match tree.node_bound(q, scheme, c, &mut s.dist, &mut s.hull) {
                                Ok(node_d) => {
                                    if node_d <= node_cutoff(tree, s.results.threshold()) {
                                        s.nodes.push(Reverse((OrdF64::new(node_d), c, depth + 1)));
                                    } else {
                                        tally.prune_node();
                                    }
                                }
                                Err(e) => {
                                    note_err(&mut first_err, qi, e);
                                    failed = true;
                                    break;
                                }
                            }
                        }
                        if failed {
                            done[qi] = true;
                            s.nodes.clear();
                            break;
                        }
                    }
                    NodeView::Leaf(_) => {
                        pending.push((nid, qi));
                        break;
                    }
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        // Evaluate phase: group this round's pending pairs by leaf, so
        // a leaf's SoA block is fetched once and stays hot for every
        // query that reached it; within a leaf, queries run in query
        // order ((nid, qi) sort — deterministic, pairs are distinct).
        pending.sort_unstable();
        for group in pending.chunk_by(|a, b| a.0 == b.0) {
            sapla_obs::counter!("sapla.knn.leaf_batches");
            sapla_obs::hist!("sapla.knn.query_block", group.len() as u64);
            for &(nid, qi) in group {
                let s = &mut scratches[qi];
                if let Err(e) = eval_leaf(
                    tree,
                    nid,
                    &queries[qi],
                    scheme,
                    raws,
                    &mut s.results,
                    &mut s.dist,
                    &s.hull,
                    &mut tallies[qi],
                ) {
                    note_err(&mut first_err, qi, e);
                    done[qi] = true;
                    s.nodes.clear();
                }
            }
        }
    }

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let mut out = Vec::with_capacity(queries.len());
    for (qi, tally) in tallies.into_iter().enumerate() {
        let (mut retrieved, mut distances) = (Vec::with_capacity(k), Vec::with_capacity(k));
        scratches[qi].results.drain_into(&mut retrieved, &mut distances);
        out.push(SearchStats {
            retrieved,
            distances,
            measured: tally.finish_knn(),
            total: tree.reps().len(),
        });
    }
    Ok(out)
}

/// ε-range search: every entry whose **exact** Euclidean distance to
/// the query is at most `epsilon`, sorted by `(distance, id)` — a
/// strict total order, so multi-shard engines can merge per-shard hit
/// lists deterministically. Nodes whose bound exceeds ε are pruned with
/// their subtrees; leaves go through the shared filter and refinement.
pub(crate) fn range_walk<T: BatchTree + ?Sized>(
    tree: &T,
    q: &Query,
    epsilon: f64,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
) -> Result<SearchStats> {
    debug_assert_eq!(raws.len(), tree.reps().len());
    let mut sink = RangeHits { epsilon, hits: Vec::new() };
    let mut tally = SearchTally::default();
    let mut dist = ParScratch::default();
    let mut memo = HullMemo::default();
    if !tree.is_empty() {
        let mut stack = vec![tree.root()];
        while let Some(nid) = stack.pop() {
            if tree.node_bound(q, scheme, nid, &mut dist, &mut memo)? > node_cutoff(tree, epsilon) {
                tally.prune_node();
                continue;
            }
            tally.visit_node();
            match tree.node_view(nid) {
                NodeView::Internal(children) => stack.extend_from_slice(children),
                NodeView::Leaf(_) => {
                    eval_leaf(tree, nid, q, scheme, raws, &mut sink, &mut dist, &memo, &mut tally)?;
                }
            }
        }
    }
    let mut hits = sink.hits;
    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(SearchStats {
        retrieved: hits.iter().map(|&(_, i)| i).collect(),
        distances: hits.iter().map(|&(d, _)| d).collect(),
        measured: tally.finish_range(),
        total: tree.reps().len(),
    })
}

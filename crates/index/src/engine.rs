//! [`Engine`] — the one batch-search entry point over a (possibly
//! sharded) index, shared by the CLI, the bench harness, and
//! `sapla-serve`.
//!
//! The engine owns everything a query needs: the indexing [`Scheme`],
//! the [`Reducer`] that turns raw series into queries, the raw series
//! (for exact refinement), and one or more index shards. Callers hand
//! it raw query series ([`Engine::prepare`]) or pre-built [`Query`]s and
//! get back per-query [`SearchStats`] plus batch-wide [`BatchStats`].
//!
//! # Sharding and determinism
//!
//! Entries are partitioned round-robin over `shards` independent trees:
//! global id `g` lives in shard `g % shards` at local id `g / shards`.
//! A kNN scatter-gathers: every `(query block, shard)` pair runs top-`k`
//! independently (fanned over the work-stealing engine, each block
//! answered by the query-major co-scheduled driver of [`crate::batched`]
//! with per-worker warm scratches), and per-query results merge by
//! `(distance, global id)` — a strict total order, so the merge is
//! deterministic at every thread count.
//!
//! With `shards == 1` the engine is **bit-identical** to a sequential
//! [`DbchTree::build_with_rule`] + [`DbchTree::knn`] loop over the same
//! series (pinned by proptest). With more shards the answer can differ
//! from a single tree — the paper's node-distance rule is conditional,
//! not a sound lower bound, so *which* candidates a tree refines depends
//! on tree structure. The shard count is therefore part of the index
//! configuration, not a tuning knob to vary between runs (see
//! DESIGN.md, "Service architecture").

use std::sync::Arc;

use sapla_baselines::{reduce_batch_parallel, ReduceScratch, Reducer};
use sapla_core::{Error, Representation, Result, TimeSeries};
use sapla_parallel::par_try_map_init;

use crate::batched::{knn_query_major, BlockScratch, DEFAULT_QUERY_BLOCK};
use crate::dbch::{DbchTree, NodeDistRule};
use crate::knn::SearchStats;
use crate::rtree::RTree;
use crate::scheme::{scheme_for, Query, Scheme};

/// Batch-wide search counters of one [`Engine::knn`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of queries searched.
    pub queries: usize,
    /// Exact-distance computations summed over all queries.
    pub measured: usize,
    /// Candidate pool summed over all queries (`queries × database`).
    pub candidates: usize,
}

impl BatchStats {
    /// Batch pruning power (Eq. 14 summed over the batch): fraction of
    /// all query-candidate pairs that had to be measured exactly.
    pub fn pruning_power(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.measured as f64 / self.candidates as f64
        }
    }
}

/// Which index structure backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeKind {
    /// The paper's DBCH-tree (hull bounds under `Dist_PAR`).
    #[default]
    Dbch,
    /// The R-tree baseline over per-method feature MBRs.
    Rtree,
}

impl TreeKind {
    /// Parse a CLI / wire name (`"dbch"` or `"rtree"`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownMethod`] for anything else.
    pub fn parse(name: &str) -> Result<TreeKind> {
        match name {
            "dbch" => Ok(TreeKind::Dbch),
            "rtree" => Ok(TreeKind::Rtree),
            other => Err(Error::UnknownMethod { name: format!("tree {other}") }),
        }
    }

    /// The name [`TreeKind::parse`] accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::Dbch => "dbch",
            TreeKind::Rtree => "rtree",
        }
    }
}

/// Structural configuration of an [`Engine`]. Everything here shapes
/// the index itself (and thus the answers, see the module docs on
/// sharding) — per-call knobs like thread counts stay out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Index structure per shard.
    pub tree: TreeKind,
    /// Coefficient budget `M` for reduction.
    pub m: usize,
    /// Minimum node fill.
    pub min_fill: usize,
    /// Maximum node fill.
    pub max_fill: usize,
    /// Number of index shards (`0` is treated as `1`).
    pub shards: usize,
    /// DBCH node-distance rule (ignored by the R-tree).
    pub rule: NodeDistRule,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tree: TreeKind::Dbch,
            m: 12,
            min_fill: 2,
            max_fill: 5,
            shards: 1,
            rule: NodeDistRule::Paper,
        }
    }
}

pub(crate) enum ShardIndex {
    Dbch(DbchTree),
    Rtree(RTree),
}

impl ShardIndex {
    /// One query block through the k-NN driver, monomorphised per tree.
    fn knn(
        &self,
        queries: &[Query],
        k: usize,
        scheme: &dyn Scheme,
        raws: &[TimeSeries],
        scratch: &mut BlockScratch,
    ) -> Result<Vec<SearchStats>> {
        match self {
            ShardIndex::Dbch(t) => knn_query_major(t, queries, k, scheme, raws, scratch),
            ShardIndex::Rtree(t) => knn_query_major(t, queries, k, scheme, raws, scratch),
        }
    }

    fn range(
        &self,
        q: &Query,
        epsilon: f64,
        scheme: &dyn Scheme,
        raws: &[TimeSeries],
    ) -> Result<SearchStats> {
        match self {
            ShardIndex::Dbch(t) => t.range(q, epsilon, scheme, raws),
            ShardIndex::Rtree(t) => t.range(q, epsilon, scheme, raws),
        }
    }

    pub(crate) fn reps(&self) -> &[Representation] {
        match self {
            ShardIndex::Dbch(t) => t.reps(),
            ShardIndex::Rtree(t) => t.reps(),
        }
    }
}

pub(crate) struct Shard {
    pub(crate) index: ShardIndex,
    /// Raw series in local-id order (exact refinement reads these).
    pub(crate) raws: Vec<TimeSeries>,
}

/// A self-contained, shareable similarity-search engine (see module
/// docs). `Engine` is `Send + Sync`; long-lived services hold it in an
/// `Arc` and swap the `Arc` on reload so in-flight queries finish
/// against the index they started on.
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) scheme: Arc<dyn Scheme>,
    pub(crate) reducer: Arc<dyn Reducer>,
    pub(crate) shards: Vec<Shard>,
    pub(crate) total: usize,
    /// Additive `Dist_LB` slack every pruning comparison is widened by:
    /// `0.0` for engines built from raw series, the maximum per-record
    /// quantization perturbation for engines loaded from a quantized
    /// snapshot (see `crate::snapshot`). Only a snapshot load sets it;
    /// such an engine cannot be re-imaged, since an image would not
    /// carry the slack.
    pub(crate) lb_slack: f64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cfg", &self.cfg)
            .field("method", &self.reducer.name())
            .field("shards", &self.shards.len())
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Reduce `raws` (on up to `threads` workers) and build the sharded
    /// index. The scheme is derived from the reducer's method name.
    ///
    /// # Errors
    ///
    /// Propagates reduction, scheme-resolution, and tree-build failures.
    pub fn build(
        cfg: EngineConfig,
        reducer: Box<dyn Reducer>,
        raws: Vec<TimeSeries>,
        threads: usize,
    ) -> Result<Engine> {
        let _span = sapla_obs::span!("engine.build");
        let scheme: Arc<dyn Scheme> = Arc::from(scheme_for(reducer.name())?);
        let reps = reduce_batch_parallel(reducer.as_ref(), &raws, cfg.m, threads)?;
        Self::assemble(cfg, scheme, Arc::from(reducer), reps, raws)
    }

    /// Build from already-reduced representations (tree insertion only,
    /// no reduction): `reps[g]` must be the reduction of `raws[g]`.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] when `reps` and `raws` disagree in
    /// length; otherwise scheme-resolution / tree-build failures.
    pub fn from_parts(
        cfg: EngineConfig,
        reducer: Box<dyn Reducer>,
        reps: Vec<Representation>,
        raws: Vec<TimeSeries>,
    ) -> Result<Engine> {
        if reps.len() != raws.len() {
            return Err(Error::LengthMismatch { left: reps.len(), right: raws.len() });
        }
        let scheme: Arc<dyn Scheme> = Arc::from(scheme_for(reducer.name())?);
        Self::assemble(cfg, scheme, Arc::from(reducer), reps, raws)
    }

    fn assemble(
        cfg: EngineConfig,
        scheme: Arc<dyn Scheme>,
        reducer: Arc<dyn Reducer>,
        reps: Vec<Representation>,
        raws: Vec<TimeSeries>,
    ) -> Result<Engine> {
        let n_shards = cfg.shards.max(1);
        let total = reps.len();
        let mut shard_reps: Vec<Vec<Representation>> = Vec::with_capacity(n_shards);
        let mut shard_raws: Vec<Vec<TimeSeries>> = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let cap = total / n_shards + usize::from(s < total % n_shards);
            shard_reps.push(Vec::with_capacity(cap));
            shard_raws.push(Vec::with_capacity(cap));
        }
        for (g, (rep, raw)) in reps.into_iter().zip(raws).enumerate() {
            shard_reps[g % n_shards].push(rep);
            shard_raws[g % n_shards].push(raw);
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (reps, raws) in shard_reps.into_iter().zip(shard_raws) {
            let index = match cfg.tree {
                TreeKind::Dbch => ShardIndex::Dbch(DbchTree::build_with_rule(
                    scheme.as_ref(),
                    reps,
                    cfg.min_fill,
                    cfg.max_fill,
                    cfg.rule,
                )?),
                TreeKind::Rtree => ShardIndex::Rtree(RTree::build(
                    scheme.as_ref(),
                    reps,
                    cfg.min_fill,
                    cfg.max_fill,
                )?),
            };
            shards.push(Shard { index, raws });
        }
        Ok(Engine { cfg, scheme, reducer, shards, total, lb_slack: 0.0 })
    }

    /// Number of indexed series (over all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` iff no series are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of index shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The engine's structural configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The reduction method name (e.g. `"SAPLA"`).
    #[must_use]
    pub fn method(&self) -> &'static str {
        self.reducer.name()
    }

    /// Reduce raw query series into [`Query`]s on up to `threads`
    /// workers, each owning one [`ReduceScratch`] reused across its
    /// queries. Output order is input order.
    ///
    /// # Errors
    ///
    /// Propagates the earliest (by input order) reduction failure.
    pub fn prepare(&self, raws: &[TimeSeries], threads: usize) -> Result<Vec<Query>> {
        par_try_map_init(raws, threads, ReduceScratch::new, |scratch, _, raw| {
            Query::with_scratch(raw, self.reducer.as_ref(), self.cfg.m, scratch)
        })
    }

    /// Answer a batch of k-NN queries: chunk the queries into contiguous
    /// query-major blocks of [`DEFAULT_QUERY_BLOCK`] ([`crate::batched`]),
    /// scatter every `(block, shard)` pair over up to `threads` workers
    /// (`0` = the hardware count), gather per query by
    /// `(distance, global id)`. Results come back in query order and are
    /// identical at every thread count; the returned [`BatchStats`]
    /// equals the sum over the per-query stats.
    ///
    /// # Errors
    ///
    /// Propagates the earliest failing query's error, in query order:
    /// blocks are scattered in query order and each reports its earliest
    /// failing query. (A failure that only some shards hit is ordered by
    /// shard within its block.)
    pub fn knn(
        &self,
        queries: &[Query],
        k: usize,
        threads: usize,
    ) -> Result<(Vec<SearchStats>, BatchStats)> {
        let _span = sapla_obs::span!("engine.knn");
        let n_shards = self.shards.len();
        let block = DEFAULT_QUERY_BLOCK;
        let blocks: Vec<&[Query]> = queries.chunks(block).collect();
        let tasks: Vec<(usize, usize)> =
            (0..blocks.len()).flat_map(|b| (0..n_shards).map(move |s| (b, s))).collect();
        let partials =
            par_try_map_init(&tasks, threads, BlockScratch::new, |scratch, _, &(bi, si)| {
                let shard = &self.shards[si];
                let start_ns = sapla_obs::clock::now_ns();
                let stats =
                    shard.index.knn(blocks[bi], k, self.scheme.as_ref(), &shard.raws, scratch)?;
                // Per-shard execution time, windowed per shard lane so
                // `OP_METRICS` can surface a slow shard's last-minute
                // percentiles next to its lifetime totals.
                let dur = sapla_obs::clock::now_ns().saturating_sub(start_ns);
                sapla_obs::windowed!("engine.shard.knn.ns", si, dur);
                let _ = dur;
                sapla_obs::lane_counter!(
                    "engine.shard.measured",
                    si,
                    stats.iter().map(|s| s.measured as u64).sum::<u64>()
                );
                sapla_obs::lane_counter!("engine.shard.queries", si, blocks[bi].len() as u64);
                Ok(stats)
            })?;
        let mut out = Vec::with_capacity(queries.len());
        let mut measured_total = 0usize;
        let mut merged: Vec<(f64, usize)> = Vec::new();
        for qi in 0..queries.len() {
            merged.clear();
            let mut measured = 0usize;
            let (bi, off) = (qi / block, qi % block);
            for si in 0..n_shards {
                let stats = &partials[bi * n_shards + si][off];
                measured += stats.measured;
                for (&d, &local) in stats.distances.iter().zip(&stats.retrieved) {
                    merged.push((d, local * n_shards + si));
                }
            }
            // (distance, global id) is a strict total order over distinct
            // entries — the merge is deterministic however shards raced.
            merged.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            merged.truncate(k);
            measured_total += measured;
            out.push(SearchStats {
                retrieved: merged.iter().map(|&(_, id)| id).collect(),
                distances: merged.iter().map(|&(d, _)| d).collect(),
                measured,
                total: self.total,
            });
        }
        let batch = BatchStats {
            queries: queries.len(),
            measured: measured_total,
            candidates: queries.len() * self.total,
        };
        Ok((out, batch))
    }

    /// ε-range search over all shards, merged by `(distance, global id)`.
    ///
    /// # Errors
    ///
    /// Propagates distance-computation failures.
    pub fn range(&self, q: &Query, epsilon: f64) -> Result<SearchStats> {
        let _span = sapla_obs::span!("engine.range");
        let n_shards = self.shards.len();
        let mut merged: Vec<(f64, usize)> = Vec::new();
        let mut measured = 0usize;
        for (si, shard) in self.shards.iter().enumerate() {
            let stats = shard.index.range(q, epsilon, self.scheme.as_ref(), &shard.raws)?;
            measured += stats.measured;
            for (&d, &local) in stats.distances.iter().zip(&stats.retrieved) {
                merged.push((d, local * n_shards + si));
            }
        }
        merged.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(SearchStats {
            retrieved: merged.iter().map(|&(_, id)| id).collect(),
            distances: merged.iter().map(|&(d, _)| d).collect(),
            measured,
            total: self.total,
        })
    }

    /// The additive `Dist_LB` slack carried by this engine's trees —
    /// `0.0` unless the engine descends from a quantized snapshot (see
    /// [`Engine::write_snapshot_file`]).
    #[must_use]
    pub fn lb_slack(&self) -> f64 {
        self.lb_slack
    }

    /// Serialize the **whole** engine — raw series, representations
    /// (exact SoA coefficient arenas, or ε-quantized ones when
    /// `quantize` is set), and every shard's fully-built tree — into
    /// the `sapla-store` arena container, in memory.
    ///
    /// Loading the image with [`Engine::from_snapshot_image`] skips
    /// reduction *and* the O(n log n) tree build: arenas are validated,
    /// reinterpreted, and adopted verbatim.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::UnsupportedRepresentation`] when `quantize`
    /// is combined with an R-tree engine or non-linear representations,
    /// and when the engine was itself loaded from a quantized snapshot
    /// (`lb_slack() > 0`: the image would drop the slack that keeps its
    /// pruning sound); encoding failures otherwise.
    pub fn snapshot_image(&self, quantize: Option<f64>) -> Result<Vec<u8>> {
        crate::snapshot::write_image(self, quantize)
    }

    /// [`Engine::snapshot_image`] + write the image to `path`,
    /// returning the file size in bytes.
    ///
    /// # Errors
    ///
    /// Encoding failures, plus [`sapla_core::Error::Io`] on filesystem
    /// failures.
    pub fn write_snapshot_file(
        &self,
        path: &std::path::Path,
        quantize: Option<f64>,
    ) -> Result<u64> {
        let _span = sapla_obs::span!("engine.snapshot.write");
        crate::snapshot::write_file(self, path, quantize)
    }

    /// Reconstruct an engine from a snapshot image produced by
    /// [`Engine::snapshot_image`]: O(file size) validation and bulk
    /// materialization, no reduction, no insertion build. An image at an
    /// address that is not 8-byte aligned is first copied into aligned
    /// storage.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] for any malformed, truncated
    /// or tampered image (never a panic); scheme/reducer resolution
    /// failures for unknown method names.
    pub fn from_snapshot_image(data: &[u8]) -> Result<Engine> {
        if data.as_ptr().align_offset(8) == 0 {
            crate::snapshot::load_image(data)
        } else {
            crate::snapshot::load_image(sapla_store::SnapshotBytes::from_slice(data).bytes())
        }
    }

    /// Read `path` and reconstruct the engine it holds — the daemon
    /// cold-start path.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::Io`] on filesystem failures, otherwise as
    /// [`Engine::from_snapshot_image`].
    pub fn from_snapshot_file(path: &std::path::Path) -> Result<Engine> {
        let _span = sapla_obs::span!("engine.snapshot.load");
        crate::snapshot::load_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sapla_baselines::SaplaReducer;

    fn dataset(n_series: usize, len: usize) -> Vec<TimeSeries> {
        (0..n_series)
            .map(|i| {
                TimeSeries::new(
                    (0..len)
                        .map(|t| {
                            ((t + i * 13) as f64 * 0.19).sin() * (1.0 + (i % 4) as f64 * 0.3)
                                + (i as f64 * 0.37).cos() * 0.4
                        })
                        .collect(),
                )
                .unwrap()
                .znormalized()
            })
            .collect()
    }

    fn engine_with(shards: usize, tree: TreeKind, raws: &[TimeSeries]) -> Engine {
        let cfg = EngineConfig { shards, tree, ..EngineConfig::default() };
        Engine::build(cfg, Box::new(SaplaReducer::new()), raws.to_vec(), 2).unwrap()
    }

    #[test]
    fn single_shard_matches_sequential_tree_bit_for_bit() {
        let raws = dataset(48, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree =
            DbchTree::build_with_rule(scheme.as_ref(), reps, 2, 5, NodeDistRule::Paper).unwrap();
        let queries = engine_with(1, TreeKind::Dbch, &raws).prepare(&raws[..20], 2).unwrap();
        let want: Vec<SearchStats> = queries
            .iter()
            .map(|q| reference::knn(&tree, q, 5, scheme.as_ref(), &raws).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 7] {
            // Parallel reduction, sequential insertion: the same tree.
            let cfg = EngineConfig::default();
            let engine =
                Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), threads).unwrap();
            let ShardIndex::Dbch(built) = &engine.shards[0].index else { unreachable!() };
            assert_eq!(built.shape(), tree.shape(), "threads = {threads}");
            let (got, batch) = engine.knn(&queries, 5, threads).unwrap();
            for (qi, (g, w)) in got.iter().zip(&want).enumerate() {
                reference::assert_same(g, w, &format!("threads = {threads}, query {qi}"));
            }
            assert_eq!(
                batch.measured,
                want.iter().map(|s| s.measured).sum::<usize>(),
                "batch aggregate must equal the per-query sum"
            );
            assert_eq!(batch.queries, queries.len());
            assert_eq!(batch.candidates, queries.len() * raws.len());
            assert!(batch.pruning_power() <= 1.0);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let raws = dataset(30, 64);
        let scheme = scheme_for("SAPLA").unwrap();
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        let ShardIndex::Dbch(tree) = &engine.shards[0].index else { unreachable!() };
        // One block scratch carried across blocks of varying size and k.
        let mut reused = BlockScratch::new();
        for qi in 0..10 {
            let queries = engine.prepare(&raws[qi..qi + 1 + qi % 3], 1).unwrap();
            let k = 2 + qi % 4;
            let warm =
                knn_query_major(tree, &queries, k, scheme.as_ref(), &raws, &mut reused).unwrap();
            for (w, q) in warm.iter().zip(&queries) {
                let fresh = reference::knn(tree, q, k, scheme.as_ref(), &raws).unwrap();
                reference::assert_same(w, &fresh, &format!("query {qi}"));
            }
        }
    }

    #[test]
    fn batch_errors_surface_first_by_query_order() {
        // Queries over a different series length fail in rep_dist with a
        // LengthMismatch carrying the query length. Plant two failing
        // lengths in different query blocks and check that query 2's
        // error wins at every thread count, over one and three shards.
        let raws = dataset(30, 64);
        let bad_a = dataset(1, 32).pop().unwrap();
        let bad_b = dataset(1, 48).pop().unwrap();
        for shards in [1usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let mut raw_queries: Vec<TimeSeries> = raws.iter().cycle().take(40).cloned().collect();
            raw_queries[2] = bad_a.clone();
            raw_queries[20] = bad_b.clone();
            let queries = engine.prepare(&raw_queries, 2).unwrap();
            for threads in [1usize, 2, 4, 7] {
                match engine.knn(&queries, 3, threads).unwrap_err() {
                    Error::LengthMismatch { left, right } => assert_eq!(
                        left.min(right),
                        32,
                        "shards = {shards}, threads = {threads}: expected query 2's mismatch"
                    ),
                    other => panic!("unexpected error: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn sharded_results_are_thread_count_invariant() {
        let raws = dataset(60, 64);
        for shards in [2usize, 3, 4] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let queries = engine.prepare(&raws[..8], 2).unwrap();
            let (want, want_batch) = engine.knn(&queries, 4, 1).unwrap();
            for threads in [2usize, 4, 7] {
                let (got, got_batch) = engine.knn(&queries, 4, threads).unwrap();
                assert_eq!(got, want, "shards = {shards}, threads = {threads}");
                assert_eq!(got_batch, want_batch);
            }
        }
    }

    #[test]
    fn sharded_full_enumeration_matches_single_tree() {
        // With k = |database| nothing can be pruned away structurally:
        // every entry is retrieved, so shard layout must not change the
        // answer set or its (distance, id) order.
        let raws = dataset(30, 64);
        let single = engine_with(1, TreeKind::Dbch, &raws);
        let queries = single.prepare(&raws[..5], 2).unwrap();
        let (want, _) = single.knn(&queries, raws.len(), 2).unwrap();
        for shards in [2usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let (got, _) = engine.knn(&queries, raws.len(), 2).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.retrieved, w.retrieved, "shards = {shards}");
                for (gd, wd) in g.distances.iter().zip(&w.distances) {
                    assert_eq!(gd.to_bits(), wd.to_bits(), "shards = {shards}");
                }
            }
        }
    }

    #[test]
    fn rtree_engine_answers_whole_batches() {
        let raws = dataset(40, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let engine = engine_with(1, TreeKind::Rtree, &raws);
        let queries = engine.prepare(&raws[..6], 2).unwrap();
        let (got, batch) = engine.knn(&queries, 3, 2).unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(batch.queries, 6);
        assert_eq!(batch.candidates, 6 * raws.len());
        // Sequential reference loop over the same tree.
        let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let want = reference::knn(&tree, q, 3, scheme.as_ref(), &raws).unwrap();
            reference::assert_same(&got[qi], &want, &format!("query {qi}"));
        }
    }

    #[test]
    fn range_merge_matches_single_tree_on_one_shard() {
        let raws = dataset(35, 64);
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        let queries = engine.prepare(&raws[..3], 2).unwrap();
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = DbchTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        for q in &queries {
            let want = reference::range(&tree, q, 4.0, scheme.as_ref(), &raws).unwrap();
            let got = engine.range(q, 4.0).unwrap();
            reference::assert_same(&got, &want, "one-shard range");
            assert!(!got.retrieved.is_empty(), "query itself is within epsilon");
        }
    }

    #[test]
    fn sharded_range_is_the_union_of_shard_hits() {
        let raws = dataset(40, 64);
        let single = engine_with(1, TreeKind::Dbch, &raws);
        let queries = single.prepare(&raws[..4], 2).unwrap();
        for shards in [2usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            for q in &queries {
                let want = single.range(q, 5.0).unwrap();
                let got = engine.range(q, 5.0).unwrap();
                // Range is exact (every surviving candidate is measured
                // against epsilon), so the hit set is shard-invariant.
                assert_eq!(got.retrieved, want.retrieved, "shards = {shards}");
            }
        }
    }

    #[test]
    fn snapshot_image_roundtrip_is_bit_identical() {
        let raws = dataset(40, 64);
        for shards in [1usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let queries = engine.prepare(&raws[..6], 2).unwrap();
            let (want, _) = engine.knn(&queries, 4, 2).unwrap();
            let image = engine.snapshot_image(None).unwrap();
            let loaded = Engine::from_snapshot_image(&image).unwrap();
            assert_eq!(loaded.len(), engine.len());
            assert_eq!(loaded.shard_count(), engine.shard_count());
            assert_eq!(loaded.method(), engine.method());
            assert_eq!(loaded.config(), engine.config());
            assert_eq!(loaded.lb_slack(), 0.0);
            let (got, _) = loaded.knn(&queries, 4, 2).unwrap();
            // Includes `measured`: the loaded tree replays the exact
            // same traversal, not just the same answers.
            assert_eq!(got, want, "shards = {shards}");
            for (g, w) in got.iter().zip(&want) {
                for (gd, wd) in g.distances.iter().zip(&w.distances) {
                    assert_eq!(gd.to_bits(), wd.to_bits(), "shards = {shards}");
                }
            }
        }
    }

    #[test]
    fn rtree_snapshot_roundtrip_preserves_answers() {
        let raws = dataset(36, 64);
        let engine = engine_with(2, TreeKind::Rtree, &raws);
        let queries = engine.prepare(&raws[..5], 2).unwrap();
        let (want, _) = engine.knn(&queries, 3, 2).unwrap();
        let loaded = Engine::from_snapshot_image(&engine.snapshot_image(None).unwrap()).unwrap();
        let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn constant_rep_snapshot_takes_the_blob_path() {
        // PAA produces Constant representations — no SoA arenas, the
        // hardened codec blob carries the collection instead.
        let raws = dataset(24, 64);
        let cfg = EngineConfig { shards: 2, ..EngineConfig::default() };
        let engine = Engine::build(cfg, Box::new(sapla_baselines::Paa), raws.clone(), 2).unwrap();
        let queries = engine.prepare(&raws[..4], 2).unwrap();
        let (want, _) = engine.knn(&queries, 3, 2).unwrap();
        let loaded = Engine::from_snapshot_image(&engine.snapshot_image(None).unwrap()).unwrap();
        assert_eq!(loaded.method(), "PAA");
        let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn quantized_snapshot_loads_with_slack_and_finds_self() {
        let raws = dataset(40, 64);
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        let exact = engine.snapshot_image(None).unwrap();
        let image = engine.snapshot_image(Some(1e-3)).unwrap();
        assert!(image.len() < exact.len(), "{} vs {}", image.len(), exact.len());
        let loaded = Engine::from_snapshot_image(&image).unwrap();
        assert!(loaded.lb_slack() > 0.0);
        let queries = engine.prepare(&raws[..6], 2).unwrap();
        let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
        // Refinement distances are exact Euclidean over the raw series
        // (which the snapshot keeps bitwise), so every query still
        // finds itself at distance zero.
        for (qi, s) in got.iter().enumerate() {
            assert_eq!(s.retrieved[0], qi, "query {qi}");
            assert_eq!(s.distances[0], 0.0);
        }
    }

    #[test]
    fn quantize_rejects_rtree_and_bad_steps() {
        let raws = dataset(16, 64);
        let rt = engine_with(1, TreeKind::Rtree, &raws);
        assert!(rt.snapshot_image(Some(0.01)).is_err());
        let db = engine_with(1, TreeKind::Dbch, &raws);
        assert!(db.snapshot_image(Some(0.0)).is_err());
        assert!(db.snapshot_image(Some(-1.0)).is_err());
        assert!(db.snapshot_image(Some(f64::NAN)).is_err());
    }

    #[test]
    fn snapshot_file_roundtrip_via_disk() {
        let raws = dataset(20, 64);
        let engine = engine_with(2, TreeKind::Dbch, &raws);
        let path = std::env::temp_dir().join("sapla_engine_roundtrip.snap");
        let bytes = engine.write_snapshot_file(&path, None).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        let loaded = Engine::from_snapshot_file(&path).unwrap();
        assert_eq!(loaded.len(), 20);
        assert_eq!(loaded.shard_count(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_image_refuses_a_quantized_lineage_engine() {
        // An image stores no slack for exact-rep arenas, so re-imaging an
        // engine loaded from a quantized snapshot would come back with
        // `lb_slack() == 0` over still-perturbed reps: unsound pruning.
        // Re-quantizing is refused too: its slack would be measured
        // against the dequantized reps, not the true reductions.
        let raws = dataset(40, 64);
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        let loaded =
            Engine::from_snapshot_image(&engine.snapshot_image(Some(0.01)).unwrap()).unwrap();
        assert!(loaded.lb_slack() > 0.0);
        for quantize in [None, Some(0.01)] {
            assert!(
                matches!(
                    loaded.snapshot_image(quantize),
                    Err(Error::UnsupportedRepresentation { .. })
                ),
                "quantize = {quantize:?}"
            );
        }
        let path =
            std::env::temp_dir().join(format!("sapla_engine_reimage_{}.snap", std::process::id()));
        assert!(loaded.write_snapshot_file(&path, None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_image_loads_at_a_misaligned_address() {
        let raws = dataset(24, 64);
        let engine = engine_with(2, TreeKind::Dbch, &raws);
        let queries = engine.prepare(&raws[..4], 2).unwrap();
        let (want, _) = engine.knn(&queries, 3, 2).unwrap();
        let image = engine.snapshot_image(None).unwrap();
        let mut padded = vec![0u8; image.len() + 2];
        // Offset 1, or 2 should the allocation itself start at 7 mod 8.
        let off = 1 + usize::from(padded.as_ptr().wrapping_add(1).align_offset(8) == 0);
        padded[off..off + image.len()].copy_from_slice(&image);
        let view = &padded[off..off + image.len()];
        assert_ne!(view.as_ptr().align_offset(8), 0);
        let loaded = Engine::from_snapshot_image(view).unwrap();
        let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn tree_kind_parses_both_ways() {
        assert_eq!(TreeKind::parse("dbch").unwrap(), TreeKind::Dbch);
        assert_eq!(TreeKind::parse("rtree").unwrap(), TreeKind::Rtree);
        assert!(TreeKind::parse("btree").is_err());
        assert_eq!(TreeKind::Dbch.name(), "dbch");
        assert_eq!(TreeKind::Rtree.name(), "rtree");
    }
}

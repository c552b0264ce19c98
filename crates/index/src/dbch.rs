//! The DBCH-tree — Distance-Based Covering with Convex Hull
//! (Section 5.2–5.3 of the paper).
//!
//! Instead of an MBR, every node is bounded by the two member
//! representations with the **maximum `Dist_PAR`** (the "convex hull");
//! their distance is the node's *volume*. Node splitting picks those two
//! as seeds and assigns entries to the nearer seed; branch picking chooses
//! the child whose volume grows least; query filtering uses the hull
//! distances (Section 5.3). All of it runs on the representation distance
//! (`Dist_PAR` for adaptive methods), which is what fixes the APCA-MBR
//! overlap problem.

use sapla_core::{Representation, Result, TimeSeries};

use crate::knn::{HullMemo, SearchStats};
use crate::scheme::{Query, Scheme};
use crate::stats::TreeShape;

/// How the query-to-node distance of Section 5.3 is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeDistRule {
    /// The paper's rule: zero when both hull distances are inside the
    /// volume, otherwise the smaller hull distance. Not guaranteed to
    /// lower-bound (the paper notes internal nodes lose the lemma).
    #[default]
    Paper,
    /// Triangle-inequality rule: `max(0, max(d_u, d_l) − volume)` — a true
    /// lower bound in the representation metric (ablation `ABL2`).
    Triangle,
}

#[derive(Debug, Clone, Copy)]
struct Hull {
    /// Entry id of one hull end ("upper bound" in the paper's wording).
    u: usize,
    /// Entry id of the other hull end ("lower bound").
    l: usize,
    /// `Dist_PAR(u, l)` — the node volume.
    volume: f64,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Internal(Vec<usize>),
    Leaf(Vec<usize>),
}

#[derive(Debug, Clone)]
struct Node {
    hull: Hull,
    kind: NodeKind,
}

/// A DBCH-tree over reduced representations.
///
/// ```
/// use sapla_baselines::{Reducer, SaplaReducer};
/// use sapla_core::TimeSeries;
/// use sapla_index::{scheme_for, DbchTree, Query};
///
/// let series: Vec<TimeSeries> = (0..20)
///     .map(|i| TimeSeries::new((0..32).map(|t| ((t * (i + 2)) as f64 * 0.1).sin()).collect()).unwrap())
///     .collect();
/// let reducer = SaplaReducer::new();
/// let scheme = scheme_for("SAPLA")?;
/// let reps = series.iter().map(|s| reducer.reduce(s, 12)).collect::<Result<Vec<_>, _>>()?;
/// let tree = DbchTree::build(scheme.as_ref(), reps, 2, 5)?;
/// let q = Query::new(&series[5], &reducer, 12)?;
/// let knn = tree.knn(&q, 3, scheme.as_ref(), &series)?;
/// assert!(knn.retrieved.contains(&5));
/// assert!(knn.pruning_power() <= 1.0);
/// # Ok::<(), sapla_core::Error>(())
/// ```
pub struct DbchTree {
    min_fill: usize,
    max_fill: usize,
    root: usize,
    nodes: Vec<Node>,
    reps: Vec<Representation>,
    rule: NodeDistRule,
    /// Additive `Dist_LB` slack for the strict-invariants audit: `0.0`
    /// for built trees, the maximum per-record quantization perturbation
    /// (in the windowed metric) for trees loaded from quantized
    /// snapshot leaves. See [`crate::scheme::assert_lb_le_exact`].
    lb_slack: f64,
}

/// One node of a [`DbchTree`] in exported, layout-stable form — the
/// unit the snapshot writer persists and [`DbchTree::from_raw_parts`]
/// consumes. Node ids are positions in the exported arena, preserved
/// verbatim so a reloaded tree replays searches bit-for-bit (heap
/// tie-breaking orders on node id).
#[derive(Debug, Clone)]
pub(crate) struct RawDbchNode {
    /// Leaf (entry ids) or internal (child node ids)?
    pub is_leaf: bool,
    /// Children ids (internal) or entry ids (leaf).
    pub ids: Vec<usize>,
    /// Hull endpoint entry id ("upper").
    pub hull_u: usize,
    /// Hull endpoint entry id ("lower").
    pub hull_l: usize,
    /// Stored hull volume (`Dist_PAR(u, l)` under the tree's reps).
    pub volume: f64,
}

impl DbchTree {
    /// Build by sequential insertion with the paper's node-distance rule.
    ///
    /// # Errors
    ///
    /// Propagates representation-distance failures from the scheme.
    pub fn build(
        scheme: &dyn Scheme,
        reps: Vec<Representation>,
        min_fill: usize,
        max_fill: usize,
    ) -> Result<DbchTree> {
        Self::build_with_rule(scheme, reps, min_fill, max_fill, NodeDistRule::Paper)
    }

    /// Build with an explicit node-distance rule.
    ///
    /// # Errors
    ///
    /// Propagates representation-distance failures from the scheme.
    pub fn build_with_rule(
        scheme: &dyn Scheme,
        reps: Vec<Representation>,
        min_fill: usize,
        max_fill: usize,
        rule: NodeDistRule,
    ) -> Result<DbchTree> {
        assert!(min_fill >= 1 && max_fill / 2 >= min_fill, "invalid fill factors");
        let mut tree = DbchTree {
            min_fill,
            max_fill,
            root: 0,
            nodes: vec![Node {
                hull: Hull { u: 0, l: 0, volume: 0.0 },
                kind: NodeKind::Leaf(vec![]),
            }],
            reps,
            rule,
            lb_slack: 0.0,
        };
        for id in 0..tree.reps.len() {
            tree.insert_entry(id, scheme)?;
        }
        Ok(tree)
    }

    /// Number of indexed series.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// `true` iff no series are indexed.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// The indexed representations, by entry id (removed entries keep
    /// their slot — ids are stable).
    pub fn reps(&self) -> &[Representation] {
        &self.reps
    }

    /// Insert one more representation, returning its entry id.
    ///
    /// # Errors
    ///
    /// Propagates representation-distance failures from the scheme.
    pub fn insert(&mut self, scheme: &dyn Scheme, rep: Representation) -> Result<usize> {
        let id = self.reps.len();
        self.reps.push(rep);
        self.insert_entry(id, scheme)?;
        Ok(id)
    }

    /// ε-range search: ids of all indexed series whose **exact** Euclidean
    /// distance to the query is at most `epsilon`, filtered through the
    /// Section-5.3 node distances and the representation distance.
    ///
    /// # Errors
    ///
    /// Propagates distance-computation failures.
    pub fn range(
        &self,
        q: &Query,
        epsilon: f64,
        scheme: &dyn Scheme,
        raws: &[TimeSeries],
    ) -> Result<SearchStats> {
        crate::batched::range_walk(self, q, epsilon, scheme, raws)
    }

    /// Remove entry `id` from the index (ids stay stable; underfull nodes
    /// are dissolved and their entries reinserted, hulls recomputed).
    ///
    /// Returns `Ok(false)` when `id` is not (or no longer) indexed.
    ///
    /// # Errors
    ///
    /// Propagates representation-distance failures during hull
    /// recomputation / reinsertion.
    pub fn remove(&mut self, scheme: &dyn Scheme, id: usize) -> Result<bool> {
        if id >= self.reps.len() {
            return Ok(false);
        }
        let mut orphans = Vec::new();
        let (found, root_empty) = self.remove_rec(self.root, id, &mut orphans, scheme)?;
        if !found {
            return Ok(false);
        }
        if root_empty {
            self.nodes[self.root].kind = NodeKind::Leaf(vec![]);
            self.nodes[self.root].hull = Hull { u: 0, l: 0, volume: 0.0 };
        }
        loop {
            let next = match &self.nodes[self.root].kind {
                NodeKind::Internal(c) if c.len() == 1 => c[0],
                _ => break,
            };
            self.root = next;
        }
        for e in orphans {
            self.insert_entry(e, scheme)?;
        }
        Ok(true)
    }

    /// Ids currently stored in leaves (sorted).
    pub fn entry_ids(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_entries(self.root, &mut out);
        out.sort_unstable();
        out
    }

    /// Root node id, for the snapshot writer.
    pub(crate) fn root_id(&self) -> usize {
        self.root
    }

    /// Export the node arena verbatim — same slot order, same ids — so a
    /// tree reconstructed from the export replays best-first searches
    /// bit-for-bit (the traversal heap tie-breaks on node id).
    pub(crate) fn raw_nodes(&self) -> Vec<RawDbchNode> {
        self.nodes
            .iter()
            .map(|n| {
                let (is_leaf, ids) = match &n.kind {
                    NodeKind::Internal(c) => (false, c.clone()),
                    NodeKind::Leaf(e) => (true, e.clone()),
                };
                RawDbchNode {
                    is_leaf,
                    ids,
                    hull_u: n.hull.u,
                    hull_l: n.hull.l,
                    volume: n.hull.volume,
                }
            })
            .collect()
    }

    /// Reassemble a tree from persisted parts without re-running the
    /// O(n log n) insertion build: the node arena is adopted verbatim
    /// after a structural walk. Every malformed input is an `Err`, never
    /// a panic.
    ///
    /// Validated here: fill-factor sanity, root in range, the graph
    /// under `root` is a tree (no node visited twice) covering the whole
    /// arena (no detached slots), internal fanout non-empty, leaf entry
    /// ids unique / in range / covering `reps` exactly, hull endpoints
    /// in range and volumes finite. Semantic hull tightness is *not*
    /// re-derived here — exact-leaf loads can run [`Self::validate`] on
    /// top, quantized loads intentionally keep the written volumes.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the violated invariant.
    pub(crate) fn from_raw_parts(
        min_fill: usize,
        max_fill: usize,
        rule: NodeDistRule,
        root: usize,
        raw: Vec<RawDbchNode>,
        reps: Vec<Representation>,
        lb_slack: f64,
    ) -> Result<DbchTree> {
        fn corrupt(reason: &'static str) -> sapla_core::Error {
            sapla_core::Error::CorruptIndex { reason }
        }
        // Halve rather than double: snapshot fills are untrusted and
        // `2 * min_fill` can overflow.
        if min_fill < 1 || max_fill / 2 < min_fill {
            return Err(corrupt("snapshot fill factors violate min/max constraints"));
        }
        if !lb_slack.is_finite() || lb_slack < 0.0 {
            return Err(corrupt("snapshot lb slack is not a finite non-negative value"));
        }
        if root >= raw.len() {
            return Err(corrupt("snapshot root id outside the node arena"));
        }
        let mut visited = vec![false; raw.len()];
        let mut seen_entry = vec![false; reps.len()];
        let mut n_entries = 0usize;
        // Iterative walk (adversarial inputs could nest deeper than the
        // call stack tolerates).
        let mut stack = vec![root];
        while let Some(nid) = stack.pop() {
            let node =
                raw.get(nid).ok_or_else(|| corrupt("snapshot child id outside the node arena"))?;
            if std::mem::replace(&mut visited[nid], true) {
                return Err(corrupt("snapshot node arena contains a cycle or shared child"));
            }
            if node.hull_u >= reps.len().max(1) || node.hull_l >= reps.len().max(1) {
                return Err(corrupt("snapshot hull endpoint outside the rep arena"));
            }
            if !node.volume.is_finite() || node.volume < 0.0 {
                return Err(corrupt("snapshot hull volume is not a finite non-negative value"));
            }
            if node.is_leaf {
                for &e in &node.ids {
                    if e >= reps.len() {
                        return Err(corrupt("snapshot leaf entry outside the rep arena"));
                    }
                    if std::mem::replace(&mut seen_entry[e], true) {
                        return Err(corrupt("snapshot entry id stored in more than one leaf"));
                    }
                    n_entries += 1;
                }
            } else {
                if node.ids.is_empty() {
                    return Err(corrupt("snapshot internal node has no children"));
                }
                stack.extend(node.ids.iter().copied());
            }
        }
        if visited.iter().any(|v| !v) {
            return Err(corrupt("snapshot node arena contains detached nodes"));
        }
        if n_entries != reps.len() {
            return Err(corrupt("snapshot leaves do not cover the rep arena exactly"));
        }
        let nodes = raw
            .into_iter()
            .map(|n| Node {
                hull: Hull { u: n.hull_u, l: n.hull_l, volume: n.volume },
                kind: if n.is_leaf { NodeKind::Leaf(n.ids) } else { NodeKind::Internal(n.ids) },
            })
            .collect::<Vec<_>>();
        Ok(DbchTree { min_fill, max_fill, root, nodes, reps, rule, lb_slack })
    }

    /// Full structural integrity check, for stress tests and post-reload
    /// verification. Walks every reachable node and verifies:
    ///
    /// * fill bounds (`min_fill ≤ |node| ≤ max_fill`, root exempt below),
    /// * every entry id is unique and within the rep arena,
    /// * each node's hull endpoints are reachable members of its subtree
    ///   and the stored volume equals `Dist_PAR(u, l)` **bitwise**,
    /// * each hull's volume equals a fresh recomputation over the node's
    ///   current membership (bitwise — hulls may not go stale).
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the first violated
    /// invariant; distance errors propagate unchanged.
    pub fn validate(&self, scheme: &dyn Scheme) -> Result<()> {
        fn corrupt(reason: &'static str) -> sapla_core::Error {
            sapla_core::Error::CorruptIndex { reason }
        }
        let mut seen = Vec::new();
        self.validate_rec(self.root, scheme, &mut seen)?;
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt("entry id stored in more than one leaf"));
        }
        Ok(())
    }

    fn validate_rec(&self, node: usize, scheme: &dyn Scheme, seen: &mut Vec<usize>) -> Result<()> {
        fn corrupt(reason: &'static str) -> sapla_core::Error {
            sapla_core::Error::CorruptIndex { reason }
        }
        let Some(n) = self.nodes.get(node) else {
            return Err(corrupt("child id outside the node arena"));
        };
        let h = n.hull;
        match &n.kind {
            NodeKind::Leaf(entries) => {
                if entries.is_empty() {
                    if node != self.root {
                        return Err(corrupt("empty non-root leaf"));
                    }
                    return Ok(());
                }
                if entries.len() > self.max_fill {
                    return Err(corrupt("overfull leaf"));
                }
                if node != self.root && entries.len() < self.min_fill {
                    return Err(corrupt("underfull non-root leaf"));
                }
                if entries.iter().any(|&e| e >= self.reps.len()) {
                    return Err(corrupt("leaf entry outside the rep arena"));
                }
                if !entries.contains(&h.u) || !entries.contains(&h.l) {
                    return Err(corrupt("leaf hull endpoint is not a member"));
                }
                if self.pair(scheme, h.u, h.l)?.to_bits() != h.volume.to_bits() {
                    return Err(corrupt("leaf hull volume is not Dist(u, l)"));
                }
                if self.leaf_hull(scheme, entries)?.volume.to_bits() != h.volume.to_bits() {
                    return Err(corrupt("stale leaf hull volume"));
                }
                seen.extend_from_slice(entries);
                Ok(())
            }
            NodeKind::Internal(children) => {
                if children.is_empty() {
                    return Err(corrupt("internal node without children"));
                }
                if children.len() > self.max_fill {
                    return Err(corrupt("overfull internal node"));
                }
                if node != self.root && children.len() < self.min_fill {
                    return Err(corrupt("underfull non-root internal node"));
                }
                if node == self.root && children.len() < 2 {
                    return Err(corrupt("internal root not collapsed to its only child"));
                }
                if self.pair(scheme, h.u, h.l)?.to_bits() != h.volume.to_bits() {
                    return Err(corrupt("internal hull volume is not Dist(u, l)"));
                }
                if self.internal_hull(scheme, children)?.volume.to_bits() != h.volume.to_bits() {
                    return Err(corrupt("stale internal hull volume"));
                }
                let before = seen.len();
                for &c in children {
                    self.validate_rec(c, scheme, seen)?;
                }
                if !seen[before..].contains(&h.u) || !seen[before..].contains(&h.l) {
                    return Err(corrupt("internal hull endpoint is not in the subtree"));
                }
                Ok(())
            }
        }
    }

    fn collect_entries(&self, node: usize, out: &mut Vec<usize>) {
        match &self.nodes[node].kind {
            NodeKind::Internal(children) => {
                for &c in children {
                    self.collect_entries(c, out);
                }
            }
            NodeKind::Leaf(entries) => out.extend_from_slice(entries),
        }
    }

    /// Returns `(found, this node should be detached)`.
    fn remove_rec(
        &mut self,
        node: usize,
        id: usize,
        orphans: &mut Vec<usize>,
        scheme: &dyn Scheme,
    ) -> Result<(bool, bool)> {
        match &self.nodes[node].kind {
            NodeKind::Leaf(entries) => {
                let Some(pos) = entries.iter().position(|&e| e == id) else {
                    return Ok((false, false));
                };
                let is_root = node == self.root;
                let remaining = {
                    let NodeKind::Leaf(entries) = &mut self.nodes[node].kind else {
                        unreachable!()
                    };
                    entries.remove(pos);
                    if entries.is_empty() {
                        return Ok((true, true));
                    }
                    if entries.len() < self.min_fill && !is_root {
                        orphans.append(entries);
                        return Ok((true, true));
                    }
                    entries.clone()
                };
                self.nodes[node].hull = self.leaf_hull(scheme, &remaining)?;
                Ok((true, false))
            }
            NodeKind::Internal(children) => {
                let children = children.clone();
                for (idx, &c) in children.iter().enumerate() {
                    let (found, detach) = self.remove_rec(c, id, orphans, scheme)?;
                    if !found {
                        continue;
                    }
                    let is_root = node == self.root;
                    let mut dissolved = false;
                    {
                        let NodeKind::Internal(kids) = &mut self.nodes[node].kind else {
                            unreachable!()
                        };
                        if detach {
                            kids.remove(idx);
                        }
                        if kids.is_empty() {
                            return Ok((true, true));
                        }
                        if kids.len() < self.min_fill && !is_root {
                            dissolved = true;
                        }
                    }
                    if dissolved {
                        let kids = match &self.nodes[node].kind {
                            NodeKind::Internal(k) => k.clone(),
                            NodeKind::Leaf(_) => unreachable!(),
                        };
                        for k in kids {
                            self.collect_entries(k, orphans);
                        }
                        return Ok((true, true));
                    }
                    let kids = match &self.nodes[node].kind {
                        NodeKind::Internal(k) => k.clone(),
                        NodeKind::Leaf(_) => unreachable!(),
                    };
                    self.nodes[node].hull = self.internal_hull(scheme, &kids)?;
                    return Ok((true, false));
                }
                Ok((false, false))
            }
        }
    }

    fn pair(&self, scheme: &dyn Scheme, a: usize, b: usize) -> Result<f64> {
        scheme.pair_dist(&self.reps[a], &self.reps[b])
    }

    fn insert_entry(&mut self, id: usize, scheme: &dyn Scheme) -> Result<()> {
        if let Some(sibling) = self.insert_rec(self.root, id, scheme)? {
            let old_root = self.root;
            let hull = self.internal_hull(scheme, &[old_root, sibling])?;
            self.nodes.push(Node { hull, kind: NodeKind::Internal(vec![old_root, sibling]) });
            self.root = self.nodes.len() - 1;
        }
        Ok(())
    }

    fn insert_rec(&mut self, node: usize, id: usize, scheme: &dyn Scheme) -> Result<Option<usize>> {
        match &self.nodes[node].kind {
            NodeKind::Leaf(_) => {
                if let NodeKind::Leaf(entries) = &mut self.nodes[node].kind {
                    entries.push(id);
                }
                let entries = match &self.nodes[node].kind {
                    NodeKind::Leaf(e) => e.clone(),
                    NodeKind::Internal(_) => unreachable!(),
                };
                if entries.len() > self.max_fill {
                    Ok(Some(self.split_leaf(node, scheme)?))
                } else {
                    self.nodes[node].hull = self.leaf_hull(scheme, &entries)?;
                    Ok(None)
                }
            }
            NodeKind::Internal(children) => {
                // Branch picking: minimum volume increase (Section 5.3).
                let children = children.clone();
                let mut best = (f64::INFINITY, f64::INFINITY, children[0]);
                for &c in &children {
                    let h = self.nodes[c].hull;
                    let du = self.pair(scheme, id, h.u)?;
                    let dl = self.pair(scheme, id, h.l)?;
                    let new_vol = h.volume.max(du).max(dl);
                    let inc = new_vol - h.volume;
                    if (inc, h.volume) < (best.0, best.1) {
                        best = (inc, h.volume, c);
                    }
                }
                let child = best.2;
                let sibling = self.insert_rec(child, id, scheme)?;
                if let Some(sib) = sibling {
                    if let NodeKind::Internal(children) = &mut self.nodes[node].kind {
                        children.push(sib);
                    }
                }
                let children = match &self.nodes[node].kind {
                    NodeKind::Internal(c) => c.clone(),
                    NodeKind::Leaf(_) => unreachable!(),
                };
                if children.len() > self.max_fill {
                    Ok(Some(self.split_internal(node, scheme)?))
                } else {
                    self.nodes[node].hull = self.internal_hull(scheme, &children)?;
                    Ok(None)
                }
            }
        }
    }

    /// Hull of a leaf: the entry pair with maximum distance.
    fn leaf_hull(&self, scheme: &dyn Scheme, entries: &[usize]) -> Result<Hull> {
        debug_assert!(!entries.is_empty());
        if entries.len() == 1 {
            return Ok(Hull { u: entries[0], l: entries[0], volume: 0.0 });
        }
        let mut best = Hull { u: entries[0], l: entries[1], volume: f64::NEG_INFINITY };
        for (i, &a) in entries.iter().enumerate() {
            for &b in &entries[i + 1..] {
                let d = self.pair(scheme, a, b)?;
                if d > best.volume {
                    best = Hull { u: a, l: b, volume: d };
                }
            }
        }
        Ok(best)
    }

    /// Hull of an internal node: the paper computes only pairs among the
    /// children's hull endpoints.
    fn internal_hull(&self, scheme: &dyn Scheme, children: &[usize]) -> Result<Hull> {
        let mut candidates: Vec<usize> = Vec::with_capacity(2 * children.len());
        for &c in children {
            let h = self.nodes[c].hull;
            candidates.push(h.u);
            if h.l != h.u {
                candidates.push(h.l);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        self.leaf_hull(scheme, &candidates)
    }

    fn split_leaf(&mut self, node: usize, scheme: &dyn Scheme) -> Result<usize> {
        let entries = match &mut self.nodes[node].kind {
            NodeKind::Leaf(e) => std::mem::take(e),
            NodeKind::Internal(_) => unreachable!(),
        };
        // Seeds: the maximum-distance pair (Section 5.3).
        let hull = self.leaf_hull(scheme, &entries)?;
        let (seed_a, seed_b) = (hull.u, hull.l);
        let mut ga = vec![seed_a];
        let mut gb = vec![seed_b];
        // Assign the rest to the nearer seed, honouring min_fill.
        let rest: Vec<usize> =
            entries.iter().copied().filter(|&e| e != seed_a && e != seed_b).collect();
        let total = rest.len();
        for (done, e) in rest.into_iter().enumerate() {
            let remaining = total - done;
            if ga.len() + remaining <= self.min_fill {
                ga.push(e);
                continue;
            }
            if gb.len() + remaining <= self.min_fill {
                gb.push(e);
                continue;
            }
            let da = self.pair(scheme, e, seed_a)?;
            let db = self.pair(scheme, e, seed_b)?;
            if da <= db {
                ga.push(e);
            } else {
                gb.push(e);
            }
        }
        let ha = self.leaf_hull(scheme, &ga)?;
        let hb = self.leaf_hull(scheme, &gb)?;
        self.nodes[node] = Node { hull: ha, kind: NodeKind::Leaf(ga) };
        self.nodes.push(Node { hull: hb, kind: NodeKind::Leaf(gb) });
        Ok(self.nodes.len() - 1)
    }

    fn split_internal(&mut self, node: usize, scheme: &dyn Scheme) -> Result<usize> {
        let children = match &mut self.nodes[node].kind {
            NodeKind::Internal(c) => std::mem::take(c),
            NodeKind::Leaf(_) => unreachable!(),
        };
        // Seed children by the farthest representative (hull.u) pair.
        let mut seeds = (children[0], children[1]);
        let mut worst = f64::NEG_INFINITY;
        for (i, &a) in children.iter().enumerate() {
            for &b in &children[i + 1..] {
                let d = self.pair(scheme, self.nodes[a].hull.u, self.nodes[b].hull.u)?;
                if d > worst {
                    worst = d;
                    seeds = (a, b);
                }
            }
        }
        let mut ga = vec![seeds.0];
        let mut gb = vec![seeds.1];
        let rest: Vec<usize> =
            children.iter().copied().filter(|&c| c != seeds.0 && c != seeds.1).collect();
        let total = rest.len();
        for (done, c) in rest.into_iter().enumerate() {
            let remaining = total - done;
            if ga.len() + remaining <= self.min_fill {
                ga.push(c);
                continue;
            }
            if gb.len() + remaining <= self.min_fill {
                gb.push(c);
                continue;
            }
            let da = self.pair(scheme, self.nodes[c].hull.u, self.nodes[seeds.0].hull.u)?;
            let db = self.pair(scheme, self.nodes[c].hull.u, self.nodes[seeds.1].hull.u)?;
            if da <= db {
                ga.push(c);
            } else {
                gb.push(c);
            }
        }
        let ha = self.internal_hull(scheme, &ga)?;
        let hb = self.internal_hull(scheme, &gb)?;
        self.nodes[node] = Node { hull: ha, kind: NodeKind::Internal(ga) };
        self.nodes.push(Node { hull: hb, kind: NodeKind::Internal(gb) });
        Ok(self.nodes.len() - 1)
    }

    /// Distance from the query to one hull representative, memoised per
    /// query: hull representatives recur across nodes (an internal
    /// hull's are drawn from its children's) and reappear as ordinary
    /// leaf entries, so the squared distance is cached on first
    /// evaluation and every re-use is `sq.sqrt()` — bitwise the fresh
    /// evaluation (see [`HullMemo`]).
    fn hull_rep_dist(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        entry: usize,
        dist: &mut sapla_distance::ParScratch,
        memo: &mut HullMemo,
    ) -> Result<f64> {
        if let Some(sq) = memo.get(entry) {
            sapla_obs::counter!("index.hull_memo.hits");
            return Ok(sq.sqrt());
        }
        let (d, sq) = scheme.rep_dist_sq_with(q, &self.reps[entry], dist)?;
        if let Some(sq) = sq {
            memo.insert(entry, sq);
        }
        Ok(d)
    }

    /// Query-to-node distance (Section 5.3).
    fn node_dist(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        node: usize,
        dist: &mut sapla_distance::ParScratch,
        memo: &mut HullMemo,
    ) -> Result<f64> {
        let h = self.nodes[node].hull;
        let du = self.hull_rep_dist(q, scheme, h.u, dist, memo)?;
        let dl = self.hull_rep_dist(q, scheme, h.l, dist, memo)?;
        Ok(match self.rule {
            NodeDistRule::Paper => {
                if du < h.volume && dl < h.volume {
                    0.0
                } else {
                    du.min(dl)
                }
            }
            NodeDistRule::Triangle => (du.max(dl) - h.volume).max(0.0),
        })
    }

    /// Best-first k-NN with exact refinement over `raws`.
    ///
    /// Nodes are visited in hull-distance order (Section 5.3); surviving
    /// leaf entries are filtered with the representation distance and
    /// fetched/measured exactly (one "disk access" each — the paper's
    /// pruning-power unit). Because hull distances separate far clusters
    /// even when their coefficient MBRs would overlap, whole leaves are
    /// skipped — the effect Fig. 13 quantifies.
    ///
    /// # Errors
    ///
    /// Propagates distance-computation failures.
    pub fn knn(
        &self,
        q: &Query,
        k: usize,
        scheme: &dyn Scheme,
        raws: &[TimeSeries],
    ) -> Result<SearchStats> {
        crate::batched::knn_single(self, q, k, scheme, raws)
    }

    /// Structural statistics (Figs. 15–16).
    pub fn shape(&self) -> TreeShape {
        let mut shape = TreeShape::default();
        self.walk(self.root, 1, &mut shape);
        shape
    }
}

impl crate::batched::BatchTree for DbchTree {
    fn root(&self) -> usize {
        self.root
    }
    fn is_empty(&self) -> bool {
        DbchTree::is_empty(self)
    }
    fn reps(&self) -> &[Representation] {
        &self.reps
    }
    fn node_view(&self, nid: usize) -> crate::batched::NodeView<'_> {
        match &self.nodes[nid].kind {
            NodeKind::Internal(c) => crate::batched::NodeView::Internal(c),
            NodeKind::Leaf(e) => crate::batched::NodeView::Leaf(e),
        }
    }
    fn node_bound(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        nid: usize,
        dist: &mut sapla_distance::ParScratch,
        memo: &mut HullMemo,
    ) -> Result<f64> {
        self.node_dist(q, scheme, nid, dist, memo)
    }
    fn count_fanout(&self, depth: usize, children: usize) {
        let (_depth, _children) = (depth, children);
        sapla_obs::lane_counter!("index.knn.fanout", _depth, _children as u64);
    }
    fn lb_slack(&self) -> f64 {
        self.lb_slack
    }
}

impl DbchTree {
    fn walk(&self, node: usize, depth: usize, shape: &mut TreeShape) {
        shape.height = shape.height.max(depth);
        match &self.nodes[node].kind {
            NodeKind::Internal(children) => {
                shape.internal_nodes += 1;
                for &c in children {
                    self.walk(c, depth + 1, shape);
                }
            }
            NodeKind::Leaf(entries) => {
                shape.leaf_nodes += 1;
                shape.entries += entries.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::scheme_for;
    use sapla_baselines::{Reducer, SaplaReducer};

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

    fn build_sapla(raws: &[TimeSeries], m: usize) -> (DbchTree, Box<dyn Scheme>) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, m).unwrap()).collect();
        let tree = DbchTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        (tree, scheme)
    }

    #[test]
    fn shape_covers_all_entries() {
        let raws = dataset(60, 64);
        let (tree, _) = build_sapla(&raws, 12);
        let shape = tree.shape();
        assert_eq!(shape.entries, 60);
        assert!(shape.height >= 2);
    }

    #[test]
    fn validate_accepts_sound_trees_and_detects_planted_corruption() {
        use sapla_core::Error;

        let raws = dataset(40, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        tree.validate(scheme.as_ref()).unwrap();

        // Empty and singleton trees are sound too.
        let empty = DbchTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        empty.validate(scheme.as_ref()).unwrap();
        let (single, scheme1) = build_sapla(&dataset(1, 64), 12);
        single.validate(scheme1.as_ref()).unwrap();

        // Plant a stale hull volume: validate must name it.
        let (mut bad, scheme) = build_sapla(&raws, 12);
        let leaf =
            (0..bad.nodes.len()).find(|&n| matches!(bad.nodes[n].kind, NodeKind::Leaf(_))).unwrap();
        bad.nodes[leaf].hull.volume += 1.0;
        match bad.validate(scheme.as_ref()).unwrap_err() {
            Error::CorruptIndex { reason } => assert!(reason.contains("hull"), "{reason}"),
            other => panic!("unexpected error: {other:?}"),
        }

        // Plant a duplicated entry id across two leaves.
        let (mut bad, scheme) = build_sapla(&raws, 12);
        let leaves: Vec<usize> = (0..bad.nodes.len())
            .filter(|&n| matches!(&bad.nodes[n].kind, NodeKind::Leaf(e) if !e.is_empty()))
            .collect();
        assert!(leaves.len() >= 2);
        let stolen = match &bad.nodes[leaves[0]].kind {
            NodeKind::Leaf(e) => e[0],
            NodeKind::Internal(_) => unreachable!(),
        };
        if let NodeKind::Leaf(e) = &mut bad.nodes[leaves[1]].kind {
            e.push(stolen);
        }
        let entries = match &bad.nodes[leaves[1]].kind {
            NodeKind::Leaf(e) => e.clone(),
            NodeKind::Internal(_) => unreachable!(),
        };
        bad.nodes[leaves[1]].hull = bad.leaf_hull(scheme.as_ref(), &entries).unwrap();
        // Which invariant fires first depends on tree layout (the theft
        // can surface as a duplicate id, an overfull leaf, or a stale
        // ancestor hull) — any CorruptIndex is a successful detection.
        match bad.validate(scheme.as_ref()).unwrap_err() {
            Error::CorruptIndex { .. } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn knn_finds_self_and_close_neighbours() {
        let raws = dataset(50, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        let q = Query::new(&raws[7], &reducer, 12).unwrap();
        let stats = tree.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), 5);
        assert!(stats.retrieved.contains(&7));
        assert!(stats.distances[0] < 1e-9);
        assert!(stats.measured <= raws.len());
    }

    #[test]
    fn high_accuracy_against_exact_knn() {
        let raws = dataset(60, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        let query = TimeSeries::new(
            (0..64).map(|t| (t as f64 * 0.18).sin() * 1.3 + 0.2).collect::<Vec<_>>(),
        )
        .unwrap()
        .znormalized();
        let q = Query::new(&query, &reducer, 12).unwrap();
        let stats = tree.knn(&q, 8, scheme.as_ref(), &raws).unwrap();
        let mut truth: Vec<(f64, usize)> =
            raws.iter().enumerate().map(|(i, s)| (query.euclidean(s).unwrap(), i)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expect: Vec<usize> = truth[..8].iter().map(|&(_, i)| i).collect();
        let acc = stats.accuracy(&expect);
        assert!(acc >= 0.5, "accuracy {acc} too low");
    }

    #[test]
    fn triangle_rule_never_misses_more_than_paper_rule_on_average() {
        let raws = dataset(40, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let paper =
            DbchTree::build_with_rule(scheme.as_ref(), reps.clone(), 2, 5, NodeDistRule::Paper)
                .unwrap();
        let tri =
            DbchTree::build_with_rule(scheme.as_ref(), reps, 2, 5, NodeDistRule::Triangle).unwrap();
        let (mut acc_p, mut acc_t) = (0.0, 0.0);
        for qi in 0..5 {
            let q = Query::new(&raws[qi], &reducer, 12).unwrap();
            let truth: Vec<usize> = {
                let mut d: Vec<(f64, usize)> = raws
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (raws[qi].euclidean(s).unwrap(), i))
                    .collect();
                d.sort_by(|a, b| a.0.total_cmp(&b.0));
                d[..4].iter().map(|&(_, i)| i).collect()
            };
            acc_p += paper.knn(&q, 4, scheme.as_ref(), &raws).unwrap().accuracy(&truth);
            acc_t += tri.knn(&q, 4, scheme.as_ref(), &raws).unwrap().accuracy(&truth);
        }
        // The triangle rule is conservative, so it cannot be (much) less
        // accurate; the paper rule prunes harder.
        assert!(acc_t + 1e-9 >= acc_p - 1.0, "tri {acc_t} vs paper {acc_p}");
        assert!(acc_t > 0.0 && acc_p > 0.0);
    }

    #[test]
    fn incremental_insert_equals_build_results() {
        let raws = dataset(25, 64);
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let bulk = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
        let mut incr = DbchTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        for rep in reps {
            incr.insert(scheme.as_ref(), rep).unwrap();
        }
        assert_eq!(incr.len(), bulk.len());
        let q = Query::new(&raws[1], &reducer, 12).unwrap();
        let a = bulk.knn(&q, 4, scheme.as_ref(), &raws).unwrap();
        let b = incr.knn(&q, 4, scheme.as_ref(), &raws).unwrap();
        assert_eq!(a.retrieved, b.retrieved);
    }

    #[test]
    fn range_search_returns_only_in_range_hits() {
        let raws = dataset(40, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        let q = Query::new(&raws[3], &reducer, 12).unwrap();
        let eps = 4.0;
        let got = tree.range(&q, eps, scheme.as_ref(), &raws).unwrap();
        // Everything retrieved is truly within range, sorted, self found.
        assert!(got.retrieved.contains(&3));
        for (&id, &d) in got.retrieved.iter().zip(&got.distances) {
            assert!(d <= eps);
            assert!((raws[3].euclidean(&raws[id]).unwrap() - d).abs() < 1e-9);
        }
        assert!(got.distances.windows(2).all(|w| w[0] <= w[1]));
        // No false positives beyond the exact set (subset relation; the
        // conditional Dist_PAR bound may drop some true hits).
        let exact = crate::linear_scan::linear_scan_range(&raws[3], &raws, eps).unwrap();
        for id in &got.retrieved {
            assert!(exact.retrieved.contains(id));
        }
    }

    #[test]
    fn remove_keeps_search_consistent() {
        let raws = dataset(30, 64);
        let (mut tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        for id in [0usize, 7, 15, 29, 16, 17] {
            assert!(tree.remove(scheme.as_ref(), id).unwrap(), "remove {id}");
            assert!(!tree.remove(scheme.as_ref(), id).unwrap(), "double remove {id}");
        }
        let ids = tree.entry_ids();
        assert_eq!(ids.len(), 24);
        let q = Query::new(&raws[3], &reducer, 12).unwrap();
        let stats = tree.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), 5);
        for id in &stats.retrieved {
            assert!(ids.contains(id), "returned removed id {id}");
        }
    }

    #[test]
    fn drain_and_refill() {
        let raws = dataset(10, 32);
        let (mut tree, scheme) = build_sapla(&raws, 6);
        for id in 0..10 {
            assert!(tree.remove(scheme.as_ref(), id).unwrap());
        }
        assert!(tree.entry_ids().is_empty());
        let reducer = SaplaReducer::new();
        let rep = reducer.reduce(&raws[2], 6).unwrap();
        let id = tree.insert(scheme.as_ref(), rep).unwrap();
        assert_eq!(tree.entry_ids(), vec![id]);
    }

    #[test]
    fn single_and_empty_edge_cases() {
        let raws = dataset(1, 32);
        let (tree, scheme) = build_sapla(&raws, 6);
        let reducer = SaplaReducer::new();
        let q = Query::new(&raws[0], &reducer, 6).unwrap();
        let stats = tree.knn(&q, 3, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved, vec![0]);
        let empty = DbchTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        assert!(empty.is_empty());
        let stats = empty.knn(&q, 3, scheme.as_ref(), &[]).unwrap();
        assert!(stats.retrieved.is_empty());
    }
}

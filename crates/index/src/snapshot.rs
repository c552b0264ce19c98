//! Zero-copy engine persistence over the `sapla-store` arena container.
//!
//! A snapshot holds everything [`Engine`] needs to answer queries — raw
//! series, reduced representations, and every shard's fully-built tree —
//! as 64-byte-aligned, offset-addressed arenas of plain numeric data.
//! Loading therefore costs O(file size): the container is validated
//! (`SnapshotView::parse`), each arena is reinterpreted in place
//! (`sapla_store::view`), and the trees are adopted verbatim through
//! `from_raw_parts` structural validation — no reduction, no
//! O(n log n) insertion build, no per-record decode loop for the hot
//! coefficient arrays.
//!
//! # Arena schema (consumer side of the container)
//!
//! Global arenas (shard 0): [`K_META`]. Per shard `s`:
//!
//! | kind | element | contents |
//! |------|---------|----------|
//! | [`K_RAW_DATA`] | `f64` | raw samples, series-concatenated |
//! | [`K_RAW_LENS`] | `u64` | raw length per local series |
//! | [`K_REP_SPANS`] | `u64` | segment count per representation |
//! | [`K_REP_SLOPES`] / [`K_REP_INTERCEPTS`] | `f64` | exact SoA coefficients |
//! | [`K_REP_ENDPOINTS`] | `u64` | exact inclusive right endpoints |
//! | [`K_QREP_SLOPES`] / [`K_QREP_INTERCEPTS`] | `i32` | ε-quantized coefficients |
//! | [`K_QREP_ENDPOINT_DELTAS`] | `u32` | delta-coded endpoints (lossless) |
//! | [`K_QREP_SLACK`] | `f64` | per-representation `Dist_LB` slack `δ` |
//! | [`K_REP_BLOB`] | bytes | hardened-codec fallback for non-linear reps |
//! | [`K_TREE_NODES`] | `u64` | node records (stride 6 DBCH / 3 R-tree) |
//! | [`K_CHILD_IDS`] | `u64` | flat child / entry id arena |
//! | [`K_SHARD_META`] | `u64` | `[root, node count, rep count]` |
//! | [`K_RECT_SPANS`] / [`K_RECT_LO`] / [`K_RECT_HI`] | `u64` / `f64` | R-tree rectangles |
//! | [`K_FEATURE_SPANS`] / [`K_FEATURES`] | `u64` / `f64` | R-tree feature vectors |
//!
//! # Quantized leaves stay prunable
//!
//! With `quantize = Some(ε)`, slopes and intercepts are stored as
//! `round(x/ε)` in `i32` and endpoints are delta-coded **exactly**. The
//! dequantized representation `Ĉ~` shares `C`'s segmentation, so both
//! reconstruct into the same n-point space and the representation metric
//! obeys the triangle inequality across them:
//! `Dist_LB(Q, Ĉ~) ≤ Dist_LB(Q, C) + δ ≤ Dist(Q, C) + δ` where
//! `δ = √(Σ_j dist_s_sq(a_j, b_j, â_j, b̂_j, L_j))` is computed at write
//! time from the *actual* rounding deltas (not the ε·√n worst case).
//! Rounding moves coefficients in either direction, so the quantized
//! bound can **overshoot** the true distance by up to `δ` — a naive
//! `lb > threshold` prune over `Ĉ~` would be unsound. The per-shard
//! maximum `δ` therefore rides along as [`K_QREP_SLACK`] and every
//! pruning comparison in the loaded tree (node hull bounds and the leaf
//! representation filter alike) is widened by it: a candidate is
//! dismissed only when `lb > threshold + δ`, i.e. when even the true
//! lower bound `lb − δ` rules it out. Since `Dist_LB(Q, Ĉ~) ≤
//! Dist(Q, C) + δ`, every candidate the quantized tree prunes would
//! also have been pruned by the exact tree at the same threshold —
//! quantization never introduces new misses, and refinement reads the
//! bit-preserved raw series, so answers match the exact tree's
//! wherever the underlying scheme/rule bounds are unconditional. The
//! same `δ` also widens the strict-invariants `Dist_LB ≤ exact` audit.
//! Node hull volumes are recomputed over the dequantized reps at write
//! time so the stored tree is self-consistent.

use std::path::Path;
use std::sync::Arc;

use sapla_baselines::{all_reducers, Reducer};
use sapla_core::codec::{decode_collection, encode_collection};
use sapla_core::repr::{LinearSegment, PiecewiseLinear};
use sapla_core::{Error, Representation, Result, TimeSeries};
use sapla_store::{
    put_f64s, put_i32s, put_u32s, put_u64s, view, ArenaWriter, SnapshotBytes, SnapshotView,
};

use crate::dbch::{DbchTree, NodeDistRule, RawDbchNode};
use crate::engine::{Engine, EngineConfig, Shard, ShardIndex, TreeKind};
use crate::rtree::{RTree, RawRtreeNode};
use crate::scheme::{scheme_for, Scheme};

/// Global engine metadata (method, config, quantization step).
pub(crate) const K_META: u32 = 1;
/// Raw samples, `f64`, series-concatenated in local-id order.
pub(crate) const K_RAW_DATA: u32 = 10;
/// Raw series lengths, `u64`, one per local id.
pub(crate) const K_RAW_LENS: u32 = 11;
/// Exact SoA slopes, `f64`, segment-concatenated.
pub(crate) const K_REP_SLOPES: u32 = 20;
/// Exact SoA intercepts, `f64`.
pub(crate) const K_REP_INTERCEPTS: u32 = 21;
/// Exact inclusive right endpoints, `u64`.
pub(crate) const K_REP_ENDPOINTS: u32 = 22;
/// Segment count per representation, `u64`.
pub(crate) const K_REP_SPANS: u32 = 23;
/// ε-quantized slopes, `i32`.
pub(crate) const K_QREP_SLOPES: u32 = 24;
/// ε-quantized intercepts, `i32`.
pub(crate) const K_QREP_INTERCEPTS: u32 = 25;
/// Delta-coded endpoints, `u32` (first delta is `r_0` itself).
pub(crate) const K_QREP_ENDPOINT_DELTAS: u32 = 26;
/// Per-representation quantization slack `δ`, `f64`.
pub(crate) const K_QREP_SLACK: u32 = 27;
/// Hardened-codec blob for non-linear representation collections.
pub(crate) const K_REP_BLOB: u32 = 28;
/// Tree node records, `u64` (stride 6 for DBCH, 3 for the R-tree).
pub(crate) const K_TREE_NODES: u32 = 30;
/// Flat child / leaf-entry id arena, `u64`.
pub(crate) const K_CHILD_IDS: u32 = 31;
/// `[root, node count, rep count]`, `u64`.
pub(crate) const K_SHARD_META: u32 = 32;
/// R-tree rectangle lower corners, `f64`, node-concatenated.
pub(crate) const K_RECT_LO: u32 = 40;
/// R-tree rectangle upper corners, `f64`.
pub(crate) const K_RECT_HI: u32 = 41;
/// Rectangle dimensionality per node, `u64`.
pub(crate) const K_RECT_SPANS: u32 = 42;
/// R-tree feature vectors, `f64`, rep-concatenated.
pub(crate) const K_FEATURES: u32 = 43;
/// Feature dimensionality per rep, `u64`.
pub(crate) const K_FEATURE_SPANS: u32 = 44;

/// Container header flag bit 0: leaf coefficients are ε-quantized.
pub(crate) const FLAG_QUANTIZED: u32 = 1;

const DBCH_NODE_STRIDE: usize = 6;
const RTREE_NODE_STRIDE: usize = 3;

fn corrupt(reason: &'static str) -> Error {
    Error::CorruptIndex { reason }
}

fn unsupported(operation: &'static str) -> Error {
    Error::UnsupportedRepresentation { operation }
}

fn to_usize(v: u64, what: &'static str) -> Result<usize> {
    usize::try_from(v).map_err(|_| Error::CorruptIndex { reason: what })
}

// ---------------------------------------------------------------------
// META arena
// ---------------------------------------------------------------------

struct Meta {
    tree: TreeKind,
    rule: NodeDistRule,
    m: usize,
    min_fill: usize,
    max_fill: usize,
    shards: usize,
    total: usize,
    quant_step: f64,
    method: String,
}

fn encode_meta(engine: &Engine, quant_step: f64) -> Vec<u8> {
    let cfg = engine.cfg;
    let mut out = Vec::new();
    put_u32s(
        &mut out,
        [
            match cfg.tree {
                TreeKind::Dbch => 0u32,
                TreeKind::Rtree => 1,
            },
            match cfg.rule {
                NodeDistRule::Paper => 0u32,
                NodeDistRule::Triangle => 1,
            },
        ],
    );
    put_u64s(
        &mut out,
        [
            cfg.m as u64,
            cfg.min_fill as u64,
            cfg.max_fill as u64,
            cfg.shards as u64,
            engine.total as u64,
        ],
    );
    put_f64s(&mut out, [quant_step]);
    let method = engine.reducer.name().as_bytes();
    // audit: cast_ok — reducer names are short static identifiers, far below u32::MAX.
    put_u32s(&mut out, [method.len() as u32]);
    out.extend_from_slice(method);
    out
}

/// A bounds-checked little-endian byte cursor for the META arena.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| corrupt("snapshot metadata truncated"))?;
        let out = &self.data[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<()> {
        if self.at != self.data.len() {
            return Err(corrupt("snapshot metadata has trailing bytes"));
        }
        Ok(())
    }
}

fn parse_meta(data: &[u8]) -> Result<Meta> {
    let mut c = Cursor::new(data);
    let tree = match c.u32()? {
        0 => TreeKind::Dbch,
        1 => TreeKind::Rtree,
        _ => return Err(corrupt("snapshot metadata names an unknown tree kind")),
    };
    let rule = match c.u32()? {
        0 => NodeDistRule::Paper,
        1 => NodeDistRule::Triangle,
        _ => return Err(corrupt("snapshot metadata names an unknown node-distance rule")),
    };
    let m = to_usize(c.u64()?, "snapshot coefficient budget overflows")?;
    let min_fill = to_usize(c.u64()?, "snapshot min fill overflows")?;
    let max_fill = to_usize(c.u64()?, "snapshot max fill overflows")?;
    let shards = to_usize(c.u64()?, "snapshot shard count overflows")?;
    let total = to_usize(c.u64()?, "snapshot record count overflows")?;
    let quant_step = c.f64()?;
    let method_len = to_usize(u64::from(c.u32()?), "snapshot method name overflows")?;
    let method = String::from_utf8(c.take(method_len)?.to_vec())
        .map_err(|_| corrupt("snapshot method name is not UTF-8"))?;
    c.finish()?;
    Ok(Meta { tree, rule, m, min_fill, max_fill, shards, total, quant_step, method })
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

/// `round(x / step)` as `i32`, rejecting overflow instead of wrapping.
fn quantize_coeff(x: f64, step: f64) -> Result<i32> {
    let q = (x / step).round();
    if !q.is_finite() || q < f64::from(i32::MIN) || q > f64::from(i32::MAX) {
        return Err(Error::MalformedRepresentation {
            reason: "coefficient overflows the quantized snapshot range",
        });
    }
    // audit: cast_ok — range-checked against i32::MIN..=i32::MAX just above.
    Ok(q as i32)
}

/// Per-shard quantized rep arenas plus the data the tree writer needs.
struct QuantizedReps {
    spans: Vec<u8>,
    slopes: Vec<u8>,
    intercepts: Vec<u8>,
    deltas: Vec<u8>,
    slack: Vec<u8>,
    /// Dequantized reps (what a loader will materialize) — hull volumes
    /// are recomputed over these so the stored tree is self-consistent.
    dequantized: Vec<Representation>,
}

fn quantize_reps(reps: &[Representation], step: f64) -> Result<QuantizedReps> {
    let mut out = QuantizedReps {
        spans: Vec::new(),
        slopes: Vec::new(),
        intercepts: Vec::new(),
        deltas: Vec::new(),
        slack: Vec::new(),
        dequantized: Vec::with_capacity(reps.len()),
    };
    for rep in reps {
        let lin = rep.as_linear().ok_or_else(|| {
            unsupported("quantized snapshot leaves require piecewise-linear representations")
        })?;
        put_u64s(&mut out.spans, [lin.num_segments() as u64]);
        let mut acc = 0.0f64;
        let mut prev_r: Option<usize> = None;
        let mut dq_segs = Vec::with_capacity(lin.num_segments());
        for (j, seg) in lin.segments().iter().enumerate() {
            let qa = quantize_coeff(seg.a, step)?;
            let qb = quantize_coeff(seg.b, step)?;
            let da = f64::from(qa) * step;
            let db = f64::from(qb) * step;
            // The exact perturbation this segment contributes to
            // ‖recon(C) − recon(Ĉ~)‖²: both lines live on the same
            // window because endpoints are preserved losslessly.
            acc += sapla_distance::dist_s_sq(seg.a, seg.b, da, db, lin.seg_len(j));
            let delta = match prev_r {
                None => seg.r,
                Some(p) => seg.r - p,
            };
            let delta = u32::try_from(delta).map_err(|_| {
                unsupported("segment endpoint exceeds the quantized snapshot's delta range")
            })?;
            put_i32s(&mut out.slopes, [qa]);
            put_i32s(&mut out.intercepts, [qb]);
            put_u32s(&mut out.deltas, [delta]);
            prev_r = Some(seg.r);
            dq_segs.push(LinearSegment { a: da, b: db, r: seg.r });
        }
        put_f64s(&mut out.slack, [acc.sqrt()]);
        out.dequantized.push(Representation::Linear(PiecewiseLinear::new(dq_segs)?));
    }
    Ok(out)
}

/// The four SoA arenas of an exact linear-rep shard, as raw bytes:
/// spans, slopes, intercepts, endpoints.
type ExactRepArenas = (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>);

/// Exact SoA rep arenas (bit-preserving: coefficients round-trip as raw
/// `f64` bits).
fn exact_rep_arenas(reps: &[Representation]) -> Option<ExactRepArenas> {
    let mut spans = Vec::new();
    let mut slopes = Vec::new();
    let mut intercepts = Vec::new();
    let mut endpoints = Vec::new();
    for rep in reps {
        let lin = rep.as_linear()?;
        put_u64s(&mut spans, [lin.num_segments() as u64]);
        put_f64s(&mut slopes, lin.segments().iter().map(|s| s.a));
        put_f64s(&mut intercepts, lin.segments().iter().map(|s| s.b));
        put_u64s(&mut endpoints, lin.segments().iter().map(|s| s.r as u64));
    }
    Some((spans, slopes, intercepts, endpoints))
}

fn push_dbch_tree(
    w: &mut ArenaWriter,
    shard: u32,
    root: usize,
    raw: &[RawDbchNode],
    n_reps: usize,
    volumes: Option<&[f64]>,
) -> Result<()> {
    let mut nodes = Vec::new();
    let mut children = Vec::new();
    let mut child_ids: Vec<u64> = Vec::new();
    for (i, n) in raw.iter().enumerate() {
        let volume = volumes.map_or(n.volume, |v| v[i]);
        put_u64s(
            &mut nodes,
            [
                u64::from(n.is_leaf),
                child_ids.len() as u64,
                n.ids.len() as u64,
                n.hull_u as u64,
                n.hull_l as u64,
                volume.to_bits(),
            ],
        );
        child_ids.extend(n.ids.iter().map(|&id| id as u64));
    }
    put_u64s(&mut children, child_ids.iter().copied());
    w.push_arena(K_TREE_NODES, shard, &nodes)?;
    w.push_arena(K_CHILD_IDS, shard, &children)?;
    let mut sm = Vec::new();
    put_u64s(&mut sm, [root as u64, raw.len() as u64, n_reps as u64]);
    w.push_arena(K_SHARD_META, shard, &sm)
}

fn push_rtree_tree(w: &mut ArenaWriter, shard: u32, tree: &RTree, n_reps: usize) -> Result<()> {
    let raw = tree.raw_nodes();
    let mut nodes = Vec::new();
    let mut children = Vec::new();
    let mut child_ids: Vec<u64> = Vec::new();
    let mut rect_spans = Vec::new();
    let mut rect_lo = Vec::new();
    let mut rect_hi = Vec::new();
    for n in &raw {
        put_u64s(&mut nodes, [u64::from(n.is_leaf), child_ids.len() as u64, n.ids.len() as u64]);
        child_ids.extend(n.ids.iter().map(|&id| id as u64));
        put_u64s(&mut rect_spans, [n.rect_lo.len() as u64]);
        put_f64s(&mut rect_lo, n.rect_lo.iter().copied());
        put_f64s(&mut rect_hi, n.rect_hi.iter().copied());
    }
    put_u64s(&mut children, child_ids.iter().copied());
    let mut features = Vec::new();
    let mut feature_spans = Vec::new();
    for f in tree.feature_vectors() {
        put_u64s(&mut feature_spans, [f.len() as u64]);
        put_f64s(&mut features, f.iter().copied());
    }
    w.push_arena(K_TREE_NODES, shard, &nodes)?;
    w.push_arena(K_CHILD_IDS, shard, &children)?;
    w.push_arena(K_RECT_SPANS, shard, &rect_spans)?;
    w.push_arena(K_RECT_LO, shard, &rect_lo)?;
    w.push_arena(K_RECT_HI, shard, &rect_hi)?;
    w.push_arena(K_FEATURE_SPANS, shard, &feature_spans)?;
    w.push_arena(K_FEATURES, shard, &features)?;
    let mut sm = Vec::new();
    put_u64s(&mut sm, [tree.root_id() as u64, raw.len() as u64, n_reps as u64]);
    w.push_arena(K_SHARD_META, shard, &sm)
}

pub(crate) fn write_image(engine: &Engine, quantize: Option<f64>) -> Result<Vec<u8>> {
    if engine.lb_slack > 0.0 {
        // Exact-rep arenas carry no slack, and re-quantizing would measure
        // it against the already-perturbed reps: either image would load
        // with pruning narrower than the reps' true error.
        return Err(unsupported("re-imaging an engine loaded from a quantized snapshot"));
    }
    if let Some(step) = quantize {
        if !step.is_finite() || step <= 0.0 {
            return Err(unsupported("quantization step must be finite and positive"));
        }
        if engine.cfg.tree != TreeKind::Dbch {
            // R-tree rectangles are derived from exact features; serving
            // them over perturbed reps would break MINDIST containment.
            return Err(unsupported("quantized snapshot leaves require the DBCH tree"));
        }
    }
    let flags = if quantize.is_some() { FLAG_QUANTIZED } else { 0 };
    let mut w = ArenaWriter::new(flags);
    w.push_arena(K_META, 0, &encode_meta(engine, quantize.unwrap_or(0.0)))?;
    for (si, shard) in engine.shards.iter().enumerate() {
        let s = u32::try_from(si).map_err(|_| corrupt("too many shards for a snapshot"))?;
        let mut lens = Vec::new();
        let mut data = Vec::new();
        for raw in &shard.raws {
            put_u64s(&mut lens, [raw.len() as u64]);
            put_f64s(&mut data, raw.values().iter().copied());
        }
        w.push_arena(K_RAW_LENS, s, &lens)?;
        w.push_arena(K_RAW_DATA, s, &data)?;
        let reps = shard.index.reps();
        match (&shard.index, quantize) {
            (ShardIndex::Dbch(tree), Some(step)) => {
                let q = quantize_reps(reps, step)?;
                w.push_arena(K_REP_SPANS, s, &q.spans)?;
                w.push_arena(K_QREP_SLOPES, s, &q.slopes)?;
                w.push_arena(K_QREP_INTERCEPTS, s, &q.intercepts)?;
                w.push_arena(K_QREP_ENDPOINT_DELTAS, s, &q.deltas)?;
                w.push_arena(K_QREP_SLACK, s, &q.slack)?;
                // Recompute hull volumes over the dequantized reps the
                // loader will materialize: the stored tree must be
                // self-consistent under *its own* leaf coefficients.
                let raw = tree.raw_nodes();
                let mut volumes = Vec::with_capacity(raw.len());
                for n in &raw {
                    volumes.push(if q.dequantized.is_empty() {
                        n.volume
                    } else {
                        engine
                            .scheme
                            .pair_dist(&q.dequantized[n.hull_u], &q.dequantized[n.hull_l])?
                    });
                }
                push_dbch_tree(&mut w, s, tree.root_id(), &raw, reps.len(), Some(&volumes))?;
            }
            (ShardIndex::Dbch(tree), None) => {
                match exact_rep_arenas(reps) {
                    Some((spans, slopes, intercepts, endpoints)) => {
                        w.push_arena(K_REP_SPANS, s, &spans)?;
                        w.push_arena(K_REP_SLOPES, s, &slopes)?;
                        w.push_arena(K_REP_INTERCEPTS, s, &intercepts)?;
                        w.push_arena(K_REP_ENDPOINTS, s, &endpoints)?;
                    }
                    None => w.push_arena(K_REP_BLOB, s, &encode_collection(reps)?)?,
                }
                push_dbch_tree(&mut w, s, tree.root_id(), &tree.raw_nodes(), reps.len(), None)?;
            }
            (ShardIndex::Rtree(tree), _) => {
                match exact_rep_arenas(reps) {
                    Some((spans, slopes, intercepts, endpoints)) => {
                        w.push_arena(K_REP_SPANS, s, &spans)?;
                        w.push_arena(K_REP_SLOPES, s, &slopes)?;
                        w.push_arena(K_REP_INTERCEPTS, s, &intercepts)?;
                        w.push_arena(K_REP_ENDPOINTS, s, &endpoints)?;
                    }
                    None => w.push_arena(K_REP_BLOB, s, &encode_collection(reps)?)?,
                }
                push_rtree_tree(&mut w, s, tree, reps.len())?;
            }
        }
    }
    Ok(w.finish())
}

pub(crate) fn write_file(engine: &Engine, path: &Path, quantize: Option<f64>) -> Result<u64> {
    let image = write_image(engine, quantize)?;
    std::fs::write(path, &image)
        .map_err(|e| Error::Io { path: path.display().to_string(), message: e.to_string() })?;
    Ok(image.len() as u64)
}

// ---------------------------------------------------------------------
// Load path
// ---------------------------------------------------------------------

/// Sum `spans` with overflow checking and verify the per-element arena
/// holds exactly that many elements.
fn checked_total(spans: &[u64], have: usize, what: &'static str) -> Result<usize> {
    let mut total = 0usize;
    for &s in spans {
        total =
            to_usize(s, what)?.checked_add(total).ok_or(Error::CorruptIndex { reason: what })?;
    }
    if total != have {
        return Err(Error::CorruptIndex { reason: what });
    }
    Ok(total)
}

fn load_exact_reps(v: &SnapshotView<'_>, s: u32, n_reps: usize) -> Result<Vec<Representation>> {
    if let Some(blob) = v.arena_opt(K_REP_BLOB, s) {
        let reps = decode_collection(blob)?;
        if reps.len() != n_reps {
            return Err(corrupt("snapshot rep blob disagrees with the shard record count"));
        }
        return Ok(reps);
    }
    let spans = view::u64s(v.arena(K_REP_SPANS, s)?)?;
    if spans.len() != n_reps {
        return Err(corrupt("snapshot rep spans disagree with the shard record count"));
    }
    let slopes = view::f64s(v.arena(K_REP_SLOPES, s)?)?;
    let intercepts = view::f64s(v.arena(K_REP_INTERCEPTS, s)?)?;
    let endpoints = view::u64s(v.arena(K_REP_ENDPOINTS, s)?)?;
    checked_total(spans, slopes.len(), "snapshot slope arena disagrees with the rep spans")?;
    if intercepts.len() != slopes.len() || endpoints.len() != slopes.len() {
        return Err(corrupt("snapshot coefficient arenas disagree in length"));
    }
    let mut reps = Vec::with_capacity(n_reps);
    let mut at = 0usize;
    for &span in spans {
        let span = to_usize(span, "snapshot rep span overflows")?;
        let mut segs = Vec::with_capacity(span);
        for j in at..at + span {
            let r = to_usize(endpoints[j], "snapshot segment endpoint overflows")?;
            segs.push(LinearSegment { a: slopes[j], b: intercepts[j], r });
        }
        at += span;
        reps.push(Representation::Linear(
            PiecewiseLinear::new(segs)
                .map_err(|_| corrupt("snapshot representation has malformed segment endpoints"))?,
        ));
    }
    Ok(reps)
}

/// Returns the dequantized reps plus the shard's `Dist_LB` slack (the
/// maximum stored per-rep `δ`).
fn load_quantized_reps(
    v: &SnapshotView<'_>,
    s: u32,
    n_reps: usize,
    step: f64,
) -> Result<(Vec<Representation>, f64)> {
    if !step.is_finite() || step <= 0.0 {
        return Err(corrupt("quantized snapshot has a non-positive quantization step"));
    }
    let spans = view::u64s(v.arena(K_REP_SPANS, s)?)?;
    if spans.len() != n_reps {
        return Err(corrupt("snapshot rep spans disagree with the shard record count"));
    }
    let slopes = view::i32s(v.arena(K_QREP_SLOPES, s)?)?;
    let intercepts = view::i32s(v.arena(K_QREP_INTERCEPTS, s)?)?;
    let deltas = view::u32s(v.arena(K_QREP_ENDPOINT_DELTAS, s)?)?;
    let slack = view::f64s(v.arena(K_QREP_SLACK, s)?)?;
    checked_total(spans, slopes.len(), "snapshot slope arena disagrees with the rep spans")?;
    if intercepts.len() != slopes.len() || deltas.len() != slopes.len() {
        return Err(corrupt("snapshot coefficient arenas disagree in length"));
    }
    if slack.len() != n_reps {
        return Err(corrupt("snapshot slack arena disagrees with the shard record count"));
    }
    let mut reps = Vec::with_capacity(n_reps);
    let mut shard_slack = 0.0f64;
    for &d in slack {
        if !d.is_finite() || d < 0.0 {
            return Err(corrupt("snapshot slack is not a finite non-negative value"));
        }
        shard_slack = shard_slack.max(d);
    }
    let mut at = 0usize;
    for &span in spans {
        let span = to_usize(span, "snapshot rep span overflows")?;
        let mut segs = Vec::with_capacity(span);
        let mut r = 0u64;
        for j in at..at + span {
            // First delta is r_0 itself; later deltas must be ≥ 1 for
            // strictly increasing endpoints (PiecewiseLinear re-checks).
            r = r
                .checked_add(u64::from(deltas[j]))
                .ok_or_else(|| corrupt("snapshot segment endpoint overflows"))?;
            segs.push(LinearSegment {
                a: f64::from(slopes[j]) * step,
                b: f64::from(intercepts[j]) * step,
                r: to_usize(r, "snapshot segment endpoint overflows")?,
            });
        }
        at += span;
        reps.push(Representation::Linear(
            PiecewiseLinear::new(segs)
                .map_err(|_| corrupt("snapshot representation has malformed segment endpoints"))?,
        ));
    }
    Ok((reps, shard_slack))
}

fn load_raws(v: &SnapshotView<'_>, s: u32, n_reps: usize) -> Result<Vec<TimeSeries>> {
    let lens = view::u64s(v.arena(K_RAW_LENS, s)?)?;
    if lens.len() != n_reps {
        return Err(corrupt("snapshot raw lengths disagree with the shard record count"));
    }
    let data = view::f64s(v.arena(K_RAW_DATA, s)?)?;
    checked_total(lens, data.len(), "snapshot raw arena disagrees with the raw lengths")?;
    let mut raws = Vec::with_capacity(n_reps);
    let mut at = 0usize;
    for &len in lens {
        let len = to_usize(len, "snapshot raw length overflows")?;
        raws.push(TimeSeries::new(data[at..at + len].to_vec())?);
        at += len;
    }
    Ok(raws)
}

fn load_dbch_nodes(v: &SnapshotView<'_>, s: u32, n_nodes: usize) -> Result<Vec<RawDbchNode>> {
    let words = view::u64s(v.arena(K_TREE_NODES, s)?)?;
    if words.len() != n_nodes * DBCH_NODE_STRIDE {
        return Err(corrupt("snapshot node arena disagrees with the shard node count"));
    }
    let children = view::u64s(v.arena(K_CHILD_IDS, s)?)?;
    let mut raw = Vec::with_capacity(n_nodes);
    for rec in words.chunks_exact(DBCH_NODE_STRIDE) {
        let is_leaf = match rec[0] {
            0 => false,
            1 => true,
            _ => return Err(corrupt("snapshot node record has an unknown kind tag")),
        };
        let off = to_usize(rec[1], "snapshot child offset overflows")?;
        let len = to_usize(rec[2], "snapshot child count overflows")?;
        let ids = children
            .get(
                off..off
                    .checked_add(len)
                    .ok_or_else(|| corrupt("snapshot child count overflows"))?,
            )
            .ok_or_else(|| corrupt("snapshot node children outside the id arena"))?;
        raw.push(RawDbchNode {
            is_leaf,
            ids: ids
                .iter()
                .map(|&id| to_usize(id, "snapshot child id overflows"))
                .collect::<Result<Vec<_>>>()?,
            hull_u: to_usize(rec[3], "snapshot hull endpoint overflows")?,
            hull_l: to_usize(rec[4], "snapshot hull endpoint overflows")?,
            volume: f64::from_bits(rec[5]),
        });
    }
    Ok(raw)
}

fn load_rtree_nodes(v: &SnapshotView<'_>, s: u32, n_nodes: usize) -> Result<Vec<RawRtreeNode>> {
    let words = view::u64s(v.arena(K_TREE_NODES, s)?)?;
    if words.len() != n_nodes * RTREE_NODE_STRIDE {
        return Err(corrupt("snapshot node arena disagrees with the shard node count"));
    }
    let children = view::u64s(v.arena(K_CHILD_IDS, s)?)?;
    let rect_spans = view::u64s(v.arena(K_RECT_SPANS, s)?)?;
    if rect_spans.len() != n_nodes {
        return Err(corrupt("snapshot rectangle spans disagree with the shard node count"));
    }
    let rect_lo = view::f64s(v.arena(K_RECT_LO, s)?)?;
    let rect_hi = view::f64s(v.arena(K_RECT_HI, s)?)?;
    checked_total(rect_spans, rect_lo.len(), "snapshot rectangle arena disagrees with its spans")?;
    if rect_hi.len() != rect_lo.len() {
        return Err(corrupt("snapshot rectangle lo/hi arenas disagree in length"));
    }
    let mut raw = Vec::with_capacity(n_nodes);
    let mut rect_at = 0usize;
    for (ni, rec) in words.chunks_exact(RTREE_NODE_STRIDE).enumerate() {
        let is_leaf = match rec[0] {
            0 => false,
            1 => true,
            _ => return Err(corrupt("snapshot node record has an unknown kind tag")),
        };
        let off = to_usize(rec[1], "snapshot child offset overflows")?;
        let len = to_usize(rec[2], "snapshot child count overflows")?;
        let ids = children
            .get(
                off..off
                    .checked_add(len)
                    .ok_or_else(|| corrupt("snapshot child count overflows"))?,
            )
            .ok_or_else(|| corrupt("snapshot node children outside the id arena"))?;
        let dims = to_usize(rect_spans[ni], "snapshot rectangle span overflows")?;
        raw.push(RawRtreeNode {
            is_leaf,
            ids: ids
                .iter()
                .map(|&id| to_usize(id, "snapshot child id overflows"))
                .collect::<Result<Vec<_>>>()?,
            rect_lo: rect_lo[rect_at..rect_at + dims].to_vec(),
            rect_hi: rect_hi[rect_at..rect_at + dims].to_vec(),
        });
        rect_at += dims;
    }
    Ok(raw)
}

fn load_features(v: &SnapshotView<'_>, s: u32, n_reps: usize) -> Result<Vec<Vec<f64>>> {
    let spans = view::u64s(v.arena(K_FEATURE_SPANS, s)?)?;
    if spans.len() != n_reps {
        return Err(corrupt("snapshot feature spans disagree with the shard record count"));
    }
    let data = view::f64s(v.arena(K_FEATURES, s)?)?;
    checked_total(spans, data.len(), "snapshot feature arena disagrees with its spans")?;
    let mut features = Vec::with_capacity(n_reps);
    let mut at = 0usize;
    for &span in spans {
        let span = to_usize(span, "snapshot feature span overflows")?;
        features.push(data[at..at + span].to_vec());
        at += span;
    }
    Ok(features)
}

pub(crate) fn load_image(data: &[u8]) -> Result<Engine> {
    let v = SnapshotView::parse(data)?;
    if v.flags() & !FLAG_QUANTIZED != 0 {
        return Err(corrupt("snapshot carries unknown header flags"));
    }
    let quantized = v.flags() & FLAG_QUANTIZED != 0;
    let meta = parse_meta(v.arena(K_META, 0)?)?;
    if quantized && meta.tree != TreeKind::Dbch {
        return Err(corrupt("quantized snapshot names a non-DBCH tree"));
    }
    let scheme: Arc<dyn Scheme> = Arc::from(scheme_for(&meta.method)?);
    let reducer: Arc<dyn Reducer> = Arc::from(
        all_reducers()
            .into_iter()
            .find(|r| r.name().eq_ignore_ascii_case(&meta.method))
            .ok_or_else(|| Error::UnknownMethod { name: meta.method.clone() })?,
    );
    let n_shards = meta.shards.max(1);
    // The count is untrusted: check it against the image before sizing
    // anything by it.
    if n_shards > v.toc().iter().filter(|e| e.kind == K_SHARD_META).count() {
        return Err(corrupt("snapshot shard count exceeds its shard arenas"));
    }
    let mut shards: Vec<Shard> = Vec::with_capacity(n_shards);
    let mut seen = 0usize;
    let mut lb_slack = 0.0f64;
    for si in 0..n_shards {
        let s = u32::try_from(si).map_err(|_| corrupt("snapshot shard count overflows"))?;
        let sm = view::u64s(v.arena(K_SHARD_META, s)?)?;
        if sm.len() != 3 {
            return Err(corrupt("snapshot shard metadata has the wrong arity"));
        }
        let root = to_usize(sm[0], "snapshot root id overflows")?;
        let n_nodes = to_usize(sm[1], "snapshot node count overflows")?;
        let n_reps = to_usize(sm[2], "snapshot record count overflows")?;
        // Round-robin placement is part of the engine contract: global
        // id g lives in shard g % S at local id g / S.
        let expect = meta.total / n_shards + usize::from(si < meta.total % n_shards);
        if n_reps != expect {
            return Err(corrupt("snapshot shard sizes break round-robin placement"));
        }
        seen += n_reps;
        let raws = load_raws(&v, s, n_reps)?;
        let (reps, shard_slack) = if quantized {
            load_quantized_reps(&v, s, n_reps, meta.quant_step)?
        } else {
            (load_exact_reps(&v, s, n_reps)?, 0.0)
        };
        lb_slack = lb_slack.max(shard_slack);
        let index = match meta.tree {
            TreeKind::Dbch => {
                let raw = load_dbch_nodes(&v, s, n_nodes)?;
                ShardIndex::Dbch(DbchTree::from_raw_parts(
                    meta.min_fill,
                    meta.max_fill,
                    meta.rule,
                    root,
                    raw,
                    reps,
                    shard_slack,
                )?)
            }
            TreeKind::Rtree => {
                let raw = load_rtree_nodes(&v, s, n_nodes)?;
                let features = load_features(&v, s, n_reps)?;
                ShardIndex::Rtree(RTree::from_raw_parts(
                    meta.min_fill,
                    meta.max_fill,
                    root,
                    raw,
                    reps,
                    features,
                )?)
            }
        };
        shards.push(Shard { index, raws });
    }
    if seen != meta.total {
        return Err(corrupt("snapshot shard sizes do not sum to the record count"));
    }
    let cfg = EngineConfig {
        tree: meta.tree,
        m: meta.m,
        min_fill: meta.min_fill,
        max_fill: meta.max_fill,
        shards: meta.shards,
        rule: meta.rule,
    };
    Ok(Engine { cfg, scheme, reducer, shards, total: meta.total, lb_slack })
}

pub(crate) fn load_file(path: &Path) -> Result<Engine> {
    let owned = SnapshotBytes::read_file(path)?;
    load_image(owned.bytes())
}

#[cfg(test)]
mod tests {
    use sapla_baselines::SaplaReducer;

    use super::*;

    fn engine(tree: TreeKind) -> Engine {
        let raws: Vec<TimeSeries> = (0..12)
            .map(|i| {
                TimeSeries::new((0..48).map(|t| ((t + 5 * i) as f64 * 0.3).sin()).collect())
                    .unwrap()
            })
            .collect();
        let cfg = EngineConfig { tree, ..EngineConfig::default() };
        Engine::build(cfg, Box::new(SaplaReducer::new()), raws, 1).unwrap()
    }

    /// Re-image `engine` after `tamper` edits its config, then load.
    fn reload_tampered(tree: TreeKind, tamper: impl Fn(&mut EngineConfig)) -> Result<Engine> {
        let mut engine = engine(tree);
        tamper(&mut engine.cfg);
        load_image(&engine.snapshot_image(None)?)
    }

    #[test]
    fn huge_shard_count_is_corrupt_not_an_allocation() {
        for shards in [1usize << 40, usize::MAX] {
            let loaded = reload_tampered(TreeKind::Dbch, |cfg| cfg.shards = shards);
            assert!(matches!(loaded, Err(Error::CorruptIndex { .. })), "shards = {shards}");
        }
    }

    #[test]
    fn overflowing_fill_factors_are_corrupt() {
        for tree in [TreeKind::Dbch, TreeKind::Rtree] {
            let loaded = reload_tampered(tree, |cfg| cfg.min_fill = 1 << 63);
            assert!(matches!(loaded, Err(Error::CorruptIndex { .. })), "{tree:?}");
        }
    }
}

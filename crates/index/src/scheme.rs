//! Per-method indexing schemes: feature vectors for R-tree MBRs,
//! query-to-MBR lower bounds (MINDIST), query-to-representation distances
//! and representation-pair distances (for DBCH hulls).
//!
//! The adaptive methods use the APCA-style MBR over interleaved
//! coefficients (the construction whose overlap problem motivates the
//! DBCH-tree); equal-length methods use their classic coefficient-space
//! bounds.

use sapla_baselines::sax::gaussian_breakpoints;
use sapla_baselines::{ReduceScratch, Reducer};
use sapla_core::{Error, Representation, Result, TimeSeries};
use sapla_distance::{
    dist_paa, dist_par_sq_planned, dist_pla, dist_s_sq, mindist, rep_distance, safe_sq_bound,
    ParScratch, QueryPlan,
};

use crate::rect::HyperRect;

/// A query prepared for index search: the raw series, its reduced
/// representation under the indexed method, and — for every linear
/// representation — its query-compiled `Dist_PAR` plan, which every
/// representation distance of the adaptive schemes runs on.
#[derive(Debug, Clone)]
pub struct Query {
    /// The raw query series.
    pub raw: TimeSeries,
    /// The query's own reduced representation.
    pub rep: Representation,
    /// Query-compiled `Dist_PAR` plan: `Some` exactly when `rep` is
    /// linear, compiled once by [`Query::with_scratch`].
    pub(crate) plan: Option<QueryPlan>,
}

impl Query {
    /// Reduce `raw` with `reducer` at budget `m` and package the query.
    ///
    /// # Errors
    ///
    /// Propagates reduction failures.
    pub fn new(raw: &TimeSeries, reducer: &dyn Reducer, m: usize) -> Result<Query> {
        Self::with_scratch(raw, reducer, m, &mut ReduceScratch::new())
    }

    /// [`Query::new`] with a caller-provided reduction workspace — same
    /// result, reused buffers. The batch preparation path
    /// ([`crate::Engine::prepare`]) holds one per worker.
    ///
    /// # Errors
    ///
    /// Propagates reduction failures.
    pub fn with_scratch(
        raw: &TimeSeries,
        reducer: &dyn Reducer,
        m: usize,
        scratch: &mut ReduceScratch,
    ) -> Result<Query> {
        let rep = reducer.reduce_with_scratch(raw, m, scratch)?;
        let plan = rep.as_linear().map(QueryPlan::new);
        Ok(Query { raw: raw.clone(), rep, plan })
    }
}

/// `strict-invariants`: `Dist_LB` is the unconditional lower bound
/// (`Dist_LB(Q, Ĉ) ≤ Dist(Q, C)` for *any* series `C` with linear
/// representation `Ĉ`) — whenever a refinement step has both the
/// representation and the exact Euclidean distance in hand, recompute the
/// bound and require it to hold. `Dist_PAR` is deliberately **not**
/// checked here: the paper's Theorems 4.2/4.3 make it conditional.
///
/// `slack` widens the bound for quantized snapshot leaves: a stored
/// representation `Ĉ~` perturbed from the least-squares projection `Ĉ`
/// by at most `δ` in the windowed metric satisfies
/// `Dist_LB(Q, Ĉ~) ≤ Dist(Q, C) + δ` (triangle inequality in the
/// projection subspace — endpoints are preserved exactly, so `Q`
/// projects onto the *same* subspace). Exact trees pass `0.0` and keep
/// the original unconditional contract.
#[cfg(feature = "strict-invariants")]
pub(crate) fn assert_lb_le_exact(
    q: &Query,
    rep: &Representation,
    exact: f64,
    slack: f64,
) -> Result<()> {
    if let Some(linear) = rep.as_linear() {
        let lb = sapla_distance::dist_lb(&q.raw.prefix_sums(), linear)?;
        assert!(
            lb <= exact + slack + 1e-6 * (1.0 + exact),
            "strict-invariants: Dist_LB = {lb} exceeds the exact Euclidean distance {exact} \
             (+ quantization slack {slack}); the lower-bound contract is broken"
        );
    }
    Ok(())
}

/// The per-method indexing strategy. The traversals make exactly two
/// query-to-representation calls: the full distance with its
/// memoisable square ([`Scheme::rep_dist_sq_with`], DBCH node bounds)
/// and the threshold-aware leaf filter ([`Scheme::rep_dist_pruned`]).
pub trait Scheme: Send + Sync {
    /// Scheme name (matches the reducer name).
    fn name(&self) -> &'static str;

    /// Feature vector whose MBRs the R-tree maintains.
    fn feature(&self, rep: &Representation) -> Result<Vec<f64>>;

    /// Lower-bound distance from the query to anything inside `rect`
    /// (the R-tree node filter).
    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64>;

    /// Distance estimate from the query to a candidate's representation
    /// (`Dist_PAR` for the adaptive methods), plus its memoisable squared
    /// form. `scratch` is a reusable partition buffer: the result never
    /// depends on its contents. Schemes that compute the distance as
    /// `sq.sqrt()` over an exact squared accumulation return
    /// `(sq.sqrt(), Some(sq))` and promise that **every**
    /// [`Scheme::rep_dist_pruned`] decision is equivalent to
    /// `sq.sqrt() <= threshold` with kept value `sq.sqrt()` — that lets
    /// callers cache `sq` per (query, entry) and replay later
    /// evaluations of the same pair bitwise (the DBCH hull memo in
    /// [`crate::knn`]). Returning no square disables such caching.
    fn rep_dist_sq_with(
        &self,
        q: &Query,
        rep: &Representation,
        scratch: &mut ParScratch,
    ) -> Result<(f64, Option<f64>)>;

    /// Threshold-aware leaf filter: `Some(d)` when the candidate passes
    /// (`d <= threshold`, with `d` bitwise equal to
    /// [`Scheme::rep_dist_sq_with`]'s distance), `None` when it is
    /// pruned. Schemes may early-abandon the distance computation as
    /// long as the decision agrees exactly with the full comparison.
    /// The default computes the full distance and compares.
    fn rep_dist_pruned(
        &self,
        q: &Query,
        rep: &Representation,
        threshold: f64,
        scratch: &mut ParScratch,
    ) -> Result<Option<f64>> {
        let (d, _) = self.rep_dist_sq_with(q, rep, scratch)?;
        Ok((d <= threshold).then_some(d))
    }

    /// Distance between two representations (DBCH hull construction and
    /// node volumes).
    fn pair_dist(&self, a: &Representation, b: &Representation) -> Result<f64> {
        rep_distance(a, b)
    }
}

/// Pick the scheme matching a reducer name.
///
/// # Errors
///
/// [`Error::UnknownMethod`] on a name outside the closed set of Table 1.
pub fn scheme_for(name: &str) -> Result<Box<dyn Scheme>> {
    match name {
        "SAPLA" | "APLA" => Ok(Box::new(AdaptiveLinearScheme)),
        "APCA" => Ok(Box::new(ApcaScheme)),
        "PLA" => Ok(Box::new(PlaScheme)),
        "PAA" | "PAALM" => Ok(Box::new(PaaScheme)),
        "CHEBY" => Ok(Box::new(ChebyScheme)),
        "SAX" => Ok(Box::new(SaxScheme)),
        other => Err(Error::UnknownMethod { name: other.to_string() }),
    }
}

fn expect_linear(rep: &Representation) -> Result<&sapla_core::PiecewiseLinear> {
    rep.as_linear().ok_or(Error::UnsupportedRepresentation { operation: "linear scheme" })
}

/// The query's compiled `Dist_PAR` plan. [`Query::with_scratch`]
/// compiles one for every linear representation, so a missing plan
/// means the query is not linear.
fn expect_plan(q: &Query) -> Result<&QueryPlan> {
    q.plan.as_ref().ok_or(Error::UnsupportedRepresentation { operation: "linear scheme" })
}

/// Interval distance squared from a point to `[lo, hi]`.
#[inline]
fn interval_sq(x: f64, lo: f64, hi: f64) -> f64 {
    let d = if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    };
    d * d
}

/// Shared APCA-MBR point bound: given per-region `(t_min, t_max, v_min,
/// v_max)`, lower-bound the per-point distance of the raw query to any
/// member series' reconstruction region, summed over all points.
fn region_mindist(regions: &[(usize, usize, f64, f64)], raw: &[f64]) -> f64 {
    let n = raw.len();
    let mut best = vec![f64::INFINITY; n];
    for &(t0, t1, vmin, vmax) in regions {
        for t in t0..=t1.min(n - 1) {
            let d = interval_sq(raw[t], vmin, vmax);
            if d < best[t] {
                best[t] = d;
            }
        }
    }
    best.iter().map(|&d| if d.is_finite() { d } else { 0.0 }).sum::<f64>().sqrt()
}

// ---------------------------------------------------------------------
// Adaptive linear (SAPLA, APLA): features ⟨a_i, b_i, r_i⟩ interleaved.
// ---------------------------------------------------------------------

/// Scheme for SAPLA/APLA representations.
///
/// Every representation distance runs the query's compiled
/// [`QueryPlan`] over the candidate's stored segments (bit-identical to
/// the streaming `Dist_PAR`), and the threshold-aware leaf filter
/// additionally early-abandons the window accumulation against
/// [`safe_sq_bound`] of the running threshold — provably
/// decision-identical to the full comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveLinearScheme;

impl Scheme for AdaptiveLinearScheme {
    fn name(&self) -> &'static str {
        "AdaptiveLinear"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let lin = expect_linear(rep)?;
        let mut out = Vec::with_capacity(3 * lin.num_segments());
        for seg in lin.segments() {
            out.push(seg.a);
            out.push(seg.b);
            out.push(seg.r as f64);
        }
        Ok(out)
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let n = q.raw.len();
        let segs = rect.dims() / 3;
        let mut regions = Vec::with_capacity(segs);
        let mut prev_r_lo = -1.0f64;
        for i in 0..segs {
            let (alo, ahi) = rect.dim(3 * i);
            let (blo, bhi) = rect.dim(3 * i + 1);
            let (rlo, rhi) = rect.dim(3 * i + 2);
            // audit: cast_ok — window start, clamped non-negative by max(0.0).
            let t0 = (prev_r_lo + 1.0).max(0.0) as usize;
            // audit: cast_ok — window end, clamped into [0, n) by min().
            let t1 = (rhi.min((n - 1) as f64)) as usize;
            let lmax = (t1 as f64 - prev_r_lo).max(1.0);
            // Value envelope of a·u + b over u ∈ [0, lmax−1], a ∈ [alo,
            // ahi], b ∈ [blo, bhi]: extremes at the u-endpoints.
            let vmin = blo.min(alo * (lmax - 1.0) + blo);
            let vmax = bhi.max(ahi * (lmax - 1.0) + bhi);
            regions.push((t0, t1, vmin, vmax));
            prev_r_lo = rlo;
        }
        Ok(region_mindist(&regions, q.raw.values()))
    }

    // `Dist_PAR` is `sq.sqrt()` and the filter decides via `keep_below`
    // (abandon ⟺ full square > bound, by the monotone ≥ 0 Eq. 12
    // terms), so the square is memoisable per the trait contract.
    fn rep_dist_sq_with(
        &self,
        q: &Query,
        rep: &Representation,
        scratch: &mut ParScratch,
    ) -> Result<(f64, Option<f64>)> {
        let sq = dist_par_sq_planned(expect_plan(q)?, expect_linear(rep)?, scratch, f64::INFINITY)?;
        Ok((sq.sqrt(), Some(sq)))
    }

    fn rep_dist_pruned(
        &self,
        q: &Query,
        rep: &Representation,
        threshold: f64,
        scratch: &mut ParScratch,
    ) -> Result<Option<f64>> {
        let plan = expect_plan(q)?;
        let sq = dist_par_sq_planned(plan, expect_linear(rep)?, scratch, safe_sq_bound(threshold))?;
        Ok(keep_below(sq, threshold))
    }
}

/// Turn a (possibly abandoned) planned `Dist_PAR²` into the leaf-filter
/// decision. The `f64::INFINITY` abandon sentinel only arises under a
/// finite threshold, where the reference comparison would prune too; a
/// *genuine* infinite squared distance also (correctly) fails any finite
/// threshold, and under `threshold = +∞` abandoning is disabled so the
/// `INF <= INF` keep-decision matches the reference exactly.
fn keep_below(sq: f64, threshold: f64) -> Option<f64> {
    if sq.is_infinite() && threshold.is_finite() {
        return None;
    }
    let d = sq.sqrt();
    (d <= threshold).then_some(d)
}

// ---------------------------------------------------------------------
// APCA: features ⟨v_i, r_i⟩ interleaved.
// ---------------------------------------------------------------------

/// Scheme for APCA representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApcaScheme;

impl Scheme for ApcaScheme {
    fn name(&self) -> &'static str {
        "APCA"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let con = rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "APCA scheme" })?;
        let mut out = Vec::with_capacity(2 * con.num_segments());
        for seg in con.segments() {
            out.push(seg.v);
            out.push(seg.r as f64);
        }
        Ok(out)
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let n = q.raw.len();
        let segs = rect.dims() / 2;
        let mut regions = Vec::with_capacity(segs);
        let mut prev_r_lo = -1.0f64;
        for i in 0..segs {
            let (vlo, vhi) = rect.dim(2 * i);
            let (rlo, rhi) = rect.dim(2 * i + 1);
            // audit: cast_ok — window start, clamped non-negative by max(0.0).
            let t0 = (prev_r_lo + 1.0).max(0.0) as usize;
            // audit: cast_ok — window end, clamped into [0, n) by min().
            let t1 = (rhi.min((n - 1) as f64)) as usize;
            regions.push((t0, t1, vlo, vhi));
            prev_r_lo = rlo;
        }
        Ok(region_mindist(&regions, q.raw.values()))
    }

    fn rep_dist_sq_with(
        &self,
        q: &Query,
        rep: &Representation,
        _: &mut ParScratch,
    ) -> Result<(f64, Option<f64>)> {
        Ok((rep_distance(&q.rep, rep)?, None))
    }
}

// ---------------------------------------------------------------------
// PLA: features ⟨a_i, b_i⟩, equal windows; per-segment box minimisation.
// ---------------------------------------------------------------------

/// Scheme for equal-length PLA representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaScheme;

/// Exact minimum of `Dist_S²` (Eq. 12) over a coefficient box: the form is
/// convex in `(Δa, Δb)`, so the minimum is either zero (box contains the
/// query's coefficients) or attained on one of the four edges, each a
/// clamped 1-D quadratic.
fn min_dist_s_sq_over_box(
    qa: f64,
    qb: f64,
    (alo, ahi): (f64, f64),
    (blo, bhi): (f64, f64),
    l: usize,
) -> f64 {
    if qa >= alo && qa <= ahi && qb >= blo && qb <= bhi {
        return 0.0;
    }
    let lf = l as f64;
    let big_a = lf * (lf - 1.0) * (2.0 * lf - 1.0) / 6.0;
    let big_b = lf * (lf - 1.0);
    let big_c = lf;
    let eval = |ca: f64, cb: f64| dist_s_sq(qa, qb, ca, cb, l);
    let mut best = f64::INFINITY;
    // Edges a = alo and a = ahi: minimise over cb.
    for ca in [alo, ahi] {
        let x = qa - ca;
        // d/dΔb (A x² + B x Δb + C Δb²) = 0 → Δb = −Bx / 2C.
        let cb = (qb + big_b * x / (2.0 * big_c)).clamp(blo, bhi);
        best = best.min(eval(ca, cb));
    }
    // Edges b = blo and b = bhi: minimise over ca.
    for cb in [blo, bhi] {
        let y = qb - cb;
        let ca = (qa + big_b * y / (2.0 * big_a)).clamp(alo, ahi);
        best = best.min(eval(ca, cb));
    }
    best
}

impl Scheme for PlaScheme {
    fn name(&self) -> &'static str {
        "PLA"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let lin = expect_linear(rep)?;
        let mut out = Vec::with_capacity(2 * lin.num_segments());
        for seg in lin.segments() {
            out.push(seg.a);
            out.push(seg.b);
        }
        Ok(out)
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qlin = expect_linear(&q.rep)?;
        let segs = rect.dims() / 2;
        if qlin.num_segments() != segs {
            return Err(Error::MalformedRepresentation {
                reason: "PLA query/index segment counts differ",
            });
        }
        let mut sum = 0.0;
        for (i, seg) in qlin.segments().iter().enumerate() {
            let l = qlin.seg_len(i);
            sum += min_dist_s_sq_over_box(seg.a, seg.b, rect.dim(2 * i), rect.dim(2 * i + 1), l);
        }
        Ok(sum.sqrt())
    }

    fn rep_dist_sq_with(
        &self,
        q: &Query,
        rep: &Representation,
        _: &mut ParScratch,
    ) -> Result<(f64, Option<f64>)> {
        Ok((dist_pla(expect_linear(&q.rep)?, expect_linear(rep)?)?, None))
    }
}

// ---------------------------------------------------------------------
// PAA / PAALM: features ⟨v_i⟩, equal windows.
// ---------------------------------------------------------------------

/// Scheme for PAA/PAALM representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaaScheme;

impl Scheme for PaaScheme {
    fn name(&self) -> &'static str {
        "PAA"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let con = rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        Ok(con.segments().iter().map(|s| s.v).collect())
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qcon = q
            .rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        if qcon.num_segments() != rect.dims() {
            return Err(Error::MalformedRepresentation {
                reason: "PAA query/index segment counts differ",
            });
        }
        let mut sum = 0.0;
        let mut start = 0usize;
        for (i, seg) in qcon.segments().iter().enumerate() {
            let l = (seg.r + 1 - start) as f64;
            let (lo, hi) = rect.dim(i);
            sum += l * interval_sq(seg.v, lo, hi);
            start = seg.r + 1;
        }
        Ok(sum.sqrt())
    }

    fn rep_dist_sq_with(
        &self,
        q: &Query,
        rep: &Representation,
        _: &mut ParScratch,
    ) -> Result<(f64, Option<f64>)> {
        let qcon = q
            .rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        let ccon = rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        Ok((dist_paa(qcon, ccon)?, None))
    }
}

// ---------------------------------------------------------------------
// CHEBY: features = coefficients; Parseval point-to-box bound.
// ---------------------------------------------------------------------

/// Scheme for CHEBY (polynomial) representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChebyScheme;

impl Scheme for ChebyScheme {
    fn name(&self) -> &'static str {
        "CHEBY"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        match rep {
            Representation::Polynomial(p) => Ok(p.coeffs.clone()),
            _ => Err(Error::UnsupportedRepresentation { operation: "CHEBY scheme" }),
        }
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qc = self.feature(&q.rep)?;
        if qc.len() != rect.dims() {
            return Err(Error::MalformedRepresentation {
                reason: "CHEBY query/index coefficient counts differ",
            });
        }
        Ok(rect.min_sq_dist_point(&qc).sqrt())
    }

    fn rep_dist_sq_with(
        &self,
        q: &Query,
        rep: &Representation,
        _: &mut ParScratch,
    ) -> Result<(f64, Option<f64>)> {
        Ok((rep_distance(&q.rep, rep)?, None))
    }
}

// ---------------------------------------------------------------------
// SAX: features = symbol indices; MINDIST to the symbol box.
// ---------------------------------------------------------------------

/// Scheme for SAX words.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaxScheme;

impl Scheme for SaxScheme {
    fn name(&self) -> &'static str {
        "SAX"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        match rep {
            Representation::Symbolic(w) => Ok(w.symbols.iter().map(|&s| s as f64).collect()),
            _ => Err(Error::UnsupportedRepresentation { operation: "SAX scheme" }),
        }
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qw = match &q.rep {
            Representation::Symbolic(w) => w,
            _ => return Err(Error::UnsupportedRepresentation { operation: "SAX scheme" }),
        };
        if qw.symbols.len() != rect.dims() {
            return Err(Error::MalformedRepresentation {
                reason: "SAX query/index word lengths differ",
            });
        }
        let bp = gaussian_breakpoints(qw.alphabet_size);
        let cell = |a: usize, b: usize| -> f64 {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if hi - lo <= 1 {
                0.0
            } else {
                bp[hi - 1] - bp[lo]
            }
        };
        let mut sum = 0.0;
        for (i, &qs) in qw.symbols.iter().enumerate() {
            let (lo, hi) = rect.dim(i);
            // Nearest symbol inside the box (cell distance is monotone in
            // symbol separation).
            let nearest = (qs as f64).clamp(lo.ceil(), hi.floor().max(lo.ceil()));
            let d = cell(qs as usize, nearest as usize);
            sum += d * d;
        }
        let w = qw.symbols.len() as f64;
        Ok((qw.n as f64 / w).sqrt() * sum.sqrt())
    }

    fn rep_dist_sq_with(
        &self,
        q: &Query,
        rep: &Representation,
        _: &mut ParScratch,
    ) -> Result<(f64, Option<f64>)> {
        let (Representation::Symbolic(a), Representation::Symbolic(b)) = (&q.rep, rep) else {
            return Err(Error::UnsupportedRepresentation { operation: "SAX scheme" });
        };
        Ok((mindist(a, b)?, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_baselines::{all_reducers, Pla};

    fn rep_dist(scheme: &dyn Scheme, q: &Query, rep: &Representation) -> f64 {
        scheme.rep_dist_sq_with(q, rep, &mut ParScratch::default()).unwrap().0
    }

    fn series(seed: usize) -> TimeSeries {
        TimeSeries::new(
            (0..64)
                .map(|t| ((t * (seed + 3)) as f64 * 0.17).sin() * 2.0 + seed as f64 * 0.1)
                .collect(),
        )
        .unwrap()
        .znormalized()
    }

    #[test]
    fn every_method_produces_features_and_distances() {
        let m = 12;
        let db = series(1);
        let qr = series(2);
        for reducer in all_reducers() {
            let scheme = scheme_for(reducer.name()).unwrap();
            let rep = reducer.reduce(&db, m).unwrap();
            let feat = scheme.feature(&rep).unwrap();
            assert!(!feat.is_empty(), "{}", reducer.name());
            let q = Query::new(&qr, reducer.as_ref(), m).unwrap();
            let d = rep_dist(scheme.as_ref(), &q, &rep);
            assert!(d.is_finite() && d >= 0.0, "{}", reducer.name());
            let rect = HyperRect::point(&feat);
            let md = scheme.mindist(&q, &rect).unwrap();
            assert!(md.is_finite() && md >= 0.0, "{}", reducer.name());
        }
    }

    #[test]
    fn mindist_is_below_rep_dist_for_point_rects() {
        // A node containing exactly one entry must not filter more
        // aggressively than the leaf-level distance allows... for the
        // methods whose node bound provably relaxes the rep distance
        // (equal-length coefficient-space schemes).
        let m = 12;
        let db = series(5);
        let qr = series(7);
        for name in ["PLA", "PAA", "CHEBY", "SAX"] {
            let reducer: Box<dyn Reducer> = match name {
                "PLA" => Box::new(Pla),
                "PAA" => Box::new(sapla_baselines::Paa),
                "CHEBY" => Box::new(sapla_baselines::Cheby),
                _ => Box::new(sapla_baselines::Sax::default()),
            };
            let scheme = scheme_for(name).unwrap();
            let rep = reducer.reduce(&db, m).unwrap();
            let q = Query::new(&qr, reducer.as_ref(), m).unwrap();
            let rect = HyperRect::point(&scheme.feature(&rep).unwrap());
            let md = scheme.mindist(&q, &rect).unwrap();
            let rd = rep_dist(scheme.as_ref(), &q, &rep);
            assert!(md <= rd + 1e-6, "{name}: mindist {md} > rep_dist {rd}");
        }
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let Err(err) = scheme_for("WAVELETS") else {
            panic!("WAVELETS must not resolve to a scheme");
        };
        assert_eq!(err, Error::UnknownMethod { name: "WAVELETS".to_string() });
        assert!(err.to_string().contains("WAVELETS"));
    }

    #[test]
    fn scheme_names_cover_every_method() {
        for reducer in all_reducers() {
            let scheme = scheme_for(reducer.name()).unwrap();
            assert!(!scheme.name().is_empty());
        }
    }

    #[test]
    fn min_dist_s_over_box_is_a_true_minimum() {
        let (qa, qb, l) = (1.2, -0.5, 9usize);
        let abox = (0.0, 0.5);
        let bbox = (0.5, 1.5);
        let bound = min_dist_s_sq_over_box(qa, qb, abox, bbox, l);
        // Grid-check that no box point does better.
        let mut grid_min = f64::INFINITY;
        for i in 0..=40 {
            for j in 0..=40 {
                let ca = abox.0 + (abox.1 - abox.0) * i as f64 / 40.0;
                let cb = bbox.0 + (bbox.1 - bbox.0) * j as f64 / 40.0;
                grid_min = grid_min.min(dist_s_sq(qa, qb, ca, cb, l));
            }
        }
        assert!(bound <= grid_min + 1e-9, "bound {bound} > grid {grid_min}");
        assert!(bound >= grid_min - 0.05 * grid_min.max(1e-9), "bound too loose");
        // Inside the box → zero.
        assert_eq!(min_dist_s_sq_over_box(0.2, 1.0, abox, bbox, l), 0.0);
    }

    #[test]
    fn mindist_lower_bounds_every_member_rep_dist() {
        // For any rect covering a set of features, mindist(q, rect) must
        // not exceed the smallest rep_dist(q, member) — otherwise the node
        // filter would prune entries its own leaf filter would keep.
        let m = 12;
        let members: Vec<TimeSeries> = (0..10).map(series).collect();
        let q_raw = series(99);
        for reducer in all_reducers() {
            let scheme = scheme_for(reducer.name()).unwrap();
            let reps: Vec<_> = members.iter().map(|s| reducer.reduce(s, m).unwrap()).collect();
            let mut rect = HyperRect::point(&scheme.feature(&reps[0]).unwrap());
            for rep in &reps[1..] {
                rect.extend_point(&scheme.feature(rep).unwrap());
            }
            let q = Query::new(&q_raw, reducer.as_ref(), m).unwrap();
            let md = scheme.mindist(&q, &rect).unwrap();
            let min_rep =
                reps.iter().map(|r| rep_dist(scheme.as_ref(), &q, r)).fold(f64::INFINITY, f64::min);
            // Adaptive schemes bound the *raw* query against reconstruction
            // regions rather than the rep distance, so give them headroom;
            // the equal-length schemes must hold exactly.
            let slack = match reducer.name() {
                "SAPLA" | "APLA" | "APCA" => 1.30,
                _ => 1.0 + 1e-9,
            };
            assert!(
                md <= min_rep * slack + 1e-9,
                "{}: mindist {md} > min member dist {min_rep}",
                reducer.name()
            );
        }
    }

    #[test]
    fn adaptive_mindist_grows_with_query_offset() {
        let reducer = sapla_baselines::SaplaReducer::new();
        let scheme = AdaptiveLinearScheme;
        let db = series(3);
        let rep = reducer.reduce(&db, 12).unwrap();
        let rect = HyperRect::point(&scheme.feature(&rep).unwrap());
        let q_near = Query::new(&db, &reducer, 12).unwrap();
        let far_series = TimeSeries::new(db.values().iter().map(|v| v + 5.0).collect()).unwrap();
        let q_far = Query { raw: far_series, rep: q_near.rep.clone(), plan: q_near.plan.clone() };
        let d_near = scheme.mindist(&q_near, &rect).unwrap();
        let d_far = scheme.mindist(&q_far, &rect).unwrap();
        assert!(d_far > d_near + 1.0, "near {d_near}, far {d_far}");
    }
}

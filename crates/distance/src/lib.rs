//! # sapla-distance
//!
//! Distance measures over raw and reduced time series, as evaluated by the
//! SAPLA paper (Section 5):
//!
//! * [`mod@euclidean`] — exact distances over raw series, with the
//!   early-abandoning variant k-NN refinement uses.
//! * [`dist_s`] — the closed-form per-segment distance between two lines
//!   over an aligned window (Eq. 12).
//! * [`par`] — **`Dist_PAR`** (Definition 5.1): partition two
//!   adaptive-length linear representations onto the union of their
//!   endpoints, then sum `Dist_S`. Tight *and* (conditionally)
//!   lower-bounding; the measure the DBCH-tree is built on.
//! * [`plan`] — **query-compiled `Dist_PAR`**: a [`QueryPlan`] fixes the
//!   query half of the Definition 5.1 partition once per query, and the
//!   planned kernel evaluates each stored candidate with a single
//!   merge-walk, optional early abandoning, and no per-call allocation.
//!   The streaming [`dist_par`] / [`dist_par_sq_with`] stay as the
//!   reference the kernel's bit-identity tests compare against.
//! * [`lb`] — **`Dist_LB`** (APCA-style): project the *query's raw data*
//!   onto the candidate's segment windows; an unconditional lower bound.
//! * [`ae`] — **`Dist_AE`** (APCA-style): Euclidean distance between the
//!   raw query and the candidate's reconstruction; tight but not a lower
//!   bound.
//! * [`paa`], [`pla`], [`sax`], [`cheby`] — the classic per-method lower
//!   bounds (`Dist_PAA`, `Dist_PLA`, SAX MINDIST, coefficient-space
//!   distance).
//! * [`mod@dtw`] — Dynamic Time Warping with a Sakoe–Chiba band and the
//!   LB_Keogh lower bound (an extension beyond the paper's Euclidean
//!   protocol).
//! * [`rep_distance`] — representation-to-representation dispatch used for
//!   DBCH convex hulls.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ae;
pub mod cheby;
pub mod dist_s;
pub mod dtw;
pub mod euclidean;
pub mod lb;
pub mod paa;
pub mod par;
pub mod pla;
pub mod plan;
pub mod sax;

mod simd_terms;

pub use ae::dist_ae;
pub use cheby::dist_cheby;
pub use dist_s::dist_s_sq;
pub use dtw::{dtw, keogh_envelope, lb_keogh};
pub use euclidean::{euclidean, euclidean_early_abandon, euclidean_sq};
pub use lb::dist_lb;
pub use paa::dist_paa;
pub use par::{dist_par, dist_par_sq, dist_par_sq_with, AlignedWindow, ParScratch};
pub use pla::dist_pla;
pub use plan::{dist_par_sq_planned, safe_sq_bound, QueryPlan};
pub use sax::mindist;

use sapla_core::{Error, Representation, Result};

/// Distance between two representations of the **same method** (used for
/// DBCH convex-hull construction and node volumes):
///
/// * linear / constant → [`dist_par`] (constants are zero-slope lines),
/// * polynomial → [`dist_cheby`],
/// * symbolic → [`mindist`].
///
/// # Errors
///
/// [`Error::UnsupportedRepresentation`] when the variants differ, and any
/// length-mismatch error from the underlying measure.
pub fn rep_distance(a: &Representation, b: &Representation) -> Result<f64> {
    match (a, b) {
        (Representation::Linear(x), Representation::Linear(y)) => dist_par(x, y),
        (Representation::Constant(x), Representation::Constant(y)) => {
            dist_par(&x.to_linear(), &y.to_linear())
        }
        (Representation::Linear(x), Representation::Constant(y)) => dist_par(x, &y.to_linear()),
        (Representation::Constant(x), Representation::Linear(y)) => dist_par(&x.to_linear(), y),
        (Representation::Polynomial(x), Representation::Polynomial(y)) => Ok(dist_cheby(x, y)),
        (Representation::Symbolic(x), Representation::Symbolic(y)) => mindist(x, y),
        _ => Err(Error::UnsupportedRepresentation { operation: "rep_distance" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_core::{ConstantSegment, LinearSegment, PiecewiseConstant, PiecewiseLinear};

    #[test]
    fn rep_distance_dispatches_across_variants() {
        let lin = Representation::Linear(
            PiecewiseLinear::new(vec![LinearSegment { a: 0.0, b: 1.0, r: 3 }]).unwrap(),
        );
        let con = Representation::Constant(
            PiecewiseConstant::new(vec![ConstantSegment { v: 2.0, r: 3 }]).unwrap(),
        );
        // |1 - 2| per point over 4 points → √4 = 2.
        let d = rep_distance(&lin, &con).unwrap();
        assert!((d - 2.0).abs() < 1e-12);
        let d = rep_distance(&con, &lin).unwrap();
        assert!((d - 2.0).abs() < 1e-12);
        let poly = Representation::Polynomial(sapla_core::PolyCoeffs { coeffs: vec![1.0], n: 4 });
        assert!(rep_distance(&lin, &poly).is_err());
    }
}

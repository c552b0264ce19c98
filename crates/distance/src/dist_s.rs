//! `Dist_S` — the closed-form squared distance between two reconstruction
//! lines over an aligned window (Eq. 12 of the paper).

/// Squared distance between the lines `qa·u + qb` and `ca·u + cb` sampled
/// at `u = 0 … l−1` (Eq. 12):
///
/// ```text
/// Σ (q̌_u − č_u)² = l(l−1)(2l−1)/6 · Δa² + l(l−1) · Δa·Δb + l · Δb²
/// ```
pub fn dist_s_sq(qa: f64, qb: f64, ca: f64, cb: f64, l: usize) -> f64 {
    sapla_obs::counter!("dist.s.evals");
    dist_s_sq_terms(qa - ca, qb - cb, l as f64)
}

/// The Eq. 12 polynomial over the line *deltas* `Δa = qa − ca`,
/// `Δb = qb − cb` and the window length as a float. This is the **single**
/// arithmetic body shared by every `Dist_S` evaluation path — the scalar
/// [`dist_s_sq`], the streaming/buffered `Dist_PAR` walks, and the
/// query-planned kernel — so their results are bit-for-bit identical
/// by construction (same expression, same operation order, no fused
/// multiply-adds: `f64::mul_add` lowers to a libm call on the baseline
/// x86-64 target, while this form autovectorises to packed multiplies).
#[inline]
pub(crate) fn dist_s_sq_terms(da: f64, db: f64, lf: f64) -> f64 {
    let s = lf * (lf - 1.0) * (2.0 * lf - 1.0) / 6.0 * da * da
        + lf * (lf - 1.0) * da * db
        + lf * db * db;
    // Guard tiny negative rounding when da·db < 0 and the terms cancel.
    // Keeping every term non-negative is also what makes partial window
    // sums monotone — the property early-abandoning refinement relies on.
    s.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(qa: f64, qb: f64, ca: f64, cb: f64, l: usize) -> f64 {
        (0..l)
            .map(|u| {
                let d = (qa - ca) * u as f64 + (qb - cb);
                d * d
            })
            .sum()
    }

    #[test]
    fn matches_brute_force() {
        let cases = [
            (1.0, 0.0, 0.5, 2.0, 7),
            (0.0, 0.0, 0.0, 0.0, 5),
            (-2.0, 3.0, 1.0, -1.0, 12),
            (0.3, -0.7, 0.3, 0.7, 1),
        ];
        for (qa, qb, ca, cb, l) in cases {
            let fast = dist_s_sq(qa, qb, ca, cb, l);
            let slow = brute(qa, qb, ca, cb, l);
            assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
        }
    }

    #[test]
    fn is_nonnegative_and_symmetric() {
        let d1 = dist_s_sq(1.3, -2.0, -0.8, 4.0, 9);
        let d2 = dist_s_sq(-0.8, 4.0, 1.3, -2.0, 9);
        assert!(d1 >= 0.0);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn single_point_window_uses_intercept_only() {
        assert_eq!(dist_s_sq(5.0, 1.0, -5.0, 3.0, 1), 4.0);
    }
}

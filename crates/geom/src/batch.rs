//! Batched, width-filtered exact predicates (the SoA fast path of the
//! Delaunay engine's per-round predicate storms).
//!
//! The scalar predicates in [`crate::predicates`] evaluate every
//! determinant in `i128`, which is exact at any grid magnitude but costs
//! several 128-bit multiplies per test.  On real rounds almost every test
//! involves points that are *close together* — the whole point of a
//! triangulation — so the coordinate differences are far below the
//! [`crate::point::GRID_LIMIT`] worst case and the determinant fits in much
//! narrower arithmetic.  The batch entry points here take SoA slices, run a
//! per-element **interval filter on the difference magnitudes**, and pick
//! the narrowest arithmetic tier that is *provably exact* for that element:
//!
//! * **orient2d** — differences are bounded by `2·GRID_LIMIT = 2²⁷`, so the
//!   degree-2 determinant is bounded by `2·2⁵⁴ = 2⁵⁵` and plain `i64`
//!   arithmetic is always exact (a guard tier keeps the function total for
//!   out-of-grid inputs).
//! * **in_circle** — with `M = max |difference|`:
//!   * `M < 2¹⁴`: the degree-4 determinant is ≤ `12·M⁴ < 2⁶⁰` and every
//!     intermediate ≤ `4·M³·M < 2⁵⁹`, so pure `i64` suffices (9 narrow
//!     multiplies);
//!   * `M < 2³⁰`: expanding along the lift column keeps every `i64`
//!     intermediate at degree 2 — lifts `dx²+dy² ≤ 2M² < 2⁶¹` and cross
//!     terms `|dx_i·dy_j − dx_j·dy_i| ≤ 2M² < 2⁶¹` — and only the three
//!     final lift×cross products widen (`64×64→128`).  Grid differences
//!     are bounded by `2·GRID_LIMIT = 2²⁷`, so **this tier covers every
//!     in-grid input**;
//!   * otherwise: the scalar exact `i128` path ([`in_circle_det`]), a
//!     totality guard that in-grid callers never reach.
//!
//! Every tier computes the **exact** integer determinant — the filter
//! selects arithmetic width, it never approximates — so batch results are
//! bit-equal to the scalar predicates on all inputs, including collinear /
//! cocircular degeneracies (pinned by the proptests below).  Nothing here
//! touches the ARAM counters: callers charge one tracked read per test,
//! exactly as they did calling the scalar predicates one at a time
//! (MODEL.md §5).
//!
//! The batch entry points are plain scalar loops: the arithmetic is
//! uncharged machine work, and an explicit SIMD variant did not pay end to
//! end (MODEL.md §5).

use crate::point::GridPoint;
use crate::predicates::in_circle_det;

/// Differences at or above this magnitude leave the all-`i64` in-circle
/// tier: `12·M⁴` must stay below `2⁶³`, which holds for `M < 2^14.8`.
pub const IN_CIRCLE_I64_LIMIT: i64 = 1 << 14;

/// Differences at or above this magnitude leave the widening tier: its
/// `i64` intermediates (lifts and cross terms) are bounded by `2·M²`,
/// which stays below `2⁶³` for `M < 2³¹`.  Set one bit lower for margin;
/// still `> 2·GRID_LIMIT`, so no in-grid input ever leaves the tier.
pub const IN_CIRCLE_WIDE_LIMIT: i64 = 1 << 30;

/// Differences at or above this magnitude leave the `i64` orient tier
/// (products must stay below `2⁶²`); unreachable for in-grid points.
const ORIENT_I64_LIMIT: i64 = 1 << 30;

/// Batched exact 2D orientation signs over SoA coordinate slices: for each
/// `i`, `out[i] = sign((b−a)×(c−a))` — `+1` counter-clockwise, `-1`
/// clockwise, `0` collinear.  All six slices and `out` must share one
/// length.  Bit-equal to [`crate::predicates::orient2d_det`]'s sign on
/// every input; uncharged (callers account per test).
#[allow(clippy::too_many_arguments)]
pub fn orient2d_batch(
    ax: &[i64],
    ay: &[i64],
    bx: &[i64],
    by: &[i64],
    cx: &[i64],
    cy: &[i64],
    out: &mut [i8],
) {
    let n = out.len();
    assert!(
        ax.len() == n
            && ay.len() == n
            && bx.len() == n
            && by.len() == n
            && cx.len() == n
            && cy.len() == n,
        "orient2d_batch: SoA slice lengths must match"
    );
    for i in 0..out.len() {
        let abx = bx[i] - ax[i];
        let aby = by[i] - ay[i];
        let acx = cx[i] - ax[i];
        let acy = cy[i] - ay[i];
        let m = abx.abs().max(aby.abs()).max(acx.abs()).max(acy.abs());
        let det: i128 = if m < ORIENT_I64_LIMIT {
            // Products ≤ 2⁶⁰, difference ≤ 2⁶¹: exact in i64.  For in-grid
            // points (differences ≤ 2²⁷) this tier always applies.
            i128::from(abx * acy - aby * acx)
        } else {
            i128::from(abx) * i128::from(acy) - i128::from(aby) * i128::from(acx)
        };
        out[i] = det.signum() as i8;
    }
}

/// Batched exact in-circle tests of many query points against one fixed
/// **counter-clockwise** triangle `(a, b, c)`: `out[i]` is true iff
/// `(dx[i], dy[i])` lies strictly inside the circumcircle.  Bit-equal to
/// [`crate::predicates::in_circle`] on every input (the width filter never
/// changes the value — module doc); uncharged.
pub fn in_circle_batch(
    a: GridPoint,
    b: GridPoint,
    c: GridPoint,
    dx: &[i64],
    dy: &[i64],
    out: &mut [bool],
) {
    let n = out.len();
    assert!(
        dx.len() == n && dy.len() == n,
        "in_circle_batch: SoA slice lengths must match"
    );
    for i in 0..out.len() {
        out[i] = in_circle_filtered(a, b, c, dx[i], dy[i]);
    }
}

/// One width-filtered exact in-circle test (the batch kernel; public so the
/// Delaunay engine's streaming filter can use it without staging slices).
#[inline]
pub fn in_circle_filtered(a: GridPoint, b: GridPoint, c: GridPoint, px: i64, py: i64) -> bool {
    let adx = a.x - px;
    let ady = a.y - py;
    let bdx = b.x - px;
    let bdy = b.y - py;
    let cdx = c.x - px;
    let cdy = c.y - py;
    let m = adx
        .abs()
        .max(ady.abs())
        .max(bdx.abs())
        .max(bdy.abs())
        .max(cdx.abs())
        .max(cdy.abs());
    if m < IN_CIRCLE_I64_LIMIT {
        // All-i64 tier: inner products ≤ 2·M² < 2²⁹, cross terms ≤ 4·M³ <
        // 2⁴⁴, final terms ≤ 4·M⁴ < 2⁵⁸, total ≤ 12·M⁴ < 2⁶⁰.
        let ad2 = adx * adx + ady * ady;
        let bd2 = bdx * bdx + bdy * bdy;
        let cd2 = cdx * cdx + cdy * cdy;
        let det = adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2)
            + ad2 * (bdx * cdy - cdx * bdy);
        det > 0
    } else if m < IN_CIRCLE_WIDE_LIMIT {
        // Widening tier, expanded along the lift column so every i64
        // intermediate stays degree 2: lifts ≤ 2·M² < 2⁶¹ and cross terms
        // ≤ 2·M² < 2⁶¹; only the three lift×cross products widen, each a
        // single 64×64→128 multiply.  Covers all in-grid inputs (M ≤ 2²⁷).
        let ad2 = adx * adx + ady * ady;
        let bd2 = bdx * bdx + bdy * bdy;
        let cd2 = cdx * cdx + cdy * cdy;
        let det = i128::from(ad2) * i128::from(bdx * cdy - cdx * bdy)
            - i128::from(bd2) * i128::from(adx * cdy - cdx * ady)
            + i128::from(cd2) * i128::from(adx * bdy - bdx * ady);
        det > 0
    } else {
        in_circle_det(a, b, c, GridPoint::new(px, py)) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::GRID_LIMIT;
    use crate::predicates::{in_circle, orient2d_det};
    use proptest::prelude::*;

    fn p(x: i64, y: i64) -> GridPoint {
        GridPoint::new(x, y)
    }

    fn orient_scalar_sign(a: GridPoint, b: GridPoint, c: GridPoint) -> i8 {
        orient2d_det(a, b, c).signum() as i8
    }

    /// A point with raw coordinates, past the grid bound where a case needs
    /// it (`GridPoint::new` debug-asserts the bound; the `i128` reference
    /// forms are exact at any `i64` magnitude used here).
    fn raw(x: i64, y: i64) -> GridPoint {
        GridPoint { x, y }
    }

    #[test]
    fn orient_batch_matches_scalar_on_degenerate_and_extreme_inputs() {
        let mut cases = vec![
            (p(0, 0), p(1, 0), p(0, 1)),
            (p(0, 0), p(1, 1), p(2, 2)), // collinear
            (
                p(-GRID_LIMIT, -GRID_LIMIT),
                p(GRID_LIMIT, GRID_LIMIT),
                p(GRID_LIMIT - 1, GRID_LIMIT), // one cell off the long diagonal
            ),
            (
                p(-GRID_LIMIT, -GRID_LIMIT),
                p(GRID_LIMIT, GRID_LIMIT),
                p(0, 0), // exactly on it
            ),
        ];
        // Magnitudes pinned at ±1 around every width-filter boundary, where
        // an unsound filter would first lie: a right triangle, its mirror
        // image and a collinear triple per magnitude, in one batch.
        let mags = [
            1,
            IN_CIRCLE_I64_LIMIT - 1,
            IN_CIRCLE_I64_LIMIT,
            IN_CIRCLE_I64_LIMIT + 1,
            GRID_LIMIT - 1,
            IN_CIRCLE_WIDE_LIMIT - 1,
            IN_CIRCLE_WIDE_LIMIT,
            IN_CIRCLE_WIDE_LIMIT + 1,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 1,
        ];
        for m in mags {
            cases.push((raw(0, 0), raw(m, 0), raw(0, m)));
            cases.push((raw(0, 0), raw(0, m), raw(m, 0)));
            cases.push((raw(0, 0), raw(m, m), raw(2 * m, 2 * m)));
        }
        let ax: Vec<i64> = cases.iter().map(|t| t.0.x).collect();
        let ay: Vec<i64> = cases.iter().map(|t| t.0.y).collect();
        let bx: Vec<i64> = cases.iter().map(|t| t.1.x).collect();
        let by: Vec<i64> = cases.iter().map(|t| t.1.y).collect();
        let cx: Vec<i64> = cases.iter().map(|t| t.2.x).collect();
        let cy: Vec<i64> = cases.iter().map(|t| t.2.y).collect();
        let mut out = vec![0i8; cases.len()];
        orient2d_batch(&ax, &ay, &bx, &by, &cx, &cy, &mut out);
        for (i, &(a, b, c)) in cases.iter().enumerate() {
            assert_eq!(out[i], orient_scalar_sign(a, b, c), "case {i}");
        }
    }

    #[test]
    fn in_circle_batch_crosses_every_filter_tier() {
        // One triangle per scale: tiny (i64 tier), medium (widening tier),
        // grid-extreme, and ±1 around the all-i64 limit and at half the
        // grid (the deepest in-grid magnitudes, since 2·m ≤ GRID_LIMIT) —
        // including exact-boundary queries where the determinant is 0 and
        // "strictly inside" must be false.
        let scales = [
            1i64,
            1 << 12,
            IN_CIRCLE_I64_LIMIT - 1,
            IN_CIRCLE_I64_LIMIT,
            IN_CIRCLE_I64_LIMIT + 1,
            1 << 18,
            GRID_LIMIT / 4,
            GRID_LIMIT / 2 - 1,
            GRID_LIMIT / 2,
        ];
        for scale in scales {
            let (a, b, c) = (p(0, 0), p(2 * scale, 0), p(0, 2 * scale));
            let queries = [
                (scale, scale),         // centre: inside
                (3 * scale, 3 * scale), // far out
                (2 * scale, 2 * scale), // exactly cocircular
                (0, 0),                 // a vertex: on the circle
                (1, 1),                 // near a vertex
            ];
            let dx: Vec<i64> = queries.iter().map(|q| q.0).collect();
            let dy: Vec<i64> = queries.iter().map(|q| q.1).collect();
            let mut out = vec![false; queries.len()];
            in_circle_batch(a, b, c, &dx, &dy, &mut out);
            for (i, &(qx, qy)) in queries.iter().enumerate() {
                assert_eq!(
                    out[i],
                    in_circle(a, b, c, raw(qx, qy)),
                    "scale={scale} query {i}"
                );
            }
        }
    }

    /// Raw full-grid coordinate; [`tier_map`] folds it toward a filter
    /// boundary chosen by two selector bits, so streams straddle the exact
    /// magnitudes where an unsound filter would first lie.
    fn tier_coord() -> impl Strategy<Value = i64> {
        -GRID_LIMIT..GRID_LIMIT
    }

    fn tier_map(v: i64, sel: u32) -> i64 {
        match sel & 3 {
            0 => v % 1000,
            1 => v.signum() * (IN_CIRCLE_I64_LIMIT + (v % 8)),
            // Deepest in-grid magnitudes: IN_CIRCLE_WIDE_LIMIT exceeds the
            // grid, so the wide tier's worst reachable inputs sit here.
            2 => v.signum() * (GRID_LIMIT - 8 + (v % 8)),
            _ => v,
        }
    }

    proptest! {
        #[test]
        fn prop_orient_batch_equals_scalar(
            ax in tier_coord(), ay in tier_coord(),
            bx in tier_coord(), by in tier_coord(),
            cx in tier_coord(), cy in tier_coord(),
            sel in 0u32..4096,
            // Perturbations that land near-collinear triples in the stream.
            ex in -2i64..2, ey in -2i64..2,
        ) {
            let (ax, ay) = (tier_map(ax, sel), tier_map(ay, sel >> 2));
            let (bx, by) = (tier_map(bx, sel >> 4), tier_map(by, sel >> 6));
            let (cx, cy) = (tier_map(cx, sel >> 8), tier_map(cy, sel >> 10));
            let cases = [
                (ax, ay, bx, by, cx, cy),
                // Exactly / nearly collinear: c on the a→b line ± one cell.
                (ax, ay, bx, by, bx + ex, by + ey),
                (ax, ay, ax, ay, cx, cy), // degenerate a == b
            ];
            for &(ax, ay, bx, by, cx, cy) in &cases {
                let mut out = [0i8];
                orient2d_batch(&[ax], &[ay], &[bx], &[by], &[cx], &[cy], &mut out);
                prop_assert_eq!(
                    out[0],
                    orient_scalar_sign(p(ax, ay), p(bx, by), p(cx, cy))
                );
            }
        }

        #[test]
        fn prop_in_circle_batch_equals_scalar_including_cocircular(
            ax in tier_coord(), ay in tier_coord(),
            bx in tier_coord(), by in tier_coord(),
            cx in tier_coord(), cy in tier_coord(),
            qx in tier_coord(), qy in tier_coord(),
            sel in 0u32..65536,
        ) {
            let (ax, ay) = (tier_map(ax, sel), tier_map(ay, sel >> 2));
            let (bx, by) = (tier_map(bx, sel >> 4), tier_map(by, sel >> 6));
            let (cx, cy) = (tier_map(cx, sel >> 8), tier_map(cy, sel >> 10));
            let (qx, qy) = (tier_map(qx, sel >> 12), tier_map(qy, sel >> 14));
            let (a, b, c) = (p(ax, ay), p(bx, by), p(cx, cy));
            // The stream mixes the random query with each triangle vertex —
            // exactly-cocircular inputs (det = 0) on every filter tier.
            let dx = [qx, ax, bx, cx];
            let dy = [qy, ay, by, cy];
            let mut out = [false; 4];
            in_circle_batch(a, b, c, &dx, &dy, &mut out);
            for i in 0..4 {
                prop_assert_eq!(
                    out[i],
                    in_circle(a, b, c, p(dx[i], dy[i])),
                    "query {} of mixed-tier stream", i
                );
            }
        }
    }
}

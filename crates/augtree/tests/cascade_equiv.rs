//! Post-insert answers of the 2-D range tree.
//!
//! The file and test names are historical: the file once pinned the
//! fractional-cascading overlay, and later the fallback from the
//! vEB-blocked cache to the flat descent after a structural insert.  Both
//! are gone; the range tree has one walk, and inserts keep its hot and cold
//! arenas in step.  The contract that survives is the one a structural
//! insert (leaf split plus overflow-run splice) must keep: a full and a
//! partial box answer like the brute-force oracle, the full box reports
//! every live point, overflow runs included, and a fresh build over the
//! live points answers the same.
//!
//! `layout_equiv.rs` checks the same property on a fixed grid and pins its
//! charges; this proptest draws the sizes, seeds and insert counts.

use proptest::prelude::*;
use pwe_augtree::range_tree::{range_bruteforce, RangeTree2D, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::uniform_points_2d;
use pwe_geom::point::Point2;

const ALPHAS: [usize; 3] = [2, 8, 64];

fn rt_points(n: usize, seed: u64) -> Vec<RtPoint> {
    uniform_points_2d(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, point)| RtPoint {
            point,
            id: i as u64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // After 1–20 structural inserts (leaf splits plus overflow-run
    // splices, some repacks), a full and a partial box answer like the
    // brute-force oracle, the full box reports every live point, and a
    // fresh build over the live points answers the same.
    #[test]
    fn prop_insert_falls_back_to_searched(
        n in 2usize..300,
        seed in 0u64..50,
        extra in 1usize..21,
    ) {
        let pts = rt_points(n, seed);
        for alpha in ALPHAS {
            let mut tree = RangeTree2D::build(&pts, alpha);
            let mut reference = pts.clone();
            let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for i in 0..extra {
                let p = RtPoint {
                    point: Point2::new([next(), next()]),
                    id: 10_000 + i as u64,
                };
                tree.insert(p);
                reference.push(p);
            }
            let rebuilt = RangeTree2D::build(&tree.collect_live(), alpha);
            let full = Rect { x_min: 0.0, x_max: 1.0, y_min: 0.0, y_max: 1.0 };
            let part = Rect { x_min: 0.2, x_max: 0.7, y_min: 0.1, y_max: 0.6 };
            for rect in [full, part] {
                let want = range_bruteforce(&reference, &rect);
                prop_assert_eq!(&tree.query(&rect), &want, "α={} rect={:?}", alpha, rect);
                prop_assert_eq!(&rebuilt.query(&rect), &want, "rebuilt α={}", alpha);
            }
            let all = tree.query(&full);
            prop_assert_eq!(all.len(), tree.len(),
                "full-box query reports all live points α={}", alpha);
            prop_assert!(all.contains(&10_000));
        }
    }
}

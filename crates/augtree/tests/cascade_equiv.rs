//! Post-insert fallback for the 2-D range tree.
//!
//! The file name is historical: it once pinned the fractional-cascading
//! overlay, which has since been removed. The contract that survives is the
//! one a structural insert (leaf split plus overflow-run splice) must keep:
//! it drops the blocked cache, so `query` falls back to the flat searched
//! descent — answer- and charge-identical to `query_flat` — and a full-box
//! query reports every live point, overflow runs included.
//!
//! `layout_equiv.rs` checks the same property on a fixed grid together with
//! the rebuild; this proptest draws the sizes, seeds and insert counts.
//!
//! Counter checks difference the process-global ARAM counters, so tests
//! serialize on [`counter_guard`].

use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use pwe_asym::CounterSnapshot;
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::uniform_points_2d;
use pwe_geom::point::Point2;

const ALPHAS: [usize; 3] = [2, 8, 64];

static COUNTER_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

fn counter_guard() -> MutexGuard<'static, ()> {
    COUNTER_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f`, returning its answer plus the (reads, writes) it charged.
fn charged<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = CounterSnapshot::now();
    let out = f();
    let after = CounterSnapshot::now();
    let (r, w) = after.since(&before);
    (out, r, w)
}

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

    // A structural insert drops the blocked cache: `query` and `query_flat`
    // become answer- AND charge-identical until the next build, and
    // overflow runs are searched correctly.
    #[test]
    fn prop_insert_falls_back_to_searched(
        n in 2usize..300,
        seed in 0u64..50,
        extra in 1usize..20,
    ) {
        let _g = counter_guard();
        let pts = rt_points(n, seed);
        for alpha in ALPHAS {
            let mut tree = RangeTree2D::build(&pts, alpha);
            let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for i in 0..extra {
                tree.insert(RtPoint {
                    point: Point2::new([next(), next()]),
                    id: 10_000 + i as u64,
                });
            }
            let full = Rect { x_min: 0.0, x_max: 1.0, y_min: 0.0, y_max: 1.0 };
            let part = Rect { x_min: 0.2, x_max: 0.7, y_min: 0.1, y_max: 0.6 };
            for rect in [full, part] {
                let (a, br, bw) = charged(|| tree.query(&rect));
                let (b, fr, fw) = charged(|| tree.query_flat(&rect));
                prop_assert_eq!(&a, &b, "α={}", alpha);
                prop_assert_eq!((br, bw), (fr, fw),
                    "post-insert query must charge exactly like the flat path α={}", alpha);
            }
            let all = tree.query(&full);
            prop_assert_eq!(all.len(), tree.len(),
                "full-box query reports all live points α={}", alpha);
            prop_assert!(all.contains(&10_000));
        }
    }
}

//! Blocked-vs-flat equivalence: every query that can descend a
//! [`pwe_primitives::layout::BlockedTree`] cache must return the same
//! answers AND charge the same ARAM reads/writes as the flat arena descent
//! it mirrors (MODEL.md "Cache cost vs. ARAM cost" — blocked layouts change
//! machine addresses, never the cost model).
//!
//! The counter checks difference the process-global ARAM counters around
//! each side, so every test that asserts counter equality serializes on
//! [`counter_guard`] and runs both sides back-to-back on this thread with
//! no other charged work in flight.

use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use pwe_asym::CounterSnapshot;
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::{random_intervals, uniform_points_2d};
use pwe_geom::point::Point2;

const ALPHAS: [usize; 3] = [2, 8, 64];

/// Serializes counter-differencing tests (the ARAM counters are global).
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

/// The bench's query_compare rectangle shape (wide in x, thin in y) at a
/// fixed size/α grid — the workload where the blocked report walk earns its
/// keep, and the one that caught the leaf-with-inner precedence bug the
/// proptests below now also cover.
#[test]
fn range_tree_blocked_matches_flat_on_bench_rects() {
    let _g = counter_guard();
    for &n in &[257usize, 1024, 4096] {
        for &alpha in &ALPHAS {
            let pts = rt_points(n, 0x5eed + n as u64);
            let tree = RangeTree2D::build(&pts, alpha);
            let mut state = 77u64 | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for q in 0..64 {
                let w = 0.05 + 0.20 * next();
                let h = 0.0001 + 0.0009 * next();
                let x = next() * (1.0 - w);
                let y = next() * (1.0 - h);
                let rect = Rect {
                    x_min: x,
                    x_max: x + w,
                    y_min: y,
                    y_max: y + h,
                };
                let (a, fr, fw) = charged(|| tree.query_flat(&rect));
                let (b, br, bw) = charged(|| tree.query(&rect));
                assert_eq!(a, b, "answers n={n} alpha={alpha} q={q}");
                assert_eq!(
                    (fr, fw),
                    (br, bw),
                    "counters n={n} alpha={alpha} q={q} rect={rect:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Interval stabbing: the blocked centered-decomposition descent
    // (`stab`, when the cache is live) answers and charges exactly like
    // the flat arena walk (`stab_flat`).
    #[test]
    fn prop_interval_blocked_equals_flat(
        n in 0usize..500,
        seed in 0u64..50,
        queries in proptest::collection::vec(0.0f64..1000.0, 1..16),
    ) {
        let _g = counter_guard();
        let intervals = random_intervals(n, 1000.0, 40.0, seed);
        for alpha in ALPHAS {
            let tree = IntervalTree::build_parallel(&intervals, alpha);
            for &q in &queries {
                let (a, fr, fw) = charged(|| tree.stab_flat(q));
                let (b, br, bw) = charged(|| tree.stab(q));
                prop_assert_eq!(&a, &b, "answers α={} q={}", alpha, q);
                prop_assert_eq!((fr, fw), (br, bw), "counters α={} q={}", alpha, q);
            }
        }
    }

    // 2-D range reporting: `query` (blocked when cached) vs `query_flat`,
    // over arbitrary rectangles.
    #[test]
    fn prop_range_blocked_equals_flat(
        n in 0usize..500,
        seed in 0u64..50,
        rects in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5), 1..12),
    ) {
        let _g = counter_guard();
        let pts = rt_points(n, seed);
        for alpha in ALPHAS {
            let tree = RangeTree2D::build(&pts, alpha);
            for &(x, y, w, h) in &rects {
                let rect = Rect { x_min: x, x_max: x + w, y_min: y, y_max: y + h };
                let (a, fr, fw) = charged(|| tree.query_flat(&rect));
                let (b, br, bw) = charged(|| tree.query(&rect));
                prop_assert_eq!(&a, &b, "answers α={} rect={:?}", alpha, rect);
                prop_assert_eq!((fr, fw), (br, bw), "counters α={} rect={:?}", alpha, rect);
            }
        }
    }

    // Tombstoned points stay invisible on both paths (deletion does not
    // drop the cache — it only filters the report).
    #[test]
    fn prop_range_blocked_equals_flat_with_deletes(
        n in 2usize..300,
        seed in 0u64..50,
        del_stride in 2usize..6,
    ) {
        let _g = counter_guard();
        let pts = rt_points(n, seed);
        let mut tree = RangeTree2D::build(&pts, 8);
        for id in (0..n as u64).step_by(del_stride) {
            tree.delete(id);
        }
        let rect = Rect { x_min: 0.1, x_max: 0.9, y_min: 0.2, y_max: 0.8 };
        let (a, fr, fw) = charged(|| tree.query_flat(&rect));
        let (b, br, bw) = charged(|| tree.query(&rect));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!((fr, fw), (br, bw));
        prop_assert!(a.iter().all(|id| id % del_stride as u64 != 0));
    }
}

/// A structural mutation (leaf split plus overflow-run splice) drops the
/// cache: `query` must fall back to the flat descent — answer- and
/// charge-identical to `query_flat`, reporting every live point on a full
/// box — across α ∈ {2, 8, 64} and up to 20 inserts; a fresh build over the
/// live points restores the blocked cache and blocked/flat equivalence.
#[test]
fn insert_drops_cache_and_rebuild_restores_equivalence() {
    let _g = counter_guard();
    let full = Rect {
        x_min: 0.0,
        x_max: 1.0,
        y_min: 0.0,
        y_max: 1.0,
    };
    let part = Rect {
        x_min: 0.2,
        x_max: 0.7,
        y_min: 0.1,
        y_max: 0.6,
    };
    for alpha in ALPHAS {
        for &(n, seed, extra) in &[
            (300usize, 9u64, 1usize),
            (2, 1, 20),
            (57, 23, 7),
            (299, 41, 20),
        ] {
            let mut tree = RangeTree2D::build(&rt_points(n, seed), alpha);
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
            for rect in [full, part] {
                let (a, fr, fw) = charged(|| tree.query_flat(&rect));
                let (b, br, bw) = charged(|| tree.query(&rect));
                assert_eq!(a, b, "post-insert answers α={alpha} n={n} extra={extra}");
                assert_eq!(
                    (fr, fw),
                    (br, bw),
                    "post-insert counters α={alpha} n={n} extra={extra}"
                );
            }
            let all = tree.query(&full);
            assert_eq!(all.len(), tree.len(), "full box α={alpha} n={n}");
            assert!(all.contains(&10_000));

            let rebuilt = RangeTree2D::build(&tree.collect_live(), alpha);
            for rect in [full, part] {
                let (a, fr, fw) = charged(|| rebuilt.query_flat(&rect));
                let (b, br, bw) = charged(|| rebuilt.query(&rect));
                assert_eq!(a, b, "rebuilt answers α={alpha} n={n} extra={extra}");
                assert_eq!(
                    (fr, fw),
                    (br, bw),
                    "rebuilt counters α={alpha} n={n} extra={extra}"
                );
                assert_eq!(a, tree.query(&rect), "rebuild keeps the answers");
            }
        }
    }
}

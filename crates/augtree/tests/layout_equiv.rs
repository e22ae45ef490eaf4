//! Blocked-vs-flat equivalence: every query that can descend a
//! [`pwe_primitives::layout::BlockedTree`] cache must return the same
//! answers AND charge the same ARAM reads/writes as the flat arena descent
//! it mirrors (MODEL.md "Cache cost vs. ARAM cost" — blocked layouts change
//! machine addresses, never the cost model).  The walk-order reporters
//! behind the sorted queries are checked the same way, and one query per
//! walk has its exact charges pinned.

use proptest::prelude::*;
use pwe_asym::cost::{measure, Omega};
use pwe_asym::smallmem::TaskScratch;
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::{random_intervals, uniform_points_2d};
use pwe_geom::point::Point2;

const ALPHAS: [usize; 3] = [2, 8, 64];

/// Runs `f`, returning its answer plus the (reads, writes) it charged.
fn charged<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (out, cost) = measure(Omega::default(), f);
    (out, cost.reads, cost.writes)
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

fn ps_points(pts: &[RtPoint]) -> Vec<PsPoint> {
    pts.iter()
        .map(|p| PsPoint {
            point: p.point,
            id: p.id,
        })
        .collect()
}

/// Runs each of `parts` trees' walk-order reporter into one shared output
/// that already holds `prefix`, as a shard set does.  Checks the prefix
/// survived, and returns the appended ids sorted plus the (reads, writes)
/// the reporters charged together.
fn report_all(
    prefix: &[u64],
    parts: usize,
    report: impl Fn(usize, &mut Vec<u64>),
) -> (Vec<u64>, u64, u64) {
    let (out, r, w) = charged(|| {
        let mut out = prefix.to_vec();
        for k in 0..parts {
            report(k, &mut out);
        }
        out
    });
    assert_eq!(&out[..prefix.len()], prefix, "reporter touched the prefix");
    let mut appended = out[prefix.len()..].to_vec();
    appended.sort_unstable();
    (appended, r, w)
}

/// The sorted queries of `parts` trees, concatenated and sorted, with the
/// (reads, writes) they charged together.
fn query_all(parts: usize, query: impl Fn(usize) -> Vec<u64>) -> (Vec<u64>, u64, u64) {
    let (mut ids, r, w) = charged(|| (0..parts).flat_map(&query).collect::<Vec<_>>());
    ids.sort_unstable();
    (ids, r, w)
}

/// The bench's query_compare rectangle shape (wide in x, thin in y) at a
/// fixed size/α grid — the workload where the blocked report walk earns its
/// keep, and the one that caught the leaf-with-inner precedence bug the
/// proptests below now also cover.
#[test]
fn range_tree_blocked_matches_flat_on_bench_rects() {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The walk-order reporters (`stab_into`, `query_into`,
    // `query_3sided_into`) append after whatever `out` already holds: three
    // trees over a partition of the input report into one vector that
    // starts with a foreign prefix.  The prefix must survive, the appended
    // ids must be the trees' sorted queries, and the reporters must charge
    // the queries' reads plus one write per appended id — none for the
    // prefix or for another tree's ids.  Checked on the freshly built trees
    // (blocked caches live) and after inserts and deletes (the interval and
    // range trees fall back to the flat walk, the range tree filters
    // tombstones, the PST sifts and promotes).
    #[test]
    fn prop_reporters_append_after_a_shared_prefix(
        n in 0usize..400,
        seed in 0u64..50,
        mutations in 0usize..24,
        prefix_len in 1u64..6,
        queries in proptest::collection::vec((0.0f64..1.0, 0.0f64..0.5, 0.0f64..1.0), 1..8),
    ) {
        const PARTS: usize = 3;
        let part = |id: u64| id as usize % PARTS;
        let intervals = random_intervals(n, 1000.0, 40.0, seed);
        let pts = rt_points(n, seed);
        let mut its: Vec<IntervalTree> = (0..PARTS)
            .map(|k| {
                let mine: Vec<_> = intervals.iter().filter(|s| part(s.id) == k).copied().collect();
                IntervalTree::build_parallel(&mine, 8)
            })
            .collect();
        let mut rts: Vec<RangeTree2D> = (0..PARTS)
            .map(|k| {
                let mine: Vec<_> = pts.iter().filter(|p| part(p.id) == k).copied().collect();
                RangeTree2D::build(&mine, 8)
            })
            .collect();
        let mut psts: Vec<PrioritySearchTree> = (0..PARTS)
            .map(|k| {
                let mine: Vec<_> = pts.iter().filter(|p| part(p.id) == k).copied().collect();
                PrioritySearchTree::build_parallel(&ps_points(&mine))
            })
            .collect();
        let prefix: Vec<u64> = (0..prefix_len).map(|i| u64::MAX - i).collect();
        for mutated in [false, true] {
            if mutated {
                let extra = random_intervals(mutations, 1000.0, 40.0, seed + 1000);
                let extra_pts = rt_points(mutations, seed + 1000);
                for (i, (iv, p)) in extra.iter().zip(&extra_pts).enumerate() {
                    let id = (n + i) as u64;
                    its[part(id)].insert(&pwe_geom::interval::Interval { id, ..*iv });
                    rts[part(id)].insert(RtPoint { id, ..*p });
                    psts[part(id)].insert(PsPoint { point: p.point, id });
                }
                for i in (0..n.min(mutations)).step_by(2) {
                    let id = pts[i].id;
                    its[part(intervals[i].id)].delete(&intervals[i]);
                    rts[part(id)].delete(id);
                    psts[part(id)].delete(&PsPoint { point: pts[i].point, id });
                }
            }
            for &(x, w, y) in &queries {
                let stab_x = 1000.0 * x;
                let want = query_all(PARTS, |k| its[k].stab(stab_x));
                let got = report_all(&prefix, PARTS, |k, out| {
                    its[k].stab_into(stab_x, &mut TaskScratch::untracked(), out)
                });
                prop_assert_eq!(&got, &want, "stab mutated={} x={}", mutated, stab_x);

                let rect = Rect { x_min: x, x_max: x + w, y_min: y * 0.5, y_max: y };
                let want = query_all(PARTS, |k| rts[k].query(&rect));
                let got = report_all(&prefix, PARTS, |k, out| {
                    rts[k].query_into(&rect, &mut TaskScratch::untracked(), out)
                });
                prop_assert_eq!(&got, &want, "range mutated={} rect={:?}", mutated, rect);

                let want = query_all(PARTS, |k| psts[k].query_3sided(x, x + w, y));
                let got = report_all(&prefix, PARTS, |k, out| {
                    psts[k].query_3sided_into(x, x + w, y, &mut TaskScratch::untracked(), out)
                });
                prop_assert_eq!(&got, &want, "3-sided mutated={}", mutated);
            }
        }
    }
}

/// The exact (reads, writes) of one fixed-seed query per walk — blocked and
/// flat stab, blocked and flat range, the PST descent.  The values are the
/// ones a per-element `record_read` charged; the walks charge their count
/// once when a scan ends, and that must not move the totals.
#[test]
fn walk_charges_are_pinned() {
    let it = IntervalTree::build_parallel(&random_intervals(2000, 1000.0, 40.0, 7), 8);
    let pts = rt_points(2000, 7);
    let rt = RangeTree2D::build(&pts, 8);
    let pst = PrioritySearchTree::build_parallel(&ps_points(&pts));
    let rect = Rect {
        x_min: 0.2,
        x_max: 0.7,
        y_min: 0.1,
        y_max: 0.6,
    };
    let charges = |f: &dyn Fn() -> Vec<u64>| {
        let (_, r, w) = charged(f);
        (r, w)
    };
    assert_eq!(charges(&|| it.stab(500.0)), (61, 39), "blocked stab");
    assert_eq!(charges(&|| it.stab_flat(500.0)), (61, 39), "flat stab");
    assert_eq!(charges(&|| rt.query(&rect)), (679, 467), "blocked range");
    assert_eq!(charges(&|| rt.query_flat(&rect)), (679, 467), "flat range");
    assert_eq!(
        charges(&|| pst.query_3sided(0.2, 0.7, 0.4)),
        (928, 610),
        "3-sided"
    );
}

/// A structural mutation (leaf split plus overflow-run splice) drops the
/// cache: `query` must fall back to the flat descent — answer- and
/// charge-identical to `query_flat`, reporting every live point on a full
/// box — across α ∈ {2, 8, 64} and up to 20 inserts; a fresh build over the
/// live points restores the blocked cache and blocked/flat equivalence.
#[test]
fn insert_drops_cache_and_rebuild_restores_equivalence() {
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

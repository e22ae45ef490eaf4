//! One cheap exercise per `pwe::prelude` export, so that a manifest or
//! re-export regression anywhere in the workspace is caught by this single
//! fast target. Sizes are deliberately tiny: the goal is "does every prelude
//! symbol still resolve and do something sane", not performance or bounds —
//! the per-crate tests and `tests/cost_model_claims.rs` cover those.

use pwe::prelude::*;
use pwe_geom::bbox::BBoxK;
use pwe_geom::generators::{uniform_grid_points, uniform_points_2d};
use pwe_geom::interval::Interval;

#[test]
fn counters_and_measure() {
    // record_* + measure + Omega + CostReport, the cost-model core.
    let (value, report): (u64, CostReport) = measure(Omega::new(8), || {
        record_read();
        record_reads(3);
        record_write();
        record_writes(2);
        7u64
    });
    assert_eq!(value, 7);
    assert!(report.reads >= 4);
    assert!(report.writes >= 3);
    assert_eq!(report.work(), report.reads + 8 * report.writes);
}

#[test]
fn sorts_agree() {
    let keys: Vec<u64> = (0..2_000u64).rev().collect();
    let incremental = incremental_sort(&keys, 5);
    let baseline = merge_sort_baseline(&keys);
    let expected: Vec<u64> = (0..2_000u64).collect();
    assert_eq!(incremental, expected);
    assert_eq!(baseline, expected);
}

#[test]
fn delaunay_variants_triangulate() {
    let points = uniform_grid_points(250, 1 << 12, 9);
    let base = triangulate_baseline(&points, 3);
    let we = triangulate_write_efficient(&points, 3);
    assert!(!base.real_triangles().is_empty());
    assert_eq!(
        base.real_triangles().len(),
        we.real_triangles().len(),
        "both variants triangulate the same point set"
    );
}

#[test]
fn kdtree_builds_and_queries() {
    let pts = uniform_points_2d(500, 21);
    let classic: KdTree<2> = build_classic(&pts, 16);
    let (batched, _stats) = build_p_batched(&pts, 8, 16, 21);
    let query = BBoxK::new([0.25, 0.25], [0.75, 0.75]);
    // The returned ids index each tree's internal storage order, so compare
    // cardinalities against brute force rather than id sets.
    let expected = pts
        .iter()
        .filter(|p| p.coords.iter().all(|&c| (0.25..=0.75).contains(&c)))
        .count();
    assert_eq!(classic.range_query(&query).len(), expected);
    assert_eq!(batched.range_query(&query).len(), expected);
}

#[test]
fn augmented_trees_answer() {
    // IntervalTree
    let intervals: Vec<Interval> = (0..100)
        .map(|i| Interval::new(i as f64, i as f64 + 10.0, i as u64))
        .collect();
    let itree = IntervalTree::build_parallel(&intervals, 4);
    let hits = itree.stab(50.5);
    assert_eq!(hits.len(), 10, "10 length-10 intervals cover 50.5");

    // PrioritySearchTree
    let ps_points: Vec<pwe::augtree::priority::PsPoint> = uniform_points_2d(200, 41)
        .into_iter()
        .enumerate()
        .map(|(i, point)| pwe::augtree::priority::PsPoint {
            point,
            id: i as u64,
        })
        .collect();
    let ptree = PrioritySearchTree::build_parallel(&ps_points);
    let in_band = ptree.query_3sided(0.0, 1.0, 0.5);
    let expected = ps_points
        .iter()
        .filter(|p| p.point.coords[1] >= 0.5)
        .count();
    assert_eq!(in_band.len(), expected);

    // RangeTree2D
    let rt_points: Vec<pwe::augtree::range_tree::RtPoint> = uniform_points_2d(200, 43)
        .into_iter()
        .enumerate()
        .map(|(i, point)| pwe::augtree::range_tree::RtPoint {
            point,
            id: i as u64,
        })
        .collect();
    let rtree = RangeTree2D::build(&rt_points, 4);
    let rect = pwe_geom::bbox::Rect::new(0.0, 1.0, 0.0, 1.0);
    assert_eq!(
        rtree.query(&rect).len(),
        rt_points.len(),
        "unit rect contains all"
    );
}

#[test]
fn smallmem_ledger_round_trips() {
    // SmallMem + TaskScratch + ScratchReport, the small-memory core.
    let ledger = SmallMem::logarithmic(1 << 10, 4);
    {
        let mut scratch = TaskScratch::new(&ledger);
        scratch.alloc(5);
        scratch.free(2);
    }
    let report: ScratchReport = ledger.report();
    assert_eq!(report.high_water, 5);
    assert!(report.within_budget());
}

#[test]
fn point_types_construct() {
    let g = GridPoint::new(-3, 4);
    assert_eq!((g.x, g.y), (-3, 4));
    let p2: Point2 = Point2::new([0.5, 0.25]);
    assert_eq!(p2.coords, [0.5, 0.25]);
    let pk: PointK<3> = PointK::new([1.0, 2.0, 3.0]);
    assert_eq!(pk.coords.len(), 3);
}

//! Cross-crate integration tests: the full pipelines a downstream user would
//! run, exercised through the umbrella crate's public API.

use pwe::augtree::priority::{three_sided_bruteforce, PsPoint};
use pwe::augtree::range_tree::{range_bruteforce, RtPoint};
use pwe::delaunay::verify::{check_delaunay_property, check_mesh_consistency, same_triangulation};
use pwe::kdtree::tree::range_bruteforce as kd_range_bruteforce;
use pwe::prelude::*;
use pwe_geom::bbox::{BBoxK, Rect};
use pwe_geom::generators::*;
use pwe_geom::interval::stab_bruteforce;

#[test]
fn sort_pipeline_is_correct_and_write_efficient() {
    let keys: Vec<u64> = (0..60_000u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 13)
        .collect();
    let (sorted, we) = measure(Omega::new(10), || incremental_sort(&keys, 5));
    let (expected, baseline) = measure(Omega::new(10), || merge_sort_baseline(&keys));
    assert_eq!(sorted, expected);
    assert!(
        we.writes < baseline.writes,
        "incremental sort must write less"
    );
    assert!(
        we.work() < baseline.work(),
        "and therefore cost less ω-weighted work"
    );
}

#[test]
fn delaunay_pipeline_verifies_and_beats_baseline_on_writes() {
    let points = uniform_grid_points(3_000, 1 << 18, 21);
    let ((base_mesh, we_mesh), _) = measure(Omega::new(10), || {
        (
            triangulate_baseline(&points, 9),
            triangulate_write_efficient(&points, 9),
        )
    });
    check_mesh_consistency(&base_mesh).unwrap();
    check_mesh_consistency(&we_mesh).unwrap();
    check_delaunay_property(&we_mesh, Some(300)).unwrap();
    assert!(same_triangulation(&base_mesh, &we_mesh));
}

#[test]
fn kdtree_pipeline_answers_queries_exactly() {
    let pts = uniform_points_2d(20_000, 31);
    let p = pwe::kdtree::build::recommended_p(pts.len());
    let (tree, _) = build_p_batched(&pts, p, 16, 4);
    for (i, rect) in [
        BBoxK::new([0.1, 0.1], [0.2, 0.3]),
        BBoxK::new([0.0, 0.0], [1.0, 1.0]),
        BBoxK::new([0.7, 0.2], [0.75, 0.9]),
    ]
    .iter()
    .enumerate()
    {
        let got = tree.range_query(rect).len();
        let expected = kd_range_bruteforce(&pts, rect).len();
        assert_eq!(got, expected, "query {i}");
    }
}

#[test]
fn augmented_trees_answer_queries_exactly() {
    // Interval tree.
    let intervals = random_intervals(5_000, 1e5, 50.0, 41);
    let tree = IntervalTree::build_parallel(&intervals, 8);
    for &q in &stabbing_queries(200, 1e5, 42) {
        assert_eq!(tree.stab(q), stab_bruteforce(&intervals, q));
    }
    // Priority search tree.
    let ps_points: Vec<PsPoint> = uniform_points_2d(5_000, 43)
        .into_iter()
        .enumerate()
        .map(|(i, point)| PsPoint {
            point,
            id: i as u64,
        })
        .collect();
    let pst = PrioritySearchTree::build_parallel(&ps_points);
    for &(lo, hi, y) in &random_three_sided_queries(100, 0.3, 44) {
        assert_eq!(
            pst.query_3sided(lo, hi, y),
            three_sided_bruteforce(&ps_points, lo, hi, y)
        );
    }
    // Range tree.
    let rt_points: Vec<RtPoint> = uniform_points_2d(5_000, 45)
        .into_iter()
        .enumerate()
        .map(|(i, point)| RtPoint {
            point,
            id: i as u64,
        })
        .collect();
    let rt = RangeTree2D::build(&rt_points, 4);
    for rect in &random_query_rects(100, 0.2, 46) {
        assert_eq!(rt.query(rect), range_bruteforce(&rt_points, rect));
    }
    let _ = Rect::new(0.0, 1.0, 0.0, 1.0);
}

#[test]
fn write_efficient_constructions_beat_classic_on_omega_weighted_work() {
    let omega = Omega::new(20);
    // Interval tree.
    let intervals = random_intervals(20_000, 1e6, 100.0, 51);
    let (_, classic) = measure(omega, || IntervalTree::build_classic(&intervals, 2));
    let (_, ours) = measure(omega, || IntervalTree::build_parallel(&intervals, 2));
    assert!(ours.writes < classic.writes);
    assert!(ours.work() < classic.work());
    // k-d tree.
    let pts = uniform_points_2d(20_000, 52);
    let (_, classic) = measure(omega, || build_classic(&pts, 16));
    let (_, ours) = measure(omega, || {
        build_p_batched(&pts, pwe::kdtree::build::recommended_p(pts.len()), 16, 7)
    });
    assert!(ours.writes < classic.writes);
    assert!(ours.work() < classic.work());
}

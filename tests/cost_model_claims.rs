//! Scaling tests for the paper's cost claims: writes per element must stay
//! (roughly) flat as n grows for the write-efficient algorithms, while the
//! baselines' writes per element grow with log n.

use pwe::prelude::*;
use pwe_geom::generators::{uniform_grid_points, uniform_points_2d};

fn writes_per_element<T>(f: impl FnOnce() -> T, n: usize) -> f64 {
    let (_, report) = measure(Omega::symmetric(), f);
    report.writes_per_element(n)
}

#[test]
fn sort_writes_per_element_stay_bounded() {
    let small_n = 20_000usize;
    let large_n = 160_000usize;
    let small: Vec<u64> = (0..small_n as u64)
        .map(|i| i.wrapping_mul(0x9E37))
        .collect();
    let large: Vec<u64> = (0..large_n as u64)
        .map(|i| i.wrapping_mul(0x9E37))
        .collect();
    let we_small = writes_per_element(|| incremental_sort(&small, 3), small_n);
    let we_large = writes_per_element(|| incremental_sort(&large, 3), large_n);
    // O(n) writes ⇒ writes/element roughly constant (allow 50% drift).
    assert!(
        we_large < we_small * 1.5,
        "write-efficient sort writes/element grew: {we_small:.2} -> {we_large:.2}"
    );

    let base_small = writes_per_element(|| merge_sort_baseline(&small), small_n);
    let base_large = writes_per_element(|| merge_sort_baseline(&large), large_n);
    // Θ(n log n) writes ⇒ writes/element grows with log n.
    assert!(
        base_large > base_small,
        "baseline writes/element should grow with n"
    );
    assert!(
        base_large > we_large,
        "baseline must write more per element than the write-efficient sort"
    );
}

#[test]
fn delaunay_writes_per_element_gap_grows_with_n() {
    let gap = |n: usize| {
        let pts = uniform_grid_points(n, 1 << 18, 5);
        let base = writes_per_element(|| triangulate_baseline(&pts, 7), n);
        let we = writes_per_element(|| triangulate_write_efficient(&pts, 7), n);
        base / we
    };
    let gap_small = gap(1_000);
    let gap_large = gap(8_000);
    assert!(
        gap_large > 1.0,
        "write-efficient DT must write less at n=8000"
    );
    assert!(
        gap_large > gap_small * 0.9,
        "the write gap should not shrink as n grows: {gap_small:.2} -> {gap_large:.2}"
    );
}

#[test]
fn kdtree_writes_per_element_stay_bounded() {
    let wpe = |n: usize| {
        let pts = uniform_points_2d(n, 9);
        writes_per_element(
            || build_p_batched(&pts, pwe::kdtree::build::recommended_p(n), 16, 2),
            n,
        )
    };
    let classic_wpe = |n: usize| {
        let pts = uniform_points_2d(n, 9);
        writes_per_element(|| build_classic(&pts, 16), n)
    };
    let small = wpe(20_000);
    let large = wpe(80_000);
    assert!(
        large < small * 1.6,
        "p-batched writes/element grew too fast: {small:.2} -> {large:.2}"
    );
    assert!(
        classic_wpe(80_000) > large,
        "classic build must write more per element"
    );
}

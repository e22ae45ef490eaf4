//! Nearest-neighbour and range search with a dynamically maintained k-d tree:
//! build with the p-batched construction, stream skewed insertions through
//! the single-tree rebalancer, and answer queries throughout.
//!
//! Run with `cargo run --release -p pwe --example kdtree_nn`.

use pwe::kdtree::dynamic::DynamicKdTree;
use pwe::prelude::*;
use pwe_geom::bbox::BBoxK;
use pwe_geom::generators::uniform_points_2d;
use pwe_geom::point::PointK;

fn main() {
    let initial = uniform_points_2d(50_000, 5);
    let (mut tree, cost) = measure(Omega::new(10), || DynamicKdTree::new(&initial, 0.65));
    println!("initial build of {} points: {cost}", initial.len());

    // Stream inserts concentrated in one corner — the worst case for a static
    // median-split tree, handled by reconstruction-based rebalancing.
    let (_, cost) = measure(Omega::new(10), || {
        for i in 0..20_000u64 {
            let t = i as f64 / 20_000.0;
            tree.insert(PointK::new([0.05 * t, 0.05 * (1.0 - t)]));
        }
    });
    println!(
        "20k skewed insertions: {cost} ({} rebuilds, height {})",
        tree.rebuilds,
        tree.height()
    );

    let q = PointK::new([0.02, 0.02]);
    let (nn, cost) = measure(Omega::new(10), || tree.nearest(&q));
    let (id, p) = nn.expect("non-empty tree");
    println!("nearest neighbour of {q}: id {id} at {p} ({cost})");

    let window = BBoxK::new([0.0, 0.0], [0.05, 0.05]);
    let (hits, cost) = measure(Omega::new(10), || tree.range_query(&window));
    println!("points in the hot corner: {} ({cost})", hits.len());
}

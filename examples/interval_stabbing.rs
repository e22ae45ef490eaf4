//! Maintain a set of time intervals (e.g. sessions) under insertions and
//! deletions and answer stabbing queries ("which sessions were active at
//! time t?"), comparing the classic and the write-efficient interval tree
//! and the effect of the α parameter.
//!
//! Run with `cargo run --release -p pwe --example interval_stabbing`.

use pwe::augtree::alpha::optimal_alpha;
use pwe::prelude::*;
use pwe_geom::generators::{random_intervals, stabbing_queries};
use pwe_geom::interval::Interval;

fn main() {
    let omega = Omega::new(10);
    let n = 50_000;
    let intervals = random_intervals(n, 86_400.0, 600.0, 13);

    let (_, classic) = measure(omega, || IntervalTree::build_classic(&intervals, 2));
    println!("classic construction    : {classic}");
    let (_, post_sorted) = measure(omega, || IntervalTree::build_parallel(&intervals, 2));
    println!("post-sorted construction: {post_sorted}");

    // Pick α from the update/query ratio as the paper prescribes.
    let ratio = 1.0; // as many updates as queries
    let alpha = optimal_alpha(omega.get(), ratio);
    println!("\noptimal α for {omega}, update:query = {ratio}: α = {alpha}");

    let mut tree = IntervalTree::build_parallel(&intervals, alpha);
    let updates = random_intervals(10_000, 86_400.0, 600.0, 14);
    let (_, update_cost) = measure(omega, || {
        for (i, s) in updates.iter().enumerate() {
            tree.insert(&Interval::new(s.left, s.right, (n + i) as u64));
        }
    });
    println!("10k insertions at α={alpha}: {update_cost}");

    let queries = stabbing_queries(10_000, 86_400.0, 15);
    let (total, query_cost) = measure(omega, || {
        queries.iter().map(|&t| tree.stab(t).len()).sum::<usize>()
    });
    println!("10k stabbing queries: {total} results, {query_cost}");
}

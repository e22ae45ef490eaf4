//! Criterion bench for experiment T1-priority: classic vs post-sorted
//! priority search tree construction, and 3-sided query throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_geom::generators::{random_three_sided_queries, uniform_points_2d};

fn bench_priority(c: &mut Criterion) {
    let mut group = c.benchmark_group("priority_tree");
    group.sample_size(10);
    let n = 30_000;
    let points: Vec<PsPoint> = uniform_points_2d(n, 23)
        .into_iter()
        .enumerate()
        .map(|(i, point)| PsPoint {
            point,
            id: i as u64,
        })
        .collect();
    group.bench_function(BenchmarkId::new("build_classic", n), |b| {
        b.iter(|| PrioritySearchTree::build_classic(&points))
    });
    group.bench_function(BenchmarkId::new("build_parallel", n), |b| {
        b.iter(|| PrioritySearchTree::build_parallel(&points))
    });
    let tree = PrioritySearchTree::build_parallel(&points);
    let queries = random_three_sided_queries(500, 0.2, 24);
    group.bench_function(BenchmarkId::new("three_sided_queries", n), |b| {
        b.iter(|| {
            let mut total = 0;
            for &(lo, hi, y) in &queries {
                total += tree.query_3sided(lo, hi, y).len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_priority);
criterion_main!(benches);

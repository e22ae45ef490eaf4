//! Criterion bench for experiment T1-interval: classic vs post-sorted
//! interval tree construction, and stabbing query throughput per α.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwe_augtree::interval::IntervalTree;
use pwe_geom::generators::{random_intervals, stabbing_queries};

fn bench_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_tree");
    group.sample_size(10);
    let n = 30_000;
    let intervals = random_intervals(n, 1e6, 200.0, 17);
    group.bench_function(BenchmarkId::new("build_classic", n), |b| {
        b.iter(|| IntervalTree::build_classic(&intervals, 2))
    });
    group.bench_function(BenchmarkId::new("build_parallel", n), |b| {
        b.iter(|| IntervalTree::build_parallel(&intervals, 2))
    });
    let queries = stabbing_queries(500, 1e6, 18);
    for alpha in [2usize, 8, 16] {
        let tree = IntervalTree::build_parallel(&intervals, alpha);
        group.bench_function(BenchmarkId::new("stab_queries", alpha), |b| {
            b.iter(|| {
                let mut total = 0;
                for &q in &queries {
                    total += tree.stab(q).len();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_interval);
criterion_main!(benches);

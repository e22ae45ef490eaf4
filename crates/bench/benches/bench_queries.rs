//! Criterion bench for the cache-conscious query engine: flat arena
//! descent vs. vEB-blocked descent on the same structure, plus the scalar
//! vs. batched geometric predicate kernels.  Mirrors the `speedup
//! --queries` A/B rows (`BENCH_queries.json`) at CI-friendly sizes; the
//! `CRITERION_BASELINE` gate covers every group here like any other bench.

use criterion::{criterion_group, criterion_main, Criterion};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::{random_intervals, stabbing_queries, uniform_points_2d};
use pwe_geom::{in_circle, in_circle_batch, in_circle_batch_scalar, GridPoint};

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries");
    group.sample_size(10);

    let n = 50_000;
    let intervals = random_intervals(n, 1_000_000.0, 200.0, 17);
    let itree = IntervalTree::build_parallel(&intervals, 8);
    let stabs = stabbing_queries(2_000, 1_000_000.0, 71);
    group.bench_function("interval_stab_flat", |b| {
        b.iter(|| {
            stabs
                .iter()
                .map(|&x| itree.stab_flat(x).len())
                .sum::<usize>()
        })
    });
    group.bench_function("interval_stab_blocked", |b| {
        b.iter(|| stabs.iter().map(|&x| itree.stab(x).len()).sum::<usize>())
    });

    let points: Vec<RtPoint> = uniform_points_2d(n, 31)
        .into_iter()
        .enumerate()
        .map(|(i, point)| RtPoint {
            point,
            id: i as u64,
        })
        .collect();
    let rtree = RangeTree2D::build(&points, 8);
    // The wide-x / thin-y rows of the speedup query_compare workload: the
    // report walk is dominated by inner-run searches at critical nodes.
    let rects: Vec<Rect> = {
        let mut state = 77u64 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..500)
            .map(|_| {
                let w = 0.05 + 0.20 * next();
                let h = 0.0001 + 0.0009 * next();
                let x = next() * (1.0 - w);
                let y = next() * (1.0 - h);
                Rect {
                    x_min: x,
                    x_max: x + w,
                    y_min: y,
                    y_max: y + h,
                }
            })
            .collect()
    };
    group.bench_function("range2d_flat", |b| {
        b.iter(|| {
            rects
                .iter()
                .map(|r| rtree.query_flat(r).len())
                .sum::<usize>()
        })
    });
    group.bench_function("range2d_blocked", |b| {
        b.iter(|| rects.iter().map(|r| rtree.query(r).len()).sum::<usize>())
    });

    // Scalar vs. batched in-circle over one fixed triangle and a SoA query
    // storm (the delaunay_locate A/B, shorn of mesh plumbing).
    let (a, bb, cc) = (
        GridPoint::new(0, 0),
        GridPoint::new(1 << 20, 0),
        GridPoint::new(0, 1 << 20),
    );
    let qs: Vec<GridPoint> = {
        let mut state = 73u64 | 1;
        (0..4_096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                GridPoint::new(
                    (state % (1 << 20)) as i64,
                    ((state >> 21) % (1 << 20)) as i64,
                )
            })
            .collect()
    };
    let (qx, qy): (Vec<i64>, Vec<i64>) = qs.iter().map(|p| (p.x, p.y)).unzip();
    group.bench_function("in_circle_scalar", |b| {
        b.iter(|| qs.iter().filter(|q| in_circle(a, bb, cc, **q)).count())
    });
    let mut mask = vec![false; qs.len()];
    // The scalar batch loop (the dispatch fallback / SIMD oracle) …
    group.bench_function("in_circle_batch_scalar", |b| {
        b.iter(|| {
            in_circle_batch_scalar(a, bb, cc, &qx, &qy, &mut mask);
            mask.iter().filter(|&&m| m).count()
        })
    });
    // … vs the public dispatcher — the explicit AVX2 kernel wherever the
    // host has it (the `incircle_simd` speedup row).
    group.bench_function("in_circle_batched", |b| {
        b.iter(|| {
            in_circle_batch(a, bb, cc, &qx, &qy, &mut mask);
            mask.iter().filter(|&&m| m).count()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);

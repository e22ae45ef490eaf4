//! Property tests cross-validating the parallel engine builds against the
//! classic sequential constructions: over random inputs and α ∈ {2, 8, 64}
//! the engine-built trees must answer every stabbing, 3-sided and 2-D range
//! query identically to the classic builds (and to the brute-force
//! oracles).  The CI matrix runs this file at
//! `RAYON_NUM_THREADS ∈ {1, 4}`, so the equivalence holds both with the
//! pool disabled and under real work stealing.

use proptest::prelude::*;
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{three_sided_bruteforce, PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::{range_bruteforce, RangeTree2D, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::{random_intervals, uniform_points_2d};
use pwe_geom::interval::stab_bruteforce;

const ALPHAS: [usize; 3] = [2, 8, 64];

fn ps_points(n: usize, seed: u64) -> Vec<PsPoint> {
    uniform_points_2d(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, point)| PsPoint {
            point,
            id: i as u64,
        })
        .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_interval_parallel_matches_sequential(
        n in 0usize..400,
        seed in 0u64..60,
        queries in proptest::collection::vec(0.0f64..1000.0, 1..12),
    ) {
        let intervals = random_intervals(n, 1000.0, 40.0, seed);
        for alpha in ALPHAS {
            let classic = IntervalTree::build_classic(&intervals, alpha);
            let parallel = IntervalTree::build_parallel(&intervals, alpha);
            for &q in &queries {
                let expected = stab_bruteforce(&intervals, q);
                prop_assert_eq!(&classic.stab(q), &expected, "classic α={} q={}", alpha, q);
                prop_assert_eq!(&parallel.stab(q), &expected, "parallel α={} q={}", alpha, q);
            }
        }
    }

    #[test]
    fn prop_priority_parallel_matches_sequential(
        n in 0usize..400,
        seed in 0u64..60,
        lo in 0.0f64..0.8,
        width in 0.05f64..0.5,
        y in 0.0f64..1.0,
    ) {
        let points = ps_points(n, seed);
        let classic = PrioritySearchTree::build_classic(&points);
        let parallel = PrioritySearchTree::build_parallel(&points);
        let expected = three_sided_bruteforce(&points, lo, lo + width, y);
        prop_assert_eq!(&classic.query_3sided(lo, lo + width, y), &expected);
        prop_assert_eq!(&parallel.query_3sided(lo, lo + width, y), &expected);
    }

    #[test]
    fn prop_range_parallel_matches_sequential(
        n in 0usize..400,
        seed in 0u64..60,
        x in 0.0f64..0.7,
        y in 0.0f64..0.7,
        w in 0.05f64..0.35,
    ) {
        let points = rt_points(n, seed);
        let rect = Rect::new(x, x + w, y, y + w);
        let expected = range_bruteforce(&points, &rect);
        for alpha in ALPHAS {
            let classic = RangeTree2D::build_classic(&points, alpha);
            let engine = RangeTree2D::build(&points, alpha);
            prop_assert_eq!(&classic.query(&rect), &expected, "classic α={}", alpha);
            prop_assert_eq!(&engine.query(&rect), &expected, "engine α={}", alpha);
            prop_assert_eq!(
                classic.augmentation_size(),
                engine.augmentation_size(),
                "identical α-labelings must carry identical augmentation, α={}", alpha
            );
        }
    }
}

/// Deterministic (non-proptest) cross-check at a size well above the
/// sequential-grain cutoff, so the forked recursion really forks.
#[test]
fn parallel_matches_sequential_above_fork_cutoff() {
    let intervals = random_intervals(6000, 1e5, 80.0, 71);
    let it_seq = IntervalTree::build_classic(&intervals, 8);
    let it_par = IntervalTree::build_parallel(&intervals, 8);
    for q in [0.0, 1e4, 2.5e4, 5e4, 7.5e4, 9.9e4] {
        assert_eq!(it_seq.stab(q), it_par.stab(q));
        assert_eq!(it_par.stab(q), stab_bruteforce(&intervals, q));
    }

    let points = ps_points(6000, 72);
    let ps_seq = PrioritySearchTree::build_classic(&points);
    let ps_par = PrioritySearchTree::build_parallel(&points);
    for i in 0..10 {
        let lo = i as f64 / 12.0;
        let got = ps_par.query_3sided(lo, lo + 0.1, 0.5);
        assert_eq!(ps_seq.query_3sided(lo, lo + 0.1, 0.5), got);
        assert_eq!(got, three_sided_bruteforce(&points, lo, lo + 0.1, 0.5));
    }

    let points = rt_points(6000, 73);
    for alpha in ALPHAS {
        let classic = RangeTree2D::build_classic(&points, alpha);
        let engine = RangeTree2D::build(&points, alpha);
        for i in 0..10 {
            let lo = i as f64 / 12.0;
            let rect = Rect::new(lo, lo + 0.15, 0.2, 0.7);
            let expected = range_bruteforce(&points, &rect);
            assert_eq!(classic.query(&rect), expected, "classic α={alpha}");
            assert_eq!(engine.query(&rect), expected, "engine α={alpha}");
        }
    }
}

/// A NaN coordinate must not panic any point-structure build (the x-sorts
/// order by `f64_key`, a total order); the finite points stay queryable.
#[test]
fn point_builds_tolerate_nan_coordinates() {
    for (x, y) in [(f64::NAN, 0.5), (0.5, f64::NAN)] {
        let mut rt = rt_points(300, 74);
        rt[17].point = pwe_geom::point::Point2::xy(x, y);
        let finite: Vec<RtPoint> = rt.iter().copied().filter(|p| p.id != 17).collect();
        let rect = Rect::new(0.1, 0.6, 0.2, 0.9);
        for alpha in ALPHAS {
            assert_eq!(
                RangeTree2D::build(&rt, alpha).query(&rect),
                range_bruteforce(&finite, &rect)
            );
            assert_eq!(
                RangeTree2D::build_classic(&rt, alpha).query(&rect),
                range_bruteforce(&finite, &rect)
            );
        }
        let ps: Vec<PsPoint> = rt
            .iter()
            .map(|p| PsPoint {
                point: p.point,
                id: p.id,
            })
            .collect();
        PrioritySearchTree::build_parallel(&ps);
        PrioritySearchTree::build_classic(&ps);
    }
}

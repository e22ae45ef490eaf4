//! Tier-1 small-memory assertions for Theorem 7.1: the query paths of the
//! interval tree, the priority search tree and the 2D range tree keep each
//! query task's symmetric scratch (its root-to-leaf frames) within a
//! `c·log₂ n`-word budget on post-sorted (balanced) trees, asserted at two
//! input sizes — and the parallel build engine keeps each *build* task's
//! scratch (recursion frames, plus the `O(α)` k-way-merge cursors on the
//! range-tree path) within the engine budgets of `pwe_augtree::engine`.
//! Each task runs under its own `TaskScratch` guard, so the ledger records a
//! per-task fold-max that is identical at every `RAYON_NUM_THREADS`.

use pwe_asym::depth::log2_ceil;
use pwe_asym::smallmem::{SmallMem, TaskScratch};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_augtree::{build_scratch_budget, range_build_scratch_budget, QUERY_SCRATCH_C};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::{random_intervals, stabbing_queries, uniform_points_2d};

fn query_budget(n: usize) -> u64 {
    QUERY_SCRATCH_C * (log2_ceil(n) + 1)
}

#[test]
fn small_memory_interval_stab_at_two_sizes() {
    for n in [1_000usize, 30_000] {
        let tree = IntervalTree::build_parallel(&random_intervals(n, 1e6, 200.0, 17), 4);
        let ledger = SmallMem::logarithmic(n, QUERY_SCRATCH_C);
        for &q in &stabbing_queries(64, 1e6, 19) {
            let mut scratch = TaskScratch::new(&ledger);
            tree.stab_into(q, &mut scratch, &mut Vec::new());
        }
        assert_eq!(ledger.budget(), query_budget(n));
        assert!(ledger.high_water() > 0, "ledger must be live at n={n}");
        assert!(
            ledger.within_budget(),
            "interval stab used {} of {} scratch words at n={n}",
            ledger.high_water(),
            ledger.budget(),
        );
    }
}

#[test]
fn small_memory_priority_3sided_at_two_sizes() {
    for n in [1_000usize, 30_000] {
        let points: Vec<PsPoint> = uniform_points_2d(n, 23)
            .into_iter()
            .enumerate()
            .map(|(i, point)| PsPoint {
                point,
                id: i as u64,
            })
            .collect();
        let tree = PrioritySearchTree::build_parallel(&points);
        let ledger = SmallMem::logarithmic(n, QUERY_SCRATCH_C);
        for i in 0..32 {
            let lo = i as f64 / 40.0;
            let mut scratch = TaskScratch::new(&ledger);
            tree.query_3sided_into(lo, lo + 0.05, 0.9, &mut scratch, &mut Vec::new());
        }
        assert_eq!(ledger.budget(), query_budget(n));
        assert!(ledger.high_water() > 0, "ledger must be live at n={n}");
        assert!(
            ledger.within_budget(),
            "3-sided query used {} of {} scratch words at n={n}",
            ledger.high_water(),
            ledger.budget(),
        );
    }
}

#[test]
fn small_memory_range_tree_query_at_two_sizes() {
    for n in [1_000usize, 20_000] {
        let alpha = 8usize;
        let points: Vec<RtPoint> = uniform_points_2d(n, 31)
            .into_iter()
            .enumerate()
            .map(|(i, point)| RtPoint {
                point,
                id: i as u64,
            })
            .collect();
        let tree = RangeTree2D::build(&points, alpha);
        // The range tree's query path adds the O(α) critical-descendant
        // descent of Corollary 7.1 on top of the x-tree path.
        let budget = query_budget(n) + 4 * alpha as u64;
        let ledger = SmallMem::with_budget(budget);
        for i in 0..32 {
            let lo = i as f64 / 40.0;
            let rect = Rect {
                x_min: lo,
                x_max: lo + 0.2,
                y_min: 0.1,
                y_max: 0.6,
            };
            let mut scratch = TaskScratch::new(&ledger);
            tree.query_into(&rect, &mut scratch, &mut Vec::new());
        }
        assert!(ledger.high_water() > 0, "ledger must be live at n={n}");
        assert!(
            ledger.within_budget(),
            "range query used {} of {} scratch words at n={n}",
            ledger.high_water(),
            ledger.budget(),
        );
    }
}

#[test]
fn small_memory_interval_parallel_build_at_two_sizes() {
    for n in [1_000usize, 30_000] {
        let intervals = random_intervals(n, 1e6, 200.0, 17);
        let (_, stats) = IntervalTree::build_parallel_with_stats(&intervals, 4);
        assert_eq!(stats.scratch.budget, build_scratch_budget(n));
        assert!(
            stats.scratch.high_water > 0,
            "build ledger must be live at n={n}"
        );
        assert!(
            stats.scratch.within_budget(),
            "interval engine build used {} of {} scratch words at n={n}",
            stats.scratch.high_water,
            stats.scratch.budget,
        );
    }
}

#[test]
fn small_memory_priority_parallel_build_at_two_sizes() {
    for n in [1_000usize, 30_000] {
        let points: Vec<PsPoint> = uniform_points_2d(n, 23)
            .into_iter()
            .enumerate()
            .map(|(i, point)| PsPoint {
                point,
                id: i as u64,
            })
            .collect();
        let (_, stats) = PrioritySearchTree::build_parallel_with_stats(&points);
        assert_eq!(stats.scratch.budget, build_scratch_budget(n));
        assert!(
            stats.scratch.high_water > 0,
            "build ledger must be live at n={n}"
        );
        assert!(
            stats.scratch.within_budget(),
            "priority engine build used {} of {} scratch words at n={n}",
            stats.scratch.high_water,
            stats.scratch.budget,
        );
    }
}

#[test]
fn small_memory_range_tree_build_at_two_sizes() {
    for n in [1_000usize, 20_000] {
        for alpha in [2usize, 16] {
            let points: Vec<RtPoint> = uniform_points_2d(n, 31)
                .into_iter()
                .enumerate()
                .map(|(i, point)| RtPoint {
                    point,
                    id: i as u64,
                })
                .collect();
            let (_, stats) = RangeTree2D::build_with_stats(&points, alpha);
            assert_eq!(stats.scratch.budget, range_build_scratch_budget(n, alpha));
            assert!(
                stats.scratch.high_water > 0,
                "build ledger must be live at n={n}, α={alpha}"
            );
            assert!(
                stats.scratch.within_budget(),
                "range engine build used {} of {} scratch words at n={n}, α={alpha}",
                stats.scratch.high_water,
                stats.scratch.budget,
            );
        }
    }
}

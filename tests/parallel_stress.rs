//! Counter/depth correctness under real concurrency.
//!
//! The read/write ledger of `pwe_asym::counters` and the depth ledger
//! composed over `par_join` both claim to be *schedule-independent*:
//! running an algorithm on one thread or on the whole work-stealing pool
//! must record identical read/write totals and a parallel depth no larger
//! than the sequential one (span max-composition can only shrink the serial
//! sum).  These tests pin that down by running the same workload twice in
//! one process — once inside `rayon::with_sequential` (everything inline on
//! this thread) and once on the pool — each under its own
//! `pwe_asym::cost::measure` frame, so concurrent tests cannot leak into
//! the counts.

use std::sync::Mutex;

use pwe_asym::cost::{measure, CostReport, Omega};
use pwe_delaunay::verify::check_delaunay_property;
use pwe_delaunay::write_efficient::triangulate_write_efficient_with_stats;
use pwe_delaunay::{triangulate_baseline_with_stats, TriMesh};
use pwe_kdtree::build::{build_p_batched, recommended_p};
use pwe_primitives::scan::par_exclusive_scan;
use pwe_primitives::semisort::semisort_by_key;
use pwe_sort::incremental_sort;

/// Run `workload` once sequentially and once on the pool, returning both
/// results and both recorded costs.
fn seq_then_par<T>(workload: impl Fn() -> T) -> ((T, CostReport), (T, CostReport)) {
    let seq = measure(Omega::default(), || rayon::with_sequential(&workload));
    let par = measure(Omega::default(), &workload);
    (seq, par)
}

fn assert_schedule_independent<T: PartialEq + std::fmt::Debug>(
    name: &str,
    workload: impl Fn() -> T,
) {
    let ((seq_out, seq_cost), (par_out, par_cost)) = seq_then_par(workload);
    assert_eq!(seq_out, par_out, "{name}: outputs differ across schedules");
    assert_eq!(
        seq_cost.reads, par_cost.reads,
        "{name}: read totals must not depend on the schedule"
    );
    assert_eq!(
        seq_cost.writes, par_cost.writes,
        "{name}: write totals must not depend on the schedule"
    );
    assert!(
        seq_cost.reads > 0 && seq_cost.writes > 0,
        "{name}: no cost?"
    );
    assert!(
        par_cost.depth <= seq_cost.depth,
        "{name}: parallel depth {} exceeds the sequential structural bound {}",
        par_cost.depth,
        seq_cost.depth
    );
    assert!(par_cost.depth > 0, "{name}: depth was never recorded");
}

#[test]
fn semisort_counters_match_single_thread_run() {
    let items: Vec<u64> = (0..60_000u64)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    assert_schedule_independent("semisort", || {
        let groups = semisort_by_key(&items, |x| x % 193);
        groups
            .iter()
            .map(|g| (g.key, g.items.len()))
            .collect::<Vec<_>>()
    });
}

#[test]
fn parallel_scan_counters_match_single_thread_run() {
    let input: Vec<u64> = (0..80_000).map(|i| (i * 7919) % 257).collect();
    assert_schedule_independent("par_exclusive_scan", || par_exclusive_scan(&input));
}

#[test]
fn join_heavy_kdtree_build_counters_match_single_thread_run() {
    let pts = pwe_geom::generators::uniform_points_2d(20_000, 99);
    assert_schedule_independent("kdtree build_p_batched", || {
        let (tree, stats) = build_p_batched(&pts, recommended_p(pts.len()), 8, 7);
        (tree.height(), tree.node_count(), stats)
    });
}

#[test]
fn incremental_sort_counters_match_single_thread_run() {
    let keys: Vec<u64> = (0..30_000u64)
        .map(|i| i.wrapping_mul(48_271) % 65_537)
        .collect();
    assert_schedule_independent("incremental_sort", || incremental_sort(&keys, 11));
}

/// Canonical form of a mesh for cross-schedule comparison: the sorted set of
/// real triangles plus the exact arena layout (id → vertices).  The engine's
/// reserve-and-commit rounds promise the arena is *identical* at every
/// thread count, not merely equivalent.
fn mesh_fingerprint(mesh: &TriMesh) -> (Vec<[u32; 3]>, Vec<[u32; 3]>, usize) {
    let mut real = mesh.real_triangles();
    for t in &mut real {
        t.sort_unstable();
    }
    real.sort_unstable();
    let arena: Vec<[u32; 3]> = mesh.triangles.iter().map(|t| t.v).collect();
    (real, arena, mesh.alive_count())
}

/// The Delaunay engine's reserve-and-commit rounds: triangulation,
/// `InsertStats` (rounds, inserted, conflict entries written, max cavity)
/// and the read/write ledger must all be schedule-independent, and the mesh
/// must be Delaunay.  Combined with the `RAYON_NUM_THREADS ∈ {1, 4}` CI
/// matrix this pins the engine at both thread counts.
#[test]
fn delaunay_write_efficient_engine_counters_match_single_thread_run() {
    let points = pwe_geom::generators::uniform_grid_points(4_000, 1 << 18, 77);
    assert_schedule_independent("delaunay write-efficient engine", || {
        let (mesh, stats) = triangulate_write_efficient_with_stats(&points, 13);
        check_delaunay_property(&mesh, Some(200)).expect("Delaunay property");
        (mesh_fingerprint(&mesh), stats)
    });
}

/// Same for the all-points-at-once baseline, which exercises much larger
/// rounds (every uninserted point participates in every round).
#[test]
fn delaunay_baseline_engine_counters_match_single_thread_run() {
    let points = pwe_geom::generators::uniform_grid_points(2_500, 1 << 18, 78);
    assert_schedule_independent("delaunay baseline engine", || {
        let (mesh, stats) = triangulate_baseline_with_stats(&points, 13);
        check_delaunay_property(&mesh, Some(200)).expect("Delaunay property");
        (mesh_fingerprint(&mesh), stats.insert)
    });
}

/// The augmented-tree build engine forks `par_join` recursion over disjoint
/// arena regions; layout slots are assigned by index arithmetic, so the
/// finished arenas must be *bit-identical* across schedules — pinned here via
/// `layout_digest()` (a deterministic fold over every node field, inner-run
/// offset and augmentation-arena word) — and the read/write/depth ledgers
/// must match the sequential run exactly.
#[test]
fn augtree_interval_parallel_build_counters_match_single_thread_run() {
    use pwe::augtree::interval::IntervalTree;
    let intervals = pwe_geom::generators::random_intervals(30_000, 1e6, 150.0, 41);
    let queries = pwe_geom::generators::stabbing_queries(64, 1e6, 42);
    assert_schedule_independent("interval build_parallel", || {
        let tree = IntervalTree::build_parallel(&intervals, 4);
        let answers: Vec<Vec<u64>> = queries.iter().map(|&q| tree.stab(q)).collect();
        (tree.layout_digest(), tree.critical_count(), answers)
    });
}

#[test]
fn augtree_priority_parallel_build_counters_match_single_thread_run() {
    use pwe::augtree::priority::{PrioritySearchTree, PsPoint};
    let points: Vec<PsPoint> = pwe_geom::generators::uniform_points_2d(30_000, 43)
        .into_iter()
        .enumerate()
        .map(|(i, point)| PsPoint {
            point,
            id: i as u64,
        })
        .collect();
    let queries = pwe_geom::generators::random_three_sided_queries(64, 0.3, 44);
    assert_schedule_independent("priority build_parallel", || {
        let tree = PrioritySearchTree::build_parallel(&points);
        let answers: Vec<Vec<u64>> = queries
            .iter()
            .map(|&(lo, hi, y)| tree.query_3sided(lo, hi, y))
            .collect();
        (tree.layout_digest(), tree.height(), answers)
    });
}

#[test]
fn augtree_range_parallel_build_counters_match_single_thread_run() {
    use pwe::augtree::range_tree::{RangeTree2D, RtPoint};
    let points: Vec<RtPoint> = pwe_geom::generators::uniform_points_2d(20_000, 45)
        .into_iter()
        .enumerate()
        .map(|(i, point)| RtPoint {
            point,
            id: i as u64,
        })
        .collect();
    let rects = pwe_geom::generators::random_query_rects(48, 0.2, 46);
    assert_schedule_independent("range-tree engine build", || {
        let (tree, stats) = RangeTree2D::build_with_stats(&points, 8);
        assert!(stats.scratch.within_budget(), "{:?}", stats.scratch);
        let answers: Vec<Vec<u64>> = rects.iter().map(|r| tree.query(r)).collect();
        (
            tree.layout_digest(),
            tree.augmentation_size(),
            stats.nodes,
            stats.aug_len,
            answers,
        )
    });
}

/// The pool really runs `join` branches on distinct OS threads (acceptance
/// criterion for the work-stealing rewrite), and doing so changes none of
/// the assertions above.
#[test]
fn pool_uses_multiple_threads_when_configured() {
    if rayon::current_num_threads() < 2 {
        return; // RAYON_NUM_THREADS=1: sequential leg, nothing to observe.
    }
    // A tiny Vec stands in for a set: ThreadId is not Ord and the workspace
    // lint (D1) bans ad-hoc RandomState maps even in tests.
    let seen = Mutex::new(Vec::new());
    fn spread(levels: usize, seen: &Mutex<Vec<std::thread::ThreadId>>) {
        if levels == 0 {
            let id = std::thread::current().id();
            let mut guard = seen.lock().unwrap();
            if !guard.contains(&id) {
                guard.push(id);
            }
            drop(guard);
            // Opaque elements keep release builds from folding the leaf
            // work into a closed form (an opaque bound alone does not: the
            // range sum becomes n(n-1)/2), which would let every join
            // finish before a worker could steal.
            std::hint::black_box((0..20_000u64).map(std::hint::black_box).sum::<u64>());
            return;
        }
        pwe_asym::parallel::par_join(|| spread(levels - 1, seen), || spread(levels - 1, seen));
    }
    for _ in 0..20 {
        spread(6, &seen);
        if seen.lock().unwrap().len() >= 2 {
            return;
        }
    }
    panic!(
        "pool has {} threads but join branches never left the caller",
        rayon::current_num_threads()
    );
}

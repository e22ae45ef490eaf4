//! The write-efficient Delaunay triangulation (Section 5, Theorem 5.1):
//! prefix doubling + DAG tracing on top of the batch insertion engine.

use rayon::prelude::*;

use pwe_asym::depth::RoundDepth;
use pwe_geom::point::GridPoint;
use pwe_primitives::permute::random_permutation;
use pwe_trace::prefix::prefix_doubling_rounds;

use crate::engine::{insert_batch, InsertStats};
use crate::mesh::TriMesh;

/// Statistics of a write-efficient triangulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DtStats {
    /// Number of prefix-doubling rounds (including the initial one).
    pub prefix_rounds: usize,
    /// Aggregated engine statistics over all rounds.
    pub insert: InsertStats,
    /// Longest tracing path observed while locating a batch.
    pub max_trace_path: u64,
    /// Number of triangles in the final triangulation (including ghost ones).
    pub alive_triangles: usize,
    /// Total triangles ever created (history / tracing-structure size).
    pub history_triangles: usize,
}

/// Compute the Delaunay triangulation of `points` with the write-efficient
/// prefix-doubling algorithm.  `seed` selects the random insertion order.
pub fn triangulate_write_efficient(points: &[GridPoint], seed: u64) -> TriMesh {
    triangulate_write_efficient_with_stats(points, seed).0
}

/// [`triangulate_write_efficient`] plus statistics.
pub fn triangulate_write_efficient_with_stats(
    points: &[GridPoint],
    seed: u64,
) -> (TriMesh, DtStats) {
    let n = points.len();
    let perm = random_permutation(n, seed);
    let ordered: Vec<GridPoint> = perm.iter().map(|&i| points[i]).collect();
    let mut mesh = TriMesh::new(&ordered);
    let mut stats = DtStats::default();
    if n == 0 {
        stats.alive_triangles = mesh.alive_count();
        stats.history_triangles = mesh.history_size();
        return (mesh, stats);
    }

    let schedule = prefix_doubling_rounds(n, 2);
    stats.prefix_rounds = schedule.rounds().len();

    for round in schedule.rounds() {
        // Point ids in the mesh are offset by the three ghost vertices.
        let first = round.start as u32 + 3;
        let last = round.end as u32 + 3;

        let conflicts: Vec<(u32, u32)> = if round.is_initial() {
            // The initial prefix conflicts only with the bounding triangle.
            (first..last).map(|p| (0, p)).collect()
        } else {
            // Locate the batch against the current triangulation by tracing
            // the history DAG (reads only), in parallel over the batch.
            // `mesh` is shared read-only across the pool's threads during the
            // trace (`TriMesh` holds plain vectors, no interior mutability);
            // the engine below mutates it only in its commit step, runs its
            // own rounds in parallel, and semisorts these pairs into
            // per-triangle conflict lists itself — with a deterministic
            // group order, so the triangle arena is identical at every
            // thread count.
            let trace_depth = RoundDepth::new();
            let located: Vec<(u32, Vec<u32>)> = (first..last)
                .into_par_iter()
                .map(|p| {
                    let (conflict_tris, path) = mesh.locate_conflicts(p);
                    trace_depth.record(path);
                    (p, conflict_tris)
                })
                .collect();
            stats.max_trace_path = stats.max_trace_path.max(trace_depth.current_max());
            trace_depth.commit();

            // Flatten into (triangle, point) pairs — the engine's semisort
            // forms the conflict lists from these with linear expected writes.
            located
                .into_iter()
                .flat_map(|(p, tris)| tris.into_iter().map(move |t| (t, p)))
                .collect()
        };

        let round_stats = insert_batch(&mut mesh, conflicts);
        stats.insert.rounds += round_stats.rounds;
        stats.insert.inserted += round_stats.inserted;
        stats.insert.conflict_entries_written += round_stats.conflict_entries_written;
        stats.insert.max_cavity = stats.insert.max_cavity.max(round_stats.max_cavity);
        stats.insert.scratch = stats.insert.scratch.merge_max(&round_stats.scratch);
    }

    stats.alive_triangles = mesh.alive_count();
    stats.history_triangles = mesh.history_size();
    (mesh, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::triangulate_baseline_with_stats;
    use crate::verify::{check_delaunay_property, check_mesh_consistency, same_triangulation};
    use pwe_asym::cost::{measure, Omega};
    use pwe_geom::generators::{circle_grid_points, clustered_grid_points, uniform_grid_points};

    #[test]
    fn write_efficient_produces_a_delaunay_triangulation() {
        let points = uniform_grid_points(600, 1 << 15, 2);
        let (mesh, stats) = triangulate_write_efficient_with_stats(&points, 17);
        assert_eq!(stats.insert.inserted, 600);
        assert!(stats.prefix_rounds > 1);
        check_mesh_consistency(&mesh).expect("consistent");
        check_delaunay_property(&mesh, None).expect("Delaunay");
        assert_eq!(mesh.alive_count(), 2 * 600 + 1);
    }

    #[test]
    fn matches_baseline_triangulation_on_same_order() {
        // Same seed → same random order → the two algorithms triangulate the
        // same point sequence; with points in general position the Delaunay
        // triangulation is unique, so the real triangles must coincide.
        let points = uniform_grid_points(350, 1 << 14, 4);
        let (a, _) = triangulate_baseline_with_stats(&points, 23);
        let (b, _) = triangulate_write_efficient_with_stats(&points, 23);
        assert!(same_triangulation(&a, &b), "triangulations differ");
    }

    #[test]
    fn handles_adversarial_distributions() {
        for points in [
            clustered_grid_points(300, 6, 1 << 14, 6),
            circle_grid_points(300, 1 << 14, 6),
        ] {
            let mesh = triangulate_write_efficient(&points, 31);
            check_mesh_consistency(&mesh).expect("consistent");
            check_delaunay_property(&mesh, None).expect("Delaunay");
        }
    }

    #[test]
    fn tiny_inputs() {
        for n in [0usize, 1, 2, 3, 5] {
            let points = uniform_grid_points(n, 1 << 10, 9);
            let mesh = triangulate_write_efficient(&points, 3);
            assert_eq!(mesh.alive_count(), 2 * n + 1);
            check_mesh_consistency(&mesh).expect("consistent");
        }
    }

    #[test]
    fn writes_scale_better_than_baseline() {
        let points = uniform_grid_points(4000, 1 << 18, 8);
        let (_, base) = measure(Omega::symmetric(), || triangulate_baseline(&points, 5));
        let (_, we) = measure(Omega::symmetric(), || {
            triangulate_write_efficient(&points, 5)
        });
        assert!(
            we.writes < base.writes,
            "write-efficient version should write less: {} vs {}",
            we.writes,
            base.writes
        );
        // Reads may be somewhat higher for the write-efficient version (the
        // tracing), but within a reasonable factor.
        assert!(we.reads < base.reads.saturating_mul(4).max(1_000_000));
    }

    use crate::baseline::triangulate_baseline;
}

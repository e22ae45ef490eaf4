//! `ParIncrementalDT` — the write-inefficient baseline (Algorithm 2).
//!
//! All points start in the conflict list of the bounding triangle and
//! percolate down the dependence DAG round by round; every time a point
//! survives a round it is rewritten into the conflict lists of the new
//! triangles it encroaches, which is what makes the algorithm `Θ(n log n)`
//! writes in expectation even though its read count and depth match the
//! write-efficient variant.  The rounds themselves run in parallel inside
//! the shared reserve-and-commit engine ([`crate::engine::insert_batch`]) —
//! the baseline is write-*inefficient*, not sequential.

use pwe_geom::point::GridPoint;
use pwe_primitives::permute::random_permutation;

use crate::engine::{insert_batch, InsertStats};
use crate::mesh::TriMesh;

/// Statistics of a baseline triangulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Engine statistics (rounds, redistribution writes, cavity sizes).
    pub insert: InsertStats,
    /// Number of triangles in the final triangulation (including ghost ones).
    pub alive_triangles: usize,
    /// Total triangles ever created (history size).
    pub history_triangles: usize,
}

/// Compute the Delaunay triangulation of `points` with the baseline
/// algorithm.  `seed` selects the random insertion order.
pub fn triangulate_baseline(points: &[GridPoint], seed: u64) -> TriMesh {
    triangulate_baseline_with_stats(points, seed).0
}

/// [`triangulate_baseline`] plus statistics.
pub fn triangulate_baseline_with_stats(
    points: &[GridPoint],
    seed: u64,
) -> (TriMesh, BaselineStats) {
    let perm = random_permutation(points.len(), seed);
    let ordered: Vec<GridPoint> = perm.iter().map(|&i| points[i]).collect();
    let mut mesh = TriMesh::new(&ordered);
    let conflicts: Vec<(u32, u32)> = (3..mesh.points.len() as u32).map(|p| (0, p)).collect();
    // One all-points batch: the engine's parallel rounds do the rest.
    let insert = insert_batch(&mut mesh, conflicts);
    let stats = BaselineStats {
        insert,
        alive_triangles: mesh.alive_count(),
        history_triangles: mesh.history_size(),
    };
    (mesh, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_delaunay_property, check_mesh_consistency};
    use pwe_geom::generators::{circle_grid_points, clustered_grid_points, uniform_grid_points};

    #[test]
    fn baseline_produces_a_delaunay_triangulation() {
        let points = uniform_grid_points(400, 1 << 14, 1);
        let (mesh, stats) = triangulate_baseline_with_stats(&points, 42);
        assert_eq!(stats.insert.inserted, 400);
        check_mesh_consistency(&mesh).expect("consistent");
        check_delaunay_property(&mesh, None).expect("Delaunay");
        // Every triangulation of n interior points inside a triangle has
        // exactly 2n + 1 triangles.
        assert_eq!(mesh.alive_count(), 2 * 400 + 1);
    }

    #[test]
    fn baseline_handles_clustered_and_circular_inputs() {
        for points in [
            clustered_grid_points(250, 5, 1 << 14, 3),
            circle_grid_points(250, 1 << 14, 3),
        ] {
            let mesh = triangulate_baseline(&points, 9);
            check_mesh_consistency(&mesh).expect("consistent");
            check_delaunay_property(&mesh, None).expect("Delaunay");
        }
    }

    #[test]
    fn baseline_tiny_inputs() {
        for n in [0usize, 1, 2, 3, 4] {
            let points = uniform_grid_points(n, 1 << 10, 7);
            let mesh = triangulate_baseline(&points, 1);
            assert_eq!(mesh.num_input_points(), n);
            assert_eq!(mesh.alive_count(), 2 * n + 1);
            check_mesh_consistency(&mesh).expect("consistent");
        }
    }

    #[test]
    fn round_count_is_logarithmic_ish() {
        let points = uniform_grid_points(2000, 1 << 16, 5);
        let (_, stats) = triangulate_baseline_with_stats(&points, 11);
        // The dependence DAG has O(log n) depth whp; allow a generous bound.
        assert!(
            stats.insert.rounds < 200,
            "too many rounds: {}",
            stats.insert.rounds
        );
    }
}

//! Verification of triangulation outputs.
//!
//! The tests and the experiment harness verify two things about every mesh
//! the algorithms produce:
//!
//! 1. **structural consistency** — alive triangles are CCW, every edge is
//!    shared by at most two alive triangles, interior edges by exactly two,
//!    every input point is a vertex of some alive triangle, and the
//!    triangle count matches Euler's relation (`2n + 1` alive triangles for
//!    `n` input points strictly inside the bounding triangle);
//! 2. **the Delaunay property** — no input point lies strictly inside the
//!    circumcircle of any alive triangle.  (Triangles incident to the ghost
//!    bounding vertices are part of the triangulation of the extended point
//!    set, so they are checked too; the property holds for them by the same
//!    argument.)
//!
//! None of the verification work is charged to the cost model — it is not
//! part of any algorithm.

use pwe_geom::predicates::{in_circle_det, is_ccw};
use pwe_primitives::hash::DetHashMap;

use crate::mesh::{norm_edge, TriMesh};

/// Check structural consistency; returns a description of the first problem
/// found, if any.
pub fn check_mesh_consistency(mesh: &TriMesh) -> Result<(), String> {
    let n = mesh.num_input_points();
    let mut edge_count: DetHashMap<(u32, u32), usize> = DetHashMap::default();
    let mut vertex_seen = vec![false; mesh.points.len()];

    let mut alive = 0usize;
    for t in mesh.alive_triangles() {
        alive += 1;
        let tri = mesh.triangle(t);
        let [a, b, c] = tri.v;
        if a == b || b == c || a == c {
            return Err(format!("triangle {t} has repeated vertices {:?}", tri.v));
        }
        if !is_ccw(
            mesh.points[a as usize],
            mesh.points[b as usize],
            mesh.points[c as usize],
        ) {
            return Err(format!("triangle {t} is not counter-clockwise"));
        }
        for &v in &tri.v {
            vertex_seen[v as usize] = true;
        }
        for e in tri.edges() {
            *edge_count.entry(e).or_insert(0) += 1;
        }
    }

    if alive != mesh.alive_count() {
        return Err(format!(
            "alive count mismatch: recorded {}, found {alive}",
            mesh.alive_count()
        ));
    }
    if alive != 2 * n + 1 {
        return Err(format!(
            "Euler relation violated: {n} input points should give {} alive triangles, found {alive}",
            2 * n + 1
        ));
    }

    // The three edges of the bounding triangle are incident to exactly one
    // alive triangle; every other edge to exactly two.
    let hull_edges = [norm_edge(0, 1), norm_edge(1, 2), norm_edge(2, 0)];
    for (e, count) in &edge_count {
        let expected = if hull_edges.contains(e) { 1 } else { 2 };
        if *count != expected {
            return Err(format!(
                "edge {e:?} incident to {count} alive triangles (expected {expected})"
            ));
        }
    }

    for (i, seen) in vertex_seen.iter().enumerate() {
        if !seen {
            return Err(format!("vertex {i} is not used by any alive triangle"));
        }
    }
    Ok(())
}

/// Check the (strict) empty-circumcircle property of every alive triangle
/// against every input point.
///
/// `sample` limits the number of triangles checked (None = all); the tests
/// use exhaustive checks on inputs of a few hundred points and sampled checks
/// in the large benchmark sanity passes.
pub fn check_delaunay_property(mesh: &TriMesh, sample: Option<usize>) -> Result<(), String> {
    let tris: Vec<u32> = mesh.alive_triangles().collect();
    let step = match sample {
        Some(s) if s > 0 && tris.len() > s => tris.len() / s,
        _ => 1,
    };
    for &t in tris.iter().step_by(step.max(1)) {
        let tri = mesh.triangle(t);
        let (a, b, c) = (
            mesh.points[tri.v[0] as usize],
            mesh.points[tri.v[1] as usize],
            mesh.points[tri.v[2] as usize],
        );
        for p in 3..mesh.points.len() as u32 {
            if tri.has_vertex(p) {
                continue;
            }
            if in_circle_det(a, b, c, mesh.points[p as usize]) > 0 {
                return Err(format!(
                    "point {p} lies strictly inside the circumcircle of alive triangle {t} {:?}",
                    tri.v
                ));
            }
        }
    }
    Ok(())
}

/// Whether two meshes over the same point sequence contain exactly the same
/// set of real (non-ghost) triangles.
pub fn same_triangulation(a: &TriMesh, b: &TriMesh) -> bool {
    let canon = |mesh: &TriMesh| {
        let mut tris: Vec<[u32; 3]> = mesh
            .real_triangles()
            .into_iter()
            .map(|mut t| {
                t.sort_unstable();
                t
            })
            .collect();
        tris.sort_unstable();
        tris
    };
    canon(a) == canon(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::insert_batch;
    use pwe_geom::generators::uniform_grid_points;

    #[test]
    fn fresh_mesh_is_consistent_but_trivial() {
        let points = uniform_grid_points(5, 1 << 10, 1);
        let mesh = TriMesh::new(&points);
        // No input point is covered yet, so consistency must fail on the
        // Euler relation / unused vertices.
        assert!(check_mesh_consistency(&mesh).is_err());
        // But the Delaunay property of the single bounding triangle holds
        // vacuously only if no point encroaches it — which is false here.
        assert!(check_delaunay_property(&mesh, None).is_err());
    }

    #[test]
    fn complete_triangulation_passes_all_checks() {
        let points = uniform_grid_points(150, 1 << 12, 2);
        let mut mesh = TriMesh::new(&points);
        let conflicts: Vec<(u32, u32)> = (3..mesh.points.len() as u32).map(|p| (0, p)).collect();
        insert_batch(&mut mesh, conflicts);
        check_mesh_consistency(&mesh).expect("consistent");
        check_delaunay_property(&mesh, None).expect("Delaunay");
        assert!(same_triangulation(&mesh, &mesh));
    }

    #[test]
    fn sampled_check_is_a_subset_of_full_check() {
        let points = uniform_grid_points(200, 1 << 12, 3);
        let mut mesh = TriMesh::new(&points);
        let conflicts: Vec<(u32, u32)> = (3..mesh.points.len() as u32).map(|p| (0, p)).collect();
        insert_batch(&mut mesh, conflicts);
        assert!(check_delaunay_property(&mesh, Some(10)).is_ok());
    }
}

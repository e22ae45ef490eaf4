//! The triangulation mesh, its alive-edge adjacency and the history
//! ("tracing") DAG.
//!
//! Points are [`GridPoint`]s; three *ghost* vertices forming a large bounding
//! triangle are prepended at indices 0, 1, 2, so real input points have
//! indices `3..`.  The insertion priority of a point is its index (the
//! callers permute the input first, so index order *is* the random order the
//! analysis requires).
//!
//! Triangles live in an arena and are never physically removed: a triangle
//! that has been replaced becomes *dead* and keeps its `children` links —
//! these links are exactly the tracing structure of Section 5 (Figure 1):
//! when a new triangle `t' = (u, w, v)` is created, its parents are the
//! cavity triangle `t` it was carved from and the outside witness `t_o`
//! across the edge `(u, w)`, and a point can encroach `t'` only if it
//! encroached `t` or `t_o` — the traceable property that lets future batches
//! locate their conflicts with reads only.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_geom::batch::in_circle_filtered;
use pwe_geom::point::GridPoint;
use pwe_geom::predicates::{is_ccw, orient2d_det};
use pwe_primitives::hash::DetHashMap;
use pwe_trace::dag::TraceDag;

/// Sentinel for "no triangle".
pub const NO_TRI: u32 = u32::MAX;

/// Largest `|x|`, `|y|` of an input point [`TriMesh::new`] can hold.  For
/// inputs within `±L` the span is at most `2L`, so `r = 8·span + 16 ≤
/// 16L + 16` and every ghost corner lies within `L + 2r ≤ 33L + 32` of the
/// origin; `L = 2^20` keeps that inside
/// [`GRID_LIMIT`](pwe_geom::point::GRID_LIMIT).
pub const SITE_LIMIT: i64 = 1 << 20;
const _: () = assert!(33 * SITE_LIMIT + 32 <= pwe_geom::point::GRID_LIMIT);

/// A triangle of the mesh / a vertex of the history DAG.
#[derive(Debug, Clone)]
pub struct Triangle {
    /// Vertex indices in counter-clockwise order.
    pub v: [u32; 3],
    /// The (at most two) parents in the tracing structure; [`NO_TRI`] when absent.
    pub parents: [u32; 2],
    /// Children in the tracing structure (triangles created while replacing
    /// this one, or created adjacent to it as the outside witness).
    pub children: Vec<u32>,
    /// Whether the triangle is part of the current triangulation.
    pub alive: bool,
}

impl Triangle {
    /// The three undirected edges of the triangle, each normalized to
    /// `(min, max)` vertex order.
    pub fn edges(&self) -> [(u32, u32); 3] {
        [
            norm_edge(self.v[0], self.v[1]),
            norm_edge(self.v[1], self.v[2]),
            norm_edge(self.v[2], self.v[0]),
        ]
    }

    /// Whether `p` is one of the triangle's vertices.
    pub fn has_vertex(&self, p: u32) -> bool {
        self.v.contains(&p)
    }
}

/// Normalize an undirected edge to `(min, max)`.
#[inline]
pub fn norm_edge(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The triangulation state.
#[derive(Debug, Clone)]
pub struct TriMesh {
    /// All vertices: indices 0..3 are the ghost bounding-triangle corners,
    /// indices 3.. are the input points in insertion-priority order.
    pub points: Vec<GridPoint>,
    /// Triangle arena (alive and dead).
    pub triangles: Vec<Triangle>,
    /// For every undirected edge of an *alive* triangle, the one or two alive
    /// triangles incident to it.  Deterministically hashed: the mesh promises
    /// bit-identical behaviour (and instrumented totals) across processes.
    edge_map: DetHashMap<(u32, u32), [u32; 2]>,
    /// Number of currently alive triangles.
    alive_count: usize,
}

impl TriMesh {
    /// Create a mesh holding the given input points plus a bounding triangle
    /// large enough to contain them all.  The bounding triangle is the root
    /// of the tracing structure.
    pub fn new(input: &[GridPoint]) -> Self {
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (0i64, 0i64, 0i64, 0i64);
        for p in input {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let span = (max_x - min_x).max(max_y - min_y).max(1);
        let cx = (min_x + max_x) / 2;
        let cy = (min_y + max_y) / 2;
        // A triangle ~16 spans across, inside the exact-arithmetic grid
        // bound for inputs within ±SITE_LIMIT.
        let r = 8 * span + 16;
        let ghosts = [
            GridPoint::new(cx - 2 * r, cy - r),
            GridPoint::new(cx + 2 * r, cy - r),
            GridPoint::new(cx, cy + 2 * r),
        ];
        let mut points = Vec::with_capacity(input.len() + 3);
        points.extend_from_slice(&ghosts);
        points.extend_from_slice(input);
        record_writes(points.len() as u64);

        let root = Triangle {
            v: [0, 1, 2],
            parents: [NO_TRI, NO_TRI],
            children: Vec::new(),
            alive: true,
        };
        let mut mesh = TriMesh {
            points,
            triangles: vec![root],
            edge_map: DetHashMap::default(),
            alive_count: 1,
        };
        record_writes(1);
        mesh.add_edges(0);
        debug_assert!(is_ccw(mesh.points[0], mesh.points[1], mesh.points[2]));
        mesh
    }

    /// Number of input (non-ghost) points.
    pub fn num_input_points(&self) -> usize {
        self.points.len() - 3
    }

    /// Number of alive triangles.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Total triangles ever created (size of the tracing structure).
    pub fn history_size(&self) -> usize {
        self.triangles.len()
    }

    /// Iterator over the indices of alive triangles.
    pub fn alive_triangles(&self) -> impl Iterator<Item = u32> + '_ {
        self.triangles
            .iter()
            .enumerate()
            .filter(|(_, t)| t.alive)
            .map(|(i, _)| i as u32)
    }

    /// Alive triangles none of whose vertices is a ghost — the triangles of
    /// the Delaunay triangulation of the input.
    pub fn real_triangles(&self) -> Vec<[u32; 3]> {
        self.triangles
            .iter()
            .filter(|t| t.alive && t.v.iter().all(|&v| v >= 3))
            .map(|t| t.v)
            .collect()
    }

    /// Whether point `p` (by index) is strictly inside the circumcircle of
    /// triangle `t` (one in-circle test = one read).
    #[inline]
    pub fn encroaches(&self, p: u32, t: u32) -> bool {
        record_read();
        let tri = &self.triangles[t as usize];
        let q = self.points[p as usize];
        in_circle_filtered(
            self.points[tri.v[0] as usize],
            self.points[tri.v[1] as usize],
            self.points[tri.v[2] as usize],
            q.x,
            q.y,
        )
    }

    /// The alive triangle adjacent to `t` across `edge`, if any.
    pub fn neighbor_across(&self, t: u32, edge: (u32, u32)) -> Option<u32> {
        record_read();
        let entry = self.edge_map.get(&edge)?;
        if entry[0] == t {
            (entry[1] != NO_TRI).then_some(entry[1])
        } else if entry[1] == t {
            (entry[0] != NO_TRI).then_some(entry[0])
        } else {
            None
        }
    }

    fn add_edges(&mut self, t: u32) {
        for e in self.triangles[t as usize].edges() {
            let entry = self.edge_map.entry(e).or_insert([NO_TRI, NO_TRI]);
            if entry[0] == NO_TRI {
                entry[0] = t;
            } else if entry[1] == NO_TRI {
                entry[1] = t;
            } else {
                panic!("edge {e:?} already incident to two alive triangles");
            }
        }
        record_writes(3);
    }

    fn remove_edges(&mut self, t: u32) {
        for e in self.triangles[t as usize].edges() {
            if let Some(entry) = self.edge_map.get_mut(&e) {
                if entry[0] == t {
                    entry[0] = NO_TRI;
                }
                if entry[1] == t {
                    entry[1] = NO_TRI;
                }
                if entry[0] == NO_TRI && entry[1] == NO_TRI {
                    self.edge_map.remove(&e);
                }
            }
        }
        record_writes(3);
    }

    /// The id the arena will assign to the next triangle.
    ///
    /// The parallel engine uses this as the base of a **reserved id range**:
    /// a prefix scan over per-winner fan sizes turns the base into one
    /// disjoint id interval per winner, so the whole round's triangles can be
    /// *constructed* in parallel (see [`Self::orient_ccw`]) and *committed*
    /// in id order with no lock — and the arena layout is identical at every
    /// thread count.
    #[inline]
    pub fn next_triangle_id(&self) -> u32 {
        self.triangles.len() as u32
    }

    /// CCW-orient the vertex triple `(a, b, apex)` without touching the
    /// arena.  Read-only, so the parallel construction phase can pre-orient
    /// the triangles of a reserved id range.
    #[inline]
    pub fn orient_ccw(&self, a: u32, b: u32, apex: u32) -> [u32; 3] {
        if orient2d_det(
            self.points[a as usize],
            self.points[b as usize],
            self.points[apex as usize],
        ) > 0
        {
            [a, b, apex]
        } else {
            [b, a, apex]
        }
    }

    /// Whether point `p` is strictly inside the circumcircle of the
    /// *uncommitted* triangle with (CCW) vertices `v` (one in-circle test =
    /// one read).  Used by the engine to filter conflict lists for triangles
    /// whose ids are reserved but not yet installed.
    #[inline]
    pub fn encroaches_tri(&self, p: u32, v: [u32; 3]) -> bool {
        record_read();
        let q = self.points[p as usize];
        in_circle_filtered(
            self.points[v[0] as usize],
            self.points[v[1] as usize],
            self.points[v[2] as usize],
            q.x,
            q.y,
        )
    }

    /// Create a new alive triangle on vertices `(a, b, apex)` (re-oriented to
    /// CCW), with tracing-structure parents `parents`.  Returns its index.
    pub fn create_triangle(&mut self, a: u32, b: u32, apex: u32, parents: [u32; 2]) -> u32 {
        let v = self.orient_ccw(a, b, apex);
        self.install_oriented(v, parents)
    }

    /// Commit a pre-oriented triangle to the arena (the second half of the
    /// engine's reserve-and-commit round).  The id returned is always
    /// [`Self::next_triangle_id`] at the time of the call, so committing a
    /// round's triangles in reserved-id order reproduces exactly the ids the
    /// reservation scan handed out.
    pub fn install_oriented(&mut self, v: [u32; 3], parents: [u32; 2]) -> u32 {
        debug_assert!(
            orient2d_det(
                self.points[v[0] as usize],
                self.points[v[1] as usize],
                self.points[v[2] as usize],
            ) > 0,
            "install_oriented requires CCW vertices"
        );
        let idx = self.triangles.len() as u32;
        self.triangles.push(Triangle {
            v,
            parents,
            children: Vec::new(),
            alive: true,
        });
        record_writes(2); // the triangle record + its alive mark
        for &p in parents.iter().filter(|&&p| p != NO_TRI) {
            self.triangles[p as usize].children.push(idx);
            record_writes(1);
        }
        self.alive_count += 1;
        self.add_edges(idx);
        idx
    }

    /// Mark triangle `t` dead and remove it from the adjacency map (it stays
    /// in the arena as part of the tracing structure).
    pub fn kill_triangle(&mut self, t: u32) {
        debug_assert!(self.triangles[t as usize].alive, "killing a dead triangle");
        self.remove_edges(t);
        self.triangles[t as usize].alive = false;
        self.alive_count -= 1;
        record_writes(1);
    }

    /// Locate, by tracing the history DAG from the bounding triangle, all
    /// *alive* triangles whose circumcircle strictly contains point `p`
    /// (p's conflict/encroached set).  Reads only; the number of reads is
    /// proportional to the number of encroached history triangles.
    ///
    /// Returns the conflict set and the length of the longest root-to-leaf
    /// path followed (the depth contribution of this trace).
    pub fn locate_conflicts(&self, p: u32) -> (Vec<u32>, u64) {
        let (sinks, stats) = pwe_trace::dag::trace(self, &p);
        (
            sinks.into_iter().map(|v| v as u32).collect(),
            stats.max_path,
        )
    }

    /// Read a triangle (no cost bookkeeping; use [`Self::encroaches`] and the
    /// adjacency accessors inside algorithms).
    pub fn triangle(&self, t: u32) -> &Triangle {
        &self.triangles[t as usize]
    }

    /// Total number of reads to charge for scanning the vertices of `count`
    /// triangles (utility used by the engine).
    pub fn charge_triangle_reads(&self, count: u64) {
        record_reads(count);
    }
}

/// The tracing structure is a [`TraceDag`]: vertices are triangles, the root
/// is the bounding triangle, visibility is the in-circle test, and sinks are
/// the alive triangles.
impl TraceDag for TriMesh {
    type Element = u32;

    fn root(&self) -> usize {
        0
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        self.triangles[v]
            .children
            .iter()
            .map(|&c| c as usize)
            .collect()
    }

    fn predecessors(&self, v: usize) -> Vec<usize> {
        self.triangles[v]
            .parents
            .iter()
            .filter(|&&p| p != NO_TRI)
            .map(|&p| p as usize)
            .collect()
    }

    fn successors_into(&self, v: usize, out: &mut Vec<usize>) {
        out.extend(self.triangles[v].children.iter().map(|&c| c as usize));
    }

    fn predecessors_into(&self, v: usize, out: &mut Vec<usize>) {
        out.extend(
            self.triangles[v]
                .parents
                .iter()
                .filter(|&&p| p != NO_TRI)
                .map(|&p| p as usize),
        );
    }

    fn visible(&self, x: &u32, v: usize) -> bool {
        let tri = &self.triangles[v];
        let q = self.points[*x as usize];
        in_circle_filtered(
            self.points[tri.v[0] as usize],
            self.points[tri.v[1] as usize],
            self.points[tri.v[2] as usize],
            q.x,
            q.y,
        )
    }

    fn is_sink(&self, v: usize) -> bool {
        // Alive triangles are the leaves of the history DAG.
        self.triangles[v].alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points() -> Vec<GridPoint> {
        vec![
            GridPoint::new(0, 0),
            GridPoint::new(100, 10),
            GridPoint::new(90, 110),
            GridPoint::new(-10, 95),
        ]
    }

    #[test]
    fn ghost_corners_of_inputs_within_site_limit_stay_on_the_grid() {
        use pwe_geom::point::GRID_LIMIT;
        let l = SITE_LIMIT;
        for input in [
            vec![GridPoint::new(-l, -l), GridPoint::new(l, l)],
            vec![GridPoint::new(l, l)],
            vec![GridPoint::new(-l, l)],
            vec![GridPoint::new(l, -l)],
        ] {
            let mesh = TriMesh::new(&input);
            for g in &mesh.points[..3] {
                assert!(g.x.abs() <= GRID_LIMIT && g.y.abs() <= GRID_LIMIT, "{g:?}");
            }
        }
    }

    #[test]
    fn new_mesh_has_one_alive_bounding_triangle() {
        let mesh = TriMesh::new(&square_points());
        assert_eq!(mesh.alive_count(), 1);
        assert_eq!(mesh.num_input_points(), 4);
        assert_eq!(mesh.history_size(), 1);
        assert!(mesh.real_triangles().is_empty());
        // Every input point is inside the bounding triangle's circumcircle.
        for p in 3..mesh.points.len() as u32 {
            assert!(mesh.encroaches(p, 0));
        }
    }

    #[test]
    fn create_and_kill_maintain_adjacency() {
        let mut mesh = TriMesh::new(&square_points());
        // Insert the first input point (index 3) into the bounding triangle
        // manually: replace triangle 0 by three triangles around point 3.
        let root = mesh.triangle(0).v;
        mesh.kill_triangle(0);
        let mut created = Vec::new();
        for i in 0..3 {
            let (a, b) = (root[i], root[(i + 1) % 3]);
            created.push(mesh.create_triangle(a, b, 3, [0, NO_TRI]));
        }
        assert_eq!(mesh.alive_count(), 3);
        // Each new triangle is adjacent to the other two across the edges
        // incident to point 3.
        for &t in &created {
            let tri = mesh.triangle(t).clone();
            let mut neighbor_hits = 0;
            for e in tri.edges() {
                if let Some(n) = mesh.neighbor_across(t, e) {
                    assert_ne!(n, t);
                    neighbor_hits += 1;
                }
            }
            assert_eq!(neighbor_hits, 2, "interior edges must have neighbours");
        }
        // The tracing structure records the parent-child links.
        assert_eq!(mesh.triangle(0).children.len(), 3);
        for &t in &created {
            assert_eq!(mesh.triangle(t).parents[0], 0);
        }
    }

    #[test]
    fn locate_conflicts_on_history() {
        let mut mesh = TriMesh::new(&square_points());
        let root = mesh.triangle(0).v;
        mesh.kill_triangle(0);
        for i in 0..3 {
            let (a, b) = (root[i], root[(i + 1) % 3]);
            mesh.create_triangle(a, b, 3, [0, NO_TRI]);
        }
        // Point 4 must conflict with at least one alive triangle, found by
        // tracing from the (dead) root.
        let (conflicts, path) = mesh.locate_conflicts(4);
        assert!(!conflicts.is_empty());
        assert!(path >= 2);
        for &t in &conflicts {
            assert!(mesh.triangle(t).alive);
            assert!(mesh.encroaches(4, t));
        }
    }

    #[test]
    fn reserve_and_commit_matches_create_triangle() {
        let mut mesh = TriMesh::new(&square_points());
        let root = mesh.triangle(0).v;
        mesh.kill_triangle(0);
        // Reserve: the next three ids are known before any mutation.
        let base = mesh.next_triangle_id();
        assert_eq!(base, 1);
        // Construct (read-only): orientation and encroachment against
        // uncommitted triangles.
        let fans: Vec<[u32; 3]> = (0..3)
            .map(|i| mesh.orient_ccw(root[i], root[(i + 1) % 3], 3))
            .collect();
        for (i, &v) in fans.iter().enumerate() {
            assert_eq!(
                mesh.encroaches_tri(4, v),
                {
                    // committed and uncommitted tests must agree
                    let mut probe = mesh.clone();
                    let t = probe.install_oriented(v, [0, NO_TRI]);
                    probe.encroaches(4, t)
                },
                "fan {i}"
            );
        }
        // Commit in id order: ids equal the reserved range.
        for (i, &v) in fans.iter().enumerate() {
            let id = mesh.install_oriented(v, [0, NO_TRI]);
            assert_eq!(id, base + i as u32);
        }
        assert_eq!(mesh.alive_count(), 3);
        assert_eq!(mesh.triangle(0).children.len(), 3);
    }

    #[test]
    fn norm_edge_is_symmetric() {
        assert_eq!(norm_edge(5, 2), (2, 5));
        assert_eq!(norm_edge(2, 5), (2, 5));
        assert_eq!(norm_edge(7, 7), (7, 7));
    }
}

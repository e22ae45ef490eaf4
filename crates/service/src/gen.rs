//! pwe-lint: deny-untracked-alloc
//!
//! Generation building — the writer-side path of the service.
//!
//! A *generation* is an immutable bundle of structures built from one
//! consistent state of the authoritative element sets: per shard an
//! interval tree, a 2D range tree, a priority search tree and a k-d tree,
//! plus one replicated Delaunay mesh shared by all shards (see
//! [`crate::router`] for why the mesh does not partition).  Every build
//! goes through the existing deterministic engines — the allocation-lean
//! augmented-tree engine ([`pwe_augtree::engine`]), the p-batched k-d
//! construction and the reserve-and-commit Delaunay engine — so a
//! generation is a pure function of the element sequence: bit-identical
//! across thread counts, processes and replicas (MODEL.md §6).
//!
//! The module is `pwe-lint` L1 opted-in: generation builds are the
//! service's large-memory traffic, and every allocation site below carries
//! its accounting comment.  Per-task *scratch* inside the engines is
//! charged to their own ledgers (MODEL.md §2); the generation arenas
//! themselves are large-memory by definition.

use std::sync::Arc;

use pwe_asym::smallmem::TaskScratch;
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_delaunay::mesh::TriMesh;
use pwe_delaunay::write_efficient::triangulate_write_efficient;
use pwe_geom::bbox::{BBoxK, Rect};
use pwe_geom::in_circle;
use pwe_geom::interval::Interval;
use pwe_geom::point::{GridPoint, Point2};
use pwe_geom::predicates::orient2d_det;
use pwe_kdtree::build::{build_p_batched, recommended_p};
use pwe_kdtree::tree::KdTree;
use pwe_primitives::faultpoint::InjectedFault;
use pwe_primitives::permute::random_permutation;
use pwe_trace::dag::TraceDag;

use crate::api::{NearestHit, GHOST_SITE};

/// α used for every service-built augmented tree (the committed sweeps'
/// write-efficient operating point).
pub const SERVICE_ALPHA: usize = 8;

/// Leaf capacity of service-built k-d trees.
pub const KD_LEAF_CAPACITY: usize = 8;

/// Fixed seed of the k-d tree's random insertion order.  Fixed — not
/// per-process — so replicas and replays are bit-identical.
const KD_SEED: u64 = 0x5EED_001D;

/// Fixed seed of the Delaunay engine's random insertion order (same
/// rationale as [`KD_SEED`]; [`MeshGen::build`] derives its site-id map
/// from the identical permutation).
const MESH_SEED: u64 = 0x5EED_00DE;

/// Construct the canonical stored-point record (allocation-free; the
/// writer path in [`crate::service`] uses it when applying
/// [`crate::api::Update::InsertPoint`]).
#[inline]
pub fn rt_point(x: f64, y: f64, id: u64) -> RtPoint {
    RtPoint {
        point: Point2::xy(x, y),
        id,
    }
}

/// View a stored point as its priority-search-tree record
/// (allocation-free per element).
#[inline]
fn ps_point(p: &RtPoint) -> PsPoint {
    PsPoint {
        point: p.point,
        id: p.id,
    }
}

/// The authoritative (writer-owned) element sets of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardData {
    /// Intervals owned by this shard, in insertion order.
    pub intervals: Vec<Interval>,
    /// 2D points owned by this shard, in insertion order.
    pub points: Vec<RtPoint>,
}

/// One shard's built structures for one generation.  Immutable once built.
pub struct ShardGen {
    interval: IntervalTree,
    range: RangeTree2D,
    pst: PrioritySearchTree,
    kd: KdTree<2>,
    /// External id of the k-d tree point at each tree index (the p-batched
    /// build permutes its input; this is the inverse map).
    kd_ids: Vec<u64>,
}

impl ShardGen {
    /// Build every structure of one shard from its element sets, through
    /// the parallel write-efficient engines.  Panics on an injected fault:
    /// use [`try_build`](Self::try_build) inside a containment layer.
    pub fn build(data: &ShardData) -> ShardGen {
        match Self::try_build(data, 0) {
            Ok(g) => g,
            Err(f) => panic!("ShardGen::build outside a containment layer: {f}"),
        }
    }

    /// Fallible twin of [`build`](Self::build): passes the named fault
    /// sites `service.rebuild.{interval,range,pst,kd}` between structure
    /// builds.  `fault_key` is the caller's stable task key (the shard
    /// index): rebuilds of different shards run concurrently, and keying
    /// each shard's hit stream by its index is what keeps an armed
    /// schedule thread-count-independent (see
    /// [`pwe_primitives::faultpoint`]).  With `faultinject` off the sites
    /// vanish and this is exactly `build`.
    pub fn try_build(data: &ShardData, fault_key: u64) -> Result<ShardGen, InjectedFault> {
        pwe_primitives::fault_point!("service.rebuild.interval", fault_key);
        let interval = IntervalTree::build_parallel(&data.intervals, SERVICE_ALPHA);
        pwe_primitives::fault_point!("service.rebuild.range", fault_key);
        let range = RangeTree2D::build(&data.points, SERVICE_ALPHA);
        // alloc: large-mem — the PST's input copy in PsPoint form (n words)
        let ps: Vec<PsPoint> = data.points.iter().map(ps_point).collect();
        pwe_primitives::fault_point!("service.rebuild.pst", fault_key);
        let pst = PrioritySearchTree::build_parallel(&ps);
        // alloc: large-mem — the k-d build's input copy (n points)
        let pts: Vec<Point2> = data.points.iter().map(|p| p.point).collect();
        let n = pts.len();
        pwe_primitives::fault_point!("service.rebuild.kd", fault_key);
        let (kd, _stats) = build_p_batched(&pts, recommended_p(n), KD_LEAF_CAPACITY, KD_SEED);
        let perm = random_permutation(n, KD_SEED);
        // alloc: large-mem — the tree-index → external-id map (n words)
        let kd_ids: Vec<u64> = perm.iter().map(|&i| data.points[i].id).collect();
        Ok(ShardGen {
            interval,
            range,
            pst,
            kd,
            kd_ids,
        })
    }

    /// Ids of the intervals containing `x` (shard-local, unsorted).
    pub fn stab(&self, x: f64) -> Vec<u64> {
        // alloc: large-mem — the answer (output writes, charged by the reporter)
        let mut ids = Vec::new();
        self.interval
            .stab_into(x, &mut TaskScratch::untracked(), &mut ids);
        ids
    }

    /// Ids of the points inside `rect` (shard-local, unsorted).
    pub fn range2d(&self, rect: &Rect) -> Vec<u64> {
        // alloc: large-mem — the answer (output writes, charged by the reporter)
        let mut ids = Vec::new();
        self.range
            .query_into(rect, &mut TaskScratch::untracked(), &mut ids);
        ids
    }

    /// Ids of the points with `x ∈ [x_lo, x_hi]`, `y ≥ y_bot` (shard-local,
    /// unsorted).
    pub fn three_sided(&self, x_lo: f64, x_hi: f64, y_bot: f64) -> Vec<u64> {
        // alloc: large-mem — the answer (output writes, charged by the reporter)
        let mut ids = Vec::new();
        self.pst
            .query_3sided_into(x_lo, x_hi, y_bot, &mut TaskScratch::untracked(), &mut ids);
        ids
    }

    /// The shard-local canonical nearest neighbour of `(x, y)`: smallest
    /// external id among the shard's points at the minimum squared
    /// distance.  The k-d descent alone returns *a* closest point whose
    /// identity depends on traversal order under ties; the follow-up range
    /// probe over the closed distance ball canonicalizes, which is what
    /// lets per-shard answers merge into the same winner an unsharded
    /// instance picks.  A non-finite coordinate has no nearest point:
    /// `None`.
    pub fn nearest(&self, x: f64, y: f64) -> Option<NearestHit> {
        if !(x.is_finite() && y.is_finite()) {
            return None;
        }
        let q = Point2::xy(x, y);
        let (idx, _) = self.kd.nearest_impl(&q, 0.0)?;
        let d2 = self.kd.points()[idx as usize].dist2(&q);
        // Inflate the probe radius a hair past √d2: the candidate filter
        // below is exact (bit-equal d2), the box only has to be a superset.
        let r = if d2 == 0.0 {
            0.0
        } else {
            (d2.sqrt() * (1.0 + 1e-9)).next_up()
        };
        let ball = BBoxK::new([x - r, y - r], [x + r, y + r]);
        let mut best: Option<u64> = None;
        for cand in self.kd.range_query(&ball) {
            if self.kd.points()[cand as usize].dist2(&q) == d2 {
                let id = self.kd_ids[cand as usize];
                best = Some(best.map_or(id, |b| b.min(id)));
            }
        }
        // The descent's winner is itself in the ball, so `best` is Some.
        best.map(|id| NearestHit { dist2: d2, id })
    }

    /// Number of points in the shard's point structures.
    pub fn point_count(&self) -> usize {
        self.kd.len()
    }

    /// Layout fingerprint of the shard's structures (replay-equality
    /// checks; not a paper-level quantity).
    pub fn digest(&self) -> u64 {
        let mut d = fnv_fold(FNV_OFFSET, self.interval.layout_digest());
        d = fnv_fold(d, self.range.layout_digest());
        d = fnv_fold(d, self.pst.layout_digest());
        d = fnv_fold(d, self.kd.len() as u64);
        d = fnv_fold(d, self.kd.node_count() as u64);
        d = fnv_fold(d, self.kd.height() as u64);
        for &id in &self.kd_ids {
            d = fnv_fold(d, id);
        }
        d
    }
}

/// The replicated Delaunay generation: the mesh plus the map from mesh
/// vertex index to external site id.
pub struct MeshGen {
    mesh: TriMesh,
    /// `site_ids[i]` is the external id of mesh vertex `i`
    /// ([`GHOST_SITE`] for the three bounding-triangle vertices).
    site_ids: Vec<u64>,
}

impl MeshGen {
    /// Triangulate `sites` with the write-efficient engine.  `site_ids`
    /// gives each site's external id; the engine's fixed-seed random
    /// insertion order is reproduced here to key the answer map.  Panics
    /// on an injected fault: use [`try_build`](Self::try_build) inside a
    /// containment layer.
    pub fn build(sites: &[GridPoint], site_ids: &[u64]) -> MeshGen {
        match Self::try_build(sites, site_ids) {
            Ok(g) => g,
            Err(f) => panic!("MeshGen::build outside a containment layer: {f}"),
        }
    }

    /// Fallible twin of [`build`](Self::build): passes the named fault
    /// site `service.rebuild.mesh` (key 0 — the replicated mesh rebuilds
    /// sequentially in the single writer, so its hit stream is already
    /// schedule-independent).
    pub fn try_build(sites: &[GridPoint], site_ids: &[u64]) -> Result<MeshGen, InjectedFault> {
        debug_assert_eq!(sites.len(), site_ids.len());
        pwe_primitives::fault_point!("service.rebuild.mesh");
        let mesh = triangulate_write_efficient(sites, MESH_SEED);
        let perm = random_permutation(sites.len(), MESH_SEED);
        // alloc: large-mem — the mesh-vertex → site-id map (n + 3 words)
        let mut ids: Vec<u64> = Vec::with_capacity(sites.len() + 3);
        ids.extend_from_slice(&[GHOST_SITE; 3]);
        ids.extend(perm.iter().map(|&i| site_ids[i]));
        debug_assert_eq!(ids.len(), mesh.points.len());
        Ok(MeshGen {
            mesh,
            site_ids: ids,
        })
    }

    /// Locate the alive triangle containing `q` by tracing the history DAG
    /// (the engine's own read-only location mechanism).  Returns the
    /// sorted site-id triple of the smallest such triangle — "smallest"
    /// makes the answer canonical when `q` lies exactly on a shared edge —
    /// or `None` when no alive triangle strictly conflicts with `q`
    /// (outside the bounding triangle, or coincident with a site: a site
    /// lies *on* its incident circumcircles, not inside them).
    pub fn locate(&self, q: GridPoint) -> Option<[u64; 3]> {
        let dag = LocateDag { mesh: &self.mesh };
        let (sinks, _stats) = pwe_trace::dag::trace(&dag, &q);
        let mut best: Option<[u64; 3]> = None;
        for s in sinks {
            let tri = self.mesh.triangle(s as u32);
            if !tri.alive || !self.triangle_contains(tri.v, q) {
                continue;
            }
            let mut ids = [
                self.site_ids[tri.v[0] as usize],
                self.site_ids[tri.v[1] as usize],
                self.site_ids[tri.v[2] as usize],
            ];
            ids.sort_unstable();
            best = Some(match best {
                Some(b) if b <= ids => b,
                _ => ids,
            });
        }
        best
    }

    /// Whether the (CCW) triangle with vertex indices `v` contains `q`,
    /// boundary inclusive.
    fn triangle_contains(&self, v: [u32; 3], q: GridPoint) -> bool {
        let a = self.mesh.points[v[0] as usize];
        let b = self.mesh.points[v[1] as usize];
        let c = self.mesh.points[v[2] as usize];
        orient2d_det(a, b, q) >= 0 && orient2d_det(b, c, q) >= 0 && orient2d_det(c, a, q) >= 0
    }

    /// Fingerprint of the alive triangulation in external site ids.
    pub fn digest(&self) -> u64 {
        let mut d = fnv_fold(FNV_OFFSET, self.mesh.alive_count() as u64);
        for t in self.mesh.real_triangles() {
            let mut ids = [
                self.site_ids[t[0] as usize],
                self.site_ids[t[1] as usize],
                self.site_ids[t[2] as usize],
            ];
            ids.sort_unstable();
            for id in ids {
                d = fnv_fold(d, id);
            }
        }
        d
    }
}

/// History-DAG adapter locating an *arbitrary* grid point (the mesh's own
/// [`TraceDag`] impl locates mesh vertices by index).  Visibility is the
/// same strict in-circle conflict predicate the engine traces with, so the
/// traceable property of §5 applies unchanged: every alive triangle whose
/// circumcircle contains `q` is reachable through visible ancestors.
struct LocateDag<'a> {
    mesh: &'a TriMesh,
}

impl TraceDag for LocateDag<'_> {
    type Element = GridPoint;

    fn root(&self) -> usize {
        0
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        TraceDag::successors(self.mesh, v)
    }

    fn predecessors(&self, v: usize) -> Vec<usize> {
        TraceDag::predecessors(self.mesh, v)
    }

    fn successors_into(&self, v: usize, out: &mut Vec<usize>) {
        TraceDag::successors_into(self.mesh, v, out);
    }

    fn predecessors_into(&self, v: usize, out: &mut Vec<usize>) {
        TraceDag::predecessors_into(self.mesh, v, out);
    }

    fn visible(&self, q: &GridPoint, v: usize) -> bool {
        let tri = self.mesh.triangle(v as u32);
        in_circle(
            self.mesh.points[tri.v[0] as usize],
            self.mesh.points[tri.v[1] as usize],
            self.mesh.points[tri.v[2] as usize],
            *q,
        )
    }

    fn is_sink(&self, v: usize) -> bool {
        TraceDag::is_sink(self.mesh, v)
    }
}

/// Freshness of one entry (a shard bundle, or the mesh) of a published
/// generation — the staleness contract of the containment layer
/// (MODEL.md §6, "Failure semantics").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// True when the entry is a quarantined structure's *last-good*
    /// snapshot: its content lags the generation's update prefix.
    pub stale: bool,
    /// The previously-published generation whose update prefix the
    /// entry's content equals.  Equals the enclosing generation's
    /// `gen_id` exactly when `!stale`.
    pub data_gen: u64,
}

impl ShardStatus {
    /// A fresh entry of generation `gen_id`.
    pub fn fresh(gen_id: u64) -> ShardStatus {
        ShardStatus {
            stale: false,
            data_gen: gen_id,
        }
    }
}

/// One published generation of the whole service: per-shard structure
/// bundles plus the replicated mesh.  Shards untouched by an update batch
/// are shared (`Arc`) with the previous generation, so a small batch
/// rebuilds only what it dirtied.  When a rebuild fails (injected fault,
/// engine panic) the writer still publishes — the failed entry keeps its
/// last-good snapshot and its [`ShardStatus`] marks it stale.
pub struct ServiceGen {
    /// Generation number (0 is the empty initial generation).
    pub gen_id: u64,
    /// Per-shard structure bundles.
    pub shards: Vec<Arc<ShardGen>>,
    /// Freshness of each entry of `shards` (always all-fresh outside an
    /// armed fault plan).
    pub status: Vec<ShardStatus>,
    /// The replicated Delaunay generation.
    pub mesh: Arc<MeshGen>,
    /// Freshness of `mesh`.
    pub mesh_status: ShardStatus,
}

impl ServiceGen {
    /// Combined fingerprint of every shard and the mesh (replay-equality
    /// checks).
    pub fn digest(&self) -> u64 {
        let mut d = fnv_fold(FNV_OFFSET, self.gen_id);
        for s in &self.shards {
            d = fnv_fold(d, s.digest());
        }
        fnv_fold(d, self.mesh.digest())
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One FNV-1a-style folding step over a word.
#[inline]
fn fnv_fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_shard_builds_and_answers() {
        let g = ShardGen::build(&ShardData::default());
        assert!(g.stab(0.5).is_empty());
        assert!(g.range2d(&Rect::new(0.0, 1.0, 0.0, 1.0)).is_empty());
        assert!(g.three_sided(0.0, 1.0, 0.0).is_empty());
        assert_eq!(g.nearest(0.0, 0.0), None);
        assert_eq!(g.point_count(), 0);
    }

    #[test]
    fn empty_mesh_locates_inside_bounding_triangle() {
        let g = MeshGen::build(&[], &[]);
        // The only alive triangle is the ghost bounding triangle; a point
        // near the (empty) input bounding box is inside it.
        assert_eq!(
            g.locate(GridPoint::new(0, 0)),
            Some([GHOST_SITE, GHOST_SITE, GHOST_SITE])
        );
    }

    #[test]
    fn nearest_breaks_ties_by_smallest_id() {
        // Two coincident points with different ids: the canonical hit is
        // the smaller id regardless of k-d traversal order.
        let data = ShardData {
            intervals: Vec::new(),
            points: vec![
                RtPoint {
                    point: Point2::xy(1.0, 1.0),
                    id: 7,
                },
                RtPoint {
                    point: Point2::xy(1.0, 1.0),
                    id: 3,
                },
                RtPoint {
                    point: Point2::xy(5.0, 5.0),
                    id: 1,
                },
            ],
        };
        let g = ShardGen::build(&data);
        let hit = g.nearest(0.0, 0.0).unwrap();
        assert_eq!(hit.id, 3);
        assert_eq!(hit.dist2, 2.0);
        // A non-finite query has no nearest point (its distance-ball probe
        // would be an inverted box).
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(g.nearest(v, 0.0), None, "x = {v}");
            assert_eq!(g.nearest(0.0, v), None, "y = {v}");
        }
    }

    #[test]
    fn locate_maps_mesh_vertices_back_to_site_ids() {
        // A deliberately lopsided id set (not 0..n) so a wrong permutation
        // mapping cannot silently produce the right answer.
        let sites = vec![
            GridPoint::new(0, 0),
            GridPoint::new(100, 0),
            GridPoint::new(50, 90),
            GridPoint::new(50, -90),
        ];
        let ids = [40u64, 41, 42, 43];
        let g = MeshGen::build(&sites, &ids);
        // A query deep inside the upper triangle: every reported site id
        // must be real, and the id → coordinate roundtrip must name a
        // triangle that actually contains the query.
        let q = GridPoint::new(50, 30);
        let tri = g.locate(q).expect("query is inside the hull");
        for id in tri {
            assert!(ids.contains(&id), "unknown site id {id} in {tri:?}");
        }
        let coords: Vec<GridPoint> = tri.iter().map(|id| sites[(id - 40) as usize]).collect();
        let ccw = if pwe_geom::predicates::is_ccw(coords[0], coords[1], coords[2]) {
            [coords[0], coords[1], coords[2]]
        } else {
            [coords[0], coords[2], coords[1]]
        };
        assert!(
            orient2d_det(ccw[0], ccw[1], q) >= 0
                && orient2d_det(ccw[1], ccw[2], q) >= 0
                && orient2d_det(ccw[2], ccw[0], q) >= 0,
            "reported triangle {tri:?} does not contain the query"
        );
    }
}

//! The answer oracle: a brute-force model of one generation, rebuilt by
//! replaying the benchmark's own update stream, and the checks that hold
//! every served answer against it.
//!
//! The model shares no code with the service's query paths: id-indexed
//! element vectors scanned in id order (so reported ids come out sorted
//! with no sort), and exact integer predicates written here.

use pwe_delaunay::mesh::TriMesh;
use pwe_geom::point::GridPoint;
use pwe_service::api::GHOST_SITE;
use pwe_service::{Answer, Query, Update, UpdateBatch};

/// What the timed loop keeps of one answer: a digest of an id list (a
/// 3-sided answer holds ~12k ids), or the whole answer when it is small.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Summary {
    /// Stab / range / 3-sided: id count and the fold of the sorted ids.
    Ids { len: u32, digest: u64 },
    /// Nearest: the bits of `dist2` and the id.
    Nearest(Option<(u64, u64)>),
    /// Locate: the sorted site-id triple.
    Located(Option<[u64; 3]>),
}

const FOLD_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One FNV-1a-style folding step over a word.
pub fn fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

impl Summary {
    /// Summarize a served answer.
    pub fn of(answer: &Answer) -> Summary {
        match answer {
            Answer::Ids(ids) => Summary::Ids {
                len: ids.len() as u32,
                digest: ids.iter().fold(FOLD_OFFSET, |d, &id| fold(d, id)),
            },
            Answer::Nearest(hit) => Summary::Nearest(hit.map(|h| (h.dist2.to_bits(), h.id))),
            Answer::Located(tri) => Summary::Located(*tri),
        }
    }

    /// A word identifying the summary, for run-level answer digests.
    pub fn word(&self) -> u64 {
        match *self {
            Summary::Ids { len, digest } => fold(digest, u64::from(len)),
            Summary::Nearest(None) | Summary::Located(None) => 0,
            Summary::Nearest(Some((d, id))) => fold(d, id),
            Summary::Located(Some(t)) => fold(fold(t[0], t[1]), t[2]),
        }
    }

    /// Ids reported (answer size: ids, 1 nearest hit, 3 triangle sites).
    pub fn ids(&self) -> u64 {
        match *self {
            Summary::Ids { len, .. } => u64::from(len),
            Summary::Nearest(h) => u64::from(h.is_some()),
            Summary::Located(t) => 3 * u64::from(t.is_some()),
        }
    }
}

/// Brute-force model of the element sets of one generation.
#[derive(Debug, Clone)]
pub struct Model {
    /// Live intervals by id, as `(left, right)`.
    intervals: Slots,
    /// Live points by id, as `(x, y)`.
    points: Slots,
    /// `sites[id]`: site ids are insertion ranks.
    sites: Vec<GridPoint>,
    /// Sorted site coordinates (coincidence checks).
    site_keys: Vec<(i64, i64)>,
    /// The ghost (bounding-triangle) corners the mesh of these sites gets.
    ghosts: [GridPoint; 3],
}

impl Default for Model {
    fn default() -> Model {
        Model {
            intervals: Slots::default(),
            points: Slots::default(),
            sites: Vec::new(),
            site_keys: Vec::new(),
            ghosts: ghost_corners(&[]),
        }
    }
}

/// The three ghost corners `TriMesh::new` places around `sites`.  The
/// service's mesh triangulates the sites together with these corners, so
/// a located triangle is checked against that extended point set.
fn ghost_corners(sites: &[GridPoint]) -> [GridPoint; 3] {
    let p = TriMesh::new(sites).points;
    [p[0], p[1], p[2]]
}

/// Id-indexed coordinate pairs.  A free slot holds NaN, which fails every
/// comparison, so scans need no liveness test.
#[derive(Debug, Clone, Default)]
struct Slots {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Slots {
    fn put(&mut self, id: u64, a: f64, b: f64) {
        assert!(
            a.is_finite() && b.is_finite(),
            "the benchmark inserts finite coordinates"
        );
        let i = id as usize;
        if self.a.len() <= i {
            self.a.resize(i + 1, f64::NAN);
            self.b.resize(i + 1, f64::NAN);
        }
        assert!(self.a[i].is_nan(), "the benchmark never inserts a live id");
        self.a[i] = a;
        self.b[i] = b;
    }

    fn remove(&mut self, id: u64) {
        if let (Some(a), Some(b)) = (self.a.get_mut(id as usize), self.b.get_mut(id as usize)) {
            *a = f64::NAN;
            *b = f64::NAN;
        }
    }

    /// Visit, in id order, the ids of live slots satisfying `pred`.
    fn scan(&self, pred: impl Fn(f64, f64) -> bool, hit: &mut impl FnMut(usize)) {
        for (id, (&a, &b)) in self.a.iter().zip(&self.b).enumerate() {
            if pred(a, b) {
                hit(id);
            }
        }
    }
}

impl Model {
    /// Apply one update batch; a delete removes every element with the id.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        let mut sites_changed = false;
        for u in &batch.updates {
            match *u {
                Update::InsertInterval(iv) => self.intervals.put(iv.id, iv.left, iv.right),
                Update::DeleteInterval(id) => self.intervals.remove(id),
                Update::InsertPoint { x, y, id } => self.points.put(id, x, y),
                Update::DeletePoint(id) => self.points.remove(id),
                Update::InsertSite(p) => {
                    self.sites.push(p);
                    sites_changed = true;
                }
            }
        }
        if sites_changed {
            self.site_keys = self.sites.iter().map(|p| (p.x, p.y)).collect();
            self.site_keys.sort_unstable();
            self.ghosts = ghost_corners(&self.sites);
        }
    }

    /// Whether `summary` is a correct answer to `q` in this generation.
    pub fn check(&self, q: &Query, summary: &Summary) -> bool {
        match (*q, summary) {
            (Query::Locate { x, y }, Summary::Located(tri)) => {
                self.valid_location(GridPoint::new(x, y), *tri)
            }
            (Query::Nearest { x, y }, Summary::Nearest(hit)) => *hit == self.nearest(x, y),
            (_, Summary::Ids { .. }) => self.ids(q) == Some(*summary),
            _ => false,
        }
    }

    /// The expected id-list summary of a stab / range / 3-sided query.
    fn ids(&self, q: &Query) -> Option<Summary> {
        let mut len = 0u32;
        let mut digest = FOLD_OFFSET;
        let mut hit = |id: usize| {
            len += 1;
            digest = fold(digest, id as u64);
        };
        match *q {
            Query::Stab { x } => self.intervals.scan(|l, r| l <= x && x <= r, &mut hit),
            Query::Range2D { rect } => self.points.scan(
                |px, py| {
                    rect.x_min <= px && px <= rect.x_max && rect.y_min <= py && py <= rect.y_max
                },
                &mut hit,
            ),
            Query::ThreeSided { x_lo, x_hi, y_bot } => self
                .points
                .scan(|px, py| x_lo <= px && px <= x_hi && py >= y_bot, &mut hit),
            _ => return None,
        }
        Some(Summary::Ids { len, digest })
    }

    /// The canonical nearest point: smallest id at the smallest `dist2`.
    fn nearest(&self, x: f64, y: f64) -> Option<(u64, u64)> {
        let (mut best, mut best_id) = (f64::INFINITY, None);
        for (id, (&px, &py)) in self.points.a.iter().zip(&self.points.b).enumerate() {
            let (dx, dy) = (px - x, py - y);
            let d2 = dx * dx + dy * dy;
            // Ids ascend, so a strict `<` keeps the smallest id on ties;
            // a free slot's NaN never compares less.
            if d2 < best {
                (best, best_id) = (d2, Some(id as u64));
            }
        }
        best_id.map(|id| (best.to_bits(), id))
    }

    /// Validity of a located triangle — not equality with a second
    /// triangulation, since cocircular grid sites admit several Delaunay
    /// triangulations.  The triangle must contain `q` (boundary inclusive)
    /// and have no site strictly inside its circumcircle; `None` is valid
    /// only when `q` coincides with a site.
    ///
    /// The mesh is the Delaunay triangulation of the sites *plus* its three
    /// finite ghost corners (see `pwe_delaunay::verify`), so a ghost
    /// triangle is checked like any other, at its ghost corner's real
    /// coordinates.  Such a triangle can cover a point inside the sites'
    /// hull: a long, nearly straight run of hull sites has interior
    /// triangles whose circumcircles reach a ghost corner, and the
    /// extended triangulation replaces them with ghost triangles.
    fn valid_location(&self, q: GridPoint, tri: Option<[u64; 3]>) -> bool {
        let Some(t) = tri else {
            return self.site_keys.binary_search(&(q.x, q.y)).is_ok();
        };
        // Canonical order puts ghosts (`u64::MAX`) last; a repeated real
        // id makes the triangle degenerate below.
        if !(t[0] <= t[1] && t[1] <= t[2]) {
            return false;
        }
        let ghosts = t.iter().filter(|&&id| id == GHOST_SITE).count();
        let Some(real) = t[..3 - ghosts]
            .iter()
            .map(|&id| self.sites.get(id as usize).copied())
            .collect::<Option<Vec<GridPoint>>>()
        else {
            return false;
        };
        // The triple names its ghosts only by count: some choice of
        // distinct corners must give a valid triangle.
        let choices: &[&[usize]] = match ghosts {
            0 => &[&[]],
            1 => &[&[0], &[1], &[2]],
            2 => &[&[0, 1], &[0, 2], &[1, 2]],
            _ => &[&[0, 1, 2]],
        };
        choices.iter().any(|choice| {
            let mut v = real.clone();
            v.extend(choice.iter().map(|&i| self.ghosts[i]));
            self.delaunay_triangle_contains([v[0], v[1], v[2]], q)
        })
    }

    /// Whether the triangle `v` is non-degenerate, contains `q` (boundary
    /// inclusive) and has no site strictly inside its circumcircle.
    fn delaunay_triangle_contains(&self, v: [GridPoint; 3], q: GridPoint) -> bool {
        let (a, mut b, mut c) = (v[0], v[1], v[2]);
        match orient(a, b, c) {
            0 => return false,
            o if o < 0 => std::mem::swap(&mut b, &mut c),
            _ => {}
        }
        orient(a, b, q) >= 0
            && orient(b, c, q) >= 0
            && orient(c, a, q) >= 0
            && self.sites.iter().all(|&s| in_circle(a, b, c, s) <= 0)
    }
}

/// Twice the signed area of `(a, b, c)`: positive when counter-clockwise.
fn orient(a: GridPoint, b: GridPoint, c: GridPoint) -> i128 {
    let (bx, by) = (i128::from(b.x - a.x), i128::from(b.y - a.y));
    let (cx, cy) = (i128::from(c.x - a.x), i128::from(c.y - a.y));
    bx * cy - by * cx
}

/// Positive when `d` is strictly inside the circumcircle of the CCW
/// triangle `(a, b, c)`.
fn in_circle(a: GridPoint, b: GridPoint, c: GridPoint, d: GridPoint) -> i128 {
    let row = |p: GridPoint| {
        let (x, y) = (i128::from(p.x - d.x), i128::from(p.y - d.y));
        (x, y, x * x + y * y)
    };
    let (ax, ay, aw) = row(a);
    let (bx, by, bw) = row(b);
    let (cx, cy, cw) = row(c);
    ax * (by * cw - bw * cy) - ay * (bx * cw - bw * cx) + aw * (bx * cy - by * cx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwe_geom::interval::Interval;

    fn g(x: i64, y: i64) -> GridPoint {
        GridPoint::new(x, y)
    }

    #[test]
    fn locate_validity() {
        let mut m = Model::default();
        let sites = [g(0, 0), g(10, 0), g(0, 10), g(10, 10)];
        m.apply(&UpdateBatch {
            updates: sites.iter().map(|&p| Update::InsertSite(p)).collect(),
        });
        // Either diagonal of the cocircular square is a valid split.
        assert!(m.valid_location(g(2, 2), Some([0, 1, 2])));
        assert!(m.valid_location(g(2, 2), Some([0, 1, 3])));
        assert!(
            !m.valid_location(g(9, 9), Some([0, 1, 2])),
            "outside the triangle"
        );
        assert!(m.valid_location(g(10, 10), None), "coincides with a site");
        assert!(!m.valid_location(g(5, 5), None));
        assert!(m.valid_location(g(20, 2), Some([1, 3, GHOST_SITE])));
        assert!(!m.valid_location(g(5, 5), Some([0, 1, GHOST_SITE])));
        assert!(m.valid_location(g(-5, -5), Some([0, GHOST_SITE, GHOST_SITE])));
        // A site strictly inside the circumcircle invalidates a triangle.
        m.apply(&UpdateBatch {
            updates: vec![Update::InsertSite(g(5, 1))],
        });
        assert!(!m.valid_location(g(1, 1), Some([0, 1, 2])));
    }

    #[test]
    fn ghost_triangle_may_cover_a_point_inside_the_hull() {
        // A thin hull triangle: its circumcircle (radius ~250k) holds the
        // left ghost corner, so the extended mesh splits it with ghost
        // triangles and locates the interior point (1, 0) in one of them.
        let sites = [g(0, -1000), g(0, 1000), g(2, 0)];
        let mut m = Model::default();
        m.apply(&UpdateBatch {
            updates: sites.iter().map(|&p| Update::InsertSite(p)).collect(),
        });
        let mesh = pwe_service::gen::MeshGen::build(&sites, &[0, 1, 2]);
        let served = mesh.locate(g(1, 0));
        assert!(served.is_some_and(|t| t.contains(&GHOST_SITE)));
        assert!(m.valid_location(g(1, 0), served));
        assert!(
            !m.valid_location(g(0, -2000), served),
            "the ghost triangle must contain the query"
        );
    }

    #[test]
    fn id_queries_and_nearest_follow_deletes() {
        let mut m = Model::default();
        m.apply(&UpdateBatch {
            updates: vec![
                Update::InsertInterval(Interval::new(0.0, 2.0, 0)),
                Update::InsertInterval(Interval::new(1.0, 3.0, 1)),
                Update::InsertPoint {
                    x: 1.0,
                    y: 1.0,
                    id: 0,
                },
                Update::InsertPoint {
                    x: -1.0,
                    y: 1.0,
                    id: 1,
                },
                Update::DeleteInterval(0),
            ],
        });
        let stab = Query::Stab { x: 1.5 };
        let want = Summary::of(&Answer::Ids(vec![1]));
        assert!(m.check(&stab, &want));
        assert!(!m.check(&stab, &Summary::of(&Answer::Ids(vec![0, 1]))));
        // Equidistant points: the smaller id wins.
        let near = Query::Nearest { x: 0.0, y: 1.0 };
        assert!(m.check(&near, &Summary::Nearest(Some((1f64.to_bits(), 0)))));
        assert!(!m.check(&near, &Summary::Nearest(Some((1f64.to_bits(), 1)))));
    }
}

//! Boundary-value equivalence suite: the service must answer adversarial
//! floats and grid coordinates exactly as a brute-force model does.
//!
//! Inputs mix signed zeros, subnormals, `±1e308`, NaN and infinite query
//! bounds, inverted rectangles and 3-sided ranges, and `Locate` points far
//! outside the exact-arithmetic grid.  Element counts sit above the
//! engines' sequential build cutoff (2048 per shard), query batches above
//! the parallel-serve cutoff, and answers above the radix-sort cutoff, so
//! the production walks run rather than their small-input shortcuts.
//! Every answer must equal the model's, no `apply` may quarantine a shard,
//! and no `serve` may panic.  CI also runs this suite in release, where
//! integer arithmetic wraps instead of trapping.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pwe_augtree::priority::{three_sided_bruteforce, PsPoint};
use pwe_augtree::range_tree::{range_bruteforce, RtPoint};
use pwe_delaunay::mesh::SITE_LIMIT;
use pwe_geom::bbox::Rect;
use pwe_geom::interval::{stab_bruteforce, Interval};
use pwe_geom::point::{GridPoint, Point2, GRID_LIMIT};
use pwe_service::api::{Answer, NearestHit, Query, QueryBatch, Update, UpdateBatch};
use pwe_service::gen::MeshGen;
use pwe_service::GeometryService;

/// Coordinates the engines must order exactly as IEEE `<=` does.
const EDGE_VALUES: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -0.5,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    1e308,
    -1e308,
    f64::MAX,
    f64::MIN,
];

/// Query bounds: the element values plus the ones `apply` would reject.
const QUERY_EXTRAS: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// `Locate` coordinates beyond the grid, where no site can be.
const OFF_GRID: [i64; 6] = [
    GRID_LIMIT + 1,
    -GRID_LIMIT - 1,
    1 << 30,
    -(1 << 30),
    i64::MAX,
    i64::MIN,
];

/// Sequential model of the service's element sets.
#[derive(Default)]
struct Model {
    intervals: Vec<Interval>,
    points: Vec<RtPoint>,
    sites: Vec<GridPoint>,
    mesh: Option<MeshGen>,
}

impl Model {
    /// Apply a batch with the service's acceptance rules: finite values,
    /// `left <= right`, ids unique per family, sites on the site grid and
    /// distinct.
    fn apply(&mut self, batch: &UpdateBatch) {
        for u in &batch.updates {
            match *u {
                Update::InsertInterval(iv) => {
                    if iv.left.is_finite()
                        && iv.right.is_finite()
                        && iv.left <= iv.right
                        && self.intervals.iter().all(|live| live.id != iv.id)
                    {
                        self.intervals.push(iv);
                    }
                }
                Update::DeleteInterval(id) => self.intervals.retain(|iv| iv.id != id),
                Update::InsertPoint { x, y, id } => {
                    if x.is_finite() && y.is_finite() && self.points.iter().all(|p| p.id != id) {
                        self.points.push(RtPoint {
                            point: Point2::xy(x, y),
                            id,
                        });
                    }
                }
                Update::DeletePoint(id) => self.points.retain(|p| p.id != id),
                Update::InsertSite(p) => {
                    let on_grid = |c: i64| (-SITE_LIMIT..=SITE_LIMIT).contains(&c);
                    if on_grid(p.x) && on_grid(p.y) && !self.sites.contains(&p) {
                        self.sites.push(p);
                    }
                }
            }
        }
        let ids: Vec<u64> = (0..self.sites.len() as u64).collect();
        self.mesh = Some(MeshGen::build(&self.sites, &ids));
    }

    fn expect(&self, q: &Query) -> Answer {
        match *q {
            Query::Stab { x } => Answer::Ids(stab_bruteforce(&self.intervals, x)),
            Query::Range2D { rect } => Answer::Ids(range_bruteforce(&self.points, &rect)),
            Query::ThreeSided { x_lo, x_hi, y_bot } => {
                let ps: Vec<PsPoint> = self
                    .points
                    .iter()
                    .map(|p| PsPoint {
                        point: p.point,
                        id: p.id,
                    })
                    .collect();
                Answer::Ids(three_sided_bruteforce(&ps, x_lo, x_hi, y_bot))
            }
            Query::Nearest { x, y } => {
                if !(x.is_finite() && y.is_finite()) {
                    return Answer::Nearest(None);
                }
                let q = Point2::xy(x, y);
                let best = self
                    .points
                    .iter()
                    .map(|p| (p.point.dist2(&q), p.id))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                Answer::Nearest(best.map(|(dist2, id)| NearestHit { dist2, id }))
            }
            Query::Locate { x, y } => {
                let on_grid = |c: i64| (-GRID_LIMIT..=GRID_LIMIT).contains(&c);
                if !(on_grid(x) && on_grid(y)) {
                    return Answer::Located(None);
                }
                let mesh = self.mesh.as_ref().expect("model applied at least once");
                Answer::Located(mesh.locate(GridPoint { x, y }))
            }
        }
    }
}

/// An element coordinate: an edge value half the time, otherwise a small
/// half-integer, so ties and duplicates are common.
fn coord(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0..2u32) == 0 {
        EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
    } else {
        f64::from(rng.gen_range(-16i32..=16)) / 2.0
    }
}

/// A query bound: an element coordinate, or now and then NaN or `±inf`.
fn bound(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0..8u32) == 0 {
        QUERY_EXTRAS[rng.gen_range(0..QUERY_EXTRAS.len())]
    } else {
        coord(rng)
    }
}

/// A `Locate` coordinate: mostly on the site grid, sometimes far off it.
fn grid_coord(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..4u32) {
        0 => OFF_GRID[rng.gen_range(0..OFF_GRID.len())],
        1 => [0, SITE_LIMIT, -SITE_LIMIT, GRID_LIMIT, -GRID_LIMIT][rng.gen_range(0..5usize)],
        _ => rng.gen_range(-64i64..=64),
    }
}

/// `n` interval and `n` point inserts (a few malformed ones included,
/// which `apply` rejects) plus a handful of sites.
fn load_batch(rng: &mut StdRng, n: u64) -> UpdateBatch {
    let mut updates = Vec::new();
    for id in 0..n {
        let (a, b) = (coord(rng), coord(rng));
        // One in 64 intervals is inverted and one in 64 points has a NaN
        // coordinate: rejected at the boundary, never built.
        let (left, right) = if id % 64 == 5 {
            (a.max(b), a.min(b))
        } else {
            (a.min(b), a.max(b))
        };
        updates.push(Update::InsertInterval(Interval { left, right, id }));
        let x = if id % 64 == 9 { f64::NAN } else { coord(rng) };
        updates.push(Update::InsertPoint {
            x,
            y: coord(rng),
            id,
        });
    }
    for _ in 0..24 {
        let c = |rng: &mut StdRng| rng.gen_range(-64i64..=64) * (SITE_LIMIT / 64);
        let p = GridPoint {
            x: c(rng),
            y: c(rng),
        };
        updates.push(Update::InsertSite(p));
    }
    UpdateBatch { updates }
}

/// Delete a random tenth of each family and reinsert it with new values.
fn churn_batch(rng: &mut StdRng, n: u64) -> UpdateBatch {
    let mut updates = Vec::new();
    for _ in 0..n / 10 {
        let id = rng.gen_range(0..n);
        let (a, b) = (coord(rng), coord(rng));
        updates.push(Update::DeleteInterval(id));
        updates.push(Update::InsertInterval(Interval::new(
            a.min(b),
            a.max(b),
            id,
        )));
        updates.push(Update::DeletePoint(id));
        updates.push(Update::InsertPoint {
            x: coord(rng),
            y: coord(rng),
            id,
        });
    }
    UpdateBatch { updates }
}

/// A batch of `len` queries cycling through the five kinds.  Rectangles
/// and 3-sided ranges take their bounds in draw order, so about half are
/// inverted.
fn query_batch(rng: &mut StdRng, len: usize) -> QueryBatch {
    let queries = (0..len)
        .map(|i| match i % 5 {
            0 => Query::Stab { x: bound(rng) },
            1 => Query::Range2D {
                rect: Rect {
                    x_min: bound(rng),
                    x_max: bound(rng),
                    y_min: bound(rng),
                    y_max: bound(rng),
                },
            },
            2 => Query::ThreeSided {
                x_lo: bound(rng),
                x_hi: bound(rng),
                y_bot: bound(rng),
            },
            3 => Query::Nearest {
                x: bound(rng),
                y: bound(rng),
            },
            _ => Query::Locate {
                x: grid_coord(rng),
                y: grid_coord(rng),
            },
        })
        .collect();
    QueryBatch { queries }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_adversarial_inputs_match_the_model(seed in 0u64..1 << 32, shards in 1usize..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Above 2048 elements per shard at two shards.
        let n = 4800 + rng.gen_range(0..400u64);
        let svc = GeometryService::new(shards);
        let mut model = Model::default();
        for batch in [load_batch(&mut rng, n), churn_batch(&mut rng, n)] {
            let report = svc.apply(&batch);
            prop_assert!(report.quarantined.is_empty(), "apply quarantined {:?}", report.quarantined);
            model.apply(&batch);
            for _ in 0..3 {
                let qb = query_batch(&mut rng, 40);
                let ab = svc.serve(&qb);
                prop_assert!(!ab.degraded);
                for (q, got) in qb.queries.iter().zip(&ab.answers) {
                    let want = model.expect(q);
                    prop_assert!(*got == want, "query {:?}: got {:?}, want {:?}", q, got, want);
                }
            }
        }
    }
}

/// Under IEEE `<=`, `-0.0` and `0.0` are the same point: both stabs must
/// report all six intervals, whichever zero each endpoint carries.
#[test]
fn signed_zero_stab_reports_every_interval() {
    let svc = GeometryService::new(3);
    let ends = [
        (0.0, 3.0),
        (-0.0, 0.0),
        (-1.0, -0.0),
        (-1.0, 0.0),
        (0.0, 0.0),
        (-2.0, 2.0),
    ];
    svc.apply(&UpdateBatch {
        updates: ends
            .iter()
            .zip(0u64..)
            .map(|(&(left, right), id)| Update::InsertInterval(Interval::new(left, right, id)))
            .collect(),
    });
    let ab = svc.serve(&QueryBatch {
        queries: vec![Query::Stab { x: 0.0 }, Query::Stab { x: -0.0 }],
    });
    let all = Answer::Ids((0..6).collect());
    assert_eq!(ab.answers, vec![all.clone(), all]);
}

/// A `Locate` outside `±GRID_LIMIT` is outside every bounding triangle:
/// it answers `None` instead of building an off-grid `GridPoint`.
#[test]
fn off_grid_locate_answers_none() {
    let svc = GeometryService::new(2);
    svc.apply(&UpdateBatch {
        updates: [
            (0, 0),
            (SITE_LIMIT, 0),
            (0, SITE_LIMIT),
            (-SITE_LIMIT, -SITE_LIMIT),
        ]
        .map(|(x, y)| Update::InsertSite(GridPoint::new(x, y)))
        .to_vec(),
    });
    let far = [
        (1 << 30, 0),
        (0, 1 << 30),
        (i64::MIN, 0),
        (0, i64::MIN),
        (i64::MAX, i64::MIN),
    ];
    let ab = svc.serve(&QueryBatch {
        queries: far.map(|(x, y)| Query::Locate { x, y }).to_vec(),
    });
    assert_eq!(ab.answers, vec![Answer::Located(None); far.len()]);
}

/// Pins the nearest answer when every squared distance overflows: the
/// hit reports `dist2 = inf` and the smallest id among the points.
#[test]
fn nearest_at_overflowing_distance_is_inf_with_smallest_id() {
    let svc = GeometryService::new(2);
    svc.apply(&UpdateBatch {
        updates: [(9, 1e308), (4, -1e308), (6, 1e308)]
            .map(|(id, y)| Update::InsertPoint { x: -1e308, y, id })
            .to_vec(),
    });
    let ab = svc.serve(&QueryBatch {
        queries: vec![Query::Nearest { x: 1e308, y: 0.0 }],
    });
    assert_eq!(
        ab.answers,
        vec![Answer::Nearest(Some(NearestHit {
            dist2: f64::INFINITY,
            id: 4
        }))]
    );
}

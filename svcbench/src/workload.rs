//! The workloads and their seeded inputs.
//!
//! Every input is a pure function of `--seed` (and of `--seconds`, which
//! fixes how many operations a run issues).  Inputs are generated here, with
//! the benchmark's own generator, so a change to the repository's
//! generators cannot change what the benchmark feeds the service.

use pwe_geom::bbox::Rect;
use pwe_geom::interval::Interval;
use pwe_geom::point::GridPoint;
use pwe_service::{Query, QueryBatch, Update, UpdateBatch};

/// Elements preloaded (or ingested) per family: intervals and points.
pub const N: usize = 50_000;
/// Shards the service routes over.
pub const SHARDS: usize = 8;
/// Distinct Delaunay sites (the replicated mesh `locate` reads).
pub const SITES: usize = 2_000;
/// Coordinate half-range of points, sites and queries.
pub const SPAN: i64 = 1 << 12;
/// Queries per read batch; at or above the service's parallel cutoff (8),
/// so a batch fans out over a pool wider than one thread.
pub const QBATCH: usize = 16;
/// Point ids and interval ids deleted and reinserted by one churn batch
/// (so 4 × 4 = 16 updates per batch).
pub const CHURN_IDS: usize = 4;
/// Open-loop arrival rate of the churn writer, in batches per second: an
/// `apply` takes 65–90 ms at one pool thread, so the writer is about 40%
/// busy and its queue stays short.  Every workload applies this many
/// batches per second of `--seconds`.
pub const CHURN_RATE_HZ: f64 = 5.0;
/// Share of a run's operations the traced pass replays (a prefix).
pub const TRACE_DIVISOR: usize = 4;

/// The five query kinds, in the order a reader cycles through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stab,
    Range,
    ThreeSided,
    Nearest,
    Locate,
}

/// Every kind, in reader cycle order.
pub const KINDS: [Kind; 5] = [
    Kind::Stab,
    Kind::Range,
    Kind::ThreeSided,
    Kind::Nearest,
    Kind::Locate,
];

impl Kind {
    /// The kind's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Stab => "stab",
            Kind::Range => "range",
            Kind::ThreeSided => "three_sided",
            Kind::Nearest => "nearest",
            Kind::Locate => "locate",
        }
    }

    /// Position in [`KINDS`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The kind of read batch `b` (batches cycle through [`KINDS`]).
pub fn kind_of_batch(b: usize) -> Kind {
    KINDS[b % KINDS.len()]
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Preloaded service; a closed-loop reader with no writer running,
    /// then a closed-loop writer with no reader running.
    ReadStatic,
    /// Preloaded service; the closed-loop reader beside an open-loop
    /// writer at [`CHURN_RATE_HZ`].
    Churn,
    /// Empty service grown by a closed-loop writer to `N` per family plus
    /// `SITES` sites, then a closed-loop reader over the final state.
    Ingest,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read_static" => Some(Workload::ReadStatic),
            "churn" => Some(Workload::Churn),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadStatic => "read_static",
            Workload::Churn => "churn",
            Workload::Ingest => "ingest",
        }
    }

    /// Operation counts of a run of `seconds`.  The counts are constants of
    /// the workload, never calibrated from the code under test, so a run's
    /// work is fixed by its arguments.  At one pool thread, `churn`'s reader
    /// spans its writer's `seconds`; the closed loops finish sooner.
    pub fn plan(self, seconds: u64) -> Plan {
        let s = seconds.max(1) as usize;
        let writes = (CHURN_RATE_HZ as usize) * s;
        let read_cycles = match self {
            Workload::ReadStatic => 15 * s,
            Workload::Churn => 50 * s,
            Workload::Ingest => 15 * s,
        };
        Plan {
            read_batches: read_cycles * KINDS.len(),
            write_batches: writes,
        }
    }

    /// Whether the workload starts from the preloaded service.
    pub fn preloaded(self) -> bool {
        self != Workload::Ingest
    }
}

/// How many operations one run issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Query batches, cycling through [`KINDS`].
    pub read_batches: usize,
    /// Update batches (churn batches, or ingest batches).
    pub write_batches: usize,
}

impl Plan {
    /// The prefix the traced pass replays: a whole number of reader
    /// cycles and at least one write.
    pub fn traced(self) -> Plan {
        let cycles = (self.read_batches / KINDS.len() / TRACE_DIVISOR).max(1);
        Plan {
            read_batches: cycles * KINDS.len(),
            write_batches: (self.write_batches / TRACE_DIVISOR).max(1),
        }
    }
}

/// SplitMix64: a small, fixed generator, so inputs never depend on another
/// crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const STREAM_ELEMENTS: u64 = 1;
const STREAM_QUERIES: u64 = 2;
const STREAM_CHURN: u64 = 3;

/// The element sets every workload reaches: `N` intervals, `N` points (ids
/// `0..N` in each family) and `SITES` distinct sites.
pub struct Elements {
    pub intervals: Vec<Interval>,
    pub points: Vec<(i64, i64)>,
    pub sites: Vec<GridPoint>,
}

impl Elements {
    /// The seed's element sets.
    pub fn generate(seed: u64) -> Elements {
        let mut rng = Rng::new(seed, STREAM_ELEMENTS);
        let domain = 2.0 * SPAN as f64;
        let intervals = (0..N as u64)
            .map(|id| {
                let left = rng.unit() * domain;
                let len = 1e-3 + rng.unit() * 199.0;
                Interval::new(left, left + len, id)
            })
            .collect();
        let points = (0..N)
            .map(|_| (rng.int_in(-SPAN, SPAN), rng.int_in(-SPAN, SPAN)))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut sites = Vec::with_capacity(SITES);
        while sites.len() < SITES {
            let p = (rng.int_in(-SPAN, SPAN), rng.int_in(-SPAN, SPAN));
            if seen.insert(p) {
                sites.push(GridPoint::new(p.0, p.1));
            }
        }
        Elements {
            intervals,
            points,
            sites,
        }
    }

    /// The updates inserting slice `i` of `parts` of every family
    /// (intervals, then points, then sites).
    pub fn part(&self, i: usize, parts: usize) -> UpdateBatch {
        let cut = |len: usize| (i * len / parts)..((i + 1) * len / parts);
        let mut updates = Vec::new();
        updates.extend(
            self.intervals[cut(self.intervals.len())]
                .iter()
                .map(|&iv| Update::InsertInterval(iv)),
        );
        let pts = cut(self.points.len());
        updates.extend(
            self.points[pts.clone()]
                .iter()
                .zip(pts)
                .map(|(&(x, y), id)| Update::InsertPoint {
                    x: x as f64,
                    y: y as f64,
                    id: id as u64,
                }),
        );
        updates.extend(
            self.sites[cut(self.sites.len())]
                .iter()
                .map(|&p| Update::InsertSite(p)),
        );
        UpdateBatch { updates }
    }

    /// The whole preload as one batch.
    pub fn preload(&self) -> UpdateBatch {
        self.part(0, 1)
    }
}

/// The update batches a workload applies after its starting state: churn
/// batches for the preloaded workloads, ingest slices for `ingest`.
pub fn write_batches(
    workload: Workload,
    seed: u64,
    elements: &Elements,
    count: usize,
) -> Vec<UpdateBatch> {
    if workload == Workload::Ingest {
        return (0..count).map(|i| elements.part(i, count)).collect();
    }
    let mut rng = Rng::new(seed, STREAM_CHURN);
    (0..count).map(|_| churn_batch(&mut rng)).collect()
}

/// Delete and reinsert `CHURN_IDS` interval ids and `CHURN_IDS` point ids
/// with fresh coordinates.  Sites are untouched, so the mesh is not rebuilt.
fn churn_batch(rng: &mut Rng) -> UpdateBatch {
    let mut updates = Vec::with_capacity(4 * CHURN_IDS);
    for _ in 0..CHURN_IDS {
        let iv_id = rng.below(N as u64);
        let left = rng.unit() * 2.0 * SPAN as f64;
        updates.push(Update::DeleteInterval(iv_id));
        updates.push(Update::InsertInterval(Interval::new(
            left,
            left + 64.0,
            iv_id,
        )));
        let pt_id = rng.below(N as u64);
        updates.push(Update::DeletePoint(pt_id));
        updates.push(Update::InsertPoint {
            x: rng.int_in(-SPAN, SPAN) as f64,
            y: rng.int_in(-SPAN, SPAN) as f64,
            id: pt_id,
        });
    }
    UpdateBatch { updates }
}

/// `count` single-kind query batches cycling through [`KINDS`], with the
/// query shapes of the `speedup --serve` driver.
pub fn read_batches(seed: u64, count: usize) -> Vec<QueryBatch> {
    let mut rng = Rng::new(seed, STREAM_QUERIES);
    (0..count)
        .map(|b| QueryBatch {
            queries: (0..QBATCH)
                .map(|_| query(kind_of_batch(b), &mut rng))
                .collect(),
        })
        .collect()
}

fn query(kind: Kind, rng: &mut Rng) -> Query {
    let span = SPAN as f64;
    let a = rng.int_in(-SPAN, SPAN);
    let b = rng.int_in(-SPAN, SPAN);
    let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
    match kind {
        Kind::Stab => Query::Stab {
            x: rng.unit() * span,
        },
        Kind::Range => Query::Range2D {
            rect: Rect::new(lo, (lo + span / 16.0).min(hi), lo, lo + span / 16.0),
        },
        Kind::ThreeSided => Query::ThreeSided {
            x_lo: lo,
            x_hi: hi,
            y_bot: lo,
        },
        Kind::Nearest => Query::Nearest { x: lo, y: hi },
        Kind::Locate => Query::Locate { x: a, y: b },
    }
}

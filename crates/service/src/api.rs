//! The batched wire types of the service: updates in, queries in, answers
//! out.
//!
//! Answers are **canonical**: id lists are sorted ascending, nearest
//! neighbours are tie-broken by `(distance², id)` and located triangles are
//! reported as their sorted site-id triple.  Canonical answers are what
//! makes sharding an implementation detail — merging per-shard partial
//! answers re-canonicalizes, so a sharded service and a single-instance
//! oracle produce bit-equal [`AnswerBatch`]es (the `shard_equiv` suite
//! pins this for shard counts {1, 3, 8}).

use pwe_geom::bbox::Rect;
use pwe_geom::interval::Interval;
use pwe_geom::point::GridPoint;

/// Sentinel site id for a ghost (bounding-triangle) vertex in a
/// [`Answer::Located`] triple.
pub const GHOST_SITE: u64 = u64::MAX;

/// Sentinel shard index naming the replicated Delaunay mesh in
/// [`StaleShard::shard`] and [`ApplyReport::quarantined`] (the mesh is not
/// a shard, but it quarantines like one).
pub const MESH_SHARD: u32 = u32::MAX;

/// One element mutation.  Ids name elements for deletion and in answers,
/// and are unique per element family (interval / point / site): `apply`
/// rejects an interval or point insert whose id is live in its family
/// (site ids are insertion ranks).  A batch applies in order, so deleting
/// an id and inserting it again in one batch is accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Insert a closed interval (stabbing workload).  Rejected unless both
    /// endpoints are finite, `left ≤ right` and the id is not live.
    InsertInterval(Interval),
    /// Delete the interval with this id.
    DeleteInterval(u64),
    /// Insert a 2D point (range / 3-sided / nearest-neighbour workloads).
    /// Rejected unless both coordinates are finite and the id is not live.
    InsertPoint {
        /// x coordinate.
        x: f64,
        /// y coordinate.
        y: f64,
        /// Unique point id.
        id: u64,
    },
    /// Delete the point with this id.
    DeletePoint(u64),
    /// Insert a Delaunay site (point-location workload).  Sites are
    /// insert-only; their id is their insertion rank (0, 1, …) across the
    /// service's lifetime.
    InsertSite(GridPoint),
}

/// A batch of updates: applied atomically — one new generation serves all
/// of them or none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    /// The mutations, applied in order.
    pub updates: Vec<Update>,
}

/// Why `apply` rejected one update of a batch.  A rejected update is
/// skipped; the rest of the batch applies.  Value checks come first: an
/// insert that is both malformed and a duplicate reports the value
/// reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// An [`Update::InsertInterval`] endpoint is NaN or infinite.
    NonFiniteEndpoint,
    /// An [`Update::InsertInterval`] has `left > right`.
    InvertedInterval,
    /// An [`Update::InsertPoint`] coordinate is NaN or infinite.
    NonFiniteCoordinate,
    /// An [`Update::InsertInterval`] or [`Update::InsertPoint`] id is
    /// already live in its family (inserted earlier, possibly in the same
    /// batch, and not deleted since).
    DuplicateId,
    /// An [`Update::InsertSite`] coordinate lies outside
    /// `±`[`pwe_delaunay::mesh::SITE_LIMIT`], where the mesh's bounding
    /// triangle would leave the exact-arithmetic grid.
    SiteOutOfRange,
    /// An [`Update::InsertSite`] at coordinates already live (sites are
    /// never deleted, so: inserted earlier, possibly in the same batch).
    DuplicateSite,
}

/// What one `apply` call did: the containment layer's writer-side report.
/// Outside an armed fault plan every batch publishes cleanly
/// (`published == true`, `quarantined` empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyReport {
    /// The generation id this batch was assembled for.  When
    /// `published`, the id now serving; when the publish aborted, the id
    /// the *next* successful publish will use (the update batch itself
    /// is durably applied either way and will be served then).
    pub gen_id: u64,
    /// Whether the assembled generation was committed to readers.  False
    /// only when a fault struck the publish commit step; the authoritative
    /// element state and all successfully rebuilt shards are retained.
    pub published: bool,
    /// Entries stale in the assembled generation: shard indices (and
    /// [`MESH_SHARD`]) whose rebuild is quarantined, serving their
    /// last-good snapshot under retry-with-backoff.
    pub quarantined: Vec<u32>,
    /// Updates skipped as malformed: `(index in the batch, reason)`, in
    /// batch order.
    pub rejected: Vec<(usize, RejectReason)>,
}

/// One query against the pinned generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Report every interval containing `x` (closed).
    Stab {
        /// Query point.
        x: f64,
    },
    /// Report every point inside the closed rectangle.  A rectangle with
    /// a NaN bound contains no point.
    Range2D {
        /// Query rectangle.
        rect: Rect,
    },
    /// Report every point with `x ∈ [x_lo, x_hi]` and `y ≥ y_bot`.
    ThreeSided {
        /// Left x bound (inclusive).
        x_lo: f64,
        /// Right x bound (inclusive).
        x_hi: f64,
        /// Bottom y bound (inclusive).
        y_bot: f64,
    },
    /// The nearest point to `(x, y)`, ties broken by smallest id.  A NaN
    /// or infinite coordinate answers `None`.
    Nearest {
        /// Query x.
        x: f64,
        /// Query y.
        y: f64,
    },
    /// The Delaunay triangle containing the grid point, as its sorted site
    /// ids ([`GHOST_SITE`] marks bounding-triangle vertices).
    Locate {
        /// Query x (grid coordinate).
        x: i64,
        /// Query y (grid coordinate).
        y: i64,
    },
}

/// A batch of queries, answered together from one pinned generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBatch {
    /// The queries; answers come back in the same order.
    pub queries: Vec<Query>,
}

/// The nearest-neighbour hit: squared distance plus the canonical
/// (smallest) id among the points achieving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestHit {
    /// Squared euclidean distance to the query.
    pub dist2: f64,
    /// Smallest id among the points at that distance.
    pub id: u64,
}

/// One canonical answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Element ids, sorted ascending (stab / range / 3-sided).
    Ids(Vec<u64>),
    /// The canonical nearest point, `None` when the generation holds no
    /// points or the query has a non-finite coordinate.
    Nearest(Option<NearestHit>),
    /// The sorted site-id triple of the smallest alive triangle containing
    /// the query, `None` when no alive triangle strictly conflicts with it
    /// (outside the bounding triangle, or exactly coincident with a site).
    Located(Option<[u64; 3]>),
}

/// One stale entry of the generation a batch was served from: the shard
/// (or [`MESH_SHARD`]) whose structures are a quarantined last-good
/// snapshot, and the previously-published generation its content equals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleShard {
    /// Shard index, or [`MESH_SHARD`] for the replicated mesh.
    pub shard: u32,
    /// The generation whose update prefix this entry's content matches;
    /// always previously published and `< gen_id`.
    pub data_gen: u64,
}

/// A batch of answers: every entry was computed against the single
/// generation named by `gen_id` — the snapshot-isolation contract.
///
/// Failure containment (MODEL.md §6) adds the staleness contract: when a
/// shard rebuild was quarantined, the generation still publishes with
/// that shard's last-good snapshot, and every batch served from it
/// reports which entries lag ([`stale_shards`](Self::stale_shards)) and
/// whether any answer in *this* batch could be affected
/// ([`degraded`](Self::degraded)).  Outside an armed fault plan both
/// fields are trivially empty/false, so batch equality across shard
/// counts (the `shard_equiv` pin) is unperturbed.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerBatch {
    /// The generation every answer in this batch was served from.
    pub gen_id: u64,
    /// Answers, in query order.
    pub answers: Vec<Answer>,
    /// True when some query in this batch read a stale entry: any
    /// non-locate query while a shard is stale (they broadcast to every
    /// shard), or a locate query while the mesh is stale.
    pub degraded: bool,
    /// Every stale entry of the serving generation (empty when healthy).
    pub stale_shards: Vec<StaleShard>,
}

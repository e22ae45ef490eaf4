//! The serving layer: snapshot-isolated reads over atomically published
//! generations, with failure containment around every rebuild.
//!
//! One [`GeometryService`] holds the current [`ServiceGen`] as a
//! `Mutex<Arc<ServiceGen>>`.  Readers ([`GeometryService::serve`]) clone
//! that `Arc` once per query batch and answer every query in the batch
//! from that single generation — the snapshot-isolation contract: no
//! batch ever observes half of an update.  The writer
//! ([`GeometryService::apply`]) owns the authoritative element sets behind
//! a second mutex, rebuilds exactly the shards an update batch dirtied
//! (sharing the untouched ones with the previous generation) and publishes
//! the result by swapping the `Arc`.  Both sides hold the generation lock
//! only for a pointer-sized clone or swap; a superseded generation is
//! freed by whichever holder drops its last `Arc`.
//!
//! # Failure containment (MODEL.md §6, "Failure semantics")
//!
//! A panicking or failing shard rebuild must not take the writer loop down
//! with it.  Every rebuild runs under `catch_unwind`; a failed rebuild
//! **quarantines** the shard: the writer still publishes, the quarantined
//! entry keeps its last-good `Arc` snapshot (marked stale in the
//! generation's [`ShardStatus`] vector), and a deterministic tick-counted
//! retry-with-backoff schedule — no wall clock, `pwe-lint` D2 holds —
//! re-attempts the rebuild on later `apply` calls until it heals.  A fault
//! at the publish commit step aborts the publish; the built-but-never-
//! published generation is dropped without readers ever seeing it, and
//! nothing is lost: the element state and every successfully rebuilt
//! shard are retained for the next attempt.  Readers surface the
//! contract through [`AnswerBatch::degraded`] / `stale_shards`.
//! The named fault sites (`service.rebuild.*`, `service.publish.commit`,
//! `service.serve.batch`) come alive only under the default-off
//! `faultinject` feature ([`pwe_primitives::faultpoint`]).

use std::sync::{Arc, Mutex, PoisonError};

use rayon::prelude::*;

use pwe_delaunay::mesh::SITE_LIMIT;
use pwe_geom::point::{GridPoint, GRID_LIMIT};
use pwe_primitives::hash::DetHashSet;
use pwe_primitives::{faultpoint, racecheck};

use crate::api::{
    Answer, AnswerBatch, ApplyReport, NearestHit, Query, QueryBatch, RejectReason, StaleShard,
    Update, UpdateBatch, MESH_SHARD,
};
use crate::gen::{MeshGen, ServiceGen, ShardData, ShardGen, ShardStatus};
use crate::radix::sort_ids;
use crate::router::ShardRouter;

/// Query batches below this size are answered inline; larger ones fan the
/// per-query work out over the pool.
const PAR_QUERY_CUTOFF: usize = 8;

/// Cap (log2) of the quarantine retry backoff: consecutive failures defer
/// the next attempt by 1, 2, 4, 8, then at most 16 ticks (one tick per
/// `apply` call — deterministic, schedule-independent, no wall clock).
const RETRY_BACKOFF_CAP_LOG2: u32 = 4;

/// Ticks until the next rebuild attempt after `failed_attempts ≥ 1`
/// consecutive failures.
fn backoff_ticks(failed_attempts: u32) -> u64 {
    1u64 << failed_attempts
        .saturating_sub(1)
        .min(RETRY_BACKOFF_CAP_LOG2)
}

/// One shard-rebuild slot of an `apply` pass: the shard index plus the
/// contained attempt's outcome (`None` until attempted).
type RebuildSlot = (usize, Option<Result<Arc<ShardGen>, String>>);

/// Quarantine state of one rebuildable entry (a shard, or the mesh).
#[derive(Debug, Clone, Default)]
struct ShardHealth {
    /// True while the entry's last rebuild attempt failed and its
    /// published snapshot therefore lags the element state.
    quarantined: bool,
    /// Consecutive failed attempts (resets on success).
    failed_attempts: u32,
    /// Tick at or after which the next attempt is due.
    retry_at_tick: u64,
    /// Human-readable cause of the last failure (injected-fault site or
    /// caught panic payload).
    last_error: Option<String>,
}

impl ShardHealth {
    /// Whether a rebuild attempt is due at `tick`: the entry is healthy, or
    /// its quarantine backoff window has passed.
    fn due(&self, tick: u64) -> bool {
        !self.quarantined || tick >= self.retry_at_tick
    }

    /// Apply one contained attempt's outcome at `tick`, counted in `stats`:
    /// success resets the health (a recovery if quarantined) and hands the
    /// build back; failure quarantines the entry with the next backoff.
    fn record<T>(
        &mut self,
        outcome: Result<T, String>,
        tick: u64,
        stats: &mut ServiceStats,
    ) -> Option<T> {
        match outcome {
            Ok(built) => {
                if self.quarantined {
                    stats.rebuild_recoveries += 1;
                }
                *self = ShardHealth::default();
                Some(built)
            }
            Err(cause) => {
                stats.rebuild_failures += 1;
                self.quarantined = true;
                self.failed_attempts += 1;
                self.retry_at_tick = tick + backoff_ticks(self.failed_attempts);
                self.last_error = Some(cause);
                None
            }
        }
    }
}

/// Writer-side containment counters (monotone over the service lifetime;
/// all zero outside an armed fault plan).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Rebuild attempts (shard or mesh) that failed and quarantined.
    pub rebuild_failures: u64,
    /// Quarantined entries that healed on a retry.
    pub rebuild_recoveries: u64,
    /// Publishes aborted by a fault at the commit step.
    pub publish_aborts: u64,
    /// Published generations that carried at least one stale entry.
    pub quarantine_generations: u64,
}

/// The ids of one shard's live intervals and points.  Fixed-seed hashing
/// (`pwe-lint` D1), like the range tree's deleted-id set: it is not
/// flood-resistant, but an ordered set made a 100k-insert preload
/// measurably slower.
#[derive(Debug, Clone, Default)]
struct LiveIds {
    intervals: DetHashSet<u64>,
    points: DetHashSet<u64>,
}

/// The writer-owned authoritative state.
struct WriterState {
    /// Per-shard element sets.
    shards: Vec<ShardData>,
    /// Per-shard live ids, one set per family, so `apply` rejects a
    /// duplicate insert without scanning the shard's element vectors.
    live: Vec<LiveIds>,
    /// The coordinates in `sites`, so `apply` rejects a duplicate site.
    live_sites: DetHashSet<GridPoint>,
    /// Shards whose element sets changed since their last successful
    /// rebuild (persists across `apply` calls while quarantined).
    dirty: Vec<bool>,
    /// Last successfully built structures per shard; equals the published
    /// entry for healthy shards and the last-good snapshot for
    /// quarantined ones.  Also the cache that makes publish aborts
    /// lossless: a successful rebuild survives even if its generation's
    /// commit step faults.
    built: Vec<Arc<ShardGen>>,
    /// Per-shard quarantine state.
    health: Vec<ShardHealth>,
    /// The published generation whose update prefix each `built` entry's
    /// content equals (assigned at successful publishes only).
    data_gen: Vec<u64>,
    /// The replicated site sequence, in insertion order.
    sites: Vec<GridPoint>,
    /// External ids of `sites` (insertion ranks).
    site_ids: Vec<u64>,
    /// Whether `sites` changed since the last successful mesh rebuild.
    sites_dirty: bool,
    /// Last successfully built mesh (same contract as `built`).
    mesh_built: Arc<MeshGen>,
    /// Mesh quarantine state.
    mesh_health: ShardHealth,
    /// Published generation the mesh content equals.
    mesh_data_gen: u64,
    /// Id the next published generation receives (an aborted publish does
    /// not consume an id — readers only ever see published ids).
    next_gen: u64,
    /// Count of `apply` calls: the deterministic clock the retry backoff
    /// schedule runs on.
    tick: u64,
    /// Containment counters.
    stats: ServiceStats,
}

/// A sharded, snapshot-isolated geometry service over the five query kinds
/// (stab / 2D range / 3-sided / nearest / point-location).
///
/// ```
/// use pwe_service::api::{Query, QueryBatch, Update, UpdateBatch};
/// use pwe_service::GeometryService;
/// use pwe_geom::interval::Interval;
///
/// let svc = GeometryService::new(4);
/// let report = svc.apply(&UpdateBatch {
///     updates: vec![Update::InsertInterval(Interval::new(0.0, 2.0, 9))],
/// });
/// assert!(report.published && report.quarantined.is_empty());
/// let out = svc.serve(&QueryBatch {
///     queries: vec![Query::Stab { x: 1.0 }],
/// });
/// assert_eq!(out.gen_id, 1);
/// assert!(!out.degraded);
/// ```
pub struct GeometryService {
    router: ShardRouter,
    current: Mutex<Arc<ServiceGen>>,
    writer: Mutex<WriterState>,
    /// Racecheck space of the single-writer claim in [`Self::apply`].
    apply_space: u64,
}

impl GeometryService {
    /// Create an empty service over `shards ≥ 1` shards; generation 0 is
    /// the empty generation.
    pub fn new(shards: usize) -> Self {
        let router = ShardRouter::new(shards);
        let empty_shard = Arc::new(ShardGen::build(&ShardData::default()));
        let empty_mesh = Arc::new(MeshGen::build(&[], &[]));
        let initial = ServiceGen {
            gen_id: 0,
            shards: vec![Arc::clone(&empty_shard); shards],
            status: vec![ShardStatus::fresh(0); shards],
            mesh: Arc::clone(&empty_mesh),
            mesh_status: ShardStatus::fresh(0),
        };
        GeometryService {
            router,
            current: Mutex::new(Arc::new(initial)),
            writer: Mutex::new(WriterState {
                shards: vec![ShardData::default(); shards],
                live: vec![LiveIds::default(); shards],
                live_sites: DetHashSet::default(),
                dirty: vec![false; shards],
                built: vec![empty_shard; shards],
                health: vec![ShardHealth::default(); shards],
                data_gen: vec![0; shards],
                sites: Vec::new(),
                site_ids: Vec::new(),
                sites_dirty: false,
                mesh_built: empty_mesh,
                mesh_health: ShardHealth::default(),
                mesh_data_gen: 0,
                next_gen: 1,
                tick: 0,
                stats: ServiceStats::default(),
            }),
            apply_space: racecheck::fresh_space(),
        }
    }

    /// Number of shards the keyspace is routed over.
    pub fn num_shards(&self) -> usize {
        self.router.shards()
    }

    /// The currently published generation id.
    pub fn current_gen_id(&self) -> u64 {
        self.pin().gen_id
    }

    /// Fingerprint of the currently published generation (replay-equality
    /// checks).
    pub fn digest(&self) -> u64 {
        self.pin().digest()
    }

    /// The writer-side containment counters.
    pub fn stats(&self) -> ServiceStats {
        self.lock_writer().stats
    }

    /// Currently quarantined entries as `(shard, cause)` pairs
    /// ([`MESH_SHARD`] names the mesh).  Empty outside an armed fault
    /// plan.
    pub fn quarantined_errors(&self) -> Vec<(u32, String)> {
        let w = self.lock_writer();
        let mut out: Vec<(u32, String)> = Vec::new();
        for (s, h) in w.health.iter().enumerate() {
            if h.quarantined {
                out.push((s as u32, h.last_error.clone().unwrap_or_default()));
            }
        }
        if w.mesh_health.quarantined {
            out.push((
                MESH_SHARD,
                w.mesh_health.last_error.clone().unwrap_or_default(),
            ));
        }
        out
    }

    /// The currently published generation.  Same poison recovery as
    /// [`Self::lock_writer`]: the lock guards nothing but the `Arc`, which
    /// is whole at every point a panic could unwind.
    fn pin(&self) -> Arc<ServiceGen> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Lock the writer state, recovering from poison: an injected panic
    /// escaping a caller-side `catch_unwind` while the lock was held
    /// leaves the state valid (every mutation below is complete before
    /// the next fault site), so refusing the lock would turn one
    /// contained fault into a permanent outage.
    fn lock_writer(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Apply an update batch, in batch order: skip the malformed updates
    /// (non-finite coordinates, inverted intervals, sites outside
    /// `±SITE_LIMIT`, inserts of an id already live in its family or of a
    /// site already live — earlier in the same batch included), reporting
    /// each in [`ApplyReport::rejected`]; mutate the authoritative element sets
    /// with the rest; rebuild the shards due for it (the dirtied ones, plus
    /// quarantined ones whose backoff expired) through the engines — each
    /// rebuild contained by `catch_unwind` — and publish the next
    /// generation.
    /// Failed rebuilds quarantine their shard, which keeps serving its
    /// last-good snapshot (stale-flagged); a fault at the commit step
    /// aborts the publish losslessly.  The returned [`ApplyReport`] says
    /// what happened; outside an armed fault plan it is always
    /// `published` with nothing quarantined.
    ///
    /// Single-writer discipline: concurrent `apply` calls from logically
    /// concurrent tasks would make generation contents schedule-dependent.
    /// The writer mutex keeps them memory-safe, and under `racecheck`
    /// every call claims the same one-element region of a service-private
    /// space, so two calls from the two arms of one `join` panic with both
    /// provenances (see [`pwe_primitives::racecheck`]).
    pub fn apply(&self, batch: &UpdateBatch) -> ApplyReport {
        let _claim = racecheck::claim_range(self.apply_space, 0, 1, "service::apply");
        let mut guard = self.lock_writer();
        let w = &mut *guard;
        w.tick += 1;
        let mut rejected = Vec::new();
        for (i, u) in batch.updates.iter().enumerate() {
            if let Some(reason) = reject_reason(u) {
                rejected.push((i, reason));
                continue;
            }
            match *u {
                Update::InsertInterval(iv) => {
                    let s = self.router.shard_of(iv.id);
                    if !w.live[s].intervals.insert(iv.id) {
                        rejected.push((i, RejectReason::DuplicateId));
                        continue;
                    }
                    w.shards[s].intervals.push(iv);
                    w.dirty[s] = true;
                }
                Update::DeleteInterval(id) => {
                    let s = self.router.shard_of(id);
                    if w.live[s].intervals.remove(&id) {
                        w.shards[s].intervals.retain(|iv| iv.id != id);
                        w.dirty[s] = true;
                    }
                }
                Update::InsertPoint { x, y, id } => {
                    let s = self.router.shard_of(id);
                    if !w.live[s].points.insert(id) {
                        rejected.push((i, RejectReason::DuplicateId));
                        continue;
                    }
                    w.shards[s].points.push(crate::gen::rt_point(x, y, id));
                    w.dirty[s] = true;
                }
                Update::DeletePoint(id) => {
                    let s = self.router.shard_of(id);
                    if w.live[s].points.remove(&id) {
                        w.shards[s].points.retain(|p| p.id != id);
                        w.dirty[s] = true;
                    }
                }
                Update::InsertSite(p) => {
                    if !w.live_sites.insert(p) {
                        rejected.push((i, RejectReason::DuplicateSite));
                        continue;
                    }
                    let rank = w.site_ids.len() as u64;
                    w.sites.push(p);
                    w.site_ids.push(rank);
                    w.sites_dirty = true;
                }
            }
        }

        // Rebuild the due shards in parallel over disjoint slots, each
        // attempt contained.  Due: dirty, and not inside a quarantine
        // backoff window.
        let mut jobs: Vec<RebuildSlot> = (0..self.router.shards())
            .filter(|&s| w.dirty[s] && w.health[s].due(w.tick))
            .map(|s| (s, None))
            .collect();
        rebuild_jobs(&w.shards, &mut jobs);
        for (s, slot) in jobs {
            let outcome = slot.expect("every due slot attempted");
            if let Some(g) = w.health[s].record(outcome, w.tick, &mut w.stats) {
                w.built[s] = g;
                w.dirty[s] = false;
            }
        }

        // The replicated mesh rebuilds sequentially in the writer (it is
        // one engine run, internally parallel), under the same contract.
        if w.sites_dirty && w.mesh_health.due(w.tick) {
            let outcome = contained(|| MeshGen::try_build(&w.sites, &w.site_ids));
            if let Some(m) = w.mesh_health.record(outcome, w.tick, &mut w.stats) {
                w.mesh_built = m;
                w.sites_dirty = false;
            }
        }

        // Assemble the generation: still-dirty entries (exactly the
        // quarantined ones) publish their last-good snapshot, stale-
        // flagged with the published generation their content equals.
        let gen_id = w.next_gen;
        let status: Vec<ShardStatus> = (0..self.router.shards())
            .map(|s| {
                if w.dirty[s] {
                    ShardStatus {
                        stale: true,
                        data_gen: w.data_gen[s],
                    }
                } else {
                    ShardStatus::fresh(gen_id)
                }
            })
            .collect();
        let mesh_status = if w.sites_dirty {
            ShardStatus {
                stale: true,
                data_gen: w.mesh_data_gen,
            }
        } else {
            ShardStatus::fresh(gen_id)
        };
        let quarantined: Vec<u32> = status
            .iter()
            .enumerate()
            .filter(|(_, st)| st.stale)
            .map(|(s, _)| s as u32)
            .chain(mesh_status.stale.then_some(MESH_SHARD))
            .collect();
        let next = Arc::new(ServiceGen {
            gen_id,
            shards: w.built.iter().map(Arc::clone).collect(),
            status,
            mesh: Arc::clone(&w.mesh_built),
            mesh_status,
        });

        // Commit, containing a fault at the commit step itself.  On
        // abort `next` drops here — freed, never observable by readers —
        // and every rebuild above is retained for the next attempt.
        let commit_ok = if faultpoint::ENABLED {
            matches!(
                std::panic::catch_unwind(|| faultpoint::check("service.publish.commit")),
                Ok(Ok(()))
            )
        } else {
            true
        };
        if commit_ok {
            let old = std::mem::replace(
                &mut *self.current.lock().unwrap_or_else(PoisonError::into_inner),
                next,
            );
            // Outside the lock: freeing the superseded generation (when no
            // reader still holds it) must not stall readers.
            drop(old);
            w.next_gen += 1;
            for s in 0..self.router.shards() {
                if !w.dirty[s] {
                    w.data_gen[s] = gen_id;
                }
            }
            if !w.sites_dirty {
                w.mesh_data_gen = gen_id;
            }
            if !quarantined.is_empty() {
                w.stats.quarantine_generations += 1;
            }
        } else {
            w.stats.publish_aborts += 1;
        }
        ApplyReport {
            gen_id,
            published: commit_ok,
            quarantined,
            rejected,
        }
    }

    /// Answer a query batch.  The whole batch is served from one pinned
    /// generation — [`AnswerBatch::gen_id`] names it — and large batches
    /// fan out over the pool.  When the generation carries quarantined
    /// entries the batch reports them ([`AnswerBatch::stale_shards`]) and
    /// flags itself [`AnswerBatch::degraded`] if any of its queries could
    /// have read stale structures.
    pub fn serve(&self, batch: &QueryBatch) -> AnswerBatch {
        if faultpoint::ENABLED {
            // The reader-side fault site (read-path delays in the
            // `fault_equiv` chaos suite).  Fail-open: reads cannot fail, so
            // an error decision is counted-and-ignored and a panic is
            // contained.
            let _ = std::panic::catch_unwind(|| faultpoint::check("service.serve.batch"));
        }
        let pinned = self.pin();
        let g: &ServiceGen = &pinned;
        let answers: Vec<Answer> = if batch.queries.len() >= PAR_QUERY_CUTOFF {
            batch.queries.par_iter().map(|q| answer_one(g, q)).collect()
        } else {
            batch.queries.iter().map(|q| answer_one(g, q)).collect()
        };
        let stale_shards: Vec<StaleShard> = g
            .status
            .iter()
            .enumerate()
            .filter(|(_, st)| st.stale)
            .map(|(s, st)| StaleShard {
                shard: s as u32,
                data_gen: st.data_gen,
            })
            .chain(g.mesh_status.stale.then_some(StaleShard {
                shard: MESH_SHARD,
                data_gen: g.mesh_status.data_gen,
            }))
            .collect();
        let any_shard_stale = stale_shards.iter().any(|s| s.shard != MESH_SHARD);
        let degraded = batch.queries.iter().any(|q| match q {
            Query::Locate { .. } => g.mesh_status.stale,
            _ => any_shard_stale,
        });
        AnswerBatch {
            gen_id: g.gen_id,
            answers,
            degraded,
            stale_shards,
        }
    }
}

/// Answer one query against one generation: broadcast to every shard and
/// canonically merge (concatenate the shards' unsorted ids and sort them
/// once / minimize `(dist², id)`); point-location reads the replicated
/// mesh.
fn answer_one(g: &ServiceGen, q: &Query) -> Answer {
    let shards = g.shards.iter();
    match *q {
        Query::Stab { x } => sorted_ids(shards.map(|s| s.stab(x)).collect()),
        Query::Range2D { rect } => sorted_ids(shards.map(|s| s.range2d(&rect)).collect()),
        Query::ThreeSided { x_lo, x_hi, y_bot } => {
            sorted_ids(shards.map(|s| s.three_sided(x_lo, x_hi, y_bot)).collect())
        }
        Query::Nearest { x, y } => {
            let best = shards.filter_map(|s| s.nearest(x, y)).min_by(cmp_hits);
            Answer::Nearest(best)
        }
        // Sites lie within ±SITE_LIMIT, so the bounding triangle does too:
        // an off-grid point is outside it, and never becomes a GridPoint.
        Query::Locate { x, y } if !(on_grid(x) && on_grid(y)) => Answer::Located(None),
        Query::Locate { x, y } => Answer::Located(g.mesh.locate(GridPoint::new(x, y))),
    }
}

/// The canonical id answer: every shard's ids, concatenated and sorted
/// once.
fn sorted_ids(per_shard: Vec<Vec<u64>>) -> Answer {
    let mut ids = per_shard.concat();
    sort_ids(&mut ids);
    Answer::Ids(ids)
}

/// The reason `apply` rejects `u`, if it does: interval endpoints must be
/// finite with `left ≤ right` (the interval engine's skeleton relies on
/// it), point coordinates finite, site coordinates within `±SITE_LIMIT`
/// (the mesh's bounding triangle must stay on the exact-arithmetic grid).
/// Deletions always pass.
fn reject_reason(u: &Update) -> Option<RejectReason> {
    match *u {
        Update::InsertInterval(iv) if !(iv.left.is_finite() && iv.right.is_finite()) => {
            Some(RejectReason::NonFiniteEndpoint)
        }
        Update::InsertInterval(iv) if iv.left > iv.right => Some(RejectReason::InvertedInterval),
        Update::InsertPoint { x, y, .. } if !(x.is_finite() && y.is_finite()) => {
            Some(RejectReason::NonFiniteCoordinate)
        }
        Update::InsertSite(p) if !(site_in_range(p.x) && site_in_range(p.y)) => {
            Some(RejectReason::SiteOutOfRange)
        }
        _ => None,
    }
}

fn site_in_range(c: i64) -> bool {
    (-SITE_LIMIT..=SITE_LIMIT).contains(&c)
}

fn on_grid(c: i64) -> bool {
    (-GRID_LIMIT..=GRID_LIMIT).contains(&c)
}

/// Canonical nearest-hit order: squared distance, then id.
fn cmp_hits(a: &NearestHit, b: &NearestHit) -> std::cmp::Ordering {
    a.dist2.total_cmp(&b.dist2).then(a.id.cmp(&b.id))
}

/// Render a caught panic payload for the quarantine record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One contained rebuild attempt (a shard bundle or the mesh): run the
/// fallible build under `catch_unwind`, mapping both failure shapes
/// (injected error, caught panic) to the quarantine cause.  No panic
/// crosses this function — that is the "zero panics escape the writer
/// loop" guarantee.
fn contained<T, E: std::fmt::Display>(
    build: impl FnOnce() -> Result<T, E>,
) -> Result<Arc<T>, String> {
    // UnwindSafe audit: the builds only *read* their inputs (shared
    // borrows of plain element vectors — nothing is mutated across the
    // unwind boundary, so no caller-visible invariant can be observed
    // broken); they write exclusively into locals that unwinding frees,
    // and the process-wide state they touch (rayon pool, racecheck
    // ledger, faultpoint counters) keeps its invariants across unwinds
    // via its own locking and poison recovery.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
        Ok(Ok(built)) => Ok(Arc::new(built)),
        Ok(Err(fault)) => Err(fault.to_string()),
        Err(payload) => Err(panic_message(payload)),
    }
}

/// Rebuild the due shards over disjoint output slots: recursive binary
/// fan-out, each arm claiming the slot region it owns (the racecheck
/// pattern every engine fan-out in this workspace follows).  Each leaf is
/// a *contained* attempt — failures land in the slot as `Err`, never as a
/// propagating panic.
///
/// Under the `racecheck` feature the rebuilds are *ordered* instead of
/// forked.  The address-space ledger retains claims after their guards
/// drop (that is what makes detection schedule-independent), which assumes
/// concurrent claimants carve up shared arenas; two label-concurrent
/// engine builds instead allocate and free private scratch, so the
/// allocator can hand the second build addresses the first already
/// claimed — a by-design false positive.  Ordering the builds keeps their
/// labels sequenced (overlap is then legal) while the slot claims and
/// every engine-internal fan-out claim stay live.
fn rebuild_jobs(data: &[ShardData], jobs: &mut [RebuildSlot]) {
    // Keyed off the primitives feature (not this crate's): feature
    // unification can arm the ledger workspace-wide.
    if racecheck::ENABLED {
        for (i, slot) in jobs.iter_mut() {
            *slot = Some(contained(|| ShardGen::try_build(&data[*i], *i as u64)));
        }
        return;
    }
    match jobs {
        [] => {}
        [(i, slot)] => {
            *slot = Some(contained(|| ShardGen::try_build(&data[*i], *i as u64)));
        }
        _ => {
            let mid = jobs.len() / 2;
            let (lo, hi) = jobs.split_at_mut(mid);
            rayon::join(
                || {
                    let _claim = racecheck::claim_slice(&*lo, "service::rebuild_jobs/left");
                    rebuild_jobs(data, lo)
                },
                || {
                    let _claim = racecheck::claim_slice(&*hi, "service::rebuild_jobs/right");
                    rebuild_jobs(data, hi)
                },
            );
        }
    }
}

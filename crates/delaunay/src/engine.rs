//! The parallel batch insertion engine shared by the baseline and the
//! write-efficient Delaunay algorithms.
//!
//! pwe-lint: deny-untracked-alloc
//!
//! The engine receives the conflict (encroachment) lists of a set of
//! uninserted points against the *current* triangulation and inserts all of
//! them, proceeding in bulk-synchronous **reserve-and-commit rounds**,
//! exactly like Algorithm 2 of the paper:
//!
//! 1. **Nominate** — every triangle with a non-empty conflict list nominates
//!    its minimum-priority encroacher; each point learns, through a
//!    min-reservation ([`pwe_primitives::priority_write`]), the smallest
//!    nominee among the triangles it encroaches.  A point is a **candidate**
//!    if that minimum is the point itself — i.e. it is the nominee of *every*
//!    triangle it encroaches, which makes candidate cavities pairwise
//!    disjoint.
//! 2. **Assess** — each candidate walks its cavity once (in parallel over
//!    candidates), collecting the boundary edges and applying the neighbour
//!    condition of Algorithm 2 (line 7): the candidate survives as a
//!    **winner** only if it also beats the nominee of every triangle adjacent
//!    to its cavity, which keeps concurrently inserted cavities from
//!    invalidating each other's new triangles.
//! 3. **Reserve** — a parallel prefix scan over per-winner boundary-edge
//!    counts carves one disjoint triangle-id range per winner out of the
//!    arena, so construction needs no lock and the arena layout is identical
//!    at every thread count.
//! 4. **Construct** — in parallel over winners, every boundary edge `(u, w)`
//!    of a cavity yields a new triangle `(u, w, v)` (pre-oriented CCW), whose
//!    conflict list is computed by filtering the lists of the cavity triangle
//!    `t` it was carved from and the outside witness `t_o` across `(u, w)`
//!    (line 15 of Algorithm 2), and whose tracing-structure parents are `t`
//!    and `t_o`.  This phase only reads the round-start state.
//! 5. **Commit** — cavities are killed and the constructed triangles are
//!    installed in reserved-id order; the surviving conflict lists are moved
//!    (not rewritten) into the next round's row table.
//!
//! All bookkeeping is flat and index-addressed — conflict lists live in a
//! row table addressed through a triangle-id-indexed array, candidates and
//! winners are dense vectors — and every hash-free structure is rebuilt
//! deterministically, so the triangle arena, the [`InsertStats`], and the
//! recorded read/write totals are bit-identical across thread counts *and*
//! across processes (no `RandomState` anywhere on this path).
//!
//! Every conflict-list entry written during redistribution is charged as one
//! write to the asymmetric memory — this is precisely the cost that makes
//! the all-points-at-once baseline `Θ(n log n)` writes and the
//! prefix-doubling variant `O(n)` writes.

use std::sync::atomic::{AtomicU32, Ordering};

use rayon::prelude::*;

use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth;
use pwe_asym::smallmem::{ScratchReport, SmallMem, TaskScratch};
use pwe_primitives::priority_write::PriorityIndex;
use pwe_primitives::scan::par_exclusive_scan;
use pwe_primitives::semisort::semisort_by_key;

use crate::mesh::{norm_edge, TriMesh, NO_TRI};

/// Small-memory budget constant for the engine: a candidate's per-task
/// scratch is its cavity-boundary walk (one word per boundary edge; cavities
/// are `O(1)` expected and `O(log n)` whp under random insertion order,
/// Theorem 5.1), so `8·log₂ n` words holds with comfortable whp slack.
pub const ENGINE_SCRATCH_C: u64 = 8;

/// Statistics of one batch insertion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertStats {
    /// Number of winner-selection rounds the batch needed.
    pub rounds: u64,
    /// Number of points inserted.
    pub inserted: u64,
    /// Conflict-list entries written during redistribution (the write-heavy
    /// part of the algorithm).
    pub conflict_entries_written: u64,
    /// Largest cavity (in triangles) re-triangulated for a single point.
    pub max_cavity: usize,
    /// Small-memory ledger snapshot: the largest per-task symmetric scratch
    /// any cavity assessment or fan construction used, against the
    /// `c·log₂ n` budget.  Per-task fold-max, so schedule-independent like
    /// every other field.
    pub scratch: ScratchReport,
}

/// Sentinel for "no row" / "no owner" in the triangle-id-indexed arrays.
const NONE: u32 = u32::MAX;

/// One boundary edge of a candidate's cavity.
#[derive(Debug, Clone, Copy)]
struct BoundaryEdge {
    /// The (normalized) cavity-boundary edge.
    edge: (u32, u32),
    /// The cavity triangle the edge was carved from.
    inside: u32,
    /// The alive triangle across the edge ([`NO_TRI`] on the outer hull).
    outside: u32,
}

/// A triangle constructed during the parallel phase, awaiting commit.
struct PendingTri {
    /// CCW-oriented vertices.
    v: [u32; 3],
    /// Tracing-structure parents.
    parents: [u32; 2],
    /// Conflict list of the new triangle (redistribution output).
    conflicts: Vec<u32>,
}

/// Rounds with fewer conflict entries than this run their phases inline
/// (`rayon::with_sequential`): the fork-join dispatch would cost more than
/// the round's work.  Purely a scheduling choice — counters, stats and the
/// arena layout do not depend on it.
const SEQ_ROUND_CUTOFF: u64 = 512;

/// Everything a round decides before touching the mesh: the candidates (for
/// ownership cleanup), the winner indices into them, the reserved-id offsets
/// of each winner's fan, and the fully constructed fans themselves.
struct RoundPlan {
    candidates: Vec<(u32, Vec<u32>)>,
    winners: Vec<usize>,
    fan_offsets: Vec<u64>,
    fans: Vec<Vec<PendingTri>>,
}

/// Steps 1–5 of one round: nominate, select candidates, assess cavities,
/// reserve id ranges, construct the fans.  Reads the round-start state only
/// (`&TriMesh`), so every phase is free to run in parallel; the caller
/// commits the plan.  The caller also charges the one-read-per-entry
/// nomination scan; everything charged here (triangle reads, adjacency
/// reads, in-circle tests) is a deterministic function of the round state.
fn plan_round(
    mesh: &TriMesh,
    rows_tri: &[u32],
    rows_pts: &[Vec<u32>],
    row_of: &[AtomicU32],
    owner: &[AtomicU32],
    reserve: &PriorityIndex,
    ledger: &SmallMem,
) -> RoundPlan {
    let num_rows = rows_tri.len();

    // ---- Step 1: nominate (parallel over rows). ---------------------------
    // Each row computes its nominee (Algorithm 2, line 7: the minimum of
    // E(t)), refreshes its row_of mark, and min-reserves the nominee into
    // the cell of every point in the list.  The reservation cells are round
    // scratch (the caller charges the scan).
    let mins: Vec<u32> = (0..num_rows)
        .into_par_iter()
        .map(|i| {
            row_of[rows_tri[i] as usize].store(i as u32, Ordering::Relaxed);
            let m = *rows_pts[i].iter().min().expect("non-empty conflict list");
            for &p in &rows_pts[i] {
                reserve.write_min_untracked(p as usize, u64::from(m));
            }
            m
        })
        // alloc: large-mem — one nominee word per conflict row this round
        .collect();

    // ---- Step 2: candidates and their cavities. ---------------------------
    // p is a candidate iff its reservation still holds p itself, i.e. p is
    // the nominee of every triangle it encroaches.  And since p ∈ E(t)
    // forces min E(t) ≤ p, candidate cavities are exactly the rows that
    // nominated them — no per-entry scan needed, and the cavities are
    // pairwise disjoint.
    let mut cavity_rows: Vec<(u32, u32)> = (0..num_rows)
        .into_par_iter()
        .filter(|&i| reserve.load_untracked(mins[i] as usize) == u64::from(mins[i]))
        .map(|i| (mins[i], i as u32))
        // alloc: large-mem — candidate/row pairs, at most one per conflict row
        .collect();
    // Deterministic grouping: by candidate, then by row order.
    cavity_rows.sort_unstable();
    // alloc: large-mem — grouped candidate cavities (entries move out of cavity_rows)
    let mut candidates: Vec<(u32, Vec<u32>)> = Vec::new();
    for &(p, row) in &cavity_rows {
        let t = rows_tri[row as usize];
        match candidates.last_mut() {
            Some((q, cavity)) if *q == p => cavity.push(t),
            // alloc: large-mem — first cavity entry of a new candidate group
            _ => candidates.push((p, vec![t])),
        }
    }
    debug_assert!(
        !candidates.is_empty(),
        "at least the global minimum survives"
    );
    // The reservation cells are no longer needed: reset every touched cell
    // (every point in every round-start list) for the next round.
    rows_pts.par_iter().for_each(|list| {
        for &p in list {
            reserve.clear_untracked(p as usize);
        }
    });
    // Mark cavity ownership (disjoint, so plain relaxed stores suffice).
    candidates.par_iter().for_each(|(p, cavity)| {
        for &t in cavity {
            owner[t as usize].store(*p, Ordering::Relaxed);
        }
    });

    // ---- Step 3: assess (parallel over candidates). -----------------------
    // One walk per cavity collects the boundary and applies the neighbour
    // condition.  Each cavity triangle costs one triangle read plus one
    // adjacency read per edge, charged identically at every thread count
    // (no early exit).
    let assessed: Vec<(bool, Vec<BoundaryEdge>)> = candidates
        .par_iter()
        .map(|(p, cavity)| {
            // The assessment task's symmetric scratch: walk registers plus
            // one word per collected boundary edge (an O(1)-word record).
            // Cavities are O(log n) whp, so this fits the c·log n budget.
            let mut scratch = TaskScratch::new(ledger);
            scratch.alloc(2);
            let mut ok = true;
            // alloc: scratch — boundary records, one O(1)-word entry per cavity edge (see scratch.alloc above)
            let mut boundary: Vec<BoundaryEdge> = Vec::new();
            for &t in cavity {
                let tv = mesh.triangle(t).v; // vertex triple only: no children clone
                mesh.charge_triangle_reads(1);
                for i in 0..3 {
                    let e = norm_edge(tv[i], tv[(i + 1) % 3]);
                    match mesh.neighbor_across(t, e) {
                        Some(o) if owner[o as usize].load(Ordering::Relaxed) == *p => {
                            // interior edge
                        }
                        Some(o) => {
                            let row = row_of[o as usize].load(Ordering::Relaxed);
                            if row != NONE && mins[row as usize] < *p {
                                ok = false;
                            }
                            boundary.push(BoundaryEdge {
                                edge: e,
                                inside: t,
                                outside: o,
                            });
                            scratch.alloc(1);
                        }
                        None => {
                            boundary.push(BoundaryEdge {
                                edge: e,
                                inside: t,
                                outside: NO_TRI,
                            });
                            scratch.alloc(1);
                        }
                    }
                }
            }
            (ok, boundary)
        })
        // alloc: large-mem — per-candidate assessment results
        .collect();
    // alloc: large-mem — winner index table, at most one word per candidate
    let winners: Vec<usize> = (0..candidates.len()).filter(|&i| assessed[i].0).collect();
    assert!(!winners.is_empty(), "at least the global minimum must win");
    // Candidates are sorted by point id, so this is sorted too: winner
    // membership below is a binary search.
    // alloc: large-mem — sorted winner ids for the binary-search filter
    let winner_pts: Vec<u32> = winners.iter().map(|&i| candidates[i].0).collect();
    debug_assert!(winner_pts.windows(2).all(|w| w[0] < w[1]));

    // ---- Step 4: reserve id ranges (parallel prefix scan). ----------------
    let fan_sizes: Vec<u64> = winners
        .iter()
        .map(|&i| assessed[i].1.len() as u64)
        // alloc: large-mem — one fan-size word per winner (the scan's input)
        .collect();
    let (fan_offsets, _total_new) = par_exclusive_scan(&fan_sizes);

    // ---- Step 5: construct (parallel over winners, reads only). -----------
    // Every new triangle is oriented, parented and given its conflict list
    // (survivors of E(t) ∪ E(t_o) that encroach it — line 15 of Algorithm 2)
    // against the round-start state; each in-circle test is one read, each
    // surviving entry one write, both schedule-independent.  The predicate
    // storm goes through the batched width-filtered kernels of
    // `pwe_geom::batch` — one SoA orientation pass per fan, one SoA
    // in-circle pass per new triangle — which are bit-equal to the scalar
    // predicates; the per-test read charge is recorded in bulk and totals
    // exactly what the scalar loop recorded (MODEL.md §5).
    //
    // racecheck: the commit step hands winner `w` the triangle ids
    // `base + fan_offsets[w] .. base + fan_offsets[w] + |fan|`, so each fan
    // task claims its offset range in a space drawn fresh for this round —
    // two winners whose reservations ever overlapped would be concurrent
    // claims on one range and the sanitizer would panic.
    let round_space = pwe_primitives::racecheck::fresh_space();
    let fans: Vec<Vec<PendingTri>> = winners
        .par_iter()
        .enumerate()
        .map(|(w, &ci)| {
            let _claim = pwe_primitives::racecheck::claim_range(
                round_space,
                fan_offsets[w],
                fan_offsets[w] + fan_sizes[w],
                "delaunay::plan_round/reserved_ids",
            );
            // The fan task's symmetric scratch is O(1) words of edge/orient
            // registers.  The `merged` staging buffer below is *large-memory*
            // traffic, not task scratch: its entries are the conflict-list
            // rows of `t` and `t_o` (already resident and charged) and its
            // survivors are charged as redistribution writes at commit —
            // Algorithm 2 (line 15) streams this filter with an O(1) cursor.
            let mut scratch = TaskScratch::new(ledger);
            scratch.alloc(4);
            let p = candidates[ci].0;
            let boundary = &assessed[ci].1;
            // One SoA orientation pass for the whole fan (the apex is p for
            // every edge); uncharged, exactly like the scalar orient_ccw.
            let apex = mesh.points[p as usize];
            let fan = boundary.len();
            // alloc: large-mem — SoA staging of the fan's edge endpoints (uncharged layout staging, MODEL.md §5)
            let mut soa: [Vec<i64>; 6] = std::array::from_fn(|_| Vec::with_capacity(fan));
            for b in boundary {
                soa[0].push(mesh.points[b.edge.0 as usize].x);
                soa[1].push(mesh.points[b.edge.0 as usize].y);
                soa[2].push(mesh.points[b.edge.1 as usize].x);
                soa[3].push(mesh.points[b.edge.1 as usize].y);
                soa[4].push(apex.x);
                soa[5].push(apex.y);
            }
            // alloc: large-mem — orientation signs, one byte per fan edge (uncharged layout staging)
            let mut signs = vec![0i8; boundary.len()];
            pwe_geom::batch::orient2d_batch(
                &soa[0], &soa[1], &soa[2], &soa[3], &soa[4], &soa[5], &mut signs,
            );
            boundary
                .iter()
                .zip(&signs)
                .map(|(b, &sign)| {
                    let v = if sign > 0 {
                        [b.edge.0, b.edge.1, p]
                    } else {
                        [b.edge.1, b.edge.0, p]
                    };
                    debug_assert_eq!(v, mesh.orient_ccw(b.edge.0, b.edge.1, p));
                    // alloc: large-mem — staging for the two parent rows (survivors charged at commit; see note above)
                    let mut merged: Vec<u32> = Vec::new();
                    let row = row_of[b.inside as usize].load(Ordering::Relaxed);
                    debug_assert_ne!(row, NONE, "cavity triangle without a row");
                    merged.extend_from_slice(&rows_pts[row as usize]);
                    if b.outside != NO_TRI {
                        let row = row_of[b.outside as usize].load(Ordering::Relaxed);
                        if row != NONE {
                            merged.extend_from_slice(&rows_pts[row as usize]);
                        }
                    }
                    merged.sort_unstable();
                    merged.dedup();
                    // The cheap id filters run first (they charge nothing),
                    // then one batched in-circle pass over the survivors,
                    // charged one read per test — the same count the scalar
                    // encroaches_tri loop recorded.
                    merged.retain(|&q| q != p && winner_pts.binary_search(&q).is_err());
                    // alloc: large-mem — SoA query coordinates for the batched in-circle filter (uncharged staging)
                    let qx: Vec<i64> = merged.iter().map(|&q| mesh.points[q as usize].x).collect();
                    // alloc: large-mem — SoA query coordinates for the batched in-circle filter (uncharged staging)
                    let qy: Vec<i64> = merged.iter().map(|&q| mesh.points[q as usize].y).collect();
                    // alloc: large-mem — per-test in-circle verdicts (uncharged staging)
                    let mut hit = vec![false; merged.len()];
                    pwe_geom::batch::in_circle_batch(
                        mesh.points[v[0] as usize],
                        mesh.points[v[1] as usize],
                        mesh.points[v[2] as usize],
                        &qx,
                        &qy,
                        &mut hit,
                    );
                    mesh.charge_triangle_reads(merged.len() as u64);
                    let conflicts: Vec<u32> = merged
                        .iter()
                        .zip(&hit)
                        .filter_map(|(&q, &h)| h.then_some(q))
                        // alloc: large-mem — the new triangle's conflict list (entry writes recorded at commit)
                        .collect();
                    PendingTri {
                        v,
                        parents: [b.inside, b.outside],
                        conflicts,
                    }
                })
                // alloc: large-mem — this winner's fan of pending triangles
                .collect()
        })
        // alloc: large-mem — per-winner fans handed to the commit step
        .collect();

    RoundPlan {
        candidates,
        winners,
        fan_offsets,
        fans,
    }
}

#[inline]
fn atomic_none_vec(len: usize) -> Vec<AtomicU32> {
    // alloc: large-mem — triangle-id-indexed round table (module doc: round scratch)
    (0..len).map(|_| AtomicU32::new(NONE)).collect()
}

#[inline]
fn grow_with_none(v: &mut Vec<AtomicU32>, len: usize) {
    while v.len() < len {
        v.push(AtomicU32::new(NONE));
    }
}

/// Insert into `mesh` every point that appears in `initial_conflicts`.
///
/// `initial_conflicts` lists, for each (alive) triangle, the uninserted
/// points that encroach it; the lists must be complete (every alive triangle
/// whose circumcircle strictly contains an uninserted point must have an
/// entry for it).  The callers establish this either trivially (all points
/// encroach the bounding triangle at the very start) or by DAG tracing.
pub fn insert_batch(mesh: &mut TriMesh, initial_conflicts: Vec<(u32, u32)>) -> InsertStats {
    let mut stats = InsertStats::default();
    if initial_conflicts.is_empty() {
        return stats;
    }

    // Build the conflict-list rows E(t) with a semisort of the
    // (triangle, point) pairs by triangle — each entry is one write, and the
    // deterministic group order (first occurrence) fixes the row order at
    // every thread count.
    record_writes(initial_conflicts.len() as u64);
    stats.conflict_entries_written += initial_conflicts.len() as u64;
    // alloc: large-mem — conflict row keys (entry writes recorded above)
    let mut rows_tri: Vec<u32> = Vec::new();
    // alloc: large-mem — conflict row lists (entry writes recorded above)
    let mut rows_pts: Vec<Vec<u32>> = Vec::new();
    for group in semisort_by_key(&initial_conflicts, |&(t, _)| t) {
        debug_assert!(
            mesh.triangle(group.key).alive,
            "conflict against a dead triangle"
        );
        rows_tri.push(group.key);
        // alloc: large-mem — one row of conflict entries (charged above)
        rows_pts.push(group.items.into_iter().map(|(_, p)| p).collect());
    }

    // Triangle-id-indexed round scratch (per-round small-memory bookkeeping,
    // not charged to the large memory):
    //   row_of[t]  — this round's row index of triangle t (NONE: no list);
    //                refreshed for every live row at the top of each round,
    //                so stale marks only ever sit on dead triangles, which no
    //                phase looks up.
    //   owner[t]   — the candidate whose cavity contains t this round.
    //   reserve[p] — min-reservation cell of point p (min over the nominees
    //                of the triangles p encroaches).
    let mut row_of = atomic_none_vec(mesh.history_size());
    let mut owner = atomic_none_vec(mesh.history_size());
    let reserve = PriorityIndex::new(mesh.points.len());
    // Per-task symmetric scratch budget for the batch (Theorem 5.1 assumes
    // the model default of O(log n) words per task).
    let ledger = SmallMem::logarithmic(mesh.points.len(), ENGINE_SCRATCH_C);

    while !rows_tri.is_empty() {
        stats.rounds += 1;

        // The pool pays a fork-join dispatch per split; for the small tail
        // rounds (a handful of conflict entries) that overhead dwarfs the
        // work.  The cutoff is a pure scheduling decision — every recorded
        // total is schedule-independent, so running a small round's phases
        // inline changes nothing observable.
        let total_entries: u64 = rows_pts.iter().map(|l| l.len() as u64).sum();
        let plan = if total_entries < SEQ_ROUND_CUTOFF {
            rayon::with_sequential(|| {
                plan_round(
                    mesh, &rows_tri, &rows_pts, &row_of, &owner, &reserve, &ledger,
                )
            })
        } else {
            plan_round(
                mesh, &rows_tri, &rows_pts, &row_of, &owner, &reserve, &ledger,
            )
        };
        record_reads(total_entries);
        let RoundPlan {
            candidates,
            winners,
            fan_offsets,
            fans,
        } = plan;
        let base = mesh.next_triangle_id();

        // ---- Step 6: commit (cheap, deterministic order). -----------------
        // Kills and installs in winner order; installing in reserved-id
        // order reproduces exactly the ids the scan handed out.
        let mut round_max_path = 1u64;
        // alloc: large-mem — committed rows' triangle ids (entry writes recorded per fan)
        let mut new_rows_tri: Vec<u32> = Vec::new();
        // alloc: large-mem — committed rows' conflict lists (moved, not rewritten)
        let mut new_rows_pts: Vec<Vec<u32>> = Vec::new();
        for ((w, &ci), fan) in winners.iter().enumerate().zip(fans) {
            let cavity = &candidates[ci].1;
            stats.max_cavity = stats.max_cavity.max(cavity.len());
            round_max_path = round_max_path.max(depth::log2_ceil(cavity.len().max(2)));
            for &t in cavity {
                mesh.kill_triangle(t);
            }
            debug_assert_eq!(u64::from(mesh.next_triangle_id() - base), fan_offsets[w]);
            for pending in fan {
                let id = mesh.install_oriented(pending.v, pending.parents);
                if !pending.conflicts.is_empty() {
                    record_writes(pending.conflicts.len() as u64);
                    stats.conflict_entries_written += pending.conflicts.len() as u64;
                    new_rows_tri.push(id);
                    new_rows_pts.push(pending.conflicts);
                }
            }
        }
        stats.inserted += winners.len() as u64;

        // Clear the owner marks of every candidate cavity (losing candidates'
        // triangles stay alive and must not leak ownership into the next
        // round), then roll the row table forward: surviving rows move (their
        // lists are not rewritten — a pointer move, not a redistribution),
        // new rows append in id order.
        for (_, cavity) in &candidates {
            for &t in cavity {
                owner[t as usize].store(NONE, Ordering::Relaxed);
            }
        }
        // alloc: large-mem — row-table roll-forward keys (pointer moves, no redistribution)
        let mut kept_tri: Vec<u32> = Vec::with_capacity(rows_tri.len());
        // alloc: large-mem — row-table roll-forward lists (pointer moves, no redistribution)
        let mut kept_pts: Vec<Vec<u32>> = Vec::with_capacity(rows_pts.len());
        for (i, &t) in rows_tri.iter().enumerate() {
            if mesh.triangle(t).alive {
                kept_tri.push(t);
                kept_pts.push(std::mem::take(&mut rows_pts[i]));
            }
        }
        kept_tri.extend_from_slice(&new_rows_tri);
        kept_pts.append(&mut new_rows_pts);
        rows_tri = kept_tri;
        rows_pts = kept_pts;
        grow_with_none(&mut row_of, mesh.history_size());
        grow_with_none(&mut owner, mesh.history_size());

        // One round of the dependence DAG plus the (logarithmic) depth of
        // the widest cavity retriangulated within the round — the parallel
        // round composes its per-winner chains by max, not by sum.  (The
        // reservation scan adds its own O(log) structural depth.)
        depth::add(1 + round_max_path);
    }
    stats.scratch = ledger.report();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_delaunay_property, check_mesh_consistency};
    use pwe_geom::generators::uniform_grid_points;

    #[test]
    fn insert_everything_against_bounding_triangle() {
        let _g = crate::counter_guard();
        let points = uniform_grid_points(200, 1 << 12, 3);
        let mut mesh = TriMesh::new(&points);
        let conflicts: Vec<(u32, u32)> = (3..mesh.points.len() as u32).map(|p| (0, p)).collect();
        let stats = insert_batch(&mut mesh, conflicts);
        assert_eq!(stats.inserted, 200);
        assert!(stats.rounds >= 2, "multiple rounds expected");
        check_mesh_consistency(&mesh).expect("consistent mesh");
        check_delaunay_property(&mesh, None).expect("Delaunay property");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let _g = crate::counter_guard();
        let points = uniform_grid_points(10, 1 << 10, 5);
        let mut mesh = TriMesh::new(&points);
        let stats = insert_batch(&mut mesh, Vec::new());
        assert_eq!(stats.inserted, 0);
        assert_eq!(mesh.alive_count(), 1);
    }

    #[test]
    fn single_point_insertion_creates_three_triangles() {
        let _g = crate::counter_guard();
        let points = uniform_grid_points(1, 1 << 10, 7);
        let mut mesh = TriMesh::new(&points);
        let stats = insert_batch(&mut mesh, vec![(0, 3)]);
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.rounds, 1);
        assert_eq!(mesh.alive_count(), 3);
        check_mesh_consistency(&mesh).expect("consistent mesh");
    }

    #[test]
    fn incremental_batches_match_single_batch() {
        let _g = crate::counter_guard();
        let points = uniform_grid_points(120, 1 << 12, 11);
        // All at once.
        let mut mesh_a = TriMesh::new(&points);
        let conflicts: Vec<(u32, u32)> = (3..mesh_a.points.len() as u32).map(|p| (0, p)).collect();
        insert_batch(&mut mesh_a, conflicts);

        // In two batches, locating the second batch by tracing.
        let mut mesh_b = TriMesh::new(&points);
        let first: Vec<(u32, u32)> = (3..63).map(|p| (0, p)).collect();
        insert_batch(&mut mesh_b, first);
        let mut second = Vec::new();
        for p in 63..mesh_b.points.len() as u32 {
            let (cs, _) = mesh_b.locate_conflicts(p);
            for t in cs {
                second.push((t, p));
            }
        }
        insert_batch(&mut mesh_b, second);

        check_delaunay_property(&mesh_a, None).expect("A Delaunay");
        check_delaunay_property(&mesh_b, None).expect("B Delaunay");
        // Both are Delaunay triangulations of the same point set; with points
        // in general position the set of real triangles must be identical.
        let mut ta = mesh_a.real_triangles();
        let mut tb = mesh_b.real_triangles();
        // Triangle vertex ids differ by the permutation-free construction here
        // (same input order), so direct comparison of sorted vertex triples works.
        for t in ta.iter_mut().chain(tb.iter_mut()) {
            t.sort_unstable();
        }
        ta.sort_unstable();
        tb.sort_unstable();
        assert_eq!(ta, tb);
    }

    #[test]
    fn repeated_runs_record_identical_stats_and_arena() {
        let _g = crate::counter_guard();
        // In-process reproducibility: two runs over fresh meshes must agree
        // on stats, arena layout and history size.  (RandomState-seeded maps
        // would already diverge between two maps in the same process.)
        let points = uniform_grid_points(300, 1 << 14, 19);
        let run = || {
            let mut mesh = TriMesh::new(&points);
            let conflicts: Vec<(u32, u32)> =
                (3..mesh.points.len() as u32).map(|p| (0, p)).collect();
            let stats = insert_batch(&mut mesh, conflicts);
            let arena: Vec<[u32; 3]> = mesh.triangles.iter().map(|t| t.v).collect();
            (stats, arena, mesh.history_size())
        };
        assert_eq!(run(), run());
    }
}

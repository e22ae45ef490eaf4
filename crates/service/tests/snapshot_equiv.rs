//! Snapshot-isolation property suite: interleaved reader/writer schedules
//! where every answer batch must be *exactly* consistent with one single
//! published generation — no torn reads across a generation swap.
//!
//! The writer arm applies the generated update batches in order while the
//! reader arm concurrently serves query batches; each [`AnswerBatch`]
//! names the generation it was served from, and every answer in it is
//! checked against an independent sequential model of exactly that
//! generation's element sets (brute-force oracles for stab / range /
//! 3-sided / nearest, the deterministic mesh build for point location).
//! Any answer mixing two generations fails the per-generation check.  The
//! CI matrix runs this file at `RAYON_NUM_THREADS ∈ {1, 4}`, with and
//! without `racecheck`: at one thread the arms serialize (every batch then
//! sees the final generation), at four they interleave for real.
//!
//! `many_concurrent_readers_see_whole_generations` widens the reader side
//! to far more simultaneous callers than any pool width: each is an OS
//! thread standing in for an independent client, and the service must
//! neither cap nor tear them.
//!
//! CI's faultinject leg also compiles this suite with the `faultinject`
//! feature (no plan armed): every fault site must be a true no-op when
//! unarmed, so the snapshot-isolation property must hold unchanged.  The
//! explicit unarmed-is-a-no-op digest pin lives in `fault_equiv.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pwe_augtree::priority::{three_sided_bruteforce, PsPoint};
use pwe_augtree::range_tree::{range_bruteforce, RtPoint};
use pwe_delaunay::mesh::SITE_LIMIT;
use pwe_geom::bbox::Rect;
use pwe_geom::interval::{stab_bruteforce, Interval};
use pwe_geom::point::{GridPoint, Point2};
use pwe_service::api::{
    Answer, AnswerBatch, NearestHit, Query, QueryBatch, RejectReason, Update, UpdateBatch,
};
use pwe_service::gen::MeshGen;
use pwe_service::GeometryService;

/// Sequential model of the service's element sets after k update batches.
#[derive(Debug, Clone, Default)]
struct Model {
    intervals: Vec<Interval>,
    points: Vec<RtPoint>,
    sites: Vec<GridPoint>,
}

impl Model {
    fn apply(&mut self, batch: &UpdateBatch) {
        for u in &batch.updates {
            match *u {
                // An insert whose id is live in its family is rejected.
                Update::InsertInterval(iv) => {
                    if self.intervals.iter().all(|live| live.id != iv.id) {
                        self.intervals.push(iv);
                    }
                }
                Update::DeleteInterval(id) => self.intervals.retain(|iv| iv.id != id),
                Update::InsertPoint { x, y, id } => {
                    if self.points.iter().all(|live| live.id != id) {
                        self.points.push(RtPoint {
                            point: Point2::xy(x, y),
                            id,
                        });
                    }
                }
                Update::DeletePoint(id) => self.points.retain(|p| p.id != id),
                // A site whose coordinates are live is rejected.
                Update::InsertSite(p) => {
                    if !self.sites.contains(&p) {
                        self.sites.push(p);
                    }
                }
            }
        }
    }

    /// The canonical expected answer for `q` against this model state.
    fn expect(&self, q: &Query) -> Answer {
        match *q {
            Query::Stab { x } => sorted_ids(stab_bruteforce(&self.intervals, x)),
            Query::Range2D { rect } => sorted_ids(range_bruteforce(&self.points, &rect)),
            Query::ThreeSided { x_lo, x_hi, y_bot } => {
                let ps: Vec<PsPoint> = self
                    .points
                    .iter()
                    .map(|p| PsPoint {
                        point: p.point,
                        id: p.id,
                    })
                    .collect();
                sorted_ids(three_sided_bruteforce(&ps, x_lo, x_hi, y_bot))
            }
            Query::Nearest { x, y } => {
                let q = Point2::xy(x, y);
                let best = self
                    .points
                    .iter()
                    .map(|p| (p.point.dist2(&q), p.id))
                    .min_by(|a, b| {
                        a.0.partial_cmp(&b.0)
                            .expect("finite distances")
                            .then(a.1.cmp(&b.1))
                    });
                Answer::Nearest(best.map(|(dist2, id)| NearestHit { dist2, id }))
            }
            Query::Locate { x, y } => {
                let ids: Vec<u64> = (0..self.sites.len() as u64).collect();
                let mesh = MeshGen::build(&self.sites, &ids);
                Answer::Located(mesh.locate(GridPoint::new(x, y)))
            }
        }
    }
}

fn sorted_ids(mut ids: Vec<u64>) -> Answer {
    ids.sort_unstable();
    Answer::Ids(ids)
}

/// Decode one raw generated update.  Kinds cycle through the five update
/// variants; coordinates are small integers so deletions hit, ties happen
/// and sites collide often enough to exercise the dedup below.
fn decode_update(
    kind: u8,
    id: u64,
    a: i32,
    b: i32,
    seen_sites: &mut std::collections::BTreeSet<(i64, i64)>,
) -> Option<Update> {
    match kind % 5 {
        0 => {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Some(Update::InsertInterval(Interval::new(
                f64::from(lo),
                f64::from(hi),
                id,
            )))
        }
        1 => Some(Update::DeleteInterval(id)),
        2 => Some(Update::InsertPoint {
            x: f64::from(a),
            y: f64::from(b),
            id,
        }),
        3 => Some(Update::DeletePoint(id)),
        _ => {
            let site = (i64::from(a), i64::from(b));
            // The Delaunay engine requires distinct sites; duplicates are
            // dropped at generation time so the service and the model see
            // the identical update sequence.
            if seen_sites.insert(site) {
                Some(Update::InsertSite(GridPoint::new(site.0, site.1)))
            } else {
                None
            }
        }
    }
}

fn decode_query(kind: u8, a: i32, b: i32, c: i32) -> Query {
    match kind % 5 {
        0 => Query::Stab { x: f64::from(a) },
        1 => {
            let (x_lo, x_hi) = if a <= b { (a, b) } else { (b, a) };
            Query::Range2D {
                rect: Rect::new(
                    f64::from(x_lo),
                    f64::from(x_hi),
                    f64::from(c.min(0)),
                    f64::from(c.max(0)),
                ),
            }
        }
        2 => {
            let (x_lo, x_hi) = if a <= b { (a, b) } else { (b, a) };
            Query::ThreeSided {
                x_lo: f64::from(x_lo),
                x_hi: f64::from(x_hi),
                y_bot: f64::from(c),
            }
        }
        3 => Query::Nearest {
            x: f64::from(a),
            y: f64::from(b),
        },
        _ => Query::Locate {
            x: i64::from(a),
            y: i64::from(b),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_batches_are_snapshot_consistent(
        raw_updates in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0u64..24, -20i32..20, -20i32..20), 1..10),
            1..4,
        ),
        raw_queries in proptest::collection::vec(
            proptest::collection::vec((0u8..5, -24i32..24, -24i32..24, -24i32..24), 1..8),
            2..5,
        ),
        shards in 1usize..5,
    ) {
        let mut seen_sites = std::collections::BTreeSet::new();
        let update_batches: Vec<UpdateBatch> = raw_updates
            .iter()
            .map(|raw| UpdateBatch {
                updates: raw
                    .iter()
                    .filter_map(|&(k, id, a, b)| decode_update(k, id, a, b, &mut seen_sites))
                    .collect(),
            })
            .collect();
        let query_batches: Vec<QueryBatch> = raw_queries
            .iter()
            .map(|raw| QueryBatch {
                queries: raw.iter().map(|&(k, a, b, c)| decode_query(k, a, b, c)).collect(),
            })
            .collect();

        // Sequential model state after each generation: models[g] is what
        // generation g must answer from.
        let mut models: Vec<Model> = Vec::with_capacity(update_batches.len() + 1);
        models.push(Model::default());
        for ub in &update_batches {
            let mut next = models.last().expect("nonempty").clone();
            next.apply(ub);
            models.push(next);
        }

        let svc = GeometryService::new(shards);
        // Writer arm: publish one generation per update batch.  Reader arm:
        // serve every query batch (twice, to widen the interleaving window)
        // and hand the observed AnswerBatches back for checking.
        let (_, observed) = rayon::join(
            || {
                for ub in &update_batches {
                    svc.apply(ub);
                }
            },
            || {
                let mut out: Vec<(usize, AnswerBatch)> = Vec::new();
                for _round in 0..2 {
                    for (qi, qb) in query_batches.iter().enumerate() {
                        out.push((qi, svc.serve(qb)));
                    }
                }
                out
            },
        );

        // Every observed batch must match ONE published generation exactly.
        let mut last_gen = 0u64;
        for (qi, ab) in &observed {
            let g = ab.gen_id;
            prop_assert!(
                (g as usize) < models.len(),
                "answer batch names unpublished generation {g}"
            );
            prop_assert!(g >= last_gen, "reader saw generations out of order");
            last_gen = g;
            let model = &models[g as usize];
            let queries = &query_batches[*qi].queries;
            prop_assert_eq!(ab.answers.len(), queries.len());
            for (q, got) in queries.iter().zip(&ab.answers) {
                let want = model.expect(q);
                prop_assert!(
                    *got == want,
                    "torn or wrong answer at gen {}: query {:?} got {:?} want {:?}",
                    g, q, got, want
                );
            }
        }

        // After the join the final generation serves every batch, and it
        // must equal the fully-applied model.
        let final_model = models.last().expect("nonempty");
        for qb in &query_batches {
            let ab = svc.serve(qb);
            prop_assert_eq!(ab.gen_id as usize, models.len() - 1);
            for (q, got) in qb.queries.iter().zip(&ab.answers) {
                let want = final_model.expect(q);
                prop_assert!(*got == want, "final-state mismatch: {:?} vs {:?}", got, want);
            }
        }
    }
}

/// Client threads in `many_concurrent_readers_see_whole_generations`: far
/// more than any pool width.  With a 64-query batch each client spends
/// nearly all its time inside `serve`, so many hold a generation at once.
const CLIENTS: usize = 128;
const SERVES_PER_CLIENT: usize = 20;

#[test]
fn many_concurrent_readers_see_whole_generations() {
    let mut rng = StdRng::seed_from_u64(0xC11E_0017);
    let mut seen_sites = std::collections::BTreeSet::new();
    let mut batch_of = |len: usize, kinds: &[u8]| UpdateBatch {
        updates: (0..len)
            .filter_map(|_| {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let (a, b) = (rng.gen_range(-20..20), rng.gen_range(-20..20));
                decode_update(kind, rng.gen_range(0..5000), a, b, &mut seen_sites)
            })
            .collect(),
    };
    // Preload intervals and points; the writer's batches mix all kinds.
    let preload = batch_of(3000, &[0, 2]);
    let update_batches: Vec<UpdateBatch> = (0..8).map(|_| batch_of(24, &[0, 1, 2, 3, 4])).collect();
    let mut c = || rng.gen_range(-24..24);
    let batch = QueryBatch {
        queries: (0..64u8).map(|k| decode_query(k, c(), c(), c())).collect(),
    };

    // expected[g]: the answers generation g must give (gen 1 = preload).
    let expect_all =
        |m: &Model| -> Vec<Answer> { batch.queries.iter().map(|q| m.expect(q)).collect() };
    let mut model = Model::default();
    let mut expected = vec![expect_all(&model)];
    for ub in std::iter::once(&preload).chain(&update_batches) {
        model.apply(ub);
        expected.push(expect_all(&model));
    }

    let svc = GeometryService::new(4);
    svc.apply(&preload);
    // No start barrier: its waiters wake one at a time, which staggers the
    // clients, while spawning them back to back puts them all in `serve`.
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut last_gen = 0;
                    for _ in 0..SERVES_PER_CLIENT {
                        let ab = svc.serve(&batch);
                        assert!(ab.gen_id >= last_gen, "reader saw generations out of order");
                        last_gen = ab.gen_id;
                        let want = &expected[ab.gen_id as usize];
                        assert!(ab.answers == *want, "torn answer at gen {last_gen}");
                    }
                })
            })
            .collect();
        for ub in &update_batches {
            svc.apply(ub);
        }
        // Re-raise a client's own panic message rather than the scope's.
        for c in clients {
            if let Err(payload) = c.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    assert_eq!(svc.current_gen_id() as usize, expected.len() - 1);
}

/// A nearest query with a NaN or infinite coordinate answers `None` from
/// a populated service (the shard probe must not build an inverted box).
#[test]
fn non_finite_nearest_serves_none() {
    let svc = GeometryService::new(2);
    svc.apply(&UpdateBatch {
        updates: vec![Update::InsertPoint {
            x: 1.0,
            y: 2.0,
            id: 7,
        }],
    });
    let ab = svc.serve(&QueryBatch {
        queries: [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .map(|x| Query::Nearest { x, y: 0.0 })
            .to_vec(),
    });
    assert_eq!(ab.answers, vec![Answer::Nearest(None); 3]);
}

/// `apply` rejects each malformed element at the boundary with a typed
/// reason and applies the rest of the batch: answers equal a model that
/// never saw the rejected elements, and no shard is quarantined (a NaN
/// point used to panic its shard's rebuild into permanent quarantine).
/// Duplicate ids are rejected whether the live id came earlier in the same
/// batch or in an earlier one; delete-then-reinsert is accepted.  Range
/// queries with a NaN bound answer no ids.
#[test]
fn malformed_updates_are_rejected_and_the_rest_applies() {
    let iv = |left, right, id| Update::InsertInterval(Interval { left, right, id });
    let pt = |x, y, id| Update::InsertPoint { x, y, id };
    let site = |x, y| Update::InsertSite(GridPoint { x, y });
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let bad = [
        (iv(nan, 1.0, 100), RejectReason::NonFiniteEndpoint),
        (iv(0.0, nan, 101), RejectReason::NonFiniteEndpoint),
        (iv(-inf, 1.0, 102), RejectReason::NonFiniteEndpoint),
        (iv(0.0, inf, 103), RejectReason::NonFiniteEndpoint),
        (iv(3.0, 1.0, 104), RejectReason::InvertedInterval),
        (pt(nan, 0.5, 105), RejectReason::NonFiniteCoordinate),
        (pt(0.5, nan, 106), RejectReason::NonFiniteCoordinate),
        (pt(inf, 0.5, 107), RejectReason::NonFiniteCoordinate),
        (pt(0.5, -inf, 108), RejectReason::NonFiniteCoordinate),
        // Point 1 is live: inserted earlier in this batch.
        (pt(0.2, 0.2, 1), RejectReason::DuplicateId),
        // Interval 2 is live again: deleted, then reinserted, in this batch.
        (iv(0.3, 0.4, 2), RejectReason::DuplicateId),
        // Its ghost corners would leave the exact-arithmetic grid.
        (site(1 << 23, 5), RejectReason::SiteOutOfRange),
        (site(0, -SITE_LIMIT - 1), RejectReason::SiteOutOfRange),
        (site(i64::MIN, 0), RejectReason::SiteOutOfRange),
        // Site (4, 4) is live: inserted earlier in this batch.
        (site(4, 4), RejectReason::DuplicateSite),
    ];
    let good: Vec<Update> = (0..40u64)
        .map(|i| {
            let v = i as f64 / 40.0;
            if i % 2 == 0 {
                iv(v, v + 0.2, i)
            } else {
                pt(v, 1.0 - v, i)
            }
        })
        .chain([
            iv(0.5, 0.5, 40),
            Update::DeleteInterval(2),
            iv(0.25, 0.6, 2),
            // Ids are unique per family: point 40 beside interval 40.
            pt(0.9, 0.1, 40),
            site(0, 0),
            site(SITE_LIMIT, -SITE_LIMIT),
            site(4, 4),
            site(-SITE_LIMIT, 7),
        ])
        .collect();
    // Interleave: one bad element after every fourth good one, the rest
    // after the last.
    let mut updates = Vec::new();
    let mut expected_rejected = Vec::new();
    let mut bad_iter = bad.iter();
    for (i, &u) in good.iter().enumerate() {
        updates.push(u);
        if i % 4 == 3 {
            if let Some(&(b, reason)) = bad_iter.next() {
                expected_rejected.push((updates.len(), reason));
                updates.push(b);
            }
        }
    }
    for &(b, reason) in bad_iter {
        expected_rejected.push((updates.len(), reason));
        updates.push(b);
    }

    let svc = GeometryService::new(3);
    let report = svc.apply(&UpdateBatch { updates });
    assert!(report.published);
    assert!(report.quarantined.is_empty(), "{report:?}");
    assert_eq!(report.rejected, expected_rejected);

    // Ids live from the first batch are duplicates in the next one, until
    // deleted.
    let second = vec![
        pt(0.1, 0.1, 5),
        iv(0.0, 1.0, 40),
        Update::DeletePoint(5),
        pt(0.6, 0.3, 5),
    ];
    let report = svc.apply(&UpdateBatch {
        updates: second.clone(),
    });
    assert_eq!(
        report.rejected,
        vec![
            (0, RejectReason::DuplicateId),
            (1, RejectReason::DuplicateId)
        ]
    );

    let mut model = Model::default();
    model.apply(&UpdateBatch { updates: good });
    model.apply(&UpdateBatch { updates: second });
    let full = Rect::new(-1.0, 2.0, -1.0, 2.0);
    let nan_rects = [nan, -nan].into_iter().flat_map(|b| {
        [
            Rect { y_min: b, ..full },
            Rect { y_max: b, ..full },
            Rect { x_min: b, ..full },
            Rect { x_max: b, ..full },
        ]
    });
    let queries: Vec<Query> = [0.0, 0.3, 0.5, 0.9, 1.2]
        .iter()
        .flat_map(|&v| {
            [
                Query::Stab { x: v },
                Query::Range2D {
                    rect: Rect::new(v - 0.3, v + 0.3, 0.0, 1.0),
                },
                Query::ThreeSided {
                    x_lo: v - 0.2,
                    x_hi: v + 0.2,
                    y_bot: 0.4,
                },
                Query::Nearest { x: v, y: v },
                Query::Locate {
                    x: (v * 1000.0) as i64,
                    y: 3,
                },
            ]
        })
        .chain(nan_rects.map(|rect| Query::Range2D { rect }))
        .collect();
    let ab = svc.serve(&QueryBatch {
        queries: queries.clone(),
    });
    let want: Vec<Answer> = queries.iter().map(|q| model.expect(q)).collect();
    assert_eq!(ab.answers, want);
}

/// Two `apply` calls from the two arms of one `join` break the
/// single-writer discipline; the sanitizer must catch it.  The batches are
/// empty so no shard rebuild runs: the only claim either arm makes is the
/// writer's own.
#[cfg(feature = "racecheck")]
#[test]
#[should_panic(expected = "overlapping region claims from concurrent tasks")]
fn concurrent_applies_panic_under_racecheck() {
    let svc = GeometryService::new(2);
    let empty = UpdateBatch { updates: vec![] };
    rayon::join(|| svc.apply(&empty), || svc.apply(&empty));
}

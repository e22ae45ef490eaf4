//! Chaos suite: the service under an armed deterministic fault plan
//! (`faultinject` feature).  Injected panics, errors and delays strike the
//! shard rebuilds, the publish commit step and the read path, and the
//! containment contract (MODEL.md §6, "Failure semantics") must hold
//! throughout:
//!
//! 1. reader generations stay monotone and only ever name *published*
//!    generations;
//! 2. every **non-degraded** answer batch exactly matches the sequential
//!    oracle of the generation it names;
//! 3. every **degraded** batch names the previously-published generation
//!    each stale entry's content equals (`data_gen < gen_id`, published);
//! 4. zero panics escape the writer loop, and after the plan disarms the
//!    quarantined shards drain back to a state answer-identical to a
//!    fault-free replay of the same stream.
//!
//! The suite also pins the compiled-but-unarmed feature as a true no-op
//! (the `snapshot_equiv` / `shard_equiv` / `churn` suites run under this
//! configuration in CI's faultinject leg; the explicit digest pin lives
//! here).  Everything is deterministic — the fault schedule is a pure
//! function of (plan seed, site, key, hit) — so the CI matrix runs this
//! file identically at `RAYON_NUM_THREADS ∈ {1, 4}`.
#![cfg(feature = "faultinject")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pwe_augtree::priority::{three_sided_bruteforce, PsPoint};
use pwe_augtree::range_tree::{range_bruteforce, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::interval::{stab_bruteforce, Interval};
use pwe_geom::point::{GridPoint, Point2};
use pwe_primitives::faultpoint::{self, FaultPlan};
use pwe_service::api::{
    Answer, AnswerBatch, ApplyReport, NearestHit, Query, QueryBatch, Update, UpdateBatch,
    MESH_SHARD,
};
use pwe_service::gen::MeshGen;
use pwe_service::GeometryService;

const WRITER_ROUNDS: usize = 12;
const UPDATES_PER_ROUND: usize = 16;
const READER_PROBES: usize = 24;
const DRAIN_CAP: usize = 200;

/// Sequential model of the element sets after k update batches (the same
/// oracle shape as `snapshot_equiv`).
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
                Update::InsertSite(p) => self.sites.push(p),
            }
        }
    }

    /// Canonical expected answer for `q` against this state.  Only called
    /// after the plan disarms (its own mesh build passes the rebuild
    /// fault site).
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

/// Deterministic mixed update stream (churn-style): interval and point
/// inserts/deletes throughout, distinct sites in the early rounds.
fn make_stream(seed: u64) -> Vec<UpdateBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen_sites = std::collections::BTreeSet::new();
    (0..WRITER_ROUNDS)
        .map(|round| {
            let mut updates = Vec::with_capacity(UPDATES_PER_ROUND);
            while updates.len() < UPDATES_PER_ROUND {
                let id: u64 = rng.gen_range(0..48);
                let a: i64 = rng.gen_range(-30..=30);
                let b: i64 = rng.gen_range(-30..=30);
                match rng.gen_range(0..6u32) {
                    0 | 1 => updates.push(Update::InsertInterval(Interval::new(
                        a.min(b) as f64,
                        a.max(b) as f64,
                        id,
                    ))),
                    2 => updates.push(Update::DeleteInterval(id)),
                    3 | 4 => updates.push(Update::InsertPoint {
                        x: a as f64,
                        y: b as f64,
                        id,
                    }),
                    _ => updates.push(Update::DeletePoint(id)),
                }
                if round < 3 && seen_sites.insert((a, b)) {
                    updates.push(Update::InsertSite(GridPoint::new(a, b)));
                }
            }
            UpdateBatch { updates }
        })
        .collect()
}

/// A probe batch covering every query kind.
fn probe_batch(rng: &mut StdRng) -> QueryBatch {
    let mut queries = Vec::with_capacity(10);
    for k in 0..10u32 {
        let a: i64 = rng.gen_range(-35..=35);
        let b: i64 = rng.gen_range(-35..=35);
        let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
        queries.push(match k % 5 {
            0 => Query::Stab { x: lo },
            1 => Query::Range2D {
                rect: Rect::new(lo, hi, -20.0, 20.0),
            },
            2 => Query::ThreeSided {
                x_lo: lo,
                x_hi: hi,
                y_bot: -10.0,
            },
            3 => Query::Nearest { x: lo, y: hi },
            _ => Query::Locate { x: a, y: b },
        });
    }
    QueryBatch { queries }
}

/// The chaos plan: rebuilds panic / error / delay, the publish commit
/// errors / delays (never panics — panics there are still contained, but
/// the abort accounting is what this suite drives), reads only delay.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule("service.rebuild.", 150, 150, 100, 64)
        .rule("service.publish.commit", 0, 120, 80, 32)
        .rule("service.serve.batch", 0, 0, 200, 64)
}

/// Everything one chaos run produced, for cross-run determinism checks.
#[derive(Debug, PartialEq)]
struct ChaosOutcome {
    reports: Vec<ApplyReport>,
    drain_applies: usize,
    stats: pwe_service::ServiceStats,
}

/// One full chaos run over `(stream_seed, plan_seed)`: concurrent
/// writer/reader under the armed plan, then disarm, drain quarantines and
/// check the final state against a fault-free replay.
fn chaos_run(stream_seed: u64, plan_seed: u64, shards: usize) -> ChaosOutcome {
    let stream = make_stream(stream_seed);
    let probes: Vec<QueryBatch> = {
        let mut rng = StdRng::seed_from_u64(stream_seed ^ 0xBEEF);
        (0..READER_PROBES).map(|_| probe_batch(&mut rng)).collect()
    };
    // models[k] is the element state after k update batches.
    let mut models: Vec<Model> = Vec::with_capacity(stream.len() + 1);
    models.push(Model::default());
    for ub in &stream {
        let mut next = models.last().expect("nonempty").clone();
        next.apply(ub);
        models.push(next);
    }

    let svc = GeometryService::new(shards);
    let armed = chaos_plan(plan_seed).arm();
    let (reports, observed): (Vec<ApplyReport>, Vec<(usize, AnswerBatch)>) = rayon::join(
        || stream.iter().map(|ub| svc.apply(ub)).collect(),
        || {
            probes
                .iter()
                .enumerate()
                .map(|(qi, qb)| (qi, svc.serve(qb)))
                .collect()
        },
    );
    // The join completing is invariant 4's first half: every injected
    // panic was contained inside the writer loop.
    assert_eq!(reports.len(), stream.len(), "writer loop did not finish");
    let faults_while_armed = faultpoint::injected_total();

    // Drain: empty applies advance the deterministic retry clock until
    // everything heals and a clean generation publishes.
    let mut drain_applies = 0usize;
    loop {
        assert!(drain_applies < DRAIN_CAP, "quarantine never drained");
        drain_applies += 1;
        let r = svc.apply(&UpdateBatch::default());
        if r.published && r.quarantined.is_empty() {
            break;
        }
    }
    let stats = svc.stats();
    drop(armed);
    assert!(
        faults_while_armed > 0,
        "chaos run injected nothing — the plan never fired"
    );

    // Which generation ids were published, and which update prefix each
    // one serves.  Generation 0 (the empty initial generation) is always
    // published; aborted publishes do not consume an id.
    let mut published: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    published.insert(0, 0);
    for (i, r) in reports.iter().enumerate() {
        if r.published {
            published.insert(r.gen_id, i + 1);
        }
    }

    let mut last_gen = 0u64;
    for (qi, ab) in &observed {
        // Invariant 1: monotone, published-only generation ids.
        assert!(ab.gen_id >= last_gen, "reader generation went backwards");
        last_gen = ab.gen_id;
        let Some(&prefix) = published.get(&ab.gen_id) else {
            panic!("answer batch names unpublished generation {}", ab.gen_id);
        };
        let queries = &probes[*qi].queries;
        assert_eq!(ab.answers.len(), queries.len());
        if ab.degraded {
            // Invariant 3: degraded batches name the previously-published
            // generation each stale entry still serves.
            assert!(
                !ab.stale_shards.is_empty(),
                "degraded batch without stale entries"
            );
            for st in &ab.stale_shards {
                assert!(
                    st.data_gen < ab.gen_id,
                    "stale entry not older than its generation"
                );
                assert!(
                    published.contains_key(&st.data_gen),
                    "stale entry names unpublished generation {}",
                    st.data_gen
                );
                assert!(
                    st.shard == MESH_SHARD || (st.shard as usize) < shards,
                    "stale entry names unknown shard {}",
                    st.shard
                );
            }
        } else {
            // Invariant 2: non-degraded answers are exact against the
            // oracle of the named generation's update prefix.
            let model = &models[prefix];
            for (q, got) in queries.iter().zip(&ab.answers) {
                let want = model.expect(q);
                assert!(
                    *got == want,
                    "non-degraded answer diverged at gen {} (prefix {prefix}): \
                     query {q:?} got {got:?} want {want:?}",
                    ab.gen_id
                );
            }
        }
    }

    // Invariant 4, second half: after the drain the service is
    // answer-identical to a fault-free replay of the same stream (digests
    // fold generation ids, which aborts desynchronized — answers are the
    // content-level comparison).
    assert!(svc.quarantined_errors().is_empty());
    let replay = GeometryService::new(shards);
    for ub in &stream {
        let r = replay.apply(ub);
        assert!(
            r.published && r.quarantined.is_empty(),
            "unarmed replay faulted"
        );
    }
    let final_model = models.last().expect("nonempty");
    for qb in &probes {
        let healed = svc.serve(qb);
        assert!(!healed.degraded && healed.stale_shards.is_empty());
        let replayed = replay.serve(qb);
        assert_eq!(healed.answers, replayed.answers, "healed state diverged");
        for (q, got) in qb.queries.iter().zip(&healed.answers) {
            assert!(
                *got == final_model.expect(q),
                "healed state wrong vs oracle"
            );
        }
    }

    ChaosOutcome {
        reports,
        drain_applies,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The chaos property over varying stream and plan seeds.  Writer-side
    // fault decisions are a pure function of (plan seed, site, shard key,
    // hit) — independent of reader interleaving and thread count — so the
    // whole outcome (reports, drain length, stats) must replay exactly.
    #[test]
    fn prop_chaos_containment_holds_and_replays(seed in 0u64..6) {
        let stream_seed = 0xC0FFEE ^ (seed.wrapping_mul(0x9E37_79B9));
        let plan_seed = 0xFA01 + seed;
        let first = chaos_run(stream_seed, plan_seed, 5);
        prop_assert!(
            first.stats.rebuild_failures > 0 || first.stats.publish_aborts > 0,
            "plan {plan_seed:#x} never exercised a failure path"
        );
        let second = chaos_run(stream_seed, plan_seed, 5);
        prop_assert_eq!(first, second, "chaos outcome is schedule-dependent");
    }
}

/// Compiled-but-unarmed is a true no-op: the concurrent churn run under
/// the `faultinject` feature (no plan armed) publishes every generation
/// cleanly, degrades nothing, injects nothing, and its final generation is
/// digest-equal to a sequential replay — the same invariant the `churn`
/// suite pins for the feature-off build.
#[test]
fn faultinject_unarmed_is_true_noop() {
    let _excl = faultpoint::unarmed_exclusive();
    let stream = make_stream(0xC0FFEE);
    let probes: Vec<QueryBatch> = {
        let mut rng = StdRng::seed_from_u64(0xF00D);
        (0..8).map(|_| probe_batch(&mut rng)).collect()
    };
    let svc = GeometryService::new(5);
    let (reports, batches): (Vec<ApplyReport>, Vec<AnswerBatch>) = rayon::join(
        || stream.iter().map(|ub| svc.apply(ub)).collect(),
        || probes.iter().map(|qb| svc.serve(qb)).collect(),
    );
    for (i, r) in reports.iter().enumerate() {
        assert!(r.published, "unarmed publish {i} did not commit");
        assert!(r.quarantined.is_empty(), "unarmed apply {i} quarantined");
        assert_eq!(r.gen_id, i as u64 + 1);
    }
    for ab in &batches {
        assert!(!ab.degraded && ab.stale_shards.is_empty());
    }
    assert_eq!(faultpoint::injected_total(), 0, "unarmed sites injected");
    assert_eq!(svc.stats(), pwe_service::ServiceStats::default());

    let replay = GeometryService::new(5);
    for ub in &stream {
        replay.apply(ub);
    }
    assert_eq!(
        svc.digest(),
        replay.digest(),
        "unarmed faultinject perturbed generation content"
    );
    for qb in &probes {
        assert_eq!(svc.serve(qb).answers, replay.serve(qb).answers);
    }
}

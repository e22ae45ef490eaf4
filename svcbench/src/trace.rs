//! The traced pass: per-layer time and charged counts.
//!
//! The pass issues a prefix of the workload's operations one at a time, in
//! the order the workload defines, on a fresh service.  Each operation is
//! one span.  After it, the pass repeats the operation's layer calls on a
//! *replica*: its own [`ShardGen`]s and [`MeshGen`], maintained with the
//! same updates through the public [`ShardRouter`], and checked after every
//! generation to have the served generation's digest.  The repeated calls
//! are recorded as child spans of the operation span, so a span's self time
//! is its duration minus its children's durations:
//!
//! ```text
//! service.serve.<kind>        GeometryService::serve
//!   gen.probe.<kind>          ShardGen::{stab,range2d,three_sided,nearest} per shard,
//!                             MeshGen::locate
//! service.apply               GeometryService::apply
//!   gen.shard_build           ShardGen::build per rebuilt shard
//!     augtree.interval.build  IntervalTree::build_parallel
//!     augtree.range.build     RangeTree2D::build
//!     augtree.pst.build       PrioritySearchTree::build_parallel
//!     kdtree.build            build_p_batched
//!   gen.mesh_build            MeshGen::build
//!     delaunay.triangulate    triangulate_write_efficient
//! ```
//!
//! Charged reads and writes come only from this pass: the counters are
//! process-global, and here one operation runs at a time.  Beside each
//! traced operation the same operation runs, untraced, on a second service
//! kept in lockstep; the difference of the two is the tracing overhead.

use std::fs;
use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::Instant;

use pwe_asym::cost::{measure, Omega};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::RangeTree2D;
use pwe_delaunay::write_efficient::triangulate_write_efficient;
use pwe_geom::point::{GridPoint, Point2};
use pwe_kdtree::build::{build_p_batched, recommended_p};
use pwe_service::gen::{
    rt_point, MeshGen, ServiceGen, ShardData, ShardGen, ShardStatus, KD_LEAF_CAPACITY,
    SERVICE_ALPHA,
};
use pwe_service::{GeometryService, Query, QueryBatch, ShardRouter, Update, UpdateBatch};

use crate::oracle::{fold, Model, Summary};
use crate::report::{median, percentile, ratio, Metrics};
use crate::run::{read_ok, Inputs};
use crate::workload::{kind_of_batch, Kind, Plan, Workload, KINDS, SHARDS};

/// Seed `ShardGen::build` passes to the k-d build (a private constant of
/// `pwe_service::gen`; only the engine re-run's counts depend on it).
const KD_SEED: u64 = 0x5EED_001D;
/// Seed `MeshGen::build` passes to the Delaunay engine (likewise).
const MESH_SEED: u64 = 0x5EED_00DE;

/// Largest share of an operation's time by which its layer self times may
/// overshoot it.  Self times are clamped at zero, so the overshoot is the
/// time by which re-run children exceeded their parent.  The check holds
/// when, in every operation class (each read kind, and applies), the median
/// operation is within it.  Single operations are not bounded: a
/// preemption during a re-run child makes one operation overshoot by
/// several times on a shared machine, so the class totals
/// (`trace.parts_overshoot_frac`) and the 90th percentile over operations
/// (`trace.op_overshoot_p90_frac`) are reported instead.
pub const PARTS_TOLERANCE: f64 = 0.10;

/// One recorded span; times are nanoseconds since the pass began.
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<u32>,
    start: u64,
    end: u64,
}

/// One traced operation.
struct Op {
    kind: OpKind,
    span: u32,
    /// The same operation's time on the untraced service, in ns.
    untraced: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read(Kind),
    /// The starting state's preload.
    Setup,
    Write,
}

/// The span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span that has already ended; returns its index.
    fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now();
        let value = std::hint::black_box(f());
        let end = self.now();
        (value, self.record(name, op, Some(parent), start, end))
    }

    fn duration(&self, span: u32) -> u64 {
        let s = &self.spans[span as usize];
        s.end - s.start
    }
}

/// Counts gathered beside the spans.
#[derive(Default)]
struct Counts {
    /// Per kind: queries, ids reported, charged reads, shard probes, probes
    /// contributing to the answer.
    queries: [u64; 5],
    ids: [u64; 5],
    reads: [u64; 5],
    probes: [u64; 5],
    useful: [u64; 5],
    /// Workload applies (set-up excluded): updates, elements in rebuilt
    /// structures, shards rebuilt, charged reads and writes.
    applies: u64,
    updates: u64,
    rebuilt: u64,
    dirtied: u64,
    apply_reads: u64,
    apply_writes: u64,
    /// Per engine (interval, range, pst, kd, delaunay): elements built and
    /// charged writes.
    engine_elems: [u64; 5],
    engine_writes: [u64; 5],
}

const ENGINES: [(&str, &str); 5] = [
    ("augtree.interval.build", "augtree.interval"),
    ("augtree.range.build", "augtree.range"),
    ("augtree.pst.build", "augtree.pst"),
    ("kdtree.build", "kdtree"),
    ("delaunay.triangulate", "delaunay"),
];

/// The probe span name of each kind.
fn probe_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Stab => "gen.probe.stab",
        Kind::Range => "gen.probe.range",
        Kind::ThreeSided => "gen.probe.three_sided",
        Kind::Nearest => "gen.probe.nearest",
        Kind::Locate => "gen.probe.locate",
    }
}

fn serve_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Stab => "service.serve.stab",
        Kind::Range => "service.serve.range",
        Kind::ThreeSided => "service.serve.three_sided",
        Kind::Nearest => "service.serve.nearest",
        Kind::Locate => "service.serve.locate",
    }
}

/// The replica: the writer-side element sets and built structures, kept
/// with the service's mutation rules.
struct Replica {
    router: ShardRouter,
    data: Vec<ShardData>,
    dirty: Vec<bool>,
    built: Vec<Arc<ShardGen>>,
    sites: Vec<GridPoint>,
    site_ids: Vec<u64>,
    sites_dirty: bool,
    mesh: Arc<MeshGen>,
}

impl Replica {
    fn new() -> Replica {
        let empty = Arc::new(ShardGen::build(&ShardData::default()));
        Replica {
            router: ShardRouter::new(SHARDS),
            data: vec![ShardData::default(); SHARDS],
            dirty: vec![false; SHARDS],
            built: vec![empty; SHARDS],
            sites: Vec::new(),
            site_ids: Vec::new(),
            sites_dirty: false,
            mesh: Arc::new(MeshGen::build(&[], &[])),
        }
    }

    /// Mutate the element sets as `GeometryService::apply` does.
    fn mutate(&mut self, batch: &UpdateBatch) {
        for u in &batch.updates {
            match *u {
                Update::InsertInterval(iv) => {
                    let s = self.router.shard_of(iv.id);
                    self.data[s].intervals.push(iv);
                    self.dirty[s] = true;
                }
                Update::DeleteInterval(id) => {
                    let s = self.router.shard_of(id);
                    let before = self.data[s].intervals.len();
                    self.data[s].intervals.retain(|iv| iv.id != id);
                    self.dirty[s] |= self.data[s].intervals.len() != before;
                }
                Update::InsertPoint { x, y, id } => {
                    let s = self.router.shard_of(id);
                    self.data[s].points.push(rt_point(x, y, id));
                    self.dirty[s] = true;
                }
                Update::DeletePoint(id) => {
                    let s = self.router.shard_of(id);
                    let before = self.data[s].points.len();
                    self.data[s].points.retain(|p| p.id != id);
                    self.dirty[s] |= self.data[s].points.len() != before;
                }
                Update::InsertSite(p) => {
                    self.site_ids.push(self.sites.len() as u64);
                    self.sites.push(p);
                    self.sites_dirty = true;
                }
            }
        }
    }

    /// The digest of the generation the replica's structures make up.
    fn digest(&self, gen_id: u64) -> u64 {
        ServiceGen {
            gen_id,
            shards: self.built.clone(),
            status: vec![ShardStatus::fresh(gen_id); SHARDS],
            mesh: Arc::clone(&self.mesh),
            mesh_status: ShardStatus::fresh(gen_id),
        }
        .digest()
    }
}

/// The traced pass's state.
struct Traced<'a> {
    inputs: &'a Inputs,
    svc: GeometryService,
    untraced: GeometryService,
    replica: Replica,
    model: Model,
    tracer: Tracer,
    ops: Vec<Op>,
    counts: Counts,
    failed: usize,
    answers: u64,
}

/// Results of the traced pass.
pub struct Outcome {
    pub ops: usize,
    pub failed: usize,
    /// Fold of every traced answer, in order.
    pub answers_digest: u64,
    /// Whether layer self times add up to operation times within
    /// [`PARTS_TOLERANCE`] (see there).
    pub parts_add_up: bool,
}

/// The order the traced pass issues a plan's operations in.
fn op_order(workload: Workload, plan: Plan) -> Vec<(OpKind, usize)> {
    let reads = (0..plan.read_batches).map(|b| (OpKind::Read(kind_of_batch(b)), b));
    let writes = (0..plan.write_batches).map(|j| (OpKind::Write, j));
    let setup = std::iter::once((OpKind::Setup, 0));
    match workload {
        Workload::ReadStatic => setup.chain(reads).chain(writes).collect(),
        Workload::Ingest => writes.chain(reads).collect(),
        Workload::Churn => {
            // Writes spread evenly between reads, as the open loop's due
            // times spread them over the reader's run.
            let (r, w) = (plan.read_batches, plan.write_batches);
            let mut order: Vec<(OpKind, usize)> = setup.collect();
            let mut next = 0;
            for b in 0..r {
                while next < w && next * r <= b * w {
                    order.push((OpKind::Write, next));
                    next += 1;
                }
                order.push((OpKind::Read(kind_of_batch(b)), b));
            }
            order.extend((next..w).map(|j| (OpKind::Write, j)));
            order
        }
    }
}

/// Run the traced pass over the plan's prefix of `inputs`, writing the
/// spans to `spans_path`, and add the per-layer metrics to `m`.
pub fn run(inputs: &Inputs, plan: Plan, spans_path: &std::path::Path, m: &mut Metrics) -> Outcome {
    let mut pass = Traced {
        inputs,
        svc: GeometryService::new(SHARDS),
        untraced: GeometryService::new(SHARDS),
        replica: Replica::new(),
        model: Model::default(),
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        },
        ops: Vec::new(),
        counts: Counts::default(),
        failed: 0,
        answers: 0,
    };
    for (kind, i) in op_order(inputs.workload, plan) {
        match kind {
            OpKind::Read(_) => pass.read(i),
            OpKind::Setup => {
                let preload = inputs.preload.as_ref().expect("a preloaded workload");
                pass.apply(preload, true);
            }
            OpKind::Write => pass.apply(&inputs.writes[i], false),
        }
    }
    pass.write_spans(spans_path);
    let parts_add_up = pass.metrics(m);
    Outcome {
        ops: pass.ops.len(),
        failed: pass.failed,
        answers_digest: pass.answers,
        parts_add_up,
    }
}

/// Time `f` on the untraced service; the result drops after the clock stops.
fn untraced<T>(f: impl FnOnce() -> T) -> u64 {
    let t = Instant::now();
    let value = f();
    let ns = t.elapsed().as_nanos() as u64;
    drop(value);
    ns
}

impl Traced<'_> {
    fn next_op(&self) -> u32 {
        self.ops.len() as u32
    }

    fn read(&mut self, b: usize) {
        let qb: &QueryBatch = &self.inputs.reads[b];
        let kind = kind_of_batch(b);
        let k = kind.index();
        let op = self.next_op();
        // Alternate which copy runs first, so cache warmth favours neither.
        let mut untraced_ns = 0;
        if op % 2 == 0 {
            untraced_ns = untraced(|| self.untraced.serve(qb));
        }
        let start = self.tracer.now();
        let (out, cost) = measure(Omega::default(), || self.svc.serve(qb));
        let end = self.tracer.now();
        if op % 2 == 1 {
            untraced_ns = untraced(|| self.untraced.serve(qb));
        }
        let span = self.tracer.record(serve_name(kind), op, None, start, end);
        self.ops.push(Op {
            kind: OpKind::Read(kind),
            span,
            untraced: untraced_ns,
        });
        let degraded = out.degraded || out.answers.len() != qb.queries.len();
        let answers: Vec<Summary> = out.answers.iter().map(Summary::of).collect();
        drop(out);
        if !read_ok(&self.model, qb, degraded, &answers) {
            self.failed += 1;
        }
        let c = &mut self.counts;
        c.queries[k] += qb.queries.len() as u64;
        c.reads[k] += cost.reads;
        for a in &answers {
            c.ids[k] += a.ids();
            self.answers = fold(self.answers, a.word());
        }
        for q in &qb.queries {
            self.probe(op, span, kind, q);
        }
    }

    /// Repeat one query's layer calls on the replica.
    fn probe(&mut self, op: u32, parent: u32, kind: Kind, q: &Query) {
        let name = probe_name(kind);
        let k = kind.index();
        let t = &mut self.tracer;
        let r = &self.replica;
        let c = &mut self.counts;
        match *q {
            Query::Locate { x, y } => {
                t.span(name, op, parent, || r.mesh.locate(GridPoint::new(x, y)));
            }
            Query::Nearest { x, y } => {
                let hits: Vec<_> = r
                    .built
                    .iter()
                    .map(|s| t.span(name, op, parent, || s.nearest(x, y)).0)
                    .collect();
                let best = hits
                    .iter()
                    .flatten()
                    .map(|h| (h.dist2, h.id))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                c.probes[k] += hits.len() as u64;
                c.useful[k] += hits
                    .iter()
                    .flatten()
                    .filter(|h| Some((h.dist2, h.id)) == best)
                    .count() as u64;
            }
            _ => {
                for s in &r.built {
                    let (ids, _) = t.span(name, op, parent, || match *q {
                        Query::Stab { x } => s.stab(x),
                        Query::Range2D { rect } => s.range2d(&rect),
                        Query::ThreeSided { x_lo, x_hi, y_bot } => s.three_sided(x_lo, x_hi, y_bot),
                        _ => unreachable!("shard id queries only"),
                    });
                    c.probes[k] += 1;
                    c.useful[k] += u64::from(!ids.is_empty());
                }
            }
        }
    }

    fn apply(&mut self, batch: &UpdateBatch, setup: bool) {
        let op = self.next_op();
        let mut untraced_ns = 0;
        if op % 2 == 0 {
            untraced_ns = untraced(|| self.untraced.apply(batch));
        }
        let start = self.tracer.now();
        let (report, cost) = measure(Omega::default(), || self.svc.apply(batch));
        let end = self.tracer.now();
        if op % 2 == 1 {
            untraced_ns = untraced(|| self.untraced.apply(batch));
        }
        let span = self.tracer.record("service.apply", op, None, start, end);
        self.ops.push(Op {
            kind: if setup { OpKind::Setup } else { OpKind::Write },
            span,
            untraced: untraced_ns,
        });
        if !(report.published && report.quarantined.is_empty()) {
            self.failed += 1;
        }
        self.model.apply(batch);
        let r = &mut self.replica;
        r.mutate(batch);
        let mut rebuilt = 0u64;
        let mut dirtied = 0u64;
        for s in 0..SHARDS {
            if !r.dirty[s] {
                continue;
            }
            let data = &r.data[s];
            let (g, build) = self
                .tracer
                .span("gen.shard_build", op, span, || ShardGen::build(data));
            r.built[s] = Arc::new(g);
            r.dirty[s] = false;
            rebuilt += (data.intervals.len() + data.points.len()) as u64;
            dirtied += 1;
            engine_builds(&mut self.tracer, &mut self.counts, op, build, data);
        }
        if r.sites_dirty {
            let (sites, ids) = (&r.sites, &r.site_ids);
            let (mesh, build) = self
                .tracer
                .span("gen.mesh_build", op, span, || MeshGen::build(sites, ids));
            r.mesh = Arc::new(mesh);
            r.sites_dirty = false;
            rebuilt += sites.len() as u64;
            engine(
                &mut self.tracer,
                &mut self.counts,
                (op, build),
                4,
                sites.len(),
                || triangulate_write_efficient(sites, MESH_SEED),
            );
        }
        let digest = r.digest(report.gen_id);
        assert_eq!(
            digest,
            self.svc.digest(),
            "replica digest differs from the served generation {}",
            report.gen_id
        );
        if !setup {
            let c = &mut self.counts;
            c.applies += 1;
            c.updates += batch.updates.len() as u64;
            c.rebuilt += rebuilt;
            c.dirtied += dirtied;
            c.apply_reads += cost.reads;
            c.apply_writes += cost.writes;
        }
    }

    fn write_spans(&self, path: &std::path::Path) {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create the spans directory");
        }
        let file = fs::File::create(path).expect("create the spans file");
        let mut w = BufWriter::new(file);
        for (i, s) in self.tracer.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{{\"span\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start, s.end
            )
            .expect("write a span");
        }
        w.flush().expect("flush the spans file");
    }

    /// Per-layer metrics from the spans and counts.
    fn metrics(&self, m: &mut Metrics) -> bool {
        let t = &self.tracer;
        // Children's summed duration per span.
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let self_ns = |i: usize| t.duration(i as u32).saturating_sub(child_ns[i]);
        // Self time per layer (first name component) per op.
        let mut layer_ns: Vec<[u64; 5]> = vec![[0; 5]; self.ops.len()];
        for (i, s) in t.spans.iter().enumerate() {
            layer_ns[s.op as usize][layer_of(s.name)] += self_ns(i);
        }
        // The parts check (see `PARTS_TOLERANCE`).
        let mut class_parts = [0u64; 6];
        let mut class_total = [0u64; 6];
        let mut class_overshoot: [Vec<f64>; 6] = Default::default();
        let mut op_overshoot = Vec::with_capacity(self.ops.len());
        for (o, op) in self.ops.iter().enumerate() {
            let class = match op.kind {
                OpKind::Read(kind) => kind.index(),
                OpKind::Setup | OpKind::Write => 5,
            };
            let total = t.duration(op.span);
            let parts: u64 = layer_ns[o].iter().sum();
            class_parts[class] += parts;
            class_total[class] += total;
            let over = ratio((parts - total) as f64, total as f64);
            class_overshoot[class].push(over);
            op_overshoot.push(over);
        }
        let parts_add_up = class_overshoot
            .iter()
            .filter(|v| !v.is_empty())
            .all(|v| median(v) <= PARTS_TOLERANCE);
        let overshoot = (0..6)
            .map(|c| {
                ratio(
                    (class_parts[c] - class_total[c]) as f64,
                    class_total[c] as f64,
                )
            })
            .fold(0.0, f64::max);

        let us = |ns: u64| ns as f64 / 1e3;
        let ms = |ns: u64| ns as f64 / 1e6;
        let c = &self.counts;
        let reads_total: u64 = self
            .ops
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Read(_)))
            .map(|op| t.duration(op.span))
            .sum();
        for kind in KINDS {
            let k = kind.index();
            let ops: Vec<usize> = (0..self.ops.len())
                .filter(|&o| self.ops[o].kind == OpKind::Read(kind))
                .collect();
            let total: u64 = ops.iter().map(|&o| t.duration(self.ops[o].span)).sum();
            let sum = |l: usize| ops.iter().map(|&o| layer_ns[o][l]).sum::<u64>();
            let per_batch = |l: usize| us(sum(l)) / ops.len() as f64;
            let name = kind.name();
            m.push(format!("service.serve.{name}.self_us"), per_batch(0), "us");
            m.push(format!("gen.probe.{name}_us"), per_batch(1), "us");
            m.push(
                format!("service.serve.{name}.time_share"),
                ratio(total as f64, reads_total as f64),
                "frac",
            );
            m.push(
                format!("service.serve.{name}.self_share"),
                ratio(sum(0) as f64, total as f64),
                "frac",
            );
            m.push(
                format!("gen.probe.{name}.share"),
                ratio(sum(1) as f64, total as f64),
                "frac",
            );
            if kind != Kind::Locate {
                m.push(
                    format!("gen.probe.{name}.hit_ratio"),
                    ratio(c.useful[k] as f64, c.probes[k] as f64),
                    "frac",
                );
            }
            let per_query = |v: u64| ratio(v as f64, c.queries[k] as f64);
            m.push(
                format!("service.serve.{name}.ids_per_query"),
                per_query(c.ids[k]),
                "count",
            );
            m.push(
                format!("service.serve.{name}.charged_reads_per_query"),
                per_query(c.reads[k]),
                "count",
            );
        }

        let applies: Vec<usize> = (0..self.ops.len())
            .filter(|&o| self.ops[o].kind == OpKind::Write)
            .collect();
        let apply_self: u64 = applies.iter().map(|&o| layer_ns[o][0]).sum();
        m.push(
            "service.apply.self_ms",
            ms(apply_self) / applies.len() as f64,
            "ms",
        );
        let durations = |name: &str| -> Vec<f64> {
            t.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| ms(s.end - s.start))
                .collect()
        };
        m.push(
            "gen.shard_build_ms",
            median(&durations("gen.shard_build")),
            "ms",
        );
        m.push(
            "delaunay.mesh_build_ms",
            median(&durations("gen.mesh_build")),
            "ms",
        );
        for (e, (span_name, metric)) in ENGINES.iter().enumerate() {
            if e < 4 {
                m.push(
                    format!("{metric}.build_ms"),
                    median(&durations(span_name)),
                    "ms",
                );
            }
            m.push(
                format!("{metric}.charged_writes_per_elem"),
                ratio(c.engine_writes[e] as f64, c.engine_elems[e] as f64),
                "count",
            );
        }
        let per_update = |v: u64| ratio(v as f64, c.updates as f64);
        m.push(
            "service.apply.elements_rebuilt_per_update",
            per_update(c.rebuilt),
            "count",
        );
        m.push(
            "service.apply.shards_dirtied_per_batch",
            ratio(c.dirtied as f64, c.applies as f64),
            "count",
        );
        m.push(
            "service.apply.charged_writes_per_update",
            per_update(c.apply_writes),
            "count",
        );
        m.push(
            "service.apply.charged_reads_per_update",
            per_update(c.apply_reads),
            "count",
        );
        let apply_total: u64 = applies.iter().map(|&o| t.duration(self.ops[o].span)).sum();
        let apply_layer = |l: usize| {
            ratio(
                applies.iter().map(|&o| layer_ns[o][l]).sum::<u64>() as f64,
                apply_total as f64,
            )
        };
        m.push("service.apply.self_share", apply_layer(0), "frac");
        m.push("gen.apply.self_share", apply_layer(1), "frac");
        m.push("augtree.apply.share", apply_layer(2), "frac");
        m.push("kdtree.apply.share", apply_layer(3), "frac");
        m.push("delaunay.apply.share", apply_layer(4), "frac");

        let traced: u64 = self.ops.iter().map(|op| t.duration(op.span)).sum();
        let plain: u64 = self.ops.iter().map(|op| op.untraced).sum();
        m.push(
            "trace.overhead_frac",
            ratio(traced as f64 - plain as f64, plain as f64),
            "frac",
        );
        m.push("trace.parts_overshoot_frac", overshoot, "frac");
        m.push(
            "trace.op_overshoot_p90_frac",
            percentile(&op_overshoot, 90),
            "frac",
        );
        parts_add_up
    }
}

/// Re-run one shard's four engine builds as children of its build span.
fn engine_builds(t: &mut Tracer, c: &mut Counts, op: u32, parent: u32, data: &ShardData) {
    let (ivs, pts) = (data.intervals.len(), data.points.len());
    engine(t, c, (op, parent), 0, ivs, || {
        IntervalTree::build_parallel(&data.intervals, SERVICE_ALPHA)
    });
    engine(t, c, (op, parent), 1, pts, || {
        RangeTree2D::build(&data.points, SERVICE_ALPHA)
    });
    let ps: Vec<PsPoint> = data
        .points
        .iter()
        .map(|p| PsPoint {
            point: p.point,
            id: p.id,
        })
        .collect();
    engine(t, c, (op, parent), 2, pts, || {
        PrioritySearchTree::build_parallel(&ps)
    });
    let kd: Vec<Point2> = data.points.iter().map(|p| p.point).collect();
    let p = recommended_p(kd.len());
    engine(t, c, (op, parent), 3, pts, || {
        build_p_batched(&kd, p, KD_LEAF_CAPACITY, KD_SEED)
    });
}

/// One build of engine `e` (an index into [`ENGINES`]) over `elems`
/// elements, as a span under `(op, parent)`, with its charged writes.  The
/// built value drops after the span ends.
fn engine<T>(
    t: &mut Tracer,
    c: &mut Counts,
    (op, parent): (u32, u32),
    e: usize,
    elems: usize,
    f: impl FnOnce() -> T,
) {
    let ((_built, cost), _) = t.span(ENGINES[e].0, op, parent, || measure(Omega::default(), f));
    c.engine_elems[e] += elems as u64;
    c.engine_writes[e] += cost.writes;
}

/// Layer index of a span name: service, gen, augtree, kdtree, delaunay.
fn layer_of(name: &str) -> usize {
    match name.split('.').next() {
        Some("service") => 0,
        Some("gen") => 1,
        Some("augtree") => 2,
        Some("kdtree") => 3,
        Some("delaunay") => 4,
        _ => unreachable!("unknown layer in span {name}"),
    }
}

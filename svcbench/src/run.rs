//! The end-to-end pass: set-up, the workload's reader and writer loops,
//! and the oracle check of every answer and every apply.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pwe_service::{GeometryService, QueryBatch, UpdateBatch};

use crate::oracle::{Model, Summary};
use crate::report::{median, percentile, ratio, Metrics};
use crate::workload::{kind_of_batch, Elements, Plan, Workload, CHURN_RATE_HZ, KINDS, SHARDS};

/// Set-ups per run for a preloaded workload (median reported).
const SETUP_REPS_PRELOAD: usize = 7;
/// Set-ups per run for an empty start, which takes microseconds.
const SETUP_REPS_EMPTY: usize = 1001;
/// Threads the oracle check uses.
const CHECK_THREADS: usize = 2;
/// Consecutive rounds a run's samples are split into for the tail
/// percentiles and the throughputs: each is the median over rounds of its
/// value in each round, so a burst of interference from other tenants that
/// covers a minority of the run moves it little.  (On a shared 2-CPU
/// machine this halved the run-to-run spread of the p90s; medians over the
/// whole run spread less than medians over rounds, so p50s use the whole
/// run.)
const ROUNDS: usize = 5;
/// `current_gen_id` calls per pin sample.
const PIN_REPS: u32 = 32;

/// A workload's generated inputs.
pub struct Inputs {
    pub workload: Workload,
    /// The starting state's single batch (preloaded workloads only).
    pub preload: Option<UpdateBatch>,
    pub reads: Vec<QueryBatch>,
    pub writes: Vec<UpdateBatch>,
}

impl Inputs {
    /// Generate every input of one run.
    pub fn generate(workload: Workload, seed: u64, plan: Plan) -> Inputs {
        let elements = Elements::generate(seed);
        let preload = workload.preloaded().then(|| elements.preload());
        let writes = crate::workload::write_batches(workload, seed, &elements, plan.write_batches);
        Inputs {
            workload,
            preload,
            reads: crate::workload::read_batches(seed, plan.read_batches),
            writes,
        }
    }

    /// The generation a fresh service reaches after set-up.
    pub fn base_gen(&self) -> u64 {
        u64::from(self.preload.is_some())
    }
}

/// One served query batch.
pub struct ReadRecord {
    pub batch: usize,
    pub gen: u64,
    pub latency: Duration,
    /// Degraded, or the wrong number of answers.
    pub degraded: bool,
    pub answers: Vec<Summary>,
}

/// One applied update batch.
pub struct WriteRecord {
    /// Published, nothing quarantined, and the expected generation id.
    pub ok: bool,
    pub updates: usize,
    /// When the batch was due, since the writer started.
    pub due: Duration,
    /// From when the batch was due to when `apply` was called.
    pub lag: Duration,
    /// From when the batch was due to when `apply` returned.
    pub latency: Duration,
}

/// Everything the end-to-end pass measured.
pub struct Pass {
    pub setup: Vec<Duration>,
    pub reads: Vec<ReadRecord>,
    pub writes: Vec<WriteRecord>,
    pub pin_ns: Vec<f64>,
    pub stale_reads: usize,
}

/// A fresh service in the workload's starting state.
pub fn start(inputs: &Inputs) -> GeometryService {
    let svc = GeometryService::new(SHARDS);
    if let Some(preload) = &inputs.preload {
        let r = svc.apply(preload);
        assert!(
            r.published && r.gen_id == 1,
            "preload did not publish: {r:?}"
        );
    }
    svc
}

/// Reach the starting state several times, timing each; keep the last.
fn setup(inputs: &Inputs) -> (GeometryService, Vec<Duration>) {
    let reps = if inputs.preload.is_some() {
        SETUP_REPS_PRELOAD
    } else {
        SETUP_REPS_EMPTY
    };
    let mut times = Vec::with_capacity(reps);
    let mut svc = None;
    for _ in 0..reps {
        drop(svc.take());
        let t = Instant::now();
        svc = Some(start(inputs));
        times.push(t.elapsed());
    }
    (svc.expect("at least one set-up"), times)
}

/// Closed-loop reader: serve every batch, one after another.
fn read_loop(svc: &GeometryService, batches: &[QueryBatch]) -> (Vec<ReadRecord>, Vec<f64>, usize) {
    let mut records = Vec::with_capacity(batches.len());
    let mut pin_ns = Vec::with_capacity(batches.len());
    let mut stale = 0;
    for (batch, qb) in batches.iter().enumerate() {
        let t = Instant::now();
        let out = svc.serve(qb);
        let latency = t.elapsed();
        let p = Instant::now();
        let mut latest = 0;
        for _ in 0..PIN_REPS {
            latest = latest.max(svc.current_gen_id());
        }
        pin_ns.push(p.elapsed().as_nanos() as f64 / f64::from(PIN_REPS));
        stale += usize::from(out.gen_id < latest);
        records.push(ReadRecord {
            batch,
            gen: out.gen_id,
            latency,
            degraded: out.degraded || out.answers.len() != qb.queries.len(),
            answers: out.answers.iter().map(Summary::of).collect(),
        });
    }
    (records, pin_ns, stale)
}

/// Single writer.  Open loop (`period` set): batch `i` is due at
/// `start + i·period` whatever happened before.  Closed loop: a batch is
/// due when the previous one returned.
fn write_loop(
    svc: &GeometryService,
    batches: &[UpdateBatch],
    period: Option<Duration>,
    first_gen: u64,
) -> Vec<WriteRecord> {
    let start = Instant::now();
    let mut due = start;
    let mut records = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        if let Some(p) = period {
            due = start + p * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let called = Instant::now();
        let r = svc.apply(batch);
        let end = Instant::now();
        records.push(WriteRecord {
            ok: r.published && r.quarantined.is_empty() && r.gen_id == first_gen + i as u64,
            updates: batch.updates.len(),
            due: due - start,
            lag: called - due,
            latency: end - due,
        });
        due = end;
    }
    records
}

/// Run the workload's timed phases over the plan's prefix of the inputs.
pub fn run(inputs: &Inputs, plan: Plan) -> Pass {
    let (svc, setup) = setup(inputs);
    let first_gen = inputs.base_gen() + 1;
    let reads = &inputs.reads[..plan.read_batches];
    let writes = &inputs.writes[..plan.write_batches];
    let ((reads, pin_ns, stale_reads), writes) = match inputs.workload {
        Workload::ReadStatic => {
            let r = read_loop(&svc, reads);
            (r, write_loop(&svc, writes, None, first_gen))
        }
        Workload::Ingest => {
            let w = write_loop(&svc, writes, None, first_gen);
            (read_loop(&svc, reads), w)
        }
        Workload::Churn => {
            // The writer runs on its own thread beside the reader: each
            // gets a CPU of a two-CPU machine, and the writer's waits for
            // due times hold up no pool thread.
            let period = Duration::from_secs_f64(1.0 / CHURN_RATE_HZ);
            let go = Barrier::new(2);
            std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    go.wait();
                    write_loop(&svc, writes, Some(period), first_gen)
                });
                go.wait();
                let r = read_loop(&svc, reads);
                (r, writer.join().expect("writer thread panicked"))
            })
        }
    };
    Pass {
        setup,
        reads,
        writes,
        pin_ns,
        stale_reads,
    }
}

/// Check every read against the oracle model of the generation it names;
/// returns the failed operations (reads and writes).
pub fn verify(inputs: &Inputs, pass: &Pass) -> usize {
    let mut order: Vec<&ReadRecord> = pass.reads.iter().collect();
    order.sort_by_key(|r| r.gen);
    let mut model = Model::default();
    if let Some(p) = &inputs.preload {
        model.apply(p);
    }
    let base = inputs.base_gen();
    let mut model_gen = base;
    let mut failed = pass.writes.iter().filter(|w| !w.ok).count();
    let mut rest = &order[..];
    while let Some(first) = rest.first() {
        let gen = first.gen;
        let len = rest.iter().take_while(|r| r.gen == gen).count();
        let (group, tail) = rest.split_at(len);
        rest = tail;
        if gen < base || gen > base + pass.writes.len() as u64 {
            eprintln!(
                "svcbench: {} batches served unknown generation {gen}",
                group.len()
            );
            failed += group.len();
            continue;
        }
        while model_gen < gen {
            model.apply(&inputs.writes[(model_gen - base) as usize]);
            model_gen += 1;
        }
        // Checked on scoped threads beside the pool (which may be one
        // thread wide); nothing is timed here.
        let chunk = group.len().div_ceil(CHECK_THREADS);
        let model = &model;
        let bad: Vec<&ReadRecord> = std::thread::scope(|s| {
            let workers: Vec<_> = group
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .filter(|r| {
                                !read_ok(model, &inputs.reads[r.batch], r.degraded, &r.answers)
                            })
                            .copied()
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        });
        for r in &bad {
            report_failure(model, &inputs.reads[r.batch], r);
        }
        failed += bad.len();
    }
    failed
}

/// Name the failing answers of a failed read on standard error.
fn report_failure(model: &Model, qb: &QueryBatch, r: &ReadRecord) {
    if r.degraded {
        eprintln!(
            "svcbench: batch {} at generation {} was degraded",
            r.batch, r.gen
        );
    }
    for (q, a) in qb.queries.iter().zip(&r.answers) {
        if !model.check(q, a) {
            eprintln!(
                "svcbench: wrong answer at generation {}: {q:?} -> {a:?}",
                r.gen
            );
        }
    }
}

/// Whether a served batch is undegraded and every answer matches the model.
pub fn read_ok(model: &Model, qb: &QueryBatch, degraded: bool, answers: &[Summary]) -> bool {
    !degraded
        && qb
            .queries
            .iter()
            .zip(answers)
            .all(|(q, a)| model.check(q, a))
}

/// The median over [`ROUNDS`] consecutive rounds of time-ordered `samples`
/// of `stat` of each round.
fn over_rounds<T>(samples: &[T], stat: impl Fn(&[T]) -> f64) -> f64 {
    let rounds: Vec<f64> = samples
        .chunks(samples.len().div_ceil(ROUNDS))
        .map(stat)
        .collect();
    median(&rounds)
}

/// Percentile `pct` of time-ordered samples, over rounds.
fn round_percentile(samples: &[f64], pct: usize) -> f64 {
    over_rounds(samples, |round| percentile(round, pct))
}

/// The end-to-end metrics of a pass.
pub fn end_to_end(pass: &Pass, m: &mut Metrics) {
    let setup: Vec<f64> = pass.setup.iter().map(Duration::as_secs_f64).collect();
    m.push("setup_s", median(&setup), "s");
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for kind in KINDS {
        let lat: Vec<f64> = pass
            .reads
            .iter()
            .filter(|r| kind_of_batch(r.batch) == kind)
            .map(|r| us(r.latency))
            .collect();
        m.push(
            format!("{}_p50_us", kind.name()),
            percentile(&lat, 50),
            "us",
        );
        m.push(
            format!("{}_p90_us", kind.name()),
            round_percentile(&lat, 90),
            "us",
        );
    }
    let qps = over_rounds(&pass.reads, |round| {
        let queries: usize = round.iter().map(|r| r.answers.len()).sum();
        let busy: f64 = round.iter().map(|r| r.latency.as_secs_f64()).sum();
        ratio(queries as f64, busy)
    });
    m.push("read_qps", qps, "1/s");
    let ms: Vec<f64> = pass
        .writes
        .iter()
        .map(|w| w.latency.as_secs_f64() * 1e3)
        .collect();
    m.push("apply_p50_ms", percentile(&ms, 50), "ms");
    m.push("apply_p90_ms", round_percentile(&ms, 90), "ms");
    let ups = over_rounds(&pass.writes, |round| {
        let updates: usize = round.iter().map(|w| w.updates).sum();
        let (first, last) = (&round[0], &round[round.len() - 1]);
        let wall = last.due + last.latency - first.due;
        ratio(updates as f64, wall.as_secs_f64())
    });
    m.push("updates_per_s", ups, "1/s");
}

/// The per-layer metrics the end-to-end pass itself measures.
pub fn layer_evidence(pass: &Pass, m: &mut Metrics) {
    m.push("service.pin_ns", median(&pass.pin_ns), "ns");
    m.push(
        "service.stale_read_frac",
        ratio(pass.stale_reads as f64, pass.reads.len() as f64),
        "frac",
    );
    let lag: Vec<f64> = pass
        .writes
        .iter()
        .map(|w| w.lag.as_secs_f64() * 1e3)
        .collect();
    m.push("bench.writer_lag_ms", percentile(&lag, 90), "ms");
}

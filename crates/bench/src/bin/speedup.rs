//! Self-relative speedup report and baseline-vs-write-efficient sweeps, as
//! machine-readable JSON (one line per configuration on stdout).
//!
//! The pool reads `RAYON_NUM_THREADS` exactly once, when it starts, so one
//! process cannot measure two thread counts.  The parent therefore
//! re-executes itself (`--child <workload>` / `--child-sweep <workload>`)
//! once per `(workload, n, threads)` tuple with the environment variable
//! set, collects each child's JSON lines, and re-emits them.  A
//! human-readable summary goes to stderr.
//!
//! Modes:
//!
//! * **speedup** (default) — one line per `(workload, n, threads)` with a
//!   `"speedup_vs_1t"` field computed against the child's own 1-thread run.
//! * **`--sweep`** — the write-vs-read crossover: one line per
//!   `(workload, n, omega, threads)` comparing the write-inefficient
//!   baseline against the write-efficient variant.  The counters do not
//!   depend on ω (only the `work = reads + ω·writes` weighting does), so
//!   each child measures once and derives every ω row.  Sweep workloads:
//!   `delaunay` (ParIncrementalDT vs prefix-doubling+tracing), `sort`
//!   (merge sort vs incremental), `kdtree` (classic vs p-batched build)
//!   and the augmented-tree builds `interval`, `priority`, `range` (classic
//!   per-level-copy constructions vs the parallel allocation-lean engine;
//!   `BENCH_augtree.json` holds committed trajectory points of this
//!   schema).
//! * **`--queries`** — the predicate-kernel A/B: one `query_compare` line
//!   per query workload, timing the same predicate stream through a
//!   "before" and an "after" kernel (`delaunay_locate`: the one-at-a-time
//!   exact predicates against the width-filtered batch kernels;
//!   `incircle_simd`: the scalar batch loop against the dispatched SIMD
//!   kernel).  The stream is processed in batches of `--qbatch` queries
//!   (default 256).  Both sides must report identical answers and
//!   identical read/write/depth counters — the kernels are machine-level
//!   rearrangements, invisible to the cost model — and the line records
//!   both, so a committed `BENCH_queries.json` row is self-validating.  The
//!   fields keep their historical names: `flat_*` is the before side,
//!   `blocked_*` the after side.
//! * **`--smoke`** — a tiny in-process sweep that validates the JSON
//!   emitter and asserts the ω-crossover claim (at the largest swept ω the
//!   write-efficient variant must cost less work), then runs every query
//!   workload at a small n and asserts answer and counter equality of its
//!   two sides; exits non-zero on violation.  CI runs this so
//!   the emitter cannot silently rot.
//!
//! Every JSON row carries `threads_available` (detected parallelism) and
//! `rayon_threads` (actual pool width), so committed trajectories from a
//! 1-CPU build container are distinguishable from real multicore CI rows.
//!
//! Usage:
//!   cargo run --release -p pwe-bench --bin speedup                 # all workloads
//!   cargo run --release -p pwe-bench --bin speedup -- --workload sort --n 500000
//!   cargo run --release -p pwe-bench --bin speedup -- --threads 1,2,8
//!   cargo run --release -p pwe-bench --bin speedup -- --sweep --ns 10000,50000
//!   cargo run --release -p pwe-bench --bin speedup -- --sweep --workload sort --omegas 1,10,40
//!   cargo run --release -p pwe-bench --bin speedup -- --queries --workload incircle_simd --n 200000
//!   cargo run --release -p pwe-bench --bin speedup -- --smoke
//!
//! Speedup workloads: the theorem experiments (`sort`, `mergesort`,
//! `delaunay`, `kdtree`), the parallel primitives behind them (`semisort`,
//! `scan`), and the Table-1 tree constructions (`interval`, `priority`,
//! `range`).

use std::process::Command;

use pwe_asym::cost::{measure, CostReport, Omega};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_delaunay::{triangulate_baseline, triangulate_write_efficient};
use pwe_geom::generators::{random_intervals, uniform_grid_points, uniform_points_2d};
use pwe_geom::predicates::is_ccw;
use pwe_geom::{in_circle, in_circle_batch, in_circle_batch_scalar, GridPoint};
use pwe_kdtree::build::{build_classic, build_p_batched, recommended_p};
use pwe_primitives::scan::par_exclusive_scan;
use pwe_primitives::semisort::semisort_by_key;
use pwe_sort::{incremental_sort, merge_sort_baseline};
use rand::Rng;
use rand::SeedableRng;

const WORKLOADS: &[&str] = &[
    "sort",
    "mergesort",
    "semisort",
    "scan",
    "delaunay",
    "kdtree",
    "interval",
    "priority",
    "range",
];

/// Sweep workloads: each pairs a write-inefficient baseline with its
/// write-efficient counterpart.  The three augmented-tree workloads compare
/// the classic per-level-copy constructions against the parallel
/// allocation-lean engine of `pwe_augtree::engine` (the range tree's
/// baseline is the textbook α = 2 build, where every node carries an inner
/// structure; the engine builds at α = 8).
const SWEEP_WORKLOADS: &[&str] = &[
    "delaunay", "sort", "kdtree", "interval", "priority", "range",
];

/// Query workloads: each times one predicate stream twice
/// (`delaunay_locate` compares one-at-a-time exact predicates against the
/// width-filtered batch kernels; `incircle_simd` compares the scalar batch
/// loop against the dispatched AVX2 kernel).  Answers and read/write/depth
/// counters must match exactly on every row (MODEL.md §3.3).
const QUERY_WORKLOADS: &[&str] = &["delaunay_locate", "incircle_simd"];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(workload) = arg_str(&args, "--child") {
        let n = arg_usize(&args, "--n");
        println!("{}", run_child(&workload, n));
        return;
    }
    if let Some(workload) = arg_str(&args, "--child-sweep") {
        let n = arg_usize(&args, "--n").expect("--child-sweep requires --n");
        let omegas = parse_list(&arg_str(&args, "--omegas").expect("--child-sweep needs --omegas"));
        for line in run_sweep_child(&workload, n, &omegas) {
            println!("{line}");
        }
        return;
    }
    if let Some(workload) = arg_str(&args, "--child-queries") {
        let n = arg_usize(&args, "--n");
        let qbatch = arg_usize(&args, "--qbatch").unwrap_or(DEFAULT_QBATCH);
        println!("{}", run_query_child(&workload, n, qbatch));
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    if args.iter().any(|a| a == "--sweep") {
        run_sweep_parent(&args);
        return;
    }
    if args.iter().any(|a| a == "--queries") {
        run_queries_parent(&args);
        return;
    }
    run_parent(&args);
}

/// Default query-stream batch size for `--queries`.
const DEFAULT_QBATCH: usize = 256;

/// Signature shared by the two `incircle_simd` A/B sides (the scalar batch
/// loop and the dispatched kernel).
type InCircleBatchFn = dyn Fn(GridPoint, GridPoint, GridPoint, &[i64], &[i64], &mut [bool]);

/// The `"threads_available":…,"rayon_threads":…` fragment every JSON row
/// carries (container-vs-CI provenance of committed trajectories).
fn thread_fields() -> String {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "\"threads_available\":{available},\"rayon_threads\":{}",
        rayon::current_num_threads()
    )
}

/// One measured run inside a child process whose pool size is already fixed
/// by `RAYON_NUM_THREADS`.
fn run_child(workload: &str, n_override: Option<usize>) -> String {
    let threads = rayon::current_num_threads();
    let (n, report) = run_workload(workload, n_override);
    format!(
        "{{\"workload\":\"{workload}\",\"n\":{n},\"threads\":{threads},{},\
         \"millis\":{:.3},\"reads\":{},\"writes\":{},\"depth\":{}}}",
        thread_fields(),
        report.elapsed.as_secs_f64() * 1e3,
        report.reads,
        report.writes,
        report.depth
    )
}

fn run_workload(workload: &str, n_override: Option<usize>) -> (usize, CostReport) {
    let omega = Omega::new(1);
    match workload {
        "sort" => {
            let n = n_override.unwrap_or(200_000);
            let keys = random_keys(n, 42);
            let (_, r) = measure(omega, || incremental_sort(&keys, 7));
            (n, r)
        }
        "mergesort" => {
            let n = n_override.unwrap_or(400_000);
            let keys = random_keys(n, 43);
            let (_, r) = measure(omega, || merge_sort_baseline(&keys));
            (n, r)
        }
        "semisort" => {
            let n = n_override.unwrap_or(1_000_000);
            let keys = random_keys(n, 44);
            let (_, r) = measure(omega, || semisort_by_key(&keys, |k| k % 1009));
            (n, r)
        }
        "scan" => {
            let n = n_override.unwrap_or(4_000_000);
            let input: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 101).collect();
            let (_, r) = measure(omega, || par_exclusive_scan(&input));
            (n, r)
        }
        "delaunay" => {
            let n = n_override.unwrap_or(20_000);
            let points = uniform_grid_points(n, 1 << 20, 3);
            let (_, r) = measure(omega, || triangulate_write_efficient(&points, 5));
            (n, r)
        }
        "kdtree" => {
            let n = n_override.unwrap_or(200_000);
            let points = uniform_points_2d(n, 11);
            let (_, r) = measure(omega, || build_p_batched(&points, recommended_p(n), 16, 13));
            (n, r)
        }
        "interval" => {
            let n = n_override.unwrap_or(100_000);
            let intervals = random_intervals(n, 1e6, 200.0, 17);
            let (_, r) = measure(omega, || IntervalTree::build_parallel(&intervals, 2));
            (n, r)
        }
        "priority" => {
            let n = n_override.unwrap_or(100_000);
            let points: Vec<PsPoint> = uniform_points_2d(n, 23)
                .into_iter()
                .enumerate()
                .map(|(i, point)| PsPoint {
                    point,
                    id: i as u64,
                })
                .collect();
            let (_, r) = measure(omega, || PrioritySearchTree::build_parallel(&points));
            (n, r)
        }
        "range" => {
            let n = n_override.unwrap_or(50_000);
            let points: Vec<RtPoint> = uniform_points_2d(n, 31)
                .into_iter()
                .enumerate()
                .map(|(i, point)| RtPoint {
                    point,
                    id: i as u64,
                })
                .collect();
            let (_, r) = measure(omega, || RangeTree2D::build(&points, 8));
            (n, r)
        }
        other => {
            eprintln!("unknown workload {other:?}; expected one of {WORKLOADS:?}");
            std::process::exit(2);
        }
    }
}

fn run_parent(args: &[String]) {
    let exe = std::env::current_exe().expect("current_exe");
    let n_override = arg_usize(args, "--n");
    let workloads: Vec<String> = match arg_str(args, "--workload") {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|w| w.to_string()).collect(),
    };
    let threads: Vec<usize> = match arg_str(args, "--threads") {
        Some(list) => {
            // Sort and dedup so a 1-thread run (if requested) always comes
            // first and every later line carries a speedup_vs_1t field,
            // regardless of the order the flags were typed in.
            let mut ts: Vec<usize> = list
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            ts.sort_unstable();
            ts.dedup();
            ts
        }
        None => {
            let max = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let mut ts = vec![1, 2, max];
            ts.sort_unstable();
            ts.dedup();
            ts
        }
    };

    for workload in &workloads {
        let mut baseline_millis: Option<f64> = None;
        for &t in &threads {
            let mut cmd = Command::new(&exe);
            cmd.arg("--child").arg(workload);
            if let Some(n) = n_override {
                cmd.arg("--n").arg(n.to_string());
            }
            cmd.env("RAYON_NUM_THREADS", t.to_string());
            let out = cmd.output().expect("failed to spawn child");
            if !out.status.success() {
                eprintln!(
                    "child ({workload}, {t} threads) failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                std::process::exit(1);
            }
            let line = String::from_utf8_lossy(&out.stdout).trim().to_string();
            let millis = json_f64(&line, "millis").expect("child line missing millis");
            if t == 1 {
                baseline_millis = Some(millis);
            }
            let speedup = baseline_millis.map(|base| base / millis.max(1e-9));
            match speedup {
                Some(s) => {
                    println!("{},\"speedup_vs_1t\":{s:.3}}}", line.trim_end_matches('}'));
                    eprintln!(
                        "{workload:<10} threads={t:<3} {millis:>10.2} ms   speedup {s:>5.2}x"
                    );
                }
                None => {
                    println!("{line}");
                    eprintln!("{workload:<10} threads={t:<3} {millis:>10.2} ms");
                }
            }
        }
    }
}

/// Measure the (baseline, write-efficient) pair of a sweep workload once;
/// the counters are ω-independent, so the caller derives every ω row.
fn run_sweep_pair(workload: &str, n: usize) -> (CostReport, CostReport) {
    let omega = Omega::symmetric();
    match workload {
        "delaunay" => {
            let points = uniform_grid_points(n, 1 << 20, 3);
            let (_, base) = measure(omega, || triangulate_baseline(&points, 5));
            let (_, we) = measure(omega, || triangulate_write_efficient(&points, 5));
            (base, we)
        }
        "sort" => {
            let keys = random_keys(n, 42);
            let (_, base) = measure(omega, || merge_sort_baseline(&keys));
            let (_, we) = measure(omega, || incremental_sort(&keys, 7));
            (base, we)
        }
        "kdtree" => {
            let points = uniform_points_2d(n, 11);
            let (_, base) = measure(omega, || build_classic(&points, 16));
            let (_, we) = measure(omega, || build_p_batched(&points, recommended_p(n), 16, 13));
            (base, we)
        }
        "interval" => {
            let intervals = random_intervals(n, 1e6, 200.0, 17);
            let (_, base) = measure(omega, || IntervalTree::build_classic(&intervals, 2));
            let (_, we) = measure(omega, || IntervalTree::build_parallel(&intervals, 2));
            (base, we)
        }
        "priority" => {
            let points: Vec<PsPoint> = uniform_points_2d(n, 23)
                .into_iter()
                .enumerate()
                .map(|(i, point)| PsPoint {
                    point,
                    id: i as u64,
                })
                .collect();
            let (_, base) = measure(omega, || PrioritySearchTree::build_classic(&points));
            let (_, we) = measure(omega, || PrioritySearchTree::build_parallel(&points));
            (base, we)
        }
        "range" => {
            let points: Vec<RtPoint> = uniform_points_2d(n, 31)
                .into_iter()
                .enumerate()
                .map(|(i, point)| RtPoint {
                    point,
                    id: i as u64,
                })
                .collect();
            // Textbook range tree (α = 2: every node critical, per-node run
            // copies) vs the α-labeled flat-arena engine build.
            let (_, base) = measure(omega, || RangeTree2D::build_classic(&points, 2));
            let (_, we) = measure(omega, || RangeTree2D::build(&points, 8));
            (base, we)
        }
        other => {
            eprintln!("unknown sweep workload {other:?}; expected one of {SWEEP_WORKLOADS:?}");
            std::process::exit(2);
        }
    }
}

/// One JSON line per swept ω for a fixed `(workload, n, threads)`.
fn run_sweep_child(workload: &str, n: usize, omegas: &[usize]) -> Vec<String> {
    let threads = rayon::current_num_threads();
    let (base, we) = run_sweep_pair(workload, n);
    omegas
        .iter()
        .map(|&omega| {
            let w = omega as u64;
            let base_work = base.reads + w * base.writes;
            let we_work = we.reads + w * we.writes;
            format!(
                "{{\"mode\":\"sweep\",\"workload\":\"{workload}\",\"n\":{n},\
                 \"omega\":{omega},\"threads\":{threads},{},\
                 \"base_reads\":{},\"base_writes\":{},\"base_work\":{base_work},\
                 \"base_millis\":{:.3},\
                 \"we_reads\":{},\"we_writes\":{},\"we_work\":{we_work},\
                 \"we_millis\":{:.3},\
                 \"write_gap\":{:.4},\"we_wins\":{}}}",
                thread_fields(),
                base.reads,
                base.writes,
                base.elapsed.as_secs_f64() * 1e3,
                we.reads,
                we.writes,
                we.elapsed.as_secs_f64() * 1e3,
                base.writes as f64 / we.writes.max(1) as f64,
                we_work < base_work,
            )
        })
        .collect()
}

/// The two timed sides (before, after) of one query comparison, plus the
/// answer-checksum verdict.  Counters live inside the [`CostReport`]s; the
/// caller asserts/reports their equality.
struct QueryCompare {
    n: usize,
    queries: usize,
    before: CostReport,
    after: CostReport,
    answers_equal: bool,
}

/// Run a measured stream `reps` times, keep the fastest run (the standard
/// wall-clock-noise filter; the counters and the checksum are deterministic,
/// so every repetition reports the same ones).
fn best_of<T>(reps: usize, f: impl Fn() -> (T, CostReport)) -> (T, CostReport) {
    let mut best = f();
    for _ in 1..reps {
        let run = f();
        if run.1.elapsed < best.1.elapsed {
            best = run;
        }
    }
    best
}

/// Repetitions per timed side of a `query_compare` row.
const QUERY_REPS: usize = 5;

/// Run the same predicate stream through both sides of one workload (in
/// `qbatch`-sized batches), and return both timings.  Query counts scale
/// with n so `--smoke` stays cheap.
fn run_query_compare(workload: &str, n_override: Option<usize>, qbatch: usize) -> QueryCompare {
    let omega = Omega::new(1);
    let qbatch = qbatch.max(1);
    match workload {
        "delaunay_locate" => {
            // The point-location predicate stream: many in-circle tests of
            // query points against fixed CCW triangles — the inner loop of
            // the Delaunay engine's cavity assessment.  "Before" is the
            // one-at-a-time exact i128 predicate; "after" stages the
            // queries as SoA slices for the width-filtered batch kernel.
            // Both sides are uncharged (the engine accounts per test), so
            // the counter deltas are zero on both — equal by construction.
            let n = n_override.unwrap_or(200_000);
            let span = 1i64 << 20;
            let tri_pts = uniform_grid_points(144, span, 7);
            let triangles: Vec<(GridPoint, GridPoint, GridPoint)> = tri_pts
                .chunks_exact(3)
                .filter_map(|t| {
                    if is_ccw(t[0], t[1], t[2]) {
                        Some((t[0], t[1], t[2]))
                    } else if is_ccw(t[0], t[2], t[1]) {
                        Some((t[0], t[2], t[1]))
                    } else {
                        None
                    }
                })
                .collect();
            let queries = uniform_grid_points(n / triangles.len().max(1), span, 73);
            let total = triangles.len() * queries.len();
            let (sf, before) = best_of(QUERY_REPS, || {
                measure(omega, || {
                    let mut acc = 0u64;
                    for &(a, b, c) in &triangles {
                        for chunk in queries.chunks(qbatch) {
                            for &d in chunk {
                                acc = acc
                                    .wrapping_mul(3)
                                    .wrapping_add(u64::from(in_circle(a, b, c, d)));
                            }
                        }
                    }
                    acc
                })
            });
            let (sb, after) = best_of(QUERY_REPS, || {
                measure(omega, || {
                    let mut acc = 0u64;
                    let mut dx = vec![0i64; qbatch];
                    let mut dy = vec![0i64; qbatch];
                    let mut out = vec![false; qbatch];
                    for &(a, b, c) in &triangles {
                        for chunk in queries.chunks(qbatch) {
                            let m = chunk.len();
                            for (i, d) in chunk.iter().enumerate() {
                                dx[i] = d.x;
                                dy[i] = d.y;
                            }
                            in_circle_batch(a, b, c, &dx[..m], &dy[..m], &mut out[..m]);
                            for &inside in &out[..m] {
                                acc = acc.wrapping_mul(3).wrapping_add(u64::from(inside));
                            }
                        }
                    }
                    acc
                })
            });
            QueryCompare {
                n,
                queries: total,
                before,
                after,
                answers_equal: sf == sb,
            }
        }
        "incircle_simd" => {
            // The SIMD A/B over the same staged SoA predicate storm:
            // "before" is the scalar batch loop (the dispatch fallback and
            // bit-equality oracle), "after" the public dispatcher — the
            // explicit AVX2 kernel wherever the host has it.  Both sides
            // are uncharged batch kernels (the engine accounts per test),
            // so the counter deltas are zero on both — equal by
            // construction; answers must be bit-equal.
            let n = n_override.unwrap_or(200_000);
            let span = 1i64 << 20;
            let tri_pts = uniform_grid_points(144, span, 7);
            let triangles: Vec<(GridPoint, GridPoint, GridPoint)> = tri_pts
                .chunks_exact(3)
                .filter_map(|t| {
                    if is_ccw(t[0], t[1], t[2]) {
                        Some((t[0], t[1], t[2]))
                    } else if is_ccw(t[0], t[2], t[1]) {
                        Some((t[0], t[2], t[1]))
                    } else {
                        None
                    }
                })
                .collect();
            let queries = uniform_grid_points(n / triangles.len().max(1), span, 73);
            let total = triangles.len() * queries.len();
            let run = |batch: &InCircleBatchFn| {
                let mut acc = 0u64;
                let mut dx = vec![0i64; qbatch];
                let mut dy = vec![0i64; qbatch];
                let mut out = vec![false; qbatch];
                for &(a, b, c) in &triangles {
                    for chunk in queries.chunks(qbatch) {
                        let m = chunk.len();
                        for (i, d) in chunk.iter().enumerate() {
                            dx[i] = d.x;
                            dy[i] = d.y;
                        }
                        batch(a, b, c, &dx[..m], &dy[..m], &mut out[..m]);
                        for &inside in &out[..m] {
                            acc = acc.wrapping_mul(3).wrapping_add(u64::from(inside));
                        }
                    }
                }
                acc
            };
            let (sf, before) = best_of(QUERY_REPS, || {
                measure(omega, || {
                    run(&|a, b, c, dx, dy, out| in_circle_batch_scalar(a, b, c, dx, dy, out))
                })
            });
            let (sb, after) = best_of(QUERY_REPS, || {
                measure(omega, || {
                    run(&|a, b, c, dx, dy, out| in_circle_batch(a, b, c, dx, dy, out))
                })
            });
            QueryCompare {
                n,
                queries: total,
                before,
                after,
                answers_equal: sf == sb,
            }
        }
        other => {
            eprintln!("unknown query workload {other:?}; expected one of {QUERY_WORKLOADS:?}");
            std::process::exit(2);
        }
    }
}

/// One `query_compare` JSON line for a child whose pool size is fixed.
fn run_query_child(workload: &str, n_override: Option<usize>, qbatch: usize) -> String {
    let threads = rayon::current_num_threads();
    let c = run_query_compare(workload, n_override, qbatch);
    let before_ms = c.before.elapsed.as_secs_f64() * 1e3;
    let after_ms = c.after.elapsed.as_secs_f64() * 1e3;
    let counters_equal = c.before.reads == c.after.reads
        && c.before.writes == c.after.writes
        && c.before.depth == c.after.depth;
    format!(
        "{{\"mode\":\"query_compare\",\"workload\":\"{workload}\",\"n\":{},\
         \"queries\":{},\"qbatch\":{qbatch},\"threads\":{threads},{},\
         \"flat_millis\":{before_ms:.3},\"blocked_millis\":{after_ms:.3},\
         \"gain\":{:.3},\
         \"flat_reads\":{},\"blocked_reads\":{},\
         \"flat_writes\":{},\"blocked_writes\":{},\
         \"counters_equal\":{counters_equal},\"answers_equal\":{}}}",
        c.n,
        c.queries,
        thread_fields(),
        before_ms / after_ms.max(1e-9),
        c.before.reads,
        c.after.reads,
        c.before.writes,
        c.after.writes,
        c.answers_equal,
    )
}

/// The query A/B across workloads (one child per
/// `(workload, threads)` so the pool width is honest).
fn run_queries_parent(args: &[String]) {
    let exe = std::env::current_exe().expect("current_exe");
    let n_override = arg_usize(args, "--n");
    let qbatch = arg_usize(args, "--qbatch").unwrap_or(DEFAULT_QBATCH);
    let workloads: Vec<String> = match arg_str(args, "--workload") {
        Some(w) => vec![w],
        None => QUERY_WORKLOADS.iter().map(|w| w.to_string()).collect(),
    };
    let threads: Vec<usize> = match arg_str(args, "--threads") {
        Some(list) => parse_list(&list),
        None => vec![std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)],
    };

    for workload in &workloads {
        for &t in &threads {
            let mut cmd = Command::new(&exe);
            cmd.arg("--child-queries").arg(workload);
            if let Some(n) = n_override {
                cmd.arg("--n").arg(n.to_string());
            }
            cmd.arg("--qbatch").arg(qbatch.to_string());
            cmd.env("RAYON_NUM_THREADS", t.to_string());
            let out = cmd.output().expect("failed to spawn query child");
            if !out.status.success() {
                eprintln!(
                    "query child ({workload}, {t} threads) failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                std::process::exit(1);
            }
            let line = String::from_utf8_lossy(&out.stdout).trim().to_string();
            println!("{line}");
            let before_ms = json_f64(&line, "flat_millis").unwrap_or(0.0);
            let after_ms = json_f64(&line, "blocked_millis").unwrap_or(0.0);
            let gain = json_f64(&line, "gain").unwrap_or(0.0);
            eprintln!(
                "{workload:<15} threads={t:<3} before {before_ms:>9.2} ms   after {after_ms:>9.2} ms   gain {gain:>5.2}x"
            );
        }
    }
}

/// The n × ω × threads crossover sweep (re-executing one child per
/// `(workload, n, threads)`; ω rows are derived inside the child).
fn run_sweep_parent(args: &[String]) {
    let exe = std::env::current_exe().expect("current_exe");
    let workloads: Vec<String> = match arg_str(args, "--workload") {
        Some(w) => vec![w],
        None => SWEEP_WORKLOADS.iter().map(|w| w.to_string()).collect(),
    };
    let ns: Vec<usize> = match arg_str(args, "--ns") {
        Some(list) => parse_list(&list),
        None => match arg_usize(args, "--n") {
            Some(n) => vec![n],
            None => vec![5_000, 10_000, 20_000, 50_000],
        },
    };
    let omegas_flag = arg_str(args, "--omegas").unwrap_or_else(|| "1,5,10,20,40".to_string());
    let threads: Vec<usize> = match arg_str(args, "--threads") {
        Some(list) => parse_list(&list),
        None => {
            let max = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let mut ts = vec![1, max];
            ts.sort_unstable();
            ts.dedup();
            ts
        }
    };

    for workload in &workloads {
        for &n in &ns {
            for &t in &threads {
                let mut cmd = Command::new(&exe);
                cmd.arg("--child-sweep")
                    .arg(workload)
                    .arg("--n")
                    .arg(n.to_string())
                    .arg("--omegas")
                    .arg(&omegas_flag);
                cmd.env("RAYON_NUM_THREADS", t.to_string());
                let out = cmd.output().expect("failed to spawn sweep child");
                if !out.status.success() {
                    eprintln!(
                        "sweep child ({workload}, n={n}, {t} threads) failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    );
                    std::process::exit(1);
                }
                let stdout = String::from_utf8_lossy(&out.stdout);
                for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
                    println!("{line}");
                }
                if let Some(first) = stdout.lines().next() {
                    let gap = json_f64(first, "write_gap").unwrap_or(0.0);
                    let millis = json_f64(first, "we_millis").unwrap_or(0.0);
                    eprintln!(
                        "{workload:<10} n={n:<8} threads={t:<3} we {millis:>10.2} ms   write gap {gap:>6.2}x"
                    );
                }
            }
        }
    }
}

/// Tiny in-process sweep: the JSON emitter must produce parseable lines and
/// the crossover claim must hold — at the largest swept ω the
/// write-efficient variant costs less ω-weighted work than the baseline.
fn run_smoke() {
    let omegas = [1usize, 40];
    for workload in SWEEP_WORKLOADS {
        let n = 3_000;
        let lines = run_sweep_child(workload, n, &omegas);
        assert_eq!(lines.len(), omegas.len(), "one line per ω");
        for line in &lines {
            for key in [
                "n",
                "omega",
                "threads",
                "base_reads",
                "base_writes",
                "base_work",
                "we_reads",
                "we_writes",
                "we_work",
                "write_gap",
            ] {
                assert!(
                    json_f64(line, key).is_some(),
                    "smoke: key {key:?} missing or non-numeric in {line}"
                );
            }
            println!("{line}");
        }
        let last = lines.last().expect("non-empty sweep");
        let base_work = json_f64(last, "base_work").unwrap();
        let we_work = json_f64(last, "we_work").unwrap();
        assert!(
            we_work < base_work,
            "smoke: {workload} write-efficient variant must win at ω=40 \
             (we_work={we_work}, base_work={base_work})"
        );
        let base_writes = json_f64(last, "base_writes").unwrap();
        let we_writes = json_f64(last, "we_writes").unwrap();
        assert!(
            we_writes < base_writes,
            "smoke: {workload} write-efficient variant must write less"
        );
    }
    eprintln!("sweep smoke ok");

    // Query A/B: at a small n, every compared pair must agree on every
    // answer and every counter — the "after" side is machine bookkeeping
    // (batch or SIMD kernel), invisible to the ARAM model.  (No
    // wall-clock assertion here; gains are claimed only by committed
    // full-size BENCH rows.)
    for workload in QUERY_WORKLOADS {
        let line = run_query_child(workload, Some(20_000), DEFAULT_QBATCH);
        for key in ["n", "queries", "qbatch", "flat_millis", "blocked_millis"] {
            assert!(
                json_f64(&line, key).is_some(),
                "smoke: key {key:?} missing or non-numeric in {line}"
            );
        }
        assert!(
            line.contains("\"counters_equal\":true"),
            "smoke: {workload} after side moved the counters: {line}"
        );
        assert!(
            line.contains("\"answers_equal\":true"),
            "smoke: {workload} after side changed an answer: {line}"
        );
        println!("{line}");
    }
    eprintln!("query smoke ok");
}

/// Parse a comma-separated list of positive integers; a malformed token is
/// an error, not a silent drop (a typo must not shrink a sweep unnoticed).
fn parse_list(list: &str) -> Vec<usize> {
    let mut out: Vec<usize> = list
        .split(',')
        .map(|t| {
            let v: usize = t
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("unparseable list entry {t:?} in {list:?}"));
            assert!(v > 0, "list entry {t:?} must be positive in {list:?}");
            v
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    assert!(!out.is_empty(), "empty numeric list {list:?}");
    out
}

fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Extract `"key":<number>` from a flat JSON object line (the only JSON this
/// binary ever parses is the one it printed itself).
fn json_f64(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn arg_str(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_usize(args: &[String], key: &str) -> Option<usize> {
    arg_str(args, key).and_then(|v| v.parse().ok())
}

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
//! * **`--smoke`** — a tiny in-process sweep that validates the JSON
//!   emitter and asserts the ω-crossover claim (at the largest swept ω the
//!   write-efficient variant must cost less work and write less); exits
//!   non-zero on violation.  CI runs this so the emitter cannot silently
//!   rot.
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
    if args.iter().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    if args.iter().any(|a| a == "--sweep") {
        run_sweep_parent(&args);
        return;
    }
    run_parent(&args);
}

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

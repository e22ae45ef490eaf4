//! `svcbench` — the oracle-checked benchmark of `pwe-service`.
//!
//! ```text
//! svcbench --workload <read_static|churn|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives the public `GeometryService::apply` / `serve` API with
//! at most one reader and one writer.  The last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer ones.
//! Every answer is checked against a brute-force model of the generation it
//! names; any failure makes the exit code 1.  `BENCHMARK.json` at the
//! repository root lists the workloads and metrics.
//!
//! Design (all sizes fixed in `workload.rs`):
//!
//! * Inputs: 50k intervals, 50k points and 2k distinct grid sites, 8
//!   shards, 16-query single-kind read batches cycling stab → range →
//!   three_sided → nearest → locate, 16-update churn batches.  Every input
//!   is generated from `--seed`; operation counts are constants of the
//!   workload times `--seconds`, so a run's work is fixed by its arguments.
//! * Working set: the service's structures and the oracle model are tens
//!   of MB — above the 4 MiB L2 of a core, below a 300 MiB L3 — so no
//!   workload exceeds the last-level cache.
//! * Pool width: `RAYON_NUM_THREADS` when set, otherwise 1.
//! * Statistics: p50s are over the whole run; p90s, `read_qps` and
//!   `updates_per_s` are the median over five consecutive rounds of the
//!   run of each round's value; `setup_s` is the median of several
//!   set-ups.
//! * `--trace 1` runs the end-to-end pass (for the pin, staleness and
//!   writer-lag evidence) and then the traced pass of `trace.rs`, both over
//!   the first quarter of the operations, and writes the spans to
//!   `svcbench/out/<workload>-seed<seed>.spans.jsonl`.

mod oracle;
mod report;
mod run;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{result_line, Metrics};
use run::Inputs;
use workload::Workload;

const USAGE: &str =
    "usage: svcbench --workload <read_static|churn|ingest> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One pool thread unless the environment says otherwise: at width 2 on
    // a shared 2-CPU machine, per-kind medians spread 10–60% from run to
    // run (a batch waits for its slower half); at width 1, 2–15%.  The
    // churn writer still runs beside the reader, on its own thread.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let width = rayon::current_num_threads();
    eprintln!(
        "svcbench: workload={} seed={} seconds={} trace={} pool_width={width} available_parallelism={cores}",
        args.workload.name(), args.seed, args.seconds, args.trace
    );

    let plan = args.workload.plan(args.seconds);
    let inputs = Inputs::generate(args.workload, args.seed, plan);
    // The traced run's end-to-end pass only gathers the pin, staleness and
    // writer-lag evidence, so it runs the traced prefix.
    let pass = run::run(&inputs, if args.trace { plan.traced() } else { plan });
    let checked = Instant::now();
    let mut failed = run::verify(&inputs, &pass);
    eprintln!(
        "svcbench: oracle checked {} batches in {:.1} s",
        pass.reads.len(),
        checked.elapsed().as_secs_f64()
    );
    let mut attempted = pass.reads.len() + pass.writes.len();
    let mut metrics = Metrics::default();
    let mut parts_ok = true;
    if args.trace {
        run::layer_evidence(&pass, &mut metrics);
        drop(pass);
        let spans = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        let out = trace::run(&inputs, plan.traced(), &spans, &mut metrics);
        attempted += out.ops;
        failed += out.failed;
        eprintln!(
            "svcbench: traced ops={} answers_digest={:#018x} spans={}",
            out.ops,
            out.answers_digest,
            spans.display()
        );
        // Re-run children only add up at pool width 1: wider, the service
        // builds shards concurrently while the replica builds them in turn.
        if width == 1 && !out.parts_add_up {
            parts_ok = false;
            eprintln!(
                "svcbench: the median operation of a class overshoots its time by more than {}",
                trace::PARTS_TOLERANCE
            );
        }
    } else {
        run::end_to_end(&pass, &mut metrics);
    }
    let correct = failed == 0 && parts_ok;
    if failed > 0 {
        eprintln!("svcbench: {failed} of {attempted} operations failed");
    }
    if let Some(hwm) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .map(str::to_owned)
        })
    {
        eprintln!(
            "svcbench: peak resident memory {}",
            hwm.trim_start_matches("VmHWM:").trim()
        );
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

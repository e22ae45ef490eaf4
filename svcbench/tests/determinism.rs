//! The benchmark's own checks, run against its built binary:
//!
//! * the traced pass's counts and answer digest repeat exactly across two
//!   runs of one seed at pool widths 1 and 2;
//! * a second seed passes the oracle with no failed operation, at the
//!   benchmark's own run length (a defect that fails one answer in a
//!   thousand can hide in a short run);
//! * every metric `BENCHMARK.json` names is printed, in the mode it
//!   belongs to.
//!
//! The other runs use `--seconds 1`, the shortest run the binary accepts.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["read_static", "churn", "ingest"];

/// Metric-name suffixes of the counts that must repeat exactly.
const COUNTS: [&str; 8] = [
    "charged_reads_per_query",
    "charged_writes_per_elem",
    "charged_writes_per_update",
    "charged_reads_per_update",
    "ids_per_query",
    "elements_rebuilt_per_update",
    "shards_dirtied_per_batch",
    "hit_ratio",
];

struct Run {
    /// The result line (last line of standard output).
    result: String,
    stderr: String,
}

fn run(workload: &str, seed: u64, seconds: &str, trace: bool, threads: Option<&str>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_svcbench"));
    cmd.args(["--workload", workload, "--seconds", seconds])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd.env_remove("RAYON_NUM_THREADS");
    if let Some(t) = threads {
        cmd.env("RAYON_NUM_THREADS", t);
    }
    let out = cmd.output().expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        result: stdout.lines().last().unwrap_or_default().to_string(),
        stderr: String::from_utf8(out.stderr).expect("utf-8 output"),
    }
}

/// `(name, value text)` of every metric in a result line.
fn metrics(result: &str) -> Vec<(String, String)> {
    let body = &result[result.find("\"metrics\": {").expect("a metrics object") + 12..];
    body.split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            Some((name.to_string(), value.to_string()))
        })
        .collect()
}

/// The value of a `key=value` word on the binary's standard error.
fn stderr_field<'a>(run: &'a Run, key: &str) -> &'a str {
    run.stderr
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in:\n{}", run.stderr))
}

/// The repository's `BENCHMARK.json`.
fn spec() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json")
}

#[test]
fn counts_and_answers_repeat_across_runs_and_pool_widths() {
    for w in WORKLOADS {
        let one = run(w, 7, "1", true, Some("1"));
        let two = run(w, 7, "1", true, Some("2"));
        let counts = |r: &Run| -> Vec<(String, String)> {
            metrics(&r.result)
                .into_iter()
                .filter(|(name, _)| COUNTS.iter().any(|c| name.ends_with(c)))
                .collect()
        };
        assert!(!counts(&one).is_empty(), "{w}: no counts in {}", one.result);
        assert_eq!(
            counts(&one),
            counts(&two),
            "{w}: counts differ between pool widths 1 and 2"
        );
        assert_eq!(
            stderr_field(&one, "answers_digest="),
            stderr_field(&two, "answers_digest="),
            "{w}: traced answers differ between pool widths 1 and 2"
        );
    }
}

#[test]
fn second_seed_passes_the_oracle() {
    let spec = spec();
    let seconds = spec
        .split("\"run_seconds\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .expect("run_seconds in BENCHMARK.json");
    for w in WORKLOADS {
        let r = run(w, 8, seconds, false, None);
        assert!(
            r.result.starts_with("{\"correct\": true,") && r.result.contains("\"failed\": 0,"),
            "{w}: {}\n{}",
            r.result,
            r.stderr
        );
    }
}

#[test]
fn every_declared_metric_is_printed() {
    let spec = spec();
    let section = |key: &str| -> Vec<String> {
        let start = spec.find(&format!("\"{key}\"")).expect("a metric section");
        let end = start + spec[start..].find(']').expect("a closed list");
        spec[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("a quoted name").to_string())
            .collect()
    };
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let declared = section(key);
        for w in WORKLOADS {
            let printed: Vec<String> = metrics(&run(w, 9, "1", trace, None).result)
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            assert_eq!(
                printed, declared,
                "{w}: {key} metrics differ from BENCHMARK.json"
            );
        }
    }
}

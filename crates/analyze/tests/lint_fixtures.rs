//! Self-tests for `pwe-lint`: each known-bad fixture under
//! `tests/fixtures/` trips exactly its intended rule, the clean fixture
//! trips nothing, and the real workspace is finding-free.

use pwe_analyze::rules::{check_file, Finding};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    // Fixtures are checked under their real repo-relative path, so none of
    // the per-rule allowlists apply to them.
    check_file(&format!("crates/analyze/tests/fixtures/{name}"), &src)
}

/// Every finding carries `rule`, and at least one finding exists.
fn assert_only_rule(name: &str, rule: &str) {
    let findings = fixture(name);
    assert!(
        !findings.is_empty(),
        "{name}: expected at least one {rule} finding"
    );
    for f in &findings {
        assert_eq!(
            f.rule, rule,
            "{name}: unexpected finding from another rule: {f}"
        );
        assert!(f.line > 0, "{name}: findings must carry a line");
    }
}

#[test]
fn d1_fixture_trips_only_d1() {
    assert_only_rule("d1_hashmap.rs", "D1");
    // Two sites: the `use` and the qualified construction resolve to the
    // same import line plus the map construction via the use-path.
    assert!(fixture("d1_hashmap.rs").iter().any(|f| f.line == 2));
}

#[test]
fn d1_braced_use_is_caught_btree_is_not() {
    assert_only_rule("d1_braced_use.rs", "D1");
    let findings = fixture("d1_braced_use.rs");
    assert_eq!(findings.len(), 1, "BTreeMap must not be flagged");
    assert!(findings[0].message.contains("HashSet"));
}

#[test]
fn d2_instant_fixture_trips_only_d2() {
    assert_only_rule("d2_instant.rs", "D2");
    assert!(fixture("d2_instant.rs")
        .iter()
        .all(|f| f.message.contains("wall-clock")));
}

/// The bench bins time through `CostReport::elapsed`, so a clock read in
/// one of them is a finding like anywhere else.
#[test]
fn d2_instant_in_a_bench_bin_is_flagged() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d2_instant.rs");
    let src = std::fs::read_to_string(path).expect("fixture readable");
    let findings = check_file("crates/bench/src/bin/speedup.rs", &src);
    assert!(
        findings.iter().any(|f| f.rule == "D2"),
        "expected a D2 finding, got {findings:?}"
    );
}

#[test]
fn d2_spawn_fixture_trips_only_d2() {
    assert_only_rule("d2_spawn.rs", "D2");
    assert!(fixture("d2_spawn.rs")
        .iter()
        .all(|f| f.message.contains("thread creation")));
}

#[test]
fn u1_fixture_trips_only_u1() {
    assert_only_rule("u1_unsafe.rs", "U1");
    assert_eq!(fixture("u1_unsafe.rs").len(), 1);
}

#[test]
fn l1_fixture_trips_only_l1() {
    assert_only_rule("l1_alloc.rs", "L1");
    let findings = fixture("l1_alloc.rs");
    assert_eq!(findings.len(), 1, "one untracked Vec::with_capacity");
    assert!(findings[0].message.contains("Vec::with_capacity"));
}

#[test]
fn clean_fixture_trips_nothing() {
    let findings = fixture("clean.rs");
    assert!(
        findings.is_empty(),
        "clean fixture should have no findings, got: {findings:?}"
    );
}

/// The acceptance criterion: the lint binary would exit 0 on this workspace.
#[test]
fn workspace_is_lint_clean() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = pwe_analyze::lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean, got {} finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The fixtures really are walked over by nothing: the walker excludes them,
/// otherwise `workspace_is_lint_clean` above would contradict the per-rule
/// fixture tests.
#[test]
fn walker_excludes_fixtures_but_sees_the_crate() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = pwe_analyze::walk::workspace_files(&root);
    let as_str: Vec<String> = files
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    assert!(as_str.iter().any(|p| p == "crates/analyze/src/rules.rs"));
    assert!(as_str.iter().all(|p| !p.contains("tests/fixtures")));
    assert!(as_str.iter().any(|p| p.starts_with("vendor/rayon/")));
    assert!(as_str.iter().any(|p| p.starts_with("tests/")));
}

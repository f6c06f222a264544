//! Fixture self-tests for `cargo run -p xtask -- analyze`: each pass has
//! a fixture with seeded violations it must reject, plus one clean
//! fixture the whole pipeline must wave through with zero findings, and
//! the workspace itself must pass the gate.
//! Explicit-file runs put every file in scope for every path-scoped rule
//! and apply no allowlist, so the raw findings are the pass output.

use std::path::{Path, PathBuf};

use xtask::walker::{SourceFile, Workspace};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf()
}

/// Runs the full analyze pipeline over one fixture file and returns the
/// raw (pre-allowlist) findings.
fn analyze_fixture(name: &str) -> Vec<xtask::Finding> {
    let fixture = root().join("xtask/tests/fixtures").join(name);
    let report = xtask::run_analyze_paths(&root(), &[fixture]).unwrap();
    report.all_findings
}

fn rules_of(findings: &[xtask::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn raw_lock_fixture_is_rejected() {
    const LOCK_RULES: [&str; 3] = ["raw-lock", "guard-unwrap", "unregistered-class"];
    let findings = analyze_fixture("raw_lock.rs");
    let rules: Vec<&str> =
        rules_of(&findings).into_iter().filter(|r| LOCK_RULES.contains(r)).collect();
    for rule in LOCK_RULES {
        assert!(rules.contains(&rule), "fixture should trip {rule}: {findings:?}");
    }
    // `use parking_lot::Mutex`, `std::sync::{.. RwLock}`, the fully
    // qualified `std::sync::Mutex`, the guard unwrap, and the unregistered
    // construction.
    assert_eq!(rules.len(), 5, "expected 5 lock-discipline findings: {findings:?}");
}

#[test]
fn rank_table_is_populated() {
    let sync_src = std::fs::read_to_string(root().join("crates/common/src/sync.rs")).unwrap();
    let registry = xtask::ClassRegistry::from_sync_source(&sync_src);
    // The central rank table must keep covering every subsystem band.
    assert!(registry.len() >= 25, "rank table shrank to {} classes", registry.len());
}

#[test]
fn lock_inversion_fixture_is_rejected() {
    let findings = analyze_fixture("lock_inversion.rs");
    let rules = rules_of(&findings);
    assert!(
        rules.contains(&"lock-order-inversion"),
        "HIGH→LOW nesting should trip the inversion rule: {findings:?}"
    );
    let unranked: Vec<_> = findings.iter().filter(|f| f.rule == "lock-order-unranked").collect();
    assert_eq!(unranked.len(), 2, "each edge of CYC_A ↔ CYC_B is unranked: {findings:?}");
    let inversion = findings.iter().find(|f| f.rule == "lock-order-inversion").unwrap();
    assert!(
        inversion.excerpt.contains("LOW") && inversion.excerpt.contains("HIGH"),
        "the inversion finding names both classes: {inversion:?}"
    );
}

#[test]
fn hash_iteration_fixture_is_rejected() {
    let findings = analyze_fixture("hash_iteration.rs");
    let hash: Vec<_> = findings.iter().filter(|f| f.rule == "hash-iteration").collect();
    // `.iter()`, `.values()`, `.drain()`, and `for s in seen` — but never
    // the point lookups or the BTreeMap in `fine`.
    assert_eq!(hash.len(), 4, "expected 4 hash-iteration findings: {hash:?}");
    assert!(
        hash.iter().all(|f| f.line <= 15),
        "nothing in fn fine() may be flagged: {hash:?}"
    );
}

#[test]
fn unwrap_panic_fixture_is_rejected() {
    let findings = analyze_fixture("unwrap_panic.rs");
    let panics = findings.iter().filter(|f| f.rule == "panic-freedom").count();
    let indexes = findings.iter().filter(|f| f.rule == "slice-index").count();
    // unwrap, undocumented expect, panic! — the invariant-expect, the
    // assert!, and unwrap_or stay legal.
    assert_eq!(panics, 3, "expected 3 panic-freedom findings: {findings:?}");
    assert_eq!(indexes, 1, "expected 1 slice-index finding: {findings:?}");
}

#[test]
fn sleep_loop_fixture_is_rejected() {
    let findings = analyze_fixture("sleep_loop.rs");
    let sleeps: Vec<_> = findings.iter().filter(|f| f.rule == "sleep-in-loop").collect();
    // Both in-loop sleeps (single-line `loop`, multi-line `while` header)
    // but not the one-shot settle sleep.
    assert_eq!(sleeps.len(), 2, "expected 2 sleep-in-loop findings: {sleeps:?}");
    assert!(
        sleeps.iter().all(|f| f.excerpt.contains("thread::sleep")),
        "findings point at the sleep lines: {sleeps:?}"
    );
}

#[test]
fn trace_coverage_trio_flags_unemitted_and_unasserted() {
    // The fixture files live under `xtask/tests/fixtures/`, which the
    // walker would treat as test code wholesale — so mount them at
    // synthetic workspace paths that exercise all three roles: schema,
    // runtime emitter, test asserter.
    let dir = root().join("xtask/tests/fixtures/trace");
    let mount = |rel: &str, disk: &str| SourceFile {
        rel: PathBuf::from(rel),
        src: std::fs::read_to_string(dir.join(disk)).unwrap(),
    };
    let ws = Workspace {
        root: root(),
        files: vec![
            mount("crates/common/src/trace.rs", "schema.rs"),
            mount("crates/fake/src/emit.rs", "emit.rs"),
            mount("tests/cov.rs", "cov_test.rs"),
        ],
    };
    let findings = xtask::passes::trace_coverage::check_workspace(&ws);
    let of = |rule: &str| -> Vec<&str> {
        findings.iter().filter(|f| f.rule == rule).map(|f| f.excerpt.as_str()).collect()
    };
    // Covered is emitted and asserted; the schema file's own match arms
    // count as neither.
    assert_eq!(
        of("trace-kind-unemitted"),
        vec!["NeverEmitted"],
        "all findings: {findings:?}"
    );
    assert_eq!(
        of("trace-kind-unasserted"),
        vec!["NeverAsserted"],
        "all findings: {findings:?}"
    );
}

#[test]
fn clean_fixture_passes_every_pass() {
    let findings = analyze_fixture("clean.rs");
    assert!(
        findings.is_empty(),
        "the clean fixture must produce zero findings:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn workspace_analyze_gate_is_green() {
    // The tree itself must pass the gate the fixtures exercise: no
    // denied findings, no over-budget groups. (Stale budgets are legal —
    // burn-down tightens them via --update-ratchet.)
    let report = xtask::run_analyze(&root()).unwrap();
    assert!(report.files_scanned > 90, "walk found too few files: {}", report.files_scanned);
    assert!(
        report.is_clean(),
        "workspace analyze must be clean; denied:\n{}\nover budget:\n{}",
        report.denied.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n"),
        report.over_budget.join("\n")
    );
}

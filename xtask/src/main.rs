//! `cargo run -p xtask -- analyze [--json] [--update-ratchet] [FILES...]`
//!
//! With no file arguments, walks the whole workspace, runs every static
//! analysis pass (lock discipline, wall clock, lock order, determinism,
//! panic freedom, sleep poll, trace coverage; lock order rejects rank
//! inversions and unranked edges), applies the
//! `xtask/analyze.allow` ratchet, and exits non-zero on any denied
//! finding. With explicit file arguments, analyzes only those files with
//! every path-scoped rule in scope and no allowlist (used by the fixture
//! self-tests).
//!
//! `--json` emits one machine-readable JSON document on stdout.
//! `--update-ratchet` rewrites the allowlist budgets to the actual
//! finding counts (dropping fully burned-down entries), then reports.
//!
//! `cargo run -p xtask -- trace-check <trace.json> [--expect-nodes N]`
//!
//! Validates a Chrome `trace_event` file produced by a bench binary's
//! `--trace-out` flag: the JSON must parse and, with `--expect-nodes N`,
//! every node pid in `0..N` must have at least one complete span.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the root is one level up from this
    // crate's manifest.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask must live one level below the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => {
            let mut json = false;
            let mut ratchet = false;
            let mut files: Vec<PathBuf> = Vec::new();
            for a in args {
                match a.as_str() {
                    "--json" => json = true,
                    "--update-ratchet" => ratchet = true,
                    _ => files.push(PathBuf::from(a)),
                }
            }
            let root = workspace_root();
            let report = if files.is_empty() {
                xtask::run_analyze(&root)
            } else {
                xtask::run_analyze_paths(&root, &files)
            };
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("analyze: error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if ratchet {
                if !files.is_empty() {
                    eprintln!("analyze: --update-ratchet only applies to full workspace runs");
                    return ExitCode::FAILURE;
                }
                match xtask::update_ratchet(&root, &report) {
                    Ok(n) => {
                        eprintln!("analyze: ratchet rewritten ({n} budget line(s) remain)");
                        // Re-run so the reported status reflects the new
                        // budgets.
                        match xtask::run_analyze(&root) {
                            Ok(r) => return finish(&r, json),
                            Err(e) => {
                                eprintln!("analyze: error: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("analyze: ratchet rewrite failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            finish(&report, json)
        }
        Some("trace-check") => {
            let mut path: Option<PathBuf> = None;
            let mut expect_nodes: Option<usize> = None;
            let mut rest = args;
            while let Some(a) = rest.next() {
                if a == "--expect-nodes" {
                    expect_nodes = rest.next().and_then(|n| n.parse().ok());
                    if expect_nodes.is_none() {
                        eprintln!("trace-check: --expect-nodes needs a number");
                        return ExitCode::FAILURE;
                    }
                } else if path.is_none() {
                    path = Some(PathBuf::from(a));
                } else {
                    eprintln!("trace-check: unexpected argument {a:?}");
                    return ExitCode::FAILURE;
                }
            }
            let Some(path) = path else {
                eprintln!("usage: cargo run -p xtask -- trace-check <trace.json> [--expect-nodes N]");
                return ExitCode::FAILURE;
            };
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("trace-check: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match xtask::trace_check(&src, expect_nodes) {
                Ok(spans) => {
                    let total: usize = spans.values().sum();
                    println!(
                        "trace-check: OK ({total} span(s) across {} node(s))",
                        spans.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("trace-check: {}: {e}", path.display());
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- analyze [--json] [--update-ratchet] [FILES...]\n\
                 \x20      cargo run -p xtask -- trace-check <trace.json> [--expect-nodes N]\n\
                 (got {other:?})"
            );
            ExitCode::FAILURE
        }
    }
}

fn finish(report: &xtask::AnalyzeReport, json: bool) -> ExitCode {
    if json {
        println!("{}", xtask::render_json(report));
        if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        let (text, code) = xtask::render_text(report);
        if code == 0 {
            print!("{text}");
            ExitCode::SUCCESS
        } else {
            eprint!("{text}");
            ExitCode::FAILURE
        }
    }
}

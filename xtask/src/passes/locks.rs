//! Lock-discipline rules migrated from the original single-purpose lint:
//!
//! 1. **raw-lock** — any mention of `parking_lot` or of
//!    `std::sync::{Mutex, RwLock, Condvar}` outside the one file allowed
//!    to touch them, `crates/common/src/sync.rs`.
//! 2. **guard-unwrap** — `.lock().unwrap()`, `.read().unwrap()`,
//!    `.write().unwrap()`: a tell-tale sign of a raw `std::sync` lock.
//! 3. **unregistered-class** — `OrderedMutex::new` / `OrderedRwLock::new`
//!    whose first argument is not a registered `LockClass`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::findings::Finding;
use crate::registry::{collect_lock_class_statics, ClassRegistry};
use crate::walker::{has_word, strip_line_comment, Workspace};

use super::{AnalyzeCtx, Pass};

/// The one file allowed to name the raw primitives (it wraps them).
pub const RAW_LOCK_WRAPPER: &str = "crates/common/src/sync.rs";

pub struct LockDiscipline;

impl Pass for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["raw-lock", "guard-unwrap", "unregistered-class"]
    }

    fn run(&self, ctx: &AnalyzeCtx, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in &ws.files {
            let allow_raw = file.rel_str() == RAW_LOCK_WRAPPER;
            findings.extend(lint_source(&file.rel, &file.src, &ctx.registry, allow_raw));
        }
        findings
    }
}

/// Lints one file's contents. `allow_raw` is true only for
/// `crates/common/src/sync.rs`, which wraps the raw primitives.
pub fn lint_source(
    path: &Path,
    src: &str,
    registry: &ClassRegistry,
    allow_raw: bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let local_classes = collect_lock_class_statics(src);
    let lines: Vec<&str> = src.lines().collect();

    for (idx, raw_line) in lines.iter().enumerate() {
        let line = strip_line_comment(raw_line);
        let lineno = idx + 1;
        let push = |findings: &mut Vec<Finding>, rule| {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: lineno,
                rule,
                excerpt: raw_line.trim().to_string(),
            });
        };

        if !allow_raw {
            if line.contains("parking_lot") {
                push(&mut findings, "raw-lock");
            }
            let qualified_std_lock = line.contains("std::sync::Mutex")
                || line.contains("std::sync::RwLock")
                || line.contains("std::sync::Condvar");
            let imported_std_lock = line.contains("use std::sync::")
                && (has_word(line, "Mutex")
                    || has_word(line, "RwLock")
                    || has_word(line, "Condvar"));
            if qualified_std_lock || imported_std_lock {
                push(&mut findings, "raw-lock");
            }

            for pat in [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"] {
                if line.contains(pat) {
                    push(&mut findings, "guard-unwrap");
                }
            }
        }

        for ctor in ["OrderedMutex::new(", "OrderedRwLock::new("] {
            let mut search = 0;
            while let Some(pos) = line[search..].find(ctor) {
                let open = search + pos + ctor.len();
                let first_arg = first_argument(&lines, idx, open);
                if !argument_is_registered(&first_arg, registry, &local_classes) {
                    push(&mut findings, "unregistered-class");
                }
                search = open;
            }
        }
    }
    findings
}

/// Collects the first argument of a call whose opening paren sits at byte
/// `open` of line `line_idx`, joining up to a handful of following lines if
/// the argument list wraps.
pub fn first_argument(lines: &[&str], line_idx: usize, open: usize) -> String {
    let mut arg = String::new();
    let mut depth = 0usize;
    let mut first = true;
    for l in lines.iter().skip(line_idx).take(6) {
        let text = if first {
            first = false;
            strip_line_comment(l).get(open..).unwrap_or("")
        } else {
            strip_line_comment(l)
        };
        for c in text.chars() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    if depth == 0 {
                        return arg;
                    }
                    depth -= 1;
                }
                ',' if depth == 0 => return arg,
                _ => {}
            }
            arg.push(c);
        }
        arg.push(' ');
    }
    arg
}

/// A first argument is legal when it is `&<path-to->classes::NAME` with
/// NAME in the central rank table, or `&NAME` with NAME declared as a
/// `static NAME: LockClass` in the same file.
fn argument_is_registered(
    arg: &str,
    registry: &ClassRegistry,
    local: &BTreeMap<String, Option<u32>>,
) -> bool {
    let arg = arg.trim();
    let Some(path) = arg.strip_prefix('&') else { return false };
    let path = path.trim();
    let segments: Vec<&str> = path.split("::").map(str::trim).collect();
    let Some(name) = segments.last() else { return false };
    if segments.len() >= 2 && segments[segments.len() - 2] == "classes" {
        registry.contains(name)
    } else if segments.len() == 1 {
        local.contains_key(*name) || registry.contains(name)
    } else {
        false
    }
}

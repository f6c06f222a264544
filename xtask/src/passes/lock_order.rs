//! **Static lock-order analysis** — the tentpole pass.
//!
//! The runtime rank checker (DESIGN.md §9) only trips on a nested
//! acquisition a debug run actually takes; this pass applies the same
//! rank rule to statically-visible nestings at lint time, before any test
//! runs.
//!
//! Per file it (1) maps bindings to lock classes from
//! `OrderedMutex::new(&classes::X, ..)` construction sites, (2) walks
//! function bodies tracking guard liveness by brace depth (a `let`-bound
//! guard dies when its enclosing block closes or is `drop`ped; a guard
//! born in an `if let`/`while let`/`match`/`for` header lives through the
//! construct's block; any other temporary lives to the end of its
//! statement), and (3) records an acquisition edge `A → B` whenever a
//! lock of class B is taken while a guard of class A is live. Edges from
//! every file are merged by class pair, and each is judged on its own:
//!
//! - **lock-order-inversion** — an edge whose destination rank is not
//!   strictly greater than its source rank (the total-order rule, same
//!   class included);
//! - **lock-order-unranked** — an edge with a class whose rank is not a
//!   literal the pass can read. Every other edge goes strictly up in rank,
//!   so a cycle in the graph needs an inversion or an unranked edge: the
//!   two rules together reject every cycle without searching for one;
//! - **rank-table-drift** — the `sync::classes` rank table and the
//!   DESIGN.md §9 table disagree (class missing on either side, or rank
//!   mismatch).
//!
//! Resolution is conservative: acquisitions whose receiver cannot be
//! mapped to a class constructed in the same file are skipped, so the
//! pass under-approximates (no false edges from unknown receivers) and
//! the debug-build runtime checker remains the dynamic backstop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::findings::Finding;
use crate::registry::{
    collect_lock_class_statics, parse_design_rank_table, ClassRegistry,
};
use crate::walker::{code_of, SourceFile, Workspace};

use super::{AnalyzeCtx, Pass};

pub struct LockOrder;

impl Pass for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["lock-order-inversion", "lock-order-unranked", "rank-table-drift"]
    }

    fn run(&self, ctx: &AnalyzeCtx, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
        for file in &ws.files {
            for edge in file_edges(file, &ctx.registry) {
                edges
                    .entry((edge.from.clone(), edge.to.clone()))
                    .or_insert(edge);
            }
        }

        for edge in edges.values() {
            let (from, to) = (&edge.from, &edge.to);
            let (rule, excerpt) = match (edge.from_rank, edge.to_rank) {
                (Some(fr), Some(tr)) if tr > fr => continue,
                (Some(fr), Some(tr)) => (
                    "lock-order-inversion",
                    format!("acquires {to} (rank {tr}) while holding {from} (rank {fr})"),
                ),
                _ => (
                    "lock-order-unranked",
                    format!("acquires {to} while holding {from}; a rank is not a literal"),
                ),
            };
            findings.push(Finding {
                file: edge.file.clone(),
                line: edge.line,
                rule,
                excerpt: format!("{excerpt}: {}", edge.excerpt),
            });
        }

        if let Some(design) = &ctx.design_md {
            findings.extend(rank_table_drift(&ctx.registry, design));
        }
        findings
    }
}

/// One observed "held A while acquiring B" edge.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub from_rank: Option<u32>,
    pub to: String,
    pub to_rank: Option<u32>,
    pub file: PathBuf,
    pub line: usize,
    pub excerpt: String,
}

#[derive(Debug)]
struct Guard {
    /// Binding name for `let`-bound guards (`drop(name)` kills them);
    /// `None` for header/temporary guards.
    name: Option<String>,
    class: String,
    /// The guard dies when brace depth drops below this.
    scope_depth: i32,
    /// Temporary guards additionally die at the end of their line.
    temp: bool,
}

/// Extracts acquisition edges from one file.
pub fn file_edges(file: &SourceFile, registry: &ClassRegistry) -> Vec<Edge> {
    let local = collect_lock_class_statics(&file.src);
    let rank_of = |class: &str| -> Option<u32> {
        registry.rank(class).or_else(|| local.get(class).copied().flatten())
    };

    let bindings = lock_bindings(&file.src);
    let limit = file.non_test_line_count();

    let mut edges = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;

    for (idx, raw) in file.src.lines().enumerate() {
        if idx >= limit {
            break;
        }
        let code = code_of(raw);
        let bytes = code.as_bytes();
        let line_ends_open = code.trim_end().ends_with('{');

        // Walk the line character by character so braces, drops, and
        // acquisitions are seen in source order.
        let mut i = 0usize;
        let mut line_temp_guards = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    depth += 1;
                    i += 1;
                }
                b'}' => {
                    depth -= 1;
                    guards.retain(|g| g.scope_depth <= depth);
                    i += 1;
                }
                b'd' if code[i..].starts_with("drop(")
                    && (i == 0
                        || (!bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_')) =>
                {
                    let inner =
                        code[i + 5..].split(')').next().unwrap_or("").trim().to_string();
                    guards.retain(|g| g.name.as_deref() != Some(inner.as_str()));
                    i += 5;
                }
                b'.' => {
                    let acq = [".lock()", ".read()", ".write()"]
                        .iter()
                        .find(|p| code[i..].starts_with(**p));
                    if let Some(pat) = acq {
                        // `.lock` ends right before the `(`.
                        let method_end = i + pat.len() - 2;
                        let chain = crate::walker::ident_chain_before(&code, method_end);
                        // chain = [.., receiver, method]
                        let receiver = chain
                            .len()
                            .checked_sub(2)
                            .and_then(|r| chain.get(r))
                            .cloned();
                        let class = receiver
                            .as_deref()
                            .and_then(|r| bindings.get(r))
                            .cloned()
                            .flatten();
                        if let Some(class) = class {
                            for g in &guards {
                                edges.push(Edge {
                                    from: g.class.clone(),
                                    from_rank: rank_of(&g.class),
                                    to: class.clone(),
                                    to_rank: rank_of(&class),
                                    file: file.rel.clone(),
                                    line: idx + 1,
                                    excerpt: raw.trim().to_string(),
                                });
                            }
                            let stmt = statement_prefix(&code, i);
                            // `.lock().clone()` etc.: the chained call
                            // consumes the guard, so what a `let` binds is
                            // the chain result, not the guard — it dies at
                            // statement end. (Header scrutinee temporaries
                            // still live through the construct.)
                            let chained =
                                code[i + pat.len()..].trim_start().starts_with('.');
                            if is_control_header(stmt) && line_ends_open {
                                // Header temporary (`if let`/`while let`/
                                // `match`/`for` scrutinee): lives through
                                // the construct's block, which opens at
                                // the end of this line.
                                guards.push(Guard {
                                    name: None,
                                    class,
                                    scope_depth: depth + 1,
                                    temp: false,
                                });
                            } else if let Some(name) =
                                let_binding_name(stmt).filter(|_| !chained)
                            {
                                guards.push(Guard {
                                    name: Some(name),
                                    class,
                                    scope_depth: depth,
                                    temp: false,
                                });
                            } else {
                                guards.push(Guard {
                                    name: None,
                                    class,
                                    scope_depth: depth,
                                    temp: true,
                                });
                                line_temp_guards += 1;
                            }
                        }
                        i += pat.len();
                    } else {
                        i += 1;
                    }
                }
                b';' => {
                    // Statement end: temporaries die.
                    if line_temp_guards > 0 {
                        guards.retain(|g| !g.temp);
                        line_temp_guards = 0;
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        // Line end: temporaries die.
        guards.retain(|g| !g.temp);
    }
    edges
}

/// Maps binding names to the lock class they are constructed with, from
/// `let NAME = Ordered*::new(&classes::X, ..)` and struct-literal
/// `NAME: Ordered*::new(&classes::X, ..)` sites. A name constructed with
/// two different classes in one file maps to `None` (ambiguous — skipped).
fn lock_bindings(src: &str) -> BTreeMap<String, Option<String>> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out: BTreeMap<String, Option<String>> = BTreeMap::new();
    for (idx, raw) in lines.iter().enumerate() {
        let code = code_of(raw);
        for ctor in ["OrderedMutex::new(", "OrderedRwLock::new("] {
            let mut search = 0usize;
            while let Some(pos) = code[search..].find(ctor) {
                let at = search + pos;
                let open = at + ctor.len();
                // The legacy helper joins wrapped argument lists.
                let stripped: Vec<&str> =
                    lines.iter().map(|l| crate::walker::strip_line_comment(l)).collect();
                // Recompute the open offset on the comment-stripped line
                // (identical up to blanked literals, so offsets match).
                let first_arg = super::locks::first_argument(&stripped, idx, open);
                let class = first_arg
                    .trim()
                    .strip_prefix('&')
                    .map(|p| p.trim().split("::").last().unwrap_or("").trim().to_string())
                    .filter(|c| !c.is_empty());
                if let Some(class) = class {
                    if let Some(name) = binding_name_before(&code, at) {
                        match out.get(&name) {
                            Some(Some(existing)) if *existing != class => {
                                out.insert(name, None);
                            }
                            Some(_) => {}
                            None => {
                                out.insert(name, Some(class));
                            }
                        }
                    }
                }
                search = open;
            }
        }
    }
    out
}

/// The binding a construction at byte `at` initializes: `let [mut] NAME =`
/// or struct-literal / field-init `NAME:` immediately before it.
fn binding_name_before(code: &str, at: usize) -> Option<String> {
    let prefix = statement_prefix(code, at).trim_end();
    if let Some(eq_pos) = prefix.rfind('=') {
        let head = prefix[..eq_pos].trim_end();
        if let Some(let_pos) = head.rfind("let ") {
            let name = head[let_pos + 4..].trim().trim_start_matches("mut ").trim();
            let name: String = name
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        return None;
    }
    let head = prefix.strip_suffix(':')?.trim_end();
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() { None } else { Some(name) }
}

/// The slice of `code` from the last statement boundary (`;` or `{`)
/// before byte `at` to `at`.
fn statement_prefix(code: &str, at: usize) -> &str {
    let start = code[..at]
        .rfind([';', '{'])
        .map(|p| p + 1)
        .unwrap_or(0);
    &code[start..at]
}

/// The name bound by a plain `let [mut] NAME = ...` statement prefix;
/// `None` for destructuring patterns and non-let statements.
fn let_binding_name(stmt: &str) -> Option<String> {
    let eq_pos = stmt.rfind('=')?;
    let head = stmt[..eq_pos].trim_end();
    let let_pos = head.rfind("let ")?;
    let name = head[let_pos + 4..].trim();
    let name = name.strip_prefix("mut ").unwrap_or(name).trim();
    // Reject destructuring patterns and type ascriptions conservatively.
    let ident: String =
        name.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if ident.is_empty() || ident.len() != name.len() && !name[ident.len()..].trim_start().starts_with(':') {
        return None;
    }
    Some(ident)
}

/// Whether a statement prefix is an `if`/`while`/`match`/`for` header
/// (whose temporaries live through the construct's block).
fn is_control_header(stmt: &str) -> bool {
    let s = stmt.trim_start();
    ["if ", "if(", "while ", "while(", "match ", "for ", "else if "]
        .iter()
        .any(|k| s.starts_with(k))
}

/// Cross-checks the code's rank table against the DESIGN.md §9 table.
fn rank_table_drift(registry: &ClassRegistry, design_md: &str) -> Vec<Finding> {
    let design = Path::new("DESIGN.md");
    let rows = parse_design_rank_table(design_md);
    let mut findings = Vec::new();
    if rows.is_empty() {
        return findings;
    }
    let doc: BTreeMap<&str, (u32, usize)> =
        rows.iter().map(|r| (r.class.as_str(), (r.rank, r.line))).collect();
    for (class, rank) in registry.entries() {
        match (doc.get(class), rank) {
            (None, _) => findings.push(Finding {
                file: design.to_path_buf(),
                line: rows[0].line,
                rule: "rank-table-drift",
                excerpt: format!(
                    "class {class} (rank {}) is in sync::classes but missing from the \
                     DESIGN.md §9 rank table",
                    rank.map_or("?".to_string(), |r| r.to_string())
                ),
            }),
            (Some((doc_rank, line)), Some(code_rank)) if *doc_rank != code_rank => {
                findings.push(Finding {
                    file: design.to_path_buf(),
                    line: *line,
                    rule: "rank-table-drift",
                    excerpt: format!(
                        "class {class}: DESIGN.md says rank {doc_rank}, \
                         sync::classes says {code_rank}"
                    ),
                })
            }
            _ => {}
        }
    }
    for row in &rows {
        if !registry.contains(&row.class) {
            findings.push(Finding {
                file: design.to_path_buf(),
                line: row.line,
                rule: "rank-table-drift",
                excerpt: format!(
                    "class {} (rank {}) is in the DESIGN.md §9 table but not in \
                     sync::classes",
                    row.class, row.rank
                ),
            });
        }
    }
    findings
}

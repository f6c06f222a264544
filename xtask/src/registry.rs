//! The `LockClass` rank registry, parsed from `crates/common/src/sync.rs`
//! (the single source of truth) and, for drift checking, from the
//! DESIGN.md §9 rank table.

use std::collections::BTreeMap;

use crate::walker::strip_line_comment;

/// The set of `LockClass` names a construction may legally reference,
/// with their numeric ranks where statically parseable.
#[derive(Debug, Default, Clone)]
pub struct ClassRegistry {
    /// Class ident → rank. Rank is `None` when the declaration's rank
    /// argument was not a literal.
    central: BTreeMap<String, Option<u32>>,
}

impl ClassRegistry {
    /// Builds the registry from the rank-table source (`sync.rs`). Only
    /// the non-test region counts: classes declared under `#[cfg(test)]`
    /// are test-local, not part of the central table (and not held
    /// against the DESIGN.md §9 drift check).
    pub fn from_sync_source(sync_src: &str) -> ClassRegistry {
        let non_test = match sync_src.find("#[cfg(test)]") {
            Some(pos) => &sync_src[..pos],
            None => sync_src,
        };
        ClassRegistry { central: collect_lock_class_statics(non_test) }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.central.contains_key(name)
    }

    /// The rank of a centrally registered class, when known.
    pub fn rank(&self, name: &str) -> Option<u32> {
        self.central.get(name).copied().flatten()
    }

    /// Every `(class ident, rank)` pair, sorted by ident.
    pub fn entries(&self) -> impl Iterator<Item = (&str, Option<u32>)> {
        self.central.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of centrally registered classes (for the summary line).
    pub fn len(&self) -> usize {
        self.central.len()
    }

    pub fn is_empty(&self) -> bool {
        self.central.is_empty()
    }
}

/// Extracts `static NAME: LockClass = LockClass::new("...", RANK)`
/// declarations (with or without `pub`) from one source file. Returns
/// ident → rank (rank `None` if not a literal).
pub fn collect_lock_class_statics(src: &str) -> BTreeMap<String, Option<u32>> {
    let mut out = BTreeMap::new();
    for line in src.lines() {
        let line = strip_line_comment(line).trim().to_string();
        let rest = line
            .strip_prefix("pub static ")
            .or_else(|| line.strip_prefix("static "));
        if let Some(rest) = rest {
            if let Some((name, ty)) = rest.split_once(':') {
                if ty.trim_start().starts_with("LockClass") {
                    out.insert(name.trim().to_string(), parse_rank(ty));
                }
            }
        }
    }
    out
}

/// Pulls the literal rank out of `LockClass = LockClass::new("name", 300);`.
fn parse_rank(decl_rhs: &str) -> Option<u32> {
    let args = decl_rhs.split_once("LockClass::new(")?.1;
    let second = args.split(',').nth(1)?;
    second.trim().trim_end_matches([')', ';']).trim().parse().ok()
}

/// One row of the DESIGN.md §9 rank table: `| 300 | `STORE_MAP` | ... |`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignRankRow {
    pub rank: u32,
    pub class: String,
    /// 1-based line in DESIGN.md.
    pub line: usize,
}

/// Parses the DESIGN.md §9 rank table rows (any markdown table whose
/// first cell is a number and second cell a backticked UPPER_SNAKE ident).
pub fn parse_design_rank_table(design_md: &str) -> Vec<DesignRankRow> {
    let mut rows = Vec::new();
    for (idx, line) in design_md.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let Ok(rank) = cells[0].parse::<u32>() else { continue };
        let class = cells[1].trim_matches('`');
        if !class.is_empty()
            && class
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        {
            rows.push(DesignRankRow { rank, class: class.to_string(), line: idx + 1 });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_parse_from_sync_source() {
        let reg = ClassRegistry::from_sync_source(
            "pub static STORE_MAP: LockClass = LockClass::new(\"object_store.map\", 300);\n\
             static LOCAL: LockClass = LockClass::new(\"t.local\", 1);\n",
        );
        assert_eq!(reg.rank("STORE_MAP"), Some(300));
        assert_eq!(reg.rank("LOCAL"), Some(1));
        assert!(reg.contains("STORE_MAP"));
        assert!(!reg.contains("NOPE"));
    }

    #[test]
    fn design_table_rows_parse() {
        let md = "| Rank | Class |\n|---:|---|\n| 100 | `CLUSTER_TOPOLOGY` | x |\n\
                  | 300 | `STORE_MAP` | y |\nnot a row\n";
        let rows = parse_design_rank_table(md);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].class, "CLUSTER_TOPOLOGY");
        assert_eq!(rows[0].rank, 100);
        assert_eq!(rows[1].rank, 300);
    }
}

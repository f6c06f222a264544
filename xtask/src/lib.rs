//! Workspace static analysis: the static half of the repo's enforcement
//! story (`ray_common::sync`'s ranked locks and the trace-assertion suite
//! are the dynamic half).
//!
//! `cargo run -p xtask -- analyze` walks the workspace once and runs every
//! pass over the shared file set:
//!
//! * **lock-discipline** — raw `parking_lot`/`std::sync` lock use outside
//!   the wrapper, poisoning-style `.lock().unwrap()`, and
//!   `OrderedMutex::new` with an unregistered `LockClass`.
//! * **wall-clock** — `Instant::now()` on trace-emission paths (all time
//!   goes through the `Clock` seam).
//! * **lock-order** — the rank rule at lint time: an intra-function
//!   nested acquisition whose rank does not go up (`lock-order-inversion`)
//!   or whose rank is not a literal (`lock-order-unranked`) fails the
//!   gate, and the code's rank table is cross-checked against DESIGN.md §9.
//! * **determinism** — `HashMap`/`HashSet` iteration on trace, signature,
//!   and GCS flush/replay paths.
//! * **panic-free** — `unwrap()`/`expect()`/`panic!`/slice-indexing in
//!   non-test runtime code (burn-down via the allowlist ratchet).
//! * **sleep-poll** — `thread::sleep` inside loop bodies.
//! * **trace-coverage** — every `TraceEventKind` variant emitted in
//!   runtime code and asserted in some test.
//!
//! Scanning is line-oriented and intentionally dumb — no syn, no regex
//! crate, std only — because the gate has to build offline. Pre-existing
//! violations are budgeted in `xtask/analyze.allow` (a ratchet: budgets
//! only shrink; see `allowlist`).

pub mod allowlist;
pub mod analyze;
pub mod findings;
pub mod json;
pub mod passes;
pub mod registry;
pub mod walker;

pub use findings::Finding;
pub use json::{parse_json, trace_check, Json};
pub use passes::locks::lint_source;
pub use passes::wall_clock::{lint_wall_clock, EMISSION_PATH_FILES};
pub use registry::ClassRegistry;

pub use analyze::{
    render_json, render_text, run_analyze, run_analyze_paths, update_ratchet, AnalyzeReport,
    ALLOWLIST_PATH,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn reg() -> ClassRegistry {
        ClassRegistry::from_sync_source(
            "pub static STORE_MAP: LockClass = LockClass::new(\"object_store.map\", 300);\n",
        )
    }

    #[test]
    fn raw_parking_lot_is_flagged() {
        let f = lint_source(Path::new("a.rs"), "use parking_lot::Mutex;\n", &reg(), false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-lock");
    }

    #[test]
    fn comments_about_parking_lot_are_fine() {
        let f = lint_source(
            Path::new("a.rs"),
            "// wraps parking_lot primitives\nlet x = 1;\n",
            &reg(),
            false,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn std_sync_lock_import_is_flagged() {
        let f = lint_source(
            Path::new("a.rs"),
            "use std::sync::{Arc, Mutex};\n",
            &reg(),
            false,
        );
        assert_eq!(f.len(), 1);
        // Arc alone stays legal.
        let ok = lint_source(Path::new("a.rs"), "use std::sync::Arc;\n", &reg(), false);
        assert!(ok.is_empty());
    }

    #[test]
    fn guard_unwrap_is_flagged() {
        let f = lint_source(
            Path::new("a.rs"),
            "let g = m.lock().unwrap();\n",
            &reg(),
            false,
        );
        assert_eq!(f[0].rule, "guard-unwrap");
    }

    #[test]
    fn registered_construction_passes() {
        let src = "let m = OrderedMutex::new(&classes::STORE_MAP, HashMap::new());\n";
        assert!(lint_source(Path::new("a.rs"), src, &reg(), false).is_empty());
        let qualified =
            "let m = ray_common::sync::OrderedMutex::new(&ray_common::sync::classes::STORE_MAP, 0);\n";
        assert!(lint_source(Path::new("a.rs"), qualified, &reg(), false).is_empty());
    }

    #[test]
    fn unregistered_construction_is_flagged() {
        let src = "let m = OrderedMutex::new(&classes::NOT_A_CLASS, 0);\n";
        let f = lint_source(Path::new("a.rs"), src, &reg(), false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unregistered-class");
    }

    #[test]
    fn file_local_static_class_passes() {
        let src = "static T_LOCAL: LockClass = LockClass::new(\"t.local\", 1);\n\
                   let m = OrderedMutex::new(&T_LOCAL, ());\n";
        assert!(lint_source(Path::new("a.rs"), src, &reg(), false).is_empty());
    }

    #[test]
    fn wall_clock_in_emission_path_is_flagged() {
        let src = "let deadline = Instant::now() + timeout;\n";
        let f = lint_wall_clock(Path::new("crates/core/src/node.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock-emission");
        // Clock reads pass.
        let ok = lint_wall_clock(Path::new("a.rs"), "let d = clock.now() + timeout;\n");
        assert!(ok.is_empty());
        // Test modules at the bottom of the file are exempt.
        let tested = "let d = clock.now();\n#[cfg(test)]\nmod tests {\n    \
                      fn t() { let x = Instant::now(); }\n}\n";
        assert!(lint_wall_clock(Path::new("a.rs"), tested).is_empty());
        // Comments don't count.
        assert!(lint_wall_clock(Path::new("a.rs"), "// not Instant::now()\n").is_empty());
    }

    #[test]
    fn trace_check_accepts_valid_trace() {
        let src = r#"{"traceEvents":[
            {"name":"f","cat":"task","ph":"X","ts":1,"dur":5,"pid":0,"tid":7,"args":{}},
            {"name":"g","cat":"task","ph":"X","ts":2,"dur":3,"pid":1,"tid":8,"args":{}},
            {"name":"submitted","cat":"lifecycle","ph":"i","ts":0,"pid":0,"tid":7,"s":"t"}
        ]}"#;
        let spans = trace_check(src, Some(2)).expect("valid trace");
        assert_eq!(spans.get(&0), Some(&1));
        assert_eq!(spans.get(&1), Some(&1));
    }

    #[test]
    fn trace_check_rejects_missing_node_span() {
        let src = r#"{"traceEvents":[
            {"name":"f","ph":"X","ts":1,"dur":5,"pid":0,"tid":7}
        ]}"#;
        let err = trace_check(src, Some(2)).unwrap_err();
        assert!(err.contains("node 1"), "got: {err}");
    }

    #[test]
    fn trace_check_rejects_malformed_json() {
        assert!(trace_check("{\"traceEvents\":[", None).is_err());
        assert!(trace_check("{\"traceEvents\":{}}", None).is_err());
        assert!(trace_check("{\"traceEvents\":[]} junk", None).is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let v = parse_json(r#"{"a":"q\"\nA","b":-1.5e2,"c":[true,false,null]}"#)
            .expect("parse");
        assert_eq!(v.get("a"), Some(&Json::Str("q\"\nA".to_string())));
        assert_eq!(v.get("b"), Some(&Json::Num(-150.0)));
        assert_eq!(
            v.get("c"),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]))
        );
    }

    #[test]
    fn multiline_construction_is_parsed() {
        let src = "let m = OrderedRwLock::new(\n    &classes::STORE_MAP,\n    Vec::new(),\n);\n";
        assert!(lint_source(Path::new("a.rs"), src, &reg(), false).is_empty());
        let bad = "let m = OrderedRwLock::new(\n    &classes::BOGUS,\n    Vec::new(),\n);\n";
        let f = lint_source(Path::new("a.rs"), bad, &reg(), false);
        assert_eq!(f.len(), 1);
    }
}

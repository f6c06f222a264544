//! The whole benchmark from one command: every workload in a child
//! process of its own (so peak memory and allocator state start fresh),
//! end-to-end run then per-layer run, gathered into `result.json` with a
//! host fingerprint; and `--compare`, which holds two such files against
//! the bounds.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats::Sliced;
use crate::workloads::serve_steady::MODEL_SPIN;

/// Prints exactly the names `BENCHMARK.json` carries.
pub fn list() {
    for w in spec::WORKLOADS {
        println!("workload {} -- {}", w.name, w.why);
    }
    for m in spec::END_TO_END {
        println!(
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    for m in spec::PER_LAYER {
        println!("per_layer {} {} {}", m.name, m.unit, m.better.label());
    }
}

/// Nanoseconds the serving model's spin takes on this host, per 1000
/// iterations: a fixed arithmetic loop, so that results from different
/// hosts can be told apart rather than compared.
fn calib_spin_ns() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ray_rl::serving::spin(std::hint::black_box(1_000_000)));
            t.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(seed: u64, seconds: f64) -> String {
    let unknown = || "unknown".to_string();
    json::Object::new()
        .str(
            "git_sha",
            &command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .str(
            "rustc",
            &command_output("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        // Every run pins itself to one of them (see `affinity`).
        .int("cpus_per_run", 1)
        .str("cpu_model", &cpu_model())
        .int("seed", seed)
        .num("seconds", seconds)
        .num("calib_spin_ns", calib_spin_ns())
        .int("serve_model_spin_iterations", MODEL_SPIN)
        .finish()
}

struct ChildRun {
    /// The contract line, parsed.
    result: Json,
    /// The detail line before it, parsed.
    detail: Json,
}

/// Runs this binary on one workload and reads back its last two lines.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // Everything but the two JSON lines is the `workload metric value
    // unit` listing: pass it on.
    for line in &lines[..lines.len().saturating_sub(2)] {
        println!("{line}");
    }
    let [detail, result] = lines[lines.len().saturating_sub(2)..] else {
        return Err(format!(
            "{workload}: child printed no result (exit {})",
            output.status
        ));
    };
    let run = ChildRun {
        result: json::parse_json(result)?,
        detail: json::parse_json(detail)?,
    };
    if !output.status.success() || run.result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload}: run failed its output checks: {result}"
        ));
    }
    Ok(run)
}

/// One run's metrics as `{name: {value, unit, q1, q3}}`.
fn merged_metrics(run: &ChildRun) -> String {
    let slices = json::get_obj(&run.detail, "slices").unwrap_or(&[]);
    json::get_obj(&run.result, "metrics")
        .unwrap_or(&[])
        .iter()
        .fold(json::Object::new(), |obj, (name, m)| {
            let value = json::get_num(m, "value").unwrap_or(0.0);
            let slice = slices.iter().find(|(n, _)| n == name).map(|(_, s)| s);
            let bound = |key: &str| slice.and_then(|s| json::get_num(s, key)).unwrap_or(value);
            obj.raw(
                name,
                json::Object::new()
                    .num("value", value)
                    .str("unit", json::get_str(m, "unit").unwrap_or(""))
                    .num("q1", bound("q1"))
                    .num("q3", bound("q3"))
                    .finish(),
            )
        })
        .finish()
}

/// Runs `workloads` and writes `<out>/result.json`. Returns the process
/// exit code: non-zero if any output check failed.
pub fn run(workloads: &[&str], seed: u64, seconds: f64, out: &Path) -> i32 {
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("create {}: {e}", out.display());
        return 2;
    }
    let mut per_workload = json::Object::new();
    let mut failures = Vec::new();
    for &w in workloads {
        let mut entry = json::Object::new();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            match child(w, seed, seconds, trace, out) {
                Ok(run) => {
                    entry = entry.raw(key, merged_metrics(&run));
                    if trace {
                        let spans = run.detail.get("spans").map_or("{}".to_string(), render);
                        entry = entry.raw("spans", spans);
                    }
                }
                Err(e) => failures.push(e),
            }
        }
        per_workload = per_workload.raw(w, entry.finish());
    }
    let doc = json::Object::new()
        .raw("host", fingerprint(seed, seconds))
        .raw("workloads", per_workload.finish())
        .finish();
    let path = out.join("result.json");
    if let Err(e) = std::fs::write(&path, doc + "\n") {
        failures.push(format!("write {}: {e}", path.display()));
    }
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    i32::from(!failures.is_empty())
}

/// Re-renders parsed JSON (the parser keeps field order).
fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => json::number(*n),
        Json::Str(s) => json::string(s),
        Json::Arr(items) => json::array(items.iter().map(render)),
        Json::Obj(fields) => fields
            .iter()
            .fold(json::Object::new(), |obj, (k, v)| obj.raw(k, render(v)))
            .finish(),
    }
}

/// How `b` stands against `a` on one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Breach,
    /// One side's own quartile slices lie further apart than the bound: the
    /// difference cannot be told from noise.
    Unresolved,
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

pub fn verdict(a: Sliced, b: Sliced, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worsening(a.median, b.median, better) > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    }
}

fn metric_of(doc: &Json, workload: &str, kind: &str, name: &str) -> Option<Sliced> {
    let m = doc.get("workloads")?.get(workload)?.get(kind)?.get(name)?;
    Some(Sliced {
        median: json::get_num(m, "value")?,
        q1: json::get_num(m, "q1")?,
        q3: json::get_num(m, "q3")?,
    })
}

/// Compares result file `b` against `a`. Returns the exit code: non-zero
/// on any end-to-end breach, or if an exact run count differs.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse_json(&text).map_err(|e| format!("parse {}: {e}", p.display()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut bad = 0;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_of(&a, w.name, "end_to_end", m.name),
                metric_of(&b, w.name, "end_to_end", m.name),
            ) else {
                continue;
            };
            let v = verdict(va, vb, m.better, m.bound);
            bad += i32::from(v == Verdict::Breach);
            println!(
                "{} {} {} -> {} {} ({:+.1}% worse, bound {:.0}%) {:?}",
                w.name,
                m.name,
                json::number(va.median),
                json::number(vb.median),
                m.unit,
                worsening(va.median, vb.median, m.better) * 100.0,
                m.bound * 100.0,
                v
            );
        }
        for (_, name) in spec::EXACT_COUNTS
            .iter()
            .filter(|(workload, _)| *workload == w.name)
        {
            let (Some(va), Some(vb)) = (
                metric_of(&a, w.name, "per_layer", name),
                metric_of(&b, w.name, "per_layer", name),
            ) else {
                continue;
            };
            if va.median != vb.median {
                bad += 1;
                println!(
                    "{} {name} {} -> {} count differs",
                    w.name, va.median, vb.median
                );
            }
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(v: f64) -> Sliced {
        Sliced {
            median: v,
            q1: v * 0.99,
            q3: v * 1.01,
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 120.0, Better::Higher) + 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 120.0, Better::Lower) - 0.2).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdict_separates_breach_within_and_noise() {
        assert_eq!(
            verdict(steady(100.0), steady(95.0), Better::Higher, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(steady(100.0), steady(85.0), Better::Higher, 0.1),
            Verdict::Breach
        );
        assert_eq!(
            verdict(steady(100.0), steady(300.0), Better::Higher, 0.1),
            Verdict::Within
        );
        let noisy = Sliced {
            median: 100.0,
            q1: 80.0,
            q3: 120.0,
        };
        assert_eq!(
            verdict(noisy, steady(50.0), Better::Higher, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_reads_what_run_writes() {
        let metrics = json::Object::new()
            .raw(
                "ops_per_s",
                json::Object::new()
                    .num("value", 10.0)
                    .str("unit", "1/s")
                    .num("q1", 9.9)
                    .num("q3", 10.1)
                    .finish(),
            )
            .finish();
        let doc = json::Object::new()
            .raw(
                "workloads",
                json::Object::new()
                    .raw(
                        "task_storm",
                        json::Object::new().raw("end_to_end", metrics).finish(),
                    )
                    .finish(),
            )
            .finish();
        let parsed = json::parse_json(&doc).unwrap();
        let got = metric_of(&parsed, "task_storm", "end_to_end", "ops_per_s").unwrap();
        assert_eq!(
            got,
            Sliced {
                median: 10.0,
                q1: 9.9,
                q3: 10.1
            }
        );
        assert!(metric_of(&parsed, "task_storm", "per_layer", "ops_per_s").is_none());
        assert_eq!(render(&parsed), doc);
    }
}

//! `perf`: the rustray benchmark. See README.md beside this crate.

mod affinity;
mod fold;
mod harness;
mod json;
mod probes;
mod run;
mod span;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;

const USAGE: &str = "usage:
  perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
        one run of one workload; the last line of output is its result
  perf [--workload <name>] [--seed <n>] [--seconds <s>] [--out <dir>]
        every workload (or one), end to end then per layer, each run in a
        child process; writes <dir>/result.json and <dir>/trace_<workload>.json
  perf --list
        the workload and metric names of BENCHMARK.json
  perf --compare <a.json> <b.json>
        result file b held against a and the bounds";

/// Where the suite writes when `--out` is not given.
const DEFAULT_OUT: &str = "perf/out";
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        list: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--list" => parsed.list = true,
            "--compare" => {
                parsed.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if spec::workload(w).is_none() {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if args.list {
        suite::list();
        0
    } else if let Some((a, b)) = &args.compare {
        suite::compare(a, b)
    } else if let (Some(workload), Some(trace)) = (&args.workload, args.trace) {
        // Before any thread exists, so that all of them inherit it.
        let pinned = affinity::pin_to_one_cpu();
        if let Err(e) = &pinned {
            eprintln!("perf: cannot pin to one CPU ({e}); expect noisier numbers");
        }
        let mut report = if trace {
            run::per_layer(workload, args.seed, args.out.as_deref())
        } else {
            run::end_to_end(workload, args.seed, args.seconds)
        };
        let cpu = pinned.map_or("null".to_string(), |cpu| cpu.to_string());
        report.detail.push(("pinned_cpu", cpu));
        report.print();
        i32::from(!report.correct())
    } else {
        let all: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        let chosen = args.workload.as_deref().map_or(all, |w| vec![w]);
        let out = args.out.unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
        suite::run(&chosen, args.seed, args.seconds, &out)
    };
    std::process::exit(code);
}

//! Runs the full reproduction suite: every table and figure of the
//! paper's evaluation, in order, writing all results to `bench_results/`.
//!
//! `cargo run --release -p ray-bench --bin repro_all [-- --quick]`

use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "fig08a_locality",
    "fig08b_scalability",
    "fig09_object_store",
    "fig10a_gcs_fault_tolerance",
    "fig10b_gcs_flush",
    "fig11a_task_reconstruction",
    "fig11b_actor_reconstruction",
    "fig12a_allreduce",
    "fig12b_scheduler_ablation",
    "fig13_sgd_throughput",
    "table3_serving",
    "table3_pools",
    "table4_simulation",
    "fig14a_es",
    "fig14b_ppo",
];

fn main() {
    let quick = ray_bench::quick_mode();
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();

    let mut failures = Vec::new();
    let suite_start = Instant::now();
    for name in EXPERIMENTS {
        println!("\n##### {name} #####");
        let start = Instant::now();
        let mut cmd = Command::new(bin_dir.join(name));
        if quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) if status.success() => {
                println!("##### {name} done in {:.1}s #####", start.elapsed().as_secs_f64());
            }
            Ok(status) => {
                eprintln!("##### {name} FAILED: {status} #####");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("##### {name} could not start: {e} #####");
                eprintln!("(build all binaries first: cargo build --release -p ray-bench)");
                failures.push(*name);
            }
        }
    }
    println!(
        "\n===== suite finished in {:.1}s: {}/{} experiments ok =====",
        suite_start.elapsed().as_secs_f64(),
        EXPERIMENTS.len() - failures.len(),
        EXPERIMENTS.len()
    );
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn every_figure_binary_is_in_the_suite() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut bins: Vec<String> = std::fs::read_dir(dir)
            .expect("src/bin")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
            // `repro_all` is this runner; `chaos_soak` is a failure soak
            // that reproduces no table or figure of the paper.
            .filter(|stem| stem != "repro_all" && stem != "chaos_soak")
            .collect();
        bins.sort();
        let mut listed: Vec<String> = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        listed.sort();
        assert_eq!(listed, bins);
    }
}

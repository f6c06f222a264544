//! The four workloads. Each module sets a cluster up, drives it closed
//! loop from at most two threads of this process, checks every output,
//! and returns its phases' statistics.

pub mod object_flow;
pub mod ring_allreduce;
pub mod serve_steady;
pub mod task_storm;

use std::time::Duration;

use rustray::Cluster;

use crate::harness::PhaseStats;
use crate::span::{Span, SpanClock};
use crate::stats::Sliced;

/// How one pass over a workload is sized.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Measure for this long (the end-to-end runs).
    Timed(Duration),
    /// A fixed op count a tenth of what a timed run does on the seed
    /// host (the per-layer runs): identical work on every commit.
    Fixed,
}

/// What a pass over a workload yields.
pub struct Outcome {
    /// The phase giving `ops_per_s`, `cpu_us_per_op` and `mb_per_s`.
    pub throughput: PhaseStats,
    /// Per-op latency percentiles (from `throughput`'s phase unless the
    /// workload has an unloaded phase of its own).
    pub p50_us: Sliced,
    pub p99_us: Sliced,
    /// Per-slice values of `ops_per_s`, `cpu_us_per_op`, `op_p50_us` and
    /// `op_p99_us`, in that order.
    pub slice_values: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
    /// Ops completed and verified over every phase of the pass.
    pub completed: u64,
    /// Spans the driver threads recorded (empty unless traced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// From one phase that gives both the rates and the latencies.
    pub fn single(mut phase: PhaseStats) -> Outcome {
        let none = Sliced::flat(0.0);
        let spans = std::mem::take(&mut phase.spans);
        Outcome {
            slice_values: phase.slice_values.clone(),
            p50_us: phase.p50_us.unwrap_or(none),
            p99_us: phase.p99_us.unwrap_or(none),
            attempted: phase.attempted,
            failed: phase.failed,
            completed: phase.completed,
            throughput: phase,
            spans,
        }
    }
}

/// A workload set up and ready for its first timed op.
pub trait Env {
    fn cluster(&self) -> &Cluster;

    /// One pass. `spans` is the clock to stamp spans on, or `None` to
    /// record none.
    fn run(&self, mode: Mode, spans: Option<SpanClock>) -> Outcome;

    /// Per-layer numbers only this workload can give, measured after the
    /// untraced fixed-count pass `plain`.
    fn layer_extras(&self, plain: &Outcome) -> Vec<(&'static str, f64)> {
        let _ = plain;
        Vec::new()
    }

    /// Stops the cluster and everything the set-up started.
    fn shutdown(self: Box<Self>);
}

/// Sets `workload` up: cluster start, registration, actors or pool, and
/// warm-up — everything before the first timed op.
pub fn setup(workload: &str, seed: u64, traced: bool) -> Option<Box<dyn Env>> {
    Some(match workload {
        "task_storm" => Box::new(task_storm::setup(seed, traced)),
        "object_flow" => Box::new(object_flow::setup(seed, traced)),
        "ring_allreduce" => Box::new(ring_allreduce::setup(seed, traced)),
        "serve_steady" => Box::new(serve_steady::setup(seed, traced)),
        _ => return None,
    })
}

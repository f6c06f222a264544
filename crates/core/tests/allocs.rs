//! What a task costs the allocator, process-wide: every `malloc` and
//! `realloc` the runtime makes for it on any thread — the submit, the
//! lineage write, the placement, the queue, the worker, the result's
//! seal and listing, and the `get` or `wait` that reads it.
//!
//! The binary's global allocator counts calls, not bytes, so its one test
//! runs both cases in turn: a second test would run beside it and count
//! into the same totals.

mod pin;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ray_common::{NodeId, ObjectId, RayConfig};
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::Cluster;

/// `System`, counting the calls that hand out a block.
struct Counting;

static MALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed to `System` with the caller's arguments and
// its result returned unchanged; the count is a side effect on an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        MALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Mean mallocs and reallocs per op.
type PerOp = (f64, f64);

/// Mean mallocs and reallocs per op while `ops` run.
fn per_op(ops: u64, run: impl FnOnce()) -> PerOp {
    let (mallocs, reallocs) = (MALLOCS.load(Ordering::Relaxed), REALLOCS.load(Ordering::Relaxed));
    run();
    (
        (MALLOCS.load(Ordering::Relaxed) - mallocs) as f64 / ops as f64,
        (REALLOCS.load(Ordering::Relaxed) - reallocs) as f64 / ops as f64,
    )
}

fn cluster(nodes: usize) -> Cluster {
    let cfg = RayConfig::builder().nodes(nodes).workers_per_node(2).seed(7).build();
    let cluster = Cluster::start(cfg).unwrap();
    cluster.register_fn1("inc", |x: u64| x.wrapping_add(1));
    cluster
}

/// (a) 2 000 serial `call` → `get` on one node.
fn serial_call_and_get() -> PerOp {
    const WARM_UP: u64 = 200;
    const OPS: u64 = 2_000;
    let cluster = cluster(1);
    let ctx = cluster.driver();
    let serial = |from: u64, to: u64| {
        for x in from..to {
            let fut: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&x).unwrap()]).unwrap();
            assert_eq!(ctx.get(&fut).unwrap(), x + 1);
        }
    };
    serial(0, WARM_UP);
    let counts = per_op(OPS, || serial(WARM_UP, WARM_UP + OPS));
    cluster.shutdown();
    counts
}

/// (b) Rounds of 1 024 submits from a driver whose node has both workers
/// held by a gate: the queue grows to the spill threshold, and every
/// submit past it is forwarded and placed. Then the gate opens and the
/// round is waited for.
fn spilled_burst() -> PerOp {
    const ROUND: u64 = 1_024;
    const ROUNDS: usize = 4;
    const WORKERS: usize = 2;
    let cluster = cluster(2);
    let threshold = RayConfig::default().scheduler.spillover_threshold as u64;
    // One gate per round, the warm-up's included; a `gate` task reports
    // that it runs, then waits for its round's gate to open.
    let gates: Arc<Vec<OnceLock<()>>> = Arc::new((0..=ROUNDS).map(|_| OnceLock::new()).collect());
    let (started_tx, started) = channel();
    let held = gates.clone();
    cluster.register_fn1("gate", move |round: usize| {
        let _ = started_tx.send(());
        held[round].wait();
        round
    });
    let ctx = cluster.driver_on(NodeId(0));
    let mut ids: Vec<ObjectId> = Vec::with_capacity(ROUND as usize + WORKERS);
    let mut round = |n: usize| {
        ids.clear();
        for _ in 0..WORKERS {
            let arg = Arg::value(&n).unwrap();
            ids.push(ctx.submit("gate", vec![arg], TaskOptions::default()).unwrap()[0]);
        }
        for _ in 0..WORKERS {
            started.recv_timeout(Duration::from_secs(10)).expect("a gate never started");
        }
        for x in 0..ROUND {
            let arg = Arg::value(&x).unwrap();
            ids.push(ctx.submit("inc", vec![arg], TaskOptions::default()).unwrap()[0]);
        }
        let _ = gates[n].set(());
        let (ready, _) = ctx.wait(&ids, ids.len(), Duration::from_secs(60)).unwrap();
        assert_eq!(ready.len(), ids.len());
    };
    round(0);
    let spilled_before = cluster.metrics().counter("tasks_spilled").get();
    let tasks = (ROUND + WORKERS as u64) * ROUNDS as u64;
    let counts = per_op(tasks, || (1..=ROUNDS).for_each(&mut round));
    let spilled = cluster.metrics().counter("tasks_spilled").get() - spilled_before;
    cluster.shutdown();
    // The queue's first `threshold + 1` lengths, 0 through the threshold,
    // keep a task; every later submit of the round spills.
    assert_eq!(spilled, (ROUND - threshold - 1) * ROUNDS as u64, "of {tasks} tasks");
    counts
}

/// Bounds on mean mallocs and reallocs per op, for (a) and (b), in debug
/// and release builds alike (the lock-rank checker's held stack is a
/// fixed array). Measured on one CPU of a 2-vCPU x86-64 guest, (a) then
/// (b), debug and release: 10.0 + 0.02 and 11.0–11.8 + 0.04–0.08. A task
/// that allocated its cancel token, copied its inline argument or named
/// a `call`'s one return in a `Vec` would read 13.3 and 13.2 again.
const BOUNDS: [PerOp; 2] = [(11.0, 0.5), (12.5, 0.5)];

fn assert_within(case: &str, (mallocs, reallocs): PerOp, (max_mallocs, max_reallocs): PerOp) {
    eprintln!("{case}: {mallocs:.2} mallocs + {reallocs:.2} reallocs per op");
    assert!(mallocs <= max_mallocs, "{case}: {mallocs:.2} mallocs per op, over {max_mallocs}");
    assert!(reallocs <= max_reallocs, "{case}: {reallocs:.2} reallocs per op, over {max_reallocs}");
}

#[test]
fn a_task_stays_within_its_allocation_budget() {
    pin::pin_to_one_cpu().expect("pin the test to one CPU");
    assert_within("serial call → get", serial_call_and_get(), BOUNDS[0]);
    assert_within("spilled burst task", spilled_burst(), BOUNDS[1]);
}

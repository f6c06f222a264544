//! A serial `call` → `get` costs one context switch per hand-off.
//!
//! On one CPU the op is two hand-offs: the driver's submit wakes a worker,
//! and the worker's seal wakes the driver. Each is a context switch, so
//! the op costs two, plus the periodic threads' share. A wake-up sent
//! while the waker still holds the lock the woken thread needs costs
//! more: the woken thread preempts its waker, finds the lock held and
//! sleeps again (3.6 switches per op measured that way on one CPU of a
//! 2-vCPU x86-64 guest, 2.1 without).
//!
//! The counts are the kernel's, summed over the process's threads from
//! `/proc/self/task/*/status`; the test is alone in its binary so no other
//! test's threads add to them.

mod pin;

use rustray::task::{Arg, ObjectRef};
use rustray::{Cluster, RayConfig};

const WARM_UP: u64 = 200;
const OPS: u64 = 2_000;
/// Two switches per op, with room for the heartbeat and the global
/// scheduler's ticks; a wake-up under the lock reads about 3.6.
const MAX_SWITCHES_PER_OP: f64 = 2.5;

/// Voluntary plus involuntary context switches of every live thread of
/// this process.
fn context_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let status = task.expect("a task entry").path().join("status");
        // A thread that exits between the listing and the read is skipped.
        let Ok(status) = std::fs::read_to_string(status) else { continue };
        total += status
            .lines()
            .filter(|line| line.contains("ctxt_switches:"))
            .filter_map(|line| line.split_whitespace().nth(1)?.parse::<u64>().ok())
            .sum::<u64>();
    }
    total
}

#[test]
fn a_serial_call_and_get_costs_one_context_switch_per_hand_off() {
    pin::pin_to_one_cpu().expect("pin the test to one CPU");
    let cluster =
        Cluster::start(RayConfig::builder().nodes(1).workers_per_node(2).seed(7).build()).unwrap();
    cluster.register_fn1("inc", |x: u64| x + 1);
    let ctx = cluster.driver();
    let serial = |from: u64, to: u64| {
        for x in from..to {
            let fut: ObjectRef<u64> = ctx.call("inc", vec![Arg::value(&x).unwrap()]).unwrap();
            assert_eq!(ctx.get(&fut).unwrap(), x + 1);
        }
    };
    serial(0, WARM_UP);
    let before = context_switches();
    serial(WARM_UP, WARM_UP + OPS);
    let per_op = (context_switches() - before) as f64 / OPS as f64;
    cluster.shutdown();
    eprintln!("{per_op:.2} context switches per serial call → get");
    assert!(
        per_op <= MAX_SWITCHES_PER_OP,
        "a serial call → get costs {per_op:.2} context switches, over {MAX_SWITCHES_PER_OP}"
    );
}

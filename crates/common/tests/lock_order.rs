//! Deliberate lock-order inversion: two ranked locks taken in opposite
//! orders on two threads must record exactly the one acquisition that goes
//! down in rank — the edge a deadlock between the two would need.
//!
//! Lives in its own integration-test binary on purpose: the violation
//! record is process-global, and this test *pollutes* it. The soaks in
//! every other test binary assert the record stays empty, so this one
//! runs in a separate process.
//!
//! The checker only exists in debug builds — in release the wrappers
//! compile down to plain `std::sync` — so the body is cfg-gated. Were the
//! checker stubbed out (inversions not recorded), the asserts below would
//! fail: that is the regression this test pins.

#![cfg(debug_assertions)]

use ray_common::sync::{set_panic_on_violation, violations, LockClass, OrderedMutex};

static LO_A: LockClass = LockClass::new("test.lock_order.a", 20_000);
static LO_B: LockClass = LockClass::new("test.lock_order.b", 20_010);

static LOCK_A: OrderedMutex<u32> = OrderedMutex::new(&LO_A, 0);
static LOCK_B: OrderedMutex<u32> = OrderedMutex::new(&LO_B, 0);

#[test]
fn opposite_order_acquisition_records_the_inversion() {
    // The second thread's acquisition is a rank violation (B -> A with
    // rank(A) < rank(B)); record it instead of panicking so we can inspect
    // the record.
    let was = set_panic_on_violation(false);

    // Thread 1: A then B — the legal order.
    let t1 = std::thread::spawn(|| {
        let _a = LOCK_A.lock();
        let _b = LOCK_B.lock();
    });
    t1.join().unwrap();
    assert!(violations().is_empty(), "the legal order records nothing: {:?}", violations());

    // Thread 2: B then A — the inversion. Sequential (t1 already joined),
    // so the test itself can never deadlock; only the rank check sees the
    // would-be deadlock.
    let t2 = std::thread::spawn(|| {
        let _b = LOCK_B.lock();
        let _a = LOCK_A.lock();
    });
    t2.join().unwrap();

    let v = violations();
    assert_eq!(v.len(), 1, "exactly the one inversion is recorded: {v:?}");
    assert!(
        v[0].contains("acquiring 'test.lock_order.a'") && v[0].contains("test.lock_order.b"),
        "the record names the class acquired and the class held: {v:?}"
    );

    set_panic_on_violation(was);
}

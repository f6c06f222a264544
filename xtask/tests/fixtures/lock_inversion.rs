//! Analyzer fixture: the lock-order pass must reject this file with one
//! `lock-order-inversion` (LOW acquired under HIGH, ranks inverted) and
//! two `lock-order-unranked` (CYC_A ↔ CYC_B: ranks unparseable, so the
//! inversion rule cannot compare them, and each edge of the cycle is
//! rejected on its own). Not compiled as part of any crate.

static HIGH: LockClass = LockClass::new("fixture.high", 20);
static LOW: LockClass = LockClass::new("fixture.low", 10);

// Non-literal ranks: the inversion rule cannot compare them, so every
// edge that touches them is a finding of its own.
static CYC_A: LockClass = LockClass::new("fixture.cyc_a", RANK_A);
static CYC_B: LockClass = LockClass::new("fixture.cyc_b", RANK_B);

fn build() {
    let hi = OrderedMutex::new(&HIGH, 0u32);
    let lo = OrderedMutex::new(&LOW, 0u32);
    let ca = OrderedMutex::new(&CYC_A, 0u32);
    let cb = OrderedMutex::new(&CYC_B, 0u32);
}

fn inverted() {
    let guard = hi.lock();
    let inner = lo.lock();
}

fn cycle_one_way() {
    let g = ca.lock();
    let h = cb.lock();
}

fn cycle_other_way() {
    let g = cb.lock();
    let h = ca.lock();
}

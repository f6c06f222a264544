//! Per-node resource accounting.
//!
//! A node advertises a capacity vector; dispatching a task acquires its
//! demand, completion releases it. The ledger enforces conservation:
//! available resources never exceed capacity and never go negative.

use ray_common::sync::{classes, OrderedMutex};

use ray_common::Resources;

/// Thread-safe resource ledger for one node.
///
/// # Examples
///
/// ```
/// use ray_common::Resources;
/// use ray_scheduler::ResourceLedger;
///
/// let ledger = ResourceLedger::new(Resources::new(2.0, 1.0));
/// let demand = Resources::cpus(1.0);
/// assert!(ledger.try_acquire(&demand));
/// assert!(ledger.try_acquire(&demand));
/// assert!(!ledger.try_acquire(&demand)); // CPUs exhausted.
/// ledger.release(&demand);
/// assert!(ledger.try_acquire(&demand));
/// ```
pub struct ResourceLedger {
    capacity: Resources,
    available: OrderedMutex<Resources>,
}

impl ResourceLedger {
    /// Creates a ledger with the given capacity, all of it available.
    pub fn new(capacity: Resources) -> ResourceLedger {
        ResourceLedger { available: OrderedMutex::new(&classes::SCHED_LEDGER, capacity.clone()), capacity }
    }

    /// The node's total capacity.
    pub fn capacity(&self) -> &Resources {
        &self.capacity
    }

    /// Snapshot of currently available resources.
    pub fn available(&self) -> Resources {
        self.available.lock().clone()
    }

    /// Whether `demand` could *ever* be satisfied by this node (feasibility
    /// against capacity, not current availability). Infeasible tasks must
    /// spill to the global scheduler no matter how idle the node is.
    pub fn feasible(&self, demand: &Resources) -> bool {
        self.capacity.fits(demand)
    }

    /// Atomically acquires `demand` if currently available, subtracting it
    /// in place.
    pub fn try_acquire(&self, demand: &Resources) -> bool {
        self.available.lock().try_sub_assign(demand)
    }

    /// Returns previously acquired resources.
    ///
    /// # Panics
    ///
    /// Panics if the release would push availability above capacity — that
    /// is a double-release bug in the caller, and resource conservation is
    /// a safety property worth failing fast on.
    pub fn release(&self, demand: &Resources) {
        let mut avail = self.available.lock();
        avail.add_assign(demand);
        assert!(
            self.capacity.fits(&avail),
            "resource ledger over-released: available {avail:?} exceeds capacity {:?}",
            self.capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_round_trip() {
        let l = ResourceLedger::new(Resources::new(4.0, 2.0));
        let d = Resources::new(1.0, 0.5);
        assert!(l.try_acquire(&d));
        assert_eq!(l.available(), Resources::new(3.0, 1.5));
        l.release(&d);
        assert_eq!(l.available(), Resources::new(4.0, 2.0));
    }

    #[test]
    fn feasibility_is_about_capacity_not_availability() {
        let l = ResourceLedger::new(Resources::cpus(1.0));
        assert!(l.try_acquire(&Resources::cpus(1.0)));
        // Node is busy but the demand is still feasible.
        assert!(l.feasible(&Resources::cpus(1.0)));
        // A GPU demand is never feasible on this node.
        assert!(!l.feasible(&Resources::gpus(1.0)));
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn double_release_panics() {
        let l = ResourceLedger::new(Resources::cpus(1.0));
        let d = Resources::cpus(1.0);
        assert!(l.try_acquire(&d));
        l.release(&d);
        l.release(&d);
    }

    #[test]
    fn concurrent_acquire_never_oversubscribes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let l = Arc::new(ResourceLedger::new(Resources::cpus(4.0)));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = l.clone();
                let in_flight = in_flight.clone();
                let max_seen = max_seen.clone();
                std::thread::spawn(move || {
                    let d = Resources::cpus(1.0);
                    for _ in 0..200 {
                        if l.try_acquire(&d) {
                            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            max_seen.fetch_max(now, Ordering::SeqCst);
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                            l.release(&d);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(max_seen.load(Ordering::SeqCst) <= 4);
        assert_eq!(l.available(), Resources::cpus(4.0));
    }
}

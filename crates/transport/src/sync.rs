//! A counting semaphore built on the workspace's ranked locks.
//!
//! Used by [`crate::fabric::Fabric`] to model a bounded pool of connection
//! lanes per link: a striped transfer holds several permits for its
//! duration, so concurrent transfers on the same link genuinely contend.

use ray_common::sync::{classes, OrderedCondvar, OrderedMutex};

/// A counting semaphore.
///
/// # Examples
///
/// ```
/// use ray_transport::Semaphore;
/// let s = Semaphore::new(2);
/// let p = s.acquire(2);
/// assert_eq!(s.available(), 0);
/// drop(p);
/// assert_eq!(s.available(), 2);
/// ```
pub struct Semaphore {
    permits: OrderedMutex<usize>,
    cond: OrderedCondvar,
    capacity: usize,
}

/// RAII guard returned by [`Semaphore::acquire`]; releases its permits on
/// drop.
pub struct Permit<'a> {
    sem: &'a Semaphore,
    count: usize,
}

impl Semaphore {
    /// Creates a semaphore with `capacity` permits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: every `acquire` on such a semaphore
    /// would block forever (there are no permits to hand out, ever), so a
    /// zero capacity is always a caller bug.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "Semaphore capacity must be non-zero: acquire() on an empty \
             semaphore would block forever"
        );
        Semaphore {
            permits: OrderedMutex::new(&classes::TRANSPORT_SEMAPHORE, capacity),
            cond: OrderedCondvar::new(),
            capacity,
        }
    }

    /// Total permit capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        *self.permits.lock()
    }

    /// Blocks until `count` permits are available, then takes them.
    ///
    /// `count` is clamped to `1..=capacity`, so a caller asking for more
    /// lanes than the link has still makes progress (using every lane)
    /// rather than blocking forever on an unsatisfiable request.
    pub fn acquire(&self, count: usize) -> Permit<'_> {
        let count = count.clamp(1, self.capacity);
        let mut permits = self.permits.lock();
        while *permits < count {
            self.cond.wait(&mut permits);
        }
        *permits -= count;
        Permit { sem: self, count }
    }

    /// Takes `count` permits if immediately available (same clamping as
    /// [`Semaphore::acquire`]).
    pub fn try_acquire(&self, count: usize) -> Option<Permit<'_>> {
        let count = count.clamp(1, self.capacity);
        let mut permits = self.permits.lock();
        if *permits < count {
            return None;
        }
        *permits -= count;
        Some(Permit { sem: self, count })
    }

    fn release(&self, count: usize) {
        let mut permits = self.permits.lock();
        *permits += count;
        debug_assert!(*permits <= self.capacity, "released more permits than acquired");
        // Unlock first: a waiter woken while the lock is still held would
        // only block on it again.
        drop(permits);
        self.cond.notify_all();
    }
}

impl Permit<'_> {
    /// Number of permits this guard holds.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.sem.release(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn acquire_release_cycle() {
        let s = Semaphore::new(3);
        let a = s.acquire(1);
        let b = s.acquire(2);
        assert_eq!(s.available(), 0);
        drop(a);
        assert_eq!(s.available(), 1);
        drop(b);
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn try_acquire_fails_when_exhausted() {
        let s = Semaphore::new(1);
        let _p = s.acquire(1);
        assert!(s.try_acquire(1).is_none());
    }

    #[test]
    fn oversized_request_is_clamped() {
        let s = Semaphore::new(2);
        let p = s.acquire(100);
        assert_eq!(p.count(), 2);
    }

    #[test]
    fn oversized_try_acquire_is_clamped_too() {
        let s = Semaphore::new(2);
        let p = s.try_acquire(usize::MAX).expect("all lanes free");
        assert_eq!(p.count(), 2);
        drop(p);
        assert_eq!(s.available(), 2);
    }

    #[test]
    #[should_panic(expected = "Semaphore capacity must be non-zero")]
    fn zero_capacity_panics_clearly() {
        // Regression: this used to panic deep inside `usize::clamp` with
        // "assertion failed: min <= max" on the first acquire — or, with a
        // hand-rolled clamp, block forever. The constructor now rejects it
        // with an actionable message.
        let _ = Semaphore::new(0);
    }

    #[test]
    fn blocked_acquirer_wakes_on_release() {
        let s = Arc::new(Semaphore::new(1));
        let p = s.acquire(1);
        let s2 = s.clone();
        let h = thread::spawn(move || {
            let _p = s2.acquire(1);
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "acquirer should be blocked");
        drop(p);
        h.join().unwrap();
    }

    #[test]
    fn many_threads_conserve_permits() {
        let s = Arc::new(Semaphore::new(4));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let s = s.clone();
                thread::spawn(move || {
                    for _ in 0..50 {
                        let _p = s.acquire(2);
                        // Invariant: at most capacity permits out at once.
                        assert!(s.available() <= 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.available(), 4);
    }
}

//! One CPU for the whole process.
//!
//! A rustray op is a chain of blocking hand-offs between threads (driver →
//! GCS shard → replica → scheduler → worker …). With two virtual CPUs the
//! kernel spreads that chain over both, and every hand-off becomes a wake-up
//! of the other CPU: an interrupt through the hypervisor whose cost is the
//! host's, not the program's. Measured here, the same commit ran
//! `object_flow` at 780–1430 op/s and `task_storm` at 2200–7400 task/s
//! from run to run, against 1280–1440 and 12800–14300 on one CPU, where a
//! hand-off is a context switch and nothing else. So every run pins itself
//! to one CPU before it starts a thread: throughput then reads as
//! 1 ÷ (CPU time per op over all threads), which is what a change to the
//! program moves, at the price of not seeing parallel speed-up.

use std::io;

/// Enough mask words for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS`
/// ceiling on x86-64.
const MASK_WORDS: usize = 16;

// The two glibc wrappers; std already links libc. A pid of 0 is the calling
// thread, and threads spawned later inherit its mask.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPU to keep out of those the mask allows: the highest, since the
/// lowest is where a guest's timer and device interrupts land.
fn choose(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
}

/// Restricts the calling thread, and every thread it spawns from here on,
/// to one of the CPUs it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = choose(&mask).ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed; the call only reads it.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_allowed_cpu_is_chosen() {
        assert_eq!(choose(&[0b0011, 0]), Some(1));
        assert_eq!(choose(&[0b0101, 0]), Some(2));
        assert_eq!(choose(&[1, 1 << 3]), Some(67));
        assert_eq!(choose(&[0, 0]), None);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu_for_new_threads() {
        // On a thread of its own, so the test runner's other threads keep
        // their CPUs.
        let allowed = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            let inherited = std::thread::spawn(|| {
                let mut mask = [0u64; MASK_WORDS];
                // SAFETY: as in `pin_to_one_cpu`.
                let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
                assert_eq!(rc, 0);
                mask
            })
            .join()
            .expect("child thread");
            (cpu, inherited)
        })
        .join()
        .expect("pinned thread");
        let (cpu, mask) = allowed;
        assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(choose(&mask), Some(cpu));
    }
}

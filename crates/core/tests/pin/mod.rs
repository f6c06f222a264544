//! Pins a test to one CPU, the reference host's shape: the counts a test
//! reads off the kernel or the allocator then do not depend on how many
//! CPUs the machine running it has.

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

/// Restricts the calling thread, and every thread it spawns from here on,
/// to the highest CPU it may run on.
pub fn pin_to_one_cpu() -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << (63 - bits.leading_zeros());
    // SAFETY: `one` is a live buffer of the size passed; the call only reads it.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

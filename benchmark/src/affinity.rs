//! Pinning the process to one CPU.
//!
//! Why: on a virtual machine an idle vCPU is halted, and waking it is
//! the hypervisor's business. `miss_prove`'s generator and pipeline
//! worker take turns, so on two vCPUs each hand-off wakes a halted
//! vCPU, and what the run then measures is the host: 19 unpinned 5 s
//! runs ranged over 77 % of their median (`read_p75_ns` spread 43 %,
//! `setup_s` 33 %), the same runs on one CPU over 15 % (5 %, 5 %). On
//! one CPU the two threads still take turns and the vCPU never idles.
//! README.md, "Noise", has the table.

#![allow(unsafe_code)]

/// 64-bit words of glibc's `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict this process — the calling thread and every thread it
/// starts from here on — to the lowest-numbered CPU it may run on.
/// Returns that CPU, or `None` if the kernel refused (the run goes on
/// unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, which is what `sched_getaffinity` may write; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `size` bytes, which
    // `sched_setaffinity` only reads; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run on a thread of its own: pinning is per thread, and the
    /// other tests should keep their CPUs.
    #[test]
    fn pins_to_one_allowed_cpu_and_new_threads_inherit_it() {
        let cpus_of_child = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread narrow its own affinity");
            let child = std::thread::spawn(move || {
                let mut mask = [0u64; WORDS];
                // SAFETY: as in `pin_to_one_cpu`.
                let rc = unsafe {
                    sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
                };
                assert_eq!(rc, 0);
                mask
            });
            (cpu, child.join().expect("child"))
        })
        .join()
        .expect("pinning thread");
        let (cpu, mask) = cpus_of_child;
        let mut expected = [0u64; WORDS];
        expected[cpu / 64] = 1 << (cpu % 64);
        assert_eq!(mask, expected);
    }
}

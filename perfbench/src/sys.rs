//! Process clocks read straight from the kernel, without `/proc`: CPU time
//! at nanosecond resolution (threads that already exited included) and
//! the process's peak resident set.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads 64-bit Linux process clocks");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
const RUSAGE_WORDS: usize = 18;
/// Index of `ru_maxrss` (KiB) in [`RUSAGE_WORDS`].
const RU_MAXRSS: usize = 4;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

/// CPU time this process has used so far, summed over all of its threads,
/// live or exited.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// High-water mark of this process's resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = [0i64; RUSAGE_WORDS];
    // SAFETY: the buffer is exactly the size of `struct rusage` on 64-bit
    // Linux and writable for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage[RU_MAXRSS] as f64 / 1024.0
}

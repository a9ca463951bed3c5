//! What the kernel knows about this process: CPU time and peak memory,
//! read from the process CPU clock and `/proc/self/status`.

use std::ffi::{c_int, c_long};

/// `struct timespec` as Linux's C library lays it out (`time_t` and
/// `long` are both `c_long` there).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// User + system CPU seconds the whole process (every thread, live or
/// joined) has used so far, from the scheduler's nanosecond run-time
/// sums. The tick counts in `/proc/self/stat` are sampled at 100 Hz and
/// miss most of a thread that wakes for microseconds between ticks —
/// which is all the transport workloads' executors do.
pub fn cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec` of the C library's
    // layout, and the call writes nothing else.
    let status = unsafe { clock_gettime(PROCESS_CPUTIME, &mut now) };
    assert_eq!(status, 0, "the process CPU clock is readable");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM in kB");
    kb / 1024.0
}

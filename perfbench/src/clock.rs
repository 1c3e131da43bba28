//! Monotonic and CPU clocks. CPU time comes from POSIX
//! `clock_gettime`, which `std` does not expose.

use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_self() -> u64;
    fn pthread_getcpuclockid(thread: u64, clock: *mut i32) -> i32;
}

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, laid out as the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by the whole process.
pub fn process_cpu_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread.
pub fn thread_cpu_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPU-time clock of the calling thread, readable from any other
/// thread of the process with [`clock_s`] while this one is alive.
pub fn this_thread_clock() -> i32 {
    let mut clock = 0;
    // SAFETY: `pthread_self` is always valid for the calling thread and
    // `clock` is a valid out-pointer.
    let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) };
    assert_eq!(rc, 0, "pthread_getcpuclockid failed");
    clock
}

/// Reads a clock obtained from [`this_thread_clock`].
pub fn clock_s(clock: i32) -> f64 {
    read(clock)
}

/// Nanoseconds since the first call in this process: a cheap stamp
/// that fits in a `u64` and can cross threads inside task values.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// OS threads of this process, from `/proc/self/status` (0 where that
/// file does not exist).
pub fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

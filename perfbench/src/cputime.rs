//! CPU time of this process: what the code cost, without the stretches
//! in which the process waited for a CPU. On a shared host the
//! hypervisor takes the CPU away now and then (steal time) and other
//! work preempts the benchmark; wall time counts those stretches, CPU
//! time does not. The process clock (not the thread clock) also counts
//! any work the program hands to other threads.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Nanoseconds of CPU every thread of this process has used.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall and CPU time since a starting point.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

impl Stopwatch {
    /// Starts now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_ns(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        (cpu_ns() - self.cpu) as f64 / 1e9
    }
}

//! What the benchmark reads from its host: process CPU time, peak memory,
//! the environment stamp, and the noise canary.

use std::time::Instant;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// `clock_gettime(2)` of the C library every Rust program on Linux
    /// already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system, all threads) this process has used, in
/// milliseconds. Servers and workers run as threads of the benchmark
/// process, so this is client plus server work. Read from the process CPU
/// clock rather than `/proc/self/stat`, whose 10 ms ticks cannot resolve the
/// 15–50 ms slices the estimator ranks.
pub fn process_cpu_ms() -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a live, writable `timespec` of the layout 64-bit Linux
    // defines (two 64-bit fields); the call writes it and nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if status != 0 {
        return 0.0;
    }
    now.tv_sec as f64 * 1_000.0 + now.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1_024.0)
}

extern "C" {
    /// `sched_setaffinity(2)` of the C library every Rust program on Linux
    /// already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this process — and every thread it starts from now on, servers and
/// workers included — to one CPU, the highest-numbered one it may use.
///
/// A closed loop with one client keeps one thread runnable at a time, so one
/// CPU is all it uses; what pinning removes is the scheduler's choice of
/// *where*. Unpinned on the reference box, identical runs fell into two
/// modes 60% apart (median latency 0.245 ms or 0.37–0.40 ms on
/// `dash_remote`), by whether client and server thread happened to share a
/// vCPU or woke each other across two. Returns the CPU, or `None` when the
/// kernel refused (the run then goes on unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = nproc().checked_sub(1)?.min(63);
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, properly aligned 8-byte CPU set and the size
    // passed is its size; pid 0 names the calling process. The call reads
    // the mask and touches nothing else of ours.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    (status == 0).then_some(cpu)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |model| model.trim().to_string())
}

/// The commit being measured: `git rev-parse HEAD` where there is a
/// repository, else `unknown` (the driver's checkout is not one).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Words in the canary's working set: 256 KiB, resident in a private L2.
/// (A 4 MiB set was tried first: on the shared reference box its time swung
/// 3.6–31 ms with whatever the neighbours left in the L3, which says nothing
/// about the time the program under test gets.)
const CANARY_WORDS: usize = 32 * 1024;
/// Dependent steps per timed canary pass (≈8–9 ms on the reference box).
const CANARY_STEPS: usize = 1 << 20;

/// The noise canary: a fixed chain of dependent integer operations and
/// memory loads, timed before every segment. Its own spread over a run says
/// how quiet the host was, independently of the program under test.
pub struct Canary {
    memory: Vec<u64>,
}

impl Default for Canary {
    fn default() -> Self {
        Canary {
            memory: (0..CANARY_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        }
    }
}

impl Canary {
    fn walk(&mut self, steps: usize) {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..steps {
            let slot = (x >> 40) as usize % CANARY_WORDS;
            x = (x ^ self.memory[slot])
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(23);
            self.memory[slot] = x;
        }
        std::hint::black_box(x);
    }

    /// Runs the kernel (after a short untimed pass that pulls the working
    /// set back into cache) and returns its wall time in milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        self.walk(CANARY_STEPS / 8);
        let started = Instant::now();
        self.walk(CANARY_STEPS);
        started.elapsed().as_secs_f64() * 1_000.0
    }
}

/// Canary spread (IQR / median) above which a run is marked `noisy`.
pub const NOISY_CANARY_SPREAD: f64 = 0.10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so the counter is non-zero even on a fresh process.
        let mut canary = Canary::default();
        let mut spent = 0.0;
        while process_cpu_ms() == 0.0 && spent < 2_000.0 {
            spent += canary.run_ms();
        }
        assert!(process_cpu_ms() > 0.0);
        assert!(peak_rss_mb() > 1.0);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}

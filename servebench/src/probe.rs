//! Process probes: per-thread CPU from `schedstat`, memory from
//! `status`, and the box the run happened on; and the run's CPU
//! placement.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};

/// Every thread the benchmark itself spawns carries this name prefix.
/// All other threads of the process (event loops, the sampler, any
/// helper a later server version adds) count as the server's.
pub const THREAD_PREFIX: &str = "sb-";

/// On-CPU nanoseconds of the server's threads, split into event loops
/// and everything else.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCpu {
    pub loops_ns: u64,
    pub aux_ns: u64,
}

impl ServerCpu {
    /// Sums `/proc/self/task/*/schedstat` over every thread except the
    /// main thread and the benchmark's own.
    pub fn now() -> Self {
        let pid = std::process::id().to_string();
        let mut cpu = Self::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return cpu;
        };
        for task in tasks.flatten() {
            if task.file_name().to_str() == Some(pid.as_str()) {
                continue;
            }
            let comm = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if comm.starts_with(THREAD_PREFIX) {
                continue;
            }
            let on_cpu = fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
            let Some(ns) = on_cpu else { continue };
            if comm.starts_with("evented-loop") {
                cpu.loops_ns += ns;
            } else {
                cpu.aux_ns += ns;
            }
        }
        cpu
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            loops_ns: self.loops_ns.saturating_sub(earlier.loops_ns),
            aux_ns: self.aux_ns.saturating_sub(earlier.aux_ns),
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            loops_ns: self.loops_ns + other.loops_ns,
            aux_ns: self.aux_ns + other.aux_ns,
        }
    }

    pub fn total_ns(self) -> u64 {
        self.loops_ns + self.aux_ns
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), 0 if absent.
pub fn status_kb(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// CPUs of the box, as the process found them at its first call:
/// [`pin_to_first_cpu`] narrows what `available_parallelism` sees
/// afterwards.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Host CPU time stolen from this VM: `(steal, total)` ticks from the
/// first line of `/proc/stat`. Steal is CPU the hypervisor gave to
/// other guests while this one had work; it slows wall-clock metrics
/// without any change in the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    pub fn now() -> Self {
        let line = fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Self {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            steal: self.steal + other.steal,
            total: self.total + other.total,
        }
    }

    pub fn frac(self) -> f64 {
        self.steal as f64 / self.total.max(1) as f64
    }
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

const SCHED_IDLE: i32 = 5;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Pins the calling thread, and so every thread it spawns from then on,
/// to the box's first CPU. Called on the main thread before anything
/// else, it puts the whole run there: set-up, the server's event loops
/// and helper threads, the generator and the [`Spinner`].
///
/// One CPU because the host charges for a second busy one: with the
/// server on one CPU and the generator on the other, each kept busy by
/// a spinner, the host stole 5–20% of the time instead of 1.5–2.5%, and
/// the server spent 20 µs of CPU per op instead of 15, in cross-CPU
/// wake-ups. Left unpinned, an event loop stayed for its deployment's
/// life on whichever CPU it woke on first, so CPU per op differed by a
/// third between deployments.
pub fn pin_to_first_cpu() {
    // Count the box's CPUs before the mask narrows the view.
    nproc();
    let mask: u64 = 1;
    // SAFETY: pid 0 names the calling thread; the mask pointer and its
    // size describe one live u64, which the kernel only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Makes the calling thread's sleeps end on time. The default 50 µs
/// timer slack would add up to 50 µs of send lateness to every request.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and changes only
    // the calling thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// A lowest-priority (`SCHED_IDLE`) thread that spins while a run
/// lasts, on the CPU [`pin_to_first_cpu`] chose.
///
/// On a VM an idle CPU halts, and waking it waits for the host's
/// scheduler. On a busy host that wait, not the program, set the
/// fixed-rate latency: p50 ranged 0.06–4.1 ms between the blocks of one
/// run, with 20–37% of the time counted as steal. A spinning CPU never
/// halts, so a wake-up is a context switch inside the guest: any other
/// thread preempts a `SCHED_IDLE` one at once. The spinner's CPU time
/// is the benchmark's, not the server's.
pub struct Spinner {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Spinner {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name(format!("{THREAD_PREFIX}spin"))
            .spawn(move || {
                let param = SchedParam { sched_priority: 0 };
                // SAFETY: pid 0 names the calling thread; the param
                // pointer is to a live struct the kernel only reads.
                unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
                while !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
            .expect("spawn the spinner");
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Spinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

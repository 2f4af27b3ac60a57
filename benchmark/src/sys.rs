//! What the harness reads from the operating system: the process's own
//! resource counters and the environment recorded next to the numbers.

use dynp_obs::JsonValue;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported 100 on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// Cumulative counters of this process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl Usage {
    /// Reads `/proc/self/stat`; zeros where the platform has none.
    pub fn now() -> Usage {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return Usage::default();
        };
        // The command name (field 2) may contain spaces; fields are
        // counted from the closing parenthesis.
        let Some((_, rest)) = stat.rsplit_once(')') else {
            return Usage::default();
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        // rest[0] is field 3 (state): minflt is field 10, utime 14, stime 15.
        Usage {
            minor_faults: num(7),
            user_s: num(11) as f64 / CLK_TCK,
            sys_s: num(12) as f64 / CLK_TCK,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this process (threads started from now on included) to the
/// first CPU it is allowed on, so `available_parallelism()` reads 1.
/// Returns whether it worked.
pub fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what glibc's sched_getaffinity(2) wrapper fills; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let bit = mask[word].trailing_zeros();
    mask = [0; CPU_SET_WORDS];
    mask[word] = 1 << bit;
    // SAFETY: `mask` is a live buffer of `bytes` bytes that the call only
    // reads; it names one CPU the kernel just reported as allowed.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and toolchain a result was measured on.
pub fn environment() -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    JsonValue::object()
        .with(
            "commit",
            first_line_of("git", &["-C", repo, "rev-parse", "HEAD"]),
        )
        .with("nproc", nproc())
        .with("cpu_model", cpu)
        .with("rustc", first_line_of("rustc", &["--version"]))
        .with("os", std::env::consts::OS)
}

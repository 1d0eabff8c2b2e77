//! CPU time and peak memory from `/proc`, and thread placement, so the
//! benchmark can charge the server for the CPU it used and fix where
//! its threads run without any code inside the server.

use std::fs;
use std::io;

extern "C" {
    /// `sched_setaffinity(2)` through the C library the standard library
    /// already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine thread `tid` of this process to one CPU, as `taskset` would
/// from outside.
pub fn pin_thread(tid: u64, cpu: usize) -> io::Result<()> {
    assert!(cpu < 64, "one mask word covers 64 CPUs");
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, aligned u64 for the whole call and the
    // size passed is its size; the kernel only reads that many bytes.
    let rc = unsafe { sched_setaffinity(tid as i32, std::mem::size_of::<u64>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("Cpus_allowed_list line in /proc/self/status");
    cpu_list(list.trim())
}

/// Parse a kernel CPU list such as `0-1,4,6-7`.
fn cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter_map(|part| {
            let (from, to) = part.split_once('-').unwrap_or((part, part));
            Some(from.trim().parse::<usize>().ok()?..=to.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// One file of every live thread of this process, parsed: `(tid, value)`.
fn per_thread<T>(file: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<(u64, T)> {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    tasks
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            // A thread may exit between the listing and the read.
            let text = fs::read_to_string(entry.path().join(file)).ok()?;
            Some((tid, parse(&text)?))
        })
        .collect()
}

/// The name of every live thread of this process, by kernel thread id.
pub fn thread_names() -> Vec<(u64, String)> {
    per_thread("comm", |name| Some(name.trim_end().to_string()))
}

/// Nanoseconds each live thread of this process has spent on a CPU,
/// by kernel thread id, from `/proc/self/task/<tid>/schedstat`. The
/// `stat` files count in 10 ms ticks, which is 1% of a two-second
/// slice; the scheduler's own clock is exact.
pub fn thread_cpu_ns() -> Vec<(u64, u64)> {
    per_thread("schedstat", on_cpu_ns_of)
}

/// The first field of a `schedstat` file: time on a CPU, nanoseconds.
fn on_cpu_ns_of(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// The calling thread's kernel id, as `/proc/self/task/` names it.
pub fn current_tid() -> u64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/stat is readable and well-formed")
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(cpu_list("0-1"), [0, 1]);
        assert_eq!(cpu_list("3"), [3]);
        assert_eq!(cpu_list("0-1,4,6-7"), [0, 1, 4, 6, 7]);
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn a_thread_can_pin_itself() {
        let cpu = allowed_cpus()[0];
        std::thread::spawn(move || pin_thread(current_tid(), cpu).expect("pin to an allowed CPU"))
            .join()
            .unwrap();
    }

    #[test]
    fn schedstat_leads_with_time_on_cpu() {
        assert_eq!(on_cpu_ns_of("917499760 14825701 60\n"), Some(917_499_760));
        assert_eq!(on_cpu_ns_of(""), None);
        assert_eq!(on_cpu_ns_of("soon 1 2"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(rss_peak_mib() > 0.1);
        let me = current_tid();
        let mine = || {
            let threads = thread_cpu_ns();
            threads
                .iter()
                .find(|(tid, _)| *tid == me)
                .expect("this thread is listed")
                .1
        };
        // The clock of a running thread advances at scheduler ticks:
        // spin until it has moved, rather than for a fixed time.
        let (before, began) = (mine(), std::time::Instant::now());
        while mine() < before + 1_000_000 {
            assert!(
                began.elapsed().as_secs() < 5,
                "5 s of spinning never showed"
            );
        }
    }
}

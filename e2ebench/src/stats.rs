//! Order statistics, process counters and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Heap allocations made by the whole process since start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation (reallocations
/// included: each may move the block).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic with no bearing on memory safety.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Linear-interpolated quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Quantile of unsorted nanosecond samples, in µs.
pub fn quantile_us(ns: &[u64], q: f64) -> f64 {
    quantile(&ns.iter().map(|&v| v as f64 / 1e3).collect::<Vec<_>>(), q)
}

/// Quantiles of nanosecond samples, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// Summarises nanosecond samples (sorts them in place).
pub fn latency(ns: &mut [u64]) -> Latency {
    ns.sort_unstable();
    let us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    Latency {
        samples: us.len(),
        p50_us: quantile_sorted(&us, 0.50),
        p90_us: quantile_sorted(&us, 0.90),
        p99_us: quantile_sorted(&us, 0.99),
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |k: usize| {
        let m = ((n + 1) * k) as f64;
        let j = ((n + 1) * k / 4).clamp(1, n - 1);
        let delta = (m - 4.0 * j as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Kernel clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the `stat` file at `path`.
fn cpu_seconds(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14 and stime field 15.
    let Some(rest) = text.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// CPU seconds the whole process has used (all threads, live or ended).
pub fn process_cpu_s() -> f64 {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds("/proc/thread-self/stat")
}

/// Machine-wide CPU ticks so far: `(stolen, all)`, where stolen is the
/// time the hypervisor ran something else while a virtual CPU of this
/// machine wanted to run (the `steal` column of `/proc/stat`).
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Share of the machine's CPU time stolen by the hypervisor since
/// `before` (a `cpu_ticks` reading).
pub fn stolen_since(before: (u64, u64)) -> f64 {
    let (stolen, all) = cpu_ticks();
    let all = all.saturating_sub(before.1);
    if all == 0 {
        0.0
    } else {
        stolen.saturating_sub(before.0) as f64 / all as f64
    }
}

/// A measurement window loses its score when the hypervisor took more
/// than this share of the machine's CPU time during it: what it saw was
/// the host's contention, not the service.
pub const MAX_STOLEN: f64 = 0.03;

/// Peak resident set size of the process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}

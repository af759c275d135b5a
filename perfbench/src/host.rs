//! Host-side measurements: peak memory and CPU time of this process from
//! Linux `/proc`, and the host's speed from a fixed calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// A fixed memory-bound kernel, timed between repetitions to measure how
/// fast the host runs at that moment.
///
/// On a shared VM the same code takes up to 1.8× longer for minutes at a
/// time, when neighbours contend for the shared cache and memory; CPU
/// time grows with wall time, so CPU time does not show it. The program
/// under test is memory-heavy and slows by about as much as random
/// loads over a table far larger than the private caches, while a
/// register-only loop slows by a fifth as much. So every time the
/// benchmark reports is divided by [`Calibration::slowdown`], taken next
/// to it: the kernel's time over its time on the reference box in a
/// quiet stretch. The kernel is this file alone, so no change to the
/// program can move it. What it cannot remove is variation of the
/// program's own: with two threads a suite sweep takes 330k to 620k page
/// faults from one repetition to the next, as the allocator returns
/// memory to the kernel at different moments, and its time follows. Nor
/// does the kernel follow every slow mode of the host; `README.md` has
/// the measurements.
pub struct Calibration {
    table: Vec<u32>,
}

/// Table entries: 64 MiB of `u32`, far beyond one core's 2 MiB L2.
const TABLE_LEN: usize = 1 << 24;
/// Dependent loads per calibration (latency-bound).
const CHASE_STEPS: usize = 160_000;
/// Independent loads per calibration (bound by memory-level parallelism).
const SCATTER_LOADS: usize = 2_000_000;
/// Seconds one calibration takes on the reference box in a quiet stretch
/// (about the fastest tenth of the readings seen there): a scale only,
/// which moves every normalized time alike.
const REFERENCE_S: f64 = 0.050;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibration {
    /// Allocates and fills the table, so every page is resident.
    pub fn new() -> Calibration {
        let table = (0..TABLE_LEN as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        Calibration { table }
    }

    /// Resident bytes the table adds to the process, in MiB.
    pub fn mib(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64 / (1 << 20) as f64
    }

    /// How much slower than the reference the host runs now: one run of
    /// the kernel, over [`REFERENCE_S`].
    pub fn slowdown(&self) -> f64 {
        let table = black_box(&self.table[..]);
        let mask = (TABLE_LEN - 1) as u64;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let start = Instant::now();
        // Each address depends on the value just loaded.
        let mut v = 0u32;
        for _ in 0..CHASE_STEPS {
            v = table[((xorshift(&mut x) ^ v as u64) & mask) as usize];
        }
        let mut sum = v as u64;
        for _ in 0..SCATTER_LOADS {
            sum = sum.wrapping_add(table[(xorshift(&mut x) & mask) as usize] as u64);
        }
        black_box(sum);
        start.elapsed().as_secs_f64() / REFERENCE_S
    }
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::new()
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds this process has used so far, summed
/// over every thread it ever ran (fields 14 and 15 of
/// `/proc/self/stat`, in the kernel's fixed 100 Hz `USER_HZ` ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it
    // start at the last ')'. Field 3 is the first token there.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before, "a 60 ms spin shows up in CPU time");
    }

    #[test]
    fn the_calibration_reads_a_positive_slowdown() {
        let calibration = Calibration::new();
        assert_eq!(calibration.mib(), 64.0);
        let slowdown = calibration.slowdown();
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    }
}

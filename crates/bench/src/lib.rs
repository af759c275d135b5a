//! # preexec-bench
//!
//! Benches that back a CI gate or an `EXPERIMENTS.md` section: the
//! simulator hot path and atlas admission budgets (`hotpath`, `atlas`)
//! and the design-choice ablations (`ablations`). The paper's tables and
//! figures regenerate through `repro <id>` instead.
//!
//! Measurement uses the in-tree [`Runner`] (mean/min/max over a fixed
//! sample count) — no external harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use preexec_harness::ExpConfig;
use std::time::Instant;

/// Shared experiment configuration for all benches (the paper's default
/// machine).
pub fn bench_config() -> ExpConfig {
    ExpConfig::default()
}

/// Prints a banner so bench output is self-describing.
pub fn banner(what: &str) {
    println!("\n===== regenerating {what} =====\n");
}

/// A minimal wall-clock bench runner: runs each closure a fixed number of
/// times (after one warm-up iteration) and prints mean/min/max.
pub struct Runner {
    group: String,
    samples: usize,
}

impl Runner {
    /// A runner for `group` with the default sample count (10).
    pub fn new(group: &str) -> Runner {
        Runner {
            group: group.to_string(),
            samples: 10,
        }
    }

    /// Overrides the sample count.
    pub fn sample_size(mut self, n: usize) -> Runner {
        self.samples = n.max(1);
        self
    }

    /// Measures `f` and prints a `group/name  mean .. [min .. max]` line.
    /// The closure's result is passed through `std::hint::black_box` so
    /// the work cannot be optimized away.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        std::hint::black_box(f());
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(f());
            times.push(start.elapsed().as_secs_f64());
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{}/{name}: mean {} [min {} max {}] over {} samples",
            self.group,
            fmt_time(mean),
            fmt_time(min),
            fmt_time(max),
            self.samples,
        );
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.3}us", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_executes_and_reports() {
        let mut calls = 0u32;
        Runner::new("test")
            .sample_size(3)
            .bench("noop", || calls += 1);
        // One warm-up + three samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn time_formatting_picks_units() {
        assert_eq!(fmt_time(2.5), "2.500s");
        assert_eq!(fmt_time(0.0025), "2.500ms");
        assert_eq!(fmt_time(0.0000025), "2.500us");
    }
}

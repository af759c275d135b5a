//! Pinned micro-benchmark of the simulator hot path. Measures, with
//! min-of-N to shrug off scheduler noise:
//!
//! - **per-sim-cycle ns** — wall time of one full baseline simulation of
//!   the `gap` kernel divided by its simulated cycle count. This is the
//!   number CI's `perf-gate` job compares against the budget pinned in
//!   `EXPERIMENTS.md` (fails on >20% regression).
//! - **cold-select latency** — `Engine::prepared` + `evaluate(Latency)`
//!   on a fresh engine: the full trace→profile→slice→critpath→sim→select
//!   pipeline with every memo cold.
//!
//! Environment knobs (all optional):
//! - `BENCH_HOTPATH_JSON=<path>`: also write the measurements as JSON
//!   (the committed `BENCH_hotpath.json` is this output).
//! - `PERF_BUDGET_NS=<float>`: exit nonzero if the measured
//!   per-sim-cycle ns exceeds the budget by more than 20%.

use preexec_bench::{banner, bench_config};
use preexec_harness::Engine;
use preexec_sim::Simulator;
use preexec_workloads::{build, InputSet};
use pthsel::SelectionTarget;
use std::time::Instant;

fn min_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    banner("hot path pins (per-cycle ns, cold select)");
    let cfg = bench_config();
    let program = build("gap", InputSet::Train).expect("gap kernel");

    // Warm-up + cycle count for the normalization denominator.
    let cycles = Simulator::new(&program, cfg.sim).run().cycles;
    let sim_secs = min_of(7, || Simulator::new(&program, cfg.sim).run());
    let per_cycle_ns = sim_secs * 1e9 / cycles as f64;
    println!("hotpath/sim gap: {:.1}ms ({cycles} cycles)", sim_secs * 1e3);
    println!("hotpath/per-sim-cycle: {per_cycle_ns:.2} ns");

    // Cold select: a fresh engine per sample so every memo layer misses.
    let cold_secs = min_of(5, || {
        let engine = Engine::new(1);
        let prep = engine.prepared("gap", &cfg);
        engine.evaluate(&prep, SelectionTarget::Latency)
    });
    println!("hotpath/cold select gap: {:.1}ms", cold_secs * 1e3);

    if let Ok(path) = std::env::var("BENCH_HOTPATH_JSON") {
        let json = format!(
            "{{\"bench\":\"hotpath\",\"kernel\":\"gap\",\"cycles\":{cycles},\
             \"per_sim_cycle_ns\":{per_cycle_ns:.2},\
             \"sim_ms\":{:.2},\
             \"cold_select_ms\":{:.2},\"samples\":\"min-of-N\"}}\n",
            sim_secs * 1e3,
            cold_secs * 1e3,
        );
        std::fs::write(&path, json).expect("write BENCH_HOTPATH_JSON");
        println!("hotpath/json written to {path}");
    }

    if let Ok(budget) = std::env::var("PERF_BUDGET_NS") {
        let budget: f64 = budget.parse().expect("PERF_BUDGET_NS must be a float");
        let limit = budget * 1.2;
        if per_cycle_ns > limit {
            eprintln!(
                "perf gate FAILED: {per_cycle_ns:.2} ns/cycle exceeds \
                 {limit:.2} (pinned {budget:.2} ns + 20%)"
            );
            std::process::exit(1);
        }
        println!("hotpath/perf gate OK: {per_cycle_ns:.2} <= {limit:.2} ns/cycle");
    }
}

//! Read-only snapshots of an [`Engine`]'s metrics. The difference of two
//! snapshots taken around a call is that call's stage split and counter
//! traffic, measured from outside the engine.

use preexec_harness::{Engine, Stage};
use preexec_json::Json;

/// Every engine counter the benchmark reads, at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineSnap {
    /// Wall-clock nanoseconds per stage, in [`Stage::ALL`] order.
    pub stage_ns: [u64; 8],
    /// Calls per stage, in [`Stage::ALL`] order.
    pub stage_calls: [u64; 8],
    /// Profiling-trace instructions.
    pub trace_insts: u64,
    /// Slice-tree nodes built.
    pub slice_nodes: u64,
    /// Simulated cycles (baseline and optimized runs).
    pub sim_cycles: u64,
    /// Prepared-core memo hits.
    pub core_hits: u64,
    /// Prepared-core memo misses.
    pub core_misses: u64,
    /// Optimized-simulation memo hits.
    pub sim_hits: u64,
    /// Optimized-simulation memo misses.
    pub sim_misses: u64,
    /// Experiment-owned memo hits.
    pub aux_hits: u64,
    /// Experiment-owned memo misses.
    pub aux_misses: u64,
    /// Persistent-store hits.
    pub store_hits: u64,
    /// Persistent-store misses.
    pub store_misses: u64,
}

impl EngineSnap {
    /// The engine's counters now.
    pub fn of(engine: &Engine) -> EngineSnap {
        let m = engine.metrics();
        let json = m.to_json();
        let counter = |group: &str, key: &str| {
            json.get(group)
                .and_then(|g| g.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let stages = json.get("stages");
        let mut snap = EngineSnap {
            trace_insts: counter("counters", "trace_insts"),
            slice_nodes: counter("counters", "slice_nodes"),
            sim_cycles: counter("counters", "sim_cycles"),
            core_hits: m.cache_hits(),
            core_misses: m.cache_misses(),
            sim_hits: m.sim_hits(),
            sim_misses: m.sim_misses(),
            aux_hits: m.aux_hits(),
            aux_misses: m.aux_misses(),
            store_hits: m.store_hits(),
            store_misses: m.store_misses(),
            ..EngineSnap::default()
        };
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            snap.stage_ns[i] = m.stage_nanos(stage);
            snap.stage_calls[i] = stages
                .and_then(|s| s.get(stage.name()))
                .and_then(|s| s.get("calls"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
        snap
    }

    fn zip(&self, other: &EngineSnap, f: impl Fn(u64, u64) -> u64) -> EngineSnap {
        let mut out = EngineSnap::default();
        for i in 0..8 {
            out.stage_ns[i] = f(self.stage_ns[i], other.stage_ns[i]);
            out.stage_calls[i] = f(self.stage_calls[i], other.stage_calls[i]);
        }
        out.trace_insts = f(self.trace_insts, other.trace_insts);
        out.slice_nodes = f(self.slice_nodes, other.slice_nodes);
        out.sim_cycles = f(self.sim_cycles, other.sim_cycles);
        out.core_hits = f(self.core_hits, other.core_hits);
        out.core_misses = f(self.core_misses, other.core_misses);
        out.sim_hits = f(self.sim_hits, other.sim_hits);
        out.sim_misses = f(self.sim_misses, other.sim_misses);
        out.aux_hits = f(self.aux_hits, other.aux_hits);
        out.aux_misses = f(self.aux_misses, other.aux_misses);
        out.store_hits = f(self.store_hits, other.store_hits);
        out.store_misses = f(self.store_misses, other.store_misses);
        out
    }

    /// The traffic between `earlier` and `self`.
    pub fn since(&self, earlier: &EngineSnap) -> EngineSnap {
        self.zip(earlier, u64::saturating_sub)
    }

    /// The sum of two deltas.
    pub fn plus(&self, other: &EngineSnap) -> EngineSnap {
        self.zip(other, u64::saturating_add)
    }

    /// Milliseconds spent in `stage`.
    pub fn stage_ms(&self, stage: Stage) -> f64 {
        let i = Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("known stage");
        self.stage_ns[i] as f64 / 1e6
    }

    /// Calls of `stage`.
    pub fn calls(&self, stage: Stage) -> u64 {
        let i = Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("known stage");
        self.stage_calls[i]
    }

    /// Milliseconds spent in all eight stages together.
    pub fn staged_ms(&self) -> f64 {
        self.stage_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

//! Structured observability for the experiment engine: per-stage
//! wall-clock, pipeline counters, and cache statistics, all lock-free
//! (atomics) so worker threads record without contention.

use preexec_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One stage of the per-benchmark analysis pipeline (or of evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Building the workload program.
    WorkloadBuild,
    /// Functional profiling trace.
    Trace,
    /// Cache annotation + per-PC profile.
    Profile,
    /// Slice-tree construction over the problem loads.
    Slice,
    /// Critical-path model + load cost functions.
    Critpath,
    /// Unoptimized baseline timing simulation.
    BaselineSim,
    /// PTHSEL(+E) selection.
    Select,
    /// Timing simulation of the optimized (p-thread) binary.
    OptSim,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::WorkloadBuild,
        Stage::Trace,
        Stage::Profile,
        Stage::Slice,
        Stage::Critpath,
        Stage::BaselineSim,
        Stage::Select,
        Stage::OptSim,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::WorkloadBuild => "workload_build",
            Stage::Trace => "trace",
            Stage::Profile => "profile",
            Stage::Slice => "slice",
            Stage::Critpath => "critpath",
            Stage::BaselineSim => "baseline_sim",
            Stage::Select => "select",
            Stage::OptSim => "opt_sim",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).unwrap()
    }
}

#[derive(Default)]
struct StageCell {
    nanos: AtomicU64,
    calls: AtomicU64,
}

/// Aggregated engine metrics. Cheap to record into from any thread;
/// snapshot with [`Metrics::to_json`].
#[derive(Default)]
pub struct Metrics {
    stages: [StageCell; 8],
    trace_insts: AtomicU64,
    slice_nodes: AtomicU64,
    sim_cycles: AtomicU64,
    admission_runs: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    base_hits: AtomicU64,
    base_misses: AtomicU64,
    sim_hits: AtomicU64,
    sim_misses: AtomicU64,
    aux_hits: AtomicU64,
    aux_misses: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    critpath_store_hits: AtomicU64,
    critpath_store_misses: AtomicU64,
    frontend_store_hits: AtomicU64,
    frontend_store_misses: AtomicU64,
    cells: AtomicU64,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `nanos` of wall-clock to `stage` and bumps its call count.
    pub fn record(&self, stage: Stage, nanos: u64) {
        let cell = &self.stages[stage.index()];
        cell.nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `f`, attributing its wall-clock to `stage`.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed().as_nanos() as u64);
        out
    }

    /// Runs `f`, adding its wall-clock to `stage` without counting a
    /// call: for work a stage owns that is not one of its calls, such as
    /// the selection table every later select of a program reads.
    pub fn time_uncounted<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let cell = &self.stages[stage.index()];
        cell.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Adds profiling-trace instructions.
    pub fn add_trace_insts(&self, n: u64) {
        self.trace_insts.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds slice-tree nodes built.
    pub fn add_slice_nodes(&self, n: u64) {
        self.slice_nodes.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds simulated cycles (baseline and optimized runs alike).
    pub fn add_sim_cycles(&self, n: u64) {
        self.sim_cycles.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds pipeline runs the atlas admission gate made. They are checked
    /// against the oracle rather than metered as a stage.
    pub fn add_admission_runs(&self, n: u64) {
        self.admission_runs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a `Prepared`-cache hit.
    pub fn add_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Prepared`-cache miss (a full pipeline build).
    pub fn add_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a base-artifact (slice-independent) cache hit.
    pub fn add_base_hit(&self) {
        self.base_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a base-artifact cache miss (trace/critpath/baseline build).
    pub fn add_base_miss(&self) {
        self.base_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an optimized-simulation memo hit (identical selection
    /// already simulated on this machine configuration).
    pub fn add_sim_hit(&self) {
        self.sim_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an optimized-simulation memo miss (a real timing run).
    pub fn add_sim_miss(&self) {
        self.sim_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an experiment-owned aux-cache hit (see `Engine::cached`).
    pub fn add_aux_hit(&self) {
        self.aux_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an experiment-owned aux-cache miss.
    pub fn add_aux_miss(&self) {
        self.aux_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a persistent-store probe for a timing run that found a
    /// usable entry.
    pub fn add_store_hit(&self) {
        self.store_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a persistent-store probe for a timing run that found
    /// nothing usable (the run is simulated and written back).
    pub fn add_store_miss(&self) {
        self.store_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a persistent-store probe for a critical-path output that
    /// found a usable entry.
    pub fn add_critpath_store_hit(&self) {
        self.critpath_store_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a persistent-store probe for a critical-path output that
    /// found nothing usable (the model runs and the output is written
    /// back).
    pub fn add_critpath_store_miss(&self) {
        self.critpath_store_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a persistent-store probe for a front-end output (a
    /// profile or a set of slice trees) that found a usable entry.
    pub fn add_frontend_store_hit(&self) {
        self.frontend_store_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a persistent-store probe for a front-end output that found
    /// nothing usable (the stage runs and the output is written back).
    pub fn add_frontend_store_miss(&self) {
        self.frontend_store_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one evaluated (benchmark × config × target) cell.
    pub fn add_cell(&self) {
        self.cells.fetch_add(1, Ordering::Relaxed);
    }

    /// Calls of `stage` so far.
    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.stages[stage.index()].calls.load(Ordering::Relaxed)
    }

    /// Engine timing runs so far: every one is a call of
    /// [`Stage::BaselineSim`] or [`Stage::OptSim`].
    pub fn sim_runs(&self) -> u64 {
        self.stage_calls(Stage::BaselineSim) + self.stage_calls(Stage::OptSim)
    }

    /// Pipeline runs the atlas admission gate made so far.
    pub fn admission_runs(&self) -> u64 {
        self.admission_runs.load(Ordering::Relaxed)
    }

    /// `Prepared`-cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// `Prepared`-cache misses (pipeline builds) so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Base-artifact cache hits so far.
    pub fn base_hits(&self) -> u64 {
        self.base_hits.load(Ordering::Relaxed)
    }

    /// Base-artifact cache misses so far.
    pub fn base_misses(&self) -> u64 {
        self.base_misses.load(Ordering::Relaxed)
    }

    /// Optimized-simulation memo hits so far.
    pub fn sim_hits(&self) -> u64 {
        self.sim_hits.load(Ordering::Relaxed)
    }

    /// Optimized-simulation memo misses so far.
    pub fn sim_misses(&self) -> u64 {
        self.sim_misses.load(Ordering::Relaxed)
    }

    /// Aux-cache hits so far.
    pub fn aux_hits(&self) -> u64 {
        self.aux_hits.load(Ordering::Relaxed)
    }

    /// Aux-cache misses so far.
    pub fn aux_misses(&self) -> u64 {
        self.aux_misses.load(Ordering::Relaxed)
    }

    /// Persistent-store hits for timing runs so far.
    pub fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Persistent-store misses for timing runs so far.
    pub fn store_misses(&self) -> u64 {
        self.store_misses.load(Ordering::Relaxed)
    }

    /// Persistent-store hits for critical-path outputs so far.
    pub fn critpath_store_hits(&self) -> u64 {
        self.critpath_store_hits.load(Ordering::Relaxed)
    }

    /// Persistent-store misses for critical-path outputs so far.
    pub fn critpath_store_misses(&self) -> u64 {
        self.critpath_store_misses.load(Ordering::Relaxed)
    }

    /// Persistent-store hits for front-end outputs so far.
    pub fn frontend_store_hits(&self) -> u64 {
        self.frontend_store_hits.load(Ordering::Relaxed)
    }

    /// Persistent-store misses for front-end outputs so far.
    pub fn frontend_store_misses(&self) -> u64 {
        self.frontend_store_misses.load(Ordering::Relaxed)
    }

    /// Evaluated cells so far.
    pub fn cells(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }

    /// Total wall-clock attributed to `stage`, in nanoseconds.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stages[stage.index()].nanos.load(Ordering::Relaxed)
    }

    /// Snapshot as JSON: `{"stages":{name:{"wall_ms":..,"calls":..}},
    /// "counters":{..},"cache":{"hits":..,"misses":..}}`.
    pub fn to_json(&self) -> Json {
        let mut stages = Json::object();
        for stage in Stage::ALL {
            let cell = &self.stages[stage.index()];
            let nanos = cell.nanos.load(Ordering::Relaxed);
            stages = stages.with(
                stage.name(),
                Json::object()
                    .with("wall_ms", nanos as f64 / 1e6)
                    .with("calls", cell.calls.load(Ordering::Relaxed)),
            );
        }
        Json::object()
            .with("stages", stages)
            .with(
                "counters",
                Json::object()
                    .with("trace_insts", self.trace_insts.load(Ordering::Relaxed))
                    .with("slice_nodes", self.slice_nodes.load(Ordering::Relaxed))
                    .with("sim_cycles", self.sim_cycles.load(Ordering::Relaxed))
                    .with("admission_runs", self.admission_runs())
                    .with("cells", self.cells()),
            )
            .with(
                "cache",
                Json::object()
                    .with("hits", self.cache_hits())
                    .with("misses", self.cache_misses())
                    .with("base_hits", self.base_hits())
                    .with("base_misses", self.base_misses())
                    .with("sim_hits", self.sim_hits())
                    .with("sim_misses", self.sim_misses())
                    .with("aux_hits", self.aux_hits())
                    .with("aux_misses", self.aux_misses())
                    .with("store_hits", self.store_hits())
                    .with("store_misses", self.store_misses())
                    .with("critpath_store_hits", self.critpath_store_hits())
                    .with("critpath_store_misses", self.critpath_store_misses())
                    .with("frontend_store_hits", self.frontend_store_hits())
                    .with("frontend_store_misses", self.frontend_store_misses()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_stage() {
        let m = Metrics::new();
        m.record(Stage::Trace, 100);
        m.record(Stage::Trace, 50);
        m.record(Stage::Select, 7);
        assert_eq!(m.stage_nanos(Stage::Trace), 150);
        assert_eq!(m.stage_nanos(Stage::Select), 7);
        assert_eq!(m.stage_nanos(Stage::OptSim), 0);
    }

    #[test]
    fn time_attributes_and_returns() {
        let m = Metrics::new();
        let v = m.time(Stage::Slice, || 41 + 1);
        assert_eq!(v, 42);
        let j = m.to_json();
        let calls = j
            .get("stages")
            .and_then(|s| s.get("slice"))
            .and_then(|s| s.get("calls"))
            .and_then(Json::as_u64);
        assert_eq!(calls, Some(1));
    }

    #[test]
    fn json_snapshot_has_cache_and_counters() {
        let m = Metrics::new();
        m.add_cache_hit();
        m.add_cache_hit();
        m.add_cache_miss();
        m.add_trace_insts(600_000);
        m.add_cell();
        let j = m.to_json();
        assert_eq!(
            j.get("cache").unwrap().get("hits").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            j.get("cache").unwrap().get("misses").unwrap().as_u64(),
            Some(1)
        );
        let counters = j.get("counters").unwrap();
        assert_eq!(counters.get("trace_insts").unwrap().as_u64(), Some(600_000));
        assert_eq!(counters.get("cells").unwrap().as_u64(), Some(1));
    }
}

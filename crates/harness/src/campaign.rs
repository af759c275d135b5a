//! Campaign runner and Pareto analysis: the engine-side wiring of
//! `preexec-campaign`.
//!
//! A *sweep* expands a declarative spec — a W grid over `[0, 1]`
//! (selection weight of the composite target `CADVagg =
//! L0^W·E0^(1−W) − (L0−LADV)^W·(E0−EADV)^(1−W)`), a machine grid
//! (memory latency), and an energy grid (idle factor) — into cells, one
//! per (benchmark × machine × energy × W), and evaluates them on the
//! parallel [`Engine`]. Three campaign properties hold regardless of
//! thread count, kills, or sharding:
//!
//! - **Resumable** — with `--journal`, every completed cell is logged;
//!   a killed sweep replays completed cells and recomputes only the
//!   rest, producing byte-identical output to an uninterrupted run.
//! - **Shardable** — `--shard i/n` partitions cells round-robin by
//!   index; [`merge_sweeps`] reassembles shard outputs (in any order)
//!   into the byte-identical full result. This is the one way to spread
//!   a sweep across processes or machines: a killed shard reruns with
//!   its journal, on any box that shares the store.
//! - **Warm-startable** — with a persistent
//!   [`Store`](preexec_campaign::Store) attached to the engine, baseline
//!   and optimized timing runs replay from disk.
//!
//! The *Pareto stage* extracts, per benchmark and in aggregate, the
//! non-dominated (execution-time, energy) frontier across the W sweep
//! and verifies that the paper's four fixed targets — L (W=1),
//! P² (W=0.67), P (W=0.5), E (W=0) — land on (or within a tolerance
//! band of) the measured frontier. The W grid always contains those
//! four anchors, and the selector's weighted path is exactly equivalent
//! to the fixed-target paths at them (see
//! `weighted_anchors_reproduce_the_fixed_targets`), so anchor cells
//! *are* the paper targets.

use crate::engine::Engine;
use crate::setup::{versioned, ExpConfig, MODEL_VERSION};
use crate::{ratio, TextTable};
use preexec_campaign::{content_hash, frontier, frontier_excess, owns_cell, Journal};
use preexec_json::{impl_json_object, Json, ToJson};
use pthsel::SelectionTarget;
use std::fmt;
use std::path::PathBuf;

/// The paper's four fixed selection targets as (label, W) anchors on
/// the continuum, in descending-W order: L, P², P, E.
pub const PAPER_TARGETS: [(&str, f64); 4] = [("L", 1.0), ("P2", 0.67), ("P", 0.5), ("E", 0.0)];

/// Shape of one campaign sweep.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Benchmarks to sweep (defaults to the full suite).
    pub benches: Vec<String>,
    /// Evenly spaced W-grid points over `[0, 1]` (the four paper
    /// anchors are always added). Values below 2 read as 2.
    pub points: usize,
    /// Machine grid: main-memory latencies in cycles.
    pub mem_latencies: Vec<u64>,
    /// Energy grid: idle-power fractions.
    pub idle_factors: Vec<f64>,
    /// Completion journal for kill/crash resume.
    pub journal: Option<PathBuf>,
    /// `(shard index, shard count)` — this process computes only the
    /// cells it owns. `(0, 1)` is the whole sweep.
    pub shard: (usize, usize),
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        let cfg = ExpConfig::default();
        SweepOptions {
            benches: preexec_workloads::NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            points: 17,
            mem_latencies: vec![cfg.sim.hierarchy.mem_latency],
            idle_factors: vec![cfg.energy.idle_factor],
            journal: None,
            shard: (0, 1),
        }
    }
}

/// The W grid: `points` evenly spaced values over `[0, 1]` plus the
/// four paper anchors, sorted ascending and deduplicated.
pub fn w_grid(points: usize) -> Vec<f64> {
    let points = points.max(2);
    let mut ws: Vec<f64> = (0..points)
        .map(|i| i as f64 / (points - 1) as f64)
        .collect();
    ws.extend(PAPER_TARGETS.iter().map(|&(_, w)| w));
    ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ws.dedup();
    ws
}

/// One expanded sweep cell, pre-evaluation.
#[derive(Clone, Debug)]
struct CellSpec {
    index: usize,
    bench: String,
    mem_latency: u64,
    idle_factor: f64,
    w: f64,
}

/// The stable, spec-relative identity of one sweep cell — the journal
/// key, and the name merge errors report. Shard-free and index-free, so
/// the same cell has the same key no matter which process computes it.
fn cell_key(bench: &str, mem_latency: u64, idle_factor: f64, w: f64) -> String {
    format!("{bench}|ml{mem_latency}|if{idle_factor}|w{w}")
}

impl CellSpec {
    /// Stable journal id of this cell (spec-relative, shard-free).
    fn id(&self) -> String {
        cell_key(&self.bench, self.mem_latency, self.idle_factor, self.w)
    }

    fn config(&self, base: &ExpConfig) -> ExpConfig {
        let mut cfg = *base;
        cfg.sim = cfg.sim.with_mem_latency(self.mem_latency);
        cfg.energy = cfg.energy.with_idle_factor(self.idle_factor);
        cfg
    }
}

/// One evaluated sweep cell. All f64 fields survive the JSON round trip
/// bit-exactly (shortest-round-trip serialization), which is what makes
/// journal replay and shard merges byte-identical to fresh runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// Position in the expanded spec order (the merge key).
    pub index: u64,
    /// Benchmark name.
    pub bench: String,
    /// Main-memory latency of this cell's machine, cycles.
    pub mem_latency: u64,
    /// Idle-power fraction of this cell's energy model.
    pub idle_factor: f64,
    /// Selection weight W.
    pub w: f64,
    /// P-threads the weighted selector chose.
    pub pthreads: u64,
    /// Optimized execution time, cycles.
    pub cycles: u64,
    /// Baseline execution time, cycles.
    pub base_cycles: u64,
    /// Optimized total energy.
    pub energy: f64,
    /// Baseline total energy.
    pub base_energy: f64,
    /// `cycles / base_cycles` (lower is faster).
    pub time_ratio: f64,
    /// `energy / base_energy` (lower is leaner).
    pub energy_ratio: f64,
}

impl_json_object!(SweepCell {
    index,
    bench,
    mem_latency,
    idle_factor,
    w,
    pthreads,
    cycles,
    base_cycles,
    energy,
    base_energy,
    time_ratio,
    energy_ratio,
} decode);

impl SweepCell {
    /// This cell's stable, shard-free identity: its journal key, and
    /// the name merge errors report.
    fn key(&self) -> String {
        cell_key(&self.bench, self.mem_latency, self.idle_factor, self.w)
    }
}

/// A (possibly partial, when sharded) sweep outcome: the spec it ran
/// under, plus one cell per owned grid point, in index order.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// The expanded spec (model version, grids) — shard-free, so shard
    /// outputs and full runs carry identical specs.
    pub spec: Json,
    /// Evaluated cells, ascending by `index`.
    pub cells: Vec<SweepCell>,
    /// How many cells were replayed from the journal (0 on cold runs).
    pub replayed: usize,
}

// `replayed` stays off the wire: resumed and uninterrupted runs must
// serialize byte-identically.
impl_json_object!(SweepResult { spec, cells } decode, local = replayed);

impl SweepResult {
    /// Total cells the spec expands to (owned or not).
    pub fn expected_cells(&self) -> usize {
        let len = |k: &str| {
            self.spec
                .get(k)
                .and_then(Json::as_array)
                .map(|a| a.len())
                .unwrap_or(0)
        };
        len("benches") * len("w_grid") * len("mem_latencies") * len("idle_factors")
    }

    /// Whether every cell of the spec is present.
    pub fn complete(&self) -> bool {
        self.cells.len() == self.expected_cells()
            && self
                .cells
                .iter()
                .enumerate()
                .all(|(i, c)| c.index == i as u64)
    }
}

impl fmt::Display for SweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "W-continuum sweep: {} cells ({} replayed from journal, spec expands to {})",
            self.cells.len(),
            self.replayed,
            self.expected_cells(),
        )?;
        let ws = self
            .spec
            .get("w_grid")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
            .unwrap_or_default();
        let mut t = TextTable::new(vec![
            "W".into(),
            "gmean time".into(),
            "gmean energy".into(),
            "cells".into(),
        ]);
        for &w in &ws {
            let sel: Vec<&SweepCell> = self.cells.iter().filter(|c| c.w == w).collect();
            if sel.is_empty() {
                continue;
            }
            t.row(vec![
                format!("{w}"),
                ratio(gmean(sel.iter().map(|c| c.time_ratio))),
                ratio(gmean(sel.iter().map(|c| c.energy_ratio))),
                format!("{}", sel.len()),
            ]);
        }
        writeln!(f, "{t}")
    }
}

/// The shard-free spec echo embedded in every sweep output. Shard
/// outputs of one spec are byte-identical here, which is what lets
/// [`merge_sweeps`] verify they belong together.
fn spec_json(opts: &SweepOptions) -> Json {
    Json::object()
        .with("model_version", MODEL_VERSION as u64)
        .with("benches", opts.benches.clone())
        .with("points", opts.points.max(2) as u64)
        .with("w_grid", w_grid(opts.points))
        .with("mem_latencies", opts.mem_latencies.clone())
        .with("idle_factors", opts.idle_factors.clone())
}

/// Total cells `opts` expands to, without allocating the expansion.
pub fn cell_count(opts: &SweepOptions) -> usize {
    opts.benches.len()
        * opts.mem_latencies.len()
        * opts.idle_factors.len()
        * w_grid(opts.points).len()
}

/// The persistent-store key a *complete* sweep result is filed under:
/// content-addressed by the spec echo, version-prefixed like every
/// other store key so a model bump invalidates it.
fn sweep_store_key(spec: &Json) -> String {
    versioned(MODEL_VERSION, &format!("sweep|{spec}"))
}

/// Expands the spec into indexed cells: benchmarks × memory latencies ×
/// idle factors × W grid, W innermost.
fn expand(opts: &SweepOptions) -> Vec<CellSpec> {
    let ws = w_grid(opts.points);
    let mut cells = Vec::new();
    for bench in &opts.benches {
        for &ml in &opts.mem_latencies {
            for &idle in &opts.idle_factors {
                for &w in &ws {
                    cells.push(CellSpec {
                        index: cells.len(),
                        bench: bench.clone(),
                        mem_latency: ml,
                        idle_factor: idle,
                        w,
                    });
                }
            }
        }
    }
    cells
}

/// One batch of sweep cells sharing a prepared program: the grouping
/// key is (bench, mem_latency, idle_factor bits) and the members carry
/// their output slot so results land in submission order.
type CellGroup = ((String, u64, u64), Vec<(usize, CellSpec)>);

/// Runs (this shard of) the sweep on `engine`. Completed cells are
/// journaled as they finish; cells already journaled under the same
/// spec are replayed without touching the engine. A complete result is
/// filed in the engine's persistent store, keyed by its spec. Panics if
/// the journal cannot be opened; [`try_run_sweep`] returns that as an
/// error instead.
pub fn run_sweep(engine: &Engine, base: &ExpConfig, opts: &SweepOptions) -> SweepResult {
    try_run_sweep(engine, base, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_sweep`], with an unusable journal path as an error that names
/// the path.
pub fn try_run_sweep(
    engine: &Engine,
    base: &ExpConfig,
    opts: &SweepOptions,
) -> Result<SweepResult, String> {
    let spec = spec_json(opts);
    let journal = match &opts.journal {
        Some(path) => Some(
            Journal::open(path, &spec.to_string())
                .map_err(|e| format!("journal {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let (cells, replayed) = evaluate(engine, base, opts, journal.as_ref());
    let result = SweepResult {
        spec,
        cells,
        replayed,
    };
    if result.complete() {
        if let Some(store) = engine.store() {
            store.save(&sweep_store_key(&result.spec), &result.to_json());
        }
    }
    Ok(result)
}

/// Evaluates the cells of `opts` that its shard owns on `engine`, in
/// expansion order, plus the journal-replay count.
fn evaluate(
    engine: &Engine,
    base: &ExpConfig,
    opts: &SweepOptions,
    journal: Option<&Journal>,
) -> (Vec<SweepCell>, usize) {
    let (shard, of) = opts.shard;
    let owned: Vec<CellSpec> = expand(opts)
        .into_iter()
        .filter(|c| owns_cell(c.index, shard, of))
        .collect();

    let mut replayed = 0usize;
    let mut todo = Vec::new();
    // slot in `indices` → value, filled from the journal now and the
    // engine below.
    let mut values: Vec<Option<Json>> = vec![None; owned.len()];
    for (slot, cell) in owned.iter().enumerate() {
        match journal.and_then(|j| j.get(&cell.id())) {
            Some(v) => {
                values[slot] = Some(v);
                replayed += 1;
            }
            None => todo.push((slot, cell.clone())),
        }
    }

    // Group cells sharing a machine configuration: every W point of a
    // group reuses one prepared program (trace, slices, critical-path
    // model, baseline run), so the batched evaluator does the expensive
    // preparation once per (bench, mem_latency, idle_factor) instead of
    // once per cell. Group order follows first appearance in `todo`, so
    // journal contents and returned values match the ungrouped loop.
    let mut groups: Vec<CellGroup> = Vec::new();
    for (slot, cell) in todo {
        let key = (
            cell.bench.clone(),
            cell.mem_latency,
            cell.idle_factor.to_bits(),
        );
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push((slot, cell)),
            None => groups.push((key, vec![(slot, cell)])),
        }
    }

    let computed = engine.par_map(groups, |(_, members)| {
        let cfg = members[0].1.config(base);
        let prep = engine.prepared(&members[0].1.bench, &cfg);
        let targets: Vec<SelectionTarget> = members
            .iter()
            .map(|(_, c)| SelectionTarget::Weighted(c.w))
            .collect();
        let results = engine.evaluate_many(&prep, &targets);
        let base_cycles = prep.baseline.cycles;
        let base_energy = prep.baseline.total_energy(&cfg.energy);
        members
            .iter()
            .zip(results)
            .map(|((slot, cell), result)| {
                let energy = result.report.total_energy(&cfg.energy);
                let value = SweepCell {
                    index: cell.index as u64,
                    bench: cell.bench.clone(),
                    mem_latency: cell.mem_latency,
                    idle_factor: cell.idle_factor,
                    w: cell.w,
                    pthreads: result.selection.pthreads.len() as u64,
                    cycles: result.report.cycles,
                    base_cycles,
                    energy,
                    base_energy,
                    time_ratio: result.report.cycles as f64 / base_cycles as f64,
                    energy_ratio: energy / base_energy,
                }
                .to_json();
                // Journal the completion immediately: a kill after this
                // line loses at most the cells still in flight.
                if let Some(j) = journal {
                    j.record(&cell.id(), &value);
                }
                (*slot, value)
            })
            .collect::<Vec<_>>()
    });
    for (slot, value) in computed.into_iter().flatten() {
        values[slot] = Some(value);
    }

    let cells = values
        .into_iter()
        .map(|v| SweepCell::from_json(&v.expect("every owned cell resolved")).expect("cell shape"))
        .collect();
    (cells, replayed)
}

/// The [`cell_key`] of expansion position `idx` under `spec`, derived
/// by index decomposition (W innermost, mirroring `expand`). Used to
/// name cells in merge errors without re-expanding the whole grid.
fn spec_cell_key(spec: &Json, idx: usize) -> Option<String> {
    let arr = |k: &str| spec.get(k).and_then(Json::as_array);
    let (benches, mls, idles, ws) = (
        arr("benches")?,
        arr("mem_latencies")?,
        arr("idle_factors")?,
        arr("w_grid")?,
    );
    let (rest, wi) = (idx / ws.len().max(1), idx % ws.len().max(1));
    let (rest, ii) = (rest / idles.len().max(1), rest % idles.len().max(1));
    let (bi, mi) = (rest / mls.len().max(1), rest % mls.len().max(1));
    Some(cell_key(
        benches.get(bi)?.as_str()?,
        mls.get(mi)?.as_u64()?,
        idles.get(ii)?.as_f64()?,
        ws.get(wi)?.as_f64()?,
    ))
}

/// `spec_cell_key` with a fallback for malformed specs.
fn named_cell(spec: &Json, idx: usize) -> String {
    match spec_cell_key(spec, idx) {
        Some(key) => format!("cell {idx} ({key})"),
        None => format!("cell {idx}"),
    }
}

/// Merges shard outputs (in any order) into the full-sweep result.
/// Every part must carry a byte-identical spec; together they must
/// cover every cell exactly (duplicates must agree). The merged result
/// serializes byte-identically to an unsharded run of the same spec.
/// Errors name the offending shard (its position in `parts`) and the
/// cell's stable key, so a bad shard file is identifiable without a
/// diff.
pub fn merge_sweeps(parts: &[SweepResult]) -> Result<SweepResult, String> {
    let Some(first) = parts.first() else {
        return Err("merge: no sweep parts given".to_string());
    };
    let spec_bytes = first.spec.to_string();
    let expected = first.expected_cells();
    let mut slots: Vec<Option<SweepCell>> = vec![None; expected];
    // Which shard first filled each slot, for conflict attribution.
    let mut filled_by: Vec<usize> = vec![0; expected];
    for (pi, part) in parts.iter().enumerate() {
        let part_bytes = part.spec.to_string();
        if part_bytes != spec_bytes {
            return Err(format!(
                "merge: shard {pi} ran a different spec (content {} vs shard 0's {})",
                content_hash(&part_bytes),
                content_hash(&spec_bytes),
            ));
        }
        for cell in &part.cells {
            let idx = cell.index as usize;
            if idx >= expected {
                return Err(format!(
                    "merge: shard {pi} has cell index {idx} ({}) outside the spec \
                     ({expected} cells)",
                    cell.key(),
                ));
            }
            match &slots[idx] {
                Some(existing) if existing != cell => {
                    return Err(format!(
                        "merge: shard {pi} conflicts with shard {} on {}",
                        filled_by[idx],
                        named_cell(&first.spec, idx),
                    ));
                }
                Some(_) => {}
                None => {
                    slots[idx] = Some(cell.clone());
                    filled_by[idx] = pi;
                }
            }
        }
    }
    let missing: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "merge: {} cells missing (first: {})",
            missing.len(),
            named_cell(&first.spec, missing[0]),
        ));
    }
    Ok(SweepResult {
        spec: first.spec.clone(),
        cells: slots.into_iter().map(|s| s.unwrap()).collect(),
        replayed: 0,
    })
}

/// Geometric mean of positive ratios (1.0 for an empty set).
fn gmean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for v in vals {
        sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// One (W, time, energy) sample on a tradeoff curve.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoPoint {
    /// Selection weight.
    pub w: f64,
    /// Normalized execution time (lower is faster).
    pub time_ratio: f64,
    /// Normalized energy (lower is leaner).
    pub energy_ratio: f64,
    /// Whether this point is on the non-dominated frontier.
    pub on_frontier: bool,
}

impl_json_object!(ParetoPoint {
    w,
    time_ratio,
    energy_ratio,
    on_frontier,
});

/// Where one paper target sits relative to the measured frontier.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetCheck {
    /// Paper label: `L`, `P2`, `P`, or `E`.
    pub label: String,
    /// The target's anchor weight.
    pub w: f64,
    /// Normalized execution time at the anchor.
    pub time_ratio: f64,
    /// Normalized energy at the anchor.
    pub energy_ratio: f64,
    /// Distance outside the frontier (0 = on or inside it); see
    /// [`frontier_excess`].
    pub excess: f64,
    /// `excess <= tolerance`.
    pub within_tolerance: bool,
}

impl_json_object!(TargetCheck {
    label,
    w,
    time_ratio,
    energy_ratio,
    excess,
    within_tolerance,
});

/// One tradeoff curve (a benchmark's, or the aggregate) with its
/// frontier membership and paper-target checks.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoCurve {
    /// `"aggregate"` or the benchmark name.
    pub name: String,
    /// All sweep points, ascending by W.
    pub points: Vec<ParetoPoint>,
    /// The four paper targets, L/P²/P/E order.
    pub targets: Vec<TargetCheck>,
    /// Whether every paper target is within tolerance of the frontier.
    pub targets_on_frontier: bool,
}

impl_json_object!(ParetoCurve {
    name,
    points,
    targets,
    targets_on_frontier,
});

/// The Pareto analyses of one (machine, energy) grid point.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoGroup {
    /// Main-memory latency of this group's machine, cycles.
    pub mem_latency: u64,
    /// Idle-power fraction of this group's energy model.
    pub idle_factor: f64,
    /// Suite-level curve: per-W geometric means across benchmarks.
    pub aggregate: ParetoCurve,
    /// Per-benchmark curves.
    pub benches: Vec<ParetoCurve>,
}

impl_json_object!(ParetoGroup {
    mem_latency,
    idle_factor,
    aggregate,
    benches,
});

/// The full `repro pareto` artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoReport {
    /// Frontier-distance tolerance for the target checks.
    pub tolerance: f64,
    /// One analysis per (memory latency, idle factor) pair.
    pub groups: Vec<ParetoGroup>,
    /// Whether every group's *aggregate* curve passes all four checks.
    pub ok: bool,
}

impl_json_object!(ParetoReport {
    tolerance,
    groups,
    ok,
});

/// Builds one curve from `(w, time, energy)` samples sorted by W.
fn curve(name: &str, samples: &[(f64, f64, f64)], tol: f64) -> ParetoCurve {
    let xy: Vec<(f64, f64)> = samples.iter().map(|&(_, t, e)| (t, e)).collect();
    let front_idx = frontier(&xy);
    let front_pts: Vec<(f64, f64)> = front_idx.iter().map(|&i| xy[i]).collect();
    let points: Vec<ParetoPoint> = samples
        .iter()
        .enumerate()
        .map(|(i, &(w, t, e))| ParetoPoint {
            w,
            time_ratio: t,
            energy_ratio: e,
            on_frontier: front_idx.contains(&i),
        })
        .collect();
    let targets: Vec<TargetCheck> = PAPER_TARGETS
        .iter()
        .filter_map(|&(label, w)| {
            let p = points.iter().find(|p| p.w == w)?;
            let excess = frontier_excess((p.time_ratio, p.energy_ratio), &front_pts);
            Some(TargetCheck {
                label: label.to_string(),
                w,
                time_ratio: p.time_ratio,
                energy_ratio: p.energy_ratio,
                excess,
                within_tolerance: excess <= tol,
            })
        })
        .collect();
    let targets_on_frontier =
        targets.len() == PAPER_TARGETS.len() && targets.iter().all(|t| t.within_tolerance);
    ParetoCurve {
        name: name.to_string(),
        points,
        targets,
        targets_on_frontier,
    }
}

/// Runs the Pareto stage over a complete sweep.
pub fn pareto(sweep: &SweepResult, tolerance: f64) -> Result<ParetoReport, String> {
    if !sweep.complete() {
        return Err(format!(
            "pareto needs a complete sweep: have {} of {} cells (merge shards first)",
            sweep.cells.len(),
            sweep.expected_cells(),
        ));
    }
    let spec_strs = |k: &str| -> Vec<String> {
        sweep
            .spec
            .get(k)
            .and_then(Json::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let benches = spec_strs("benches");
    let ws: Vec<f64> = sweep
        .spec
        .get("w_grid")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let mls: Vec<u64> = sweep
        .spec
        .get("mem_latencies")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();
    let idles: Vec<f64> = sweep
        .spec
        .get("idle_factors")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();

    let mut groups = Vec::new();
    for &ml in &mls {
        for &idle in &idles {
            let in_group: Vec<&SweepCell> = sweep
                .cells
                .iter()
                .filter(|c| c.mem_latency == ml && c.idle_factor == idle)
                .collect();
            let bench_curves: Vec<ParetoCurve> = benches
                .iter()
                .map(|b| {
                    let samples: Vec<(f64, f64, f64)> = ws
                        .iter()
                        .filter_map(|&w| {
                            in_group
                                .iter()
                                .find(|c| c.bench == *b && c.w == w)
                                .map(|c| (w, c.time_ratio, c.energy_ratio))
                        })
                        .collect();
                    curve(b, &samples, tolerance)
                })
                .collect();
            let agg_samples: Vec<(f64, f64, f64)> = ws
                .iter()
                .map(|&w| {
                    let at_w: Vec<&&SweepCell> = in_group.iter().filter(|c| c.w == w).collect();
                    (
                        w,
                        gmean(at_w.iter().map(|c| c.time_ratio)),
                        gmean(at_w.iter().map(|c| c.energy_ratio)),
                    )
                })
                .collect();
            groups.push(ParetoGroup {
                mem_latency: ml,
                idle_factor: idle,
                aggregate: curve("aggregate", &agg_samples, tolerance),
                benches: bench_curves,
            });
        }
    }
    let ok = !groups.is_empty() && groups.iter().all(|g| g.aggregate.targets_on_frontier);
    Ok(ParetoReport {
        tolerance,
        groups,
        ok,
    })
}

impl fmt::Display for ParetoReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.groups {
            writeln!(
                f,
                "Pareto frontier of the W continuum (mem latency {}, idle factor {}):\n",
                g.mem_latency, g.idle_factor
            )?;
            let mut t = TextTable::new(vec![
                "W".into(),
                "time".into(),
                "energy".into(),
                "frontier".into(),
            ]);
            for p in &g.aggregate.points {
                t.row(vec![
                    format!("{}", p.w),
                    ratio(p.time_ratio),
                    ratio(p.energy_ratio),
                    if p.on_frontier {
                        "*".into()
                    } else {
                        String::new()
                    },
                ]);
            }
            writeln!(f, "{t}")?;
            let mut t = TextTable::new(vec![
                "target".into(),
                "W".into(),
                "time".into(),
                "energy".into(),
                "excess".into(),
                "on frontier".into(),
            ]);
            for tc in &g.aggregate.targets {
                t.row(vec![
                    tc.label.clone(),
                    format!("{}", tc.w),
                    ratio(tc.time_ratio),
                    ratio(tc.energy_ratio),
                    format!("{:.4}", tc.excess),
                    if tc.within_tolerance {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ]);
            }
            writeln!(f, "{t}")?;
            let failing: Vec<&str> = g
                .benches
                .iter()
                .filter(|c| !c.targets_on_frontier)
                .map(|c| c.name.as_str())
                .collect();
            writeln!(
                f,
                "per-bench: {}/{} with all four targets on their frontier{}",
                g.benches.len() - failing.len(),
                g.benches.len(),
                if failing.is_empty() {
                    String::new()
                } else {
                    format!(" (off: {})", failing.join(", "))
                }
            )?;
            writeln!(f)?;
        }
        writeln!(
            f,
            "paper targets on aggregate frontier (tol {}): {}",
            self.tolerance,
            if self.ok { "yes" } else { "NO" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w_grid_contains_the_paper_anchors_sorted() {
        let ws = w_grid(17);
        assert!(ws.len() >= 17);
        for (_, w) in PAPER_TARGETS {
            assert!(ws.contains(&w), "missing anchor {w}");
        }
        assert!(ws.windows(2).all(|p| p[0] < p[1]), "sorted, deduped");
        assert_eq!(ws[0], 0.0);
        assert_eq!(*ws.last().unwrap(), 1.0);
        // Degenerate point counts still yield the anchors.
        assert!(w_grid(0).len() >= 4);
    }

    #[test]
    fn weighted_anchors_reproduce_the_fixed_targets() {
        // The module doc's claim: at the four anchor weights the
        // continuum path selects exactly what the paper's fixed targets
        // select, so anchor cells *are* the L/P²/P/E configurations.
        let engine = Engine::from_env();
        let prep = engine.prepared("gap", &ExpConfig::default());
        let pcs = |t: SelectionTarget| {
            let s = prep.select(t);
            (
                s.pthreads.iter().map(|p| p.trigger_pc).collect::<Vec<_>>(),
                s.pthreads.len(),
            )
        };
        for (fixed, (_, w)) in [
            SelectionTarget::Latency,
            SelectionTarget::Ed2,
            SelectionTarget::Ed,
            SelectionTarget::Energy,
        ]
        .into_iter()
        .zip(PAPER_TARGETS)
        {
            assert_eq!(
                pcs(fixed),
                pcs(SelectionTarget::Weighted(w)),
                "W={w} drifted from {fixed:?}"
            );
        }
    }

    #[test]
    fn expansion_is_indexed_in_spec_order() {
        let opts = SweepOptions {
            benches: vec!["gap".into(), "mcf".into()],
            points: 3,
            mem_latencies: vec![200, 300],
            idle_factors: vec![0.05],
            ..SweepOptions::default()
        };
        let cells = expand(&opts);
        let ws = w_grid(3);
        assert_eq!(cells.len(), 2 * 2 * ws.len());
        assert_eq!(cell_count(&opts), cells.len());
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        assert_eq!(cells[0].bench, "gap");
        assert_eq!(cells[0].mem_latency, 200);
        assert_eq!(cells[ws.len()].mem_latency, 300, "W is innermost");
    }

    #[test]
    fn sweep_cell_json_round_trips_bit_exactly() {
        let cell = SweepCell {
            index: 7,
            bench: "gap".into(),
            mem_latency: 200,
            idle_factor: 0.05,
            w: 0.67,
            pthreads: 3,
            cycles: 123_456,
            base_cycles: 150_000,
            energy: 1234.5678901234567,
            base_energy: 2000.1,
            time_ratio: 123_456.0 / 150_000.0,
            energy_ratio: 1234.5678901234567 / 2000.1,
        };
        let text = cell.to_json().to_string();
        let back = SweepCell::from_json(&preexec_json::parse(&text).unwrap()).unwrap();
        assert_eq!(cell, back);
        assert_eq!(text, back.to_json().to_string());
    }

    #[test]
    fn merge_rejects_foreign_specs_and_holes() {
        let mk = |points: usize, cells: Vec<SweepCell>| SweepResult {
            spec: spec_json(&SweepOptions {
                benches: vec!["gap".into()],
                points,
                mem_latencies: vec![200],
                idle_factors: vec![0.05],
                ..SweepOptions::default()
            }),
            cells,
            replayed: 0,
        };
        let a = mk(2, vec![]);
        let b = mk(3, vec![]);
        assert!(merge_sweeps(&[a.clone(), b])
            .unwrap_err()
            .contains("different spec"));
        assert!(merge_sweeps(&[a]).unwrap_err().contains("missing"));
        assert!(merge_sweeps(&[]).is_err());
    }

    fn cell_at(index: u64, w: f64, cycles: u64) -> SweepCell {
        SweepCell {
            index,
            bench: "gap".into(),
            mem_latency: 200,
            idle_factor: 0.05,
            w,
            pthreads: 1,
            cycles,
            base_cycles: 100,
            energy: 1.0,
            base_energy: 2.0,
            time_ratio: cycles as f64 / 100.0,
            energy_ratio: 0.5,
        }
    }

    #[test]
    fn merge_errors_name_the_shard_and_cell_key() {
        let opts = SweepOptions {
            benches: vec!["gap".into()],
            points: 2, // w_grid(2) = [0, 0.5, 0.67, 1]
            mem_latencies: vec![200],
            idle_factors: vec![0.05],
            ..SweepOptions::default()
        };
        let part = |cells: Vec<SweepCell>| SweepResult {
            spec: spec_json(&opts),
            cells,
            replayed: 0,
        };

        // Conflicting values: both shards and the cell's stable key are
        // named.
        let err = merge_sweeps(&[
            part(vec![cell_at(1, 0.5, 90)]),
            part(vec![cell_at(1, 0.5, 91)]),
        ])
        .unwrap_err();
        assert!(err.contains("shard 1 conflicts with shard 0"), "{err}");
        assert!(err.contains("cell 1 (gap|ml200|if0.05|w0.5)"), "{err}");

        // Out-of-spec index: the shard and the bogus cell are named.
        let err = merge_sweeps(&[part(vec![cell_at(99, 0.5, 90)])]).unwrap_err();
        assert!(err.contains("shard 0 has cell index 99"), "{err}");

        // Missing cells: the first hole is named by index and key.
        let err = merge_sweeps(&[part(vec![cell_at(0, 0.0, 90)])]).unwrap_err();
        assert!(err.contains("3 cells missing"), "{err}");
        assert!(
            err.contains("first: cell 1 (gap|ml200|if0.05|w0.5)"),
            "{err}"
        );

        // Foreign spec: both content hashes are named.
        let mut other = opts.clone();
        other.points = 3;
        let foreign = SweepResult {
            spec: spec_json(&other),
            cells: vec![],
            replayed: 0,
        };
        let err = merge_sweeps(&[part(vec![]), foreign]).unwrap_err();
        assert!(err.contains("shard 1 ran a different spec"), "{err}");
        assert!(
            err.contains(&content_hash(&spec_json(&opts).to_string())),
            "{err}"
        );
    }

    #[test]
    fn curve_flags_frontier_and_measures_excess() {
        // A clean tradeoff staircase plus one dominated point at W=0.5.
        let samples = [
            (0.0, 1.00, 0.80),
            (0.5, 0.95, 0.95), // dominated by (0.90, 0.85)
            (0.67, 0.90, 0.85),
            (1.0, 0.85, 0.90),
        ];
        let c = curve("t", &samples, 0.001);
        assert!(!c.points[1].on_frontier);
        assert!(c.points[0].on_frontier && c.points[2].on_frontier && c.points[3].on_frontier);
        let p = c.targets.iter().find(|t| t.label == "P").unwrap();
        assert!((p.excess - 0.05).abs() < 1e-12, "excess {}", p.excess);
        assert!(!p.within_tolerance);
        assert!(!c.targets_on_frontier);
        let loose = curve("t", &samples, 0.05);
        assert!(loose.targets_on_frontier);
    }

    #[test]
    fn pareto_requires_a_complete_sweep() {
        let sweep = SweepResult {
            spec: spec_json(&SweepOptions {
                benches: vec!["gap".into()],
                points: 2,
                ..SweepOptions::default()
            }),
            cells: Vec::new(),
            replayed: 0,
        };
        assert!(pareto(&sweep, 0.005).unwrap_err().contains("complete"));
    }
}

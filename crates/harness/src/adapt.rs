//! The adaptive-controller evaluation harness: wires
//! `preexec-controller` (phase detection + online W search) to the
//! [`Engine`], and measures regret against the offline Pareto frontier.
//!
//! Per benchmark the flow is:
//!
//! 1. Read the *baseline* run's interval log and segment its signal
//!    series into phases (`controller::phase`). The phase boundaries live
//!    in committed-instruction space, which is selection-invariant: every
//!    candidate machine commits the same main-thread instructions in the
//!    same order.
//! 2. At each phase boundary, run the successive-halving W search. Each
//!    probe is an ordinary `Engine::evaluate_many` call — the same
//!    memo/store keys as `repro sweep` — so probing is served from the
//!    store on warm runs (`store_misses` 0). The probe's *score* is
//!    phase-local: candidate interval curves (aux-cached, deduped by
//!    installed p-thread set) are linearly interpolated at the phase's
//!    instruction boundaries, which is exact because every energy term
//!    is linear in counts and cycles.
//! 3. Compare the installed operating points against the offline
//!    frontier from the same engine's `run_sweep` grid: per-phase regret
//!    (`frontier_excess`), and convergence as the first phase from which
//!    regret stays within ε.
//!
//! Every log comes from the engine's memo of timing runs, which records
//! one at [`DEFAULT_STRIDE`] during the run that fills an entry, so at
//! the default stride adapt simulates nothing the probes and sweep do not
//! already run. A store-served run has no log, and another `--stride`
//! needs its own: both cost one logged rerun per curve.
//!
//! Everything is deterministic: two invocations produce byte-identical
//! reports, which the CI smoke and the `adapt` golden pin.

use crate::campaign::{run_sweep, w_grid, SweepOptions};
use crate::engine::Engine;
use crate::setup::{ExpConfig, Prepared};
use crate::table::{num1, ratio, TextTable};
use preexec_controller::phase::{detect, PhaseConfig, Segmentation};
use preexec_controller::regret::{converged_at, regret_excess};
use preexec_controller::search::{
    search, Objective, ProbeOutcome, Prober, SearchConfig, SearchOutcome,
};
use preexec_controller::signal::SignalSeries;
use preexec_energy::{EnergyBreakdown, EnergyConfig};
use preexec_json::{jobj, Json, ToJson};
use preexec_sim::IntervalSnapshot;
use pthsel::SelectionTarget;
use std::fmt;
use std::sync::Arc;

/// Default interval-log stride for phase detection, in cycles.
pub const DEFAULT_STRIDE: u64 = 5_000;

/// Shape of one adaptive-controller run.
#[derive(Clone, Debug)]
pub struct AdaptOptions {
    /// Benchmarks to adapt on (defaults to the full paper suite).
    pub benches: Vec<String>,
    /// What the controller optimizes at each phase boundary.
    pub objective: Objective,
    /// W-grid resolution (same grid as `repro sweep`: evenly spaced
    /// points plus the four paper anchors).
    pub points: usize,
    /// Interval-log stride in cycles.
    pub stride: u64,
    /// Phase-detector knobs.
    pub phase: PhaseConfig,
    /// W-search knobs.
    pub search: SearchConfig,
    /// Convergence/regret tolerance on (time, energy) ratios.
    pub epsilon: f64,
}

impl Default for AdaptOptions {
    fn default() -> AdaptOptions {
        AdaptOptions {
            benches: preexec_workloads::NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            objective: Objective::MinEd,
            points: 17,
            stride: DEFAULT_STRIDE,
            phase: PhaseConfig::default(),
            search: SearchConfig::default(),
            epsilon: 0.05,
        }
    }
}

/// One phase-boundary decision: what was probed, what was installed,
/// and how the installed point fares against the offline frontier.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseDecision {
    /// Phase index (0-based, time order).
    pub phase: u64,
    /// The W the controller installed for this phase.
    pub w: f64,
    /// Every candidate W probed, in probe order.
    pub probed_ws: Vec<f64>,
    /// P-threads in the installed selection.
    pub pthreads: u64,
    /// Phase-local time ratio of the installed candidate (the score the
    /// search saw).
    pub phase_time_ratio: f64,
    /// Phase-local energy ratio of the installed candidate.
    pub phase_energy_ratio: f64,
    /// Whole-run time ratio of the installed candidate.
    pub run_time_ratio: f64,
    /// Whole-run energy ratio of the installed candidate.
    pub run_energy_ratio: f64,
    /// Selection-model predicted latency advantage (aggregate).
    pub predicted_ladv: f64,
    /// Selection-model predicted energy advantage (aggregate).
    pub predicted_eadv: f64,
    /// Distance of the installed whole-run point outside the offline
    /// frontier (0 on or inside it).
    pub regret: f64,
}

preexec_json::impl_json_object!(PhaseDecision {
    phase,
    w,
    probed_ws,
    pthreads,
    phase_time_ratio,
    phase_energy_ratio,
    run_time_ratio,
    run_energy_ratio,
    predicted_ladv,
    predicted_eadv,
    regret,
});

/// One benchmark's adaptive run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchAdapt {
    /// Benchmark (or `gen:` scenario) name.
    pub bench: String,
    /// The phase segmentation artifact (config echo + boundaries +
    /// phase table).
    pub segmentation: Segmentation,
    /// One decision per phase, in time order.
    pub decisions: Vec<PhaseDecision>,
    /// The last installed W.
    pub final_w: f64,
    /// Whole-run time ratio of the last installed selection.
    pub final_time_ratio: f64,
    /// Whole-run energy ratio of the last installed selection.
    pub final_energy_ratio: f64,
    /// Final regret vs. the offline frontier.
    pub final_regret: f64,
    /// First phase from which regret stays within ε (`null` if the
    /// last phase still exceeds it).
    pub converged_at: Option<u64>,
    /// Whether the final regret is within ε.
    pub within: bool,
}

impl ToJson for BenchAdapt {
    fn to_json(&self) -> Json {
        jobj! {
            "bench" => self.bench.clone(),
            "segmentation" => self.segmentation.to_json(),
            "decisions" => self.decisions.clone(),
            "final_w" => self.final_w,
            "final_time_ratio" => self.final_time_ratio,
            "final_energy_ratio" => self.final_energy_ratio,
            "final_regret" => self.final_regret,
            "converged_at" => match self.converged_at {
                Some(k) => Json::U64(k),
                None => Json::Null,
            },
            "within" => self.within
        }
    }
}

/// The regret report over a set of benchmarks.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptReport {
    /// Objective label (`min-ed`, `min-e@5%`, ...).
    pub objective: String,
    /// Convergence/regret tolerance.
    pub epsilon: f64,
    /// W-grid resolution.
    pub points: u64,
    /// Interval-log stride, cycles.
    pub stride: u64,
    /// Per-benchmark outcomes, in request order.
    pub benches: Vec<BenchAdapt>,
    /// How many benchmarks ended within ε of the offline frontier.
    pub within: u64,
}

impl ToJson for AdaptReport {
    fn to_json(&self) -> Json {
        jobj! {
            "objective" => self.objective.clone(),
            "epsilon" => self.epsilon,
            "points" => self.points,
            "stride" => self.stride,
            "benches" => self.benches.clone(),
            "within" => self.within
        }
    }
}

impl fmt::Display for AdaptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "adaptive W controller: objective {}, ε {}, {}-point grid, stride {} ({}/{} within ε of the offline frontier)",
            self.objective,
            self.epsilon,
            self.points,
            self.stride,
            self.within,
            self.benches.len(),
        )?;
        let mut t = TextTable::new(vec![
            "bench".into(),
            "phases".into(),
            "final W".into(),
            "time".into(),
            "energy".into(),
            "regret".into(),
            "conv@".into(),
        ]);
        for b in &self.benches {
            t.row(vec![
                b.bench.clone(),
                format!("{}", b.decisions.len()),
                format!("{}", b.final_w),
                ratio(b.final_time_ratio),
                ratio(b.final_energy_ratio),
                num1(100.0 * b.final_regret) + "%",
                match b.converged_at {
                    Some(k) => format!("{k}"),
                    None => "—".into(),
                },
            ]);
        }
        write!(f, "{t}")
    }
}

/// Cumulative (committed → cycles, energy) curve of one interval-logged
/// run, with linear interpolation in instruction space. Exact for
/// energy because every term is linear in counts and cycles.
struct Curve {
    committed: Vec<f64>,
    cycles: Vec<f64>,
    energy: Vec<f64>,
}

impl Curve {
    fn build(snaps: &[IntervalSnapshot], energy: &EnergyConfig) -> Curve {
        let mut committed = Vec::with_capacity(snaps.len() + 1);
        let mut cycles = Vec::with_capacity(snaps.len() + 1);
        let mut e = Vec::with_capacity(snaps.len() + 1);
        committed.push(0.0);
        cycles.push(0.0);
        e.push(0.0);
        for s in snaps {
            committed.push(s.committed as f64);
            cycles.push(s.cycle as f64);
            e.push(EnergyBreakdown::compute(&s.counts, s.cycle, energy).total());
        }
        Curve {
            committed,
            cycles,
            energy: e,
        }
    }

    /// Cumulative (cycles, energy) at instruction coordinate `c`,
    /// clamped to the run's range.
    fn at(&self, c: f64) -> (f64, f64) {
        let n = self.committed.len();
        if c <= self.committed[0] {
            return (self.cycles[0], self.energy[0]);
        }
        if c >= self.committed[n - 1] {
            return (self.cycles[n - 1], self.energy[n - 1]);
        }
        let i = self.committed.partition_point(|&x| x < c);
        let (c0, c1) = (self.committed[i - 1], self.committed[i]);
        let frac = if c1 > c0 { (c - c0) / (c1 - c0) } else { 0.0 };
        (
            self.cycles[i - 1] + frac * (self.cycles[i] - self.cycles[i - 1]),
            self.energy[i - 1] + frac * (self.energy[i] - self.energy[i - 1]),
        )
    }

    /// (cycles, energy) spent between instruction coordinates `a..b`.
    fn segment(&self, a: f64, b: f64) -> (f64, f64) {
        let (ca, ea) = self.at(a);
        let (cb, eb) = self.at(b);
        (cb - ca, eb - ea)
    }
}

/// A probe side record: whole-run coordinates of a probed candidate.
#[derive(Clone, Copy)]
struct RunPoint {
    time_ratio: f64,
    energy_ratio: f64,
    pthreads: u64,
    predicted_ladv: f64,
    predicted_eadv: f64,
}

/// The engine-backed prober: official probes go through
/// `Engine::evaluate_many` (store-served on repeats); phase-local
/// scores come from aux-cached interval curves of the candidate runs.
struct EngineProber<'a> {
    engine: &'a Engine,
    prep: &'a Prepared,
    stride: u64,
    base_curve: Arc<Curve>,
    /// Current phase range in committed-instruction coordinates.
    range: (f64, f64),
    /// Whole-run coordinates per probed W, in probe order.
    runs: Vec<(f64, RunPoint)>,
}

impl EngineProber<'_> {
    /// The aux-cached interval curve of the candidate's machine, keyed
    /// by the installed p-thread set so equal selections (different Ws
    /// choosing the same p-threads) share one curve. At the default
    /// stride it is read from the engine's memoized run.
    fn curve_for(&self, pthreads: &[pthsel::PThread]) -> Arc<Curve> {
        let prep = self.prep;
        let key = format!(
            "adapt-curve|pf{}|{:?}|st{}|{:?}|{:?}",
            prep.fingerprint, prep.cfg.sim, self.stride, prep.cfg.energy, pthreads
        );
        self.engine.cached(key, || {
            self.engine
                .with_intervals(prep, pthreads, self.stride, |log| {
                    Curve::build(log, &prep.cfg.energy)
                })
        })
    }
}

impl Prober for EngineProber<'_> {
    fn probe(&mut self, ws: &[f64]) -> Vec<ProbeOutcome> {
        let targets: Vec<SelectionTarget> =
            ws.iter().map(|&w| SelectionTarget::Weighted(w)).collect();
        let results = self.engine.evaluate_many(self.prep, &targets);
        let base = &self.prep.baseline;
        let base_energy = base.total_energy(&self.prep.cfg.energy);
        let (a, b) = self.range;
        let (base_c, base_e) = self.base_curve.segment(a, b);
        ws.iter()
            .zip(results)
            .map(|(&w, res)| {
                let run = RunPoint {
                    time_ratio: res.report.cycles as f64 / base.cycles as f64,
                    energy_ratio: res.report.total_energy(&self.prep.cfg.energy) / base_energy,
                    pthreads: res.selection.pthreads.len() as u64,
                    predicted_ladv: res.selection.predicted_ladv,
                    predicted_eadv: res.selection.predicted_eadv,
                };
                let curve = self.curve_for(&res.selection.pthreads);
                let (c, e) = curve.segment(a, b);
                let outcome = ProbeOutcome {
                    w,
                    time_ratio: if base_c > 0.0 { c / base_c } else { 1.0 },
                    energy_ratio: if base_e > 0.0 { e / base_e } else { 1.0 },
                };
                self.runs.push((w, run));
                outcome
            })
            .collect()
    }
}

/// Runs the adaptive controller over one benchmark.
fn adapt_bench(engine: &Engine, base: &ExpConfig, bench: &str, opts: &AdaptOptions) -> BenchAdapt {
    let prep = engine.prepared(bench, base);
    let stride = opts.stride.max(1);

    // Baseline curve and phases (aux-cached), from the baseline run's
    // interval log: the empty selection keys it.
    let base_curve_and_seg = {
        let key = format!(
            "adapt-base|pf{}|{:?}|st{}|{:?}|{:?}",
            prep.fingerprint, prep.cfg.sim, stride, opts.phase, prep.cfg.energy
        );
        let prep = &prep;
        engine.cached(key, || {
            engine.with_intervals(prep, &[], stride, |log| {
                let series = SignalSeries::extract(log, &prep.cfg.energy);
                let seg = detect(&series, &opts.phase);
                (Arc::new(Curve::build(log, &prep.cfg.energy)), seg)
            })
        })
    };
    let (ref base_curve, ref segmentation) = *base_curve_and_seg;

    // The offline frontier: the same engine's W sweep over the same
    // grid (store-served on warm runs, shared with the probes).
    let sweep = run_sweep(
        engine,
        base,
        &SweepOptions {
            benches: vec![bench.to_string()],
            points: opts.points,
            ..SweepOptions::default()
        },
    );
    let samples: Vec<(f64, f64)> = sweep
        .cells
        .iter()
        .map(|c| (c.time_ratio, c.energy_ratio))
        .collect();

    // Phase ranges in instruction space; a degenerate log (no points)
    // falls back to one whole-run phase.
    let ranges: Vec<(f64, f64)> = if segmentation.phases.is_empty() {
        vec![(0.0, prep.baseline.committed as f64)]
    } else {
        segmentation
            .phases
            .iter()
            .map(|p| (p.start_committed as f64, p.end_committed as f64))
            .collect()
    };

    let grid = w_grid(opts.points);
    let mut decisions = Vec::with_capacity(ranges.len());
    for (pi, &range) in ranges.iter().enumerate() {
        let mut prober = EngineProber {
            engine,
            prep: &prep,
            stride,
            base_curve: Arc::clone(base_curve),
            range,
            runs: Vec::new(),
        };
        let SearchOutcome { probes, chosen, .. } =
            search(&grid, &opts.search, &opts.objective, &mut prober);
        let run = prober
            .runs
            .iter()
            .find(|(w, _)| *w == chosen.w)
            .map(|&(_, r)| r)
            .expect("chosen W was probed");
        let regret = regret_excess((run.time_ratio, run.energy_ratio), &samples);
        engine.say(|| {
            format!(
                "adapt {bench} phase {pi}: probed {} candidates {:?}, chose W={} \
                 (predicted ladv {:.1} eadv {:.1}; measured time {:.3} energy {:.3}; regret {:.4})",
                probes.len(),
                probes.iter().map(|p| p.w).collect::<Vec<f64>>(),
                chosen.w,
                run.predicted_ladv,
                run.predicted_eadv,
                run.time_ratio,
                run.energy_ratio,
                regret,
            )
        });
        decisions.push(PhaseDecision {
            phase: pi as u64,
            w: chosen.w,
            probed_ws: probes.iter().map(|p| p.w).collect(),
            pthreads: run.pthreads,
            phase_time_ratio: chosen.time_ratio,
            phase_energy_ratio: chosen.energy_ratio,
            run_time_ratio: run.time_ratio,
            run_energy_ratio: run.energy_ratio,
            predicted_ladv: run.predicted_ladv,
            predicted_eadv: run.predicted_eadv,
            regret,
        });
    }

    let excesses: Vec<f64> = decisions.iter().map(|d| d.regret).collect();
    let last = decisions.last().expect("at least one phase");
    BenchAdapt {
        bench: bench.to_string(),
        segmentation: segmentation.clone(),
        final_w: last.w,
        final_time_ratio: last.run_time_ratio,
        final_energy_ratio: last.run_energy_ratio,
        final_regret: last.regret,
        converged_at: converged_at(&excesses, opts.epsilon).map(|k| k as u64),
        within: last.regret <= opts.epsilon,
        decisions,
    }
}

/// Runs the adaptive controller over every requested benchmark, in
/// parallel, assembling results in request order (deterministic).
pub fn run_adapt(engine: &Engine, base: &ExpConfig, opts: &AdaptOptions) -> AdaptReport {
    let benches = engine.par_map(opts.benches.clone(), |bench| {
        adapt_bench(engine, base, &bench, opts)
    });
    let within = benches.iter().filter(|b| b.within).count() as u64;
    AdaptReport {
        objective: opts.objective.label(),
        epsilon: opts.epsilon,
        points: opts.points as u64,
        stride: opts.stride,
        benches,
        within,
    }
}

/// Validates a captured `repro adapt --json` report: parses it and
/// checks the fields the CI smoke depends on. Returns a short summary
/// line on success.
pub fn check_report(text: &str) -> Result<String, String> {
    let j = preexec_json::parse(text).map_err(|e| format!("unparsable adapt report: {e}"))?;
    let report = j.get("data").cloned().unwrap_or(j);
    for key in [
        "objective",
        "epsilon",
        "points",
        "stride",
        "benches",
        "within",
    ] {
        if report.get(key).is_none() {
            return Err(format!("adapt report: missing {key:?}"));
        }
    }
    let benches = report
        .get("benches")
        .and_then(Json::as_array)
        .ok_or("adapt report: \"benches\" is not an array")?;
    for b in benches {
        for key in [
            "bench",
            "segmentation",
            "decisions",
            "final_regret",
            "within",
        ] {
            if b.get(key).is_none() {
                return Err(format!("adapt report: bench entry missing {key:?}"));
            }
        }
        if b.get("decisions")
            .and_then(Json::as_array)
            .is_none_or(|d| d.is_empty())
        {
            return Err("adapt report: bench entry has no decisions".into());
        }
    }
    Ok(format!(
        "adapt report ok: {} benches, within={}",
        benches.len(),
        report.get("within").and_then(Json::as_u64).unwrap_or(0),
    ))
}

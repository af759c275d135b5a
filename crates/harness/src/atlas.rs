//! The knob-space atlas: campaign sweeps over *generated* scenarios.
//!
//! An atlas run expands a [`GenSpec`] knob grid into scenario names,
//! pushes every scenario through the `preexec-gen` admission gate (zero
//! lint findings + oracle-vs-pipeline identity — a generator bug aborts
//! the run, it never silently skews the study), then hands the names to
//! the ordinary campaign sweep machinery: scenario names *are* benchmark
//! names as far as cells, journals, shards and the persistent store are
//! concerned. On a complete sweep it reduces each
//! `(scenario, machine, energy)` group to a verdict: does the pure
//! energy-aware selection (W = 0, "E") dominate the pure latency
//! selection (W = 1, "L") in (time, energy), vice versa, or is the pair
//! a genuine trade-off.
//!
//! Determinism carries over from the campaign layer: shard outputs merge
//! byte-identically to a single-process run ([`merge_atlas`] recomputes
//! the winners from the merged cells), and the admission block is
//! computed over the *whole* grid in every shard, so every shard's
//! envelope is identical outside its owned cells.

use crate::adapt::DEFAULT_STRIDE;
use crate::campaign::{merge_sweeps, try_run_sweep, SweepCell, SweepOptions, SweepResult};
use crate::engine::Engine;
use crate::setup::{program_fingerprint, ExpConfig};
use crate::table::{ratio, TextTable};
use preexec_gen::{admit_runs, build_scenario, AdmissionRun, GenSpec};
use preexec_json::{impl_json_object, Json};
use preexec_sim::SimConfig;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;

/// Shape of one atlas run.
#[derive(Clone, Debug)]
pub struct AtlasOptions {
    /// The knob grid to expand.
    pub spec: GenSpec,
    /// W-grid points per cell group (see `SweepOptions::points`; the
    /// paper anchors are always added, so 2 gives W ∈ {0, 0.5, 0.67, 1}).
    pub points: usize,
    /// Machine grid: main-memory latencies in cycles.
    pub mem_latencies: Vec<u64>,
    /// Energy grid: idle-power fractions.
    pub idle_factors: Vec<f64>,
    /// Completion journal for kill/crash resume.
    pub journal: Option<PathBuf>,
    /// `(shard index, shard count)` — this process computes only the
    /// sweep cells it owns (admission always covers the whole grid).
    pub shard: (usize, usize),
}

impl Default for AtlasOptions {
    fn default() -> AtlasOptions {
        let cfg = ExpConfig::default();
        AtlasOptions {
            spec: GenSpec::default(),
            points: 2,
            mem_latencies: vec![cfg.sim.hierarchy.mem_latency],
            idle_factors: vec![cfg.energy.idle_factor],
            journal: None,
            shard: (0, 1),
        }
    }
}

/// The admission block of an atlas result. An atlas only exists when
/// `admitted == generated`: any gate failure aborts the run instead.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionSummary {
    /// Scenarios the spec expanded to.
    pub generated: u64,
    /// Scenarios that passed lint + the oracle differential (all of
    /// them, by construction).
    pub admitted: u64,
}

impl_json_object!(AdmissionSummary {
    generated,
    admitted,
} decode);

/// The E-vs-L verdict for one `(scenario, machine, energy)` group of a
/// complete atlas.
#[derive(Clone, Debug, PartialEq)]
pub struct AtlasWinner {
    /// Scenario name.
    pub scenario: String,
    /// Main-memory latency of the group's machine, cycles.
    pub mem_latency: u64,
    /// Idle-power fraction of the group's energy model.
    pub idle_factor: f64,
    /// W = 1 (latency selection) time ratio.
    pub l_time: f64,
    /// W = 1 energy ratio.
    pub l_energy: f64,
    /// W = 0 (energy selection) time ratio.
    pub e_time: f64,
    /// W = 0 energy ratio.
    pub e_energy: f64,
    /// Domination verdict: `"E"` or `"L"` when one selection dominates
    /// the other in (time, energy), `"tradeoff"` when neither does.
    pub verdict: String,
    /// Tie-break by energy-delay product (`time_ratio × energy_ratio`,
    /// lower wins; L on exact ties): always `"E"` or `"L"`.
    pub ed_winner: String,
}

impl_json_object!(AtlasWinner {
    scenario,
    mem_latency,
    idle_factor,
    l_time,
    l_energy,
    e_time,
    e_energy,
    verdict,
    ed_winner,
} decode);

/// A (possibly partial, when sharded) atlas outcome: the gen-spec echo,
/// the whole-grid admission block, the sweep over scenario names, and —
/// only when the sweep is complete — the per-group winner verdicts.
#[derive(Clone, Debug, PartialEq)]
pub struct AtlasResult {
    /// Canonical echo of the knob grid ([`GenSpec::to_json`]).
    pub gen_spec: Json,
    /// Whole-grid admission counts (identical across shards).
    pub admission: AdmissionSummary,
    /// The underlying campaign sweep (benches are scenario names).
    pub sweep: SweepResult,
    /// E-vs-L verdicts, one per `(scenario, machine, energy)` group;
    /// empty unless the sweep is complete.
    pub winners: Vec<AtlasWinner>,
}

impl_json_object!(AtlasResult {
    gen_spec,
    admission,
    sweep,
    winners,
} decode);

impl fmt::Display for AtlasResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workload atlas: {}/{} scenarios admitted",
            self.admission.admitted, self.admission.generated,
        )?;
        write!(f, "{}", self.sweep)?;
        if self.winners.is_empty() {
            return writeln!(f, "winners: (sweep incomplete — merge shards first)");
        }
        let (mut e, mut l, mut tr) = (0usize, 0usize, 0usize);
        for w in &self.winners {
            match w.verdict.as_str() {
                "E" => e += 1,
                "L" => l += 1,
                _ => tr += 1,
            }
        }
        writeln!(
            f,
            "winners: E dominates in {e}, L dominates in {l}, trade-off in {tr} of {} groups",
            self.winners.len(),
        )?;
        let mut t = TextTable::new(vec![
            "scenario".into(),
            "ml".into(),
            "L time".into(),
            "L energy".into(),
            "E time".into(),
            "E energy".into(),
            "verdict".into(),
            "ED".into(),
        ]);
        for w in &self.winners {
            t.row(vec![
                w.scenario.clone(),
                format!("{}", w.mem_latency),
                ratio(w.l_time),
                ratio(w.l_energy),
                ratio(w.e_time),
                ratio(w.e_energy),
                w.verdict.clone(),
                w.ed_winner.clone(),
            ]);
        }
        writeln!(f, "{t}")
    }
}

/// Runs an atlas: expand → admit (whole grid, any failure is an error) →
/// sweep the owned cells → classify winners when complete. `base` is the
/// experiment config every cell perturbs (as in `run_sweep`). An
/// unusable journal path is an error too.
pub fn run_atlas(
    engine: &Engine,
    base: &ExpConfig,
    opts: &AtlasOptions,
) -> Result<AtlasResult, String> {
    let scenarios = opts.spec.scenarios()?;
    engine.say(|| format!("atlas: admitting {} generated scenarios", scenarios.len()));
    // Admission fingerprints each scenario, then runs the `preexec-gen`
    // gate (lint + oracle differential) once per distinct program, on the
    // engine's pool in grid order. Scenarios that build one program
    // (degenerate knob corners) share its verdict. The first pass keeps
    // fingerprints only and the second rebuilds each program it admits,
    // so the pool holds no more programs at once than it has workers.
    let fingerprints = engine.par_map(scenarios.iter().collect(), |s| {
        build_scenario(s).map(|program| program_fingerprint(&program))
    });
    let mut firsts: HashMap<&str, usize> = HashMap::new();
    let mut distinct = Vec::new();
    for (scenario, fingerprint) in scenarios.iter().zip(&fingerprints) {
        if let Ok(fingerprint) = fingerprint {
            firsts.entry(fingerprint).or_insert_with(|| {
                distinct.push((scenario, fingerprint));
                distinct.len() - 1
            });
        }
    }
    let admitted = engine.par_map(distinct, |(scenario, fingerprint)| {
        let program = build_scenario(scenario)?;
        admit_runs(&program, DEFAULT_STRIDE).map(|runs| (fingerprint, runs))
    });
    let failures: Vec<&String> = fingerprints
        .iter()
        .filter_map(|f| match f {
            Ok(fingerprint) => admitted[firsts[fingerprint.as_str()]].as_ref().err(),
            Err(e) => Some(e),
        })
        .collect();
    if let Some(first) = failures.first() {
        return Err(format!(
            "atlas admission failed for {} of {} scenarios; first: {first}",
            failures.len(),
            scenarios.len(),
        ));
    }
    // A checked run on a cell machine is that cell's baseline run, so the
    // sweep does not simulate it again.
    let machines: Vec<SimConfig> = opts
        .mem_latencies
        .iter()
        .map(|&ml| base.sim.with_mem_latency(ml))
        .collect();
    for (fingerprint, runs) in admitted.into_iter().flatten() {
        engine.metrics().add_admission_runs(runs.len() as u64);
        for run in runs {
            for machine in machines.iter().filter(|m| is_baseline_on(&run, m)) {
                engine.adopt_baseline(
                    fingerprint,
                    machine,
                    run.report.clone(),
                    run.intervals.clone(),
                );
            }
        }
    }
    let admission = AdmissionSummary {
        generated: scenarios.len() as u64,
        admitted: scenarios.len() as u64,
    };
    engine.say(|| format!("atlas: all {} scenarios admitted", scenarios.len()));
    let sweep_opts = SweepOptions {
        benches: scenarios.iter().map(|s| s.name()).collect(),
        points: opts.points,
        mem_latencies: opts.mem_latencies.clone(),
        idle_factors: opts.idle_factors.clone(),
        journal: opts.journal.clone(),
        shard: opts.shard,
    };
    let sweep = try_run_sweep(engine, base, &sweep_opts)?;
    let winners = winners_from(&sweep);
    Ok(AtlasResult {
        gen_spec: opts.spec.to_json(),
        admission,
        sweep,
        winners,
    })
}

/// Whether a checked admission run is the baseline run on `machine`:
/// the machines are equal up to the cycle cap, and the run finished
/// within a cap no larger than `machine`'s. The cap only bounds the run
/// loop and a fast-forward jump, so a run that finished under it steps
/// exactly as it would under any larger one.
fn is_baseline_on(run: &AdmissionRun, machine: &SimConfig) -> bool {
    run.report.finished
        && run.sim.max_cycles <= machine.max_cycles
        && SimConfig {
            max_cycles: machine.max_cycles,
            ..run.sim
        } == *machine
}

/// Merges shard atlas outputs: the gen-spec echoes and admission blocks
/// must agree, the sweeps merge as usual, and the winners are recomputed
/// from the merged cells. Byte-identical to a single-process run of the
/// same spec.
pub fn merge_atlas(parts: &[AtlasResult]) -> Result<AtlasResult, String> {
    let first = parts.first().ok_or("merge: no atlas parts")?;
    for (i, p) in parts.iter().enumerate() {
        if p.gen_spec != first.gen_spec {
            return Err(format!("merge: shard {i} ran a different gen spec"));
        }
        if p.admission != first.admission {
            return Err(format!(
                "merge: shard {i} reports a different admission block"
            ));
        }
    }
    let sweep = merge_sweeps(&parts.iter().map(|p| p.sweep.clone()).collect::<Vec<_>>())?;
    let winners = winners_from(&sweep);
    Ok(AtlasResult {
        gen_spec: first.gen_spec.clone(),
        admission: first.admission.clone(),
        sweep,
        winners,
    })
}

/// Classifies every `(scenario, machine, energy)` group of a *complete*
/// sweep: the W = 1 (L) cell against the W = 0 (E) cell by domination in
/// (time_ratio, energy_ratio), plus the energy-delay-product tie-break.
/// Returns an empty list for incomplete sweeps — a shard must not report
/// verdicts over cells it does not own.
pub fn winners_from(sweep: &SweepResult) -> Vec<AtlasWinner> {
    if !sweep.complete() {
        return Vec::new();
    }
    // Cells arrive in expansion order (bench outermost, W innermost), so
    // consecutive cells of one group are adjacent and groups appear in
    // spec order.
    let mut out = Vec::new();
    let mut group: Vec<&SweepCell> = Vec::new();
    for cell in &sweep.cells {
        if let Some(prev) = group.last() {
            let same = prev.bench == cell.bench
                && prev.mem_latency == cell.mem_latency
                && prev.idle_factor == cell.idle_factor;
            if !same {
                if let Some(w) = classify(&group) {
                    out.push(w);
                }
                group.clear();
            }
        }
        group.push(cell);
    }
    if let Some(w) = classify(&group) {
        out.push(w);
    }
    out
}

fn classify(group: &[&SweepCell]) -> Option<AtlasWinner> {
    let l = group.iter().find(|c| c.w == 1.0)?;
    let e = group.iter().find(|c| c.w == 0.0)?;
    let lp = (l.time_ratio, l.energy_ratio);
    let ep = (e.time_ratio, e.energy_ratio);
    let verdict = match preexec_campaign::winner(lp, ep) {
        Some(0) => "L",
        Some(1) => "E",
        _ => "tradeoff",
    };
    let ed_winner = if ep.0 * ep.1 < lp.0 * lp.1 { "E" } else { "L" };
    Some(AtlasWinner {
        scenario: l.bench.clone(),
        mem_latency: l.mem_latency,
        idle_factor: l.idle_factor,
        l_time: lp.0,
        l_energy: lp.1,
        e_time: ep.0,
        e_energy: ep.1,
        verdict: verdict.to_string(),
        ed_winner: ed_winner.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_json::ToJson;

    fn cell(bench: &str, w: f64, t: f64, e: f64, index: u64) -> SweepCell {
        SweepCell {
            index,
            bench: bench.to_string(),
            mem_latency: 200,
            idle_factor: 0.2,
            w,
            pthreads: 1,
            cycles: 100,
            base_cycles: 100,
            energy: 1.0,
            base_energy: 1.0,
            time_ratio: t,
            energy_ratio: e,
        }
    }

    fn sweep_of(cells: Vec<SweepCell>, benches: &[&str], ws: &[f64]) -> SweepResult {
        let spec = Json::object()
            .with(
                "benches",
                benches.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
            .with("w_grid", ws.to_vec())
            .with("mem_latencies", vec![200u64])
            .with("idle_factors", vec![0.2]);
        SweepResult {
            spec,
            cells,
            replayed: 0,
        }
    }

    #[test]
    fn winners_classify_domination_and_ed_tiebreak() {
        // Scenario a: E dominates. Scenario b: trade-off, ED picks E.
        let cells = vec![
            cell("a", 0.0, 0.8, 0.9, 0),
            cell("a", 1.0, 0.9, 1.0, 1),
            cell("b", 0.0, 0.95, 0.8, 2),
            cell("b", 1.0, 0.9, 1.0, 3),
        ];
        let sweep = sweep_of(cells, &["a", "b"], &[0.0, 1.0]);
        let winners = winners_from(&sweep);
        assert_eq!(winners.len(), 2);
        assert_eq!(winners[0].verdict, "E");
        assert_eq!(winners[1].verdict, "tradeoff");
        assert_eq!(winners[1].ed_winner, "E", "0.95*0.8 < 0.9*1.0");
    }

    #[test]
    fn incomplete_sweeps_report_no_winners() {
        let cells = vec![cell("a", 0.0, 0.8, 0.9, 0)];
        let sweep = sweep_of(cells, &["a", "b"], &[0.0, 1.0]);
        assert!(winners_from(&sweep).is_empty());
    }

    #[test]
    fn atlas_result_round_trips_through_json() {
        let cells = vec![cell("a", 0.0, 0.8, 0.9, 0), cell("a", 1.0, 0.9, 1.0, 1)];
        let sweep = sweep_of(cells, &["a"], &[0.0, 1.0]);
        let atlas = AtlasResult {
            gen_spec: GenSpec::default().to_json(),
            admission: AdmissionSummary {
                generated: 1,
                admitted: 1,
            },
            sweep,
            winners: Vec::new(),
        };
        let atlas = AtlasResult {
            winners: winners_from(&atlas.sweep),
            ..atlas
        };
        let text = atlas.to_json().to_string();
        let back = AtlasResult::from_json(&preexec_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), text, "byte-stable round trip");
        assert_eq!(back.winners, atlas.winners);
    }

    #[test]
    fn merge_rejects_mismatched_specs() {
        let sweep = sweep_of(Vec::new(), &[], &[0.0, 1.0]);
        let a = AtlasResult {
            gen_spec: GenSpec::default().to_json(),
            admission: AdmissionSummary {
                generated: 1,
                admitted: 1,
            },
            sweep: sweep.clone(),
            winners: Vec::new(),
        };
        let spec2 = GenSpec {
            seed: 9,
            ..GenSpec::default()
        };
        let b = AtlasResult {
            gen_spec: spec2.to_json(),
            ..a.clone()
        };
        assert!(merge_atlas(&[a.clone(), b])
            .unwrap_err()
            .contains("different gen spec"));
    }
}

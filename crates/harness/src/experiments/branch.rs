//! Branch pre-execution (the paper's §7 extension, implemented and
//! evaluated here): p-threads that compute "problem branch" outcomes
//! ahead of fetch, selected by PTHSEL+E with energy credited at the busy
//! rate `Etotal/c`.

use crate::{pct, Engine, ExpConfig, PreparedBase, TextTable};
use preexec_critpath::problem_branches;
use preexec_json::impl_json_object;
use preexec_sim::Simulator;
use preexec_slicer::SliceTree;
use preexec_trace::{FuncSim, MemAnnotation, Profile};
use preexec_workloads::InputSet;
use pthsel::{
    select_branch_pthreads, AppParams, CandidateTable, Selection, SelectionTarget, SelectorInputs,
    DEFAULT_MISPREDICT_PENALTY,
};
use std::fmt;
use std::sync::Arc;

/// Benchmarks with data-dependent (predictor-resistant) branches.
pub const BENCHES: [&str; 4] = ["bzip2", "gap", "parser", "vpr.place"];

/// One benchmark's branch pre-execution outcome.
#[derive(Clone, Debug)]
pub struct BranchRow {
    /// Benchmark name.
    pub bench: String,
    /// Baseline mispredictions.
    pub base_mispredicts: u64,
    /// Mispredictions with branch p-threads installed.
    pub opt_mispredicts: u64,
    /// Fetch hints consumed.
    pub hints_used: u64,
    /// Fraction of consumed hints that were correct.
    pub hint_accuracy: f64,
    /// %IPC gain from branch pre-execution alone.
    pub ipc_gain: f64,
    /// %energy saved.
    pub energy_save: f64,
    /// Branch p-threads selected.
    pub pthreads: usize,
}

/// The branch pre-execution study.
#[derive(Clone, Debug)]
pub struct BranchExt {
    /// Per-benchmark rows.
    pub rows: Vec<BranchRow>,
}

impl_json_object!(BranchRow {
    bench,
    base_mispredicts,
    opt_mispredicts,
    hints_used,
    hint_accuracy,
    ipc_gain,
    energy_save,
    pthreads,
});
impl_json_object!(BranchExt { rows });

/// Runs branch-targeting selection and simulation on `BENCHES`, one
/// benchmark per work item.
pub fn run(engine: &Engine, cfg: &ExpConfig) -> BranchExt {
    let rows = engine.par_map(BENCHES.to_vec(), |name| {
        study_cached(engine, name, cfg, SelectionTarget::Latency)
            .row
            .clone()
    });
    BranchExt { rows }
}

/// A benchmark's branch-study artifacts: the result row plus the branch
/// selection, so the combined study can install the same p-threads
/// without re-mining.
struct BranchStudy {
    row: BranchRow,
    selection: Selection,
}

/// The branch pipeline is engine-independent (it mines its own trace), so
/// the engine memoizes whole studies through its generic side cache: the
/// `branch` and `combined` experiments share one pipeline per benchmark.
fn study_cached(
    engine: &Engine,
    name: &str,
    cfg: &ExpConfig,
    target: SelectionTarget,
) -> Arc<BranchStudy> {
    let key = format!(
        "branch|{target:?}|{:?}|{}",
        cfg.slice,
        PreparedBase::base_key(name, cfg),
    );
    engine.cached(key, || study(name, cfg, target))
}

/// Runs branch pre-execution for one benchmark.
pub fn run_for(name: &str, cfg: &ExpConfig, target: SelectionTarget) -> BranchRow {
    study(name, cfg, target).row
}

fn study(name: &str, cfg: &ExpConfig, target: SelectionTarget) -> BranchStudy {
    let program = preexec_workloads::build(name, InputSet::Train)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"));
    let trace = FuncSim::new(&program).run_trace(cfg.trace_cap);
    let ann = MemAnnotation::compute(&trace, cfg.sim.hierarchy);
    let profile = Profile::compute(&program, &trace, &ann);
    let mut branches = problem_branches(&trace, cfg.sim.predictor, 64);
    branches.truncate(cfg.max_problem_loads);
    let trees: Vec<SliceTree> = branches
        .iter()
        .map(|pb| {
            SliceTree::build_from_instances(
                &program,
                &trace,
                &profile,
                pb.pc,
                &pb.stats.mispredict_seqs,
                &cfg.slice,
            )
        })
        .collect();

    let baseline = Simulator::new(&program, cfg.sim).run();
    let app = AppParams {
        l0: baseline.cycles as f64,
        e0: baseline.total_energy(&cfg.energy),
        bw_seq_mt: baseline.ipc(),
    };
    let table = CandidateTable::for_branches(
        &trees,
        &profile,
        &branches,
        cfg.machine_params(),
        app.bw_seq_mt,
        DEFAULT_MISPREDICT_PENALTY,
    );
    let inputs = SelectorInputs {
        program: &program,
        trees: &trees,
        table: &table,
        energy: cfg.energy_params(),
        app,
    };
    let selection = select_branch_pthreads(&inputs, target);
    let opt = Simulator::new(&program, cfg.sim)
        .with_pthreads(&selection.pthreads)
        .run();
    let row = BranchRow {
        bench: name.to_string(),
        base_mispredicts: baseline.mispredicts,
        opt_mispredicts: opt.mispredicts,
        hints_used: opt.hints_used,
        hint_accuracy: if opt.hints_used == 0 {
            0.0
        } else {
            opt.hints_correct as f64 / opt.hints_used as f64
        },
        ipc_gain: 100.0 * (1.0 - opt.cycles as f64 / baseline.cycles as f64),
        energy_save: 100.0
            * (1.0 - opt.total_energy(&cfg.energy) / baseline.total_energy(&cfg.energy)),
        pthreads: selection.pthreads.len(),
    };
    BranchStudy { row, selection }
}

/// Load-only vs branch-only vs combined pre-execution on one benchmark:
/// the two mechanisms share thread contexts, fetch bandwidth, and MSHRs,
/// so their gains need not compose additively.
#[derive(Clone, Debug)]
pub struct CombinedRow {
    /// Benchmark name.
    pub bench: String,
    /// %IPC gain with load p-threads only.
    pub load_only: f64,
    /// %IPC gain with branch p-threads only.
    pub branch_only: f64,
    /// %IPC gain with both installed.
    pub combined: f64,
    /// %energy saved with both installed.
    pub combined_energy: f64,
}

/// Runs the combined study for one benchmark (L-targeted selections).
/// The load side comes from the engine's (memoized) prepared pipeline and
/// simulation cache; the branch side reuses the `branch` experiment's
/// study if it already ran on this engine.
pub fn run_combined(engine: &Engine, name: &str, cfg: &ExpConfig) -> CombinedRow {
    let prep = engine.prepared(name, cfg);
    let load = engine.evaluate(&prep, SelectionTarget::Latency);
    let study = study_cached(engine, name, cfg, SelectionTarget::Latency);

    let mut all = load.selection.pthreads.clone();
    all.extend(study.selection.pthreads.iter().cloned());
    let both = Simulator::new(&prep.program, cfg.sim)
        .with_pthreads(&all)
        .run();
    let base = &prep.baseline;
    CombinedRow {
        bench: name.to_string(),
        load_only: 100.0 * (1.0 - load.report.cycles as f64 / base.cycles as f64),
        branch_only: study.row.ipc_gain,
        combined: 100.0 * (1.0 - both.cycles as f64 / base.cycles as f64),
        combined_energy: 100.0
            * (1.0 - both.total_energy(&cfg.energy) / base.total_energy(&cfg.energy)),
    }
}

/// The combined study across benchmarks with both miss and mispredict
/// problems.
#[derive(Clone, Debug)]
pub struct Combined {
    /// Per-benchmark rows.
    pub rows: Vec<CombinedRow>,
}

impl_json_object!(CombinedRow {
    bench,
    load_only,
    branch_only,
    combined,
    combined_energy
});
impl_json_object!(Combined { rows });

/// Runs the combined study on the branch-suite benchmarks, one benchmark
/// per work item.
pub fn run_combined_all(engine: &Engine, cfg: &ExpConfig) -> Combined {
    Combined {
        rows: engine.par_map(BENCHES.to_vec(), |n| run_combined(engine, n, cfg)),
    }
}

impl fmt::Display for Combined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Combined pre-execution: load p-threads + branch p-threads (L-targeted)
"
        )?;
        let mut t = TextTable::new(vec![
            "bench".into(),
            "load-only %IPC".into(),
            "branch-only %IPC".into(),
            "combined %IPC".into(),
            "combined %energy".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                pct(r.load_only),
                pct(r.branch_only),
                pct(r.combined),
                pct(r.combined_energy),
            ]);
        }
        writeln!(f, "{t}")
    }
}

impl fmt::Display for BranchExt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§7 extension: branch pre-execution (L-targeted branch p-threads)\n"
        )?;
        let mut t = TextTable::new(vec![
            "bench".into(),
            "mispred(base)".into(),
            "mispred(opt)".into(),
            "hints".into(),
            "hint-acc".into(),
            "%IPC".into(),
            "%energy".into(),
            "p-threads".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                r.base_mispredicts.to_string(),
                r.opt_mispredicts.to_string(),
                r.hints_used.to_string(),
                format!("{:.0}%", r.hint_accuracy * 100.0),
                pct(r.ipc_gain),
                pct(r.energy_save),
                r.pthreads.to_string(),
            ]);
        }
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> BranchRow {
        BranchRow {
            bench: "toy".into(),
            base_mispredicts: 100,
            opt_mispredicts: 5,
            hints_used: 90,
            hint_accuracy: 0.99,
            ipc_gain: 12.5,
            energy_save: 3.25,
            pthreads: 2,
        }
    }

    #[test]
    fn branch_table_renders() {
        let b = BranchExt { rows: vec![row()] };
        let t = b.to_string();
        assert!(t.contains("toy"));
        assert!(t.contains("99%"));
        assert!(t.contains("+12.5%"));
    }

    #[test]
    fn combined_table_renders() {
        let c = Combined {
            rows: vec![CombinedRow {
                bench: "toy".into(),
                load_only: 10.0,
                branch_only: 5.0,
                combined: 12.0,
                combined_energy: -1.0,
            }],
        };
        let t = c.to_string();
        assert!(t.contains("combined"));
        assert!(t.contains("+12.0%"));
        assert!(t.contains("-1.0%"));
    }
}

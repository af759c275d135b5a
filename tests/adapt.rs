//! Cross-layer tests of the adaptive W controller (`preexec-controller`
//! plus `preexec_harness::adapt`): the controller can never install an
//! ill-formed p-thread set (every installed selection passes the static
//! analyzer and the oracle differential), the full report is
//! deterministic across independent engines, and the controller's
//! interval curves cost no timing run of their own.

use preexec::analysis;
use preexec::harness::adapt::{run_adapt, AdaptOptions};
use preexec::harness::campaign::w_grid;
use preexec::harness::{Engine, ExpConfig};
use preexec::oracle::diff;
use preexec::pthsel::SelectionTarget;
use preexec_json::ToJson;
use std::sync::OnceLock;

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::from_env)
}

fn small_opts(benches: &[&str]) -> AdaptOptions {
    AdaptOptions {
        benches: benches.iter().map(|s| s.to_string()).collect(),
        points: 5,
        ..AdaptOptions::default()
    }
}

/// Every selection the controller installs (every phase's chosen W, on
/// every bench) verifies clean statically and leaves the architectural
/// outcome untouched under the oracle differential.
#[test]
fn installed_selections_are_well_formed_and_equivalent() {
    let cfg = ExpConfig::default();
    let report = run_adapt(engine(), &cfg, &small_opts(&["gap", "vpr.place"]));
    for bench in &report.benches {
        let prep = engine().prepared(&bench.bench, &cfg);
        for d in &bench.decisions {
            let selection = prep.select(SelectionTarget::Weighted(d.w));
            assert_eq!(
                selection.pthreads.len() as u64,
                d.pthreads,
                "{}: decision and re-selection disagree",
                bench.bench
            );
            for p in &selection.pthreads {
                let shape = analysis::PthreadShape {
                    trigger_pc: p.trigger_pc,
                    body: &p.body,
                    targets: &p.targets,
                    branch_hint: p.branch_hint,
                };
                let errors: Vec<String> =
                    analysis::verify_pthread(&prep.program, &shape, usize::MAX)
                        .into_iter()
                        .filter(analysis::Finding::is_error)
                        .map(|f| f.to_string())
                        .collect();
                assert!(
                    errors.is_empty(),
                    "{} phase {} W={}: installed p-thread failed lint: {}",
                    bench.bench,
                    d.phase,
                    d.w,
                    errors.join("; ")
                );
            }
            let label = format!("{}/adapt-phase{}-w{}", bench.bench, d.phase, d.w);
            if let Err(e) =
                diff::check_equivalence(&prep.program, &selection.pthreads, &cfg.sim, &label)
            {
                panic!("{e}");
            }
        }
    }
}

/// Two independent engines (separate caches, separate thread pools)
/// produce byte-identical adapt reports.
#[test]
fn report_is_deterministic_across_engines() {
    let cfg = ExpConfig::default();
    let opts = small_opts(&["gap", "twolf"]);
    let a = run_adapt(&Engine::from_env(), &cfg, &opts);
    let b = run_adapt(&Engine::from_env(), &cfg, &opts);
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
}

/// The regret report's structural guarantees: phases cover the run in
/// order, every decision's probes include its winner, and regret is
/// non-negative.
#[test]
fn report_structure_is_sound() {
    let cfg = ExpConfig::default();
    let report = run_adapt(engine(), &cfg, &small_opts(&["gap"]));
    assert_eq!(report.benches.len(), 1);
    let b = &report.benches[0];
    assert!(!b.decisions.is_empty());
    for (i, d) in b.decisions.iter().enumerate() {
        assert_eq!(d.phase, i as u64);
        assert!(d.probed_ws.contains(&d.w), "winner must have been probed");
        assert!(d.regret >= 0.0);
        assert!(d.phase_time_ratio > 0.0 && d.phase_energy_ratio > 0.0);
    }
    assert_eq!(b.final_w, b.decisions.last().unwrap().w);
    if b.within {
        assert!(b.final_regret <= report.epsilon);
    }
}

/// Adapt makes one timing run per distinct p-thread set it installs (the
/// baseline is the empty set): its interval curves read the logs the
/// engine recorded during the sweep's and the probes' own runs.
#[test]
fn adapt_simulates_each_distinct_selection_once() {
    let cfg = ExpConfig::default();
    let engine = Engine::new(2);
    let opts = small_opts(&["gap"]);
    let report = run_adapt(&engine, &cfg, &opts);
    let runs = engine.metrics().sim_runs();

    let prep = engine.prepared("gap", &cfg);
    let probed = report.benches[0]
        .decisions
        .iter()
        .flat_map(|d| d.probed_ws.iter().copied());
    let mut sets = std::collections::HashSet::from([String::from("[]")]);
    for w in w_grid(opts.points).into_iter().chain(probed) {
        let pthreads = prep.select(SelectionTarget::Weighted(w)).pthreads;
        sets.insert(format!("{pthreads:?}"));
    }
    assert_eq!(
        runs,
        sets.len() as u64,
        "timing runs vs. distinct p-thread sets (baseline included)"
    );
}

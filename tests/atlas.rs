//! Integration tests for the workload atlas: generated scenarios flowing
//! through admission, the campaign sweep, journal resume, shard merge,
//! and the content-addressed store — plus the dedupe guarantee that
//! byte-identical generated programs share persisted sim entries.
//!
//! Grids stay tiny (2 scenarios, the 4 anchor W points) so the file is
//! fast; every property checked is grid-size independent.

use preexec::campaign::Store;
use preexec::gen::{build_scenario, emit_text, GenSpec, Scenario};
use preexec::harness::atlas::{merge_atlas, run_atlas, AtlasOptions};
use preexec::harness::{campaign, program_fingerprint, Engine, ExpConfig, Stage};
use preexec::pthsel::SelectionTarget;
use preexec_json::ToJson;
use std::path::PathBuf;

/// A fresh scratch directory under the system temp dir.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("preexec-atlas-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The 2-scenario grid all atlas tests share: miss rate on/off, one
/// modest footprint, fixed seed.
fn small_atlas() -> AtlasOptions {
    AtlasOptions {
        spec: GenSpec {
            seed: 7,
            miss_rate: vec![0.0, 0.5],
            footprint: vec![65_536],
            ..GenSpec::default()
        },
        ..AtlasOptions::default()
    }
}

#[test]
fn tiny_atlas_completes_with_winner_verdicts() {
    let engine = Engine::from_env();
    let cfg = ExpConfig::default();
    let atlas = run_atlas(&engine, &cfg, &small_atlas()).unwrap();
    assert_eq!(atlas.admission.generated, 2);
    assert_eq!(atlas.admission.admitted, 2);
    assert!(atlas.sweep.complete(), "unsharded atlas must complete");
    assert_eq!(atlas.sweep.cells.len(), 8, "2 scenarios x 4 anchor Ws");
    assert_eq!(atlas.winners.len(), 2, "one verdict per scenario group");
    for w in &atlas.winners {
        assert!(w.scenario.starts_with("gen:"), "{}", w.scenario);
        assert!(
            ["E", "L", "tradeoff"].contains(&w.verdict.as_str()),
            "{}",
            w.verdict
        );
        assert!(
            ["E", "L"].contains(&w.ed_winner.as_str()),
            "{}",
            w.ed_winner
        );
    }
}

#[test]
fn atlas_shards_merge_byte_identically() {
    let engine = Engine::from_env();
    let cfg = ExpConfig::default();
    let mut opts = small_atlas();
    let full = run_atlas(&engine, &cfg, &opts).unwrap();
    let full_bytes = full.to_json().to_string();

    let mut shards = Vec::new();
    for i in 0..2 {
        opts.shard = (i, 2);
        let shard = run_atlas(&engine, &cfg, &opts).unwrap();
        // A shard still admits (and reports) the whole grid, but must
        // not claim winners over cells it does not own.
        assert_eq!(shard.admission, full.admission);
        assert!(shard.winners.is_empty(), "shard {i} reported winners");
        shards.push(shard);
    }
    for order in [[0, 1], [1, 0]] {
        let parts: Vec<_> = order.iter().map(|&i| shards[i].clone()).collect();
        let merged = merge_atlas(&parts).unwrap();
        assert_eq!(
            merged.to_json().to_string(),
            full_bytes,
            "merge order {order:?} changed the bytes"
        );
    }
}

#[test]
fn killed_atlas_resumes_from_the_journal_byte_identically() {
    let dir = tmpdir("resume");
    let journal = dir.join("atlas.jsonl");
    let engine = Engine::from_env();
    let cfg = ExpConfig::default();
    let mut opts = small_atlas();
    opts.journal = Some(journal.clone());

    let full = run_atlas(&engine, &cfg, &opts).unwrap();
    assert_eq!(full.sweep.replayed, 0, "first run computes everything");
    let lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 1 + full.sweep.cells.len(), "header + cells");

    // Simulate a kill after two completed cells (plus a torn third).
    let torn = format!("{}\n{}\n{}\n{{\"cell\":\"to", lines[0], lines[1], lines[2]);
    std::fs::write(&journal, torn).unwrap();

    let resumed = run_atlas(&engine, &cfg, &opts).unwrap();
    assert_eq!(resumed.sweep.replayed, 2, "two journaled cells replayed");
    assert_eq!(
        resumed.to_json().to_string(),
        full.to_json().to_string(),
        "resume changed the bytes"
    );
}

#[test]
fn identical_generated_programs_share_one_store_entry() {
    // With miss_rate = 0 the clustering knob is inert and the generator
    // spends its RNG draws identically, so these two *names* denote
    // byte-identical programs…
    let a = Scenario::parse("gen:sl4_id1_bd0_mr0_mc0_fp65536_s7").unwrap();
    let b = Scenario::parse("gen:sl4_id1_bd0_mr0_mc0.7_fp65536_s7").unwrap();
    let pa = build_scenario(&a).unwrap();
    let pb = build_scenario(&b).unwrap();
    // `emit_text` leads with the scenario name as a comment; everything
    // after it (instructions + data image) must be byte-identical, and
    // the fingerprint (which hashes exactly that content) must collide.
    let body = |p: &preexec_isa::Program| {
        let text = emit_text(p);
        text.split_once('\n').unwrap().1.to_string()
    };
    assert_eq!(body(&pa), body(&pb), "programs must be identical");
    assert_eq!(program_fingerprint(&pa), program_fingerprint(&pb));

    // …so the persistent store keys collide by construction: a sweep of
    // scenario B on a fresh engine replays entirely from the entries a
    // sweep of scenario A persisted.
    let dir = tmpdir("dedupe");
    let store = std::sync::Arc::new(Store::open(dir.join("store")).unwrap());
    let cfg = ExpConfig::default();
    let sweep_of = |name: &str| campaign::SweepOptions {
        benches: vec![name.to_string()],
        points: 2,
        ..campaign::SweepOptions::default()
    };

    let cold = Engine::from_env().with_store(store.clone());
    let first = campaign::run_sweep(&cold, &cfg, &sweep_of(&a.name()));
    assert_eq!(cold.metrics().store_hits(), 0, "nothing persisted yet");
    assert!(cold.metrics().store_misses() > 0);

    let warm = Engine::from_env().with_store(store);
    let second = campaign::run_sweep(&warm, &cfg, &sweep_of(&b.name()));
    assert_eq!(
        warm.metrics().store_misses(),
        0,
        "scenario B missed entries scenario A persisted"
    );
    assert!(warm.metrics().store_hits() > 0);

    // Same physics, different labels: every ratio agrees cell-for-cell.
    for (ca, cb) in first.cells.iter().zip(&second.cells) {
        assert_eq!(ca.w, cb.w);
        assert_eq!(ca.cycles, cb.cycles, "w={}", ca.w);
        assert_eq!(ca.energy, cb.energy, "w={}", ca.w);
    }
}

/// An atlas simulates each distinct (program, machine, p-thread set) at
/// most once, and no baseline at all: admission's checked `default` run
/// is the baseline of every cell, so beyond the distinct runs the only
/// pipeline runs are admission's `tiny-mem-tlb` checks. Scenarios that
/// build one program share its admission and its runs by fingerprint.
#[test]
fn atlas_simulates_each_distinct_run_once() {
    let distinct = small_atlas();
    let mut identical = small_atlas();
    identical.spec.miss_rate = vec![0.0];
    identical.spec.miss_clustering = vec![0.0, 0.7];
    for (label, opts, programs) in [("distinct", distinct, 2), ("identical", identical, 1)] {
        let engine = Engine::new(2);
        let cfg = ExpConfig::default();
        let atlas = run_atlas(&engine, &cfg, &opts).unwrap();
        assert_eq!(
            atlas.admission.admitted,
            opts.spec.scenarios().unwrap().len() as u64,
            "{label}: a shared verdict still admits every scenario"
        );

        let mut baselines = std::collections::HashSet::new();
        let mut runs = std::collections::HashSet::new();
        for name in opts.spec.scenarios().unwrap().iter().map(Scenario::name) {
            for &ml in &opts.mem_latencies {
                let mut cell = cfg;
                cell.sim = cell.sim.with_mem_latency(ml);
                let prep = engine.prepared(&name, &cell);
                baselines.insert(format!("{}|{ml}", prep.fingerprint));
                runs.insert(format!("{}|{ml}|[]", prep.fingerprint));
                for w in campaign::w_grid(opts.points) {
                    for &idle in &opts.idle_factors {
                        cell.energy = cell.energy.with_idle_factor(idle);
                        let pthreads = engine
                            .prepared(&name, &cell)
                            .select(SelectionTarget::Weighted(w))
                            .pthreads;
                        runs.insert(format!("{}|{ml}|{pthreads:?}", prep.fingerprint));
                    }
                }
            }
        }
        let m = engine.metrics();
        assert_eq!(
            baselines.len(),
            programs,
            "{label}: programs by fingerprint"
        );
        assert_eq!(
            m.stage_calls(Stage::BaselineSim),
            0,
            "{label}: baselines adopted"
        );
        assert_eq!(
            m.admission_runs(),
            2 * programs as u64,
            "{label}: admission runs, once per distinct program"
        );
        assert_eq!(
            m.sim_runs(),
            (runs.len() - baselines.len()) as u64,
            "{label}: timing runs vs. distinct runs less the adopted baselines"
        );
    }
}

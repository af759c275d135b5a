//! Integration tests for the campaign subsystem: Pareto-frontier
//! properties, shard-merge order independence, kill/resume byte
//! identity, persistent-store warm starts, and recovery from truncated
//! store entries.
//!
//! The engine-backed tests all sweep one small benchmark with a coarse
//! W grid so the whole file stays fast; the properties they check are
//! grid-size independent.

use preexec::campaign::{content_hash, dominates, frontier, frontier_excess, Store};
use preexec::critpath::Breakdown;
use preexec::harness::{
    campaign, profile_from_json, trees_from_json, versioned, CritPathOutput, Engine, ExpConfig,
    Stage, MODEL_VERSION,
};
use preexec::workloads::InputSet;
use preexec_json::ToJson;
use preexec_prop::{run_cases, Gen};
use std::path::PathBuf;

/// A fresh scratch directory under the system temp dir.
fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("preexec-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The small sweep all engine-backed tests share: one benchmark, the
/// four paper anchors plus one filler point.
fn small_opts() -> campaign::SweepOptions {
    campaign::SweepOptions {
        benches: vec!["gap".to_string()],
        points: 5,
        ..campaign::SweepOptions::default()
    }
}

#[test]
fn frontier_points_are_mutually_non_dominated_and_cover() {
    run_cases(200, |g: &mut Gen| {
        let pts = g.vec(0, 24, |g| (g.f64(0.5, 1.5), g.f64(0.5, 1.5)));
        let front = frontier(&pts);
        // Sorted by x (frontier order is ascending time).
        assert!(front.windows(2).all(|w| pts[w[0]].0 <= pts[w[1]].0));
        for (i, &p) in pts.iter().enumerate() {
            let on = front.contains(&i);
            let dominated = pts.iter().any(|&q| dominates(q, p));
            if on {
                // Nothing strictly dominates a frontier point.
                assert!(!dominated, "frontier point {p:?} is dominated");
                assert_eq!(frontier_excess(p, &[]), 0.0, "empty frontier is free");
            } else {
                // Every off-frontier point is beaten by someone on it.
                assert!(
                    front.iter().any(|&j| dominates(pts[j], p)),
                    "off-frontier point {p:?} not dominated by the frontier"
                );
                let fp: Vec<(f64, f64)> = front.iter().map(|&j| pts[j]).collect();
                assert!(
                    frontier_excess(p, &fp) > 0.0,
                    "off-frontier point {p:?} has zero excess"
                );
            }
        }
    });
}

#[test]
fn shard_merge_is_order_independent_and_matches_the_full_run() {
    let engine = Engine::from_env();
    let cfg = ExpConfig::default();
    let mut opts = small_opts();
    let full = campaign::run_sweep(&engine, &cfg, &opts)
        .to_json()
        .to_string();

    let mut shards = Vec::new();
    for i in 0..3 {
        opts.shard = (i, 3);
        shards.push(campaign::run_sweep(&engine, &cfg, &opts));
    }
    for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
        let parts: Vec<campaign::SweepResult> = order.iter().map(|&i| shards[i].clone()).collect();
        let merged = campaign::merge_sweeps(&parts).unwrap();
        assert_eq!(
            merged.to_json().to_string(),
            full,
            "merge order {order:?} changed the bytes"
        );
    }
    // A cell delivered twice with identical bytes (a killed shard rerun
    // on another box, say) is absorbed: the parts still merge to the
    // full-run bytes.
    let mut rerun = shards[1].clone();
    rerun.cells.truncate(1);
    let parts = [
        shards[0].clone(),
        rerun,
        shards[1].clone(),
        shards[2].clone(),
    ];
    assert_eq!(
        campaign::merge_sweeps(&parts)
            .unwrap()
            .to_json()
            .to_string(),
        full,
        "a duplicate cell changed the bytes"
    );
    // A shard alone is incomplete: merge refuses, pareto refuses.
    assert!(campaign::merge_sweeps(&shards[..1]).is_err());
    assert!(campaign::pareto(&shards[0], 0.005).is_err());
}

#[test]
fn killed_sweep_resumes_from_the_journal_byte_identically() {
    let dir = tmpdir("resume");
    let journal = dir.join("sweep.jsonl");
    let engine = Engine::from_env();
    let cfg = ExpConfig::default();
    let mut opts = small_opts();
    opts.journal = Some(journal.clone());

    let full = campaign::run_sweep(&engine, &cfg, &opts);
    assert_eq!(full.replayed, 0, "first run computes everything");
    let lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 1 + full.cells.len(), "header + one per cell");

    // Simulate a kill after two completed cells (plus a torn third).
    let torn = format!("{}\n{}\n{}\n{{\"cell\":\"to", lines[0], lines[1], lines[2]);
    std::fs::write(&journal, torn).unwrap();

    let resumed = campaign::run_sweep(&engine, &cfg, &opts);
    assert_eq!(resumed.replayed, 2, "two journaled cells replayed");
    assert_eq!(
        resumed.to_json().to_string(),
        full.to_json().to_string(),
        "resume changed the bytes"
    );

    // The journal healed: a third run replays every cell.
    let replay = campaign::run_sweep(&engine, &cfg, &opts);
    assert_eq!(replay.replayed, full.cells.len());
    assert_eq!(replay.to_json().to_string(), full.to_json().to_string());
}

#[test]
fn persistent_store_gives_warm_engines_a_full_hit_rate() {
    let dir = tmpdir("warm");
    let store = std::sync::Arc::new(Store::open(dir.join("store")).unwrap());
    let cfg = ExpConfig::default();
    let opts = small_opts();

    let cold = Engine::from_env().with_store(store.clone());
    let first = campaign::run_sweep(&cold, &cfg, &opts);
    assert_eq!(cold.metrics().store_hits(), 0, "nothing persisted yet");
    assert!(cold.metrics().store_misses() > 0);

    // The store caches timing runs and stage outputs: every entry
    // decodes whole as the kind its key names, so none is written that
    // no reader asks for. The one profiled binary files one profile, one
    // critical-path output and one set of slice trees, each equal to
    // what the cold engine computed.
    let prep = cold.prepared("gap", &cfg);
    let problem_pcs: Vec<u32> = prep.trees.iter().map(|t| t.root_pc).collect();
    let prefix = versioned(MODEL_VERSION, "");
    let (mut profiles, mut critpaths, mut slices) = (0, 0, 0);
    for shard in std::fs::read_dir(dir.join("store/entries")).unwrap() {
        for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = entry.unwrap().path();
            let j = preexec_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let key = j.get("key").and_then(preexec_json::Json::as_str).unwrap();
            let value = j.get("value").unwrap();
            let kind = key.strip_prefix(&prefix).and_then(|k| k.split('|').next());
            let whole = match kind {
                Some("baseline" | "sim") => preexec::sim::SimReport::from_json(value).map(drop),
                Some("profile") => {
                    profiles += 1;
                    profile_from_json(value, &prep.program)
                        .map(|p| assert_eq!(p, *prep.profile, "stored profile"))
                }
                Some("critpath") => {
                    critpaths += 1;
                    CritPathOutput::from_json(value).map(drop)
                }
                Some("slices") => {
                    slices += 1;
                    trees_from_json(value, &prep.program, &prep.profile, &problem_pcs)
                        .map(|t| assert_eq!(t, *prep.trees, "stored slice trees"))
                }
                _ => Err(format!("unknown entry kind in key {key:?}")),
            };
            assert!(whole.is_ok(), "{}: {whole:?}", path.display());
        }
    }
    assert_eq!(
        (profiles, critpaths, slices),
        (1, 1, 1),
        "one profile, critical-path output and set of slice trees per profiled binary"
    );

    // A fresh engine (empty in-memory memo) over the same store: every
    // timing run replays from disk — a 100% (≥90%) hit rate.
    let warm = Engine::from_env().with_store(store);
    let second = campaign::run_sweep(&warm, &cfg, &opts);
    let m = warm.metrics();
    assert_eq!(m.store_misses(), 0, "warm run missed the store");
    assert!(m.store_hits() > 0);
    assert_eq!(
        (
            m.critpath_store_hits(),
            m.critpath_store_misses(),
            m.stage_calls(Stage::Critpath),
        ),
        (1, 0, 0),
        "the warm run read the critical-path output instead of running the model"
    );
    assert_eq!(
        (m.frontend_store_hits(), m.frontend_store_misses()),
        (2, 0),
        "the warm run read the profile and the slice trees"
    );
    assert_eq!(
        [Stage::Trace, Stage::Profile, Stage::Slice].map(|s| m.stage_calls(s)),
        [0, 0, 0],
        "the warm run traced, profiled or sliced"
    );
    assert_eq!(
        second.to_json().to_string(),
        first.to_json().to_string(),
        "store-served sweep changed the bytes"
    );
}

/// Every float of a critical-path output as its bit pattern, so `-0.0`
/// and `+0.0` (equal as numbers) tell apart.
fn critpath_bits(costs: &[preexec::critpath::LoadCost], b: &Breakdown, ipc: f64) -> Vec<u64> {
    let mut bits = Vec::new();
    for c in costs {
        bits.extend([c.pc() as u64, c.misses(), c.tolerable().to_bits()]);
        for &(x, y) in c.points() {
            bits.extend([x.to_bits(), y.to_bits()]);
        }
    }
    bits.extend([b.fetch, b.commit, b.exec, b.l2, b.mem, ipc].map(f64::to_bits));
    bits
}

#[test]
fn store_served_critpath_outputs_equal_the_computed_ones_bit_for_bit() {
    let dir = tmpdir("critpath-bits");
    let store = std::sync::Arc::new(Store::open(dir.join("store")).unwrap());
    let cfg = ExpConfig::default();
    // Figure 4's case: profiled on another input than it runs on, so the
    // profiled binary's fingerprint differs from the run binary's.
    let ref_profiled = ExpConfig {
        profile_input: InputSet::Ref,
        ..cfg
    };
    let mut cells: Vec<(&str, ExpConfig)> = preexec::workloads::NAMES
        .iter()
        .map(|&n| (n, cfg))
        .collect();
    cells.extend([
        ("gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s7", cfg),
        ("gen:sl8_id1_bd0.5_mr0.5_mc0_fp65536_s7", cfg),
        ("mcf", ref_profiled),
    ]);
    let n = cells.len() as u64;
    let cold = Engine::new(2).with_store(store.clone());
    let computed: Vec<_> = cells.iter().map(|(n, c)| cold.prepared(n, c)).collect();
    assert_eq!(cold.metrics().critpath_store_misses(), n);
    assert_eq!(cold.metrics().frontend_store_misses(), 2 * n);
    assert_eq!(
        cold.metrics().stage_calls(Stage::Trace),
        n,
        "one trace per cold preparation"
    );

    let warm = Engine::new(2).with_store(store);
    for ((name, c), fresh) in cells.iter().zip(&computed) {
        let served = warm.prepared(name, c);
        assert_eq!(
            critpath_bits(&served.costs, &served.cp_breakdown, served.cp_ipc),
            critpath_bits(&fresh.costs, &fresh.cp_breakdown, fresh.cp_ipc),
            "{name}: store-served critical-path output differs from the computed one"
        );
        // Every profile and slice-node field is an integer, so equality
        // is bit identity.
        assert_eq!(
            served.profile, fresh.profile,
            "{name}: store-served profile differs from the computed one"
        );
        assert_eq!(
            served.trees, fresh.trees,
            "{name}: store-served slice trees differ from the computed ones"
        );
    }
    let m = warm.metrics();
    assert_eq!(m.critpath_store_hits(), n);
    assert_eq!(m.critpath_store_misses(), 0);
    assert_eq!(
        (m.frontend_store_hits(), m.frontend_store_misses()),
        (2 * n, 0)
    );
    assert_eq!(m.stage_calls(Stage::Critpath), 0, "no model ran warm");
    assert_eq!(m.stage_calls(Stage::Trace), 0, "no trace ran warm");
}

/// Rewrites the value of every store entry under `dir` whose key starts
/// with `prefix` through `edit`, returning how many it rewrote.
fn edit_entries(
    dir: &std::path::Path,
    prefix: &str,
    edit: impl Fn(&preexec_json::Json) -> preexec_json::Json,
) -> usize {
    let mut edited = 0;
    for shard in std::fs::read_dir(dir.join("entries")).unwrap() {
        for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = entry.unwrap().path();
            let j = preexec_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let key = j.get("key").and_then(preexec_json::Json::as_str).unwrap();
            if !key.starts_with(prefix) {
                continue;
            }
            let rewritten = preexec_json::Json::object()
                .with("key", key)
                .with("value", edit(j.get("value").unwrap()));
            std::fs::write(&path, rewritten.to_string()).unwrap();
            edited += 1;
        }
    }
    edited
}

/// A rewrite of one stored value.
type Edit = Box<dyn Fn(&preexec_json::Json) -> preexec_json::Json>;

/// `j` with `f` applied to its array items (all of them when `at` is
/// `None`, else the one at that index).
fn map_items(
    j: &preexec_json::Json,
    at: Option<usize>,
    f: impl Fn(&preexec_json::Json) -> preexec_json::Json,
) -> preexec_json::Json {
    let items = j.as_array().expect("an array");
    preexec_json::Json::Array(
        items
            .iter()
            .enumerate()
            .map(|(i, x)| {
                if at.is_none_or(|a| a == i) {
                    f(x)
                } else {
                    x.clone()
                }
            })
            .collect(),
    )
}

#[test]
fn corrupt_profile_and_slice_entries_recompute_and_overwrite_themselves() {
    use preexec_json::Json;
    let dir = tmpdir("corrupt-frontend");
    let store = std::sync::Arc::new(Store::open(dir.join("store")).unwrap());
    let cfg = ExpConfig::default();
    let cold = Engine::new(1)
        .with_store(store.clone())
        .prepared("gap", &cfg);
    let len = cold.program.len() as u64;
    let profile = versioned(MODEL_VERSION, "profile|");
    let slices = versioned(MODEL_VERSION, "slices|");

    // Each edit leaves an entry that parses but must not decode: cut
    // short, or structurally bad for the binary it claims to describe.
    let with_field = |j: &Json, key: &str, value: Json| {
        let Json::Object(fields) = j else {
            panic!("an object")
        };
        Json::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
                .collect(),
        )
    };
    let first_tree = |node: usize, field: usize, value: u64| {
        move |j: &Json| {
            map_items(j, Some(0), |tree| {
                map_items(tree, Some(node), |row| {
                    map_items(row, Some(field), |_| Json::U64(value))
                })
            })
        }
    };
    let cases: Vec<(&str, &str, Edit)> = vec![
        (
            "profile without its L2-miss total",
            &profile,
            Box::new(|j: &Json| {
                let Json::Object(fields) = j else {
                    panic!("an object")
                };
                Json::Object(fields[..fields.len() - 1].to_vec())
            }),
        ),
        (
            "profile one PC short",
            &profile,
            Box::new(move |j: &Json| {
                let per_pc = j.get("per_pc").unwrap().as_array().unwrap();
                with_field(j, "per_pc", Json::Array(per_pc[1..].to_vec()))
            }),
        ),
        (
            "slice node cut to three fields",
            &slices,
            Box::new(|j: &Json| {
                map_items(j, Some(0), |tree| {
                    map_items(tree, Some(1), |row| {
                        Json::Array(row.as_array().unwrap()[..3].to_vec())
                    })
                })
            }),
        ),
        (
            "slice node its own parent",
            &slices,
            Box::new(first_tree(1, 0, 1)),
        ),
        (
            "slice node past the program",
            &slices,
            Box::new(first_tree(1, 1, len)),
        ),
    ];
    let mut corrupt = 0;
    for (what, prefix, edit) in cases {
        assert_eq!(edit_entries(&dir.join("store"), prefix, edit), 1, "{what}");

        // The bad entry is a corrupt miss: its stage runs again and the
        // output is the cold one.
        let warm = Engine::new(1).with_store(store.clone());
        let prep = warm.prepared("gap", &cfg);
        assert_eq!(prep.profile, cold.profile, "{what}: profile");
        assert_eq!(prep.trees, cold.trees, "{what}: slice trees");
        let m = warm.metrics();
        assert_eq!(
            (m.frontend_store_hits(), m.frontend_store_misses()),
            (1, 1),
            "{what}"
        );
        assert_eq!(m.stage_calls(Stage::Trace), 1, "{what}: traced again");
        let resliced = u64::from(prefix.starts_with(&slices));
        assert_eq!(m.stage_calls(Stage::Slice), resliced, "{what}");
        corrupt += 1;
        assert_eq!(store.counters().corrupt, corrupt, "{what}");

        // The recompute overwrote the entry: the next engine reads it.
        let healed = Engine::new(1).with_store(store.clone());
        let prep = healed.prepared("gap", &cfg);
        assert_eq!(prep.trees, cold.trees, "{what}: healed slice trees");
        let m = healed.metrics();
        assert_eq!(
            (m.frontend_store_hits(), m.frontend_store_misses()),
            (2, 0),
            "{what}: healed"
        );
        assert_eq!(m.stage_calls(Stage::Trace), 0, "{what}: healed");
    }
}

#[test]
fn truncated_critpath_entries_recompute_and_overwrite_themselves() {
    let dir = tmpdir("truncated-critpath");
    let store = std::sync::Arc::new(Store::open(dir.join("store")).unwrap());
    let cfg = ExpConfig::default();
    let opts = small_opts();
    let cold = campaign::run_sweep(&Engine::from_env().with_store(store.clone()), &cfg, &opts);

    // Cut the filed critical-path output short after its breakdown (no
    // `ipc`): an entry that still parses but no longer decodes whole.
    let cut = edit_entries(
        &dir.join("store"),
        &versioned(MODEL_VERSION, "critpath|"),
        |value| {
            preexec_json::Json::object()
                .with("costs", value.get("costs").unwrap().clone())
                .with("breakdown", value.get("breakdown").unwrap().clone())
        },
    );
    assert_eq!(cut, 1, "one critical-path output was filed");

    // The partial entry is a corrupt miss: the model runs again and the
    // output is the cold one.
    let warm = Engine::from_env().with_store(store.clone());
    let rerun = campaign::run_sweep(&warm, &cfg, &opts);
    assert_eq!(
        rerun.to_json().to_string(),
        cold.to_json().to_string(),
        "a truncated critical-path entry changed the bytes"
    );
    let m = warm.metrics();
    assert_eq!((m.critpath_store_hits(), m.critpath_store_misses()), (0, 1));
    assert_eq!(m.stage_calls(Stage::Critpath), 1, "the model ran again");
    assert_eq!(
        (m.store_hits(), m.store_misses()),
        (2, 0),
        "timing runs stay warm"
    );
    assert_eq!(store.counters().corrupt, 1);

    // The recompute overwrote the entry: the next engine reads it.
    let healed = Engine::from_env().with_store(store);
    let third = campaign::run_sweep(&healed, &cfg, &opts);
    let m = healed.metrics();
    assert_eq!((m.critpath_store_hits(), m.critpath_store_misses()), (1, 0));
    assert_eq!(m.stage_calls(Stage::Critpath), 0);
    assert_eq!(third.to_json().to_string(), cold.to_json().to_string());
}

#[test]
fn truncated_store_reports_recompute_to_the_cold_bytes() {
    let dir = tmpdir("truncated");
    let store = std::sync::Arc::new(Store::open(dir.join("store")).unwrap());
    let cfg = ExpConfig::default();
    let opts = small_opts();
    let cold = campaign::run_sweep(&Engine::from_env().with_store(store.clone()), &cfg, &opts);

    // Cut every filed timing report down to its cycle count: a partial
    // entry that still parses, with every other counter missing.
    let mut cut = 0u64;
    for shard in std::fs::read_dir(dir.join("store/entries")).unwrap() {
        for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = entry.unwrap().path();
            let mut j = preexec_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let Some(cycles) = j.get("value").and_then(|v| v.get("cycles")).cloned() else {
                continue;
            };
            if let preexec_json::Json::Object(fields) = &mut j {
                fields.retain(|(k, _)| k != "value");
                fields.push((
                    "value".into(),
                    preexec_json::Json::object().with("cycles", cycles),
                ));
            }
            std::fs::write(&path, j.to_string()).unwrap();
            cut += 1;
        }
    }
    assert!(cut >= 2, "a baseline and an optimized run were filed");

    // Each partial entry is a miss that recomputes, not a hit that
    // reads the missing counters as 0.
    let warm = Engine::from_env().with_store(store.clone());
    let rerun = campaign::run_sweep(&warm, &cfg, &opts);
    assert_eq!(
        rerun.to_json().to_string(),
        cold.to_json().to_string(),
        "a truncated store entry changed the bytes"
    );
    assert_eq!(warm.metrics().store_misses(), cut);
    assert_eq!(warm.metrics().store_hits(), 0);
    assert_eq!(store.counters().corrupt, cut);

    // The recompute overwrote every entry: the next engine is fully warm.
    let healed = Engine::from_env().with_store(store);
    let third = campaign::run_sweep(&healed, &cfg, &opts);
    assert_eq!(healed.metrics().store_misses(), 0);
    assert_eq!(third.to_json().to_string(), cold.to_json().to_string());
}

#[test]
fn model_version_prefixes_every_persisted_key() {
    // The store itself is version-oblivious; versioning lives in the
    // engine's keys. Saving under the current version and probing under
    // a bumped one must miss (and vice versa), so stale caches can never
    // serve a new model.
    let dir = tmpdir("mv");
    let store = Store::open(dir.join("store")).unwrap();
    let key = versioned(MODEL_VERSION, "sim|gap|whatever");
    store.save(&key, &preexec_json::Json::U64(7));
    assert!(store.load(&key).is_some());
    let bumped = versioned(MODEL_VERSION + 1, "sim|gap|whatever");
    assert!(store.load(&bumped).is_none());
    assert_ne!(content_hash(&key), content_hash(&bumped));
}

#[test]
fn pareto_of_a_merged_sweep_matches_the_full_run() {
    let engine = Engine::from_env();
    let cfg = ExpConfig::default();
    let mut opts = small_opts();
    let full = campaign::run_sweep(&engine, &cfg, &opts);
    let report = campaign::pareto(&full, 0.005).unwrap();
    assert_eq!(report.groups.len(), 1);
    let agg = &report.groups[0].aggregate;
    assert_eq!(agg.targets.len(), 4, "L, P2, P, E all anchored");
    assert!(agg.points.len() >= 5);

    opts.shard = (1, 2);
    let odd = campaign::run_sweep(&engine, &cfg, &opts);
    opts.shard = (0, 2);
    let even = campaign::run_sweep(&engine, &cfg, &opts);
    let merged = campaign::merge_sweeps(&[odd, even]).unwrap();
    let report2 = campaign::pareto(&merged, 0.005).unwrap();
    assert_eq!(
        report2.to_json().to_string(),
        report.to_json().to_string(),
        "pareto over merged shards drifted"
    );
}

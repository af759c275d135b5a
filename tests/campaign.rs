//! Integration tests for the campaign subsystem: Pareto-frontier
//! properties, shard-merge order independence, kill/resume byte
//! identity, persistent-store warm starts, and recovery from truncated
//! store entries.
//!
//! The engine-backed tests all sweep one small benchmark with a coarse
//! W grid so the whole file stays fast; the properties they check are
//! grid-size independent.

use preexec::campaign::{content_hash, dominates, frontier, frontier_excess, Store};
use preexec::harness::{campaign, versioned, Engine, ExpConfig, MODEL_VERSION};
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

    // A fresh engine (empty in-memory memo) over the same store: every
    // timing run replays from disk — a 100% (≥90%) hit rate.
    let warm = Engine::from_env().with_store(store);
    let second = campaign::run_sweep(&warm, &cfg, &opts);
    assert_eq!(
        warm.metrics().store_misses(),
        0,
        "warm run missed the store"
    );
    assert!(warm.metrics().store_hits() > 0);
    assert_eq!(
        second.to_json().to_string(),
        first.to_json().to_string(),
        "store-served sweep changed the bytes"
    );
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

//! `repro atlas --store`: a cold run fills the store and a warm rerun
//! replays it byte-identically without a store miss. Admission's checked
//! `default` run is each scenario's baseline, so the cold run simulates
//! no baseline, yet the store still holds one for every admitted program.

use preexec_campaign::Store;
use preexec_gen::{build_scenario, GenSpec};
use preexec_harness::{program_fingerprint, ExpConfig, PreparedBase, Stage};
use preexec_json::Json;
use std::process::Command;

const ATLAS: &[&str] = &[
    "--json",
    "--metrics",
    "atlas",
    "--seed",
    "7",
    "--set",
    "miss_rate=0,0.5",
    "--set",
    "footprint=65536",
];

/// Runs the small atlas with `--store store`, returning the result line
/// and the metrics object of the last line.
fn atlas(store: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(ATLAS)
        .args(["--store", store])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "repro atlas failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let metrics =
        preexec_json::parse(lines.last().expect("a metrics line")).expect("metrics line parses");
    (
        lines[0].to_string(),
        metrics.get("metrics").expect("metrics").clone(),
    )
}

/// The number at `path` in a metrics object.
fn number(metrics: &Json, path: &[&str]) -> Option<u64> {
    path.iter()
        .try_fold(metrics, |j, key| j.get(key))
        .and_then(Json::as_u64)
}

#[test]
fn warm_atlas_replays_the_store_and_the_store_holds_every_baseline() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("atlas-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_string_lossy().into_owned();

    let (cold, cold_metrics) = atlas(&store);
    assert_eq!(
        number(
            &cold_metrics,
            &["stages", Stage::BaselineSim.name(), "calls"]
        ),
        Some(0),
        "admission's runs are the baselines"
    );
    assert!(cold.contains("\"admitted\":2"), "{cold}");

    let (warm, warm_metrics) = atlas(&store);
    assert_eq!(warm, cold, "a warm rerun is byte-identical");
    assert_eq!(number(&warm_metrics, &["cache", "store_misses"]), Some(0));
    assert_eq!(
        number(&warm_metrics, &["cache", "critpath_store_misses"]),
        Some(0)
    );
    assert_eq!(
        number(&warm_metrics, &["cache", "frontend_store_misses"]),
        Some(0)
    );
    for stage in [Stage::Trace, Stage::Profile, Stage::Slice, Stage::Critpath] {
        assert_eq!(
            number(&warm_metrics, &["stages", stage.name(), "calls"]),
            Some(0),
            "the warm atlas reads its {} output from the store",
            stage.name()
        );
    }

    let spec = GenSpec {
        seed: 7,
        miss_rate: vec![0.0, 0.5],
        footprint: vec![65_536],
        ..GenSpec::default()
    };
    let sim = ExpConfig::default().sim;
    let store = Store::open(&dir).unwrap();
    for scenario in spec.scenarios().unwrap() {
        let program = build_scenario(&scenario).unwrap();
        let key = PreparedBase::baseline_key_for(&program_fingerprint(&program), &sim);
        assert!(store.load(&key).is_some(), "no stored baseline under {key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

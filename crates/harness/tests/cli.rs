//! Exit-code contract of the `repro` binary: a malformed or foreign flag
//! on any subcommand, or an unknown subcommand, is a usage error (exit 2)
//! caught before any work starts; an unreadable or foreign capture, or
//! an unusable journal path, is a failure (exit 1); and cheap
//! well-formed invocations succeed (exit 0).

use std::path::PathBuf;
use std::process::Command;

fn repro(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    out.status.code().expect("repro exited normally")
}

fn scratch_file(name: &str, contents: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("write scratch file");
    path.to_string_lossy().into_owned()
}

#[test]
fn malformed_and_foreign_flags_are_usage_errors() {
    // 2^32 + 4 must not wrap to a 4-instruction slice.
    let oversized = scratch_file(
        "cli-oversized-knob.json",
        r#"{"slice_len":4294967300,"footprint":4096}"#,
    );
    let cases: &[&[&str]] = &[
        &[],
        &["fig99"],
        &["--store"],
        &["sweep", "--points", "x"],
        &["sweep", "--bench", "quake"],
        &["sweep", "--mem-latency", "-1"],
        &["sweep", "--idle-factor", "lots"],
        &["sweep", "--idle-factor", "-1"],
        &["sweep", "--shard", "2/2"],
        &["sweep", "--journal"],
        &["sweep", "--seed", "7"],
        &["pareto", "--tol", "x"],
        &["pareto", "--stride", "5"],
        &["gen", "--seed", "zz"],
        &["gen", "--set", "miss_rate"],
        &["gen", "--points", "5"],
        &["gen", "--spec", &oversized],
        &["atlas", "--bench", "gap"],
        &["atlas", "--points", "x"],
        &["atlas", "--idle-factor", "x"],
        &["atlas", "--idle-factor", "2"],
        &["atlas", "--shard", "0/0"],
        &["atlas", "--tol", "0.1"],
        &["adapt", "--stride", "0"],
        &["adapt", "--stride", "x"],
        &["adapt", "--bench", "quake"],
        &["adapt", "--objective", "max-fun"],
        &["adapt", "--window", "x"],
        &["adapt", "--seed", "zz"],
        &["adapt", "--shard", "0/2"],
        &["adapt", "--check", "/nonexistent/adapt.json"],
        &["verify", "--cases", "x"],
        &["verify", "--points", "5"],
        &["lint", "--file"],
        &["lint", "--bench", "gap"],
        &["serve", "--workers", "x"],
        &["serve", "--deadline-ms", "soon"],
        &["serve", "--points", "5"],
        &["serve", "--queue", "x"],
        &["loadgen", "--requests", "x"],
        &["loadgen", "--conns", "x"],
        &["loadgen", "--endpoint", "nope"],
        &["loadgen", "--body-file", "/nonexistent/body.json"],
    ];
    for argv in cases {
        assert_eq!(repro(argv), 2, "repro {argv:?} must be a usage error");
    }
}

#[test]
fn unreadable_or_foreign_captures_are_failures() {
    let garbage = scratch_file("cli-garbage.json", "{\"neither\":1}\n");
    // A directory is no journal: a clean failure naming the path, not a
    // panic.
    let dir = env!("CARGO_TARGET_TMPDIR");
    let cases: &[&[&str]] = &[
        &["sweep", "--bench", "gap", "--points", "2", "--journal", dir],
        &[
            "atlas",
            "--seed",
            "7",
            "--set",
            "footprint=65536",
            "--journal",
            dir,
        ],
        &["sweep", "--merge", "/nonexistent/sweep.json"],
        &["sweep", "--merge", &garbage],
        &["pareto", "--from", &garbage],
        &["atlas", "--merge", "/nonexistent/atlas.json"],
        &["atlas", "--merge", &garbage],
        &["adapt", "--check", &garbage],
    ];
    for argv in cases {
        assert_eq!(repro(argv), 1, "repro {argv:?} must fail");
    }
    for argv in &cases[..2] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*argv)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(dir),
            "repro {argv:?} must name {dir}: {stderr}"
        );
    }
}

#[test]
fn cheap_well_formed_runs_succeed() {
    let report = scratch_file(
        "cli-adapt-report.json",
        r#"{"objective":"min-ed","epsilon":0.01,"points":5,"stride":1000,"within":1,"benches":[{"bench":"gap","segmentation":{},"decisions":[{}],"final_regret":0.0,"within":true}]}"#,
    );
    let cases: &[&[&str]] = &[
        &["gen", "--seed", "7", "--set", "footprint=65536"],
        &["--json", "gen", "--seed", "0x7", "--set", "miss_rate=0,0.5"],
        &["adapt", "--check", &report],
    ];
    for argv in cases {
        assert_eq!(repro(argv), 0, "repro {argv:?} must succeed");
    }
}

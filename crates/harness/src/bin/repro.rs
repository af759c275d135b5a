//! `repro` — regenerates any table or figure of the paper.
//!
//! Usage: `repro [--json] [--metrics] [--progress] <experiment>...` where
//! experiment is one of `fig2 fig3 fig4 fig5a fig5b fig5c tab12 tab3 ed2
//! branch cfg combined all`.
//!
//! `repro verify [--cases N] [--seed S]` instead runs the differential
//! verification pass (see `preexec_harness::verify`): every workload
//! kernel plus `N` fuzzed programs (default 500) through the functional
//! oracle and the pipeline, with and without p-thread injection. Exits 1
//! on any mismatch, printing the failing case's replayable seed. Build
//! with `--features sanitize` for per-cycle invariant checks too.
//!
//! `repro lint` runs the static analyzer (see `preexec_harness::lint`)
//! over every kernel, every slicer candidate body, and the selected
//! p-thread sets — no simulation involved. With `--file PATH` it lints
//! external kernel files instead. Exits 0 when clean, 1 on any finding,
//! 2 on a bad invocation or an unreadable/unparsable file.
//!
//! `repro gen` expands a knob-grid spec (see `preexec_gen`) into
//! generated scenarios: `--lint` runs each through the admission gate
//! (lint + oracle differential), `--emit` prints a single scenario's
//! program text. `repro atlas` runs the full knob-space campaign over
//! the generated scenarios (shardable/journaled/mergeable exactly like
//! `repro sweep`) and classifies each scenario group's E-vs-L winner.
//!
//! `repro adapt` runs the online adaptive W controller (see
//! `preexec_harness::adapt`): phase detection over the sim's interval
//! counters, a successive-halving W search at each phase boundary, and
//! a regret report against the offline Pareto frontier. `--grid`
//! appends a fixed-seed 5×5 generated-scenario grid; `--check FILE`
//! validates a captured report instead of running anything.
//!
//! `repro sweep` runs a W-continuum campaign (see
//! `preexec_harness::campaign`): a grid of weighted selection targets ×
//! machines × energy models, journaled for kill/resume (`--journal`),
//! shardable across processes (`--shard i/n`, reassembled with
//! `--merge`). `repro pareto` adds the (time, energy) frontier analysis
//! and checks the paper's four fixed targets against it (exit 1 when one
//! is off the aggregate frontier beyond `--tol`). The global `--store
//! DIR` flag attaches a persistent content-addressed result store so
//! baseline and optimized timing runs replay from disk across processes
//! (hit/miss counters appear in `--metrics`).
//!
//! Experiments run on the parallel caching [`Engine`]; set `REPRO_THREADS`
//! to override the worker count (1 = serial; results are identical either
//! way). With `--json`, results are emitted as machine-readable JSON (one
//! object per experiment) instead of text tables. With `--metrics`, a
//! final JSON line reports per-stage wall-clock, pipeline counters, and
//! cache hit/miss statistics. With `--progress`, the engine narrates
//! pipeline builds and evaluations on stderr.

use preexec_harness::{
    adapt, atlas, campaign, check_bench, coordinate, experiments, lint, service, verify, Engine,
    ExpConfig,
};
use preexec_json::dto::check_unit;
use preexec_json::{jobj, Json, ToJson};
use preexec_server::loadgen;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--json] [--metrics] [--progress] [--store DIR] \
         <fig2|fig3|fig4|fig5a|fig5b|fig5c|tab12|tab3|ed2|branch|cfg|combined|all>\n\
         \x20      repro sweep [common flags] [--points N] [--bench B]... [--mem-latency N]... \
         [--idle-factor F]... [--journal FILE] [--shard I/N] | [--merge FILE]...\n\
         \x20      repro pareto [sweep flags] [--tol F] | [--from FILE]...\n\
         \x20      repro coordinate [--addr HOST:PORT] [--lease-ms N] [--batch N] \
         [--points N] [--bench B]... [--mem-latency N]... [--idle-factor F]...\n\
         \x20      repro work [--addr HOST:PORT] [--poll-ms N] [--journal FILE] [--name S]\n\
         \x20      repro gen [--spec FILE] [--seed N] [--set knob=v1,v2,...]... [--lint | --emit]\n\
         \x20      repro atlas [gen flags] [--points N] [--mem-latency N]... [--idle-factor F]... \
         [--journal FILE] [--shard I/N] | [--merge FILE]...\n\
         \x20      repro adapt [common flags] [--bench B]... [--grid] \
         [--objective min-e|min-ed|min-ed2] [--slowdown PCT] [--points N] [--stride N] \
         [--epsilon F] [--window N] [--threshold F] [--min-phase N] [--seed S] | [--check FILE]\n\
         \x20      repro verify [--json] [--cases N] [--seed S]\n\
         \x20      repro lint [--json] [--file PATH]...\n\
         \x20      repro serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--deadline-ms N] [--store DIR] [--progress]\n\
         \x20      repro loadgen [--json] [--addr HOST:PORT] [--conns N] [--requests M] \
         [--endpoint healthz|metrics|select|sim|tab12|fig2|fig5a|campaigns|atlas|adapt|shutdown]... \
         [--body-file PATH]"
    );
    std::process::exit(2);
}

/// Prints `msg` on stderr and exits with `code`: 2 for a usage error,
/// 1 for a failure.
fn die(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

/// Prints a result as one JSON line (`--json`) or as its text form.
fn emit<T: ToJson + Display>(json: bool, value: &T) {
    if json {
        println!("{}", value.to_json());
    } else {
        print!("{value}");
    }
}

/// Reads one subcommand's flags. A missing or malformed flag value is a
/// usage error, like an unknown flag.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags(args.iter())
    }

    /// The current flag's value, converted by `parse`.
    fn with<T>(&mut self, parse: impl FnOnce(&str) -> Option<T>) -> T {
        self.0
            .next()
            .and_then(|v| parse(v))
            .unwrap_or_else(|| usage())
    }

    /// The current flag's value, parsed as `T`.
    fn value<T: std::str::FromStr>(&mut self) -> T {
        self.with(|v| v.parse().ok())
    }

    /// The current flag's value as a seed, decimal or `0x`-prefixed hex.
    fn seed(&mut self) -> u64 {
        self.with(
            |s| match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            },
        )
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// Builds the engine, attaching the persistent store when `--store` was
/// given.
fn engine_with_store(progress: bool, store: &Option<String>) -> Engine {
    let mut engine = Engine::from_env().with_progress(progress);
    if let Some(dir) = store {
        match preexec_campaign::Store::open(dir) {
            Ok(s) => engine = engine.with_store(std::sync::Arc::new(s)),
            Err(e) => die(1, format!("repro: cannot open store {dir}: {e}")),
        }
    }
    engine
}

/// The trailing `--metrics` line (shared by experiments and campaigns).
fn emit_metrics(engine: &Engine, start: Instant) {
    println!(
        "{}",
        jobj! {
            "metrics" => engine.metrics().to_json(),
            "threads" => engine.threads(),
            "total_wall_ms" => start.elapsed().as_secs_f64() * 1e3
        }
    );
}

/// The grid flags `repro sweep` and `repro pareto` accept.
const SWEEP_FLAGS: &[&str] = &[
    "--points",
    "--bench",
    "--mem-latency",
    "--idle-factor",
    "--journal",
    "--shard",
    "--merge",
    "--from",
    "--tol",
];
/// The grid flags `repro coordinate` accepts: the sweep's, less merging.
const COORDINATE_FLAGS: &[&str] = &[
    "--points",
    "--bench",
    "--mem-latency",
    "--idle-factor",
    "--journal",
    "--shard",
    "--tol",
];
/// The grid flags `repro atlas` accepts after the gen-spec flags.
const ATLAS_FLAGS: &[&str] = &[
    "--points",
    "--mem-latency",
    "--idle-factor",
    "--journal",
    "--shard",
    "--merge",
];

/// The grid flags of `sweep`, `pareto`, `coordinate` and `atlas`, read
/// by one loop before they are applied to an options struct.
#[derive(Default)]
struct GridFlags {
    points: Option<usize>,
    benches: Vec<String>,
    mem_latencies: Vec<u64>,
    idle_factors: Vec<f64>,
    journal: Option<PathBuf>,
    shard: Option<(usize, usize)>,
    /// Files named by `--merge` / `--from`: previously captured results
    /// to merge instead of computing.
    inputs: Vec<String>,
    tol: Option<f64>,
}

impl GridFlags {
    /// Reads `args`, every one of which must be a flag in `accepted`.
    fn parse(args: &[String], accepted: &[&str]) -> GridFlags {
        let mut grid = GridFlags::default();
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next() {
            if !grid.take(flag, &mut flags, accepted) {
                usage();
            }
        }
        grid
    }

    /// Applies `flag` when it is one of `accepted`; false otherwise.
    fn take(&mut self, flag: &str, flags: &mut Flags, accepted: &[&str]) -> bool {
        if !accepted.contains(&flag) {
            return false;
        }
        match flag {
            "--points" => self.points = Some(flags.value()),
            "--bench" => {
                let bench: String = flags.value();
                check_bench(&bench).unwrap_or_else(|e| die(2, format!("repro: {e}")));
                self.benches.push(bench);
            }
            "--mem-latency" => self.mem_latencies.push(flags.value()),
            "--idle-factor" => {
                let factor: f64 = flags.value();
                check_unit("repro", "--idle-factor", factor).unwrap_or_else(|e| die(2, e));
                self.idle_factors.push(factor);
            }
            "--journal" => self.journal = Some(flags.value()),
            "--shard" => self.shard = Some(flags.with(preexec_campaign::parse_shard)),
            "--merge" | "--from" => self.inputs.push(flags.value()),
            "--tol" => self.tol = Some(flags.value()),
            _ => return false,
        }
        true
    }

    fn sweep_options(&self) -> campaign::SweepOptions {
        let d = campaign::SweepOptions::default();
        campaign::SweepOptions {
            benches: given_or(&self.benches, d.benches),
            points: self.points.unwrap_or(d.points),
            mem_latencies: given_or(&self.mem_latencies, d.mem_latencies),
            idle_factors: given_or(&self.idle_factors, d.idle_factors),
            journal: self.journal.clone(),
            shard: self.shard.unwrap_or(d.shard),
        }
    }

    fn atlas_options(&self, spec: preexec_gen::GenSpec) -> atlas::AtlasOptions {
        let d = atlas::AtlasOptions::default();
        atlas::AtlasOptions {
            spec,
            points: self.points.unwrap_or(d.points),
            mem_latencies: given_or(&self.mem_latencies, d.mem_latencies),
            idle_factors: given_or(&self.idle_factors, d.idle_factors),
            journal: self.journal.clone(),
            shard: self.shard.unwrap_or(d.shard),
        }
    }
}

/// A repeatable grid flag's values: the ones given on the command line,
/// which replace the default grid, or the default when none were.
fn given_or<T: Clone>(given: &[T], default: Vec<T>) -> Vec<T> {
    if given.is_empty() {
        default
    } else {
        given.to_vec()
    }
}

/// Reads a result captured with `repro --json <kind>` — its first line,
/// as a `--metrics` line may follow — and decodes it strictly. An
/// unreadable or foreign file is a failure.
fn load_capture<T>(path: &str, kind: &str, decode: fn(&Json) -> Result<T, String>) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(1, format!("repro: {path}: cannot read: {e}")));
    let line = text.lines().next().unwrap_or("");
    preexec_json::parse(line)
        .and_then(|j| decode(&j))
        .unwrap_or_else(|e| die(1, format!("repro: {path}: not {kind} capture: {e}")))
}

/// Merges `--merge`/`--from` captures, or runs the sweep on a fresh
/// engine. Returns the result plus the engine (when one was built) for
/// metrics.
fn sweep_or_merge(
    grid: &GridFlags,
    progress: bool,
    store: &Option<String>,
) -> (campaign::SweepResult, Option<Engine>) {
    if grid.inputs.is_empty() {
        let engine = engine_with_store(progress, store);
        let result = campaign::run_sweep(&engine, &ExpConfig::default(), &grid.sweep_options());
        return (result, Some(engine));
    }
    let parts: Vec<campaign::SweepResult> = grid
        .inputs
        .iter()
        .map(|p| load_capture(p, "a sweep", campaign::SweepResult::from_json))
        .collect();
    match campaign::merge_sweeps(&parts) {
        Ok(r) => (r, None),
        Err(e) => die(1, format!("repro: {e}")),
    }
}

/// `repro sweep`: run (a shard of) a W-continuum campaign, or merge
/// previously captured shard outputs.
fn run_sweep_cmd(
    json: bool,
    metrics: bool,
    progress: bool,
    store: &Option<String>,
    rest: &[String],
) -> ! {
    let grid = GridFlags::parse(rest, SWEEP_FLAGS);
    let start = Instant::now();
    let (result, engine) = sweep_or_merge(&grid, progress, store);
    emit(json, &result);
    if let (true, Some(engine)) = (metrics, engine.as_ref()) {
        emit_metrics(engine, start);
    }
    std::process::exit(0);
}

/// `repro pareto`: sweep (or load with `--from`) and run the frontier
/// analysis with the paper-target checks. Exits 1 when a target is off
/// the aggregate frontier.
fn run_pareto_cmd(
    json: bool,
    metrics: bool,
    progress: bool,
    store: &Option<String>,
    rest: &[String],
) -> ! {
    let grid = GridFlags::parse(rest, SWEEP_FLAGS);
    let start = Instant::now();
    let (sweep, engine) = sweep_or_merge(&grid, progress, store);
    let report = campaign::pareto(&sweep, grid.tol.unwrap_or(0.005))
        .unwrap_or_else(|e| die(1, format!("repro pareto: {e}")));
    emit(json, &report);
    if let (true, Some(engine)) = (metrics, engine.as_ref()) {
        emit_metrics(engine, start);
    }
    std::process::exit(if report.ok { 0 } else { 1 });
}

/// Layers the gen-spec flags (`--spec FILE`, `--seed N`,
/// `--set knob=v1,v2,...`) shared by `repro gen` and `repro atlas`:
/// defaults, then the spec file, then the command-line overrides.
/// Unrecognized flags are returned for the caller to parse.
fn parse_gen_spec(rest: &[String]) -> (preexec_gen::GenSpec, Vec<String>) {
    let fail = |what: String| -> ! { die(2, format!("repro: {what}")) };
    let mut spec = preexec_gen::GenSpec::default();
    let mut overrides: Vec<String> = Vec::new();
    let mut leftover: Vec<String> = Vec::new();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--spec" => {
                let path: String = flags.value();
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(format!("{path}: cannot read: {e}")));
                // JSON and TOML share one flag: a spec whose first
                // non-blank byte is `{` is JSON.
                spec = if text.trim_start().starts_with('{') {
                    preexec_json::parse(&text).and_then(|j| preexec_gen::GenSpec::from_json(&j))
                } else {
                    preexec_gen::GenSpec::from_toml(&text)
                }
                .unwrap_or_else(|e| fail(format!("{path}: {e}")));
            }
            "--seed" => overrides.push(format!("seed = {}", flags.seed())),
            "--set" => {
                let kv: String = flags.value();
                let Some((key, values)) = kv.split_once('=') else {
                    fail(format!("--set {kv:?}: expected knob=v1,v2,..."))
                };
                overrides.push(format!("{} = [{}]", key.trim(), values));
            }
            _ => leftover.push(flag.to_string()),
        }
    }
    // Overrides apply in command-line order, after the spec file.
    if let Err(e) = spec.apply_toml(&overrides.join("\n")) {
        fail(e);
    }
    (spec, leftover)
}

/// `repro gen`: expand a knob grid and report each generated scenario;
/// `--lint` runs the full admission gate (exit 1 on any failure),
/// `--emit` prints the single scenario's program text.
fn run_gen(json: bool, rest: &[String]) -> ! {
    let (spec, rest) = parse_gen_spec(rest);
    let (mut do_lint, mut do_emit) = (false, false);
    for arg in &rest {
        match arg.as_str() {
            "--lint" => do_lint = true,
            "--emit" => do_emit = true,
            _ => usage(),
        }
    }
    let scenarios = spec
        .scenarios()
        .unwrap_or_else(|e| die(2, format!("repro gen: {e}")));
    let build = |s: &preexec_gen::Scenario| -> preexec_isa::Program {
        preexec_gen::build_scenario(s)
            .unwrap_or_else(|e| die(1, format!("repro gen: {}: {e}", s.name())))
    };
    if do_emit {
        if scenarios.len() != 1 {
            die(
                2,
                format!(
                    "repro gen: --emit needs exactly one scenario (grid has {})",
                    scenarios.len()
                ),
            );
        }
        print!("{}", preexec_gen::emit_text(&build(&scenarios[0])));
        std::process::exit(0);
    }
    let mut failures = 0usize;
    let mut rows = Vec::new();
    for s in &scenarios {
        let program = build(s);
        let verdict = if do_lint {
            match preexec_gen::admit(&program) {
                Ok(()) => "admitted".to_string(),
                Err(e) => {
                    failures += 1;
                    format!("REJECTED: {e}")
                }
            }
        } else {
            "generated".to_string()
        };
        if json {
            rows.push(jobj! {
                "scenario" => s.name(),
                "insts" => program.insts().len() as u64,
                "image_words" => program.image().iter().count() as u64,
                "verdict" => verdict.clone()
            });
        } else {
            println!(
                "{}  {} insts, {} image words  [{verdict}]",
                s.name(),
                program.insts().len(),
                program.image().iter().count(),
            );
        }
    }
    if json {
        println!(
            "{}",
            jobj! {
                "gen_spec" => spec.to_json(),
                "scenarios" => Json::Array(rows),
                "failures" => failures as u64
            }
        );
    } else if do_lint {
        println!(
            "gen: {}/{} scenarios admitted",
            scenarios.len() - failures,
            scenarios.len(),
        );
    }
    std::process::exit(if failures > 0 { 1 } else { 0 });
}

/// `repro atlas`: run (a shard of) a knob-grid campaign over generated
/// scenarios, or merge previously captured shard outputs.
fn run_atlas_cmd(
    json: bool,
    metrics: bool,
    progress: bool,
    store: &Option<String>,
    rest: &[String],
) -> ! {
    let (spec, rest) = parse_gen_spec(rest);
    let grid = GridFlags::parse(&rest, ATLAS_FLAGS);
    let start = Instant::now();
    let (result, engine) = if grid.inputs.is_empty() {
        let engine = engine_with_store(progress, store);
        let opts = grid.atlas_options(spec);
        match atlas::run_atlas(&engine, &ExpConfig::default(), &opts) {
            Ok(r) => (r, Some(engine)),
            Err(e) => die(1, format!("repro atlas: {e}")),
        }
    } else {
        let parts: Vec<atlas::AtlasResult> = grid
            .inputs
            .iter()
            .map(|p| load_capture(p, "an atlas", atlas::AtlasResult::from_json))
            .collect();
        match atlas::merge_atlas(&parts) {
            Ok(r) => (r, None),
            Err(e) => die(1, format!("repro atlas: {e}")),
        }
    };
    emit(json, &result);
    if let (true, Some(engine)) = (metrics, engine.as_ref()) {
        emit_metrics(engine, start);
    }
    std::process::exit(0);
}

/// `repro verify`: the differential oracle/fuzz/sanitizer pass.
fn run_verify(json: bool, progress: bool, rest: &[String]) -> ! {
    let mut opts = verify::VerifyOptions::default();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--cases" => opts.cases = flags.value(),
            "--seed" => opts.seed = flags.seed(),
            _ => usage(),
        }
    }
    let engine = Engine::from_env().with_progress(progress);
    let summary = verify::run(&engine, &opts);
    emit(json, &summary);
    std::process::exit(if summary.ok() { 0 } else { 1 });
}

/// `repro lint`: the static analyzer over every shipped artifact, or —
/// with `--file` — over external kernel files. Exit codes: 0 clean,
/// 1 findings, 2 bad invocation / unreadable or unparsable file.
fn run_lint(json: bool, progress: bool, rest: &[String]) -> ! {
    let mut files: Vec<String> = Vec::new();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--file" => files.push(flags.value()),
            _ => usage(),
        }
    }
    let summary = if files.is_empty() {
        let engine = Engine::from_env().with_progress(progress);
        lint::run(&engine, &ExpConfig::default())
    } else {
        lint::lint_files(&files).unwrap_or_else(|e| die(2, format!("repro lint: {e}")))
    };
    emit(json, &summary);
    std::process::exit(if summary.ok() { 0 } else { 1 });
}

/// `repro serve`: boots the selection service and blocks until a client
/// posts `/v1/shutdown`.
fn run_serve(progress: bool, store: &Option<String>, rest: &[String]) -> ! {
    let mut opts = service::ServeOptions {
        progress,
        store: store.clone(),
        ..service::ServeOptions::default()
    };
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => opts.addr = flags.value(),
            "--workers" => opts.workers = flags.value(),
            "--queue" => opts.queue_cap = flags.value(),
            "--deadline-ms" => opts.deadline_ms = flags.value(),
            "--store" => opts.store = Some(flags.value()),
            _ => usage(),
        }
    }
    let handle = service::serve(&opts, None)
        .unwrap_or_else(|e| die(1, format!("repro serve: cannot bind {}: {e}", opts.addr)));
    println!("{}", jobj! { "serving" => format!("{}", handle.addr()) });
    handle.join();
    std::process::exit(0);
}

/// `repro coordinate`: partition a W-continuum sweep into leased cells
/// and serve them to `repro work` processes; exits with the merged
/// sweep on stdout (byte-identical to a single-process `repro sweep`).
/// The serving banner goes to stderr so stdout stays a pure capture.
fn run_coordinate(
    json: bool,
    metrics: bool,
    progress: bool,
    store: &Option<String>,
    rest: &[String],
) -> ! {
    let mut opts = coordinate::CoordinateOptions {
        progress,
        store: store.clone(),
        ..coordinate::CoordinateOptions::default()
    };
    // The coordinator's own flags, then the grid vocabulary of
    // `repro sweep`.
    let mut grid = GridFlags::default();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => opts.addr = flags.value(),
            "--lease-ms" => opts.lease_ms = flags.value(),
            "--batch" => opts.batch = flags.value(),
            "--workers" => opts.workers = flags.value(),
            _ if grid.take(flag, &mut flags, COORDINATE_FLAGS) => {}
            _ => usage(),
        }
    }
    opts.opts = grid.sweep_options();
    let start = Instant::now();
    let handle = coordinate::coordinate(&opts).unwrap_or_else(|e| {
        die(
            1,
            format!("repro coordinate: cannot bind {}: {e}", opts.addr),
        )
    });
    eprintln!(
        "{}",
        jobj! {
            "coordinating" => format!("{}", handle.addr()),
            "cells" => campaign::cell_count(&opts.opts) as u64
        }
    );
    let result = handle.wait();
    handle.shutdown();
    emit(json, &result);
    if metrics {
        println!(
            "{}",
            jobj! { "total_wall_ms" => start.elapsed().as_secs_f64() * 1e3 }
        );
    }
    std::process::exit(0);
}

/// `repro work`: compute leased cells for a running `repro coordinate`
/// until the sweep completes, then print a work summary.
fn run_work(json: bool, store: &Option<String>, rest: &[String]) -> ! {
    let mut opts = coordinate::WorkOptions {
        store: store.clone(),
        ..coordinate::WorkOptions::default()
    };
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" | "--coordinator" => opts.coordinator = flags.value(),
            "--poll-ms" => opts.poll_ms = flags.value(),
            "--journal" => opts.journal = Some(flags.value()),
            "--name" => opts.name = Some(flags.value()),
            _ => usage(),
        }
    }
    let summary = coordinate::work(&opts).unwrap_or_else(|e| die(1, format!("repro work: {e}")));
    if json {
        println!("{}", summary.to_json());
    } else {
        println!(
            "worker {}: {} leases, {} computed, {} replayed, {} duplicates",
            summary.worker, summary.leases, summary.computed, summary.replayed, summary.duplicates
        );
    }
    std::process::exit(0);
}

/// `repro loadgen`: closed-loop load against a running `repro serve`.
/// `--endpoint` may repeat: each named endpoint is exercised in turn
/// and reported separately (with per-endpoint p50/p95/p99).
fn run_loadgen(json: bool, rest: &[String]) -> ! {
    let mut cfg = loadgen::LoadgenConfig::default();
    let mut endpoints: Vec<(String, &'static str, String, String)> = Vec::new();
    let mut body_override: Option<String> = None;
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => cfg.addr = flags.value(),
            "--conns" => cfg.conns = flags.value(),
            "--requests" => cfg.requests = flags.value(),
            "--endpoint" => endpoints.push(flags.with(|name| {
                let (method, path, body) = service::endpoint(name)?;
                Some((name.to_string(), method, path, body))
            })),
            "--body-file" => {
                let path: String = flags.value();
                body_override = Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    die(2, format!("repro: cannot read body file {path}: {e}"))
                }));
            }
            _ => usage(),
        }
    }
    // `--body-file` replaces the canned body of every selected endpoint
    // (POST endpoints like /v1/adapt and /v1/atlas accept arbitrary
    // strict-DTO bodies this way).
    if let Some(b) = body_override {
        cfg.body = b.clone();
        for (_, _, _, body) in &mut endpoints {
            *body = b.clone();
        }
    }
    // A single endpoint (or none: the default GET /healthz) keeps the
    // original single-report output shape.
    if endpoints.len() <= 1 {
        if let Some((_, method, path, body)) = endpoints.into_iter().next() {
            cfg.method = method.to_string();
            cfg.path = path;
            cfg.body = body;
        }
        let report = loadgen::run(&cfg);
        emit(json, &report);
        std::process::exit(if report.clean() { 0 } else { 1 });
    }
    let mut all_clean = true;
    for (name, method, path, body) in endpoints {
        let mut ecfg = cfg.clone();
        ecfg.method = method.to_string();
        ecfg.path = path;
        ecfg.body = body;
        let report = loadgen::run(&ecfg);
        all_clean &= report.clean();
        if json {
            println!(
                "{}",
                jobj! { "endpoint" => name, "report" => report.to_json() }
            );
        } else {
            println!("== {name} ==");
            print!("{report}");
        }
    }
    std::process::exit(if all_clean { 0 } else { 1 });
}

/// The fixed-seed 5×5 generated-scenario grid `repro adapt --grid`
/// appends: miss_rate × slice_len at seed 7, every other knob default.
fn adapt_grid_scenarios() -> Vec<String> {
    let mut names = Vec::new();
    for &mr in &[0.05, 0.15, 0.25, 0.35, 0.45] {
        for &sl in &[2u32, 3, 4, 6, 8] {
            let scenario = preexec_gen::Scenario {
                knobs: preexec_gen::KnobPoint {
                    slice_len: sl,
                    miss_rate: mr,
                    ..preexec_gen::KnobPoint::default()
                },
                seed: 7,
            };
            names.push(scenario.name());
        }
    }
    names
}

fn run_adapt_cmd(
    json: bool,
    metrics: bool,
    progress: bool,
    store: &Option<String>,
    rest: &[String],
) -> ! {
    let mut opts = adapt::AdaptOptions::default();
    let mut objective_name = "min-ed".to_string();
    let mut slowdown = 5.0;
    let mut grid = false;
    let mut benches: Vec<String> = Vec::new();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--check" => {
                let path: String = flags.value();
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| die(2, format!("repro: cannot read {path}: {e}")));
                match adapt::check_report(&text) {
                    Ok(summary) => {
                        println!("{summary}");
                        std::process::exit(0);
                    }
                    Err(e) => die(1, format!("repro: {e}")),
                }
            }
            "--bench" => {
                let bench: String = flags.value();
                check_bench(&bench).unwrap_or_else(|e| die(2, format!("repro: {e}")));
                benches.push(bench);
            }
            "--grid" => grid = true,
            "--objective" => objective_name = flags.value(),
            "--slowdown" => slowdown = flags.value(),
            "--points" => opts.points = flags.value(),
            "--stride" => opts.stride = flags.with(|v| v.parse().ok().filter(|&n: &u64| n > 0)),
            "--epsilon" => opts.epsilon = flags.value(),
            "--window" => opts.phase.window = flags.value(),
            "--threshold" => opts.phase.threshold = flags.value(),
            "--min-phase" => opts.phase.min_phase = flags.value(),
            "--seed" => opts.phase.seed = flags.seed(),
            _ => usage(),
        }
    }
    opts.objective = preexec_controller::Objective::parse(&objective_name, slowdown)
        .unwrap_or_else(|| {
            die(
                2,
                format!("repro: unknown objective {objective_name:?} (min-e|min-ed|min-ed2)"),
            )
        });
    opts.benches = given_or(&benches, opts.benches);
    if grid {
        opts.benches.extend(adapt_grid_scenarios());
    }
    let engine = engine_with_store(progress, store);
    let cfg = ExpConfig::default();
    let start = Instant::now();
    let report = adapt::run_adapt(&engine, &cfg, &opts);
    if json {
        println!(
            "{}",
            jobj! { "experiment" => "adapt", "data" => report.to_json() }
        );
    } else {
        print!("{report}");
    }
    if metrics {
        emit_metrics(&engine, start);
    }
    std::process::exit(0);
}

fn run_one(engine: &Engine, id: &str, cfg: &ExpConfig, json: bool) {
    macro_rules! emit {
        ($value:expr) => {{
            let v = $value;
            if json {
                println!("{}", jobj! { "experiment" => id, "data" => v.to_json() });
            } else {
                print!("{v}");
            }
        }};
    }
    match id {
        "fig2" => emit!(experiments::fig2::run(engine, cfg)),
        "fig3" => emit!(experiments::fig3::run(engine, cfg)),
        "fig4" => emit!(experiments::fig4::run(engine, cfg)),
        "fig5a" => emit!(experiments::fig5::idle_factor_sweep(engine, cfg)),
        "fig5b" => emit!(experiments::fig5::mem_latency_sweep(engine, cfg)),
        "fig5c" => emit!(experiments::fig5::l2_sweep(engine, cfg)),
        "tab12" => emit!(experiments::tab12::run(cfg)),
        "tab3" => emit!(experiments::tab3::run(engine, cfg)),
        "ed2" => emit!(experiments::ed2::run(engine, cfg)),
        "branch" => emit!(experiments::branch::run(engine, cfg)),
        "cfg" => emit!(experiments::cfgsweep::run(engine, cfg)),
        "combined" => emit!(experiments::branch::run_combined_all(engine, cfg)),
        _ => usage(),
    }
}

fn main() {
    let (mut json, mut metrics, mut progress) = (false, false, false);
    let mut store: Option<String> = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The global flags may appear anywhere; everything else is the
    // subcommand (or experiment list) and its own flags.
    let mut args: Vec<String> = Vec::new();
    let mut flags = Flags::new(&raw);
    while let Some(arg) = flags.next() {
        match arg {
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--progress" => progress = true,
            "--store" => store = Some(flags.value()),
            _ => args.push(arg.to_string()),
        }
    }
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    match command.as_str() {
        "sweep" => run_sweep_cmd(json, metrics, progress, &store, rest),
        "pareto" => run_pareto_cmd(json, metrics, progress, &store, rest),
        "gen" => run_gen(json, rest),
        "atlas" => run_atlas_cmd(json, metrics, progress, &store, rest),
        "adapt" => run_adapt_cmd(json, metrics, progress, &store, rest),
        "verify" => run_verify(json, progress, rest),
        "lint" => run_lint(json, progress, rest),
        "serve" => run_serve(progress, &store, rest),
        "coordinate" => run_coordinate(json, metrics, progress, &store, rest),
        "work" => run_work(json, &store, rest),
        "loadgen" => run_loadgen(json, rest),
        _ => {}
    }
    let engine = engine_with_store(progress, &store);
    let cfg = ExpConfig::default();
    let start = Instant::now();
    for id in &args {
        if id == "all" {
            for x in [
                "tab12", "fig2", "fig3", "tab3", "fig4", "fig5a", "fig5b", "fig5c", "ed2",
                "branch", "cfg", "combined",
            ] {
                if !json {
                    println!("==== {x} ====");
                }
                run_one(&engine, x, &cfg, json);
                if !json {
                    println!();
                }
            }
        } else {
            run_one(&engine, id, &cfg, json);
        }
    }
    if metrics {
        emit_metrics(&engine, start);
    }
}

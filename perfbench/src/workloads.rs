//! The six workloads. Each one drives the system through its public
//! entry points only, times what a caller waits for, and keeps the
//! output bytes of every op so the runner can check them.
//!
//! | workload | one repetition | load |
//! |---|---|---|
//! | `select-cold` | a cold select of each of the 9 kernels + 1 generated scenario, each on a fresh engine | closed loop, 1 caller |
//! | `sweep-cold` | `run_sweep` over the suite at 17 W points on a fresh engine and an empty store | batch, 2 threads |
//! | `sweep-warm` | the same sweep on a fresh engine over a store filled during set-up | batch, 2 threads |
//! | `atlas-grid` | `run_atlas` over a 100-scenario knob grid | batch, 2 threads |
//! | `adapt-suite` | `run_adapt` on twolf, gap, vpr.route and the generated scenario | batch, 2 threads |
//! | `serve-mix` | 300 seeded requests over 2 keep-alive connections to a fresh in-process server | closed loop, 2 connections |

use crate::metrics::{ratio, Values};
use crate::mix::{self, Class, MixRequest};
use crate::spans::{engine_span, engine_total, span, Span, Tracer};
use crate::stats::percentile;
use preexec_campaign::{content_hash, Store};
use preexec_gen::{GenSpec, KnobPoint, Scenario};
use preexec_harness::adapt::{run_adapt, AdaptOptions, AdaptReport};
use preexec_harness::atlas::{run_atlas, AtlasOptions};
use preexec_harness::campaign::{cell_count, run_sweep, SweepOptions};
use preexec_harness::service::{serve, ServeOptions};
use preexec_harness::{Engine, ExpConfig, Prepared, TargetResult};
use preexec_json::{Json, ToJson};
use preexec_server::http::{read_response, write_request};
use preexec_server::ServerHandle;
use preexec_sim::Simulator;
use pthsel::{PThread, SelectionTarget};
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in report order.
pub const NAMES: [&str; 6] = [
    "select-cold",
    "sweep-cold",
    "sweep-warm",
    "atlas-grid",
    "adapt-suite",
    "serve-mix",
];

/// The generated scenario every seeded workload adds: the generator's
/// default knob point with data-layout seed `seed`.
pub fn gen_scenario(seed: u64) -> String {
    Scenario {
        knobs: KnobPoint::default(),
        seed,
    }
    .name()
}

/// The nine paper kernels plus [`gen_scenario`].
pub fn suite_and_gen(seed: u64) -> Vec<String> {
    preexec_workloads::NAMES
        .iter()
        .map(|s| s.to_string())
        .chain([gen_scenario(seed)])
        .collect()
}

/// The checked output of one or more ops.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    /// Ops this output covers.
    pub ops: u64,
    /// Content hash of the output bytes.
    pub digest: String,
    /// `false` when the op failed outright (a non-2xx response, a store
    /// miss on a warm run), whatever its bytes.
    pub ok: bool,
}

impl Output {
    fn of(ops: u64, bytes: &str) -> Output {
        Output {
            ops,
            digest: content_hash(bytes),
            ok: true,
        }
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall time of the repetition, seconds.
    pub wall_s: f64,
    /// Ops attempted.
    pub ops: u64,
    /// Latency samples in ms: one per op for closed-loop workloads, one
    /// per repetition (the call a caller waits for) for batches.
    pub latencies_ms: Vec<f64>,
    /// Outputs, in a fixed order.
    pub outputs: Vec<Output>,
}

/// One workload.
pub trait Workload {
    /// Threads (or connections) the load runs on.
    fn threads(&self) -> usize;

    /// How many repetitions set-up runs before (the median of all rounds
    /// is reported): by default every one.
    fn setup_rounds(&self) -> usize {
        usize::MAX
    }

    /// The percentile `latency_tail_ms` reports: the highest one with ten
    /// samples beyond it at the run's usual sample count. A batch
    /// workload's samples are its repetitions, as few as 5 to 10 in a run
    /// of the slower ones, too few for any tail, so every batch workload
    /// reports the median.
    fn tail_percentile(&self) -> u32 {
        50
    }

    /// Builds the inputs from `seed` and warms the process up. Returns the
    /// seconds of set-up a caller waits for (teardown excluded).
    fn setup(&mut self, seed: u64) -> f64;

    /// Ops in one repetition (known after set-up).
    fn ops(&self) -> u64;

    /// One repetition. With a tracer, records a span around every call
    /// it makes (children of `root`) and keeps what [`Workload::probe`]
    /// needs.
    fn rep(&mut self, tracer: Option<&Tracer>, root: Option<usize>) -> Rep;

    /// After the traced repetition: measures the layers the spans cannot
    /// see by replaying calls directly, and sets those metrics. Returns
    /// notes for the trace file.
    fn probe(&mut self, spans: &[Span], layers: &mut Values) -> Json;
}

/// The workload called `name`, using `scratch` for its stores.
pub fn make(name: &str, scratch: &Path) -> Option<Box<dyn Workload>> {
    let scratch = scratch.to_path_buf();
    Some(match name {
        "select-cold" => Box::new(SelectCold::default()),
        "sweep-cold" => Box::new(SweepCold {
            scratch,
            ..SweepCold::default()
        }),
        "sweep-warm" => Box::new(SweepWarm {
            scratch,
            ..SweepWarm::default()
        }),
        "atlas-grid" => Box::new(AtlasGrid::default()),
        "adapt-suite" => Box::new(AdaptSuite::default()),
        "serve-mix" => Box::new(ServeMix::default()),
        _ => return None,
    })
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// A batch repetition: one timed call producing one output for all ops.
fn batch(ops: u64, wall: f64, bytes: &str) -> Rep {
    Rep {
        wall_s: wall,
        ops,
        latencies_ms: vec![wall * 1e3],
        outputs: vec![Output::of(ops, bytes)],
    }
}

/// Totals of direct `Simulator::run` replays.
#[derive(Default)]
struct SimReplay {
    wall_s: f64,
    cycles: u64,
    executed: u64,
}

impl SimReplay {
    fn run(&mut self, prep: &Prepared, pthreads: &[PThread]) {
        let mut sim = Simulator::new(&prep.program, prep.cfg.sim).with_pthreads(pthreads);
        let t = Instant::now();
        let report = sim.run();
        self.wall_s += t.elapsed().as_secs_f64();
        self.cycles += report.cycles;
        self.executed += sim.executed_cycles();
    }

    fn set(&self, layers: &mut Values) {
        let (cycles, executed) = (self.cycles as f64, self.executed as f64);
        layers.set("sim.ff_skip_ratio", 1.0 - ratio(executed, cycles));
        layers.set(
            "sim.ns_per_executed_cycle",
            ratio(self.wall_s * 1e9, executed),
        );
    }
}

/// Times `preexec_gen::build_scenario` and `admit` directly, per scenario.
fn admission_probe(names: &[String], layers: &mut Values) {
    let (mut build, mut admit, mut n) = (0.0, 0.0, 0.0);
    for scenario in names.iter().filter_map(|n| Scenario::parse(n)) {
        let t = Instant::now();
        let program = preexec_gen::build_scenario(&scenario).expect("scenario builds");
        build += t.elapsed().as_secs_f64();
        let t = Instant::now();
        preexec_gen::admit(&program).expect("scenario admits");
        admit += t.elapsed().as_secs_f64();
        n += 1.0;
    }
    layers.set("gen.build_us", ratio(build * 1e6, n));
    layers.set("gen.admit_us", ratio(admit * 1e6, n));
}

/// Times `Store::load` over every key in the store at `dir`.
fn store_probe(dir: &Path, layers: &mut Values) {
    let store = Store::open(dir).expect("scratch store opens");
    let (mut secs, mut bytes, mut n) = (0.0, 0u64, 0.0);
    for shard in std::fs::read_dir(dir.join("entries"))
        .into_iter()
        .flatten()
        .flatten()
    {
        for file in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let Ok(text) = std::fs::read_to_string(file.path()) else {
                continue;
            };
            let Some(key) = preexec_json::parse(&text)
                .ok()
                .and_then(|j| j.get("key").and_then(Json::as_str).map(str::to_string))
            else {
                continue;
            };
            bytes += text.len() as u64;
            let t = Instant::now();
            std::hint::black_box(store.load(&key));
            secs += t.elapsed().as_secs_f64();
            n += 1.0;
        }
    }
    layers.set("store.load_us", ratio(secs * 1e6, n));
    layers.set("store.bytes", bytes as f64);
}

/// Plain baseline replays of `benches` on `engine` (memo hits).
fn baseline_replays(engine: &Engine, cfg: &ExpConfig, benches: &[String], layers: &mut Values) {
    let mut replay = SimReplay::default();
    for bench in benches {
        replay.run(&engine.prepared(bench, cfg), &[]);
    }
    replay.set(layers);
}

// ---------------------------------------------------------------- select-cold

/// One cold `Engine::prepared` + `evaluate(Latency)` per name, each on a
/// fresh serial engine with no store.
#[derive(Default)]
struct SelectCold {
    cfg: ExpConfig,
    names: Vec<String>,
    kept: Vec<(Prepared, Vec<PThread>)>,
}

fn select_output(name: &str, r: &TargetResult) -> String {
    let s = &r.selection;
    let mut out = format!(
        "{name}|{}|{}|{}",
        s.pthreads.len(),
        s.predicted_ladv,
        s.predicted_eadv
    );
    for p in &s.pthreads {
        let _ = write!(
            out,
            "|{}:{}:{:?}:{}:{}:{}:{}",
            p.trigger_pc,
            p.body.len(),
            p.targets,
            p.dc_trig,
            p.dc_ptcm,
            p.ladv_agg,
            p.eadv_agg
        );
    }
    out + "|" + &r.report.to_json().to_string()
}

impl SelectCold {
    fn cold_select(
        &self,
        name: &str,
        tracer: Option<&Tracer>,
        parent: Option<usize>,
        op: u64,
    ) -> (Prepared, TargetResult) {
        let engine = Engine::new(1);
        let prep = engine_span(tracer, &engine, 1, "Engine::prepared", parent, op, |_| {
            engine.prepared(name, &self.cfg)
        });
        let result = engine_span(tracer, &engine, 1, "Engine::evaluate", parent, op, |_| {
            engine.evaluate(&prep, SelectionTarget::Latency)
        });
        (prep, result)
    }
}

impl Workload for SelectCold {
    fn threads(&self) -> usize {
        1
    }

    /// About five rounds of ten selects: p80 keeps ten samples beyond it.
    fn tail_percentile(&self) -> u32 {
        80
    }

    fn setup(&mut self, seed: u64) -> f64 {
        let t = Instant::now();
        self.names = suite_and_gen(seed);
        self.cold_select("mcf", None, None, 0);
        t.elapsed().as_secs_f64()
    }

    fn ops(&self) -> u64 {
        self.names.len() as u64
    }

    fn rep(&mut self, tracer: Option<&Tracer>, root: Option<usize>) -> Rep {
        let mut rep = Rep::default();
        let start = Instant::now();
        for (i, name) in self.names.iter().enumerate() {
            let t = Instant::now();
            let (prep, result) = span(tracer, "select", root, i as u64, |op| {
                self.cold_select(name, tracer, op, i as u64)
            });
            rep.latencies_ms.push(ms(t));
            rep.outputs
                .push(Output::of(1, &select_output(name, &result)));
            if tracer.is_some() {
                self.kept.push((prep, result.selection.pthreads));
            }
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.ops = self.ops();
        rep
    }

    fn probe(&mut self, _spans: &[Span], layers: &mut Values) -> Json {
        let mut replay = SimReplay::default();
        for (prep, pthreads) in &self.kept {
            replay.run(prep, pthreads);
        }
        replay.set(layers);
        admission_probe(&self.names, layers);
        Json::object().with("replayed_sims", self.kept.len())
    }
}

// ---------------------------------------------------------------- sweeps

/// A fresh 2-thread engine over a store at `dir`.
fn stored_engine(dir: &Path) -> Engine {
    let store = Store::open(dir).expect("scratch store opens");
    Engine::new(2).with_store(Arc::new(store))
}

/// `run_sweep` over the full suite on a fresh engine backed by an empty
/// store: every timing run is simulated and written back.
#[derive(Default)]
struct SweepCold {
    cfg: ExpConfig,
    scratch: PathBuf,
    reps: usize,
    kept: Option<(Engine, PathBuf)>,
}

impl Workload for SweepCold {
    fn threads(&self) -> usize {
        2
    }

    fn setup(&mut self, _seed: u64) -> f64 {
        let t = Instant::now();
        let dir = self.scratch.join("warmup");
        let engine = stored_engine(&dir);
        let warmup = SweepOptions {
            benches: vec!["mcf".to_string()],
            ..SweepOptions::default()
        };
        run_sweep(&engine, &self.cfg, &warmup);
        let secs = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(dir);
        secs
    }

    fn ops(&self) -> u64 {
        cell_count(&SweepOptions::default()) as u64
    }

    fn rep(&mut self, tracer: Option<&Tracer>, root: Option<usize>) -> Rep {
        self.reps += 1;
        let dir = self.scratch.join(format!("cold-{}", self.reps));
        let engine = stored_engine(&dir);
        let t = Instant::now();
        let result = engine_span(tracer, &engine, 2, "campaign::run_sweep", root, 0, |_| {
            run_sweep(&engine, &self.cfg, &SweepOptions::default())
        });
        let wall = t.elapsed().as_secs_f64();
        let rep = batch(self.ops(), wall, &result.to_json().to_string());
        if tracer.is_some() {
            self.kept = Some((engine, dir));
        } else {
            let _ = std::fs::remove_dir_all(dir);
        }
        rep
    }

    fn probe(&mut self, _spans: &[Span], layers: &mut Values) -> Json {
        let (engine, dir) = self.kept.take().expect("a traced repetition ran");
        baseline_replays(&engine, &self.cfg, &SweepOptions::default().benches, layers);
        store_probe(&dir, layers);
        Json::object().with("store_entries", Store::open(&dir).map_or(0, |s| s.len()))
    }
}

/// The suite sweep on a fresh engine over a store filled during set-up:
/// every timing run replays from disk.
#[derive(Default)]
struct SweepWarm {
    cfg: ExpConfig,
    scratch: PathBuf,
    kept: Option<Engine>,
}

impl SweepWarm {
    fn store_dir(&self) -> PathBuf {
        self.scratch.join("warm")
    }
}

impl Workload for SweepWarm {
    fn threads(&self) -> usize {
        2
    }

    /// Filling the store is a full cold sweep, three times a warm
    /// repetition, so set-up refills it before the first three only.
    fn setup_rounds(&self) -> usize {
        3
    }

    fn setup(&mut self, _seed: u64) -> f64 {
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(self.store_dir());
        run_sweep(
            &stored_engine(&self.store_dir()),
            &self.cfg,
            &SweepOptions::default(),
        );
        t.elapsed().as_secs_f64()
    }

    fn ops(&self) -> u64 {
        cell_count(&SweepOptions::default()) as u64
    }

    fn rep(&mut self, tracer: Option<&Tracer>, root: Option<usize>) -> Rep {
        let engine = stored_engine(&self.store_dir());
        let t = Instant::now();
        let result = engine_span(tracer, &engine, 2, "campaign::run_sweep", root, 0, |_| {
            run_sweep(&engine, &self.cfg, &SweepOptions::default())
        });
        let wall = t.elapsed().as_secs_f64();
        let mut rep = batch(self.ops(), wall, &result.to_json().to_string());
        // A warm sweep that had to simulate anything is a failed op.
        rep.outputs[0].ok = engine.metrics().store_misses() == 0;
        if tracer.is_some() {
            self.kept = Some(engine);
        }
        rep
    }

    fn probe(&mut self, _spans: &[Span], layers: &mut Values) -> Json {
        let engine = self.kept.take().expect("a traced repetition ran");
        baseline_replays(&engine, &self.cfg, &SweepOptions::default().benches, layers);
        store_probe(&self.store_dir(), layers);
        Json::object().with("store_misses", engine.metrics().store_misses())
    }
}

// ---------------------------------------------------------------- atlas-grid

/// The 100-scenario knob grid: miss rate × slice length × footprint
/// (64 KiB and 1 MiB, either side of the modelled 256 KiB L2) × branch
/// divergence, with data-layout seed `seed`.
fn atlas_spec(seed: u64) -> GenSpec {
    GenSpec {
        seed,
        miss_rate: vec![0.0, 0.1, 0.25, 0.5, 0.75],
        slice_len: vec![1, 2, 4, 8, 16],
        footprint: vec![(64 << 10) / 8, (1 << 20) / 8],
        branch_divergence: vec![0.0, 0.5],
        ..GenSpec::default()
    }
}

/// `run_atlas` over the grid on a fresh 2-thread engine: admission (lint
/// plus the oracle differential) and then a 4-point W sweep per scenario.
#[derive(Default)]
struct AtlasGrid {
    cfg: ExpConfig,
    opts: Option<AtlasOptions>,
    kept: Option<Engine>,
}

impl AtlasGrid {
    fn opts(&self) -> &AtlasOptions {
        self.opts.as_ref().expect("set-up ran")
    }

    fn scenario_names(&self) -> Vec<String> {
        let scenarios = self.opts().spec.scenarios().expect("grid is in range");
        scenarios.iter().map(Scenario::name).collect()
    }
}

impl Workload for AtlasGrid {
    fn threads(&self) -> usize {
        2
    }

    fn setup(&mut self, seed: u64) -> f64 {
        let t = Instant::now();
        let opts = AtlasOptions {
            spec: atlas_spec(seed),
            ..AtlasOptions::default()
        };
        let first = opts.spec.scenarios().expect("grid is in range")[0];
        let warmup = AtlasOptions {
            spec: GenSpec {
                seed,
                slice_len: vec![first.knobs.slice_len],
                branch_divergence: vec![first.knobs.branch_divergence],
                miss_rate: vec![first.knobs.miss_rate],
                footprint: vec![first.knobs.footprint],
                ..GenSpec::default()
            },
            ..AtlasOptions::default()
        };
        run_atlas(&Engine::new(2), &self.cfg, &warmup).expect("warm-up scenario admits");
        self.opts = Some(opts);
        t.elapsed().as_secs_f64()
    }

    fn ops(&self) -> u64 {
        self.opts().spec.len() as u64
    }

    fn rep(&mut self, tracer: Option<&Tracer>, root: Option<usize>) -> Rep {
        let engine = Engine::new(2);
        let t = Instant::now();
        let result = engine_span(tracer, &engine, 2, "atlas::run_atlas", root, 0, |_| {
            run_atlas(&engine, &self.cfg, self.opts())
        });
        let wall = t.elapsed().as_secs_f64();
        let rep = match result {
            Ok(atlas) => batch(self.ops(), wall, &atlas.to_json().to_string()),
            Err(e) => {
                let mut rep = batch(self.ops(), wall, &e);
                rep.outputs[0].ok = false;
                rep
            }
        };
        if tracer.is_some() {
            self.kept = Some(engine);
        }
        rep
    }

    fn probe(&mut self, _spans: &[Span], layers: &mut Values) -> Json {
        let engine = self.kept.take().expect("a traced repetition ran");
        let names = self.scenario_names();
        baseline_replays(&engine, &self.cfg, &names, layers);
        admission_probe(&names, layers);
        Json::object().with("scenarios", names.len())
    }
}

// ---------------------------------------------------------------- adapt-suite

/// `run_adapt` with default options (min-ED, 17 points, stride 5000) on
/// twolf, gap, vpr.route and the generated scenario, on a fresh 2-thread
/// engine.
#[derive(Default)]
struct AdaptSuite {
    cfg: ExpConfig,
    opts: Option<AdaptOptions>,
    kept: Option<(Engine, AdaptReport)>,
}

impl AdaptSuite {
    fn opts(&self) -> &AdaptOptions {
        self.opts.as_ref().expect("set-up ran")
    }
}

impl Workload for AdaptSuite {
    fn threads(&self) -> usize {
        2
    }

    fn setup(&mut self, seed: u64) -> f64 {
        let t = Instant::now();
        // Longest first, so the two threads finish together.
        let benches = ["twolf", "gap", "vpr.route"]
            .iter()
            .map(|s| s.to_string())
            .chain([gen_scenario(seed)])
            .collect();
        let warmup = AdaptOptions {
            benches: vec!["mcf".to_string()],
            ..AdaptOptions::default()
        };
        run_adapt(&Engine::new(2), &self.cfg, &warmup);
        self.opts = Some(AdaptOptions {
            benches,
            ..AdaptOptions::default()
        });
        t.elapsed().as_secs_f64()
    }

    fn ops(&self) -> u64 {
        self.opts().benches.len() as u64
    }

    fn rep(&mut self, tracer: Option<&Tracer>, root: Option<usize>) -> Rep {
        let engine = Engine::new(2);
        let t = Instant::now();
        let report = engine_span(tracer, &engine, 2, "adapt::run_adapt", root, 0, |_| {
            run_adapt(&engine, &self.cfg, self.opts())
        });
        let wall = t.elapsed().as_secs_f64();
        let rep = batch(self.ops(), wall, &report.to_json().to_string());
        if tracer.is_some() {
            self.kept = Some((engine, report));
        }
        rep
    }

    /// Replays every interval-logged run the controller made: the
    /// baseline of each benchmark plus one run per distinct p-thread set
    /// its probes installed (the runs `run_adapt` memoizes).
    fn probe(&mut self, spans: &[Span], layers: &mut Values) -> Json {
        let (engine, report) = self.kept.take().expect("a traced repetition ran");
        let stride = self.opts().stride.max(1);
        let mut interval_s = 0.0;
        let mut runs = 0u64;
        let mut timed = |prep: &Prepared, pthreads: &[PThread]| {
            let mut sim = Simulator::new(&prep.program, prep.cfg.sim)
                .with_pthreads(pthreads)
                .with_interval_log(stride);
            let t = Instant::now();
            sim.run();
            interval_s += t.elapsed().as_secs_f64();
            runs += 1;
        };
        for bench in &report.benches {
            let prep = engine.prepared(&bench.bench, &self.cfg);
            timed(&prep, &[]);
            let mut seen = std::collections::HashSet::new();
            for w in bench.decisions.iter().flat_map(|d| d.probed_ws.iter()) {
                let pthreads = prep.select(SelectionTarget::Weighted(*w)).pthreads;
                if seen.insert(format!("{pthreads:?}")) {
                    timed(&prep, &pthreads);
                }
            }
        }
        let interval_ms = interval_s * 1e3;
        layers.set("adapt.interval_sim.ms", interval_ms);
        let other: f64 = spans.iter().map(Span::other_ms).sum();
        layers.set("adapt.other.ms", other - interval_ms);
        baseline_replays(&engine, &self.cfg, &self.opts().benches, layers);
        admission_probe(&self.opts().benches, layers);
        let aux_misses = engine_total(spans).aux_misses;
        Json::object()
            .with("interval_runs_replayed", runs)
            .with("interval_runs_in_repetition", aux_misses)
    }
}

// ---------------------------------------------------------------- serve-mix

const SERVE_CONNECTIONS: usize = 2;

/// One keep-alive client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect to the local server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the client socket"));
        Conn { writer, reader }
    }

    /// One request/response exchange: `(status, body)`, or status 0 on a
    /// transport error.
    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        let sent = write_request(&mut self.writer, "POST", path, &[], body.as_bytes());
        match sent
            .map_err(|e| e.to_string())
            .and_then(|_| read_response(&mut self.reader))
        {
            Ok(resp) => (resp.status, resp.body_str()),
            Err(e) => (0, e),
        }
    }
}

/// A fresh server over a fresh 2-thread engine, with 2 workers.
fn start_server() -> (Arc<Engine>, ServerHandle) {
    let engine = Arc::new(Engine::new(2));
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeOptions::default()
    };
    let handle = serve(&opts, Some(engine.clone())).expect("bind a local port");
    (engine, handle)
}

fn stop_server(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// The 300 seeded requests of [`mix::generate`], sent over 2
/// keep-alive connections (request `i` on connection `i mod 2`), each
/// connection waiting for every reply before its next request.
#[derive(Default)]
struct ServeMix {
    benches: Vec<String>,
    requests: Vec<MixRequest>,
    kept: Option<ServeTraced>,
}

struct ServeTraced {
    engine: Arc<Engine>,
    server: Json,
    latencies_ms: Vec<f64>,
}

impl Workload for ServeMix {
    fn threads(&self) -> usize {
        SERVE_CONNECTIONS
    }

    /// 300 requests per repetition: p98 keeps 18 samples beyond it over
    /// three repetitions, and falls among the cold prepares.
    fn tail_percentile(&self) -> u32 {
        98
    }

    fn setup(&mut self, seed: u64) -> f64 {
        let t = Instant::now();
        self.benches = suite_and_gen(seed);
        self.requests = mix::generate(seed, &self.benches);
        let (_engine, handle) = start_server();
        let mut conn = Conn::open(&handle.addr().to_string());
        // A cold select on a machine the mix never asks for.
        let (status, body) = conn.post("/v1/select", r#"{"bench":"mcf","mem_latency":250}"#);
        assert_eq!(status, 200, "warm-up select failed: {body}");
        let secs = t.elapsed().as_secs_f64();
        drop(conn);
        stop_server(handle);
        secs
    }

    fn ops(&self) -> u64 {
        self.requests.len() as u64
    }

    fn rep(&mut self, tracer: Option<&Tracer>, root: Option<usize>) -> Rep {
        let (engine, handle) = start_server();
        let addr = handle.addr().to_string();
        let mut conns: Vec<Conn> = (0..SERVE_CONNECTIONS).map(|_| Conn::open(&addr)).collect();
        let requests = &self.requests;
        let t = Instant::now();
        let mut answers = engine_span(
            tracer,
            &engine,
            SERVE_CONNECTIONS,
            "serve",
            root,
            0,
            |parent| {
                std::thread::scope(|scope| {
                    let clients: Vec<_> = conns
                        .iter_mut()
                        .enumerate()
                        .map(|(c, conn)| {
                            scope.spawn(move || {
                                (c..requests.len())
                                    .step_by(SERVE_CONNECTIONS)
                                    .map(|i| {
                                        let r = &requests[i];
                                        let sent = Instant::now();
                                        let (status, body) =
                                            span(tracer, r.path, parent, i as u64, |_| {
                                                conn.post(r.path, &r.body)
                                            });
                                        (i, ms(sent), status, body)
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    clients
                        .into_iter()
                        .flat_map(|h| h.join().expect("client thread panicked"))
                        .collect::<Vec<_>>()
                })
            },
        );
        let wall = t.elapsed().as_secs_f64();
        drop(conns);
        let server = handle.metrics().to_json(0);
        stop_server(handle);

        answers.sort_by_key(|a| a.0);
        let rep = Rep {
            wall_s: wall,
            ops: self.ops(),
            latencies_ms: answers.iter().map(|a| a.1).collect(),
            outputs: answers
                .iter()
                .map(|(_, _, status, body)| Output {
                    ok: (200..300).contains(status),
                    ..Output::of(1, &format!("{status} {body}"))
                })
                .collect(),
        };
        if tracer.is_some() {
            self.kept = Some(ServeTraced {
                engine,
                server,
                latencies_ms: rep.latencies_ms.clone(),
            });
        }
        rep
    }

    fn probe(&mut self, _spans: &[Span], layers: &mut Values) -> Json {
        let kept = self.kept.take().expect("a traced repetition ran");
        let counter = |path: [&str; 2]| {
            kept.server
                .get(path[0])
                .and_then(|g| g.get(path[1]))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (hits, misses) = (counter(["cache", "hits"]), counter(["cache", "misses"]));
        layers.set("server.lru_hit_ratio", ratio(hits, hits + misses));
        layers.set(
            "server.singleflight_joins",
            counter(["singleflight", "joins"]),
        );
        layers.set(
            "server.rejected_429",
            kept.server
                .get("rejected_429")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        for class in Class::ALL {
            let samples: Vec<f64> = self
                .requests
                .iter()
                .zip(&kept.latencies_ms)
                .filter(|(r, _)| r.class == class)
                .map(|(_, &l)| l)
                .collect();
            let stem = class.name();
            layers.set(&format!("serve.{stem}.p50_ms"), percentile(&samples, 50));
            layers.set(
                &format!("serve.{stem}.share"),
                samples.len() as f64 / self.requests.len() as f64,
            );
        }
        // Every (bench, memory latency) pair was prepared by its cold
        // request, so these are memo hits.
        let mut cfg = ExpConfig::default();
        cfg.sim = cfg.sim.with_mem_latency(mix::MEM_LATENCIES[0]);
        baseline_replays(&kept.engine, &cfg, &self.benches, layers);
        admission_probe(&self.benches, layers);
        kept.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail_percentile;

    #[test]
    fn tail_percentiles_keep_ten_samples_beyond_at_the_usual_counts() {
        let scratch = Path::new("unused");
        // About five rounds of ten cold selects in a run.
        let select = make("select-cold", scratch).unwrap();
        assert_eq!(Some(select.tail_percentile()), tail_percentile(50));
        // Three repetitions of 300 requests.
        let serve = make("serve-mix", scratch).unwrap();
        assert_eq!(Some(serve.tail_percentile()), tail_percentile(900));
    }
}

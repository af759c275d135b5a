//! Runs one workload: set-up, the timed untraced loop, the optional
//! traced repetition, and the output checks.

use crate::host;
use crate::metrics::{ratio, Values};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, percentile, rank};
use crate::workloads::{self, Output, Rep, Workload};
use preexec_campaign::content_hash;
use preexec_harness::Stage;
use preexec_json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The default seed; its outputs are pinned in `expected/seed7.txt`.
pub const DEFAULT_SEED: u64 = 7;
/// Every timed loop runs at least this many repetitions.
const MIN_REPS: usize = 3;

const PINNED: &str = include_str!("../expected/seed7.txt");

/// Where the pinned digests live in the source tree.
fn pinned_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/seed7.txt")
}

/// The pinned digest of `workload`'s output at the default seed.
fn pinned(text: &str, workload: &str) -> Option<String> {
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim().to_string())
}

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repetitions (at least three run).
    pub seconds: f64,
    /// Also run the traced repetition and report per-layer metrics.
    pub trace: bool,
    /// Rewrite the pinned digest from this run (default seed only).
    pub bless: bool,
}

/// The result of one run.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Values,
    /// A human-readable line with sample counts.
    pub summary: String,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json())
    }
}

/// Runs `f` as one repetition; a panic fails all of its ops.
fn guarded(ops: u64, f: impl FnOnce() -> Rep) -> Rep {
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Rep {
        wall_s: start.elapsed().as_secs_f64(),
        ops,
        ..Rep::default()
    })
}

/// Failed ops of `rep` against the reference outputs: an op fails when
/// it failed outright, when its output differs, or when it produced none.
fn failed_ops(rep: &Rep, reference: &[Output]) -> u64 {
    let covered: u64 = rep.outputs.iter().map(|o| o.ops).sum();
    let bad: u64 = rep
        .outputs
        .iter()
        .enumerate()
        .filter(|(i, o)| !o.ok || reference.get(*i).map(|r| &r.digest) != Some(&o.digest))
        .map(|(_, o)| o.ops)
        .sum();
    bad + rep.ops.saturating_sub(covered)
}

fn digest(outputs: &[Output]) -> String {
    let joined: Vec<&str> = outputs.iter().map(|o| o.digest.as_str()).collect();
    content_hash(&joined.join("\n"))
}

/// Per-layer metrics read off the traced repetition's spans.
fn span_layers(spans: &[Span], layers: &mut Values) {
    let d = spans::engine_total(spans);
    for stage in Stage::ALL {
        layers.set(&format!("stage.{}.ms", stage.name()), d.stage_ms(stage));
    }
    let sim_ms = d.stage_ms(Stage::BaselineSim) + d.stage_ms(Stage::OptSim);
    let (insts, cycles) = (d.trace_insts as f64, d.sim_cycles as f64);
    layers.set("trace.insts", insts);
    layers.set(
        "trace.ns_per_inst",
        ratio(d.stage_ms(Stage::Trace) * 1e6, insts),
    );
    layers.set("slice.nodes", d.slice_nodes as f64);
    let runs = d.calls(Stage::BaselineSim) + d.calls(Stage::OptSim);
    layers.set("sim.runs", runs as f64);
    layers.set("sim.cycles", cycles);
    layers.set("sim.ns_per_cycle", ratio(sim_ms * 1e6, cycles));
    let selects = d.calls(Stage::Select) as f64;
    layers.set("select.calls", selects);
    layers.set(
        "select.us_per_call",
        ratio(d.stage_ms(Stage::Select) * 1e3, selects),
    );
    let hit = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
    layers.set("memo.core_hit_ratio", hit(d.core_hits, d.core_misses));
    layers.set("memo.sim_hit_ratio", hit(d.sim_hits, d.sim_misses));
    layers.set("memo.aux_hit_ratio", hit(d.aux_hits, d.aux_misses));
    layers.set("store.hit_ratio", hit(d.store_hits, d.store_misses));
    layers.set("stage.other.ms", spans.iter().map(Span::other_ms).sum());
}

/// Engine spans whose stage time exceeds the thread time they offered
/// by more than 5%: the stage split must fit inside its span.
fn overfull(spans: &[Span]) -> Vec<String> {
    spans
        .iter()
        .filter_map(|s| {
            let e = s.engine?;
            (e.delta.staged_ms() > 1.05 * s.busy_ms()).then(|| {
                format!(
                    "span {} staged {:.3} ms in {:.3} ms of thread time",
                    s.name,
                    e.delta.staged_ms(),
                    s.busy_ms()
                )
            })
        })
        .collect()
}

/// `rep` with its times divided by the host's `slowdown` (see
/// [`host::Calibration`]).
fn normalized(mut rep: Rep, slowdown: f64) -> Rep {
    rep.wall_s /= slowdown;
    for l in &mut rep.latencies_ms {
        *l /= slowdown;
    }
    rep
}

/// Runs workload `name`, using `scratch` for temporary stores.
pub fn run(name: &str, settings: &Settings, scratch: &Path) -> Result<Outcome, String> {
    let mut w: Box<dyn Workload> =
        workloads::make(name, scratch).ok_or_else(|| format!("unknown workload {name:?}"))?;
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let calibration = host::Calibration::new();

    // Set-up rounds alternate with repetitions, so both sample the same
    // stretch of host time. The kernel runs between rounds; a round's
    // times are divided by the mean of the slowdowns on either side of
    // it. Only repetitions count towards `seconds`, at their raw time.
    let mut before = calibration.slowdown();
    let (mut setups, mut reps, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut measured, mut cpu, mut peak_rss) = (0.0, 0.0, 0.0);
    while reps.len() < MIN_REPS || measured < settings.seconds {
        let setup = (setups.len() < w.setup_rounds()).then(|| w.setup(settings.seed));
        let cpu0 = host::cpu_seconds();
        let rep = guarded(w.ops(), || w.rep(None, None));
        cpu += host::cpu_seconds() - cpu0;
        measured += rep.wall_s;
        let after = calibration.slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        setups.extend(setup.map(|s| s / slowdown));
        reps.push(normalized(rep, slowdown));
        slowdowns.push(slowdown);
        // A fixed number of repetitions: the server's allocator keeps
        // memory across fresh servers, so the process peak would grow
        // with however many repetitions a run fits in. The calibration
        // table is the benchmark's, not the workload's.
        if reps.len() == MIN_REPS {
            peak_rss = host::peak_rss_mib() - calibration.mib();
        }
    }
    let ops = w.ops();

    let mut problems = Vec::new();
    let mut metrics = Values::end_to_end();
    let mut traced = None;
    if settings.trace {
        let tracer = Tracer::new();
        let root = tracer.open("repetition", None, 0);
        let rep = guarded(ops, || w.rep(Some(&tracer), Some(root)));
        tracer.close(root, None);
        let rep = normalized(rep, (before + calibration.slowdown()) / 2.0);
        let spans = tracer.spans();
        let mut layers = Values::per_layer();
        span_layers(&spans, &mut layers);
        let notes =
            catch_unwind(AssertUnwindSafe(|| w.probe(&spans, &mut layers))).unwrap_or_else(|_| {
                problems.push("the layer probes failed".to_string());
                Json::Null
            });
        let untraced = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        layers.set(
            "trace_overhead.pct",
            100.0 * ratio(rep.wall_s - untraced, untraced),
        );
        layers.set("host.cpu_util", ratio(cpu, measured * w.threads() as f64));
        layers.set("host.slowdown", median(&slowdowns));
        problems.extend(overfull(&spans));
        write_trace(name, settings, &spans, &layers, notes)?;
        metrics = layers;
        traced = Some(rep);
    }

    let reference = reps[0].outputs.clone();
    let all: Vec<&Rep> = reps.iter().chain(traced.as_ref()).collect();
    let attempted: u64 = all.iter().map(|r| r.ops).sum();
    let mut failed: u64 = all.iter().map(|r| failed_ops(r, &reference)).sum();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} ops failed or differ from the first repetition"
        ));
    }
    let first = digest(&reference);
    if settings.seed == DEFAULT_SEED && !settings.bless {
        match pinned(PINNED, name) {
            Some(pin) if pin == first => {}
            Some(pin) => {
                problems.push(format!(
                    "output digest {first} differs from the pinned {pin}"
                ));
                failed = attempted;
            }
            None => problems.push(format!("no pinned digest for {name}; run with --bless")),
        }
    }
    if settings.bless {
        if settings.seed != DEFAULT_SEED {
            return Err(format!("--bless pins seed {DEFAULT_SEED} only"));
        }
        if failed > 0 {
            return Err("refusing to bless outputs that disagree between repetitions".into());
        }
        bless(name, &first)?;
    }

    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let tail = w.tail_percentile();
    if !settings.trace {
        let rates: Vec<f64> = reps.iter().map(|r| ratio(r.ops as f64, r.wall_s)).collect();
        metrics.set("ops_per_s", median(&rates));
        metrics.set("latency_p50_ms", percentile(&latencies, 50));
        metrics.set("latency_tail_ms", percentile(&latencies, tail));
        metrics.set("setup_s", median(&setups));
        metrics.set("peak_rss_mb", peak_rss);
    }
    let n = latencies.len();
    let walls: Vec<String> = reps
        .iter()
        .zip(&slowdowns)
        .map(|(r, s)| format!("{:.3}/{s:.2}", r.wall_s))
        .collect();
    let summary = format!(
        "# {name} seed {}: {} repetitions in {measured:.1} s (normalized s / host slowdown: {}), \
         {attempted} ops, {n} latency samples (tail p{tail}, {} beyond it), {} set-up rounds, \
         {} threads",
        settings.seed,
        reps.len(),
        walls.join(" "),
        n.saturating_sub(rank(tail, n)),
        setups.len(),
        w.threads(),
    );
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        summary,
        problems,
    })
}

/// Writes the traced repetition to `target/bench-trace/<workload>.json`.
fn write_trace(
    name: &str,
    settings: &Settings,
    spans: &[Span],
    layers: &Values,
    notes: Json,
) -> Result<(), String> {
    let dir = Path::new("target/bench-trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let json = Json::object()
        .with("workload", name)
        .with("seed", settings.seed)
        .with("layers", layers.to_json())
        .with("notes", notes)
        .with("spans", spans::to_json(spans));
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Replaces (or adds) `workload`'s line in the pinned digest file.
fn bless(workload: &str, digest: &str) -> Result<(), String> {
    let path = pinned_path();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.is_empty() && l.split_once(' ').map(|(w, _)| w) != Some(workload))
        .map(str::to_string)
        .collect();
    lines.push(format!("{workload} {digest}"));
    let order = |l: &String| {
        let w = l.split_once(' ').map_or("", |(w, _)| w);
        workloads::NAMES
            .iter()
            .position(|n| *n == w)
            .unwrap_or(usize::MAX)
    };
    lines.sort_by_key(order);
    std::fs::write(&path, lines.join("\n") + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(ops: u64, d: &str) -> Output {
        Output {
            ops,
            digest: d.to_string(),
            ok: true,
        }
    }

    #[test]
    fn failures_count_ops_once() {
        let reference = vec![out(1, "a"), out(1, "b"), out(1, "c")];
        let same = Rep {
            ops: 3,
            outputs: reference.clone(),
            ..Rep::default()
        };
        assert_eq!(failed_ops(&same, &reference), 0);
        let mut differs = same.clone();
        differs.outputs[1].digest = "x".into();
        differs.outputs[1].ok = false;
        assert_eq!(failed_ops(&differs, &reference), 1);
        let panicked = Rep {
            ops: 3,
            ..Rep::default()
        };
        assert_eq!(failed_ops(&panicked, &reference), 3);
        let batch = Rep {
            ops: 162,
            outputs: vec![Output {
                ok: false,
                ..out(162, "a")
            }],
            ..Rep::default()
        };
        assert_eq!(failed_ops(&batch, &[out(162, "a")]), 162);
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for name in workloads::NAMES {
            let pin = pinned(PINNED, name).unwrap_or_else(|| panic!("{name} is not pinned"));
            assert_eq!(pin.len(), 32, "{name}: a 128-bit hex digest");
        }
    }
}

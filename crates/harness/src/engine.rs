//! The experiment engine: a work pool that fans (workload × config ×
//! target) cells across cores, a four-layer memo cache, and the
//! [`Metrics`] observability layer.
//!
//! The cache layers, outermost first:
//!
//! 1. **Cores** ([`PreparedCore::structural_key`]) — energy-constant and
//!    selection-weight sweeps reuse the full
//!    trace/profile/slice/critpath/baseline pipeline.
//! 2. **Bases** ([`PreparedBase::base_key`]) — slice-knob sweeps rebuild
//!    only the trees and their selection table. A core is a shared base
//!    (an `Arc`, not a copy) plus those trees and that table, so every
//!    core finished from one base holds the same profile, critical-path
//!    cost functions and baseline run.
//! 3. **Timing runs** (program fingerprint × machine × p-thread set; the
//!    baseline is the empty set) — every timing run of the process goes
//!    through this one memo: a base's baseline, every evaluated
//!    selection, adapt's interval curves and the runs atlas admission
//!    already checked. An entry keeps the run's [`SimReport`] and the
//!    interval log recorded at [`DEFAULT_STRIDE`] during the run that
//!    filled it, so one selection on one machine is simulated exactly
//!    once per process. The persistent store, when attached, sits behind
//!    it under unchanged keys.
//! 4. **Stage outputs** — the profile, the critical-path output and the
//!    slice trees of a profiling binary, each kind in its own memo under
//!    a key naming exactly its stage's inputs
//!    ([`PreparedBase::profile_key`], [`PreparedBase::critpath_key`],
//!    [`PreparedBase::slices_key`]). One helper serves all three: memo,
//!    then persistent store, then the stage itself, written back. A
//!    fully warm `--store` run therefore skips the functional trace, the
//!    profile, the slicer and the critical-path model. Store probes for
//!    critical-path outputs and for front-end outputs (profiles and
//!    trees) have hit/miss counters of their own.
//!
//! Results are bit-identical to the serial path: every cell is computed
//! independently from the same deterministic inputs and collected in
//! submission order, so thread scheduling can reorder *work* but never
//! *output* (`tests/golden.rs` and the property suite enforce this).

use crate::adapt::DEFAULT_STRIDE;
use crate::experiments::BenchEval;
use crate::metrics::{Metrics, Stage};
use crate::setup::{
    timed_run, versioned, CritPathOutput, ExpConfig, Prepared, PreparedBase, PreparedCore,
    ProfilingRun, StageOutput, TargetResult, MODEL_VERSION,
};
use preexec_campaign::Store;
use preexec_isa::Program;
use preexec_json::ToJson;
use preexec_sim::{IntervalSnapshot, SimConfig, SimReport};
use preexec_slicer::SliceTree;
use preexec_trace::Profile;
use pthsel::{PThread, SelectionTarget};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "REPRO_THREADS";

/// One once-cell per cache key: the first caller of an empty slot builds
/// the value while later arrivals block on the slot (not the whole map),
/// then share the `Arc`. A build that panics leaves the slot empty, so the
/// next caller of the key builds again.
type SlotMap<T> = Mutex<HashMap<String, Arc<OnceLock<Arc<T>>>>>;

/// Looks up `key`, building with `build` on a miss. Returns the shared
/// value and whether this call was a hit.
fn memo<T>(map: &SlotMap<T>, key: String, build: impl FnOnce() -> T) -> (Arc<T>, bool) {
    let slot = map
        .lock()
        .expect("builds run outside the map lock")
        .entry(key)
        .or_default()
        .clone();
    let mut hit = true;
    let value = slot.get_or_init(|| {
        hit = false;
        Arc::new(build())
    });
    (value.clone(), hit)
}

/// One memoized timing run.
struct SimRun {
    /// The run's report.
    report: SimReport,
    /// The interval log recorded at [`DEFAULT_STRIDE`] during the run;
    /// `None` when the report was served by the persistent store, which
    /// keeps reports only.
    intervals: Option<Vec<IntervalSnapshot>>,
}

/// The memo key of a timing run: exactly the simulator's inputs. It names
/// the binary by its content fingerprint, not the program name, so
/// distinct names emitting identical binaries (generated scenarios at
/// degenerate knob corners) share one run.
fn run_key(fingerprint: &str, sim: &SimConfig, pthreads: &[PThread]) -> String {
    format!("pf{fingerprint}|{sim:?}|{pthreads:?}")
}

/// The persistent-store key of the same run, as older builds wrote it:
/// a baseline under [`PreparedBase::baseline_key_for`], a run with
/// p-threads under `sim|` and its memo key.
fn store_key(fingerprint: &str, sim: &SimConfig, pthreads: &[PThread]) -> String {
    if pthreads.is_empty() {
        PreparedBase::baseline_key_for(fingerprint, sim)
    } else {
        versioned(
            MODEL_VERSION,
            &format!("sim|{}", run_key(fingerprint, sim, pthreads)),
        )
    }
}

/// Where engine progress lines go: any thread-safe callback (stderr for
/// the CLI, the event bus for the server).
pub type ProgressSink = Arc<dyn Fn(&str) + Send + Sync>;

/// The parallel, caching experiment driver. Create one per process (or
/// per test) and pass it to every experiment.
pub struct Engine {
    threads: usize,
    /// Slice-independent artifacts by [`PreparedBase::base_key`].
    bases: SlotMap<PreparedBase>,
    /// Full cores by [`PreparedCore::structural_key`].
    cache: SlotMap<PreparedCore>,
    /// Timing runs by (program fingerprint, machine, p-thread set)
    /// ([`run_key`]): the timing simulator is deterministic, so one
    /// selection on one machine is simulated exactly once per process.
    sims: SlotMap<SimRun>,
    /// Profiles by [`PreparedBase::profile_key`], which is also their
    /// store key.
    profiles: SlotMap<Profile>,
    /// Critical-path outputs by [`PreparedBase::critpath_key`], likewise.
    critpaths: SlotMap<CritPathOutput>,
    /// Slice trees by [`PreparedBase::slices_key`], likewise.
    slices: SlotMap<Vec<SliceTree>>,
    /// Experiment-owned memoized values (e.g. the branch-study pipeline),
    /// type-erased so the engine stays decoupled from experiment types.
    aux: SlotMap<Box<dyn std::any::Any + Send + Sync>>,
    /// Persistent on-disk extension of the timing-run and stage-output
    /// memos: an entry is probed here before computing and written back
    /// after, so results survive the process and are shared across
    /// shards. Every kind round-trips JSON exactly, so a store-served
    /// entry is bit-identical to a fresh one.
    store: Option<Arc<Store>>,
    metrics: Metrics,
    sink: Option<ProgressSink>,
}

impl Engine {
    /// An engine with an explicit worker count (`0` and `1` both mean
    /// serial execution).
    pub fn new(threads: usize) -> Engine {
        Engine {
            threads: threads.max(1),
            bases: Mutex::new(HashMap::new()),
            cache: Mutex::new(HashMap::new()),
            sims: Mutex::new(HashMap::new()),
            profiles: Mutex::new(HashMap::new()),
            critpaths: Mutex::new(HashMap::new()),
            slices: Mutex::new(HashMap::new()),
            aux: Mutex::new(HashMap::new()),
            store: None,
            metrics: Metrics::new(),
            sink: None,
        }
    }

    /// Resolves a worker count from an optional `REPRO_THREADS`-style
    /// value: a positive integer is taken literally; absent, unparsable,
    /// or zero all fall back to the host's available parallelism (a
    /// misconfigured environment degrades to the default instead of
    /// pinning the engine serial).
    pub fn threads_from(value: Option<&str>) -> usize {
        match value.and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// An engine sized from `REPRO_THREADS` (see [`Engine::threads_from`]).
    pub fn from_env() -> Engine {
        Engine::new(Engine::threads_from(
            std::env::var(THREADS_ENV).ok().as_deref(),
        ))
    }

    /// Enables live progress lines on stderr.
    pub fn with_progress(self, on: bool) -> Engine {
        if on {
            self.with_progress_sink(Arc::new(|line: &str| eprintln!("[engine] {line}")))
        } else {
            Engine { sink: None, ..self }
        }
    }

    /// Routes progress lines into an arbitrary sink (the server feeds
    /// them onto its SSE event bus).
    pub fn with_progress_sink(mut self, sink: ProgressSink) -> Engine {
        self.sink = Some(sink);
        self
    }

    /// Backs the engine's timing-run and stage-output layers with a
    /// persistent store: baseline and optimized timing runs, profiles,
    /// critical-path outputs and slice trees are served from disk when a
    /// valid entry exists (a warm start) and persisted when computed.
    pub fn with_store(mut self, store: Arc<Store>) -> Engine {
        self.store = Some(store);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub(crate) fn say(&self, msg: impl FnOnce() -> String) {
        if let Some(sink) = &self.sink {
            sink(&msg());
        }
    }

    /// The memoized [`Prepared`] for `(name, cfg)`. The first caller of a
    /// structural key builds the core (other callers of the same key block
    /// on it; different keys proceed in parallel); later callers get a
    /// cache hit and only recompute the cheap energy-dependent finish.
    pub fn prepared(&self, name: &str, cfg: &ExpConfig) -> Prepared {
        let start = std::time::Instant::now();
        let (core, hit) = memo(&self.cache, PreparedCore::structural_key(name, cfg), || {
            let (base, run) = self.base(name, cfg);
            PreparedCore::from_base(base, cfg, &self.metrics, &run, |out| {
                self.stage_output(&self.slices, out, Self::frontend_probe)
            })
        });
        if hit {
            self.metrics.add_cache_hit();
        } else {
            self.metrics.add_cache_miss();
            self.say(|| {
                format!(
                    "prepared {name} in {:.2}s (cache miss)",
                    start.elapsed().as_secs_f64()
                )
            });
        }
        Prepared::from_core(core, cfg)
    }

    /// Probes the persistent store for a simulation report. Counts a
    /// store hit/miss per probe; no-ops (with no counter traffic) when
    /// the engine has no store attached. An entry that does not decode
    /// as a whole report is a miss (and corrupt in the store's
    /// counters), so the caller recomputes and overwrites it.
    fn store_load_report(&self, key: &str) -> Option<SimReport> {
        let store = self.store.as_ref()?;
        match store.load_as(key, SimReport::from_json) {
            Some(report) => {
                self.metrics.add_store_hit();
                Some(report)
            }
            None => {
                self.metrics.add_store_miss();
                None
            }
        }
    }

    /// Persists a freshly computed simulation report, if a store is
    /// attached.
    fn store_save_report(&self, key: &str, report: &SimReport) {
        if let Some(store) = &self.store {
            store.save(key, &report.to_json());
        }
    }

    /// The memoized slice-independent base artifacts for `(name, cfg)`.
    /// On a fresh build the profiling run rides along, so the caller's
    /// slicing stage reuses whatever trace the base computed; a
    /// cache-served base comes with an empty run (the trace is
    /// deliberately not cached — it would dominate cache memory).
    fn base(&self, name: &str, cfg: &ExpConfig) -> (Arc<PreparedBase>, ProfilingRun) {
        let mut run = ProfilingRun::default();
        let (base, hit) = memo(&self.bases, PreparedBase::base_key(name, cfg), || {
            let (base, fresh) = PreparedBase::build(
                name,
                cfg,
                &self.metrics,
                |out| self.stage_output(&self.profiles, out, Self::frontend_probe),
                |out| self.stage_output(&self.critpaths, out, Self::critpath_probe),
                |program, fingerprint| {
                    self.run(program, fingerprint, &cfg.sim, &[])
                        .0
                        .report
                        .clone()
                },
            );
            run = fresh;
            base
        });
        if hit {
            self.metrics.add_base_hit();
        } else {
            self.metrics.add_base_miss();
        }
        (base, run)
    }

    /// Counts a store probe for a critical-path output.
    fn critpath_probe(m: &Metrics, hit: bool) {
        if hit {
            m.add_critpath_store_hit();
        } else {
            m.add_critpath_store_miss();
        }
    }

    /// Counts a store probe for a profile or a set of slice trees.
    fn frontend_probe(m: &Metrics, hit: bool) {
        if hit {
            m.add_frontend_store_hit();
        } else {
            m.add_frontend_store_miss();
        }
    }

    /// The stage output `out` asks for, shared with `map`: from `map`,
    /// else from the store, else computed and written to the store. `probe` counts each store
    /// probe in its kind's own counters, so `store_misses` keeps counting
    /// timing runs only. An entry that does not decode whole is a miss
    /// (and corrupt in the store's counters), so it is recomputed and
    /// overwritten.
    fn stage_output<T>(
        &self,
        map: &SlotMap<T>,
        out: StageOutput<T>,
        probe: fn(&Metrics, bool),
    ) -> Arc<T> {
        let (value, _) = memo(map, out.key.clone(), || {
            if let Some(store) = &self.store {
                let stored = store.load_as(&out.key, out.decode);
                probe(&self.metrics, stored.is_some());
                if let Some(value) = stored {
                    return value;
                }
            }
            let value = (out.compute)();
            if let Some(store) = &self.store {
                store.save(&out.key, &(out.encode)(&value));
            }
            value
        });
        value
    }

    /// The timing run of `program` (content `fingerprint`) on `sim` with
    /// `pthreads` installed: from the memo, else from the store, else
    /// simulated with the interval log on at [`DEFAULT_STRIDE`] and
    /// written to the store. Returns the run and whether the memo served
    /// it.
    fn run(
        &self,
        program: &Program,
        fingerprint: &str,
        sim: &SimConfig,
        pthreads: &[PThread],
    ) -> (Arc<SimRun>, bool) {
        memo(&self.sims, run_key(fingerprint, sim, pthreads), || {
            let key = store_key(fingerprint, sim, pthreads);
            if let Some(report) = self.store_load_report(&key) {
                return SimRun {
                    report,
                    intervals: None,
                };
            }
            let (report, intervals) =
                timed_run(&self.metrics, program, sim, pthreads, DEFAULT_STRIDE);
            self.store_save_report(&key, &report);
            SimRun {
                report,
                intervals: Some(intervals),
            }
        })
    }

    /// Hands `f` the interval log of the timing run of `prep`'s program
    /// with `pthreads` installed, at `stride` cycles. The memoized run's
    /// own log serves when `stride` is [`DEFAULT_STRIDE`]; a store-served
    /// run, or another stride, costs one more timing run with the log on
    /// (metered like any other).
    pub(crate) fn with_intervals<T>(
        &self,
        prep: &Prepared,
        pthreads: &[PThread],
        stride: u64,
        f: impl FnOnce(&[IntervalSnapshot]) -> T,
    ) -> T {
        let (run, _) = self.run(&prep.program, &prep.fingerprint, &prep.cfg.sim, pthreads);
        match &run.intervals {
            Some(intervals) if stride == DEFAULT_STRIDE => f(intervals),
            _ => f(&timed_run(
                &self.metrics,
                &prep.program,
                &prep.cfg.sim,
                pthreads,
                stride,
            )
            .1),
        }
    }

    /// Adopts a baseline run made and checked elsewhere (atlas
    /// admission's `default` differential) as the memo entry for the
    /// binary with content `fingerprint` on `sim`, and writes it to the
    /// store. The caller vouches that it is the run the simulator would
    /// make there, its log recorded at [`DEFAULT_STRIDE`]. An entry that
    /// already exists is kept.
    pub(crate) fn adopt_baseline(
        &self,
        fingerprint: &str,
        sim: &SimConfig,
        report: SimReport,
        intervals: Vec<IntervalSnapshot>,
    ) {
        memo(&self.sims, run_key(fingerprint, sim, &[]), || {
            self.store_save_report(&store_key(fingerprint, sim, &[]), &report);
            SimRun {
                report,
                intervals: Some(intervals),
            }
        });
    }

    /// Selects for `target` and simulates, with both stages metered. The
    /// simulation is memoized on (machine, selection): different targets
    /// or sweep points that choose the same p-threads share one timing
    /// run, since the simulator is deterministic in those inputs.
    pub fn evaluate(&self, prep: &Prepared, target: SelectionTarget) -> TargetResult {
        let selection = self.metrics.time(Stage::Select, || prep.select(target));
        let report = if selection.pthreads.is_empty() {
            // Nothing installed: the optimized machine *is* the baseline
            // machine, so reuse its (already computed) run.
            self.metrics.add_sim_hit();
            prep.baseline.clone()
        } else {
            let (run, hit) = self.run(
                &prep.program,
                &prep.fingerprint,
                &prep.cfg.sim,
                &selection.pthreads,
            );
            if hit {
                self.metrics.add_sim_hit();
            } else {
                self.metrics.add_sim_miss();
            }
            run.report.clone()
        };
        self.metrics.add_cell();
        self.say(|| {
            format!(
                "evaluated {}/{} ({} p-threads)",
                prep.name,
                target.label(),
                selection.pthreads.len()
            )
        });
        TargetResult {
            target,
            selection,
            report,
        }
    }

    /// Evaluates a batch of selection targets against one prepared program.
    ///
    /// This is the batched W-grid entry point: `prep` is built once (trace,
    /// slices, critical-path model, baseline run) and every target reuses
    /// that shared read-only state, so the marginal cost of a grid point is
    /// one selection pass plus at most one optimized simulation. The memo
    /// and store traffic is byte-identical to calling [`Engine::evaluate`]
    /// in a loop — same keys, same hit/miss counters, same order — which
    /// the batched-equivalence test pins down.
    pub fn evaluate_many(&self, prep: &Prepared, targets: &[SelectionTarget]) -> Vec<TargetResult> {
        targets.iter().map(|&t| self.evaluate(prep, t)).collect()
    }

    /// Memoizes an arbitrary experiment-side value under `key`. The first
    /// caller builds it; later callers (from any thread) share the `Arc`.
    /// Keys are namespaced by the caller and must determine the value.
    ///
    /// # Panics
    ///
    /// Panics if `key` was previously used with a different type `T`.
    pub fn cached<T: Send + Sync + 'static>(
        &self,
        key: String,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let (boxed, hit) = memo(&self.aux, key, || {
            Box::new(Arc::new(build())) as Box<dyn std::any::Any + Send + Sync>
        });
        if hit {
            self.metrics.add_aux_hit();
        } else {
            self.metrics.add_aux_miss();
        }
        boxed
            .downcast_ref::<Arc<T>>()
            .expect("aux cache key reused with a different type")
            .clone()
    }

    /// Applies `f` to every item on the work pool, returning results in
    /// input order. Serial when the engine has one thread or one item, so
    /// parallel and serial engines traverse identical code per item.
    pub fn par_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = jobs[i].lock().unwrap().take().expect("job taken once");
                    let result = f(item);
                    *out[i].lock().unwrap() = Some(result);
                });
            }
        });
        out.into_iter()
            .map(|m| m.into_inner().unwrap().expect("job completed"))
            .collect()
    }

    /// Prepares and evaluates `names` × `targets` under one `cfg` — the
    /// engine-backed replacement for the old serial `eval_benchmarks`.
    pub fn eval_benchmarks(
        &self,
        names: &[&str],
        cfg: &ExpConfig,
        targets: &[SelectionTarget],
    ) -> Vec<BenchEval> {
        let cells: Vec<(&str, ExpConfig)> = names.iter().map(|&n| (n, *cfg)).collect();
        self.eval_grid(&cells, targets)
    }

    /// Prepares and evaluates an explicit (benchmark, config) grid — the
    /// shape sweeps use, so every sweep point's every target is one work
    /// item. Output order is `cells` × `targets`, independent of thread
    /// count.
    pub fn eval_grid(
        &self,
        cells: &[(&str, ExpConfig)],
        targets: &[SelectionTarget],
    ) -> Vec<BenchEval> {
        let jobs: Vec<(&str, ExpConfig, SelectionTarget)> = cells
            .iter()
            .flat_map(|&(name, cfg)| targets.iter().map(move |&t| (name, cfg, t)))
            .collect();
        let results = self.par_map(jobs, |(name, cfg, target)| {
            let prep = self.prepared(name, &cfg);
            let result = self.evaluate(&prep, target);
            (prep, result)
        });
        let mut iter = results.into_iter();
        cells
            .iter()
            .map(|&(name, cfg)| {
                let mut prep = None;
                let mut results = Vec::with_capacity(targets.len());
                for _ in targets {
                    let (p, r) = iter.next().expect("one result per job");
                    prep.get_or_insert(p);
                    results.push(r);
                }
                BenchEval {
                    prep: prep.unwrap_or_else(|| self.prepared(name, &cfg)),
                    results,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_from_falls_back_on_zero_and_garbage() {
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(Engine::threads_from(Some("3")), 3);
        assert_eq!(Engine::threads_from(Some(" 12 ")), 12);
        assert_eq!(Engine::threads_from(Some("0")), default, "0 is not serial");
        assert_eq!(Engine::threads_from(Some("lots")), default);
        assert_eq!(Engine::threads_from(Some("-2")), default);
        assert_eq!(Engine::threads_from(Some("")), default);
        assert_eq!(Engine::threads_from(None), default);
    }

    #[test]
    fn progress_sink_receives_engine_lines() {
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let captured = lines.clone();
        let e = Engine::new(1).with_progress_sink(Arc::new(move |line: &str| {
            captured.lock().unwrap().push(line.to_string());
        }));
        let cfg = ExpConfig::default();
        let prep = e.prepared("gap", &cfg);
        e.evaluate(&prep, SelectionTarget::Latency);
        let lines = lines.lock().unwrap();
        assert!(
            lines.iter().any(|l| l.contains("prepared gap")),
            "sink saw the prepare line: {lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("evaluated gap/")),
            "sink saw the evaluate line: {lines:?}"
        );
    }

    #[test]
    fn aux_cache_hits_and_misses_are_counted() {
        let e = Engine::new(1);
        let a = e.cached("test:k".to_string(), || 41);
        assert_eq!((e.metrics().aux_misses(), e.metrics().aux_hits()), (1, 0));
        let b = e.cached("test:k".to_string(), || 999);
        assert_eq!((e.metrics().aux_misses(), e.metrics().aux_hits()), (1, 1));
        assert_eq!((*a, *b), (41, 41), "second build never runs");
    }

    #[test]
    fn a_panicking_build_does_not_poison_its_key() {
        let e = Engine::new(1);
        let key = || "test:panics-once".to_string();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.cached::<u32>(key(), || panic!("build failed"))
        }));
        assert!(first.is_err(), "the panic reaches the caller");
        assert_eq!(*e.cached(key(), || 1u32), 1, "the next caller builds again");
        assert_eq!((e.metrics().aux_misses(), e.metrics().aux_hits()), (1, 0));
    }

    #[test]
    fn par_map_preserves_order() {
        let e = Engine::new(8);
        let out = e.par_map((0..100).collect::<Vec<_>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_serial_matches_parallel() {
        let serial = Engine::new(1).par_map((0..37).collect::<Vec<_>>(), |i| i * i);
        let parallel = Engine::new(4).par_map((0..37).collect::<Vec<_>>(), |i| i * i);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn structural_key_ignores_energy_but_not_machine() {
        let base = ExpConfig::default();
        let mut energy_only = base;
        energy_only.energy = energy_only.energy.with_idle_factor(0.10);
        assert_eq!(
            PreparedCore::structural_key("gap", &base),
            PreparedCore::structural_key("gap", &energy_only),
        );
        let mut machine = base;
        machine.sim = machine.sim.with_mem_latency(300);
        assert_ne!(
            PreparedCore::structural_key("gap", &base),
            PreparedCore::structural_key("gap", &machine),
        );
        assert_ne!(
            PreparedCore::structural_key("gap", &base),
            PreparedCore::structural_key("mcf", &base),
        );
    }

    #[test]
    fn slice_sweep_reuses_base_artifacts() {
        let e = Engine::new(1);
        let cfg = ExpConfig::default();
        let a = e.prepared("gap", &cfg);
        assert_eq!(e.metrics().base_misses(), 1);
        let mut knobs = cfg;
        knobs.slice.window /= 2;
        let b = e.prepared("gap", &knobs);
        assert_eq!(
            e.metrics().cache_misses(),
            2,
            "different slice knobs, different core"
        );
        assert_eq!(
            e.metrics().base_misses(),
            1,
            "slice knobs must not rebuild the base"
        );
        assert_eq!(e.metrics().base_hits(), 1);
        assert!(Arc::ptr_eq(&a.core.base, &b.core.base), "one shared base");
    }

    #[test]
    fn identical_selections_share_one_simulation() {
        let e = Engine::new(1);
        let cfg = ExpConfig::default();
        let prep = e.prepared("gap", &cfg);
        let a = e.evaluate(&prep, SelectionTarget::Latency);
        assert_eq!(e.metrics().sim_misses(), 1);
        let b = e.evaluate(&prep, SelectionTarget::Latency);
        assert_eq!(
            e.metrics().sim_misses(),
            1,
            "second identical cell must reuse the run"
        );
        assert_eq!(e.metrics().sim_hits(), 1);
        assert_eq!(a.report.cycles, b.report.cycles);
        assert_eq!(
            e.metrics().cells(),
            2,
            "cells still counts every evaluation"
        );
    }

    /// The batched evaluator is documented as indistinguishable from a
    /// loop of single `evaluate` calls. Hold it to that: identical
    /// results, identical memo hit/miss counters (the duplicate targets
    /// must hit, not re-run), and the exact same set of store entries
    /// on disk under the same keys.
    #[test]
    fn evaluate_many_is_indistinguishable_from_an_evaluate_loop() {
        let dir =
            std::env::temp_dir().join(format!("preexec-engine-batch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Duplicates exercise the sim memo; Energy typically selects a
        // different set than Latency, exercising distinct sim keys.
        let targets = [
            SelectionTarget::Latency,
            SelectionTarget::Energy,
            SelectionTarget::Weighted(0.5),
            SelectionTarget::Weighted(0.5),
            SelectionTarget::Latency,
        ];

        // One run of either flavor: fresh engine, fresh store directory.
        let observe = |sub: &str, eval: &dyn Fn(&Engine, &Prepared) -> Vec<TargetResult>| {
            let root = dir.join(sub);
            let e = Engine::new(1).with_store(Arc::new(Store::open(&root).unwrap()));
            let cfg = ExpConfig::default();
            let prep = e.prepared("gap", &cfg);
            let results = eval(&e, &prep)
                .into_iter()
                .map(|r| format!("{:?}|{:?}|{}", r.target, r.selection, r.report.to_json()))
                .collect::<Vec<_>>();
            let mut keys = Vec::new();
            for shard in std::fs::read_dir(root.join("entries")).unwrap() {
                for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                    keys.push(f.unwrap().file_name().into_string().unwrap());
                }
            }
            keys.sort();
            let m = e.metrics();
            let counters = (
                m.sim_hits(),
                m.sim_misses(),
                m.store_hits(),
                m.store_misses(),
                m.cells(),
            );
            (results, keys, counters)
        };

        let batched = observe("batched", &|e, prep| e.evaluate_many(prep, &targets));
        let looped = observe("looped", &|e, prep| {
            targets.iter().map(|&t| e.evaluate(prep, t)).collect()
        });
        assert_eq!(batched.0, looped.0, "per-target results");
        assert_eq!(batched.1, looped.1, "persisted store keys");
        assert_eq!(
            batched.2, looped.2,
            "memo and store hit/miss counters (sim hits, sim misses, \
             store hits, store misses, cells)"
        );
        assert!(
            batched.2 .0 >= 2,
            "the duplicate targets must be served by the sim memo: {:?}",
            batched.2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_backed_engines_replay_runs_bit_identically() {
        let dir =
            std::env::temp_dir().join(format!("preexec-engine-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ExpConfig::default();

        // Cold engine: everything misses the store and is persisted.
        let cold = Engine::new(1).with_store(Arc::new(Store::open(&dir).unwrap()));
        let prep = cold.prepared("gap", &cfg);
        let a = cold.evaluate(&prep, SelectionTarget::Latency);
        assert_eq!(cold.metrics().store_hits(), 0);
        assert!(cold.metrics().store_misses() >= 2, "baseline + opt sim");

        // Warm engine (fresh process simulated by a fresh Engine): both
        // simulation layers replay from disk, no timing run happens.
        let warm = Engine::new(1).with_store(Arc::new(Store::open(&dir).unwrap()));
        let prep = warm.prepared("gap", &cfg);
        let b = warm.evaluate(&prep, SelectionTarget::Latency);
        assert_eq!(warm.metrics().store_misses(), 0, "fully warm");
        assert_eq!(warm.metrics().store_hits(), 2);
        assert_eq!(warm.metrics().stage_nanos(Stage::BaselineSim), 0);
        assert_eq!(warm.metrics().stage_nanos(Stage::OptSim), 0);
        assert_eq!(
            a.report.to_json().to_string(),
            b.report.to_json().to_string(),
            "store replay is bit-identical"
        );
        assert_eq!(
            prep.baseline.to_json().to_string(),
            cold.prepared("gap", &cfg).baseline.to_json().to_string(),
        );
    }

    #[test]
    fn model_version_bump_invalidates_store_entries() {
        use crate::setup::versioned;
        let dir = std::env::temp_dir().join(format!(
            "preexec-modelversion-store-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let report = SimReport::default();
        store.save(&versioned(1, "baseline|gap"), &report.to_json());
        assert!(
            store.load(&versioned(1, "baseline|gap")).is_some(),
            "same version addresses the entry"
        );
        assert!(
            store.load(&versioned(2, "baseline|gap")).is_none(),
            "a bumped MODEL_VERSION must never read old entries"
        );
    }

    #[test]
    fn cache_hits_are_counted_and_reused() {
        let e = Engine::new(2);
        let cfg = ExpConfig::default();
        let a = e.prepared("gap", &cfg);
        assert_eq!(e.metrics().cache_misses(), 1);
        assert_eq!(e.metrics().cache_hits(), 0);
        let mut sweep = cfg;
        sweep.energy = sweep.energy.with_idle_factor(0.10);
        let b = e.prepared("gap", &sweep);
        assert_eq!(
            e.metrics().cache_misses(),
            1,
            "energy sweep must reuse the core"
        );
        assert_eq!(e.metrics().cache_hits(), 1);
        assert!(Arc::ptr_eq(&a.core, &b.core));
        // The cheap finish still tracks the energy constants.
        assert!(
            b.app.e0 > a.app.e0,
            "higher idle factor, more baseline energy"
        );
    }
}

//! In-memory span recording for the traced repetition. A span is one
//! call the benchmark makes into a layer: name, start, end, the span
//! that caused it, and the op it belongs to. Engine calls also carry the
//! engine's counter delta across the call ([`EngineSpan`]). Spans stay
//! in memory and are written out once, when the run ends.

use crate::snap::EngineSnap;
use preexec_harness::{Engine, Stage};
use preexec_json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// The engine side of a span: how many threads could run engine work
/// during it, and the engine's counter traffic across it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineSpan {
    /// Threads the engine work ran on (1 for a call on the caller's
    /// thread, the pool size for a batch).
    pub threads: usize,
    /// Counter delta across the span.
    pub delta: EngineSnap,
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The call, e.g. `Engine::prepared` or `POST /v1/select`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that made this call.
    pub parent: Option<usize>,
    /// The op (request, select, repetition) this span belongs to.
    pub op: u64,
    /// Engine traffic, for calls into the engine.
    pub engine: Option<EngineSpan>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Thread time the span offered engine work: wall time × threads.
    pub fn busy_ms(&self) -> f64 {
        self.ms() * self.engine.map_or(1, |e| e.threads) as f64
    }

    /// Engine thread time spent outside the eight stages (orchestration,
    /// JSON and journal plumbing, waiting and idle threads): busy time
    /// minus the stage deltas. 0 for spans that are not engine calls.
    pub fn other_ms(&self) -> f64 {
        self.engine
            .map_or(0.0, |e| self.busy_ms() - e.delta.staged_ms())
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            op,
            engine: None,
        });
        spans.len() - 1
    }

    /// Closes span `id`, attaching its engine traffic if any.
    pub fn close(&self, id: usize, engine: Option<EngineSpan>) {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans[id].end_ns = now;
        spans[id].engine = engine;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

/// Runs `f` inside a span when tracing, or just runs it. `f` receives
/// the span's index to parent its own calls.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.open(name, parent, op);
            let out = f(Some(id));
            t.close(id, None);
            out
        }
    }
}

/// [`span`] around a call into `engine` on `threads` threads, recording
/// the engine's counter delta across the call.
pub fn engine_span<T>(
    tracer: Option<&Tracer>,
    engine: &Engine,
    threads: usize,
    name: &str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => {
            let before = EngineSnap::of(engine);
            let id = t.open(name, parent, op);
            let out = f(Some(id));
            let delta = EngineSnap::of(engine).since(&before);
            t.close(id, Some(EngineSpan { threads, delta }));
            out
        }
    }
}

/// Self time of span `i`: its duration minus the part of that interval
/// its direct children cover. Overlapping children (concurrent calls)
/// count once.
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    kids.sort_unstable();
    let (start, end) = (spans[i].start_ns, spans[i].end_ns);
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in kids {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (end - start).saturating_sub(covered)
}

/// The engine traffic of every engine span, summed.
pub fn engine_total(spans: &[Span]) -> EngineSnap {
    spans
        .iter()
        .filter_map(|s| s.engine)
        .fold(EngineSnap::default(), |acc, e| acc.plus(&e.delta))
}

/// Spans as JSON for the trace file. Each span carries its self time
/// and, for engine calls, the stage split, which with `other_ms` adds up
/// to `busy_ms` (wall time × threads).
pub fn to_json(spans: &[Span]) -> Json {
    let items = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut j = Json::object()
                .with("name", s.name.as_str())
                .with("start_us", s.start_ns as f64 / 1e3)
                .with("end_us", s.end_ns as f64 / 1e3)
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                )
                .with("op", s.op)
                .with("self_ms", self_ns(spans, i) as f64 / 1e6);
            if let Some(e) = s.engine {
                let mut stages = Json::object();
                for stage in Stage::ALL {
                    stages = stages.with(stage.name(), e.delta.stage_ms(stage));
                }
                j = j
                    .with("threads", e.threads)
                    .with("busy_ms", s.busy_ms())
                    .with("stages_ms", stages)
                    .with("other_ms", s.other_ms());
            }
            j
        })
        .collect();
    Json::Array(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            engine: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            at("root", 0, 100, None),
            at("a", 10, 30, Some(0)),
            at("a.child", 12, 28, Some(1)),
            at("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_ns(&spans, 1), 20 - 16);
        assert_eq!(self_ns(&spans, 2), 16);
        assert_eq!(self_ns(&spans, 3), 40);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent requests under one root.
        let spans = vec![
            at("root", 0, 100, None),
            at("conn0", 10, 60, Some(0)),
            at("conn1", 40, 80, Some(0)),
            at("late", 95, 120, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 70 - 5);
    }

    #[test]
    fn tracer_nests_and_skips_when_off() {
        let t = Tracer::new();
        let v = span(Some(&t), "outer", None, 7, |outer| {
            span(Some(&t), "inner", outer, 7, |_| 41) + 1
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(span(None, "off", None, 0, |p| p), None);
    }

    #[test]
    fn engine_span_records_the_stage_delta() {
        let t = Tracer::new();
        let engine = Engine::new(1);
        let cfg = preexec_harness::ExpConfig::default();
        let name = crate::workloads::gen_scenario(1);
        engine_span(Some(&t), &engine, 1, "Engine::prepared", None, 0, |_| {
            engine.prepared(&name, &cfg)
        });
        let s = &t.spans()[0];
        let e = s.engine.expect("engine span");
        assert!(e.delta.stage_ms(Stage::Trace) > 0.0);
        assert_eq!(e.delta.core_misses, 1);
        assert!(s.other_ms() >= 0.0, "stages fit inside the span");
        assert!((e.delta.staged_ms() + s.other_ms() - s.busy_ms()).abs() < 1e-9);
    }
}

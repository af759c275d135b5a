//! Distributed campaigns: the coordinator/worker HTTP layer over the
//! pure lease state machine (`preexec_campaign::coordinator`).
//!
//! `repro coordinate` boots a coordinator: it expands a sweep spec into
//! cells, then hands out **leases** (batches of cell indices with a
//! heartbeat deadline) to workers that register over HTTP. `repro work`
//! is the worker loop: register → lease → evaluate on the local
//! [`Engine`] → complete → repeat, heartbeating in the background. A
//! worker that dies mid-lease simply stops heartbeating; the next
//! scheduling event expires its lease and reassigns the cells, and
//! because every worker computes cells through the same
//! [`campaign::evaluate_cells`] path as a single-process `repro sweep`,
//! any re-computation (or late/duplicate completion) lands
//! byte-identically — the state machine accepts duplicates by content
//! identity and the finished sweep serializes exactly like a local run.
//!
//! Endpoints (strict DTOs in `preexec_json::dto`):
//!
//! - `POST /v1/workers` — register; returns worker id, the lease
//!   contract, the model version, and the sweep spec.
//! - `POST /v1/lease` — request a batch of cells.
//! - `POST /v1/heartbeat` — extend this worker's live leases.
//! - `POST /v1/complete` — deliver computed cells (idempotent).
//! - `GET /v1/status` — progress snapshot; with `?stream=sse` the
//!   response blocks until the sweep completes while per-cell progress
//!   streams over the kit's SSE bus.
//! - `GET /healthz`, `POST /v1/shutdown` — as in `repro serve`.
//!
//! Unknown workers get 404, conflicting completions 409 — a conflict
//! means model skew between binaries, never a race, so it is loud.

use crate::campaign::{
    self, cell_count, evaluate_cells, spec_json, sweep_store_key, SweepCell, SweepOptions,
    SweepResult,
};
use crate::engine::Engine;
use crate::service::decode_body;
use crate::setup::{ExpConfig, MODEL_VERSION};
use preexec_campaign::coordinator::{Completion, Coordinator};
use preexec_campaign::{Journal, Store};
use preexec_json::dto::{
    CompleteRequest, CompleteResponse, HeartbeatResponse, LeaseResponse, RegisterRequest,
    RegisterResponse, WorkerRequest,
};
use preexec_json::{jobj, parse, Json, ToJson};
use preexec_server::{
    call, Bus, Request, Response, Route, ServerConfig, ServerCtx, ServerHandle, Service,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How `repro coordinate` shapes the coordinator.
#[derive(Clone, Debug)]
pub struct CoordinateOptions {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// The sweep to partition (journal/shard fields are ignored — the
    /// coordinator owns partitioning).
    pub opts: SweepOptions,
    /// Lease time-to-live in milliseconds; a worker that misses it has
    /// its cells reassigned.
    pub lease_ms: u64,
    /// Cells granted per lease.
    pub batch: u64,
    /// Server worker threads (they only run status waits; scheduling is
    /// inline).
    pub workers: usize,
    /// Persistent store directory: the completed sweep is filed under
    /// [`sweep_store_key`], byte-identical to a single-process
    /// `repro sweep --store` run.
    pub store: Option<String>,
    /// Narrate scheduling events on stderr.
    pub progress: bool,
}

impl Default for CoordinateOptions {
    fn default() -> CoordinateOptions {
        CoordinateOptions {
            addr: "127.0.0.1:7073".to_string(),
            opts: SweepOptions::default(),
            lease_ms: 30_000,
            batch: 4,
            workers: 4,
            store: None,
            progress: false,
        }
    }
}

/// Shared coordinator state: the spec, the clock origin, and the pure
/// state machine behind one mutex (paired with a completion condvar).
struct CoordState {
    spec: Json,
    lease_ms: u64,
    batch: u64,
    store: Option<String>,
    machine: Mutex<Coordinator>,
    complete: Condvar,
    /// Set when the server is asked to shut down before completion, so
    /// blocked status waits unblock instead of hanging the drain.
    closed: AtomicBool,
    start: Instant,
    bus: Arc<Bus>,
    progress: bool,
}

impl CoordState {
    /// Logical time: wall milliseconds since the coordinator booted.
    /// Only the coordinator's own clock is ever consulted — workers'
    /// clocks never enter the lease math.
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn publish(&self, line: &str) {
        self.bus.publish(line);
        if self.progress {
            eprintln!("[coordinate] {line}");
        }
    }

    /// Runs pending expirations and narrates them. Called at the top of
    /// every scheduling endpoint so a dead worker's cells free up as
    /// soon as anyone else makes progress.
    fn expire_and_report(&self, m: &mut Coordinator, now: u64) {
        for lease in m.expire(now) {
            self.publish(&format!("lease {lease} expired; cells reassigned"));
        }
    }

    fn status_json(&self, m: &Coordinator) -> Json {
        let c = m.counters();
        jobj! {
            "done" => m.done(),
            "total" => m.total(),
            "pending" => m.pending_count(),
            "live_leases" => m.live_leases(),
            "workers" => m.worker_count(),
            "sweep_done" => m.is_complete(),
            "leases_granted" => c.leases_granted,
            "leases_expired" => c.leases_expired,
            "late" => c.late,
            "duplicates" => c.duplicates,
            "conflicts" => c.conflicts
        }
    }
}

/// Maps a state-machine error onto the right HTTP status: unknown
/// workers are 404s, conflicting completions 409s, anything else (bad
/// cell indices) a 400.
fn machine_error(e: &str) -> Response {
    let status = if e.starts_with("unknown worker") {
        404
    } else if e.starts_with("conflicting") {
        409
    } else {
        400
    };
    Response::error(status, e)
}

/// The coordinator's [`Service`]: every scheduling endpoint is answered
/// inline (the state machine is a few map operations), so the worker
/// pool only ever carries blocking status waits.
struct CoordinatorService {
    state: Arc<CoordState>,
}

impl CoordinatorService {
    fn register(&self, req: &Request) -> Response {
        let reg = match decode_body(req, RegisterRequest::from_json) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        let s = &self.state;
        let now = s.now_ms();
        let mut m = s.machine.lock().unwrap();
        s.expire_and_report(&mut m, now);
        let worker = m.register(now);
        drop(m);
        s.publish(&format!(
            "worker {worker} registered{}",
            reg.name
                .as_deref()
                .map(|n| format!(" ({n})"))
                .unwrap_or_default()
        ));
        Response::json(
            200,
            &RegisterResponse {
                worker,
                model_version: MODEL_VERSION.to_string(),
                lease_ms: s.lease_ms,
                batch: s.batch,
                spec: s.spec.clone(),
            }
            .to_json(),
        )
    }

    fn lease(&self, req: &Request) -> Response {
        let wr = match decode_body(req, WorkerRequest::from_json) {
            Ok(w) => w,
            Err(resp) => return resp,
        };
        let s = &self.state;
        let now = s.now_ms();
        let mut m = s.machine.lock().unwrap();
        s.expire_and_report(&mut m, now);
        let granted = match m.request_lease(wr.worker, now) {
            Ok(g) => g,
            Err(e) => return machine_error(&e),
        };
        let resp = match &granted {
            Some(lease) => {
                s.publish(&format!(
                    "lease {} -> worker {}: {} cells (deadline {}ms)",
                    lease.id,
                    wr.worker,
                    lease.cells.len(),
                    lease.deadline,
                ));
                LeaseResponse {
                    lease: Some(lease.id),
                    cells: lease.cells.clone(),
                    deadline_ms: Some(lease.deadline),
                    sweep_done: false,
                }
            }
            None => LeaseResponse {
                lease: None,
                cells: Vec::new(),
                deadline_ms: None,
                sweep_done: m.is_complete(),
            },
        };
        Response::json(200, &resp.to_json())
    }

    fn heartbeat(&self, req: &Request) -> Response {
        let wr = match decode_body(req, WorkerRequest::from_json) {
            Ok(w) => w,
            Err(resp) => return resp,
        };
        let s = &self.state;
        let now = s.now_ms();
        let mut m = s.machine.lock().unwrap();
        s.expire_and_report(&mut m, now);
        match m.heartbeat(wr.worker, now) {
            Ok(live) => Response::json(
                200,
                &HeartbeatResponse {
                    live,
                    sweep_done: m.is_complete(),
                }
                .to_json(),
            ),
            Err(e) => machine_error(&e),
        }
    }

    fn complete(&self, req: &Request) -> Response {
        let creq = match decode_body(req, CompleteRequest::from_json) {
            Ok(c) => c,
            Err(resp) => return resp,
        };
        let s = &self.state;
        let (mut accepted, mut duplicates, mut late) = (0u64, 0u64, 0u64);
        let now = s.now_ms();
        let mut m = s.machine.lock().unwrap();
        s.expire_and_report(&mut m, now);
        for raw in &creq.cells {
            // Re-canonicalize through the typed cell: field order and
            // float formatting quirks in the wire form must not read as
            // value conflicts — only actual value differences do.
            let cell = match SweepCell::from_json(raw) {
                Ok(c) => c,
                Err(e) => return Response::error(400, &e),
            };
            let value = cell.to_json();
            match m.complete(creq.worker, cell.index, &value, now) {
                Ok(Completion::Accepted { late: was_late }) => {
                    accepted += 1;
                    late += u64::from(was_late);
                    s.publish(&format!(
                        "cell {} ({}) done by worker {}{} [{}/{}]",
                        cell.index,
                        cell.key(),
                        creq.worker,
                        if was_late { " (late)" } else { "" },
                        m.done(),
                        m.total(),
                    ));
                }
                Ok(Completion::Duplicate) => duplicates += 1,
                Err(e) => return machine_error(&e),
            }
        }
        let resp = CompleteResponse {
            accepted,
            duplicates,
            late,
            done: m.done(),
            total: m.total(),
        };
        if m.is_complete() {
            s.publish("sweep complete");
            s.complete.notify_all();
        }
        Response::json(200, &resp.to_json())
    }

    fn status(&self, req: &Request) -> Route {
        let s = &self.state;
        if !req.wants_sse() {
            let m = s.machine.lock().unwrap();
            return Route::Inline(Response::json(200, &s.status_json(&m)));
        }
        // SSE: block a pool worker until the sweep completes while the
        // kit pumps bus progress to the client, then deliver the final
        // status as the `result` frame.
        let state = s.clone();
        Route::Work {
            key: None,
            compute: Box::new(move || {
                let mut m = state.machine.lock().unwrap();
                while !m.is_complete() && !state.closed.load(Ordering::SeqCst) {
                    let (guard, _) = state
                        .complete
                        .wait_timeout(m, Duration::from_millis(100))
                        .unwrap();
                    m = guard;
                }
                if m.is_complete() {
                    Response::json(200, &state.status_json(&m))
                } else {
                    Response::error(503, "coordinator shut down before completion")
                }
            }),
        }
    }
}

impl Service for CoordinatorService {
    fn route(&self, req: &Request, _ctx: &ServerCtx<'_>) -> Route {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Route::Inline(Response::json(200, &jobj! { "status" => "ok" })),
            ("POST", "/v1/workers") => Route::Inline(self.register(req)),
            ("POST", "/v1/lease") => Route::Inline(self.lease(req)),
            ("POST", "/v1/heartbeat") => Route::Inline(self.heartbeat(req)),
            ("POST", "/v1/complete") => Route::Inline(self.complete(req)),
            ("GET", "/v1/status") => self.status(req),
            ("POST", "/v1/shutdown") => {
                self.state.closed.store(true, Ordering::SeqCst);
                Route::Shutdown(Response::json(200, &jobj! { "status" => "draining" }))
            }
            _ => Route::Inline(Response::error(404, "no such endpoint")),
        }
    }
}

/// A running coordinator: the HTTP server plus a completion handle.
pub struct CoordinatorHandle {
    server: ServerHandle,
    state: Arc<CoordState>,
}

impl CoordinatorHandle {
    /// The actually-bound address (resolves `:0` binds).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Blocks until every cell is complete, then assembles the full
    /// [`SweepResult`] — byte-identical to a single-process
    /// [`campaign::run_sweep`] of the same spec — and files it in the
    /// persistent store when one is configured.
    pub fn wait(&self) -> SweepResult {
        let mut m = self.state.machine.lock().unwrap();
        while !m.is_complete() {
            let (guard, _) = self
                .state
                .complete
                .wait_timeout(m, Duration::from_millis(100))
                .unwrap();
            m = guard;
        }
        let cells: Vec<SweepCell> = (0..m.total())
            .map(|i| {
                SweepCell::from_json(m.value(i).expect("complete sweep has every value"))
                    .expect("canonicalized cell shape")
            })
            .collect();
        drop(m);
        let result = SweepResult {
            spec: self.state.spec.clone(),
            cells,
            replayed: 0,
        };
        if let Some(dir) = &self.state.store {
            if let Ok(store) = Store::open(dir) {
                store.save(&sweep_store_key(&result.spec), &result.to_json());
            }
        }
        result
    }

    /// Progress snapshot (see `GET /v1/status`).
    pub fn status(&self) -> Json {
        let m = self.state.machine.lock().unwrap();
        self.state.status_json(&m)
    }

    /// Gracefully drains the server and blocks until it is down.
    pub fn shutdown(self) {
        self.state.closed.store(true, Ordering::SeqCst);
        self.server.shutdown();
        self.server.join();
    }
}

/// Boots a coordinator for `opts.opts`. Scheduling starts immediately;
/// call [`CoordinatorHandle::wait`] for the merged result.
pub fn coordinate(opts: &CoordinateOptions) -> std::io::Result<CoordinatorHandle> {
    let spec = spec_json(&opts.opts);
    let total = cell_count(&opts.opts) as u64;
    let bus = Arc::new(Bus::new());
    let state = Arc::new(CoordState {
        spec,
        lease_ms: opts.lease_ms.max(1),
        batch: opts.batch.max(1),
        store: opts.store.clone(),
        machine: Mutex::new(Coordinator::new(
            total,
            opts.lease_ms.max(1),
            opts.batch.max(1),
        )),
        complete: Condvar::new(),
        closed: AtomicBool::new(false),
        start: Instant::now(),
        bus: bus.clone(),
        progress: opts.progress,
    });
    let service = Arc::new(CoordinatorService {
        state: state.clone(),
    });
    let cfg = ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers.max(2),
        queue_cap: 64,
        cache_cap: 0,
        // Status waits last as long as the sweep; the kit deadline must
        // not cut them short.
        default_deadline_ms: 86_400_000,
    };
    let server = preexec_server::start_with_bus(cfg, service, bus)?;
    Ok(CoordinatorHandle { server, state })
}

/// How `repro work` shapes one worker.
#[derive(Clone, Debug)]
pub struct WorkOptions {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Idle poll interval when no cells are grantable, milliseconds.
    pub poll_ms: u64,
    /// Persistent store directory for engine warm starts.
    pub store: Option<String>,
    /// Completion journal: a worker resuming after a kill replays its
    /// journaled cells instead of recomputing them (the coordinator
    /// absorbs re-delivery as duplicates).
    pub journal: Option<PathBuf>,
    /// Optional worker name for coordinator progress events.
    pub name: Option<String>,
}

impl Default for WorkOptions {
    fn default() -> WorkOptions {
        WorkOptions {
            coordinator: "127.0.0.1:7073".to_string(),
            poll_ms: 200,
            store: None,
            journal: None,
            name: None,
        }
    }
}

/// What one worker did over its lifetime.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkSummary {
    /// The id the coordinator assigned.
    pub worker: u64,
    /// Leases obtained.
    pub leases: u64,
    /// Cells computed on the engine.
    pub computed: u64,
    /// Cells replayed from the local journal.
    pub replayed: u64,
    /// Deliveries the coordinator already had (byte-identical).
    pub duplicates: u64,
}

preexec_json::impl_json_object!(WorkSummary {
    worker,
    leases,
    computed,
    replayed,
    duplicates,
});

/// One POST with a JSON body, expecting 200; any other status becomes a
/// descriptive error.
fn post(addr: &str, path: &str, body: &Json) -> Result<Json, String> {
    let resp = call(addr, "POST", path, &body.to_string())?;
    if resp.status != 200 {
        return Err(format!("{path}: HTTP {}: {}", resp.status, resp.body_str()));
    }
    parse(&resp.body_str()).map_err(|e| format!("{path}: malformed response: {e}"))
}

/// Runs a worker with a fresh [`Engine::from_env`] (plus the persistent
/// store when configured).
pub fn work(opts: &WorkOptions) -> Result<WorkSummary, String> {
    let mut engine = Engine::from_env();
    if let Some(dir) = &opts.store {
        engine = engine.with_store(Arc::new(
            Store::open(dir).map_err(|e| format!("store: {e}"))?,
        ));
    }
    work_with(opts, &Arc::new(engine))
}

/// The worker loop on a caller-supplied engine: register, then
/// lease → evaluate ([`campaign::evaluate_cells`], the exact
/// single-process compute path) → complete, heartbeating in the
/// background, until the coordinator reports the sweep done.
pub fn work_with(opts: &WorkOptions, engine: &Arc<Engine>) -> Result<WorkSummary, String> {
    let addr = &opts.coordinator;
    let reg_json = post(
        addr,
        "/v1/workers",
        &RegisterRequest {
            name: opts.name.clone(),
        }
        .to_json(),
    )?;
    let reg = RegisterResponse::from_json(&reg_json)?;
    if reg.model_version != MODEL_VERSION.to_string() {
        return Err(format!(
            "coordinator model version {} != this binary's {MODEL_VERSION}; refusing to compute",
            reg.model_version,
        ));
    }
    // A spec this binary cannot re-echo bit-exactly is refused here.
    let sweep_opts = campaign::options_from_spec(&reg.spec)?;
    let journal = match &opts.journal {
        Some(p) => {
            Some(Journal::open(p, &reg.spec.to_string()).map_err(|e| format!("journal: {e}"))?)
        }
        None => None,
    };

    // Heartbeat in the background at a third of the lease TTL, so one
    // delayed beat never costs the lease.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_stop = stop.clone();
    let hb_addr = addr.clone();
    let hb_body = WorkerRequest { worker: reg.worker }.to_json().to_string();
    let hb_every = Duration::from_millis((reg.lease_ms / 3).max(10));
    let heartbeat = std::thread::spawn(move || {
        let mut last = Instant::now();
        while !hb_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
            if last.elapsed() >= hb_every {
                last = Instant::now();
                // Failures are tolerated: the lease machinery, not the
                // heartbeat loop, is the source of truth.
                let _ = call(&hb_addr, "POST", "/v1/heartbeat", &hb_body);
            }
        }
    });

    let run = || -> Result<WorkSummary, String> {
        let base = ExpConfig::default();
        let mut summary = WorkSummary {
            worker: reg.worker,
            leases: 0,
            computed: 0,
            replayed: 0,
            duplicates: 0,
        };
        loop {
            // A coordinator that has vanished mid-poll has finished (it
            // drains right after the last completion, possibly before
            // our next poll lands) or died; either way there is nothing
            // left to compute — report what we did.
            let lease_json = match post(
                addr,
                "/v1/lease",
                &WorkerRequest { worker: reg.worker }.to_json(),
            ) {
                Ok(j) => j,
                Err(e) if e.starts_with("connect ") => return Ok(summary),
                Err(e) => return Err(e),
            };
            let lease = LeaseResponse::from_json(&lease_json)?;
            if lease.sweep_done {
                return Ok(summary);
            }
            if lease.cells.is_empty() {
                // Everything pending is leased elsewhere; poll again —
                // an expiry may free cells for us.
                std::thread::sleep(Duration::from_millis(opts.poll_ms.max(1)));
                continue;
            }
            summary.leases += 1;
            let (cells, replayed) =
                evaluate_cells(engine, &base, &sweep_opts, &lease.cells, journal.as_ref())?;
            summary.computed += (cells.len() - replayed) as u64;
            summary.replayed += replayed as u64;
            let done_json = post(
                addr,
                "/v1/complete",
                &CompleteRequest {
                    worker: reg.worker,
                    cells: cells.iter().map(ToJson::to_json).collect(),
                }
                .to_json(),
            )?;
            let done = CompleteResponse::from_json(&done_json)?;
            summary.duplicates += done.duplicates;
            // Our delivery finished the sweep: don't race the
            // coordinator's drain with another lease poll.
            if done.done >= done.total {
                return Ok(summary);
            }
        }
    };
    let result = run();
    stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();
    result
}

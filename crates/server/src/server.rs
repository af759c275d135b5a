//! The server core: a listener/accept loop, one lightweight thread per
//! connection (parse + wait + write), and a bounded worker pool that runs
//! the actual compute. The split mirrors an async runtime's
//! `spawn_blocking` bridge — connection threads only block on I/O and
//! condition variables, workers only on CPU work — without requiring an
//! async executor the build container doesn't have.
//!
//! Request flow for [`Route::Work`]:
//!
//! 1. one join of the request cache by canonical key: a cached `200` is
//!    a hit, a key in flight is followed (concurrent identical requests
//!    share one computation), anything else is led;
//! 2. bounded admission (leaders only) — a full queue answers `429`
//!    with `Retry-After` instead of buffering without bound;
//! 3. deadline wait (`x-deadline-ms` header or the server default) —
//!    `504` on expiry while the computation continues for later callers;
//! 4. optionally, the whole wait is streamed as server-sent events
//!    (`?stream=sse`): `queued`, bus progress lines, then `result`.
//!
//! Shutdown ([`Route::Shutdown`] or [`ServerHandle::shutdown`]) stops
//! accepting, closes admission, drains queued work, and lets in-flight
//! connections finish — a graceful drain, not an abort.

use crate::bus::Bus;
use crate::cache::{Flight, Join, RequestCache};
use crate::http::{sse_frame, write_sse_head, Request, Response};
use crate::metrics::ServerMetrics;
use crate::queue::{WorkQueue, WorkerPool};
use preexec_json::Json;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll granularity while waiting on a flight (also the SSE progress
/// forwarding cadence).
const WAIT_STEP: Duration = Duration::from_millis(25);
/// Idle keep-alive poll granularity (bounds shutdown latency).
const IDLE_STEP: Duration = Duration::from_millis(250);
/// Read timeout once a request has started arriving.
const PARSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Serving-layer configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Compute worker threads.
    pub workers: usize,
    /// Bounded admission-queue capacity (waiting jobs; beyond it → 429).
    pub queue_cap: usize,
    /// Cached `200` responses kept by the request cache (0 keeps the
    /// deduplication of concurrent requests and caches nothing).
    pub cache_cap: usize,
    /// Default per-request deadline when no `x-deadline-ms` header is
    /// sent.
    pub default_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 64,
            cache_cap: 256,
            default_deadline_ms: 30_000,
        }
    }
}

/// What the service decided to do with a request.
pub enum Route {
    /// Answer immediately on the connection thread (cheap reads:
    /// health, metrics, validation errors, 404s).
    Inline(Response),
    /// Run on the worker pool behind admission control. `key` is the
    /// canonicalized request identity: `Some` joins the request cache
    /// (deduplication and caching), `None` marks uncacheable work.
    Work {
        /// Canonical request key, or `None` for uncacheable work.
        key: Option<String>,
        /// The computation; runs on a worker thread.
        compute: Box<dyn FnOnce() -> Response + Send + 'static>,
    },
    /// Send the response, then begin a graceful drain of the whole
    /// server.
    Shutdown(Response),
}

/// Read-only serving context handed to [`Service::route`], so services
/// can surface kit-level observability (e.g. in a `/metrics` endpoint).
pub struct ServerCtx<'a> {
    /// The serving-layer counters.
    pub metrics: &'a ServerMetrics,
    /// Waiting jobs in the admission queue right now.
    pub queue_depth: usize,
    /// The progress bus (services may publish their own events).
    pub bus: &'a Bus,
}

/// The application layer: maps requests to [`Route`]s. Must be cheap —
/// it runs on connection threads; anything expensive belongs in a
/// [`Route::Work`] closure.
pub trait Service: Send + Sync + 'static {
    /// Classifies one request.
    fn route(&self, req: &Request, ctx: &ServerCtx<'_>) -> Route;
}

struct Shared {
    cfg: ServerConfig,
    service: Arc<dyn Service>,
    queue: Arc<WorkQueue>,
    cache: RequestCache,
    metrics: ServerMetrics,
    bus: Arc<Bus>,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    active_conns: AtomicU64,
}

impl Shared {
    fn initiate_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            self.queue.close();
            // Nudge the accept loop out of `incoming()`.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running server: its bound address plus the drain/join handle.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Option<WorkerPool>,
}

impl ServerHandle {
    /// The actually-bound address (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The serving-layer metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Begins a graceful drain (idempotent): stop accepting, close
    /// admission, let queued and in-flight work finish.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the server has fully drained: the accept loop exits,
    /// workers finish every admitted job, and connection threads close.
    /// Returns only after a shutdown was initiated (by [`Self::shutdown`]
    /// or a [`Route::Shutdown`] response).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.queue.close();
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
        // Connection threads poll the shutdown flag at IDLE_STEP; give
        // them a bounded grace period to finish writing.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Binds and starts a server with a fresh progress bus.
pub fn start(cfg: ServerConfig, service: Arc<dyn Service>) -> std::io::Result<ServerHandle> {
    start_with_bus(cfg, service, Arc::new(Bus::new()))
}

/// Binds and starts a server publishing progress on `bus` (so the
/// application can wire its own producers — e.g. an engine's progress
/// sink — into request streams).
pub fn start_with_bus(
    cfg: ServerConfig,
    service: Arc<dyn Service>,
    bus: Arc<Bus>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let queue = Arc::new(WorkQueue::new(cfg.queue_cap));
    let workers = WorkerPool::start(cfg.workers, queue.clone());
    let shared = Arc::new(Shared {
        cache: RequestCache::new(cfg.cache_cap),
        cfg,
        service,
        queue,
        metrics: ServerMetrics::new(),
        bus,
        addr,
        shutting_down: AtomicBool::new(false),
        active_conns: AtomicU64::new(0),
    });

    let accept_shared = shared.clone();
    let accept = std::thread::Builder::new()
        .name("preexec-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Responses are written as one segment; nodelay keeps
                // small frames (SSE, errors) from sitting in Nagle.
                let _ = stream.set_nodelay(true);
                let conn_shared = accept_shared.clone();
                conn_shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let spawned = std::thread::Builder::new()
                    .name("preexec-conn".to_string())
                    .spawn(move || {
                        connection(&conn_shared, stream);
                        conn_shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    accept_shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        })?;

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers: Some(workers),
    })
}

/// One connection's keep-alive loop. No pipelining: each request is
/// parsed, answered, and only then is the next one read.
fn connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    loop {
        // Idle phase: poll for the next request so shutdown can reclaim
        // quiet keep-alive connections promptly.
        let _ = stream.set_read_timeout(Some(IDLE_STEP));
        let mut first = [0u8; 1];
        match stream.peek(&mut first) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let _ = stream.set_read_timeout(Some(PARSE_TIMEOUT));
        let mut reader = BufReader::new(&stream);
        let req = match Request::read_from(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(msg) => {
                let resp = Response::error(400, &format!("malformed request: {msg}"));
                shared.metrics.count_status(resp.status);
                let _ = resp.write_to(&mut (&stream), false);
                return;
            }
        };
        drop(reader);
        let keep = !req.connection_close();
        if !handle_request(shared, &req, &stream, keep) {
            return;
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Sends `resp` on `stream`, counting its status. Returns whether the
/// connection stays open.
fn send(shared: &Shared, stream: &TcpStream, resp: &Response, keep: bool) -> bool {
    shared.metrics.count_status(resp.status);
    resp.write_to(&mut (&*stream), keep).is_ok() && keep
}

/// Routes and answers one request. Returns whether to keep the
/// connection alive.
fn handle_request(shared: &Arc<Shared>, req: &Request, stream: &TcpStream, keep: bool) -> bool {
    shared.metrics.inc_requests();
    let ctx = ServerCtx {
        metrics: &shared.metrics,
        queue_depth: shared.queue.depth(),
        bus: &shared.bus,
    };
    match shared.service.route(req, &ctx) {
        Route::Inline(resp) => send(shared, stream, &resp, keep),
        Route::Shutdown(resp) => {
            send(shared, stream, &resp, false);
            shared.initiate_shutdown();
            false
        }
        Route::Work { key, compute } => work(shared, req, stream, key, compute, keep),
    }
}

/// The full cached/deduplicated/bounded/deadlined compute path.
fn work(
    shared: &Arc<Shared>,
    req: &Request,
    stream: &TcpStream,
    key: Option<String>,
    compute: Box<dyn FnOnce() -> Response + Send + 'static>,
    keep: bool,
) -> bool {
    if shared.shutting_down.load(Ordering::SeqCst) {
        let resp = Response::error(503, "server is draining").with_header("retry-after", "1");
        return send(shared, stream, &resp, false);
    }
    let deadline_ms = req
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(shared.cfg.default_deadline_ms);
    let deadline = Duration::from_millis(deadline_ms);
    let mut sse = SseState::open(shared, req, stream, key.as_deref());

    // Layer 1: the request cache.
    let (flight, leader) = match key.as_deref().map(|k| shared.cache.join(k)) {
        None => (Flight::new(), true),
        Some(join) => {
            shared.metrics.count_join(&join);
            match join {
                Join::Hit(resp) => return finish(shared, stream, &resp, sse.as_mut(), keep),
                Join::Lead(f) => (f, true),
                Join::Follow(f) => (f, false),
            }
        }
    };

    // Layer 2: bounded admission (leaders only — followers ride along).
    if leader {
        let job_shared = shared.clone();
        let job_key = key.clone();
        let job_flight = flight.clone();
        let job: crate::queue::Job = Box::new(move || {
            job_shared.metrics.enter_work();
            if let Some(k) = &job_key {
                job_shared.bus.publish(&format!("start {k}"));
            }
            let resp = match catch_unwind(AssertUnwindSafe(compute)) {
                Ok(resp) => resp,
                Err(_) => Response::error(500, "handler panicked"),
            };
            match &job_key {
                Some(k) => {
                    job_shared.cache.fill(k, &job_flight, resp);
                    job_shared.bus.publish(&format!("done {k}"));
                }
                None => job_flight.fill(resp),
            }
            job_shared.metrics.exit_work();
        });
        if shared.queue.try_push(job).is_err() {
            let resp = Response::error(429, "admission queue full").with_header("retry-after", "1");
            // Unblock any followers that raced onto this flight.
            if let Some(k) = &key {
                shared.cache.fill(k, &flight, resp.clone());
            }
            return finish(shared, stream, &resp, sse.as_mut(), keep);
        }
    }

    // Layer 3: the deadline wait (streaming progress if SSE).
    let start = Instant::now();
    let resp = loop {
        if let Some(resp) = flight.wait_for(WAIT_STEP) {
            break resp;
        }
        if let Some(sse) = sse.as_mut() {
            if !sse.pump() {
                return false; // client went away mid-stream
            }
        }
        if start.elapsed() >= deadline {
            break Response::error(504, "deadline exceeded; computation continues")
                .with_header("retry-after", "1");
        }
    };
    finish(shared, stream, &resp, sse.as_mut(), keep)
}

/// Delivers the final response, over SSE when a stream is open.
/// Returns whether the connection stays open.
fn finish(
    shared: &Shared,
    stream: &TcpStream,
    resp: &Response,
    sse: Option<&mut SseState>,
    keep: bool,
) -> bool {
    match sse {
        Some(s) => {
            shared.metrics.count_status(resp.status);
            s.result(resp);
            false
        }
        None => send(shared, stream, resp, keep),
    }
}

/// An open server-sent-event stream: the response head and `queued`
/// frame are written eagerly, progress is pumped while waiting, and the
/// final response travels as a `result` frame.
struct SseState {
    stream: TcpStream,
    events: Receiver<String>,
}

impl SseState {
    fn open(
        shared: &Shared,
        req: &Request,
        stream: &TcpStream,
        key: Option<&str>,
    ) -> Option<SseState> {
        if !req.wants_sse() {
            return None;
        }
        let events = shared.bus.subscribe();
        let mut stream = stream.try_clone().ok()?;
        write_sse_head(&mut stream).ok()?;
        let data = Json::object()
            .with("key", key.unwrap_or(""))
            .with("queue_depth", shared.queue.depth() as u64)
            .to_string();
        stream
            .write_all(sse_frame("queued", &data).as_bytes())
            .ok()?;
        let _ = stream.flush();
        shared.metrics.inc_streams();
        Some(SseState { stream, events })
    }

    /// Forwards any pending bus events. Returns `false` when the client
    /// disconnected.
    fn pump(&mut self) -> bool {
        while let Ok(line) = self.events.try_recv() {
            if self
                .stream
                .write_all(sse_frame("progress", &line).as_bytes())
                .is_err()
            {
                return false;
            }
        }
        self.stream.flush().is_ok()
    }

    fn result(&mut self, resp: &Response) {
        let _ = self.pump();
        let status = sse_frame("status", &resp.status.to_string());
        let body = sse_frame("result", &resp.body_str());
        let _ = self.stream.write_all(status.as_bytes());
        let _ = self.stream.write_all(body.as_bytes());
        let _ = self.stream.flush();
    }
}

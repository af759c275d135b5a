//! End-to-end tests of `repro serve`'s service layer: endpoint
//! validation, singleflight deduplication onto one engine evaluation,
//! retargeted selects on shared cores, CLI/server byte-identity for
//! experiment artifacts, SSE streaming, and graceful shutdown.

use preexec::harness::service::{serve, ServeOptions};
use preexec::harness::{campaign, experiments, Engine, ExpConfig};
use preexec::server::http::{read_response, write_request, Response};
use preexec_json::{jobj, parse, Json, ToJson};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

fn opts() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServeOptions::default()
    }
}

fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, method, path, &[], body.as_bytes()).expect("write");
    read_response(&mut BufReader::new(&stream)).expect("read")
}

fn get(j: &Json, path: &[&str]) -> u64 {
    let mut cur = j;
    for p in path {
        cur = cur.get(p).unwrap_or_else(|| panic!("missing {p} in {j}"));
    }
    cur.as_u64().unwrap_or_else(|| panic!("{path:?} not u64"))
}

#[test]
fn validation_layer_rejects_before_admission() {
    let h = serve(&opts(), None).unwrap();
    let addr = h.addr();

    let ok = call(addr, "GET", "/healthz", "");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body_str(), r#"{"status":"ok"}"#);

    assert_eq!(call(addr, "GET", "/nope", "").status, 404);
    assert_eq!(
        call(addr, "POST", "/v1/experiments/fig99", "").status,
        404,
        "unknown experiment id"
    );

    let bad = call(addr, "POST", "/v1/select", "{not json");
    assert_eq!(bad.status, 400);
    assert!(
        bad.body_str().contains("malformed JSON"),
        "{}",
        bad.body_str()
    );

    let bad = call(addr, "POST", "/v1/select", r#"{"bench":"gap","banch":1}"#);
    assert_eq!(bad.status, 400, "unknown fields are 400s");
    assert!(bad.body_str().contains("banch"), "{}", bad.body_str());

    let bad = call(addr, "POST", "/v1/select", r#"{"bench":"quake"}"#);
    assert_eq!(bad.status, 400, "unknown benchmark");
    assert!(bad.body_str().contains("quake"), "{}", bad.body_str());

    let bad = call(
        addr,
        "POST",
        "/v1/sim",
        r#"{"bench":"gap","target":"speed"}"#,
    );
    assert_eq!(bad.status, 400, "unknown target");

    // W and idle factors outside [0, 1] are outside the paper's model.
    for (path, body, field) in [
        (
            "/v1/select",
            r#"{"bench":"gap","target":"weighted","weight":2}"#,
            "weight",
        ),
        (
            "/v1/select",
            r#"{"bench":"gap","target":"weighted","weight":-1}"#,
            "weight",
        ),
        (
            "/v1/select",
            r#"{"bench":"gap","idle_factor":-1}"#,
            "idle_factor",
        ),
        (
            "/v1/select",
            r#"{"bench":"gap","idle_factor":1e308}"#,
            "idle_factor",
        ),
        (
            "/v1/sim",
            r#"{"bench":"gap","target":"weighted","weight":2}"#,
            "weight",
        ),
        (
            "/v1/campaigns",
            r#"{"benches":["gap"],"points":2,"idle_factors":[-1]}"#,
            "idle_factors",
        ),
        (
            "/v1/atlas",
            r#"{"points":2,"idle_factors":[0.05,2]}"#,
            "idle_factors",
        ),
        // 2^32 + 4 must not wrap to a 4-instruction slice.
        (
            "/v1/atlas",
            r#"{"points":2,"slice_len":4294967300,"footprint":4096}"#,
            "slice_len",
        ),
    ] {
        let bad = call(addr, "POST", path, body);
        assert_eq!(bad.status, 400, "{path} {body}: {}", bad.body_str());
        assert!(bad.body_str().contains(field), "{}", bad.body_str());
    }
    assert_eq!(call(addr, "GET", "/healthz", "").status, 200);

    let metrics = parse(&call(addr, "GET", "/metrics", "").body_str()).unwrap();
    assert!(metrics.get("server").is_some() && metrics.get("engine").is_some());
    assert!(get(&metrics, &["server", "requests"]) >= 1);

    h.shutdown();
    h.join();
}

#[test]
fn deeply_nested_bodies_are_400s_and_the_server_keeps_serving() {
    let h = serve(&opts(), None).unwrap();
    let addr = h.addr();

    // 100 KB of open brackets: without the parser's nesting bound this
    // overflows the connection thread's stack and aborts the server.
    let bad = call(addr, "POST", "/v1/select", &"[".repeat(100_000));
    assert_eq!(bad.status, 400);
    assert!(
        bad.body_str().contains("malformed JSON"),
        "{}",
        bad.body_str()
    );
    assert_eq!(call(addr, "GET", "/healthz", "").status, 200);

    h.shutdown();
    h.join();
}

#[test]
fn concurrent_identical_selects_share_one_engine_evaluation() {
    let engine = Arc::new(Engine::new(2));
    let h = serve(&opts(), Some(engine.clone())).unwrap();
    let addr = h.addr();
    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let resp = call(addr, "POST", "/v1/select", r#"{"bench":"gap"}"#);
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                    resp.body_str()
                })
            })
            .collect();
        handles.into_iter().map(|t| t.join().unwrap()).collect()
    });

    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "all responses byte-identical"
    );
    let body = parse(&bodies[0]).unwrap();
    assert_eq!(body.get("bench").and_then(Json::as_str), Some("gap"));
    assert_eq!(body.get("label").and_then(Json::as_str), Some("L"));
    assert!(
        !body.get("pthreads").unwrap().as_array().unwrap().is_empty(),
        "gap selects a non-empty set"
    );

    // One pipeline build, one selection — singleflight plus the LRU
    // absorbed the other five requests before they reached the engine.
    assert_eq!(engine.metrics().cache_misses(), 1, "one prepared build");
    assert_eq!(engine.metrics().cache_hits(), 0);
    let ej = engine.metrics().to_json();
    assert_eq!(
        get(&ej, &["stages", "select", "calls"]),
        1,
        "one PTHSEL run"
    );

    let metrics = parse(&call(addr, "GET", "/metrics", "").body_str()).unwrap();
    assert_eq!(get(&metrics, &["server", "singleflight", "leaders"]), 1);
    assert_eq!(
        get(&metrics, &["server", "singleflight", "joins"])
            + get(&metrics, &["server", "cache", "hits"]),
        n as u64 - 1,
        "every follower was deduplicated"
    );

    // A later identical request is an LRU hit: still no new engine work.
    let again = call(addr, "POST", "/v1/select", r#"{"bench":"gap"}"#);
    assert_eq!(again.body_str(), bodies[0]);
    assert_eq!(engine.metrics().cache_misses(), 1);
    let metrics = parse(&call(addr, "GET", "/metrics", "").body_str()).unwrap();
    assert!(get(&metrics, &["server", "cache", "hits"]) >= 1);

    h.shutdown();
    h.join();
}

/// Successive selects that retarget one prepared core (target, weight,
/// idle factor) or prepare another (memory latency) must answer exactly
/// what a fresh engine answers for the same body: nothing that depends on
/// the energy constants or `W` may carry over from one request to the
/// next through the shared core.
#[test]
fn successive_selects_on_shared_cores_match_fresh_engines() {
    let bodies = [
        r#"{"bench":"gap","target":"energy"}"#,
        r#"{"bench":"gap","target":"classic"}"#,
        r#"{"bench":"gap","target":"ed2"}"#,
        r#"{"bench":"gap","target":"weighted","weight":0.25}"#,
        r#"{"bench":"gap","target":"weighted","weight":0.5}"#,
        r#"{"bench":"gap","target":"weighted","weight":0.75}"#,
        r#"{"bench":"gap","target":"energy","idle_factor":0.1}"#,
        r#"{"bench":"gap","target":"weighted","weight":0.5,"idle_factor":0.1}"#,
        r#"{"bench":"gap","target":"ed2","mem_latency":300}"#,
        r#"{"bench":"gap","target":"weighted","weight":0.25,"mem_latency":300,"idle_factor":0.1}"#,
    ];
    let engine = Arc::new(Engine::new(2));
    let h = serve(&opts(), Some(engine.clone())).unwrap();
    let served: Vec<String> = bodies
        .iter()
        .map(|body| {
            let resp = call(h.addr(), "POST", "/v1/select", body);
            assert_eq!(resp.status, 200, "{body}: {}", resp.body_str());
            resp.body_str()
        })
        .collect();
    assert_eq!(
        engine.metrics().cache_misses(),
        2,
        "one core per memory latency"
    );
    assert_eq!(engine.metrics().cache_hits(), bodies.len() as u64 - 2);
    h.shutdown();
    h.join();

    for (body, got) in bodies.iter().zip(&served) {
        let fresh = serve(&opts(), Some(Arc::new(Engine::new(1)))).unwrap();
        let want = call(fresh.addr(), "POST", "/v1/select", body);
        fresh.shutdown();
        fresh.join();
        assert_eq!(got, &want.body_str(), "{body}");
    }
}

#[test]
fn experiment_responses_are_byte_identical_to_cli_json() {
    let engine = Arc::new(Engine::new(2));
    let cfg = ExpConfig::default();
    let h = serve(&opts(), Some(engine.clone())).unwrap();
    let addr = h.addr();

    // What `repro --json tab12` prints (modulo the trailing newline).
    let cli_tab12 = jobj! {
        "experiment" => "tab12",
        "data" => experiments::tab12::run(&cfg).to_json()
    }
    .to_string();
    let resp = call(addr, "POST", "/v1/experiments/tab12", "");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str(), cli_tab12);

    // fig2 runs on the *same* engine the server uses, so the memo cache
    // makes the second computation cheap and the outputs comparable.
    let resp = call(addr, "POST", "/v1/experiments/fig2", "");
    assert_eq!(resp.status, 200);
    let cli_fig2 = jobj! {
        "experiment" => "fig2",
        "data" => experiments::fig2::run(&engine, &cfg).to_json()
    }
    .to_string();
    assert_eq!(resp.body_str(), cli_fig2);

    // The body, when present, must agree with the path.
    let resp = call(addr, "POST", "/v1/experiments/tab12", r#"{"id":"fig2"}"#);
    assert_eq!(resp.status, 400);

    h.shutdown();
    h.join();
}

#[test]
fn sse_stream_delivers_progress_and_result() {
    let h = serve(&opts(), None).unwrap();
    let addr = h.addr();
    let stream = TcpStream::connect(addr).unwrap();
    write_request(
        &mut (&stream),
        "POST",
        "/v1/experiments/tab12?stream=sse",
        &[],
        b"",
    )
    .unwrap();
    let mut reader = BufReader::new(&stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim().is_empty() {
            break;
        }
        head.push_str(&line);
    }
    assert!(head.contains("text/event-stream"), "{head}");
    let mut frames = String::new();
    reader.read_to_string(&mut frames).unwrap();
    assert!(frames.contains("event: queued"), "{frames}");
    assert!(frames.contains("event: result"), "{frames}");
    assert!(
        frames.contains(r#"\"experiment\":\"tab12\""#)
            || frames.contains(r#""experiment":"tab12""#),
        "{frames}"
    );
    h.shutdown();
    h.join();
}

#[test]
fn shutdown_endpoint_drains_and_join_returns() {
    let h = serve(&opts(), None).unwrap();
    let addr = h.addr();
    assert_eq!(call(addr, "GET", "/healthz", "").status, 200);
    let resp = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str(), r#"{"status":"draining"}"#);
    h.join();
    let gone = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(s) => {
            let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(200)));
            write_request(&mut (&s), "GET", "/healthz", &[], b"").is_err()
                || read_response(&mut BufReader::new(&s)).is_err()
        }
    };
    assert!(gone, "listener gone after drain");
}

#[test]
fn campaigns_endpoint_sweeps_and_matches_the_library_path() {
    // Boot with a persistent store attached (exercises the warm-start
    // wiring in ServeOptions too).
    let store_dir =
        std::env::temp_dir().join(format!("preexec-serve-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let o = ServeOptions {
        store: Some(store_dir.to_string_lossy().into_owned()),
        ..opts()
    };
    let h = serve(&o, None).unwrap();
    let addr = h.addr();

    // Strict DTO validation happens before any engine work.
    assert_eq!(
        call(addr, "POST", "/v1/campaigns", r#"{"points":1}"#).status,
        400
    );
    let bad = call(addr, "POST", "/v1/campaigns", r#"{"benches":["quake"]}"#);
    assert_eq!(bad.status, 400);
    assert!(bad.body_str().contains("quake"), "{}", bad.body_str());
    assert_eq!(
        call(
            addr,
            "POST",
            "/v1/campaigns",
            r#"{"benches":[],"points":5}"#
        )
        .status,
        400,
        "empty grids are rejected, not defaulted"
    );

    let resp = call(
        addr,
        "POST",
        "/v1/campaigns",
        r#"{"benches":["gap"],"points":5}"#,
    );
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let j = parse(&resp.body_str()).unwrap();

    // The embedded sweep is byte-identical to the library (and so to the
    // `repro --json sweep` CLI) output for the same spec.
    let engine = Engine::from_env();
    let sweep_opts = campaign::SweepOptions {
        benches: vec!["gap".to_string()],
        points: 5,
        ..campaign::SweepOptions::default()
    };
    let expected = campaign::run_sweep(&engine, &ExpConfig::default(), &sweep_opts);
    assert_eq!(
        j.get("sweep").unwrap().to_string(),
        expected.to_json().to_string(),
        "server sweep drifted from the library path"
    );
    let pareto = j.get("pareto").expect("pareto report in response");
    let targets = pareto
        .get("groups")
        .and_then(|g| g.as_array())
        .and_then(|g| g.first())
        .and_then(|g| g.get("aggregate"))
        .and_then(|a| a.get("targets"))
        .and_then(|t| t.as_array())
        .expect("aggregate targets");
    assert_eq!(targets.len(), 4, "L, P2, P, E checks present");

    // Identical spec → served from the response cache (singleflight
    // key is the canonical DTO), still the same bytes.
    let again = call(
        addr,
        "POST",
        "/v1/campaigns",
        r#"{"benches":["gap"],"points":5}"#,
    );
    assert_eq!(again.status, 200);
    assert_eq!(again.body_str(), resp.body_str());

    h.shutdown();
    h.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}

//! The application half of `repro serve`: endpoint routing over the
//! experiment [`Engine`], built on the generic `preexec-server` kit.
//!
//! Endpoints:
//!
//! - `GET /healthz` — liveness.
//! - `GET /metrics` — serving-layer counters (admission, singleflight,
//!   cache, deadlines) plus the engine's full metrics snapshot.
//! - `POST /v1/select` — run PTHSEL(+E) for one benchmark/target, with
//!   optional config overrides; returns the selected p-thread set and
//!   its predicted LADV/EADV.
//! - `POST /v1/sim` — select *and* simulate; returns speedup / energy /
//!   ED ratios vs. the baseline plus the full simulator report.
//! - `POST /v1/experiments/{tab12,fig2,fig5a}` — regenerate a paper
//!   artifact; the body is byte-identical to `repro --json <id>` output.
//! - `POST /v1/campaigns` — run a W-continuum sweep + Pareto analysis
//!   (see `preexec_harness::campaign`); the body is the strict
//!   [`CampaignRequest`] spec, the response carries both the sweep and
//!   the Pareto report. Long-running: poll with `?stream=sse` for
//!   engine progress.
//! - `POST /v1/atlas` — run a knob-grid campaign over *generated*
//!   scenarios (see `preexec_harness::atlas`); the body is the strict
//!   [`AtlasRequest`] spec, the response is the full atlas result
//!   (admission block, sweep, E-vs-L winners). Also long-running and
//!   SSE-capable.
//! - `POST /v1/adapt` — run the online W controller (see
//!   `preexec_harness::adapt`); the body is the strict [`AdaptRequest`],
//!   the response is the regret report.
//! - `POST /v1/shutdown` — graceful drain.
//!
//! Expensive endpoints go through the kit's full serving path: one
//! request cache keyed on the request's canonical DTO form (concurrent
//! identical requests share one computation, a `200` stays cached),
//! bounded admission (429 on overload), per-request deadlines (504), and
//! optional SSE progress (`?stream=sse`) fed by the engine's progress
//! sink.

use crate::engine::{Engine, ProgressSink};
use crate::experiments;
use crate::metrics::Stage;
use crate::setup::{check_bench, ExpConfig};
use crate::{adapt, atlas, campaign};
use preexec_json::dto::{
    AdaptRequest, AtlasRequest, CampaignRequest, EvalRequest, ExperimentRequest, PThreadSummary,
    SelectResponse, SimResponse, EXPERIMENT_IDS,
};
use preexec_json::{jobj, parse, Json, ToJson};
use preexec_server::{
    Bus, Request, Response, Route, ServerConfig, ServerCtx, ServerHandle, Service,
};
use pthsel::{Selection, SelectionTarget};
use std::sync::Arc;

/// Decodes a request body with a strict DTO decoder (`T::from_json`), or
/// produces the 400. An empty body reads as `{}`: every POST endpoint
/// treats "no body" as "all defaults".
fn decode_body<T>(req: &Request, decode: fn(&Json) -> Result<T, String>) -> Result<T, Response> {
    let body = req
        .body_str()
        .map_err(|e| Response::error(400, &format!("body is not utf-8: {e}")))?;
    let json = if body.trim().is_empty() {
        Json::object()
    } else {
        parse(body).map_err(|e| Response::error(400, &format!("malformed JSON: {e}")))?
    };
    decode(&json).map_err(|e| Response::error(400, &e))
}

/// Every name in `benches` must resolve ([`check_bench`]); the 400
/// names the first one that does not.
fn check_benches(benches: Option<&[String]>) -> Result<(), Response> {
    benches
        .unwrap_or_default()
        .iter()
        .try_for_each(|b| check_bench(b))
        .map_err(|e| Response::error(400, &e))
}

/// How `repro serve` shapes the server.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads bridging requests onto the engine (0 ⇒ host
    /// parallelism).
    pub workers: usize,
    /// Admission-queue depth; beyond it requests get 429.
    pub queue_cap: usize,
    /// Default per-request deadline (overridable via `x-deadline-ms`).
    pub deadline_ms: u64,
    /// Also narrate engine progress on stderr.
    pub progress: bool,
    /// Persistent result-store directory for warm starts: baseline and
    /// optimized timing runs are served from (and written back to) disk.
    pub store: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7071".to_string(),
            workers: 0,
            queue_cap: 64,
            deadline_ms: 300_000,
            progress: false,
            store: None,
        }
    }
}

/// Maps a loadgen endpoint shorthand to `(method, path, body)` —
/// shared by `repro loadgen` and the CI smoke so they can't drift.
pub fn endpoint(name: &str) -> Option<(&'static str, String, String)> {
    match name {
        "healthz" => Some(("GET", "/healthz".to_string(), String::new())),
        "metrics" => Some(("GET", "/metrics".to_string(), String::new())),
        "select" => Some((
            "POST",
            "/v1/select".to_string(),
            r#"{"bench":"gap"}"#.to_string(),
        )),
        "sim" => Some((
            "POST",
            "/v1/sim".to_string(),
            r#"{"bench":"gap"}"#.to_string(),
        )),
        id if EXPERIMENT_IDS.contains(&id) => {
            Some(("POST", format!("/v1/experiments/{id}"), String::new()))
        }
        "campaigns" => Some((
            "POST",
            "/v1/campaigns".to_string(),
            r#"{"benches":["gap"],"points":5}"#.to_string(),
        )),
        "atlas" => Some((
            "POST",
            "/v1/atlas".to_string(),
            r#"{"miss_rate":[0,0.5],"footprint":[65536]}"#.to_string(),
        )),
        "adapt" => Some((
            "POST",
            "/v1/adapt".to_string(),
            r#"{"benches":["gap"],"points":5}"#.to_string(),
        )),
        "shutdown" => Some(("POST", "/v1/shutdown".to_string(), String::new())),
        _ => None,
    }
}

/// Resolves the validated DTO target name to the selector's enum.
fn parse_target(name: &str, weight: Option<f64>) -> SelectionTarget {
    match name {
        "classic" => SelectionTarget::Classic,
        "energy" => SelectionTarget::Energy,
        "ed" => SelectionTarget::Ed,
        "ed2" => SelectionTarget::Ed2,
        "weighted" => SelectionTarget::Weighted(weight.unwrap_or(0.5)),
        _ => SelectionTarget::Latency,
    }
}

/// Report label for a target (`"W{w}"` for arbitrary weights).
fn target_label(target: SelectionTarget) -> String {
    match target {
        SelectionTarget::Weighted(w) => format!("W{w}"),
        t => t.label().to_string(),
    }
}

/// Applies a request's config overrides to the service's base config.
fn config_for(req: &EvalRequest, base: &ExpConfig) -> ExpConfig {
    let mut cfg = *base;
    if let Some(cap) = req.trace_cap {
        cfg.trace_cap = cap;
    }
    if let Some(lat) = req.mem_latency {
        cfg.sim = cfg.sim.with_mem_latency(lat);
    }
    if let Some(idle) = req.idle_factor {
        cfg.energy = cfg.energy.with_idle_factor(idle);
    }
    cfg
}

fn summarize(selection: &Selection) -> Vec<PThreadSummary> {
    selection
        .pthreads
        .iter()
        .map(|p| PThreadSummary {
            trigger_pc: p.trigger_pc as u64,
            body_len: p.body.len() as u64,
            targets: p.targets.len() as u64,
            dc_trig: p.dc_trig as f64,
            dc_ptcm: p.dc_ptcm as f64,
            ladv: p.ladv_agg,
            eadv: p.eadv_agg,
        })
        .collect()
}

/// The [`Service`] implementation over one shared [`Engine`].
pub struct EngineService {
    engine: Arc<Engine>,
    cfg: ExpConfig,
}

impl EngineService {
    /// A service evaluating requests on `engine` with `cfg` as the base
    /// (per-request overrides layer on top).
    pub fn new(engine: Arc<Engine>, cfg: ExpConfig) -> EngineService {
        EngineService { engine, cfg }
    }

    /// Parses + validates an eval body, or produces the 400.
    fn eval_request(&self, req: &Request) -> Result<EvalRequest, Response> {
        let eval = decode_body(req, EvalRequest::from_json)?;
        check_bench(&eval.bench).map_err(|e| Response::error(400, &e))?;
        Ok(eval)
    }

    fn route_select(&self, req: &Request) -> Route {
        let eval = match self.eval_request(req) {
            Ok(e) => e,
            Err(resp) => return Route::Inline(resp),
        };
        let engine = self.engine.clone();
        let cfg = config_for(&eval, &self.cfg);
        let target = parse_target(&eval.target, eval.weight);
        Route::Work {
            key: Some(format!("select|{}", eval.canonical())),
            compute: Box::new(move || {
                let prep = engine.prepared(&eval.bench, &cfg);
                let selection = engine.metrics().time(Stage::Select, || prep.select(target));
                let resp = SelectResponse {
                    bench: eval.bench.clone(),
                    target: eval.target.clone(),
                    label: target_label(target),
                    pthreads: summarize(&selection),
                    predicted_ladv: selection.predicted_ladv,
                    predicted_eadv: selection.predicted_eadv,
                };
                Response::json(200, &resp.to_json())
            }),
        }
    }

    fn route_sim(&self, req: &Request) -> Route {
        let eval = match self.eval_request(req) {
            Ok(e) => e,
            Err(resp) => return Route::Inline(resp),
        };
        let engine = self.engine.clone();
        let cfg = config_for(&eval, &self.cfg);
        let target = parse_target(&eval.target, eval.weight);
        Route::Work {
            key: Some(format!("sim|{}", eval.canonical())),
            compute: Box::new(move || {
                let prep = engine.prepared(&eval.bench, &cfg);
                let result = engine.evaluate(&prep, target);
                let base = &prep.baseline;
                let resp = SimResponse {
                    bench: eval.bench.clone(),
                    target: eval.target.clone(),
                    speedup: base.cycles as f64 / result.report.cycles as f64,
                    energy_ratio: result.report.total_energy(&cfg.energy)
                        / base.total_energy(&cfg.energy),
                    ed_ratio: result.report.ed(&cfg.energy) / base.ed(&cfg.energy),
                    report: result.report.to_json(),
                };
                Response::json(200, &resp.to_json())
            }),
        }
    }

    fn route_experiment(&self, req: &Request, id: &str) -> Route {
        let exp = match ExperimentRequest::from_id(id) {
            Ok(e) => e,
            Err(e) => return Route::Inline(Response::error(404, &e)),
        };
        // A body is optional; when present it must be the strict DTO and
        // agree with the path.
        if let Ok(body) = req.body_str() {
            if !body.trim().is_empty() {
                match parse(body).and_then(|j| ExperimentRequest::from_json(&j)) {
                    Ok(from_body) if from_body == exp => {}
                    Ok(from_body) => {
                        return Route::Inline(Response::error(
                            400,
                            &format!("body id {:?} contradicts path id {id:?}", from_body.id),
                        ))
                    }
                    Err(e) => return Route::Inline(Response::error(400, &e)),
                }
            }
        }
        let engine = self.engine.clone();
        let cfg = self.cfg;
        let id = exp.id;
        Route::Work {
            key: Some(format!("exp|{id}")),
            compute: Box::new(move || {
                // Exactly the `repro --json <id>` envelope, so server
                // responses are byte-identical to CLI output.
                let data = match id.as_str() {
                    "tab12" => experiments::tab12::run(&cfg).to_json(),
                    "fig2" => experiments::fig2::run(&engine, &cfg).to_json(),
                    _ => experiments::fig5::idle_factor_sweep(&engine, &cfg).to_json(),
                };
                Response::json(200, &jobj! { "experiment" => id, "data" => data })
            }),
        }
    }

    fn route_campaign(&self, req: &Request) -> Route {
        let creq = match decode_body(req, CampaignRequest::from_json)
            .and_then(|c| check_benches(c.benches.as_deref()).map(|()| c))
        {
            Ok(c) => c,
            Err(resp) => return Route::Inline(resp),
        };
        let defaults = campaign::SweepOptions::default();
        let opts = campaign::SweepOptions {
            benches: creq.benches.clone().unwrap_or(defaults.benches),
            points: creq.points.map(|p| p as usize).unwrap_or(defaults.points),
            mem_latencies: creq.mem_latencies.clone().unwrap_or(defaults.mem_latencies),
            idle_factors: creq.idle_factors.clone().unwrap_or(defaults.idle_factors),
            ..defaults
        };
        let tolerance = creq.tolerance.unwrap_or(0.005);
        let engine = self.engine.clone();
        let cfg = self.cfg;
        Route::Work {
            key: Some(format!("campaign|{}", creq.canonical())),
            compute: Box::new(move || {
                let sweep = campaign::run_sweep(&engine, &cfg, &opts);
                match campaign::pareto(&sweep, tolerance) {
                    Ok(report) => Response::json(
                        200,
                        &jobj! {
                            "sweep" => sweep.to_json(),
                            "pareto" => report.to_json()
                        },
                    ),
                    Err(e) => Response::error(500, &e),
                }
            }),
        }
    }

    fn route_atlas(&self, req: &Request) -> Route {
        let areq = match decode_body(req, AtlasRequest::from_json) {
            Ok(a) => a,
            Err(resp) => return Route::Inline(resp),
        };
        // Project the request's present knobs onto the generator spec
        // through its one JSON reader, which rejects a value too large for
        // its knob; knob bounds are validated by `GenSpec::scenarios`
        // inside `run_atlas`.
        let mut knobs = areq.to_json();
        if let Json::Object(fields) = &mut knobs {
            fields
                .retain(|(k, v)| preexec_gen::SPEC_KEYS.contains(&k.as_str()) && *v != Json::Null);
        }
        let spec = match preexec_gen::GenSpec::from_json(&knobs) {
            Ok(spec) => spec,
            Err(e) => return Route::Inline(Response::error(400, &e)),
        };
        let defaults = atlas::AtlasOptions::default();
        let opts = atlas::AtlasOptions {
            spec,
            points: areq.points.map(|p| p as usize).unwrap_or(defaults.points),
            mem_latencies: areq.mem_latencies.clone().unwrap_or(defaults.mem_latencies),
            idle_factors: areq.idle_factors.clone().unwrap_or(defaults.idle_factors),
            ..defaults
        };
        let engine = self.engine.clone();
        let cfg = self.cfg;
        Route::Work {
            key: Some(format!("atlas|{}", areq.canonical())),
            compute: Box::new(move || match atlas::run_atlas(&engine, &cfg, &opts) {
                Ok(result) => Response::json(200, &result.to_json()),
                // A knob out of range or an admission failure is a bad
                // grid, not a server fault.
                Err(e) => Response::error(400, &e),
            }),
        }
    }

    fn route_adapt(&self, req: &Request) -> Route {
        let areq = match decode_body(req, AdaptRequest::from_json)
            .and_then(|a| check_benches(a.benches.as_deref()).map(|()| a))
        {
            Ok(a) => a,
            Err(resp) => return Route::Inline(resp),
        };
        let defaults = adapt::AdaptOptions::default();
        let objective = preexec_controller::Objective::parse(
            areq.objective.as_deref().unwrap_or("min-ed"),
            areq.slowdown.unwrap_or(5.0),
        )
        .unwrap_or(defaults.objective);
        let opts = adapt::AdaptOptions {
            benches: areq.benches.clone().unwrap_or(defaults.benches),
            objective,
            points: areq.points.map(|p| p as usize).unwrap_or(defaults.points),
            stride: areq.stride.unwrap_or(defaults.stride).max(1),
            epsilon: areq.epsilon.unwrap_or(defaults.epsilon),
            ..defaults
        };
        let engine = self.engine.clone();
        let cfg = self.cfg;
        Route::Work {
            key: Some(format!("adapt|{}", areq.canonical())),
            compute: Box::new(move || {
                let report = adapt::run_adapt(&engine, &cfg, &opts);
                Response::json(200, &report.to_json())
            }),
        }
    }
}

impl Service for EngineService {
    fn route(&self, req: &Request, ctx: &ServerCtx<'_>) -> Route {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Route::Inline(Response::json(200, &jobj! { "status" => "ok" })),
            ("GET", "/metrics") => Route::Inline(Response::json(
                200,
                &jobj! {
                    "server" => ctx.metrics.to_json(ctx.queue_depth),
                    "engine" => self.engine.metrics().to_json(),
                    "threads" => self.engine.threads()
                },
            )),
            ("POST", "/v1/select") => self.route_select(req),
            ("POST", "/v1/sim") => self.route_sim(req),
            ("POST", "/v1/campaigns") => self.route_campaign(req),
            ("POST", "/v1/atlas") => self.route_atlas(req),
            ("POST", "/v1/adapt") => self.route_adapt(req),
            ("POST", "/v1/shutdown") => {
                Route::Shutdown(Response::json(200, &jobj! { "status" => "draining" }))
            }
            ("POST", path) if path.starts_with("/v1/experiments/") => {
                self.route_experiment(req, &path["/v1/experiments/".len()..])
            }
            _ => Route::Inline(Response::error(404, "no such endpoint")),
        }
    }
}

/// Boots the selection service. When `engine` is `None` a fresh
/// [`Engine::from_env`] is created with its progress sink wired onto the
/// server's SSE bus (plus stderr when `opts.progress`); passing an
/// engine shares its memo caches with the caller (its progress sink is
/// left as-is).
pub fn serve(opts: &ServeOptions, engine: Option<Arc<Engine>>) -> std::io::Result<ServerHandle> {
    let bus = Arc::new(Bus::new());
    let engine = match engine {
        Some(e) => e,
        None => {
            let sink_bus = bus.clone();
            let to_stderr = opts.progress;
            let sink: ProgressSink = Arc::new(move |line: &str| {
                sink_bus.publish(line);
                if to_stderr {
                    eprintln!("[engine] {line}");
                }
            });
            let mut engine = Engine::from_env().with_progress_sink(sink);
            if let Some(dir) = &opts.store {
                engine = engine.with_store(Arc::new(preexec_campaign::Store::open(dir)?));
            }
            Arc::new(engine)
        }
    };
    let service = Arc::new(EngineService::new(engine, ExpConfig::default()));
    let cfg = ServerConfig {
        addr: opts.addr.clone(),
        workers: if opts.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            opts.workers
        },
        queue_cap: opts.queue_cap,
        default_deadline_ms: opts.deadline_ms,
        ..ServerConfig::default()
    };
    preexec_server::start_with_bus(cfg, service, bus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_map_covers_the_cli_names() {
        for name in [
            "healthz",
            "metrics",
            "select",
            "sim",
            "campaigns",
            "atlas",
            "adapt",
            "shutdown",
        ] {
            assert!(endpoint(name).is_some(), "{name}");
        }
        let (method, path, body) = endpoint("campaigns").unwrap();
        assert_eq!((method, path.as_str()), ("POST", "/v1/campaigns"));
        assert!(
            preexec_json::dto::CampaignRequest::from_json(&parse(&body).unwrap()).is_ok(),
            "smoke body must satisfy the strict DTO"
        );
        let (method, path, body) = endpoint("atlas").unwrap();
        assert_eq!((method, path.as_str()), ("POST", "/v1/atlas"));
        assert!(
            preexec_json::dto::AtlasRequest::from_json(&parse(&body).unwrap()).is_ok(),
            "atlas smoke body must satisfy the strict DTO"
        );
        let (method, path, body) = endpoint("adapt").unwrap();
        assert_eq!((method, path.as_str()), ("POST", "/v1/adapt"));
        assert!(
            preexec_json::dto::AdaptRequest::from_json(&parse(&body).unwrap()).is_ok(),
            "adapt smoke body must satisfy the strict DTO"
        );
        for id in EXPERIMENT_IDS {
            let (method, path, _) = endpoint(id).unwrap();
            assert_eq!(method, "POST");
            assert_eq!(path, format!("/v1/experiments/{id}"));
        }
        assert!(endpoint("fig99").is_none());
    }

    #[test]
    fn target_parsing_and_labels() {
        assert_eq!(parse_target("classic", None), SelectionTarget::Classic);
        assert_eq!(parse_target("latency", None), SelectionTarget::Latency);
        assert_eq!(parse_target("energy", None), SelectionTarget::Energy);
        assert_eq!(
            parse_target("weighted", Some(0.25)),
            SelectionTarget::Weighted(0.25)
        );
        assert_eq!(target_label(SelectionTarget::Ed), "P");
        assert_eq!(target_label(SelectionTarget::Weighted(2.0)), "W2");
    }

    #[test]
    fn config_overrides_apply() {
        let base = ExpConfig::default();
        let req = EvalRequest {
            bench: "gap".to_string(),
            target: "latency".to_string(),
            weight: None,
            trace_cap: Some(123),
            mem_latency: Some(300),
            idle_factor: None,
        };
        let cfg = config_for(&req, &base);
        assert_eq!(cfg.trace_cap, 123);
        assert_ne!(format!("{:?}", cfg.sim), format!("{:?}", base.sim));
        assert_eq!(format!("{:?}", cfg.energy), format!("{:?}", base.energy));
    }
}

//! Request/response DTOs for the serving layer (`preexec-server` +
//! `preexec-harness::service`).
//!
//! These are plain-data shapes with two disciplines the service relies
//! on:
//!
//! - **Strict parsing** — [`EvalRequest::from_json`] and friends reject
//!   unknown, repeated and wrongly typed fields with a field-named error,
//!   so a typo in a client request is a 400, not a silently ignored
//!   option. Each decoder is generated from the same field list as
//!   `to_json` (see [`impl_json_object!`](crate::impl_json_object)); the
//!   `check` functions below carry the rules a field list cannot state.
//! - **Canonical serialization** — `to_json` writes every field in a
//!   fixed order with absent options as `null`, so the serialized form
//!   doubles as the server's request-cache key (deduplication and
//!   response caching): two requests that mean the same thing hash to
//!   the same bytes.

use crate::{Json, ToJson};

/// Experiment identifiers the service exposes under
/// `POST /v1/experiments/{id}`.
pub const EXPERIMENT_IDS: [&str; 3] = ["tab12", "fig2", "fig5a"];

/// Selection-target names accepted in [`EvalRequest::target`].
pub const TARGET_NAMES: [&str; 6] = ["classic", "latency", "energy", "ed", "ed2", "weighted"];

/// `points`, when present, lies in 2..=65: the cap keeps one request's
/// work bounded.
fn check_points(what: &str, points: Option<u64>) -> Result<(), String> {
    match points {
        Some(p) if !(2..=65).contains(&p) => {
            Err(format!("{what}: \"points\" must be in 2..=65, got {p}"))
        }
        _ => Ok(()),
    }
}

/// A grid array, when present, is non-empty: omitting it means "the
/// default grid", an empty one would mean an empty sweep.
fn check_grid<T>(what: &str, key: &str, grid: &Option<Vec<T>>) -> Result<(), String> {
    match grid {
        Some(v) if v.is_empty() => Err(format!(
            "{what}: field {key:?} must not be empty (omit it for the default)"
        )),
        _ => Ok(()),
    }
}

/// A fraction of the paper's model — the composition weight `W`
/// (equation C2) or an idle-power factor — is finite and in `[0, 1]`.
pub fn check_unit(what: &str, key: &str, value: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{what}: {key:?} must be in [0, 1], got {value:?}"))
    }
}

/// An `idle_factors` grid, when present, is non-empty and every entry
/// lies in `[0, 1]`.
fn check_idle_factors(what: &str, grid: &Option<Vec<f64>>) -> Result<(), String> {
    check_grid(what, "idle_factors", grid)?;
    grid.iter()
        .flatten()
        .try_for_each(|&f| check_unit(what, "idle_factors", f))
}

/// Body of `POST /v1/select` and `POST /v1/sim`: which benchmark to
/// evaluate, under which selection target, with optional config
/// overrides.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalRequest {
    /// Benchmark name (must be one of the suite's workloads).
    pub bench: String,
    /// Selection target: one of [`TARGET_NAMES`]. Defaults to
    /// `"latency"` when absent.
    pub target: String,
    /// EADV weight `W` for `target == "weighted"` (P-thread selection
    /// objective `LADV − W·(−EADV)`); ignored otherwise.
    pub weight: Option<f64>,
    /// Override for the per-benchmark trace-length cap.
    pub trace_cap: Option<u64>,
    /// Override for main-memory latency in cycles.
    pub mem_latency: Option<u64>,
    /// Override for the idle-power fraction of the energy model.
    pub idle_factor: Option<f64>,
}

crate::impl_json_object!(EvalRequest {
    bench,
    target = "latency",
    weight,
    trace_cap,
    mem_latency,
    idle_factor,
} decode, check = EvalRequest::check);

impl EvalRequest {
    /// `target` is one of [`TARGET_NAMES`], `"weighted"` comes with a
    /// `weight`, and `weight` and `idle_factor` lie in `[0, 1]`.
    fn check(&self) -> Result<(), String> {
        let what = "EvalRequest";
        if !TARGET_NAMES.contains(&self.target.as_str()) {
            return Err(format!(
                "{what}: unknown target {:?} (expected one of {TARGET_NAMES:?})",
                self.target
            ));
        }
        if self.target == "weighted" && self.weight.is_none() {
            return Err(format!("{what}: target \"weighted\" requires \"weight\""));
        }
        if let Some(w) = self.weight {
            check_unit(what, "weight", w)?;
        }
        if let Some(f) = self.idle_factor {
            check_unit(what, "idle_factor", f)?;
        }
        Ok(())
    }

    /// The canonical byte form used as the server's request-cache key.
    pub fn canonical(&self) -> String {
        self.to_json().to_string()
    }
}

/// Body of `POST /v1/experiments/{id}` — currently empty (the id rides
/// in the path), kept as a struct so future knobs stay strict.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentRequest {
    /// Experiment identifier: one of [`EXPERIMENT_IDS`].
    pub id: String,
}

crate::impl_json_object!(ExperimentRequest { id } decode, check = |r: &ExperimentRequest| {
    ExperimentRequest::from_id(&r.id).map(drop)
});

impl ExperimentRequest {
    /// Validates the experiment id from the URL path (body is unused).
    pub fn from_id(id: &str) -> Result<ExperimentRequest, String> {
        if EXPERIMENT_IDS.contains(&id) {
            Ok(ExperimentRequest { id: id.to_string() })
        } else {
            Err(format!(
                "unknown experiment {id:?} (expected one of {EXPERIMENT_IDS:?})"
            ))
        }
    }
}

/// Body of `POST /v1/campaigns`: a declarative W-continuum sweep spec
/// plus Pareto analysis. Every field is optional; an empty body (or
/// `{}`) means "the default campaign".
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRequest {
    /// Benchmarks to sweep (default: the full suite).
    pub benches: Option<Vec<String>>,
    /// Evenly spaced W-grid points over `[0, 1]`; the paper's four
    /// anchors are always added (default 17).
    pub points: Option<u64>,
    /// Machine grid: main-memory latencies in cycles.
    pub mem_latencies: Option<Vec<u64>>,
    /// Energy grid: idle-power fractions.
    pub idle_factors: Option<Vec<f64>>,
    /// Frontier-distance tolerance for the paper-target checks
    /// (default 0.005).
    pub tolerance: Option<f64>,
}

crate::impl_json_object!(CampaignRequest {
    benches,
    points,
    mem_latencies,
    idle_factors,
    tolerance,
} decode, check = CampaignRequest::check);

impl CampaignRequest {
    /// Grid arrays, when present, are non-empty; `points` is capped;
    /// idle factors lie in `[0, 1]`.
    fn check(&self) -> Result<(), String> {
        let what = "CampaignRequest";
        check_points(what, self.points)?;
        check_grid(what, "benches", &self.benches)?;
        check_grid(what, "mem_latencies", &self.mem_latencies)?;
        check_idle_factors(what, &self.idle_factors)
    }

    /// The canonical byte form used as the server's request-cache key.
    pub fn canonical(&self) -> String {
        self.to_json().to_string()
    }
}

/// Body of `POST /v1/atlas`: a knob-grid spec over *generated* scenarios
/// (the `preexec-gen` knobs) plus the campaign grid. Every field is
/// optional; `{}` means "the default single-scenario atlas".
#[derive(Clone, Debug, PartialEq)]
pub struct AtlasRequest {
    /// Data-layout seed shared by every generated scenario.
    pub seed: Option<u64>,
    /// Grid for the dependence-slice length knob.
    pub slice_len: Option<Vec<u64>>,
    /// Grid for the induction-chain depth knob.
    pub induction_depth: Option<Vec<u64>>,
    /// Grid for the branch-divergence probability knob.
    pub branch_divergence: Option<Vec<f64>>,
    /// Grid for the problem-load miss-rate knob.
    pub miss_rate: Option<Vec<f64>>,
    /// Grid for the miss-clustering (Markov stay-probability) knob.
    pub miss_clustering: Option<Vec<f64>>,
    /// Grid for the data-footprint knob, bytes.
    pub footprint: Option<Vec<u64>>,
    /// Evenly spaced W-grid points over `[0, 1]` (anchors always added).
    pub points: Option<u64>,
    /// Machine grid: main-memory latencies in cycles.
    pub mem_latencies: Option<Vec<u64>>,
    /// Energy grid: idle-power fractions.
    pub idle_factors: Option<Vec<f64>>,
}

crate::impl_json_object!(AtlasRequest {
    seed,
    slice_len,
    induction_depth,
    branch_divergence,
    miss_rate,
    miss_clustering,
    footprint,
    points,
    mem_latencies,
    idle_factors,
} decode, check = AtlasRequest::check);

impl AtlasRequest {
    /// Knob and campaign grid arrays, when present, are non-empty;
    /// `points` is capped and idle factors checked as in
    /// [`CampaignRequest`]. Knob *ranges* are validated downstream by the
    /// generator, which owns the bounds.
    fn check(&self) -> Result<(), String> {
        let what = "AtlasRequest";
        check_points(what, self.points)?;
        check_grid(what, "slice_len", &self.slice_len)?;
        check_grid(what, "induction_depth", &self.induction_depth)?;
        check_grid(what, "branch_divergence", &self.branch_divergence)?;
        check_grid(what, "miss_rate", &self.miss_rate)?;
        check_grid(what, "miss_clustering", &self.miss_clustering)?;
        check_grid(what, "footprint", &self.footprint)?;
        check_grid(what, "mem_latencies", &self.mem_latencies)?;
        check_idle_factors(what, &self.idle_factors)
    }

    /// The canonical byte form used as the server's request-cache key.
    pub fn canonical(&self) -> String {
        self.to_json().to_string()
    }
}

/// Objective names accepted in [`AdaptRequest::objective`].
pub const OBJECTIVE_NAMES: [&str; 4] = ["min-e", "min-energy", "min-ed", "min-ed2"];

/// Body of `POST /v1/adapt`: an adaptive-controller run (phase
/// detection + online W search + regret vs. the offline frontier).
/// Every field is optional; `{}` means "the default run over the full
/// paper suite with the min-ED objective".
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptRequest {
    /// Benchmarks (or `gen:` scenarios) to adapt on.
    pub benches: Option<Vec<String>>,
    /// Objective name: one of [`OBJECTIVE_NAMES`].
    pub objective: Option<String>,
    /// Allowed slowdown percent for the `min-e` objective.
    pub slowdown: Option<f64>,
    /// Evenly spaced W-grid points over `[0, 1]` (anchors always added).
    pub points: Option<u64>,
    /// Interval-log stride in cycles for phase detection.
    pub stride: Option<u64>,
    /// Convergence/regret tolerance on (time, energy) ratios.
    pub epsilon: Option<f64>,
}

crate::impl_json_object!(AdaptRequest {
    benches,
    objective,
    slowdown,
    points,
    stride,
    epsilon,
} decode, check = AdaptRequest::check);

impl AdaptRequest {
    /// `points` is capped as in [`CampaignRequest`]; the objective name
    /// must be known.
    fn check(&self) -> Result<(), String> {
        let what = "AdaptRequest";
        check_points(what, self.points)?;
        if let Some(o) = &self.objective {
            if !OBJECTIVE_NAMES.contains(&o.as_str()) {
                return Err(format!(
                    "{what}: unknown objective {o:?} (expected one of {OBJECTIVE_NAMES:?})"
                ));
            }
        }
        check_grid(what, "benches", &self.benches)
    }

    /// The canonical byte form used as the server's request-cache key.
    pub fn canonical(&self) -> String {
        self.to_json().to_string()
    }
}

/// One selected p-thread, summarized for the wire (the full slice body
/// stays server-side).
#[derive(Clone, Debug, PartialEq)]
pub struct PThreadSummary {
    /// Trigger PC (instruction address that launches the p-thread).
    pub trigger_pc: u64,
    /// Instructions in the p-thread body.
    pub body_len: u64,
    /// Problem loads this p-thread prefetches.
    pub targets: u64,
    /// Expected triggers per 1k committed instructions.
    pub dc_trig: f64,
    /// Expected p-thread instructions per 1k committed (overhead).
    pub dc_ptcm: f64,
    /// Aggregate latency advantage (cycles saved per 1k committed).
    pub ladv: f64,
    /// Aggregate energy advantage (negative = costs energy).
    pub eadv: f64,
}

crate::impl_json_object!(PThreadSummary {
    trigger_pc,
    body_len,
    targets,
    dc_trig,
    dc_ptcm,
    ladv,
    eadv,
} decode);

/// Body of a `POST /v1/select` 200 response.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectResponse {
    /// Echo of the requested benchmark.
    pub bench: String,
    /// Echo of the selection target.
    pub target: String,
    /// Selection-objective label (`"O"`, `"L"`, `"E"`, `"P"`, `"P2"`, or
    /// a weighted form).
    pub label: String,
    /// The chosen p-thread set.
    pub pthreads: Vec<PThreadSummary>,
    /// Predicted aggregate latency advantage of the set.
    pub predicted_ladv: f64,
    /// Predicted aggregate energy advantage of the set.
    pub predicted_eadv: f64,
}

crate::impl_json_object!(SelectResponse {
    bench,
    target,
    label,
    pthreads,
    predicted_ladv,
    predicted_eadv,
} decode);

/// Body of a `POST /v1/sim` 200 response: the gains of pre-execution
/// under the selected set, plus the full simulator report verbatim.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResponse {
    /// Echo of the requested benchmark.
    pub bench: String,
    /// Echo of the selection target.
    pub target: String,
    /// Speedup over the no-pre-execution baseline (>1 is faster).
    pub speedup: f64,
    /// Energy ratio vs. baseline (<1 uses less energy).
    pub energy_ratio: f64,
    /// Energy-delay ratio vs. baseline.
    pub ed_ratio: f64,
    /// The full [`SimReport`](../../preexec_harness) JSON, passed
    /// through verbatim (kept opaque on decode).
    pub report: Json,
}

crate::impl_json_object!(SimResponse {
    bench,
    target,
    speedup,
    energy_ratio,
    ed_ratio,
    report,
} decode);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn eval_request_defaults_and_canonical_key() {
        let r = EvalRequest::from_json(&parse(r#"{"bench":"gap"}"#).unwrap()).unwrap();
        assert_eq!(r.target, "latency");
        assert_eq!(
            r.canonical(),
            r#"{"bench":"gap","target":"latency","weight":null,"trace_cap":null,"mem_latency":null,"idle_factor":null}"#
        );
        // Field order in the body doesn't change the canonical key.
        let r2 = EvalRequest::from_json(&parse(r#"{"target":"latency","bench":"gap"}"#).unwrap())
            .unwrap();
        assert_eq!(r.canonical(), r2.canonical());
    }

    #[test]
    fn eval_request_rejects_unknowns_and_bad_targets() {
        let bad = parse(r#"{"bench":"gap","banch":"oops"}"#).unwrap();
        assert!(EvalRequest::from_json(&bad).unwrap_err().contains("banch"));
        let bad = parse(r#"{"bench":"gap","target":"speed"}"#).unwrap();
        assert!(EvalRequest::from_json(&bad).unwrap_err().contains("speed"));
        let bad = parse(r#"{"target":"latency"}"#).unwrap();
        assert!(EvalRequest::from_json(&bad).unwrap_err().contains("bench"));
        let bad = parse(r#"{"bench":"gap","target":"weighted"}"#).unwrap();
        assert!(EvalRequest::from_json(&bad).unwrap_err().contains("weight"));
        for (body, field) in [
            (
                r#"{"bench":"gap","target":"weighted","weight":2}"#,
                "weight",
            ),
            (
                r#"{"bench":"gap","target":"weighted","weight":-1}"#,
                "weight",
            ),
            (r#"{"bench":"gap","idle_factor":-1}"#, "idle_factor"),
            (r#"{"bench":"gap","idle_factor":1e308}"#, "idle_factor"),
        ] {
            let err = EvalRequest::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(
                err.contains(field) && err.contains("[0, 1]"),
                "{body}: {err}"
            );
        }
        let edges = r#"{"bench":"gap","target":"weighted","weight":1,"idle_factor":0}"#;
        assert!(EvalRequest::from_json(&parse(edges).unwrap()).is_ok());
    }

    #[test]
    fn campaign_request_is_strict_with_bounded_points() {
        let r = CampaignRequest::from_json(&parse("{}").unwrap()).unwrap();
        assert_eq!(
            r,
            CampaignRequest {
                benches: None,
                points: None,
                mem_latencies: None,
                idle_factors: None,
                tolerance: None,
            }
        );
        let r = CampaignRequest::from_json(
            &parse(r#"{"benches":["gap"],"points":5,"idle_factors":[0.05,0.2]}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(r.benches.as_deref(), Some(&["gap".to_string()][..]));
        assert_eq!(r.points, Some(5));
        assert_eq!(r.idle_factors.as_deref(), Some(&[0.05, 0.2][..]));
        // Field order doesn't change the canonical key.
        let r2 = CampaignRequest::from_json(
            &parse(r#"{"idle_factors":[0.05,0.2],"points":5,"benches":["gap"]}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(r.canonical(), r2.canonical());

        let bad = parse(r#"{"pointz":5}"#).unwrap();
        assert!(CampaignRequest::from_json(&bad)
            .unwrap_err()
            .contains("pointz"));
        let bad = parse(r#"{"points":1}"#).unwrap();
        assert!(CampaignRequest::from_json(&bad)
            .unwrap_err()
            .contains("2..=65"));
        let bad = parse(r#"{"points":66}"#).unwrap();
        assert!(CampaignRequest::from_json(&bad)
            .unwrap_err()
            .contains("2..=65"));
        let bad = parse(r#"{"benches":[]}"#).unwrap();
        assert!(CampaignRequest::from_json(&bad)
            .unwrap_err()
            .contains("empty"));
        let bad = parse(r#"{"benches":[1]}"#).unwrap();
        assert!(CampaignRequest::from_json(&bad)
            .unwrap_err()
            .contains("strings"));
        let bad = parse(r#"{"mem_latencies":[1.5]}"#).unwrap();
        assert!(CampaignRequest::from_json(&bad)
            .unwrap_err()
            .contains("unsigned"));
        let bad = parse(r#"{"idle_factors":[0.05,-1]}"#).unwrap();
        assert!(CampaignRequest::from_json(&bad)
            .unwrap_err()
            .contains("[0, 1]"));
    }

    #[test]
    fn adapt_request_is_strict_with_known_objectives() {
        let r = AdaptRequest::from_json(&parse("{}").unwrap()).unwrap();
        assert!(r.benches.is_none() && r.objective.is_none() && r.points.is_none());

        let r = AdaptRequest::from_json(
            &parse(
                r#"{"benches":["gap","vpr.place"],"objective":"min-e","slowdown":5,"points":9}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(r.benches.as_deref().map(<[String]>::len), Some(2));
        assert_eq!(r.objective.as_deref(), Some("min-e"));
        assert_eq!(r.slowdown, Some(5.0));
        // Field order doesn't change the canonical key.
        let r2 = AdaptRequest::from_json(
            &parse(
                r#"{"points":9,"slowdown":5,"objective":"min-e","benches":["gap","vpr.place"]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(r.canonical(), r2.canonical());

        let bad = parse(r#"{"objectiv":"min-ed"}"#).unwrap();
        assert!(AdaptRequest::from_json(&bad)
            .unwrap_err()
            .contains("objectiv"));
        let bad = parse(r#"{"objective":"max-fun"}"#).unwrap();
        assert!(AdaptRequest::from_json(&bad)
            .unwrap_err()
            .contains("max-fun"));
        let bad = parse(r#"{"points":66}"#).unwrap();
        assert!(AdaptRequest::from_json(&bad)
            .unwrap_err()
            .contains("2..=65"));
        let bad = parse(r#"{"benches":[]}"#).unwrap();
        assert!(AdaptRequest::from_json(&bad).unwrap_err().contains("empty"));
    }

    #[test]
    fn atlas_request_is_strict_with_bounded_points() {
        let r = AtlasRequest::from_json(&parse("{}").unwrap()).unwrap();
        assert_eq!(r, AtlasRequest::from_json(&parse("{}").unwrap()).unwrap());
        assert!(r.seed.is_none() && r.miss_rate.is_none() && r.points.is_none());

        let r = AtlasRequest::from_json(
            &parse(r#"{"seed":7,"miss_rate":[0,0.5],"slice_len":[2,8],"points":3}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(r.seed, Some(7));
        assert_eq!(r.miss_rate.as_deref(), Some(&[0.0, 0.5][..]));
        assert_eq!(r.slice_len.as_deref(), Some(&[2, 8][..]));
        // Field order doesn't change the canonical key.
        let r2 = AtlasRequest::from_json(
            &parse(r#"{"points":3,"slice_len":[2,8],"miss_rate":[0,0.5],"seed":7}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(r.canonical(), r2.canonical());

        let bad = parse(r#"{"mis_rate":[0.5]}"#).unwrap();
        assert!(AtlasRequest::from_json(&bad)
            .unwrap_err()
            .contains("mis_rate"));
        let bad = parse(r#"{"points":1}"#).unwrap();
        assert!(AtlasRequest::from_json(&bad)
            .unwrap_err()
            .contains("2..=65"));
        let bad = parse(r#"{"slice_len":[]}"#).unwrap();
        assert!(AtlasRequest::from_json(&bad).unwrap_err().contains("empty"));
        let bad = parse(r#"{"footprint":[1.5]}"#).unwrap();
        assert!(AtlasRequest::from_json(&bad)
            .unwrap_err()
            .contains("unsigned"));
        let bad = parse(r#"{"idle_factors":[2]}"#).unwrap();
        assert!(AtlasRequest::from_json(&bad)
            .unwrap_err()
            .contains("[0, 1]"));
    }

    #[test]
    fn experiment_ids_are_validated() {
        assert!(ExperimentRequest::from_id("tab12").is_ok());
        assert!(ExperimentRequest::from_id("fig99").is_err());
        let j = parse(r#"{"id":"fig2"}"#).unwrap();
        assert_eq!(ExperimentRequest::from_json(&j).unwrap().id, "fig2");
    }
}

//! Round-trip and golden-fixture tests for the serving DTOs: every DTO
//! must (a) re-parse its own canonical serialization to an equal value,
//! (b) match the checked-in fixture bytes exactly, and (c) reject
//! payloads with unknown fields.

use preexec_json::dto::{
    EvalRequest, ExperimentRequest, PThreadSummary, SelectResponse, SimResponse,
};
use preexec_json::{parse, Json, ToJson};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
        .trim()
        .to_string()
}

#[test]
fn select_request_round_trips_against_fixture() {
    let raw = fixture("select_request.json");
    let req = EvalRequest::from_json(&parse(&raw).unwrap()).unwrap();
    assert_eq!(req.bench, "mcf");
    assert_eq!(req.target, "weighted");
    assert_eq!(req.weight, Some(0.5));
    assert_eq!(req.trace_cap, Some(300_000));
    assert_eq!(req.mem_latency, Some(316));
    assert_eq!(req.idle_factor, None);
    // Canonical serialization reproduces the fixture byte-for-byte.
    assert_eq!(req.canonical(), raw);
    // And re-parsing the canonical form yields an equal value.
    let again = EvalRequest::from_json(&parse(&req.canonical()).unwrap()).unwrap();
    assert_eq!(again, req);
}

#[test]
fn select_response_round_trips_against_fixture() {
    let raw = fixture("select_response.json");
    let resp = SelectResponse::from_json(&parse(&raw).unwrap()).unwrap();
    assert_eq!(resp.pthreads.len(), 2);
    assert_eq!(resp.pthreads[0].trigger_pc, 4_198_400);
    assert_eq!(resp.pthreads[1].targets, 1);
    assert_eq!(resp.to_json().to_string(), raw);
    let again = SelectResponse::from_json(&resp.to_json()).unwrap();
    assert_eq!(again, resp);
}

#[test]
fn sim_response_round_trips_against_fixture() {
    let raw = fixture("sim_response.json");
    let resp = SimResponse::from_json(&parse(&raw).unwrap()).unwrap();
    assert_eq!(resp.bench, "gap");
    assert_eq!(
        resp.report.get("cycles").and_then(Json::as_u64),
        Some(123_456)
    );
    assert_eq!(resp.to_json().to_string(), raw);
    let again = SimResponse::from_json(&resp.to_json()).unwrap();
    assert_eq!(again, resp);
}

#[test]
fn experiment_request_round_trips_against_fixture() {
    let raw = fixture("experiment_request.json");
    let req = ExperimentRequest::from_json(&parse(&raw).unwrap()).unwrap();
    assert_eq!(req.id, "fig5a");
    assert_eq!(req.to_json().to_string(), raw);
}

#[test]
fn every_dto_rejects_unknown_fields() {
    let cases = [
        (
            r#"{"bench":"gap","verbose":true}"#,
            EvalRequest::from_json(&parse(r#"{"bench":"gap","verbose":true}"#).unwrap())
                .err()
                .map(|e| e.contains("verbose")),
        ),
        (
            r#"{"id":"tab12","x":1}"#,
            ExperimentRequest::from_json(&parse(r#"{"id":"tab12","x":1}"#).unwrap())
                .err()
                .map(|e| e.contains("\"x\"")),
        ),
        // A repeated field is rejected too, even when both copies agree.
        (
            r#"{"bench":"gap","bench":"mcf"}"#,
            EvalRequest::from_json(&parse(r#"{"bench":"gap","bench":"mcf"}"#).unwrap())
                .err()
                .map(|e| e.contains("repeated field \"bench\"")),
        ),
        (
            r#"{"id":"tab12","id":"tab12"}"#,
            ExperimentRequest::from_json(&parse(r#"{"id":"tab12","id":"tab12"}"#).unwrap())
                .err()
                .map(|e| e.contains("repeated field \"id\"")),
        ),
    ];
    for (src, got) in cases {
        assert_eq!(got, Some(true), "payload must be rejected: {src}");
    }

    let mut summary = fixture("select_response.json");
    summary.insert_str(summary.len() - 1, r#","extra":0"#);
    let err = SelectResponse::from_json(&parse(&summary).unwrap()).unwrap_err();
    assert!(err.contains("extra"), "{err}");

    let bad_pt = r#"{"trigger_pc":1,"body_len":1,"targets":1,"dc_trig":0.0,"dc_ptcm":0.0,"ladv":0.0,"eadv":0.0,"oops":1}"#;
    assert!(PThreadSummary::from_json(&parse(bad_pt).unwrap())
        .unwrap_err()
        .contains("oops"));

    let mut sim = fixture("sim_response.json");
    sim.insert_str(sim.len() - 1, r#","note":"hi""#);
    assert!(SimResponse::from_json(&parse(&sim).unwrap())
        .unwrap_err()
        .contains("note"));
}

#[test]
fn wrong_types_are_named_in_errors() {
    let bad = parse(r#"{"bench":7}"#).unwrap();
    let err = EvalRequest::from_json(&bad).unwrap_err();
    assert!(err.contains("bench") && err.contains("string"), "{err}");
    let bad = parse(r#"{"bench":"gap","trace_cap":"lots"}"#).unwrap();
    let err = EvalRequest::from_json(&bad).unwrap_err();
    assert!(err.contains("trace_cap"), "{err}");
    let bad = parse(r#"{"bench":"gap","trace_cap":-5}"#).unwrap();
    assert!(
        EvalRequest::from_json(&bad).is_err(),
        "negative cap rejected"
    );
}

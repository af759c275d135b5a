//! Round-trip property of the strict JSON codec: every type whose decoder
//! `impl_json_object!` generates reads back its own written form,
//! `T::from_json(&x.to_json()) == x`, both from the value and from its
//! text. Generated values stay inside each type's semantic rules (known
//! targets, bounded `points`, non-empty grids, `W` and idle factors in
//! `[0, 1]`), and strings carry the characters the writer must escape.

use preexec_energy::AccessCounts;
use preexec_harness::atlas::{AdmissionSummary, AtlasResult, AtlasWinner};
use preexec_harness::campaign::{SweepCell, SweepResult};
use preexec_json::dto::{
    AdaptRequest, AtlasRequest, CampaignRequest, EvalRequest, ExperimentRequest, PThreadSummary,
    SelectResponse, SimResponse, EXPERIMENT_IDS, OBJECTIVE_NAMES, TARGET_NAMES,
};
use preexec_json::{jobj, parse, Json, ToJson};
use preexec_prop::{run_cases, Gen};
use preexec_sim::SimReport;
use std::fmt::Debug;

fn round_trips<T: ToJson + PartialEq + Debug>(x: &T, decode: fn(&Json) -> Result<T, String>) {
    let text = x.to_json().to_string();
    let direct = decode(&x.to_json()).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(&direct, x, "{text}");
    let reparsed = decode(&parse(&text).expect("writer output parses"))
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(&reparsed, x, "{text}");
}

fn string(g: &mut Gen) -> String {
    const CHARS: [char; 10] = ['a', 'z', '0', '"', '\\', '\n', '\t', '\u{1}', 'é', '→'];
    g.vec(0, 8, |g| *g.choose(&CHARS)).into_iter().collect()
}

fn number(g: &mut Gen) -> f64 {
    match g.usize(0, 4) {
        0 => g.u64(0, 1000) as f64,
        1 => -g.f64(0.0, 1e6),
        2 => g.f64(0.0, 1.0),
        _ => g.f64(-1e-300, 1e300),
    }
}

/// A fraction in `[0, 1]`, ends included: `W` and idle factors.
fn unit(g: &mut Gen) -> f64 {
    match g.usize(0, 3) {
        0 => 0.0,
        1 => 1.0,
        _ => g.f64(0.0, 1.0),
    }
}

fn opt<T>(g: &mut Gen, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
    g.bool().then(|| f(g))
}

fn grid<T>(g: &mut Gen, f: impl FnMut(&mut Gen) -> T) -> Option<Vec<T>> {
    g.bool().then(|| g.vec(1, 5, f))
}

fn points(g: &mut Gen) -> Option<u64> {
    opt(g, |g| g.u64(2, 66))
}

/// A small opaque value: the pass-through fields (`report`, `spec`,
/// `gen_spec`, completed cells) keep whatever shape they are given.
fn opaque(g: &mut Gen) -> Json {
    jobj! {
        "n" => g.u64(0, u64::MAX),
        "x" => number(g),
        "s" => string(g),
        "list" => g.vec(0, 3, |g| g.u64(0, 9)),
        "none" => Json::Null
    }
}

fn sweep_cell(g: &mut Gen) -> SweepCell {
    SweepCell {
        index: g.u64(0, 1 << 40),
        bench: string(g),
        mem_latency: g.u64(1, 1000),
        idle_factor: number(g),
        w: g.f64(0.0, 1.0),
        pthreads: g.u64(0, 50),
        cycles: g.u64(0, u64::MAX),
        base_cycles: g.u64(0, u64::MAX),
        energy: number(g),
        base_energy: number(g),
        time_ratio: number(g),
        energy_ratio: number(g),
    }
}

fn sweep_result(g: &mut Gen) -> SweepResult {
    SweepResult {
        spec: opaque(g),
        cells: g.vec(0, 4, sweep_cell),
        replayed: 0,
    }
}

#[test]
fn every_decoded_type_reads_back_its_written_form() {
    run_cases(200, |g| {
        let target = g.choose(&TARGET_NAMES).to_string();
        let weight = if target == "weighted" {
            Some(unit(g))
        } else {
            opt(g, unit)
        };
        round_trips(
            &EvalRequest {
                bench: string(g),
                target,
                weight,
                trace_cap: opt(g, |g| g.u64(0, u64::MAX)),
                mem_latency: opt(g, |g| g.u64(0, 1000)),
                idle_factor: opt(g, unit),
            },
            EvalRequest::from_json,
        );
        round_trips(
            &ExperimentRequest {
                id: g.choose(&EXPERIMENT_IDS).to_string(),
            },
            ExperimentRequest::from_json,
        );
        round_trips(
            &CampaignRequest {
                benches: grid(g, string),
                points: points(g),
                mem_latencies: grid(g, |g| g.u64(0, 1000)),
                idle_factors: grid(g, unit),
                tolerance: opt(g, number),
            },
            CampaignRequest::from_json,
        );
        round_trips(
            &AtlasRequest {
                seed: opt(g, |g| g.u64(0, u64::MAX)),
                slice_len: grid(g, |g| g.u64(1, 16)),
                induction_depth: grid(g, |g| g.u64(1, 4)),
                branch_divergence: grid(g, number),
                miss_rate: grid(g, number),
                miss_clustering: grid(g, number),
                footprint: grid(g, |g| g.u64(0, 1 << 30)),
                points: points(g),
                mem_latencies: grid(g, |g| g.u64(0, 1000)),
                idle_factors: grid(g, unit),
            },
            AtlasRequest::from_json,
        );
        round_trips(
            &AdaptRequest {
                benches: grid(g, string),
                objective: opt(g, |g| g.choose(&OBJECTIVE_NAMES).to_string()),
                slowdown: opt(g, number),
                points: points(g),
                stride: opt(g, |g| g.u64(1, 100_000)),
                epsilon: opt(g, number),
            },
            AdaptRequest::from_json,
        );
        let pthread = |g: &mut Gen| PThreadSummary {
            trigger_pc: g.u64(0, u64::MAX),
            body_len: g.u64(0, 64),
            targets: g.u64(0, 8),
            dc_trig: number(g),
            dc_ptcm: number(g),
            ladv: number(g),
            eadv: number(g),
        };
        round_trips(&pthread(g), PThreadSummary::from_json);
        round_trips(
            &SelectResponse {
                bench: string(g),
                target: string(g),
                label: string(g),
                pthreads: g.vec(0, 4, pthread),
                predicted_ladv: number(g),
                predicted_eadv: number(g),
            },
            SelectResponse::from_json,
        );
        round_trips(
            &SimResponse {
                bench: string(g),
                target: string(g),
                speedup: number(g),
                energy_ratio: number(g),
                ed_ratio: number(g),
                report: opaque(g),
            },
            SimResponse::from_json,
        );
        let n = |g: &mut Gen| g.u64(0, u64::MAX);
        let counts = AccessCounts {
            imem_main: n(g),
            imem_pth: n(g),
            dmem_main: n(g),
            dmem_pth: n(g),
            l2_main: n(g),
            l2_pth: n(g),
            dispatch_main: n(g),
            dispatch_pth: n(g),
            alu_main: n(g),
            alu_pth: n(g),
            rob_bpred: n(g),
        };
        round_trips(&counts, AccessCounts::from_json);
        round_trips(
            &SimReport {
                cycles: n(g),
                committed: n(g),
                pinsts: n(g),
                spawns: n(g),
                spawns_dropped: n(g),
                spawns_wrong_path: n(g),
                l2_misses_demand: n(g),
                covered_full: n(g),
                covered_partial: n(g),
                mispredicts: n(g),
                branches: n(g),
                hints_used: n(g),
                hints_correct: n(g),
                max_pthread_pregs: n(g),
                counts,
                finished: g.bool(),
                wall_nanos: 0,
            },
            SimReport::from_json,
        );
        round_trips(&sweep_cell(g), SweepCell::from_json);
        round_trips(&sweep_result(g), SweepResult::from_json);
        let winner = |g: &mut Gen| AtlasWinner {
            scenario: string(g),
            mem_latency: g.u64(1, 1000),
            idle_factor: number(g),
            l_time: number(g),
            l_energy: number(g),
            e_time: number(g),
            e_energy: number(g),
            verdict: string(g),
            ed_winner: string(g),
        };
        round_trips(&winner(g), AtlasWinner::from_json);
        let admission = AdmissionSummary {
            generated: g.u64(0, 1000),
            admitted: g.u64(0, 1000),
        };
        round_trips(&admission, AdmissionSummary::from_json);
        round_trips(
            &AtlasResult {
                gen_spec: opaque(g),
                admission,
                sweep: sweep_result(g),
                winners: g.vec(0, 3, winner),
            },
            AtlasResult::from_json,
        );
    });
}

//! The differential test wall between the data-oriented fast pipeline
//! ([`preexec::sim::Simulator`]) and the retained slow path
//! (`ReferenceSimulator`, test support in `tests/support/reference.rs`).
//!
//! Every seed kernel and 200 fuzzer-generated programs run through both
//! pipelines — bare and with p-threads installed — and must agree on
//! cycle counts, retired-instruction counts, every raw access counter,
//! every energy term E1–E8 individually, and the architectural outcome
//! (final speculative registers and memory). The fast path's SoA window
//! ring, issue calendar, and stall fast-forward are pure representation
//! changes; any behavioral divergence trips here with the field named.
//!
//! The window ring recycles an entry's slot once the entry is complete and
//! doubles when the oldest live entry blocks it. Long memory latencies
//! hold p-thread loads, and with them the ring's oldest slot, for
//! thousands of cycles, so the cases at `mem_latency` 2^12 and 2^15 below
//! exercise growth. A mispredict-heavy program exercises squashed entries
//! whose slots are reused, and a p-thread with a late consumer of its own
//! outstanding load checks that an issued load is not retired early.

#[path = "support/reference.rs"]
mod reference;

use preexec::energy::EnergyConfig;
use preexec::harness::{Engine, ExpConfig};
use preexec::isa::{AluOp, Inst, Program, ProgramBuilder, Reg};
use preexec::oracle::fuzz;
use preexec::sim::{SimConfig, SimReport, Simulator};
use preexec::workloads::{self, InputSet};
use preexec_json::ToJson;
use preexec_prop::Gen;
use pthsel::{PThread, SelectionTarget};
use reference::ReferenceSimulator;
use std::sync::OnceLock;

/// The window ring's starting capacity; a larger final capacity means the
/// ring grew during the run.
const INITIAL_WINDOW: usize = 256;

/// Largest window ring any shipped kernel may need at the default machine
/// configuration.
const DEFAULT_CONFIG_WINDOW_CAP: usize = 4096;

/// Memory latencies long enough to block the ring's oldest slot.
const LONG_LATENCIES: [u64; 2] = [1 << 12, 1 << 15];

/// Asserts every observable of the two reports matches, field by field,
/// so a failure names exactly what diverged. `wall_nanos` is the one
/// legitimate difference and is excluded by serialization already.
fn assert_reports_match(fast: &SimReport, slow: &SimReport, label: &str) {
    assert_eq!(fast.cycles, slow.cycles, "{label}: cycles");
    assert_eq!(fast.committed, slow.committed, "{label}: committed");
    assert_eq!(fast.pinsts, slow.pinsts, "{label}: pinsts");
    assert_eq!(fast.spawns, slow.spawns, "{label}: spawns");
    assert_eq!(
        fast.spawns_dropped, slow.spawns_dropped,
        "{label}: spawns_dropped"
    );
    assert_eq!(
        fast.spawns_wrong_path, slow.spawns_wrong_path,
        "{label}: spawns_wrong_path"
    );
    assert_eq!(
        fast.l2_misses_demand, slow.l2_misses_demand,
        "{label}: l2_misses_demand"
    );
    assert_eq!(
        fast.covered_full, slow.covered_full,
        "{label}: covered_full"
    );
    assert_eq!(
        fast.covered_partial, slow.covered_partial,
        "{label}: covered_partial"
    );
    assert_eq!(fast.mispredicts, slow.mispredicts, "{label}: mispredicts");
    assert_eq!(fast.branches, slow.branches, "{label}: branches");
    assert_eq!(fast.hints_used, slow.hints_used, "{label}: hints_used");
    assert_eq!(
        fast.hints_correct, slow.hints_correct,
        "{label}: hints_correct"
    );
    assert_eq!(
        fast.max_pthread_pregs, slow.max_pthread_pregs,
        "{label}: max_pthread_pregs"
    );
    assert_eq!(fast.finished, slow.finished, "{label}: finished");

    // Raw access counters (the inputs to the energy model).
    let (fc, sc) = (&fast.counts, &slow.counts);
    assert_eq!(fc.imem_main, sc.imem_main, "{label}: imem_main");
    assert_eq!(fc.imem_pth, sc.imem_pth, "{label}: imem_pth");
    assert_eq!(fc.dmem_main, sc.dmem_main, "{label}: dmem_main");
    assert_eq!(fc.dmem_pth, sc.dmem_pth, "{label}: dmem_pth");
    assert_eq!(fc.l2_main, sc.l2_main, "{label}: l2_main");
    assert_eq!(fc.l2_pth, sc.l2_pth, "{label}: l2_pth");
    assert_eq!(fc.dispatch_main, sc.dispatch_main, "{label}: dispatch_main");
    assert_eq!(fc.dispatch_pth, sc.dispatch_pth, "{label}: dispatch_pth");
    assert_eq!(fc.alu_main, sc.alu_main, "{label}: alu_main");
    assert_eq!(fc.alu_pth, sc.alu_pth, "{label}: alu_pth");
    assert_eq!(fc.rob_bpred, sc.rob_bpred, "{label}: rob_bpred");

    // Every energy term individually (equations E1–E8): exact f64
    // equality is the right bar because both sides compute the same
    // arithmetic from what must be identical counts.
    let e = EnergyConfig::default();
    let (fe, se) = (fast.energy(&e), slow.energy(&e));
    assert_eq!(fe.imem_main, se.imem_main, "{label}: E imem_main");
    assert_eq!(fe.dmem_main, se.dmem_main, "{label}: E dmem_main");
    assert_eq!(fe.l2_main, se.l2_main, "{label}: E l2_main");
    assert_eq!(fe.dec_ooo_main, se.dec_ooo_main, "{label}: E dec_ooo_main");
    assert_eq!(fe.rob_bpred, se.rob_bpred, "{label}: E rob_bpred");
    assert_eq!(fe.idle, se.idle, "{label}: E idle");
    assert_eq!(fe.imem_pth, se.imem_pth, "{label}: E imem_pth");
    assert_eq!(fe.dmem_pth, se.dmem_pth, "{label}: E dmem_pth");
    assert_eq!(fe.l2_pth, se.l2_pth, "{label}: E l2_pth");
    assert_eq!(fe.dec_ooo_pth, se.dec_ooo_pth, "{label}: E dec_ooo_pth");
    assert_eq!(
        fast.total_energy(&e),
        slow.total_energy(&e),
        "{label}: total energy"
    );

    // Belt and braces: the serialized reports must be byte-identical.
    assert_eq!(fast.to_json(), slow.to_json(), "{label}: report JSON");
}

/// Runs `program` (with `pthreads` installed) through the reference
/// pipeline and through the fast pipeline once per `fast_forward`
/// setting; each fast run's report and architectural state must match the
/// reference exactly. Returns the final window ring capacity of the first
/// fast run.
fn check_runs(
    program: &Program,
    pthreads: &[PThread],
    cfg: SimConfig,
    label: &str,
    fast_forward: &[bool],
) -> usize {
    let mut slow = ReferenceSimulator::new(program, cfg).with_pthreads(pthreads);
    let slow_report = slow.run();
    let mut capacity = None;
    for &ff in fast_forward {
        let label = if ff {
            label.to_string()
        } else {
            format!("{label}/stepped")
        };
        let mut fast = Simulator::new(program, cfg)
            .with_pthreads(pthreads)
            .with_fast_forward(ff);
        let fast_report = fast.run();
        assert_reports_match(&fast_report, &slow_report, &label);
        assert_eq!(
            fast.spec_regs(),
            slow.spec_regs(),
            "{label}: final registers"
        );
        assert_eq!(fast.spec_mem(), slow.spec_mem(), "{label}: final memory");
        capacity.get_or_insert(fast.window_capacity());
    }
    capacity.expect("at least one fast run")
}

/// Both pipelines, fast-forward on.
fn check_program(program: &Program, pthreads: &[PThread], cfg: SimConfig, label: &str) -> usize {
    check_runs(program, pthreads, cfg, label, &[true])
}

/// One kernel through both pipelines, bare and with a deterministic
/// fuzzed p-thread set (seeded per kernel, so failures reproduce). At the
/// default configuration the window ring stays small.
fn check_kernel(name: &str, seed_salt: u64) {
    let cfg = SimConfig::default();
    let program = workloads::build(name, InputSet::Train).expect("known kernel");
    let bare = check_program(&program, &[], cfg, &format!("{name}/bare"));
    let mut g = Gen::new(0x5eed_fa57_0000 ^ seed_salt, 0);
    let pthreads = fuzz::gen_pthreads(&mut g, &program);
    let fuzzed = check_program(&program, &pthreads, cfg, &format!("{name}/pthreads"));
    for (what, capacity) in [("bare", bare), ("fuzzed p-threads", fuzzed)] {
        assert!(
            capacity <= DEFAULT_CONFIG_WINDOW_CAP,
            "{name} ({what}): window ring grew to {capacity} at the default configuration"
        );
    }
}

macro_rules! kernel_fastpath_tests {
    ($($module:ident => $name:expr, $salt:expr;)+) => {
        $(#[test]
        fn $module() {
            check_kernel($name, $salt);
        })+
    };
}

kernel_fastpath_tests! {
    bzip2_matches_reference => "bzip2", 1;
    fig1_matches_reference => "fig1", 2;
    gap_matches_reference => "gap", 3;
    gcc_matches_reference => "gcc", 4;
    mcf_matches_reference => "mcf", 5;
    parser_matches_reference => "parser", 6;
    twolf_matches_reference => "twolf", 7;
    vortex_matches_reference => "vortex", 8;
    vpr_place_matches_reference => "vpr.place", 9;
    vpr_route_matches_reference => "vpr.route", 10;
}

/// 200 fuzzer-generated programs — the same generator `repro verify`
/// uses against the functional oracle — each with a random p-thread set,
/// through both pipelines. The static pre-check gates generator bugs so
/// a failure here is a pipeline divergence, not a malformed case.
#[test]
fn fuzzed_programs_match_reference() {
    let cfg = SimConfig::default();
    preexec_prop::run_cases(200, |g| {
        let program = fuzz::gen_program(g);
        let pthreads = fuzz::gen_pthreads(g, &program);
        fuzz::static_precheck(&program, &pthreads).expect("generator invariant");
        let label = format!("fuzz case {}", g.case);
        check_program(&program, &[], cfg, &format!("{label}/bare"));
        check_program(&program, &pthreads, cfg, &format!("{label}/pthreads"));
    });
}

/// One engine shared by the tests below, so each kernel's selection is
/// computed once.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::new(1))
}

/// The p-threads PTHSEL selects for `name` (latency target) at the
/// default configuration, with the program they were selected for.
fn selected(name: &str) -> (Program, Vec<PThread>) {
    let prep = engine().prepared(name, &ExpConfig::default());
    let pthreads = prep.select(SelectionTarget::Latency).pthreads;
    (prep.program.clone(), pthreads)
}

/// Every shipped kernel with its selected p-threads keeps the window ring
/// within [`DEFAULT_CONFIG_WINDOW_CAP`] at the default configuration.
#[test]
fn selected_pthreads_keep_window_small_at_default_config() {
    for name in workloads::NAMES {
        let (program, pthreads) = selected(name);
        let mut sim = Simulator::new(&program, SimConfig::default()).with_pthreads(&pthreads);
        assert!(sim.run().finished, "{name}: run finished");
        let capacity = sim.window_capacity();
        assert!(
            capacity <= DEFAULT_CONFIG_WINDOW_CAP,
            "{name}: window ring grew to {capacity} at the default configuration"
        );
    }
}

/// The selected p-threads of `name` at long memory latencies: the ring
/// grows, and the fast pipeline (fast-forward on and off) still matches
/// the reference exactly.
fn check_selected_at_long_latency(name: &str) {
    let (program, pthreads) = selected(name);
    assert!(!pthreads.is_empty(), "{name}: selection is empty");
    for latency in LONG_LATENCIES {
        let cfg = SimConfig::default().with_mem_latency(latency);
        let label = format!("{name}/selected/mem_latency {latency}");
        let capacity = check_runs(&program, &pthreads, cfg, &label, &[true, false]);
        assert!(
            capacity > INITIAL_WINDOW,
            "{label}: window ring never grew (capacity {capacity})"
        );
    }
}

#[test]
fn gap_selected_at_long_latency_matches_reference() {
    check_selected_at_long_latency("gap");
}

#[test]
fn vpr_place_selected_at_long_latency_matches_reference() {
    check_selected_at_long_latency("vpr.place");
}

/// Fuzzed programs with random p-thread sets at long memory latencies,
/// through both pipelines and the stepped fast pipeline. Some of them must
/// grow the ring.
#[test]
fn fuzzed_programs_at_long_latency_match_reference() {
    let mut grown = 0;
    preexec_prop::run_cases(40, |g| {
        let program = fuzz::gen_program(g);
        let pthreads = fuzz::gen_pthreads(g, &program);
        fuzz::static_precheck(&program, &pthreads).expect("generator invariant");
        for latency in LONG_LATENCIES {
            let cfg = SimConfig::default().with_mem_latency(latency);
            let label = format!("fuzz case {}/mem_latency {latency}", g.case);
            if check_runs(&program, &pthreads, cfg, &label, &[true, false]) > INITIAL_WINDOW {
                grown += 1;
            }
        }
    });
    assert!(grown > 0, "no fuzzed case grew the window ring");
}

/// A loop whose branch goes either way at random, so about half its
/// iterations mispredict and squash a wrong path, with a p-thread that
/// prefetches the loop's strided load. Squashed entries leave the window
/// as soon as they are squashed, so their slots are reused while older
/// entries, p-thread loads among them, still wait.
fn mispredict_heavy() -> (Program, PThread) {
    let r = Reg::new;
    let mut b = ProgramBuilder::new("mispredict_heavy");
    b.li(r(1), 0x9e37_79b9)
        .li(r(2), 0)
        .li(r(3), 1200)
        .li(r(9), 0x10_0000);
    b.label("top");
    b.muli(r(1), r(1), 6364136223846793005); // pc 4
    b.addi(r(1), r(1), 1442695040888963407);
    b.shri(r(4), r(1), 33);
    b.andi(r(4), r(4), 1);
    b.muli(r(6), r(2), 4160); // pc 8
    b.add(r(6), r(6), r(9));
    b.ld(r(7), r(6), 0); // pc 10: the problem load
    b.beq(r(4), Reg::ZERO, "skip"); // pc 11: unpredictable
    b.add(r(5), r(5), r(7));
    b.ld(r(8), r(6), 64);
    b.label("skip");
    b.addi(r(2), r(2), 1); // pc 14: trigger
    b.blt(r(2), r(3), "top");
    b.halt();
    let program = b.build();
    let body = vec![
        Inst::AluImm {
            op: AluOp::Add,
            dst: r(2),
            src1: r(2),
            imm: 4,
        },
        Inst::AluImm {
            op: AluOp::Mul,
            dst: r(6),
            src1: r(2),
            imm: 4160,
        },
        Inst::Alu {
            op: AluOp::Add,
            dst: r(6),
            src1: r(6),
            src2: r(9),
        },
        Inst::Load {
            dst: r(7),
            base: r(6),
            offset: 0,
        },
    ];
    let pthread = PThread {
        trigger_pc: 14,
        body,
        targets: vec![10],
        dc_trig: 1200,
        dc_ptcm: 1200,
        ladv_agg: 0.0,
        eadv_agg: 0.0,
        branch_hint: None,
        hint_lookahead: 0,
    };
    (program, pthread)
}

#[test]
fn mispredict_heavy_program_with_pthreads_matches_reference() {
    let (program, pthread) = mispredict_heavy();
    let pthreads = std::slice::from_ref(&pthread);
    fuzz::static_precheck(&program, pthreads).expect("well-formed case");
    let mut grew = false;
    for latency in [200].into_iter().chain(LONG_LATENCIES) {
        let cfg = SimConfig::default().with_mem_latency(latency);
        let label = format!("mispredict-heavy/mem_latency {latency}");
        let capacity = check_runs(&program, pthreads, cfg, &label, &[true, false]);
        grew |= capacity > INITIAL_WINDOW;
        let report = Simulator::new(&program, cfg).with_pthreads(pthreads).run();
        assert!(
            report.mispredicts > 300 && report.spawns_wrong_path > 0,
            "{label}: {} mispredicts, {} wrong-path spawns",
            report.mispredicts,
            report.spawns_wrong_path
        );
    }
    assert!(grew, "mispredict-heavy: window ring never grew");
}

/// A p-thread whose last instruction consumes its own cache-missing load
/// through a long ALU chain, spawned from a loop that never misses. The
/// consumer dispatches hundreds of cycles after the load issued, while
/// the load is still outstanding and the main thread has committed far
/// past it. The window must not retire the load before its result is
/// ready: the late consumer still has to wait for it.
#[test]
fn late_consumer_of_outstanding_pthread_load_matches_reference() {
    let r = Reg::new;
    let mut b = ProgramBuilder::new("late_consumer");
    b.li(r(1), 0x10_0000).li(r(2), 0).li(r(3), 400);
    b.label("top");
    for _ in 0..20 {
        b.addi(r(7), r(7), 3);
    }
    b.addi(r(2), r(2), 1); // pc 23: trigger
    b.blt(r(2), r(3), "top");
    b.halt();
    let program = b.build();
    let mut body = vec![
        Inst::AluImm {
            op: AluOp::Add,
            dst: r(2),
            src1: r(2),
            imm: 8,
        },
        Inst::AluImm {
            op: AluOp::Mul,
            dst: r(4),
            src1: r(2),
            imm: 4160,
        },
        Inst::Alu {
            op: AluOp::Add,
            dst: r(4),
            src1: r(4),
            src2: r(1),
        },
        Inst::Load {
            dst: r(5),
            base: r(4),
            offset: 0,
        },
    ];
    body.extend((0..300).map(|_| Inst::AluImm {
        op: AluOp::Add,
        dst: r(8),
        src1: r(8),
        imm: 1,
    }));
    body.push(Inst::Alu {
        op: AluOp::Add,
        dst: r(6),
        src1: r(5),
        src2: r(8),
    });
    let pthread = PThread {
        trigger_pc: 23,
        body,
        targets: vec![],
        dc_trig: 400,
        dc_ptcm: 0,
        ladv_agg: 0.0,
        eadv_agg: 0.0,
        branch_hint: None,
        hint_lookahead: 0,
    };
    let pthreads = std::slice::from_ref(&pthread);
    for latency in LONG_LATENCIES {
        let cfg = SimConfig::default().with_mem_latency(latency);
        let label = format!("late consumer/mem_latency {latency}");
        let capacity = check_runs(&program, pthreads, cfg, &label, &[true, false]);
        assert!(
            capacity > INITIAL_WINDOW,
            "{label}: window ring never grew (capacity {capacity})"
        );
    }
}

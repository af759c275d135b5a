//! Quickstart: pre-execute a small hand-written program end to end.
//!
//! Builds a loop with a "problem" load, mines p-threads with PTHSEL+E,
//! and compares the unoptimized and pre-executing machines.
//!
//! Run with: `cargo run --release --example quickstart`

use preexec::critpath::{CritPathConfig, CritPathModel, LoadCost};
use preexec::isa::{ProgramBuilder, Reg};
use preexec::pthsel::{
    select, AppParams, CandidateTable, EnergyParams, MachineParams, SelectionTarget, SelectorInputs,
};
use preexec::sim::{SimConfig, Simulator};
use preexec::slicer::{SliceConfig, SliceTree};
use preexec::trace::{FuncSim, MemAnnotation, Profile};

fn main() {
    // A loop whose load strides to a new cache line every iteration and
    // whose address is computable arbitrarily far ahead: the ideal
    // pre-execution target.
    let (base, i, n, tmp, v, sum) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
    );
    let mut b = ProgramBuilder::new("quickstart");
    b.li(base, 0x10_0000).li(i, 0).li(n, 2000).li(sum, 0);
    b.label("loop");
    b.muli(tmp, i, 4096); // a new line (and L2 set) every iteration
    b.add(tmp, tmp, base);
    b.ld(v, tmp, 0); // <- the problem load
    b.add(sum, sum, v);
    for _ in 0..20 {
        b.addi(sum, sum, 1); // per-iteration work
    }
    b.addi(i, i, 1);
    b.blt(i, n, "loop");
    b.halt();
    let program = b.build();

    // 1. Profile: functional trace + cache-level annotation.
    let sim_cfg = SimConfig::default();
    let trace = FuncSim::new(&program).run_trace(200_000);
    let ann = MemAnnotation::compute(&trace, sim_cfg.hierarchy);
    let profile = Profile::compute(&program, &trace, &ann);
    let problems = profile.problem_loads(&program, 100);
    println!("problem loads: {problems:?}");

    // 2. Slice + criticality-based cost functions.
    let trees: Vec<SliceTree> = problems
        .iter()
        .map(|pl| {
            SliceTree::build(
                &program,
                &trace,
                &ann,
                &profile,
                pl.pc,
                &SliceConfig::default(),
            )
        })
        .collect();
    let cp = CritPathModel::new(&trace, &ann, CritPathConfig::default());
    let costs: Vec<LoadCost> = problems.iter().map(|pl| cp.load_cost(pl.pc)).collect();

    // 3. Baseline run supplies the per-application parameters.
    let baseline = Simulator::new(&program, sim_cfg).run();
    let app = AppParams {
        l0: baseline.cycles as f64,
        e0: baseline.cycles as f64 * 0.35,
        bw_seq_mt: baseline.ipc(),
    };

    // 4. Score every candidate once, then select latency-oriented
    //    p-threads and re-simulate. Other targets reuse the same table.
    let table = CandidateTable::build(
        &trees,
        &profile,
        &costs,
        MachineParams::default(),
        app.bw_seq_mt,
    );
    let inputs = SelectorInputs {
        program: &program,
        trees: &trees,
        table: &table,
        energy: EnergyParams::default(),
        app,
    };
    let selection = select(&inputs, SelectionTarget::Latency);
    println!(
        "selected {} p-thread(s), avg body length {:.1}",
        selection.pthreads.len(),
        selection.avg_body_len()
    );
    for p in &selection.pthreads {
        println!(
            "  trigger pc {} -> {} insts, targets {:?}",
            p.trigger_pc,
            p.body.len(),
            p.targets
        );
    }

    let optimized = Simulator::new(&program, sim_cfg)
        .with_pthreads(&selection.pthreads)
        .run();
    println!(
        "baseline:  {} cycles (IPC {:.2}), {} L2 misses",
        baseline.cycles,
        baseline.ipc(),
        baseline.l2_misses_demand
    );
    println!(
        "optimized: {} cycles (IPC {:.2}), {} misses covered fully, {} partially",
        optimized.cycles,
        optimized.ipc(),
        optimized.covered_full,
        optimized.covered_partial
    );
    println!(
        "speedup: {:.2}x",
        baseline.cycles as f64 / optimized.cycles as f64
    );
}

//! Branch pre-execution — the paper's §7 extension.
//!
//! The paper's conclusion sketches how PTHSEL+E applies to *branch*
//! p-threads: everything carries over, except that when a covered
//! misprediction is removed the processor would have been *busy* during
//! the saved cycles (fetching and executing wrong-path work), so energy is
//! saved at the full busy rate `Etotal/c` rather than the idle rate
//! `Eidle/c`.
//!
//! This module reuses the whole PTHSEL+E machinery:
//!
//! * the slice trees are built from a branch's *mispredicted* instances
//!   (see `preexec-slicer`'s `build_from_instances` and
//!   `preexec-critpath`'s `problem_branches`);
//! * the per-instance gain is `min(tolerance, mispredict penalty)` —
//!   expressed as an identity [`LoadCost`] saturating at the penalty;
//! * the energy model is the standard one with `Eidle/c` swapped for
//!   `Etotal/c` (equation E2's constant of proportionality).
//!
//! Selected bodies are post-processed for the simulator: the control
//! instructions (the sliced branch roots) are stripped — a DDMT p-thread
//! cannot contain them — and the p-thread is tagged with the branch it
//! predicts, so the machine can turn the computed outcome into a fetch
//! hint.

use crate::select::{debug_verify_pthreads, select_raw};
use crate::{CandidateTable, MachineParams, PThread, Selection, SelectionTarget, SelectorInputs};
use preexec_critpath::{LoadCost, ProblemBranch};
use preexec_isa::Pc;
use preexec_slicer::SliceTree;
use preexec_trace::Profile;

/// Mispredict-recovery cycles one covered misprediction saves (the
/// pipeline refill depth). Matches the simulator's front end.
pub const DEFAULT_MISPREDICT_PENALTY: f64 = 12.0;

impl CandidateTable {
    /// The table of branch slice trees: `trees` must hold one tree per
    /// entry of `branches` (same order), built from the branch's
    /// mispredicted instances. Each branch's cost function is the
    /// identity saturating at `penalty`, the per-covered-misprediction
    /// latency gain cap.
    pub fn for_branches(
        trees: &[SliceTree],
        profile: &Profile,
        branches: &[ProblemBranch],
        machine: MachineParams,
        bw_seq_mt: f64,
        penalty: f64,
    ) -> CandidateTable {
        assert_eq!(
            trees.len(),
            branches.len(),
            "one slice tree per problem branch"
        );
        let costs: Vec<LoadCost> = branches
            .iter()
            .map(|pb| LoadCost::identity(pb.pc, pb.stats.mispredicts, penalty))
            .collect();
        CandidateTable::build(trees, profile, &costs, machine, bw_seq_mt)
    }
}

/// Runs PTHSEL+E over branch slice trees; `inputs.table` must come from
/// [`CandidateTable::for_branches`].
pub fn select_branch_pthreads(inputs: &SelectorInputs<'_>, target: SelectionTarget) -> Selection {
    // Energy is saved at the busy rate while mispredicted work is avoided.
    let energy = inputs
        .energy
        .with_idle_factor(inputs.energy.e_total_per_cycle);
    let branch_inputs = SelectorInputs { energy, ..*inputs };
    // `select_raw`, not `select`: until finalization below the bodies
    // still carry the sliced branch roots, which the static verifier
    // would (rightly) reject as control instructions.
    let mut selection = select_raw(&branch_inputs, target);
    for p in &mut selection.pthreads {
        finalize_branch_pthread(p);
    }
    selection.pthreads.retain(|p| !p.body.is_empty());
    debug_verify_pthreads(inputs.program, &selection.pthreads);
    selection
}

/// Strips control instructions from a selected body and tags the p-thread
/// with the branch it predicts.
fn finalize_branch_pthread(p: &mut PThread) {
    let branch_pc: Pc = *p.targets.first().expect("selection always has a target");
    p.body.retain(|i| i.is_pthread_eligible());
    p.branch_hint = Some(branch_pc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppParams, EnergyParams};
    use preexec_bpred::PredictorConfig;
    use preexec_critpath::problem_branches;
    use preexec_isa::{ProgramBuilder, Reg};
    use preexec_mem::HierarchyConfig;
    use preexec_slicer::SliceConfig;
    use preexec_trace::{FuncSim, MemAnnotation};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A loop whose skip branch is data-dependent on a sequential table —
    /// unpredictable to the predictor, trivially computable ahead by a
    /// p-thread.
    fn flagged_loop() -> preexec_isa::Program {
        let mut b = ProgramBuilder::new("flags");
        // flags[i]: pseudo-random 0/1 stream.
        let mut x: u64 = 0x5eed;
        let flags: Vec<u64> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) & 1
            })
            .collect();
        b.data_slice(0x10000, &flags);
        b.li(r(1), 0).li(r(2), 3000).li(r(3), 0x10000);
        b.label("top");
        b.shli(r(4), r(1), 3);
        b.add(r(4), r(4), r(3));
        b.ld(r(5), r(4), 0); // flag load (L1-resident)
        b.bne(r(5), Reg::ZERO, "skip"); // pc 6: data-random branch
        for _ in 0..6 {
            b.addi(r(6), r(6), 1);
        }
        b.label("skip");
        b.addi(r(1), r(1), 1);
        b.blt(r(1), r(2), "top");
        b.halt();
        b.build()
    }

    fn branch_selection(target: SelectionTarget) -> (Selection, u64) {
        let program = flagged_loop();
        let trace = FuncSim::new(&program).run_trace(200_000);
        let ann = MemAnnotation::compute(&trace, HierarchyConfig::default());
        let profile = Profile::compute(&program, &trace, &ann);
        let branches = problem_branches(&trace, PredictorConfig::default(), 100);
        assert!(!branches.is_empty(), "the flag branch must mispredict");
        let trees: Vec<SliceTree> = branches
            .iter()
            .map(|pb| {
                SliceTree::build_from_instances(
                    &program,
                    &trace,
                    &profile,
                    pb.pc,
                    &pb.stats.mispredict_seqs,
                    &SliceConfig::default(),
                )
            })
            .collect();
        let app = AppParams {
            l0: 40_000.0,
            e0: 14_000.0,
            bw_seq_mt: 2.0,
        };
        let table = CandidateTable::for_branches(
            &trees,
            &profile,
            &branches,
            MachineParams::default(),
            app.bw_seq_mt,
            DEFAULT_MISPREDICT_PENALTY,
        );
        let inputs = SelectorInputs {
            program: &program,
            trees: &trees,
            table: &table,
            energy: EnergyParams::default(),
            app,
        };
        let total_misp = branches[0].stats.mispredicts;
        (select_branch_pthreads(&inputs, target), total_misp)
    }

    #[test]
    fn selects_hint_pthreads_for_random_branch() {
        let (sel, misp) = branch_selection(SelectionTarget::Latency);
        assert!(
            !sel.pthreads.is_empty(),
            "branch p-threads must be selected"
        );
        for p in &sel.pthreads {
            assert!(p.branch_hint.is_some());
            assert!(p.body.iter().all(|i| i.is_pthread_eligible()));
            assert!(!p.body.is_empty());
        }
        let covered: u64 = sel.pthreads.iter().map(|p| p.dc_ptcm).sum();
        assert!(
            covered as f64 > 0.4 * misp as f64,
            "should cover a sizable fraction: {covered}/{misp}"
        );
    }

    #[test]
    fn gains_are_penalty_bounded() {
        let (sel, misp) = branch_selection(SelectionTarget::Latency);
        let max_gain = misp as f64 * DEFAULT_MISPREDICT_PENALTY;
        assert!(
            sel.predicted_ladv <= max_gain + 1.0,
            "predicted {} must not exceed penalty bound {max_gain}",
            sel.predicted_ladv
        );
    }

    #[test]
    fn energy_target_uses_busy_rate() {
        // With the busy-rate lever, energy-targeted branch p-threads are
        // selectable even though idle-rate load p-threads would not be.
        let (sel, _) = branch_selection(SelectionTarget::Energy);
        // Bodies are tiny (flag chain), so the busy-rate saving wins.
        assert!(
            !sel.pthreads.is_empty(),
            "Etotal/c should make cheap hint p-threads energy-positive"
        );
    }
}

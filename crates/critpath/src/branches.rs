//! Per-static-branch misprediction profiling.
//!
//! Branch pre-execution (paper §7) targets "problem branches" the way load
//! pre-execution targets problem loads. This module replays a trace
//! through the shared hybrid predictor to find the static branches that
//! generate disproportionate mispredictions.

use preexec_bpred::{HybridPredictor, PredictorConfig};
use preexec_isa::{InstClass, Pc};
use preexec_trace::{Seq, Trace};
use std::collections::HashMap;

/// Misprediction statistics for one static branch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Dynamic executions.
    pub execs: u64,
    /// Mispredictions under the shared hybrid predictor.
    pub mispredicts: u64,
    /// Sequence numbers of the mispredicted instances (for slicing).
    pub mispredict_seqs: Vec<Seq>,
}

impl BranchStats {
    /// Misprediction rate in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.execs as f64
        }
    }
}

/// A "problem branch": a static branch responsible for many
/// mispredictions.
#[derive(Clone, Debug)]
pub struct ProblemBranch {
    /// Static PC of the branch.
    pub pc: Pc,
    /// Its statistics (including the mispredicted instance list).
    pub stats: BranchStats,
}

/// Replays `trace` through a fresh hybrid predictor and returns the
/// branches with at least `min_mispredicts` mispredictions, heaviest
/// first.
pub fn problem_branches(
    trace: &Trace,
    cfg: PredictorConfig,
    min_mispredicts: u64,
) -> Vec<ProblemBranch> {
    let mut bpred = HybridPredictor::new(cfg);
    let mut per_pc: HashMap<Pc, BranchStats> = HashMap::new();
    for (seq, &pc) in trace.pcs().iter().enumerate() {
        if trace.static_inst(pc).class() != InstClass::Branch {
            continue;
        }
        let taken = trace.taken_bit(seq);
        let predicted = bpred.predict(pc);
        bpred.update(pc, taken);
        let s = per_pc.entry(pc).or_default();
        s.execs += 1;
        if predicted != taken {
            s.mispredicts += 1;
            s.mispredict_seqs.push(seq as Seq);
        }
    }
    let mut out: Vec<ProblemBranch> = per_pc
        .into_iter()
        .filter(|(_, s)| s.mispredicts >= min_mispredicts.max(1))
        .map(|(pc, stats)| ProblemBranch { pc, stats })
        .collect();
    out.sort_by(|a, b| {
        b.stats
            .mispredicts
            .cmp(&a.stats.mispredicts)
            .then(a.pc.cmp(&b.pc))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{ProgramBuilder, Reg};
    use preexec_trace::FuncSim;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A loop with one well-predicted back-branch and one data-random
    /// branch.
    fn noisy_loop() -> preexec_isa::Program {
        let mut b = ProgramBuilder::new("noisy");
        b.li(r(1), 0x1234_5678).li(r(2), 0).li(r(3), 2000);
        b.label("top");
        b.muli(r(1), r(1), 6364136223846793005);
        b.addi(r(1), r(1), 1442695040888963407);
        b.shri(r(4), r(1), 33);
        b.andi(r(4), r(4), 1);
        b.beq(r(4), Reg::ZERO, "skip"); // pc 7: ~random
        b.addi(r(5), r(5), 1);
        b.label("skip");
        b.addi(r(2), r(2), 1);
        b.blt(r(2), r(3), "top"); // pc 10: near-always taken
        b.halt();
        b.build()
    }

    #[test]
    fn random_branch_dominates_mispredictions() {
        let p = noisy_loop();
        let t = FuncSim::new(&p).run_trace(100_000);
        let probs = problem_branches(&t, PredictorConfig::default(), 50);
        assert!(!probs.is_empty());
        assert_eq!(probs[0].pc, 7, "the data-random branch must top the list");
        assert!(
            probs[0].stats.rate() > 0.25,
            "rate {}",
            probs[0].stats.rate()
        );
        // The loop back-branch is well predicted: absent or far below.
        if let Some(back) = probs.iter().find(|pb| pb.pc == 10) {
            assert!(back.stats.mispredicts < probs[0].stats.mispredicts / 5);
        }
    }

    #[test]
    fn mispredict_seqs_match_count() {
        let p = noisy_loop();
        let t = FuncSim::new(&p).run_trace(100_000);
        for pb in problem_branches(&t, PredictorConfig::default(), 1) {
            assert_eq!(pb.stats.mispredict_seqs.len() as u64, pb.stats.mispredicts);
            for &s in &pb.stats.mispredict_seqs {
                assert_eq!(t.event(s).pc, pb.pc);
            }
        }
    }

    #[test]
    fn threshold_filters() {
        let p = noisy_loop();
        let t = FuncSim::new(&p).run_trace(100_000);
        assert!(problem_branches(&t, PredictorConfig::default(), 1_000_000).is_empty());
    }
}

//! Per-static-instruction profiles mined from traces.
//!
//! PTHSEL consumes program profiles, not raw traces: per-PC execution
//! counts, branch biases, and per-static-load miss counts. The paper's
//! "ideal profiling" methodology mines these statistics from the same run
//! that p-threads subsequently optimize; the `train`/`ref` robustness study
//! (Figure 4) mines them from a different input.

use crate::{MemAnnotation, Trace};
use preexec_isa::{Pc, Program};
use preexec_mem::Level;

/// Statistics for one static instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PcStats {
    /// Dynamic executions.
    pub execs: u64,
    /// Times a conditional branch was taken.
    pub taken: u64,
    /// Loads/stores that missed the L1D.
    pub l1_misses: u64,
    /// Loads/stores that missed the L2 (went to memory).
    pub l2_misses: u64,
}

impl PcStats {
    /// Taken probability of a branch (0 when never executed).
    pub fn taken_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.taken as f64 / self.execs as f64
        }
    }

    /// L1 miss rate over dynamic executions.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.execs as f64
        }
    }

    /// L2 miss rate over dynamic executions.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.execs as f64
        }
    }
}

/// A "problem" load: a static load responsible for a disproportionate
/// number of L2 misses, the targets of pre-execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProblemLoad {
    /// Static PC of the load.
    pub pc: Pc,
    /// Dynamic executions in the profiled run.
    pub execs: u64,
    /// L2 misses it generated.
    pub l2_misses: u64,
}

/// A per-program profile aggregated over one traced run.
///
/// # Examples
///
/// See [`Profile::compute`].
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    per_pc: Vec<PcStats>,
    total_insts: u64,
    total_l2_misses: u64,
}

impl Profile {
    /// Mines a profile from a trace and its memory annotation.
    ///
    /// # Panics
    ///
    /// Panics if the trace references PCs outside `program`.
    pub fn compute(program: &Program, trace: &Trace, ann: &MemAnnotation) -> Profile {
        let mut per_pc = vec![PcStats::default(); program.len()];
        let mut total_l2 = 0;
        for (seq, &pc) in trace.pcs().iter().enumerate() {
            let s = &mut per_pc[pc as usize];
            s.execs += 1;
            s.taken += u64::from(trace.taken_bit(seq));
        }
        for &seq in trace.mem_seqs() {
            let s = &mut per_pc[trace.pcs()[seq as usize] as usize];
            match ann.served(seq.into()) {
                Some(Level::L2) => s.l1_misses += 1,
                Some(Level::Mem) => {
                    s.l1_misses += 1;
                    s.l2_misses += 1;
                    total_l2 += 1;
                }
                _ => {}
            }
        }
        Profile {
            per_pc,
            total_insts: trace.len() as u64,
            total_l2_misses: total_l2,
        }
    }

    /// Reassembles a profile from the parts [`Profile::per_pc`],
    /// [`Profile::total_insts`] and [`Profile::total_l2_misses`] return.
    pub fn from_parts(per_pc: Vec<PcStats>, total_insts: u64, total_l2_misses: u64) -> Profile {
        Profile {
            per_pc,
            total_insts,
            total_l2_misses,
        }
    }

    /// Statistics of every static instruction, indexed by PC.
    pub fn per_pc(&self) -> &[PcStats] {
        &self.per_pc
    }

    /// Statistics for the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn pc_stats(&self, pc: Pc) -> &PcStats {
        &self.per_pc[pc as usize]
    }

    /// Total dynamic instructions profiled.
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// Total L2 misses across all static instructions.
    pub fn total_l2_misses(&self) -> u64 {
        self.total_l2_misses
    }

    /// Static loads that generated at least `min_misses` L2 misses, sorted
    /// by miss count, heaviest first. These are the pre-execution targets.
    pub fn problem_loads(&self, program: &Program, min_misses: u64) -> Vec<ProblemLoad> {
        let mut out: Vec<ProblemLoad> = self
            .per_pc
            .iter()
            .enumerate()
            .filter(|(pc, s)| s.l2_misses >= min_misses.max(1) && program.inst(*pc as Pc).is_load())
            .map(|(pc, s)| ProblemLoad {
                pc: pc as Pc,
                execs: s.execs,
                l2_misses: s.l2_misses,
            })
            .collect();
        out.sort_by(|a, b| b.l2_misses.cmp(&a.l2_misses).then(a.pc.cmp(&b.pc)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuncSim, MemAnnotation};
    use preexec_isa::{ProgramBuilder, Reg};
    use preexec_mem::HierarchyConfig;

    /// One hot load (new line every iteration) and one cold load (same
    /// line), in a loop.
    fn two_loads(iters: i64) -> preexec_isa::Program {
        let (base, i, n, tmp, t2) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
        );
        let mut b = ProgramBuilder::new("two-loads");
        b.li(base, 0x100000).li(i, 0).li(n, iters);
        b.label("loop");
        b.muli(tmp, i, 4096); // new L2 set/line every iteration, no reuse
        b.add(tmp, tmp, base);
        b.ld(tmp, tmp, 0); // PC 5: problem load
        b.ld(t2, base, 0); // PC 6: always the same line
        b.addi(i, i, 1);
        b.blt(i, n, "loop");
        b.halt();
        b.build()
    }

    fn profile_of(iters: i64) -> (preexec_isa::Program, Profile) {
        let p = two_loads(iters);
        let t = FuncSim::new(&p).run_trace(1_000_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = Profile::compute(&p, &t, &ann);
        (p, prof)
    }

    #[test]
    fn problem_load_identified() {
        let (p, prof) = profile_of(100);
        let probs = prof.problem_loads(&p, 10);
        assert_eq!(probs.len(), 1);
        assert_eq!(probs[0].pc, 5);
        assert_eq!(probs[0].execs, 100);
        assert_eq!(probs[0].l2_misses, 100);
    }

    #[test]
    fn cold_load_is_not_a_problem() {
        let (_, prof) = profile_of(100);
        // PC 6 misses at most once (first touch).
        assert!(prof.pc_stats(6).l2_misses <= 1);
        assert_eq!(prof.pc_stats(6).execs, 100);
    }

    #[test]
    fn branch_bias_measured() {
        let (_, prof) = profile_of(100);
        // The loop back-branch (PC 8) is taken 99 of 100 times.
        let s = prof.pc_stats(8);
        assert_eq!(s.execs, 100);
        assert_eq!(s.taken, 99);
        assert!((s.taken_rate() - 0.99).abs() < 1e-9);
    }

    #[test]
    fn totals_are_consistent() {
        let (p, prof) = profile_of(50);
        assert!(prof.total_insts() > 0);
        let sum: u64 = (0..p.len() as Pc)
            .map(|pc| prof.pc_stats(pc).l2_misses)
            .sum();
        assert_eq!(sum, prof.total_l2_misses());
    }

    #[test]
    fn rates_handle_zero_execs() {
        let s = PcStats::default();
        assert_eq!(s.taken_rate(), 0.0);
        assert_eq!(s.l1_miss_rate(), 0.0);
        assert_eq!(s.l2_miss_rate(), 0.0);
    }

    #[test]
    fn min_misses_threshold_filters() {
        let (p, prof) = profile_of(5);
        assert!(prof.problem_loads(&p, 100).is_empty());
        assert_eq!(
            prof.problem_loads(&p, 1).len(),
            1 + usize::from(prof.pc_stats(6).l2_misses >= 1)
        );
    }
}

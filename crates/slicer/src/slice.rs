//! Backward dynamic slicing.

use preexec_trace::{Seq, Trace, NO_DEP};
use std::collections::BinaryHeap;

/// Configuration of the slicing pass, defaulting to the paper's settings:
/// a 2048-instruction slicing window and 64 instructions per linear
/// p-thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SliceConfig {
    /// How far (in dynamic instructions) a slice may reach back from the
    /// target.
    pub window: u64,
    /// Maximum instructions in one linear p-thread body.
    pub max_body: usize,
    /// Cap on slice-tree nodes, bounding analysis cost.
    pub max_tree_nodes: usize,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            window: 2048,
            max_body: 64,
            max_tree_nodes: 4096,
        }
    }
}

/// Computes the backward dynamic data slice of the instruction at `target`.
///
/// The slice is the transitive closure over *register* dependences only:
/// memory dependences are not followed because a p-thread re-executes loads
/// rather than receiving forwarded store values (stores cannot appear in
/// DDMT p-threads), and control dependences are not followed because
/// p-threads are control-less. The result is in backward order — `target`
/// first, then producers by descending sequence number — truncated to
/// `cfg.window` reach and `cfg.max_body` length.
pub fn backward_slice(trace: &Trace, target: Seq, cfg: &SliceConfig) -> Vec<Seq> {
    let target = u32::try_from(target).expect("trace sequence numbers fit 32 bits");
    let mut out = Vec::with_capacity(cfg.max_body);
    Slicer::default().slice(trace, target, cfg, &mut out);
    out.into_iter().map(Seq::from).collect()
}

/// Reusable scratch for slicing many instances of one trace without
/// allocating per instance.
#[derive(Debug, Default)]
pub(crate) struct Slicer {
    /// Pending producers; the max-heap hands them out newest first.
    pending: BinaryHeap<u32>,
}

impl Slicer {
    /// [`backward_slice`] of `target` into `out` (cleared first).
    ///
    /// Producers always precede their consumers, so popping pending
    /// producers newest-first enumerates the closure in descending order:
    /// by the time an instruction pops, every consumer that could reach it
    /// has been expanded. Duplicates (diamonds in the dataflow) therefore
    /// pop back to back, and the walk can stop at `cfg.max_body` members —
    /// exactly the newest ones, which is the truncation the slice needs.
    /// Its cost is bounded by the body cap, not by the window.
    pub(crate) fn slice(
        &mut self,
        trace: &Trace,
        target: u32,
        cfg: &SliceConfig,
        out: &mut Vec<u32>,
    ) {
        let deps = trace.deps();
        let low = u64::from(target).saturating_sub(cfg.window);
        out.clear();
        self.pending.clear();
        self.pending.push(target);
        while out.len() < cfg.max_body {
            let Some(s) = self.pending.pop() else { break };
            if out.last() == Some(&s) {
                continue;
            }
            out.push(s);
            let [a, b, _] = deps[s as usize];
            for d in [a, b] {
                if d != NO_DEP && u64::from(d) >= low {
                    self.pending.push(d);
                }
            }
        }
        // Truncation keeps the newest members, so the kept suffix stays
        // dependence-closed: a kept instruction's missing producers all
        // executed before the eventual trigger and their values arrive
        // through the spawn-time register checkpoint as live-ins.
        // Dropping newest-first instead would cut consumers out of the
        // middle of the chain and leave kept producers feeding nothing.
        debug_assert!(is_suffix_closed(trace, out, low));
    }
}

/// `true` when every in-window dependence of a kept element is itself
/// kept or precedes the oldest kept element (and is therefore visible in
/// the spawn checkpoint). `slice` is in backward (descending) order.
fn is_suffix_closed(trace: &Trace, slice: &[u32], low: Seq) -> bool {
    let Some(&oldest) = slice.last() else {
        return true;
    };
    slice.iter().all(|&s| {
        let [a, b, _] = trace.deps()[s as usize];
        [a, b].into_iter().all(|dep| {
            dep == NO_DEP || u64::from(dep) < low || dep < oldest || slice.contains(&dep)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{ProgramBuilder, Reg};
    use preexec_trace::FuncSim;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn slice_of_chain_is_whole_chain() {
        let mut b = ProgramBuilder::new("chain");
        b.li(r(1), 1); // 0
        b.addi(r(1), r(1), 2); // 1
        b.addi(r(1), r(1), 3); // 2
        b.ld(r(2), r(1), 0); // 3
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let s = backward_slice(&t, 3, &SliceConfig::default());
        assert_eq!(s, vec![3, 2, 1, 0]);
    }

    #[test]
    fn unrelated_instructions_excluded() {
        let mut b = ProgramBuilder::new("mix");
        b.li(r(1), 1); // 0: in slice
        b.li(r(3), 9); // 1: unrelated
        b.addi(r(3), r(3), 1); // 2: unrelated
        b.ld(r(2), r(1), 0); // 3: target
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let s = backward_slice(&t, 3, &SliceConfig::default());
        assert_eq!(s, vec![3, 0]);
    }

    #[test]
    fn memory_deps_are_not_followed() {
        let mut b = ProgramBuilder::new("st-ld");
        b.li(r(1), 0x100); // 0
        b.li(r(3), 5); // 1 (value producer, via memory)
        b.st(r(3), r(1), 0); // 2
        b.ld(r(2), r(1), 0); // 3: target reads what 2 stored
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let s = backward_slice(&t, 3, &SliceConfig::default());
        // Only the address computation, not the store or its value chain.
        assert_eq!(s, vec![3, 0]);
    }

    #[test]
    fn window_truncates_reach() {
        let mut b = ProgramBuilder::new("window");
        b.li(r(1), 0); // 0: producer of the whole chain
        for _ in 0..30 {
            b.addi(r(1), r(1), 1);
        }
        b.ld(r(2), r(1), 0); // 31
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let cfg = SliceConfig {
            window: 10,
            ..SliceConfig::default()
        };
        let s = backward_slice(&t, 31, &cfg);
        // Reaches back at most 10 dynamic instructions.
        assert!(s.iter().all(|&x| x >= 21));
        assert_eq!(s[0], 31);
    }

    #[test]
    fn max_body_truncates_keeping_nearest() {
        let mut b = ProgramBuilder::new("len");
        b.li(r(1), 0);
        for _ in 0..30 {
            b.addi(r(1), r(1), 1);
        }
        b.ld(r(2), r(1), 0); // 31
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let cfg = SliceConfig {
            max_body: 4,
            ..SliceConfig::default()
        };
        let s = backward_slice(&t, 31, &cfg);
        assert_eq!(s, vec![31, 30, 29, 28]);
    }

    #[test]
    fn truncated_slice_is_dependence_closed() {
        // Two interleaved induction chains merging into the target's
        // address: truncation must cut a clean *prefix* of history, never
        // a producer whose consumer stays in the slice.
        let mut b = ProgramBuilder::new("closure");
        b.li(r(1), 0); // 0
        b.li(r(2), 0); // 1
        for _ in 0..15 {
            b.addi(r(1), r(1), 1);
            b.addi(r(2), r(2), 2);
        }
        b.add(r(3), r(1), r(2)); // 32
        b.ld(r(4), r(3), 0); // 33
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let cfg = SliceConfig {
            max_body: 8,
            ..SliceConfig::default()
        };
        let s = backward_slice(&t, 33, &cfg);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], 33);
        // Every kept element's dependence is kept or predates the whole
        // kept suffix (checkpoint-supplied live-in).
        let oldest = *s.last().unwrap();
        for &seq in &s {
            for dep in t.event(seq).src_deps.iter().flatten() {
                assert!(
                    s.contains(dep) || *dep < oldest,
                    "kept {seq} depends on dropped mid-suffix {dep}"
                );
            }
        }
    }

    #[test]
    fn non_closed_suffix_is_detected() {
        // Removing a mid-chain element (the shape a newest-first drop
        // would produce) breaks closure, and the invariant check sees it.
        let mut b = ProgramBuilder::new("broken");
        b.li(r(1), 1); // 0
        b.addi(r(1), r(1), 2); // 1
        b.addi(r(1), r(1), 3); // 2
        b.ld(r(2), r(1), 0); // 3
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let s = backward_slice(&t, 3, &SliceConfig::default());
        let kept: Vec<u32> = s.iter().map(|&x| x as u32).collect();
        assert!(is_suffix_closed(&t, &kept, 0));
        let broken = [3, 1, 0]; // dropped seq 2, kept its producer
        assert!(!is_suffix_closed(&t, &broken, 0));
    }

    #[test]
    fn diamond_dependence_visits_once() {
        let mut b = ProgramBuilder::new("diamond");
        b.li(r(1), 3); // 0
        b.addi(r(2), r(1), 1); // 1
        b.addi(r(3), r(1), 2); // 2
        b.add(r(4), r(2), r(3)); // 3
        b.ld(r(5), r(4), 0); // 4
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        let s = backward_slice(&t, 4, &SliceConfig::default());
        assert_eq!(s, vec![4, 3, 2, 1, 0]);
    }
}

//! Memory-behaviour annotation of traces.
//!
//! Streams a trace's loads and stores through a cold [`Hierarchy`] to
//! classify each dynamic memory access by the level that served it. Both the
//! profiler (which counts per-static-load misses) and the critical-path
//! analyzer (which needs per-dynamic-load latencies) consume this
//! annotation, so they agree with each other and — by construction, since
//! the timing simulator uses the same `preexec-mem` hierarchy — with the
//! cycle-level model.

use crate::{Seq, Trace};
use preexec_mem::{Hierarchy, HierarchyConfig, Level};

/// Per-dynamic-instruction memory behaviour for one trace.
#[derive(Clone, Debug)]
pub struct MemAnnotation {
    served: Vec<Option<Level>>,
    cfg: HierarchyConfig,
}

impl MemAnnotation {
    /// Classifies every load and store in `trace` against a cold hierarchy
    /// configured by `cfg`.
    ///
    /// Accesses are replayed in retirement order with an approximate
    /// timestamp (one cycle per instruction); fills complete immediately for
    /// classification purposes, so the annotation is a *level* classifier,
    /// not a timing model.
    pub fn compute(trace: &Trace, cfg: HierarchyConfig) -> MemAnnotation {
        let mut hier = Hierarchy::new(cfg);
        let mut served = vec![None; trace.len()];
        for (&seq, &addr) in trace.mem_seqs().iter().zip(trace.mem_addrs()) {
            // Timestamps far apart so every fill has completed by the
            // next access: we want steady-state level classification.
            let now = u64::from(seq).saturating_mul(1000);
            let acc = if trace.static_inst(trace.pcs()[seq as usize]).is_store() {
                hier.store(addr, now)
            } else {
                hier.load(addr, now)
            };
            served[seq as usize] = Some(acc.served);
        }
        MemAnnotation { served, cfg }
    }

    /// The hierarchy configuration the annotation was computed against.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// The level that served the access at `seq`, or `None` for
    /// non-memory instructions.
    #[inline]
    pub fn served(&self, seq: Seq) -> Option<Level> {
        self.served.get(seq as usize).copied().flatten()
    }

    /// `true` if the access at `seq` was an L2 miss (served by memory).
    #[inline]
    pub fn is_l2_miss(&self, seq: Seq) -> bool {
        self.served(seq) == Some(Level::Mem)
    }

    /// `true` if the access at `seq` missed the L1 (served by L2 or memory).
    #[inline]
    pub fn is_l1_miss(&self, seq: Seq) -> bool {
        matches!(self.served(seq), Some(Level::L2) | Some(Level::Mem))
    }

    /// The access latency implied by the serving level, for use by the
    /// critical-path model.
    pub fn latency(&self, seq: Seq) -> u64 {
        match self.served(seq) {
            Some(Level::L1) => self.cfg.l1d.latency,
            Some(Level::L2) => self.cfg.l1d.latency + self.cfg.l2.latency,
            Some(Level::Mem) => self.cfg.l1d.latency + self.cfg.l2.latency + self.cfg.mem_latency,
            None => 0,
        }
    }

    /// Sequence numbers of all L2-missing loads, in retirement order.
    pub fn l2_miss_seqs<'a>(&'a self, trace: &'a Trace) -> impl Iterator<Item = Seq> + 'a {
        trace
            .mem_seqs()
            .iter()
            .map(|&seq| Seq::from(seq))
            .filter(|&seq| {
                self.is_l2_miss(seq) && trace.static_inst(trace.pcs()[seq as usize]).is_load()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuncSim;
    use preexec_isa::{ProgramBuilder, Reg};

    /// A program that strides through a big array twice: first pass all
    /// cold misses, second pass L2 hits (array exceeds L1 but fits L2).
    fn strider(words: i64, passes: i64) -> preexec_isa::Program {
        let (base, i, n, tmp, pass, np) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
            Reg::new(6),
        );
        let mut b = ProgramBuilder::new("strider");
        for w in 0..words {
            b.data(0x10000 + w as u64 * 64, w as u64);
        }
        b.li(base, 0x10000).li(n, words).li(pass, 0).li(np, passes);
        b.label("pass");
        b.li(i, 0);
        b.label("loop");
        b.muli(tmp, i, 64); // one word per 64B line: every access a new line
        b.add(tmp, tmp, base);
        b.ld(tmp, tmp, 0);
        b.addi(i, i, 1);
        b.blt(i, n, "loop");
        b.addi(pass, pass, 1);
        b.blt(pass, np, "pass");
        b.halt();
        b.build()
    }

    #[test]
    fn cold_pass_misses_warm_pass_hits() {
        // 64 lines * 64B = 4KB: misses L1D (16KB? no — fits!). Use enough
        // lines to exceed the default 16KB L1D: 512 lines = 32KB.
        let p = strider(512, 2);
        let t = FuncSim::new(&p).run_trace(100_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let mut first_pass_mem = 0;
        let mut second_pass_l2 = 0;
        let mut seen = 0;
        for e in &t {
            if e.inst.is_load() {
                seen += 1;
                match ann.served(e.seq) {
                    Some(Level::Mem) if seen <= 512 => first_pass_mem += 1,
                    Some(Level::L2) if seen > 512 => second_pass_l2 += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(first_pass_mem, 512, "all first-pass loads are cold misses");
        // 512 lines * 64B = 32KB exceeds 16KB L1D but fits the 256KB L2.
        assert_eq!(second_pass_l2, 512, "second pass hits in L2");
    }

    #[test]
    fn latencies_match_levels() {
        let p = strider(512, 2);
        let t = FuncSim::new(&p).run_trace(100_000);
        let cfg = HierarchyConfig::default();
        let ann = MemAnnotation::compute(&t, cfg);
        for e in &t {
            if e.inst.is_load() {
                let lat = ann.latency(e.seq);
                match ann.served(e.seq).unwrap() {
                    Level::L1 => assert_eq!(lat, 2),
                    Level::L2 => assert_eq!(lat, 14),
                    Level::Mem => assert_eq!(lat, 214),
                }
            } else {
                assert_eq!(ann.latency(e.seq), 0);
            }
        }
    }

    #[test]
    fn miss_seq_iterator_agrees_with_flags() {
        let p = strider(128, 1);
        let t = FuncSim::new(&p).run_trace(100_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let seqs: Vec<_> = ann.l2_miss_seqs(&t).collect();
        assert_eq!(seqs.len(), 128);
        for s in seqs {
            assert!(ann.is_l2_miss(s));
            assert!(ann.is_l1_miss(s));
        }
    }

    #[test]
    fn non_memory_instructions_have_no_level() {
        let p = strider(4, 1);
        let t = FuncSim::new(&p).run_trace(100_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        for e in &t {
            if e.addr.is_none() {
                assert_eq!(ann.served(e.seq), None);
            }
        }
    }
}

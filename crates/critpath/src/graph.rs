//! The dependence-graph longest-path engine.
//!
//! Each dynamic instruction contributes three nodes — fetch (F), execute-
//! complete (E), and commit (C) — connected by weighted edges that encode
//! the machine's constraints: in-order fetch at finite bandwidth, branch-
//! misprediction refill, a finite ROB, dataflow (register and store→load),
//! execution latency, and in-order commit at finite bandwidth. The longest
//! path through the graph is the model's predicted execution time, and the
//! per-category sum of edge weights along that path is the paper's
//! Figure 2 execution-time breakdown.

use crate::CritPathConfig;
use preexec_isa::InstClass;
use preexec_json::impl_json_object;
use preexec_mem::Level;
use preexec_trace::Trace;
use std::fmt;

/// Critical-path edge category, matching the paper's breakdown bars.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Fetch bandwidth/latency — includes branch-misprediction refill and
    /// finite-window (ROB) stalls, as in the paper.
    Fetch,
    /// In-order commit bandwidth.
    Commit,
    /// Execution latency (ALU and L1-hit memory operations).
    Exec,
    /// L2-hit load latency.
    L2,
    /// Main-memory (L2 miss) load latency.
    Mem,
}

impl Category {
    /// All categories, in the paper's bar-stack order (bottom to top is
    /// mem, L2, exec, commit, fetch; this array is top-down).
    pub const ALL: [Category; 5] = [
        Category::Fetch,
        Category::Commit,
        Category::Exec,
        Category::L2,
        Category::Mem,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Fetch => "fetch",
            Category::Commit => "commit",
            Category::Exec => "exec",
            Category::L2 => "L2",
            Category::Mem => "mem",
        };
        f.write_str(s)
    }
}

/// Cycles of the critical path attributed to each category.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Breakdown {
    /// Fetch bandwidth, branch mispredictions, finite window.
    pub fetch: f64,
    /// Commit bandwidth.
    pub commit: f64,
    /// Execution (ALU + L1 hits).
    pub exec: f64,
    /// L2 hit latency.
    pub l2: f64,
    /// Memory latency.
    pub mem: f64,
}

impl_json_object!(Breakdown {
    fetch,
    commit,
    exec,
    l2,
    mem,
} decode);

impl Breakdown {
    /// Total cycles across categories (equals the critical-path length).
    pub fn total(&self) -> f64 {
        self.fetch + self.commit + self.exec + self.l2 + self.mem
    }

    fn add(&mut self, cat: Category, w: f64) {
        match cat {
            Category::Fetch => self.fetch += w,
            Category::Commit => self.commit += w,
            Category::Exec => self.exec += w,
            Category::L2 => self.l2 += w,
            Category::Mem => self.mem += w,
        }
    }
}

/// Per-dynamic-instruction inputs to the graph: resolved execute latency
/// (already reflecting any hypothetical load-latency reduction) and the
/// level that served memory operations.
#[derive(Clone, Copy, Debug)]
pub struct NodeInput {
    /// Execute latency in cycles.
    pub latency: u64,
    /// Serving level for loads/stores, `None` otherwise.
    pub served: Option<Level>,
    /// `true` if this instruction is a mispredicted conditional branch.
    pub mispredicted: bool,
}

/// Result of one longest-path evaluation.
#[derive(Clone, Debug)]
pub struct PathResult {
    /// Critical-path length in cycles (predicted execution time).
    pub cycles: u64,
    /// Per-category attribution along the critical path.
    pub breakdown: Breakdown,
}

/// Evaluates the longest path for `trace` with per-instruction `inputs`.
///
/// `inputs[i]` must correspond to `trace.event(i)`. Runs in O(n) time;
/// beyond the inputs it keeps one byte per instruction plus ROB-sized
/// rings (see [`walk`]).
///
/// # Panics
///
/// Panics if `inputs.len() != trace.len()`.
pub fn longest_path(trace: &Trace, inputs: &[NodeInput], cfg: &CritPathConfig) -> PathResult {
    assert_eq!(inputs.len(), trace.len(), "one input per trace event");
    let (pcs, deps) = (trace.pcs(), trace.deps());
    walk(inputs.len(), cfg, |i| {
        let inp = &inputs[i];
        Node {
            latency: inp.latency,
            deps: deps[i],
            mispredicted: inp.mispredicted,
            cat: exec_category(trace.static_inst(pcs[i]).class(), inp.served),
        }
    })
}

/// One dynamic instruction as the longest-path walk sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    /// Execute latency in cycles.
    pub latency: u64,
    /// Producers (register sources, then store→load), as trace indices;
    /// `preexec_trace::NO_DEP` where absent.
    pub deps: [u32; 3],
    /// A mispredicted conditional branch: the next fetch waits for it.
    pub mispredicted: bool,
    /// Category of this instruction's execution-latency edges.
    pub cat: Category,
}

// The winning predecessor of each node, packed into one byte per
// instruction: bits 0-1 the F node's, bits 2-3 the E node's, bit 4 the C
// node's. Edge weights and categories are recomputed while backtracking.
const F_START: u8 = 0; // virtual program start (no predecessor)
const F_SEQ: u8 = 1; // F of the previous instruction (fetch bandwidth)
const F_REFILL: u8 = 2; // E of the previous, mispredicted branch
const F_ROB: u8 = 3; // C of the instruction `rob` positions earlier
const E_SHIFT: u8 = 2; // 0: own F node; k: E of producer slot k - 1
const C_SEQ: u8 = 1 << 4; // C of the previous instruction (else own E)

/// A candidate edge into a node replaces the best so far (time and
/// predecessor code) only when strictly later. Written as selects: which
/// edge wins is data-driven, and branches on it mispredict.
#[inline(always)]
fn pick(best: &mut u64, code: &mut u8, t: u64, candidate: u8) {
    let later = t > *best;
    *best = if later { t } else { *best };
    *code = if later { candidate } else { *code };
}

/// The longest path through the dependence graph of `n` instructions
/// described by `node`, with the per-category breakdown of that path.
///
/// Node times are needed only within a ROB's reach, so they live in
/// rings of `rob` slots: a producer `rob` or more instructions back
/// completed no later than the commit that freed this instruction's ROB
/// slot, which precedes its fetch — its dataflow edge is strictly slack
/// and never binds. Ties keep the first candidate in edge order (fetch
/// bandwidth, refill, ROB; own fetch, then producers in slot order;
/// own execute, then commit bandwidth), which fixes the attributed path.
pub(crate) fn walk(n: usize, cfg: &CritPathConfig, node: impl Fn(usize) -> Node) -> PathResult {
    if n == 0 {
        return PathResult {
            cycles: 0,
            breakdown: Breakdown::default(),
        };
    }
    let fw = cfg.fetch_width as usize;
    let cw = cfg.commit_width as usize;
    let rob = cfg.rob_size.max(1) as usize;
    let mask = rob.next_power_of_two() - 1;
    // One slot past the ring stays 0: absent and slack producers read it,
    // and a candidate of 0 + latency never beats the own-fetch edge.
    let zero_slot = mask + 1;
    let mut te = vec![0u64; mask + 2];
    let mut tc = vec![0u64; mask + 1];
    let mut choice = vec![0u8; n];
    let (mut tf_prev, mut prev_misp) = (0u64, false);
    // `i % fetch_width` and `i % commit_width`, without dividing.
    let (mut kf, mut kc) = (0usize, 0usize);

    for i in 0..n {
        let nd = node(i);

        // --- F node ---
        let (mut tf, mut c) = (0u64, F_START);
        if i > 0 {
            // In-order fetch at finite bandwidth: a new fetch group starts
            // every `fetch_width` instructions.
            pick(&mut tf, &mut c, tf_prev + u64::from(kf == 0), F_SEQ);
            // Branch misprediction: fetch of the next instruction waits for
            // the branch to execute plus the refill penalty.
            if prev_misp {
                let t = te[(i - 1) & mask] + cfg.mispredict_penalty;
                pick(&mut tf, &mut c, t, F_REFILL);
            }
        }
        if i >= rob {
            // Finite window: the ROB slot is recycled at the commit of the
            // instruction `rob` positions earlier.
            pick(&mut tf, &mut c, tc[(i - rob) & mask] + 1, F_ROB);
        }

        // --- E node (execution completes) ---
        // Dispatch from fetch through the front end, then execute.
        let (mut t_e, mut e) = (tf + cfg.frontend_depth + nd.latency, 0);
        for (k, &d) in nd.deps.iter().enumerate() {
            // Absent producers (NO_DEP wraps to a huge distance) and slack
            // ones, `rob` or more back, read the zero slot.
            let d = d as usize;
            let slot = if i.wrapping_sub(d) < rob {
                d & mask
            } else {
                zero_slot
            };
            pick(&mut t_e, &mut e, te[slot] + nd.latency, k as u8 + 1);
        }
        c |= e << E_SHIFT;

        // --- C node ---
        let mut t_c = t_e;
        if i > 0 {
            let t = tc[(i - 1) & mask] + u64::from(kc == 0);
            let code = c | C_SEQ;
            pick(&mut t_c, &mut c, t, code);
        }
        te[i & mask] = t_e;
        tc[i & mask] = t_c;
        choice[i] = c;
        tf_prev = tf;
        prev_misp = nd.mispredicted;
        kf = if kf + 1 == fw { 0 } else { kf + 1 };
        kc = if kc + 1 == cw { 0 } else { kc + 1 };
    }

    // Backtrack from the last commit, attributing edge weights.
    #[derive(Clone, Copy)]
    enum At {
        F,
        E,
        C,
    }
    let mut breakdown = Breakdown::default();
    let (mut at, mut i) = (At::C, n - 1);
    loop {
        let c = choice[i];
        match at {
            At::F => match c & 3 {
                F_START => break,
                F_SEQ => {
                    breakdown.add(Category::Fetch, u64::from(i % fw == 0) as f64);
                    i -= 1;
                }
                F_REFILL => {
                    breakdown.add(Category::Fetch, cfg.mispredict_penalty as f64);
                    (at, i) = (At::E, i - 1);
                }
                _ => {
                    breakdown.add(Category::Fetch, 1.0);
                    (at, i) = (At::C, i - rob);
                }
            },
            At::E => {
                let nd = node(i);
                match (c >> E_SHIFT) & 3 {
                    0 => {
                        let w = cfg.frontend_depth + nd.latency;
                        breakdown.add(nd.cat, w as f64);
                        at = At::F;
                    }
                    k => {
                        breakdown.add(nd.cat, nd.latency as f64);
                        i = nd.deps[k as usize - 1] as usize;
                    }
                }
            }
            At::C => {
                if c & C_SEQ == 0 {
                    breakdown.add(Category::Exec, 0.0);
                    at = At::E;
                } else {
                    breakdown.add(Category::Commit, u64::from(i % cw == 0) as f64);
                    i -= 1;
                }
            }
        }
    }
    PathResult {
        cycles: tc[(n - 1) & mask],
        breakdown,
    }
}

/// Category of an instruction's execution-latency edges.
pub(crate) fn exec_category(class: InstClass, served: Option<Level>) -> Category {
    match (class, served) {
        (InstClass::Load, Some(Level::Mem)) => Category::Mem,
        (InstClass::Load, Some(Level::L2)) => Category::L2,
        _ => Category::Exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{ProgramBuilder, Reg};
    use preexec_trace::FuncSim;

    fn default_cfg() -> CritPathConfig {
        CritPathConfig::default()
    }

    fn inputs_uniform(trace: &Trace, latency: u64) -> Vec<NodeInput> {
        trace
            .iter()
            .map(|_| NodeInput {
                latency,
                served: None,
                mispredicted: false,
            })
            .collect()
    }

    #[test]
    fn categories_enumerate_and_display() {
        assert_eq!(Category::ALL.len(), 5);
        let names: Vec<String> = Category::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, vec!["fetch", "commit", "exec", "L2", "mem"]);
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = Trace::default();
        let r = longest_path(&t, &[], &default_cfg());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.breakdown.total(), 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut b = ProgramBuilder::new("p");
        let r1 = Reg::new(1);
        b.li(r1, 0);
        for _ in 0..50 {
            b.addi(r1, r1, 1);
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(1000);
        let inputs = inputs_uniform(&t, 1);
        let r = longest_path(&t, &inputs, &default_cfg());
        assert!((r.breakdown.total() - r.cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn dependent_chain_is_serial() {
        // 50 dependent addis: execution time ~ frontend + 50 cycles.
        let mut b = ProgramBuilder::new("chain");
        let r1 = Reg::new(1);
        b.li(r1, 0);
        for _ in 0..50 {
            b.addi(r1, r1, 1);
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(1000);
        let inputs = inputs_uniform(&t, 1);
        let cfg = default_cfg();
        let r = longest_path(&t, &inputs, &cfg);
        let expected_min = cfg.frontend_depth + 50;
        assert!(
            r.cycles >= expected_min && r.cycles <= expected_min + 12,
            "cycles {} vs expected ~{}",
            r.cycles,
            expected_min
        );
        // The chain dominates: exec is the biggest component.
        assert!(r.breakdown.exec > r.breakdown.fetch);
    }

    #[test]
    fn independent_instructions_are_fetch_bound() {
        // 300 independent instructions: time ~ 300 / fetch_width.
        let mut b = ProgramBuilder::new("ilp");
        for k in 0..300u32 {
            b.li(Reg::new(1 + (k % 8) as u8), k as i64);
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(1000);
        let inputs = inputs_uniform(&t, 1);
        let cfg = default_cfg();
        let r = longest_path(&t, &inputs, &cfg);
        let expected = 301 / cfg.fetch_width as u64;
        assert!(
            r.cycles as i64 - expected as i64 <= cfg.frontend_depth as i64 + 3,
            "cycles {} expected ~{}",
            r.cycles,
            expected
        );
        assert!(r.breakdown.fetch > r.breakdown.exec);
    }

    #[test]
    fn memory_latency_shows_in_mem_category() {
        let mut b = ProgramBuilder::new("mem");
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        b.li(r1, 0x1000);
        b.ld(r2, r1, 0);
        b.addi(r2, r2, 1); // depends on the load
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let mut inputs = inputs_uniform(&t, 1);
        inputs[1] = NodeInput {
            latency: 214,
            served: Some(Level::Mem),
            mispredicted: false,
        };
        let r = longest_path(&t, &inputs, &default_cfg());
        assert!(r.breakdown.mem >= 214.0);
        assert!(r.cycles as f64 >= 214.0);
    }

    #[test]
    fn mispredicted_branch_adds_refill() {
        let mut b = ProgramBuilder::new("br");
        let r1 = Reg::new(1);
        b.li(r1, 1);
        b.bne(r1, Reg::ZERO, "t");
        b.nop();
        b.label("t");
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let cfg = default_cfg();
        let base = longest_path(&t, &inputs_uniform(&t, 1), &cfg);
        let mut inputs = inputs_uniform(&t, 1);
        inputs[1].mispredicted = true;
        let with_misp = longest_path(&t, &inputs, &cfg);
        assert!(with_misp.cycles > base.cycles);
        assert!(with_misp.breakdown.fetch > base.breakdown.fetch);
    }

    #[test]
    fn rob_limit_serializes_long_latency_groups() {
        // With a tiny ROB, a long-latency load blocks fetch of
        // instructions ROB-distance later.
        let mut b = ProgramBuilder::new("rob");
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        b.li(r1, 0x1000);
        b.ld(r2, r1, 0);
        for _ in 0..40 {
            b.nop();
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let mut cfg = default_cfg();
        cfg.rob_size = 8;
        let mut inputs = inputs_uniform(&t, 1);
        inputs[1] = NodeInput {
            latency: 200,
            served: Some(Level::Mem),
            mispredicted: false,
        };
        let small = longest_path(&t, &inputs, &cfg);
        cfg.rob_size = 128;
        let big = longest_path(&t, &inputs, &cfg);
        assert!(
            small.cycles > big.cycles,
            "small-ROB {} should exceed big-ROB {}",
            small.cycles,
            big.cycles
        );
    }

    #[test]
    fn reducing_a_load_never_increases_time() {
        let mut b = ProgramBuilder::new("mono");
        let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.li(r1, 0x1000);
        b.ld(r2, r1, 0);
        b.ld(r3, r1, 64);
        b.add(r2, r2, r3);
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let mk = |lat1: u64, lat2: u64| {
            let mut v = inputs_uniform(&t, 1);
            v[1] = NodeInput {
                latency: lat1,
                served: Some(Level::Mem),
                mispredicted: false,
            };
            v[2] = NodeInput {
                latency: lat2,
                served: Some(Level::Mem),
                mispredicted: false,
            };
            v
        };
        let cfg = default_cfg();
        let full = longest_path(&t, &mk(214, 214), &cfg).cycles;
        let half = longest_path(&t, &mk(107, 214), &cfg).cycles;
        let both = longest_path(&t, &mk(107, 107), &cfg).cycles;
        assert!(half <= full);
        assert!(both <= half);
        // Interaction: with the second load still slow, halving the first
        // gains nothing (they overlap).
        assert_eq!(half, full);
    }
}

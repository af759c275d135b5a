//! The retained reference pipeline (slow path).
//!
//! This is the original map-backed, cycle-at-a-time implementation of the
//! pipeline, kept verbatim as test support: the correctness oracle for the
//! data-oriented hot path in `crates/sim/src/pipeline.rs`. It is compiled
//! only into the differential wall (`tests/fastpath.rs`), which runs both
//! and asserts cycle counts, retirement counts, and every energy term are
//! identical. When the two disagree, trust this one — and keep any edit
//! here in lockstep with the hot path.
//!
//! The only change from the historical implementation is scratch-buffer
//! reuse where it was free (per-decode trigger-list clones), so the
//! differential runs themselves don't dominate CI time.
//!
//! Per-cycle stage order (back to front, so a freed resource is reusable
//! the same cycle): redirect handling → commit → issue → p-thread
//! sequencing → main-thread decode/rename → main-thread fetch.
//!
//! Modelling decisions (see DESIGN.md for rationale):
//!
//! * **Functional-at-decode**: correct-path main-thread instructions are
//!   executed architecturally, in order, at decode. Timing is modelled
//!   separately by the backend. Wrong-path instructions (fetched between a
//!   mispredicted branch's decode and its resolution) occupy resources and
//!   consume energy but have no architectural effect.
//! * **Lightweight p-threads**: p-instructions get reservation stations
//!   and issue slots but no ROB entries and never commit; p-thread loads
//!   probe the L1D but fill only the L2 (the DDMT prefetch policy).
//! * **Spawn at decode**: a trigger spawns its p-thread when the main
//!   thread decodes it, copying the in-order speculative register file —
//!   the DDMT map-table checkpoint. Wrong-path triggers spawn too (and
//!   waste energy), which is why PTHSEL+E's energy-overhead predictions
//!   err low, as the paper observes.

use preexec_bpred::{Btb, HybridPredictor};
#[cfg(feature = "sanitize")]
use preexec_energy::AccessCounts;
use preexec_isa::{Inst, InstClass, Pc, Program, Reg, NUM_ARCH_REGS};
use preexec_mem::{Hierarchy, Level};
use preexec_sim::{SimConfig, SimReport, SpawnPoint};
use pthsel::PThread;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Index of an in-flight instruction in the window arena.
type InstId = u32;

const MAIN: u8 = u8::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Dispatched, waiting for operands (occupies a reservation station).
    Waiting,
    /// Issued; `done_at` is final.
    Issued,
    /// Squashed on a misprediction; ignored by commit.
    Squashed,
}

#[derive(Clone, Debug)]
struct InFlight {
    /// `MAIN` or p-thread context index.
    thread: u8,
    inst: Inst,
    wrong_path: bool,
    deps: Vec<InstId>,
    dispatched_at: u64,
    state: State,
    done_at: u64,
    /// Effective address for memory operations (functional).
    addr: u64,
    /// For trigger instructions under [`SpawnPoint::Commit`]: the register
    /// checkpoint captured at decode plus the bodies to spawn, consumed
    /// when the trigger commits.
    checkpoint: Option<Box<CommitSpawn>>,
}

/// Deferred spawn state for [`SpawnPoint::Commit`].
#[derive(Clone, Debug)]
struct CommitSpawn {
    regs: [u64; NUM_ARCH_REGS],
    bodies: Vec<usize>,
}

#[derive(Clone, Copy, Debug)]
struct Fetched {
    pc: Pc,
    fetch_cycle: u64,
    wrong_path: bool,
    /// For conditional branches: the direction prediction that actually
    /// steered fetch. Misprediction is judged against this, not against a
    /// re-prediction at decode (the predictor state moves in between).
    predicted_taken: bool,
    /// `true` when the direction came from a branch-p-thread hint rather
    /// than the predictor.
    from_hint: bool,
}

/// Rolling snapshots for the `sanitize` feature's per-cycle invariant
/// checks (counter monotonicity, in-order retirement).
#[cfg(feature = "sanitize")]
#[derive(Clone, Debug, Default)]
struct Sanitizer {
    prev_counts: AccessCounts,
    prev_committed: u64,
    prev_pinsts: u64,
    last_commit: Option<InstId>,
}

/// Panics with the violating cycle number when a pipeline invariant
/// fails. The differential harness catches this and attaches the
/// replayable fuzz seed.
#[cfg(feature = "sanitize")]
macro_rules! sanity {
    ($self:expr, $cond:expr, $($arg:tt)+) => {
        if !$cond {
            panic!("[sanitize] cycle {}: {}", $self.cycle, format!($($arg)+));
        }
    };
}

#[derive(Clone, Debug)]
struct PthreadCtx {
    body: Vec<Inst>,
    next: usize,
    regs: [u64; NUM_ARCH_REGS],
    reg_producer: [Option<InstId>; NUM_ARCH_REGS],
    /// Dispatched-but-not-issued p-instruction backlog indicator: the
    /// context stalls sequencing while its previous instruction could not
    /// get a reservation station.
    stalled: bool,
    /// For branch pre-execution: the branch whose outcome this p-thread
    /// computes and the dynamic occurrence index it applies to; on
    /// completion the outcome becomes a fetch hint for that instance.
    hint_branch: Option<(Pc, u64)>,
}

/// The timing simulator.
///
/// # Examples
///
/// ```
/// use preexec_isa::{ProgramBuilder, Reg};
/// use preexec_sim::SimConfig;
///
/// let mut b = ProgramBuilder::new("p");
/// b.li(Reg::new(1), 20).addi(Reg::new(1), Reg::new(1), 22).halt();
/// let prog = b.build();
/// let report = ReferenceSimulator::new(&prog, SimConfig::default()).run();
/// assert!(report.finished);
/// assert_eq!(report.committed, 3);
/// ```
#[derive(Clone, Debug)]
pub struct ReferenceSimulator<'p> {
    program: &'p Program,
    cfg: SimConfig,
    hier: Hierarchy,
    bpred: HybridPredictor,
    btb: Btb,
    cycle: u64,

    // Front end.
    fetch_pc: Pc,
    fetch_stalled_until: u64,
    fetch_halted: bool,
    on_wrong_path: bool,
    redirect_branch: Option<InstId>,
    redirect_target: Pc,
    fetch_buf: VecDeque<Fetched>,
    decoded_halt: bool,

    // In-order speculative architectural state (correct path).
    spec_regs: [u64; NUM_ARCH_REGS],
    spec_mem: HashMap<u64, u64>,
    reg_producer: [Option<InstId>; NUM_ARCH_REGS],
    store_producer: HashMap<u64, InstId>,

    // Backend.
    window: Vec<InFlight>,
    rob: VecDeque<InstId>,
    waiting: Vec<InstId>,
    outstanding_misses: Vec<u64>, // ready_at of in-flight misses (MSHRs)

    // Pre-execution.
    contexts: Vec<Option<PthreadCtx>>,
    triggers: HashMap<Pc, Vec<usize>>, // trigger pc -> indices into bodies
    bodies: Vec<Vec<Inst>>,
    body_hints: Vec<Option<(Pc, u64)>>, // (branch, lookahead) per body
    branch_hints: HashMap<Pc, HashMap<u64, bool>>, // pc -> occurrence -> outcome
    branch_decoded: HashMap<Pc, u64>,   // correct-path decode counts per branch

    report: SimReport,
    /// Cycle at which measurement started (after warm-up).
    measure_from: u64,
    warmup_left: u64,
    /// In-flight p-instructions holding a destination register right now.
    pth_pregs_inflight: u64,
    /// Reused across decode cycles to avoid cloning the trigger list on
    /// every trigger decode.
    trigger_scratch: Vec<usize>,
    #[cfg(feature = "sanitize")]
    sanitizer: Sanitizer,
}

impl<'p> ReferenceSimulator<'p> {
    /// Creates a simulator for `program` with no p-threads installed.
    pub fn new(program: &'p Program, cfg: SimConfig) -> ReferenceSimulator<'p> {
        let mut spec_mem = HashMap::new();
        for (a, v) in program.image().iter() {
            spec_mem.insert(a, v);
        }
        ReferenceSimulator {
            program,
            cfg,
            hier: Hierarchy::new(cfg.hierarchy),
            bpred: HybridPredictor::new(cfg.predictor),
            btb: Btb::new(cfg.predictor.btb_entries),
            cycle: 0,
            fetch_pc: program.entry(),
            fetch_stalled_until: 0,
            fetch_halted: false,
            on_wrong_path: false,
            redirect_branch: None,
            redirect_target: 0,
            fetch_buf: VecDeque::new(),
            decoded_halt: false,
            spec_regs: [0; NUM_ARCH_REGS],
            spec_mem,
            reg_producer: [None; NUM_ARCH_REGS],
            store_producer: HashMap::new(),
            window: Vec::new(),
            rob: VecDeque::new(),
            waiting: Vec::new(),
            outstanding_misses: Vec::new(),
            contexts: vec![None; cfg.pthread_contexts],
            triggers: HashMap::new(),
            bodies: Vec::new(),
            body_hints: Vec::new(),
            branch_hints: HashMap::new(),
            branch_decoded: HashMap::new(),
            report: SimReport::default(),
            measure_from: 0,
            warmup_left: cfg.warmup_commits,
            pth_pregs_inflight: 0,
            trigger_scratch: Vec::new(),
            #[cfg(feature = "sanitize")]
            sanitizer: Sanitizer::default(),
        }
    }

    /// Installs the selected p-threads: the executable is "augmented" so
    /// that decoding a trigger PC spawns the corresponding body.
    ///
    /// With the `sanitize` feature, every installed p-thread first passes
    /// the static verifier (`preexec-analysis`): the spawn paths below
    /// assume store-free, control-less, well-anchored bodies, and a
    /// violation here panics at install time instead of corrupting
    /// architectural state mid-run.
    pub fn with_pthreads(mut self, pthreads: &[PThread]) -> ReferenceSimulator<'p> {
        #[cfg(feature = "sanitize")]
        for (i, p) in pthreads.iter().enumerate() {
            let shape = preexec_analysis::PthreadShape {
                trigger_pc: p.trigger_pc,
                body: &p.body,
                targets: &p.targets,
                branch_hint: p.branch_hint,
            };
            let errors: Vec<String> =
                preexec_analysis::verify_pthread(self.program, &shape, usize::MAX)
                    .into_iter()
                    .filter(preexec_analysis::Finding::is_error)
                    .map(|f| f.to_string())
                    .collect();
            assert!(
                errors.is_empty(),
                "[sanitize] p-thread {i} (trigger pc {}) failed static verification: {}",
                p.trigger_pc,
                errors.join("; ")
            );
        }
        for p in pthreads {
            let idx = self.bodies.len();
            self.bodies.push(p.body.clone());
            self.body_hints
                .push(p.branch_hint.map(|pc| (pc, p.hint_lookahead.max(1))));
            self.triggers.entry(p.trigger_pc).or_default().push(idx);
        }
        self
    }

    /// Runs to completion (the program's `halt` commits) or to the cycle
    /// cap, returning the report. The simulator remains inspectable (e.g.
    /// [`ReferenceSimulator::spec_regs`]) after the run.
    pub fn run(&mut self) -> SimReport {
        let start = std::time::Instant::now();
        while !self.report.finished && self.cycle < self.cfg.max_cycles {
            self.cycle += 1;
            self.handle_redirect();
            self.commit();
            self.issue();
            let used_fetch = self.sequence_pthreads();
            self.decode_main();
            self.fetch_main(used_fetch);
            #[cfg(feature = "sanitize")]
            self.sanitize_cycle();
        }
        self.report.cycles = self.cycle - self.measure_from;
        self.report.wall_nanos = start.elapsed().as_nanos() as u64;
        self.report.clone()
    }

    /// Architectural register values of the in-order (speculative) state;
    /// equal to the committed state once the run finishes.
    pub fn spec_regs(&self) -> [u64; NUM_ARCH_REGS] {
        self.spec_regs
    }

    /// Snapshot of the in-order (speculative) data memory — the initial
    /// image plus every correct-path store — sorted by word address;
    /// equal to the committed memory once the run finishes.
    pub fn spec_mem(&self) -> BTreeMap<u64, u64> {
        self.spec_mem.iter().map(|(&a, &v)| (a, v)).collect()
    }

    fn spec_reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.spec_regs[r.index()]
        }
    }

    // ----- redirect -----

    fn handle_redirect(&mut self) {
        let Some(bid) = self.redirect_branch else {
            return;
        };
        let done = {
            let b = &self.window[bid as usize];
            b.state == State::Issued && b.done_at <= self.cycle
        };
        if !done {
            return;
        }
        // Squash wrong-path work everywhere.
        self.fetch_buf.clear();
        self.waiting.retain(|&id| {
            let squash = self.window[id as usize].wrong_path;
            if squash {
                self.window[id as usize].state = State::Squashed;
            }
            !squash
        });
        while let Some(&tail) = self.rob.back() {
            if self.window[tail as usize].wrong_path {
                self.window[tail as usize].state = State::Squashed;
                self.rob.pop_back();
            } else {
                break;
            }
        }
        self.fetch_pc = self.redirect_target;
        self.on_wrong_path = false;
        self.redirect_branch = None;
        self.fetch_halted = false;
        self.fetch_stalled_until = self.cycle + 1;
    }

    // ----- commit -----

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(&head) = self.rob.front() else {
                return;
            };
            let (ready, is_store, is_halt, addr, wrong) = {
                let e = &self.window[head as usize];
                (
                    e.state == State::Issued && e.done_at <= self.cycle,
                    e.inst.is_store(),
                    matches!(e.inst, Inst::Halt),
                    e.addr,
                    e.state == State::Squashed,
                )
            };
            if wrong {
                self.rob.pop_front();
                continue;
            }
            if !ready {
                return;
            }
            self.rob.pop_front();
            #[cfg(feature = "sanitize")]
            self.sanitize_commit(head);
            self.report.committed += 1;
            if self.warmup_left > 0 {
                self.warmup_left -= 1;
                if self.warmup_left == 0 {
                    self.end_warmup();
                }
            }
            if let Some(cs) = self.window[head as usize].checkpoint.take() {
                for b in &cs.bodies {
                    self.spawn_with(*b, false, cs.regs);
                }
            }
            if is_store {
                // The write itself happens at retirement.
                let acc = self.hier.store(addr, self.cycle);
                self.report.counts.dmem_main += 1;
                if acc.served != Level::L1 {
                    self.report.counts.l2_main += 1;
                }
                #[cfg(feature = "sanitize")]
                sanity!(
                    self,
                    self.hier.l1d_has_line(addr, self.cycle),
                    "committed store to {addr:#x} left no line in the L1D"
                );
            }
            if is_halt {
                self.report.finished = true;
                return;
            }
        }
    }

    /// Ends the warm-up phase: caches, predictors, and architectural state
    /// stay warm, but every measurement counter restarts.
    fn end_warmup(&mut self) {
        self.measure_from = self.cycle;
        self.hier.reset_stats();
        self.report = SimReport::default();
        // The monotonicity snapshots must restart with the counters.
        #[cfg(feature = "sanitize")]
        {
            self.sanitizer.prev_counts = AccessCounts::default();
            self.sanitizer.prev_committed = 0;
            self.sanitizer.prev_pinsts = 0;
        }
    }

    // ----- issue -----

    fn issue(&mut self) {
        let mut issued = 0;
        let mut loads = 0;
        let mut stores = 0;
        self.outstanding_misses.retain(|&r| r > self.cycle);
        let mut i = 0;
        while i < self.waiting.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            let id = self.waiting[i];
            if !self.can_issue(id) {
                i += 1;
                continue;
            }
            let class = self.window[id as usize].inst.class();
            match class {
                InstClass::Load => {
                    if loads >= self.cfg.load_ports
                        || self.outstanding_misses.len() >= self.cfg.mshrs
                    {
                        i += 1;
                        continue;
                    }
                    loads += 1;
                }
                InstClass::Store => {
                    if stores >= self.cfg.store_ports {
                        i += 1;
                        continue;
                    }
                    stores += 1;
                }
                _ => {}
            }
            self.do_issue(id);
            issued += 1;
            self.waiting.swap_remove(i);
        }
    }

    fn can_issue(&self, id: InstId) -> bool {
        let e = &self.window[id as usize];
        if e.dispatched_at + 1 > self.cycle {
            return false;
        }
        e.deps.iter().all(|&d| {
            let p = &self.window[d as usize];
            matches!(p.state, State::Issued | State::Squashed) && p.done_at <= self.cycle
        })
    }

    fn do_issue(&mut self, id: InstId) {
        #[cfg(feature = "sanitize")]
        self.sanitize_issue(id);
        let (thread, inst, addr, wrong) = {
            let e = &self.window[id as usize];
            (e.thread, e.inst, e.addr, e.wrong_path)
        };
        // A p-instruction's physical register is recyclable once its value
        // is produced; the gauge tracks the dispatch→issue window, a
        // conservative proxy for live p-thread registers.
        if thread != MAIN && inst.dst().is_some() {
            self.pth_pregs_inflight = self.pth_pregs_inflight.saturating_sub(1);
        }
        let latency = match inst.class() {
            InstClass::IntMul => self.cfg.mul_latency,
            InstClass::Load => {
                if wrong {
                    // Wrong-path loads access the data cache with stale
                    // register values (the address computed from the
                    // in-order state at decode): they pollute, occupy
                    // MSHRs, and burn energy, but never count as demand
                    // misses or coverage.
                    let acc = self.hier.load(addr, self.cycle);
                    self.report.counts.dmem_main += 1;
                    if acc.served != Level::L1 {
                        self.report.counts.l2_main += 1;
                    }
                    if acc.served == Level::Mem {
                        self.outstanding_misses.push(acc.ready_at);
                    }
                    acc.ready_at.saturating_sub(self.cycle).max(1)
                } else if thread == MAIN {
                    let acc = self.hier.load(addr, self.cycle);
                    self.report.counts.dmem_main += 1;
                    if acc.served != Level::L1 {
                        self.report.counts.l2_main += 1;
                    }
                    match acc.served {
                        Level::Mem => {
                            self.report.l2_misses_demand += 1;
                            self.outstanding_misses.push(acc.ready_at);
                        }
                        Level::L2 => {
                            if acc.pthread_line {
                                if acc.partial {
                                    self.report.covered_partial += 1;
                                    self.report.l2_misses_demand += 1;
                                } else {
                                    self.report.covered_full += 1;
                                }
                            }
                            if acc.partial {
                                self.outstanding_misses.push(acc.ready_at);
                            }
                        }
                        Level::L1 => {}
                    }
                    acc.ready_at.saturating_sub(self.cycle).max(1)
                } else {
                    let acc = if self.cfg.prefetch_l1 {
                        self.hier.pthread_load_fill_l1(addr, self.cycle)
                    } else {
                        self.hier.pthread_load(addr, self.cycle)
                    };
                    self.report.counts.dmem_pth += 1;
                    if acc.served != Level::L1 {
                        self.report.counts.l2_pth += 1;
                    }
                    if acc.served == Level::Mem {
                        self.outstanding_misses.push(acc.ready_at);
                    }
                    acc.ready_at.saturating_sub(self.cycle).max(1)
                }
            }
            _ => 1,
        };
        // A data access of any kind must leave its line in the level it
        // fills: L1D for demand and L1-prefetching p-thread loads. An
        // ordinary p-thread load fills the L2 — unless it was served by
        // the L1D, which it only probes — so the line must be somewhere
        // on chip, but not necessarily in the L2.
        #[cfg(feature = "sanitize")]
        if inst.is_load() {
            if thread == MAIN || self.cfg.prefetch_l1 {
                sanity!(
                    self,
                    self.hier.l1d_has_line(addr, self.cycle),
                    "load from {addr:#x} left no line in the L1D"
                );
            } else {
                sanity!(
                    self,
                    self.hier.l2_has_line(addr, self.cycle)
                        || self.hier.l1d_has_line(addr, self.cycle),
                    "p-thread load from {addr:#x} left no line on chip"
                );
            }
        }
        let e = &mut self.window[id as usize];
        e.state = State::Issued;
        e.done_at = self.cycle + latency;
    }

    // ----- p-thread sequencing -----

    /// Dispatches up to one p-instruction per active context, consuming
    /// shared fetch/sequencing slots. Returns the number of slots used.
    fn sequence_pthreads(&mut self) -> u32 {
        let mut used = 0;
        for ci in 0..self.contexts.len() {
            if used >= self.cfg.fetch_width {
                break;
            }
            let Some(ctx) = self.contexts[ci].as_ref() else {
                continue;
            };
            if ctx.next >= ctx.body.len() {
                self.retire_context(ci);
                continue;
            }
            // A reservation station is required to dispatch.
            if self.rs_used() >= self.cfg.rs_size {
                self.contexts[ci].as_mut().expect("checked").stalled = true;
                used += 1; // the slot is consumed trying
                continue;
            }
            used += 1;
            self.dispatch_pinst(ci);
        }
        used
    }

    fn rs_used(&self) -> usize {
        self.waiting.len()
    }

    fn dispatch_pinst(&mut self, ci: usize) {
        let ctx = self.contexts[ci].as_mut().expect("active context");
        let inst = ctx.body[ctx.next];
        ctx.next += 1;
        ctx.stalled = false;
        // Functional evaluation against the context register file.
        let read = |regs: &[u64; NUM_ARCH_REGS], r: Reg| -> u64 {
            if r.is_zero() {
                0
            } else {
                regs[r.index()]
            }
        };
        let mut deps = Vec::new();
        for s in inst.srcs() {
            if let Some(p) = ctx.reg_producer[s.index()] {
                deps.push(p);
            }
        }
        let mut addr = 0;
        let value = match inst {
            Inst::Alu { op, src1, src2, .. } => {
                op.apply(read(&ctx.regs, src1), read(&ctx.regs, src2))
            }
            Inst::AluImm { op, src1, imm, .. } => op.apply(read(&ctx.regs, src1), imm as u64),
            Inst::LoadImm { imm, .. } => imm as u64,
            Inst::Load { base, offset, .. } => {
                addr = read(&ctx.regs, base).wrapping_add(offset as u64) & !7;
                0 // filled below from memory
            }
            // Stores/branches never appear in p-thread bodies.
            _ => 0,
        };
        let id = self.window.len() as InstId;
        let is_alu = matches!(inst.class(), InstClass::IntAlu | InstClass::IntMul);
        let entry = InFlight {
            thread: ci as u8,
            inst,
            wrong_path: false,
            deps,
            dispatched_at: self.cycle,
            state: State::Waiting,
            done_at: u64::MAX,
            addr,
            checkpoint: None,
        };
        // Complete the functional value for loads (from the in-order
        // speculative memory: p-threads run ahead of commit).
        let value = if inst.is_load() {
            self.spec_mem.get(&addr).copied().unwrap_or(0)
        } else {
            value
        };
        let ctx = self.contexts[ci].as_mut().expect("active context");
        if let Some(dst) = inst.dst() {
            ctx.regs[dst.index()] = value;
            ctx.reg_producer[dst.index()] = Some(id);
        }
        if inst.dst().is_some() {
            self.pth_pregs_inflight += 1;
            self.report.max_pthread_pregs =
                self.report.max_pthread_pregs.max(self.pth_pregs_inflight);
        }
        self.window.push(entry);
        self.waiting.push(id);
        self.report.pinsts += 1;
        self.report.counts.dispatch_pth += 1;
        if is_alu {
            self.report.counts.alu_pth += 1;
        }
    }

    fn spawn_with(&mut self, body_idx: usize, wrong_path: bool, regs: [u64; NUM_ARCH_REGS]) {
        self.report.spawns += 1;
        if wrong_path {
            self.report.spawns_wrong_path += 1;
        }
        let Some(slot) = self.contexts.iter().position(Option::is_none) else {
            self.report.spawns_dropped += 1;
            return;
        };
        let body = self.bodies[body_idx].clone();
        // Fetch energy: p-threads sequence from the instruction cache in
        // processor-width blocks (equation E5).
        self.report.counts.imem_pth += (body.len() as u64).div_ceil(self.cfg.fetch_width as u64);
        self.contexts[slot] = Some(PthreadCtx {
            body,
            next: 0,
            regs,
            reg_producer: [None; NUM_ARCH_REGS],
            stalled: false,
            hint_branch: self.body_hints[body_idx].map(|(pc, k)| {
                // The hint lands k occurrences of the target after the
                // spawn point.
                (pc, self.branch_decoded.get(&pc).copied().unwrap_or(0) + k)
            }),
        });
    }

    /// Frees a finished p-thread context; a branch-predicting p-thread
    /// deposits its computed outcome as a fetch hint for the next dynamic
    /// instance of its branch.
    fn retire_context(&mut self, ci: usize) {
        let ctx = self.contexts[ci].take().expect("active context");
        let Some((bpc, occ)) = ctx.hint_branch else {
            return;
        };
        // Too late: the target instance has already decoded.
        if self.branch_decoded.get(&bpc).copied().unwrap_or(0) >= occ {
            return;
        }
        if let Some(Inst::Branch {
            cond, src1, src2, ..
        }) = self.program.get(bpc)
        {
            let read = |r: Reg| if r.is_zero() { 0 } else { ctx.regs[r.index()] };
            let taken = cond.eval(read(*src1), read(*src2));
            let q = self.branch_hints.entry(bpc).or_default();
            if q.len() < 64 {
                q.insert(occ, taken);
            }
        }
    }

    // ----- main-thread decode/rename -----

    fn decode_main(&mut self) {
        for _ in 0..self.cfg.decode_width {
            if self.decoded_halt {
                return;
            }
            let Some(&f) = self.fetch_buf.front() else {
                return;
            };
            if f.fetch_cycle + self.cfg.decode_delay > self.cycle {
                return;
            }
            if self.rob.len() >= self.cfg.rob_size || self.rs_used() >= self.cfg.rs_size {
                return;
            }
            self.fetch_buf.pop_front();
            self.decode_one(f);
        }
    }

    fn decode_one(&mut self, f: Fetched) {
        let inst = *self.program.inst(f.pc);
        let id = self.window.len() as InstId;
        // Dependences from the latest in-flight producers.
        let mut deps = Vec::new();
        for s in inst.srcs() {
            if let Some(p) = self.reg_producer[s.index()] {
                deps.push(p);
            }
        }
        let mut addr = 0;
        if f.wrong_path {
            // Stale-address computation for wrong-path memory operations:
            // operands read the current in-order state, which is what the
            // real machine's (mis)speculative rename map would supply.
            match inst {
                Inst::Load { base, offset, .. } => {
                    addr = self.spec_reg(base).wrapping_add(offset as u64) & !7;
                }
                Inst::Store { base, offset, .. } => {
                    addr = self.spec_reg(base).wrapping_add(offset as u64) & !7;
                }
                _ => {}
            }
        }
        // Spawn p-threads at trigger decode, BEFORE the trigger's own
        // functional effect: the DDMT checkpoint captures the map table as
        // of the trigger's rename, and the p-thread body contains its own
        // copy of the trigger instruction. (Spawning after would apply the
        // trigger twice and derail value recurrences in the slice.)
        let mut checkpoint = None;
        if self.triggers.contains_key(&f.pc) {
            match self.cfg.spawn_point {
                SpawnPoint::Decode => {
                    let mut scratch = std::mem::take(&mut self.trigger_scratch);
                    scratch.clear();
                    scratch.extend_from_slice(&self.triggers[&f.pc]);
                    for &b in &scratch {
                        self.spawn_with(b, f.wrong_path, self.spec_regs);
                    }
                    self.trigger_scratch = scratch;
                }
                SpawnPoint::Commit => {
                    // Stash the checkpoint; the spawn happens (non-
                    // speculatively) when this instruction commits.
                    if !f.wrong_path {
                        checkpoint = Some(Box::new(CommitSpawn {
                            regs: self.spec_regs,
                            bodies: self.triggers[&f.pc].clone(),
                        }));
                    }
                }
            }
        }
        if !f.wrong_path {
            // Functional, in-order execution (the reference semantics).
            match inst {
                Inst::Alu {
                    op,
                    dst,
                    src1,
                    src2,
                } => {
                    let v = op.apply(self.spec_reg(src1), self.spec_reg(src2));
                    self.spec_write(dst, v, id);
                }
                Inst::AluImm { op, dst, src1, imm } => {
                    let v = op.apply(self.spec_reg(src1), imm as u64);
                    self.spec_write(dst, v, id);
                }
                Inst::LoadImm { dst, imm } => self.spec_write(dst, imm as u64, id),
                Inst::Load { dst, base, offset } => {
                    addr = self.spec_reg(base).wrapping_add(offset as u64) & !7;
                    let v = self.spec_mem.get(&addr).copied().unwrap_or(0);
                    self.spec_write(dst, v, id);
                    if let Some(&sp) = self.store_producer.get(&addr) {
                        deps.push(sp);
                    }
                }
                Inst::Store { src, base, offset } => {
                    addr = self.spec_reg(base).wrapping_add(offset as u64) & !7;
                    self.spec_mem.insert(addr, self.spec_reg(src));
                    self.store_producer.insert(addr, id);
                }
                Inst::Branch {
                    cond,
                    src1,
                    src2,
                    target,
                } => {
                    let taken = cond.eval(self.spec_reg(src1), self.spec_reg(src2));
                    self.report.branches += 1;
                    *self.branch_decoded.entry(f.pc).or_default() += 1;
                    self.bpred.update(f.pc, taken);
                    self.btb.update(f.pc, target);
                    if f.from_hint && f.predicted_taken == taken {
                        self.report.hints_correct += 1;
                    }
                    if f.predicted_taken != taken {
                        self.report.mispredicts += 1;
                        // Everything fetched after this branch is wrong
                        // path until it resolves.
                        for e in self.fetch_buf.iter_mut() {
                            e.wrong_path = true;
                        }
                        self.on_wrong_path = true;
                        self.redirect_branch = Some(id);
                        self.redirect_target = if taken { target } else { f.pc + 1 };
                    }
                }
                Inst::Jump { .. } | Inst::Nop => {}
                Inst::Halt => {
                    self.decoded_halt = true;
                }
            }
            // Spawn p-threads on trigger decode (correct path).
        }
        let is_alu = matches!(inst.class(), InstClass::IntAlu | InstClass::IntMul);
        self.window.push(InFlight {
            thread: MAIN,
            inst,
            wrong_path: f.wrong_path,
            deps,
            dispatched_at: self.cycle,
            state: State::Waiting,
            done_at: u64::MAX,
            addr,
            checkpoint,
        });
        self.rob.push_back(id);
        self.waiting.push(id);
        self.report.counts.dispatch_main += 1;
        self.report.counts.rob_bpred += 1;
        if is_alu {
            self.report.counts.alu_main += 1;
        }
    }

    fn spec_write(&mut self, dst: Reg, v: u64, id: InstId) {
        if !dst.is_zero() {
            self.spec_regs[dst.index()] = v;
            self.reg_producer[dst.index()] = Some(id);
        }
    }

    // ----- main-thread fetch -----

    fn fetch_main(&mut self, used_slots: u32) {
        if self.fetch_halted || self.decoded_halt && !self.on_wrong_path {
            return;
        }
        if self.cycle < self.fetch_stalled_until {
            return;
        }
        if self.fetch_buf.len() >= 2 * self.cfg.fetch_width as usize {
            return; // decoupling buffer full
        }
        let budget = self.cfg.fetch_width.saturating_sub(used_slots);
        if budget == 0 {
            return;
        }
        // One instruction-cache block access per fetch cycle.
        let line = (self.fetch_pc as u64 * 4) & !63;
        let acc = self.hier.fetch(line, self.cycle);
        self.report.counts.imem_main += 1;
        if acc.served != Level::L1 {
            self.report.counts.l2_main += 1;
            self.fetch_stalled_until = acc.ready_at;
            return;
        }
        let mut pc = self.fetch_pc;
        for _ in 0..budget {
            let Some(&inst) = self.program.get(pc) else {
                self.fetch_halted = true;
                break;
            };
            // Stay within the fetched cache block.
            if (pc as u64 * 4) & !63 != line {
                break;
            }
            let (predicted_taken, from_hint) = match inst {
                Inst::Branch { .. } => {
                    // This fetch is the n-th dynamic occurrence of the
                    // branch: already-decoded instances plus the ones
                    // sitting in the fetch buffer ahead of it.
                    let in_buf = self
                        .fetch_buf
                        .iter()
                        .filter(|e| e.pc == pc && !e.wrong_path)
                        .count() as u64;
                    let occ = self.branch_decoded.get(&pc).copied().unwrap_or(0) + in_buf + 1;
                    match self.branch_hints.get_mut(&pc).and_then(|m| m.remove(&occ)) {
                        Some(h) => {
                            self.report.hints_used += 1;
                            (h, true)
                        }
                        None => (self.bpred.predict(pc), false),
                    }
                }
                _ => (false, false),
            };
            self.fetch_buf.push_back(Fetched {
                pc,
                fetch_cycle: self.cycle,
                wrong_path: self.on_wrong_path,
                predicted_taken,
                from_hint,
            });
            match inst {
                Inst::Branch { target, .. } => {
                    if predicted_taken {
                        pc = target;
                        break; // fetch group ends at a predicted-taken branch
                    }
                    pc += 1;
                }
                Inst::Jump { target } => {
                    pc = target;
                    break;
                }
                Inst::Halt => {
                    self.fetch_halted = true;
                    pc += 1;
                    break;
                }
                _ => pc += 1,
            }
        }
        self.fetch_pc = pc;
    }
}

/// The per-cycle invariant checks of the `sanitize` feature. Each check
/// is written against the *specification* of the stage, independently of
/// how the stage computes its result, so a bug in the stage logic cannot
/// hide the same bug in the check.
#[cfg(feature = "sanitize")]
impl ReferenceSimulator<'_> {
    /// Runs every end-of-cycle invariant; called from [`ReferenceSimulator::run`].
    fn sanitize_cycle(&mut self) {
        // Structural occupancies never exceed capacity.
        sanity!(
            self,
            self.rob.len() <= self.cfg.rob_size,
            "ROB holds {} entries, capacity {}",
            self.rob.len(),
            self.cfg.rob_size
        );
        sanity!(
            self,
            self.waiting.len() <= self.cfg.rs_size,
            "{} reservation stations in use, capacity {}",
            self.waiting.len(),
            self.cfg.rs_size
        );
        sanity!(
            self,
            self.outstanding_misses.len() <= self.cfg.mshrs,
            "{} outstanding misses, {} MSHRs",
            self.outstanding_misses.len(),
            self.cfg.mshrs
        );
        let fetch_cap = 3 * self.cfg.fetch_width as usize;
        sanity!(
            self,
            self.fetch_buf.len() <= fetch_cap,
            "fetch buffer holds {} entries, cap {fetch_cap}",
            self.fetch_buf.len()
        );
        sanity!(
            self,
            self.contexts.len() == self.cfg.pthread_contexts,
            "{} p-thread context slots, configured {}",
            self.contexts.len(),
            self.cfg.pthread_contexts
        );
        // The ROB is a queue in program (dispatch) order.
        for w in 0..self.rob.len().saturating_sub(1) {
            sanity!(
                self,
                self.rob[w] < self.rob[w + 1],
                "ROB order violated: id {} ahead of id {}",
                self.rob[w],
                self.rob[w + 1]
            );
        }
        // Every reservation station holds a genuinely waiting instruction
        // whose dependences were dispatched before it.
        for &id in &self.waiting {
            let e = &self.window[id as usize];
            sanity!(
                self,
                e.state == State::Waiting,
                "id {id} occupies a reservation station in state {:?}",
                e.state
            );
            for &d in &e.deps {
                sanity!(self, d < id, "id {id} depends on later id {d}");
            }
        }
        // Energy counters are monotone (they are u64, so non-negativity
        // is structural; what can break is a reset or an underflow).
        let c = self.report.counts;
        let p = self.sanitizer.prev_counts;
        let pairs = [
            ("imem_main", c.imem_main, p.imem_main),
            ("imem_pth", c.imem_pth, p.imem_pth),
            ("dmem_main", c.dmem_main, p.dmem_main),
            ("dmem_pth", c.dmem_pth, p.dmem_pth),
            ("l2_main", c.l2_main, p.l2_main),
            ("l2_pth", c.l2_pth, p.l2_pth),
            ("dispatch_main", c.dispatch_main, p.dispatch_main),
            ("dispatch_pth", c.dispatch_pth, p.dispatch_pth),
            ("alu_main", c.alu_main, p.alu_main),
            ("alu_pth", c.alu_pth, p.alu_pth),
            ("rob_bpred", c.rob_bpred, p.rob_bpred),
        ];
        for (name, now, before) in pairs {
            sanity!(self, now >= before, "counter {name} went {before} -> {now}");
        }
        sanity!(
            self,
            self.report.committed >= self.sanitizer.prev_committed,
            "committed went {} -> {}",
            self.sanitizer.prev_committed,
            self.report.committed
        );
        let delta = self.report.committed - self.sanitizer.prev_committed;
        sanity!(
            self,
            delta <= self.cfg.commit_width as u64,
            "{delta} commits in one cycle, width {}",
            self.cfg.commit_width
        );
        sanity!(
            self,
            self.report.pinsts >= self.sanitizer.prev_pinsts,
            "pinsts went {} -> {}",
            self.sanitizer.prev_pinsts,
            self.report.pinsts
        );
        self.sanitizer.prev_counts = c;
        self.sanitizer.prev_committed = self.report.committed;
        self.sanitizer.prev_pinsts = self.report.pinsts;
        // Cache/TLB statistics stay coherent: a level's misses never
        // exceed its accesses and every L2 miss is a memory access.
        // (Strict L1⊆L2 content inclusion is NOT a model invariant — L2
        // evictions do not back-invalidate the L1 — so it is not checked.)
        let s = self.hier.stats();
        sanity!(
            self,
            s.l1d_misses <= s.l1d_accesses,
            "L1D misses {} > accesses {}",
            s.l1d_misses,
            s.l1d_accesses
        );
        sanity!(
            self,
            s.l1i_misses <= s.l1i_accesses,
            "L1I misses {} > accesses {}",
            s.l1i_misses,
            s.l1i_accesses
        );
        sanity!(
            self,
            s.l2_misses <= s.l2_accesses,
            "L2 misses {} > accesses {}",
            s.l2_misses,
            s.l2_accesses
        );
        sanity!(
            self,
            s.mem_accesses == s.l2_misses,
            "memory accesses {} != L2 misses {}",
            s.mem_accesses,
            s.l2_misses
        );
        if self.cfg.hierarchy.tlb.is_none() {
            sanity!(
                self,
                s.dtlb_misses == 0 && s.itlb_misses == 0,
                "TLB disabled but recorded {}/{} D/I misses",
                s.dtlb_misses,
                s.itlb_misses
            );
        }
    }

    /// The ROB retires in order: ids commit strictly ascending, and only
    /// completed, correct-path instructions ever commit.
    fn sanitize_commit(&mut self, head: InstId) {
        let e = &self.window[head as usize];
        sanity!(
            self,
            e.state == State::Issued && e.done_at <= self.cycle,
            "id {head} committed in state {:?} (done_at {})",
            e.state,
            e.done_at
        );
        sanity!(self, !e.wrong_path, "wrong-path id {head} committed");
        if let Some(last) = self.sanitizer.last_commit {
            sanity!(self, head > last, "id {head} committed after id {last}");
        }
        self.sanitizer.last_commit = Some(head);
    }

    /// Nothing issues before its operands are ready: every dependence has
    /// produced its value (or been squashed) by this cycle, and at least
    /// one cycle has passed since dispatch.
    fn sanitize_issue(&self, id: InstId) {
        let e = &self.window[id as usize];
        sanity!(
            self,
            e.state == State::Waiting,
            "id {id} issued from state {:?}",
            e.state
        );
        sanity!(
            self,
            e.dispatched_at < self.cycle,
            "id {id} issued the cycle it dispatched"
        );
        for &d in &e.deps {
            let p = &self.window[d as usize];
            let ready = match p.state {
                State::Issued => p.done_at <= self.cycle,
                State::Squashed => true,
                State::Waiting => false,
            };
            sanity!(
                self,
                ready,
                "id {id} issued before operand producer {d} (state {:?}, done_at {}) was ready",
                p.state,
                p.done_at
            );
        }
    }
}

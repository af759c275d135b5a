//! The cycle-driven pipeline model — data-oriented hot path.
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
//!
//! ## Hot-path layout
//!
//! This implementation is the data-oriented rewrite of the historical
//! map-backed pipeline (retained as test support,
//! `tests/support/reference.rs`, and differentially tested against it in
//! `tests/fastpath.rs`):
//!
//! * The in-flight window is a **struct-of-arrays ring** of live entries:
//!   state, dependences (inline, at most two register sources plus one
//!   store-set producer), completion times, and addresses live in parallel
//!   power-of-two vectors, so the issue scan touches dense memory instead
//!   of chasing per-instruction heap allocations. Ids are dispatch-ordered
//!   `u32`s that never repeat; an id's slot is recycled once the window's
//!   horizon passes it, i.e. once nothing can still ask for more about it
//!   than "complete" (see [`Window`] and DESIGN.md).
//! * Speculative memory and the store-producer set use
//!   [`preexec_isa::FlatMap`] (open addressing, splitmix64) instead of
//!   SipHash `HashMap`s; trigger, hint, and branch-occurrence tables are
//!   PC-indexed vectors.
//! * **Event-driven stall fast-forward**: when a cycle makes no observable
//!   progress (nothing fetched, decoded, issued, committed, redirected, and
//!   no p-thread context active), the simulator computes the next cycle at
//!   which any structure can change state — earliest of memory-response
//!   ready, operand ready, decode-delay expiry, fetch unstall — and jumps
//!   the cycle counter just short of it. Idle cycles still count: the
//!   report's `cycles` (and therefore the E1–E8 idle-energy term, which is
//!   `cycles × idle_factor`) is exactly what stepping would produce.
//!   Disable with [`Simulator::with_fast_forward`] to force stepping.

use crate::interval::IntervalSnapshot;
use crate::{SimConfig, SimReport, SpawnPoint};
use preexec_bpred::{Btb, HybridPredictor};
#[cfg(feature = "sanitize")]
use preexec_energy::AccessCounts;
use preexec_isa::{FlatMap, Inst, InstClass, Pc, Program, Reg, NUM_ARCH_REGS};
use preexec_mem::{Hierarchy, Level};
use pthsel::PThread;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Dispatch-order id of an in-flight instruction; its window slot is
/// `id & mask`.
type InstId = u32;

const MAIN: u8 = u8::MAX;

/// Inline dependence capacity: two register sources plus one store-set
/// producer (loads only).
const MAX_DEPS: usize = 3;

/// Ids stay below this so a waiter-chain link (`id * MAX_DEPS + slot`)
/// fits a `u32`.
const MAX_INST_ID: InstId = (u32::MAX - 1) / MAX_DEPS as u32;

/// Initial window ring capacity (a power of two). The ring doubles when
/// the oldest live entry blocks the next slot, so this is a starting
/// size, not a limit.
const WINDOW_INITIAL_CAPACITY: usize = 256;

/// Per-branch fetch-hint queue capacity (matches the reference pipeline's
/// 64-entry cap).
const HINT_CAP: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Dispatched, waiting for operands (occupies a reservation station).
    Waiting,
    /// Issued; `done_at` is final.
    Issued,
    /// Squashed on a misprediction; ignored by commit.
    Squashed,
}

/// The in-flight instruction window, struct-of-arrays: a power-of-two
/// ring of the live entries `oldest..next`, id `i` in slot `i & mask`.
///
/// Ids increase monotonically and are never reused, so ROB order and
/// every id comparison mean dispatch order. The horizon `oldest` only
/// moves past *complete* entries (see [`Simulator::make_room`]): a
/// main-thread entry that has left the ROB (committed or squashed), or a
/// p-instruction that has issued and whose result is ready. Any id below
/// the horizon therefore reads as issued with `done_at <= now`
/// ([`Window::producer_done`]), which is all a later consumer can ask of
/// it; calendar entries below the horizon are stale and dropped.
#[derive(Clone, Debug)]
struct Window {
    /// Every id below this is complete and its slot may be reused.
    oldest: InstId,
    /// The id the next dispatched instruction gets.
    next: InstId,
    /// Ring capacity minus one.
    mask: InstId,
    /// `MAIN` or p-thread context index.
    thread: Vec<u8>,
    inst: Vec<Inst>,
    wrong_path: Vec<bool>,
    state: Vec<u8>, // State encoded; see STATE_* consts
    /// Inline dependence list (producer ids); only the first `dep_cnt`
    /// entries are live.
    deps: Vec<[InstId; MAX_DEPS]>,
    dep_cnt: Vec<u8>,
    dispatched_at: Vec<u64>,
    done_at: Vec<u64>,
    /// Effective address for memory operations (functional).
    addr: Vec<u64>,
    /// For trigger instructions under [`SpawnPoint::Commit`]: the register
    /// checkpoint captured at decode plus the bodies to spawn, consumed
    /// when the trigger commits.
    checkpoint: Vec<Option<Box<CommitSpawn>>>,

    // Issue-calendar bookkeeping (see `Simulator::issue`). These mirror
    // the waiting list and dependence edges so ready instructions are
    // found without scanning the whole reservation pool every cycle.
    /// Current index in `Simulator::waiting` (`u32::MAX` when absent).
    pos_in_waiting: Vec<u32>,
    /// Producers that had not issued when this instruction dispatched;
    /// the last one to issue computes the final ready cycle.
    pending: Vec<u8>,
    /// Head of this instruction's waiter chain: consumers to wake when it
    /// issues, encoded as `consumer id * MAX_DEPS + dep_slot` (`u32::MAX`
    /// = none). Consumers are younger than their producer, so a chain
    /// only ever names live entries.
    waiter_head: Vec<u32>,
    /// Per-dependence-slot chain links for the waiter lists.
    waiter_next: Vec<[u32; MAX_DEPS]>,
}

const STATE_WAITING: u8 = 0;
const STATE_ISSUED: u8 = 1;
const STATE_SQUASHED: u8 = 2;

impl Window {
    fn with_capacity(capacity: usize) -> Window {
        debug_assert!(capacity.is_power_of_two());
        Window {
            oldest: 0,
            next: 0,
            mask: capacity as InstId - 1,
            thread: vec![MAIN; capacity],
            inst: vec![Inst::Nop; capacity],
            wrong_path: vec![false; capacity],
            state: vec![STATE_SQUASHED; capacity],
            deps: vec![[0; MAX_DEPS]; capacity],
            dep_cnt: vec![0; capacity],
            dispatched_at: vec![0; capacity],
            done_at: vec![0; capacity],
            addr: vec![0; capacity],
            checkpoint: vec![None; capacity],
            pos_in_waiting: vec![u32::MAX; capacity],
            pending: vec![0; capacity],
            waiter_head: vec![u32::MAX; capacity],
            waiter_next: vec![[u32::MAX; MAX_DEPS]; capacity],
        }
    }

    /// The ring slot of live id `id`.
    #[inline]
    fn slot(&self, id: InstId) -> usize {
        (id & self.mask) as usize
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.next - self.oldest > self.mask
    }

    /// Whether `id` may leave the window: a main-thread entry once it has
    /// left the ROB (`rob_head` is the ROB's oldest id, or `next` when the
    /// ROB is empty), a p-instruction once its result is ready at `now`.
    fn is_complete(&self, id: InstId, rob_head: InstId, now: u64) -> bool {
        let i = self.slot(id);
        if self.thread[i] == MAIN {
            id < rob_head || self.state[i] == STATE_SQUASHED
        } else {
            self.state[i] == STATE_ISSUED && self.done_at[i] <= now
        }
    }

    /// Doubles the ring. Concatenating every column with itself puts each
    /// live id at `id & new_mask`, because that slot's copy is the old
    /// `id & mask`; the other copy is a dead slot, overwritten on reuse.
    #[cold]
    fn grow(&mut self) {
        self.thread.extend_from_within(..);
        self.inst.extend_from_within(..);
        self.wrong_path.extend_from_within(..);
        self.state.extend_from_within(..);
        self.deps.extend_from_within(..);
        self.dep_cnt.extend_from_within(..);
        self.dispatched_at.extend_from_within(..);
        self.done_at.extend_from_within(..);
        self.addr.extend_from_within(..);
        self.checkpoint.extend_from_within(..);
        self.pos_in_waiting.extend_from_within(..);
        self.pending.extend_from_within(..);
        self.waiter_head.extend_from_within(..);
        self.waiter_next.extend_from_within(..);
        self.mask = self.mask * 2 + 1;
    }

    /// Dispatches one instruction into the slot of the next id. The caller
    /// has made room ([`Simulator::make_room`]).
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        thread: u8,
        inst: Inst,
        wrong_path: bool,
        deps: [InstId; MAX_DEPS],
        dep_cnt: u8,
        dispatched_at: u64,
        addr: u64,
        checkpoint: Option<Box<CommitSpawn>>,
    ) -> InstId {
        let id = self.next;
        assert!(id < MAX_INST_ID, "instruction window id space exhausted");
        debug_assert!(!self.is_full(), "window push without room");
        let i = self.slot(id);
        self.thread[i] = thread;
        self.inst[i] = inst;
        self.wrong_path[i] = wrong_path;
        self.state[i] = STATE_WAITING;
        self.deps[i] = deps;
        self.dep_cnt[i] = dep_cnt;
        self.dispatched_at[i] = dispatched_at;
        self.done_at[i] = u64::MAX;
        self.addr[i] = addr;
        self.checkpoint[i] = checkpoint;
        self.pos_in_waiting[i] = u32::MAX;
        self.pending[i] = 0;
        self.waiter_head[i] = u32::MAX;
        self.waiter_next[i] = [u32::MAX; MAX_DEPS];
        self.next = id + 1;
        id
    }

    /// Whether `id` is a live entry waiting to issue (calendar entries
    /// below the horizon are stale).
    #[inline]
    fn is_waiting(&self, id: InstId) -> bool {
        id >= self.oldest && self.state[self.slot(id)] == STATE_WAITING
    }

    #[inline]
    fn state_of(&self, id: InstId) -> State {
        match self.state[self.slot(id)] {
            STATE_WAITING => State::Waiting,
            STATE_ISSUED => State::Issued,
            _ => State::Squashed,
        }
    }

    /// Completion cycle of producer `d` as a consumer sees it: `u64::MAX`
    /// until it issues, then its final `done_at`. A producer below the
    /// horizon completed at or before the current cycle; it reads as `0`.
    /// That changes no result: a ready time is computed at dispatch or
    /// when the last producer issues, so it is later than the current
    /// cycle either way, and the fast-forward scan only asks whether the
    /// next event is later than the next cycle.
    #[inline]
    fn producer_done(&self, d: InstId) -> u64 {
        if d < self.oldest {
            0
        } else {
            self.done_at[self.slot(d)]
        }
    }
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

/// A small keyed queue of fetch-direction hints for one branch PC, with
/// the reference pipeline's exact capacity semantics: below the cap an
/// insert adds or replaces; at the cap inserts are dropped entirely.
#[derive(Clone, Debug, Default)]
struct HintQueue {
    items: Vec<(u64, bool)>, // (dynamic occurrence, taken)
}

impl HintQueue {
    fn insert_capped(&mut self, occ: u64, taken: bool) {
        if self.items.len() >= HINT_CAP {
            return;
        }
        if let Some(e) = self.items.iter_mut().find(|e| e.0 == occ) {
            e.1 = taken;
        } else {
            self.items.push((occ, taken));
        }
    }

    fn remove(&mut self, occ: u64) -> Option<bool> {
        let i = self.items.iter().position(|e| e.0 == occ)?;
        Some(self.items.swap_remove(i).1)
    }
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
    body: Arc<[Inst]>,
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
/// use preexec_sim::{SimConfig, Simulator};
///
/// let mut b = ProgramBuilder::new("p");
/// b.li(Reg::new(1), 20).addi(Reg::new(1), Reg::new(1), 22).halt();
/// let prog = b.build();
/// let report = Simulator::new(&prog, SimConfig::default()).run();
/// assert!(report.finished);
/// assert_eq!(report.committed, 3);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    cfg: SimConfig,
    hier: Hierarchy,
    bpred: HybridPredictor,
    btb: Btb,
    cycle: u64,
    /// Event-driven stall fast-forward (on by default; see module docs).
    fast_forward: bool,
    /// Cycles actually executed by the run loop (jumped-over stall cycles
    /// excluded). Diagnostic for benchmarks and fast-forward tests.
    executed_cycles: u64,

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
    spec_mem: FlatMap<u64>,
    reg_producer: [Option<InstId>; NUM_ARCH_REGS],
    store_producer: FlatMap<InstId>,

    // Backend.
    window: Window,
    rob: VecDeque<InstId>,
    waiting: Vec<InstId>,
    /// Issue calendar: a timing wheel mapping ready cycle -> instructions
    /// that become issuable then. An instruction is filed exactly once
    /// its ready cycle is final (all producers issued), so each cycle
    /// only touches actual candidates instead of scanning the whole
    /// waiting list. Entries for since-squashed instructions are dropped
    /// lazily at drain time. Slot `c & wheel_mask` holds cycle `c`; the
    /// wheel spans `(wheel_drained, wheel_drained + len]`, anything
    /// farther out (rare: deep MSHR queueing) overflows into `far`.
    wheel: Vec<Vec<InstId>>,
    wheel_mask: u64,
    /// Every calendar slot for cycles `<= wheel_drained` has been drained.
    wheel_drained: u64,
    /// Overflow calendar for ready cycles beyond the wheel horizon.
    far: std::collections::BTreeMap<u64, Vec<InstId>>,
    /// Live calendar entries (wheel + far); lets empty cycles exit fast.
    calendar_len: usize,
    /// Drain scratch for the current cycle's candidates (reused).
    issue_cand: Vec<InstId>,
    outstanding_misses: Vec<u64>, // ready_at of in-flight misses (MSHRs)

    // Pre-execution. Trigger/occurrence/hint tables are PC-indexed
    // vectors (empty until needed) rather than hash maps.
    contexts: Vec<Option<PthreadCtx>>,
    /// Occupied entries of `contexts`, so cycles with none skip the scan.
    live_contexts: usize,
    triggers: Vec<Vec<usize>>, // trigger pc -> indices into bodies
    bodies: Vec<Arc<[Inst]>>,
    body_hints: Vec<Option<(Pc, u64)>>, // (branch, lookahead) per body
    branch_hints: Vec<HintQueue>,       // pc -> occurrence hints
    branch_decoded: Vec<u64>,           // correct-path decode counts per branch pc
    trigger_scratch: Vec<usize>,

    report: SimReport,
    /// Interval-snapshot stride in cycles; 0 ⇒ logging disabled.
    interval_stride: u64,
    /// Next interval boundary (absolute cycle). `u64::MAX` when logging
    /// is disabled, so the run loop's single compare never fires.
    next_interval: u64,
    /// Cumulative snapshots at interval boundaries (see `interval.rs`).
    interval_snaps: Vec<IntervalSnapshot>,
    /// Cycle at which measurement started (after warm-up).
    measure_from: u64,
    warmup_left: u64,
    /// In-flight p-instructions holding a destination register right now.
    pth_pregs_inflight: u64,
    #[cfg(feature = "sanitize")]
    sanitizer: Sanitizer,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program` with no p-threads installed.
    pub fn new(program: &'p Program, cfg: SimConfig) -> Simulator<'p> {
        let wheel_len = (4 * cfg.hierarchy.mem_latency + 256)
            .next_power_of_two()
            .max(1024) as usize;
        let mut spec_mem = FlatMap::new();
        for (a, v) in program.image().iter() {
            spec_mem.insert(a, v);
        }
        Simulator {
            program,
            cfg,
            hier: Hierarchy::new(cfg.hierarchy),
            bpred: HybridPredictor::new(cfg.predictor),
            btb: Btb::new(cfg.predictor.btb_entries),
            cycle: 0,
            fast_forward: true,
            executed_cycles: 0,
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
            store_producer: FlatMap::new(),
            window: Window::with_capacity(WINDOW_INITIAL_CAPACITY),
            rob: VecDeque::new(),
            waiting: Vec::new(),
            // Wheel horizon: comfortably past one full memory round
            // trip, so only pathological MSHR queueing overflows to
            // `far`.
            wheel: vec![Vec::new(); wheel_len],
            wheel_mask: wheel_len as u64 - 1,
            wheel_drained: 0,
            far: std::collections::BTreeMap::new(),
            calendar_len: 0,
            issue_cand: Vec::new(),
            outstanding_misses: Vec::new(),
            contexts: vec![None; cfg.pthread_contexts],
            live_contexts: 0,
            triggers: Vec::new(),
            bodies: Vec::new(),
            body_hints: Vec::new(),
            branch_hints: Vec::new(),
            branch_decoded: vec![0; program.len()],
            trigger_scratch: Vec::new(),
            report: SimReport::default(),
            interval_stride: 0,
            next_interval: u64::MAX,
            interval_snaps: Vec::new(),
            measure_from: 0,
            warmup_left: cfg.warmup_commits,
            pth_pregs_inflight: 0,
            #[cfg(feature = "sanitize")]
            sanitizer: Sanitizer::default(),
        }
    }

    /// Enables or disables event-driven stall fast-forwarding (on by
    /// default). The report is identical either way — fast-forward only
    /// skips cycles in which no pipeline structure can change state — so
    /// this switch exists for differential testing and benchmarks.
    pub fn with_fast_forward(mut self, enabled: bool) -> Simulator<'p> {
        self.fast_forward = enabled;
        self
    }

    /// Enables per-interval counter snapshots: one cumulative
    /// [`IntervalSnapshot`] every `stride` measured cycles, plus a final
    /// partial snapshot at the end of the run (see `interval.rs`). A
    /// stride of 0 is clamped to 1. The report itself is byte-identical
    /// with or without logging; snapshots are read back with
    /// [`Simulator::intervals`] after [`Simulator::run`].
    pub fn with_interval_log(mut self, stride: u64) -> Simulator<'p> {
        self.interval_stride = stride.max(1);
        self.next_interval = self.cycle + self.interval_stride;
        self
    }

    /// The interval snapshots recorded so far (empty unless the simulator
    /// was built with [`Simulator::with_interval_log`]).
    pub fn intervals(&self) -> &[IntervalSnapshot] {
        &self.interval_snaps
    }

    /// Installs the selected p-threads: the executable is "augmented" so
    /// that decoding a trigger PC spawns the corresponding body.
    ///
    /// With the `sanitize` feature, every installed p-thread first passes
    /// the static verifier (`preexec-analysis`): the spawn paths below
    /// assume store-free, control-less, well-anchored bodies, and a
    /// violation here panics at install time instead of corrupting
    /// architectural state mid-run.
    pub fn with_pthreads(mut self, pthreads: &[PThread]) -> Simulator<'p> {
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
            self.bodies.push(p.body.clone().into());
            self.body_hints
                .push(p.branch_hint.map(|pc| (pc, p.hint_lookahead.max(1))));
            let slot = p.trigger_pc as usize;
            if self.triggers.len() <= slot {
                self.triggers.resize(slot + 1, Vec::new());
            }
            self.triggers[slot].push(idx);
        }
        self
    }

    /// Runs to completion (the program's `halt` commits) or to the cycle
    /// cap, returning the report. The simulator remains inspectable (e.g.
    /// [`Simulator::spec_regs`]) after the run.
    pub fn run(&mut self) -> SimReport {
        let start = std::time::Instant::now();
        while !self.report.finished && self.cycle < self.cfg.max_cycles {
            self.cycle += 1;
            self.executed_cycles += 1;
            // Interval boundaries are flushed lazily: a fast-forward jump
            // lands here with the counters still exact for every jumped
            // cycle (jumped cycles provably change no state), so the
            // snapshot at each crossed boundary is the true cumulative
            // value. Disabled (`next_interval == u64::MAX`) this is a
            // single never-taken compare.
            if self.cycle > self.next_interval {
                self.flush_intervals(self.cycle - 1);
            }
            let mut progress = self.handle_redirect();
            progress |= self.commit();
            progress |= self.issue();
            let (used_fetch, pth_active) = self.sequence_pthreads();
            progress |= pth_active;
            progress |= self.decode_main();
            progress |= self.fetch_main(used_fetch);
            #[cfg(feature = "sanitize")]
            self.sanitize_cycle();
            if self.fast_forward && !progress && !self.report.finished {
                self.fast_forward_stall();
            }
        }
        if self.interval_stride != 0 {
            // Flush any boundaries the final cycles crossed, then close
            // the log with a partial snapshot so the last entry always
            // equals the end-of-run totals.
            self.flush_intervals(self.cycle);
            let end = self.cycle - self.measure_from;
            if self.interval_snaps.last().map(|s| s.cycle) != Some(end) {
                self.push_interval(end);
            }
        }
        self.report.cycles = self.cycle - self.measure_from;
        self.report.wall_nanos = start.elapsed().as_nanos() as u64;
        self.report.clone()
    }

    /// Records every pending interval boundary up to (and including) the
    /// absolute cycle `upto`. Out of the run loop's way: called at most
    /// once per crossed boundary.
    #[cold]
    fn flush_intervals(&mut self, upto: u64) {
        while self.next_interval <= upto {
            let at = self.next_interval - self.measure_from;
            self.push_interval(at);
            self.next_interval += self.interval_stride;
        }
    }

    /// Appends one cumulative snapshot at measured-cycle coordinate `at`.
    fn push_interval(&mut self, at: u64) {
        self.interval_snaps.push(IntervalSnapshot {
            cycle: at,
            committed: self.report.committed,
            pinsts: self.report.pinsts,
            l2_misses_demand: self.report.l2_misses_demand,
            mispredicts: self.report.mispredicts,
            branches: self.report.branches,
            counts: self.report.counts,
        });
    }

    /// Cycles the run loop actually executed; with fast-forward enabled
    /// this is the simulated cycle count minus the stall cycles jumped
    /// over. Diagnostic only (never part of the report).
    pub fn executed_cycles(&self) -> u64 {
        self.executed_cycles
    }

    /// Capacity of the in-flight window ring at this point of the run: it
    /// starts at 256 entries and doubles whenever the oldest live entry
    /// blocks the next slot. Diagnostic only (never part of the report).
    pub fn window_capacity(&self) -> usize {
        self.window.mask as usize + 1
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
        self.spec_mem.iter().collect()
    }

    fn spec_reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.spec_regs[r.index()]
        }
    }

    // ----- window horizon -----

    /// Makes room in the window ring for one more entry. When the ring is
    /// full, the horizon advances past every complete entry at its tail
    /// (see [`Window`]); if the oldest live entry still blocks the slot,
    /// the ring doubles rather than overwrite it.
    #[inline]
    fn make_room(&mut self) {
        if self.window.is_full() {
            self.advance_horizon();
        }
    }

    #[cold]
    fn advance_horizon(&mut self) {
        let rob_head = self.rob.front().copied().unwrap_or(self.window.next);
        while self.window.oldest < self.window.next
            && self
                .window
                .is_complete(self.window.oldest, rob_head, self.cycle)
        {
            #[cfg(feature = "sanitize")]
            self.sanitize_horizon(self.window.oldest);
            self.window.oldest += 1;
        }
        if self.window.is_full() {
            self.window.grow();
        }
    }

    // ----- stall fast-forward -----

    /// Jumps the cycle counter to just before the next cycle at which any
    /// pipeline structure can change state. Called only after a cycle in
    /// which every stage provably did nothing (and no p-thread context is
    /// active), so the skipped cycles are pure stall: executing them would
    /// only have re-run the same blocked checks.
    fn fast_forward_stall(&mut self) {
        let target = self.next_event_cycle();
        debug_assert!(target > self.cycle, "next event scheduled in the past");
        if target <= self.cycle + 1 {
            return; // the very next cycle may act: step normally
        }
        // Land one short of the event; the loop's increment reaches it.
        // `u64::MAX` (no event possible: deadlocked stall) runs straight
        // to the cycle cap, exactly as stepping would.
        self.cycle = (target - 1).min(self.cfg.max_cycles);
    }

    /// The earliest future cycle at which any stage could make progress.
    /// Mirrors each stage's gating conditions; see the per-candidate
    /// comments. Conservative (an event may still not fire, e.g. port
    /// contention) but never late: underestimating only costs an extra
    /// executed cycle, overestimating would skip real work, so every
    /// candidate is a provable lower bound on its stage's next action.
    fn next_event_cycle(&self) -> u64 {
        let mut t = u64::MAX;
        // Redirect: an issued mispredicted branch resolves at done_at.
        // (A still-waiting one is covered by its issue candidate below.)
        if let Some(bid) = self.redirect_branch {
            if self.window.state_of(bid) == State::Issued {
                t = t.min(self.window.done_at[self.window.slot(bid)]);
            }
        }
        // Commit: the ROB head retires at done_at once issued. A squashed
        // head would have been popped this cycle (progress), so only
        // Waiting (covered below) or Issued heads reach here.
        if let Some(&head) = self.rob.front() {
            if self.window.state_of(head) == State::Issued {
                t = t.min(self.window.done_at[self.window.slot(head)]);
            }
        }
        // Issue: per waiting instruction, the earliest cycle its operands
        // are all produced (and a dispatch bubble has passed). Loads are
        // additionally held while every MSHR is busy; the earliest retire
        // of an outstanding miss frees one.
        let mshr_full = self.outstanding_misses.len() >= self.cfg.mshrs;
        let mshr_free_at = if mshr_full {
            self.outstanding_misses.iter().copied().min().unwrap_or(0)
        } else {
            0
        };
        'waiting: for &id in &self.waiting {
            let i = self.window.slot(id);
            let mut c = self.window.dispatched_at[i] + 1;
            let n = self.window.dep_cnt[i] as usize;
            for k in 0..n {
                let done = self.window.producer_done(self.window.deps[i][k]);
                if done == u64::MAX {
                    // Producer not yet issued: this instruction cannot be
                    // the next event (its producer's issue is).
                    continue 'waiting;
                }
                c = c.max(done);
            }
            if mshr_full && self.window.inst[i].class() == InstClass::Load {
                c = c.max(mshr_free_at);
            }
            t = t.min(c);
        }
        // Decode: the buffered front instruction leaves the decode stage
        // once its delay expires — but only if the ROB and reservation
        // stations have room now (they can only gain room through commit
        // or issue, which are events themselves).
        if !self.decoded_halt {
            if let Some(f) = self.fetch_buf.front() {
                if self.rob.len() < self.cfg.rob_size && self.rs_used() < self.cfg.rs_size {
                    t = t.min(f.fetch_cycle + self.cfg.decode_delay);
                }
            }
        }
        // Fetch: an icache-miss stall expires at fetch_stalled_until,
        // provided fetch is not blocked for a sticky reason (halt, a
        // decoded halt on the correct path, or a full decoupling buffer —
        // all cleared only by other events).
        let fetch_blocked = self.fetch_halted
            || (self.decoded_halt && !self.on_wrong_path)
            || self.fetch_buf.len() >= 2 * self.cfg.fetch_width as usize;
        if !fetch_blocked {
            t = t.min(self.fetch_stalled_until);
        }
        t
    }

    // ----- redirect -----

    fn handle_redirect(&mut self) -> bool {
        let Some(bid) = self.redirect_branch else {
            return false;
        };
        let done = self.window.state_of(bid) == State::Issued
            && self.window.done_at[self.window.slot(bid)] <= self.cycle;
        if !done {
            return false;
        }
        // Squash wrong-path work everywhere. The compaction preserves
        // order exactly as `retain` would; calendar entries of squashed
        // instructions are dropped lazily at the next issue drain.
        self.fetch_buf.clear();
        let window = &mut self.window;
        let mut keep = 0;
        for i in 0..self.waiting.len() {
            let id = self.waiting[i];
            let s = window.slot(id);
            if window.wrong_path[s] {
                window.state[s] = STATE_SQUASHED;
                window.pos_in_waiting[s] = u32::MAX;
            } else {
                self.waiting[keep] = id;
                window.pos_in_waiting[s] = keep as u32;
                keep += 1;
            }
        }
        self.waiting.truncate(keep);
        while let Some(&tail) = self.rob.back() {
            let s = self.window.slot(tail);
            if self.window.wrong_path[s] {
                self.window.state[s] = STATE_SQUASHED;
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
        true
    }

    // ----- commit -----

    fn commit(&mut self) -> bool {
        let mut progressed = false;
        for _ in 0..self.cfg.commit_width {
            let Some(&head) = self.rob.front() else {
                return progressed;
            };
            let i = self.window.slot(head);
            let state = self.window.state_of(head);
            if state == State::Squashed {
                self.rob.pop_front();
                progressed = true;
                continue;
            }
            let ready = state == State::Issued && self.window.done_at[i] <= self.cycle;
            if !ready {
                return progressed;
            }
            let is_store = self.window.inst[i].is_store();
            let is_halt = matches!(self.window.inst[i], Inst::Halt);
            let addr = self.window.addr[i];
            self.rob.pop_front();
            progressed = true;
            #[cfg(feature = "sanitize")]
            self.sanitize_commit(head);
            self.report.committed += 1;
            if self.warmup_left > 0 {
                self.warmup_left -= 1;
                if self.warmup_left == 0 {
                    self.end_warmup();
                }
            }
            if let Some(cs) = self.window.checkpoint[i].take() {
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
                return true;
            }
        }
        progressed
    }

    /// Ends the warm-up phase: caches, predictors, and architectural state
    /// stay warm, but every measurement counter restarts.
    fn end_warmup(&mut self) {
        self.measure_from = self.cycle;
        self.hier.reset_stats();
        self.report = SimReport::default();
        // Warm-up snapshots are discarded: the log restarts in measured
        // coordinates, first boundary one stride past this cycle.
        if self.interval_stride != 0 {
            self.interval_snaps.clear();
            self.next_interval = self.cycle + self.interval_stride;
        }
        // The monotonicity snapshots must restart with the counters.
        #[cfg(feature = "sanitize")]
        {
            self.sanitizer.prev_counts = AccessCounts::default();
            self.sanitizer.prev_committed = 0;
            self.sanitizer.prev_pinsts = 0;
        }
    }

    // ----- issue -----

    fn issue(&mut self) -> bool {
        // Drain every calendar slot that has come due. Draining the full
        // `(wheel_drained, cycle]` span rather than exactly `cycle`
        // covers fast-forward jumps and deferred port-blocked retries.
        // Stale entries are dropped here: a since-squashed instruction
        // never becomes waiting again, and an id below the window horizon
        // names a recycled slot, so neither can alias a live entry.
        if self.calendar_len == 0 {
            self.wheel_drained = self.cycle;
            return false;
        }
        let span = self.cycle - self.wheel_drained;
        let first = if span >= self.wheel.len() as u64 {
            // A jump past the whole wheel: every slot is due once.
            self.cycle + 1 - self.wheel.len() as u64
        } else {
            self.wheel_drained + 1
        };
        for c in first..=self.cycle {
            let slot = (c & self.wheel_mask) as usize;
            for k in 0..self.wheel[slot].len() {
                let id = self.wheel[slot][k];
                self.calendar_len -= 1;
                if self.window.is_waiting(id) {
                    self.issue_cand.push(id);
                }
            }
            self.wheel[slot].clear();
        }
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() > self.cycle {
                break;
            }
            for id in entry.remove() {
                self.calendar_len -= 1;
                if self.window.is_waiting(id) {
                    self.issue_cand.push(id);
                }
            }
        }
        self.wheel_drained = self.cycle;
        if self.issue_cand.is_empty() {
            // Nothing can issue: no entry's (final) ready cycle has
            // arrived. Deferring the MSHR `retain` is safe — it is a
            // monotone filter whose result is only read inside a scan,
            // and every push happens inside a scan.
            return false;
        }
        // Reference scan order is waiting-list position order; the
        // swap-remove on issue is mirrored below so relative order
        // evolves identically to a full scan.
        self.issue_cand
            .sort_unstable_by_key(|&id| self.window.pos_in_waiting[self.window.slot(id)]);
        let mut issued = 0;
        let mut loads = 0;
        let mut stores = 0;
        self.outstanding_misses.retain(|&r| r > self.cycle);
        let mut ci = 0;
        while ci < self.issue_cand.len() {
            if issued >= self.cfg.issue_width {
                // Width exhausted: the reference scan stops here, leaving
                // the rest ready-but-unexamined. Retry them next cycle.
                for k in ci..self.issue_cand.len() {
                    let id = self.issue_cand[k];
                    self.bucket_insert(self.cycle + 1, id);
                }
                break;
            }
            let id = self.issue_cand[ci];
            let class = self.window.inst[self.window.slot(id)].class();
            match class {
                InstClass::Load => {
                    if loads >= self.cfg.load_ports
                        || self.outstanding_misses.len() >= self.cfg.mshrs
                    {
                        self.bucket_insert(self.cycle + 1, id);
                        ci += 1;
                        continue;
                    }
                    loads += 1;
                }
                InstClass::Store => {
                    if stores >= self.cfg.store_ports {
                        self.bucket_insert(self.cycle + 1, id);
                        ci += 1;
                        continue;
                    }
                    stores += 1;
                }
                _ => {}
            }
            self.do_issue(id);
            issued += 1;
            // Mirror the reference's `swap_remove` at this position: the
            // tail entry moves into the hole and — because the reference
            // scan does not advance past the hole — is examined next if
            // it was itself a pending candidate (its old position, the
            // list tail, was necessarily after every pending candidate).
            let s = self.window.slot(id);
            let p = self.window.pos_in_waiting[s] as usize;
            self.waiting.swap_remove(p);
            self.window.pos_in_waiting[s] = u32::MAX;
            if p < self.waiting.len() {
                let moved = self.waiting[p];
                let ms = self.window.slot(moved);
                self.window.pos_in_waiting[ms] = p as u32;
                if let Some(j) = self.issue_cand[ci + 1..].iter().position(|&c| c == moved) {
                    self.issue_cand[ci + 1..=ci + 1 + j].rotate_right(1);
                }
            }
            ci += 1;
        }
        self.issue_cand.clear();
        issued > 0
    }

    /// Files `id` to issue no earlier than cycle `at`. Callers only file
    /// future cycles (`at > wheel_drained`), so a wheel slot never mixes
    /// two different cycles within the horizon.
    fn bucket_insert(&mut self, at: u64, id: InstId) {
        debug_assert!(at > self.wheel_drained, "calendar insert in the past");
        if at - self.wheel_drained <= self.wheel.len() as u64 {
            self.wheel[(at & self.wheel_mask) as usize].push(id);
        } else {
            self.far.entry(at).or_default().push(id);
        }
        self.calendar_len += 1;
    }

    /// Adds a freshly dispatched instruction to the waiting list and the
    /// issue calendar. If every producer has already issued, the ready
    /// cycle is final now and the instruction is filed directly;
    /// otherwise it registers on each unissued producer's waiter chain
    /// and the last producer to issue files it (see [`Simulator::wake`]).
    fn enqueue_waiting(&mut self, id: InstId) {
        let i = self.window.slot(id);
        self.window.pos_in_waiting[i] = self.waiting.len() as u32;
        self.waiting.push(id);
        let mut pending = 0u8;
        for k in 0..self.window.dep_cnt[i] as usize {
            let d = self.window.deps[i][k];
            if self.window.producer_done(d) == u64::MAX {
                let ds = self.window.slot(d);
                self.window.waiter_next[i][k] = self.window.waiter_head[ds];
                self.window.waiter_head[ds] = id * MAX_DEPS as u32 + k as u32;
                pending += 1;
            }
        }
        if pending == 0 {
            let at = self.ready_at(id);
            self.bucket_insert(at, id);
        } else {
            // A producer squashed before issuing keeps `done_at ==
            // u64::MAX` forever, so its waiters are never woken — exactly
            // the reference's "never ready" outcome for them.
            self.window.pending[i] = pending;
        }
    }

    /// Wakes the waiter chain of just-issued `id`: each consumer whose
    /// last outstanding producer this was now has a final ready cycle
    /// (`done_at` never changes after issue) and is filed on the
    /// calendar. Ready cycles are at least `done_at > cycle`, so a wake
    /// can never add a candidate to the cycle being issued.
    fn wake(&mut self, id: InstId) {
        let mut e = self.window.waiter_head[self.window.slot(id)];
        while e != u32::MAX {
            let c = e / MAX_DEPS as u32;
            let k = (e % MAX_DEPS as u32) as usize;
            let cs = self.window.slot(c);
            e = self.window.waiter_next[cs][k];
            self.window.pending[cs] -= 1;
            if self.window.pending[cs] == 0 && self.window.state[cs] == STATE_WAITING {
                let at = self.ready_at(c);
                self.bucket_insert(at, c);
            }
        }
    }

    /// Earliest cycle `id` can issue: one past dispatch, and all producers
    /// complete. Only meaningful once every producer has issued (finite
    /// `done_at`), at which point the value is final: `done_at` never
    /// changes after issue. (A squashed producer that issued before the
    /// squash keeps its finite `done_at`, matching the reference.)
    #[inline]
    fn ready_at(&self, id: InstId) -> u64 {
        let i = self.window.slot(id);
        let mut r = self.window.dispatched_at[i] + 1;
        let n = self.window.dep_cnt[i] as usize;
        for k in 0..n {
            r = r.max(self.window.producer_done(self.window.deps[i][k]));
        }
        r
    }

    fn do_issue(&mut self, id: InstId) {
        #[cfg(feature = "sanitize")]
        self.sanitize_issue(id);
        let i = self.window.slot(id);
        let thread = self.window.thread[i];
        let inst = self.window.inst[i];
        let addr = self.window.addr[i];
        let wrong = self.window.wrong_path[i];
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
        self.window.state[i] = STATE_ISSUED;
        self.window.done_at[i] = self.cycle + latency;
        self.wake(id);
    }

    // ----- p-thread sequencing -----

    /// Dispatches up to one p-instruction per active context, consuming
    /// shared fetch/sequencing slots. Returns the slots used and whether
    /// any context was active this cycle (which disables fast-forward:
    /// active contexts can change state every cycle).
    fn sequence_pthreads(&mut self) -> (u32, bool) {
        if self.live_contexts == 0 {
            return (0, false);
        }
        let mut used = 0;
        let mut active = false;
        for ci in 0..self.contexts.len() {
            let Some(ctx) = self.contexts[ci].as_ref() else {
                continue;
            };
            active = true;
            if used >= self.cfg.fetch_width {
                break;
            }
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
        (used, active)
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
        let mut deps = [0 as InstId; MAX_DEPS];
        let mut dep_cnt = 0u8;
        for s in inst.srcs() {
            if let Some(p) = ctx.reg_producer[s.index()] {
                deps[dep_cnt as usize] = p;
                dep_cnt += 1;
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
        let is_alu = matches!(inst.class(), InstClass::IntAlu | InstClass::IntMul);
        // Complete the functional value for loads (from the in-order
        // speculative memory: p-threads run ahead of commit).
        let value = if inst.is_load() {
            self.spec_mem.get(addr).unwrap_or(0)
        } else {
            value
        };
        self.make_room();
        let id = self
            .window
            .push(ci as u8, inst, false, deps, dep_cnt, self.cycle, addr, None);
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
        self.enqueue_waiting(id);
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
        self.live_contexts += 1;
        self.contexts[slot] = Some(PthreadCtx {
            body,
            next: 0,
            regs,
            reg_producer: [None; NUM_ARCH_REGS],
            stalled: false,
            hint_branch: self.body_hints[body_idx].map(|(pc, k)| {
                // The hint lands k occurrences of the target after the
                // spawn point.
                (pc, self.branch_decoded_at(pc) + k)
            }),
        });
    }

    #[inline]
    fn branch_decoded_at(&self, pc: Pc) -> u64 {
        self.branch_decoded.get(pc as usize).copied().unwrap_or(0)
    }

    /// Frees a finished p-thread context; a branch-predicting p-thread
    /// deposits its computed outcome as a fetch hint for the next dynamic
    /// instance of its branch.
    fn retire_context(&mut self, ci: usize) {
        let ctx = self.contexts[ci].take().expect("active context");
        self.live_contexts -= 1;
        let Some((bpc, occ)) = ctx.hint_branch else {
            return;
        };
        // Too late: the target instance has already decoded.
        if self.branch_decoded_at(bpc) >= occ {
            return;
        }
        if let Some(Inst::Branch {
            cond, src1, src2, ..
        }) = self.program.get(bpc)
        {
            let read = |r: Reg| if r.is_zero() { 0 } else { ctx.regs[r.index()] };
            let taken = cond.eval(read(*src1), read(*src2));
            if self.branch_hints.is_empty() {
                self.branch_hints = vec![HintQueue::default(); self.program.len()];
            }
            self.branch_hints[bpc as usize].insert_capped(occ, taken);
        }
    }

    // ----- main-thread decode/rename -----

    fn decode_main(&mut self) -> bool {
        let mut decoded = false;
        for _ in 0..self.cfg.decode_width {
            if self.decoded_halt {
                return decoded;
            }
            let Some(&f) = self.fetch_buf.front() else {
                return decoded;
            };
            if f.fetch_cycle + self.cfg.decode_delay > self.cycle {
                return decoded;
            }
            if self.rob.len() >= self.cfg.rob_size || self.rs_used() >= self.cfg.rs_size {
                return decoded;
            }
            self.fetch_buf.pop_front();
            self.decode_one(f);
            decoded = true;
        }
        decoded
    }

    fn decode_one(&mut self, f: Fetched) {
        let inst = *self.program.inst(f.pc);
        let id = self.window.next;
        // Dependences from the latest in-flight producers.
        let mut deps = [0 as InstId; MAX_DEPS];
        let mut dep_cnt = 0u8;
        for s in inst.srcs() {
            if let Some(p) = self.reg_producer[s.index()] {
                deps[dep_cnt as usize] = p;
                dep_cnt += 1;
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
        let has_triggers = self
            .triggers
            .get(f.pc as usize)
            .is_some_and(|t| !t.is_empty());
        if has_triggers {
            match self.cfg.spawn_point {
                SpawnPoint::Decode => {
                    let mut scratch = std::mem::take(&mut self.trigger_scratch);
                    scratch.clear();
                    scratch.extend_from_slice(&self.triggers[f.pc as usize]);
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
                            bodies: self.triggers[f.pc as usize].clone(),
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
                    let v = self.spec_mem.get(addr).unwrap_or(0);
                    self.spec_write(dst, v, id);
                    if let Some(sp) = self.store_producer.get(addr) {
                        deps[dep_cnt as usize] = sp;
                        dep_cnt += 1;
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
                    self.branch_decoded[f.pc as usize] += 1;
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
        }
        let is_alu = matches!(inst.class(), InstClass::IntAlu | InstClass::IntMul);
        self.make_room();
        self.window.push(
            MAIN,
            inst,
            f.wrong_path,
            deps,
            dep_cnt,
            self.cycle,
            addr,
            checkpoint,
        );
        self.rob.push_back(id);
        self.enqueue_waiting(id);
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

    fn fetch_main(&mut self, used_slots: u32) -> bool {
        if self.fetch_halted || self.decoded_halt && !self.on_wrong_path {
            return false;
        }
        if self.cycle < self.fetch_stalled_until {
            return false;
        }
        if self.fetch_buf.len() >= 2 * self.cfg.fetch_width as usize {
            return false; // decoupling buffer full
        }
        let budget = self.cfg.fetch_width.saturating_sub(used_slots);
        if budget == 0 {
            return false;
        }
        // One instruction-cache block access per fetch cycle.
        let line = (self.fetch_pc as u64 * 4) & !63;
        let acc = self.hier.fetch(line, self.cycle);
        self.report.counts.imem_main += 1;
        if acc.served != Level::L1 {
            self.report.counts.l2_main += 1;
            self.fetch_stalled_until = acc.ready_at;
            return true;
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
                    let occ = self.branch_decoded[pc as usize] + in_buf + 1;
                    let hinted = self
                        .branch_hints
                        .get_mut(pc as usize)
                        .and_then(|q| q.remove(occ));
                    match hinted {
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
        true
    }
}

/// The per-cycle invariant checks of the `sanitize` feature. Each check
/// is written against the *specification* of the stage, independently of
/// how the stage computes its result, so a bug in the stage logic cannot
/// hide the same bug in the check. With fast-forward enabled the checks
/// run on every *executed* cycle (jumped-over stall cycles change no
/// state, so there is nothing new to check in them).
#[cfg(feature = "sanitize")]
impl Simulator<'_> {
    /// Runs every end-of-cycle invariant; called from [`Simulator::run`].
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
        let occupied = self.contexts.iter().filter(|c| c.is_some()).count();
        sanity!(
            self,
            self.live_contexts == occupied,
            "{} live p-thread contexts counted, {occupied} occupied",
            self.live_contexts
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
            sanity!(
                self,
                self.window.state_of(id) == State::Waiting,
                "id {id} occupies a reservation station in state {:?}",
                self.window.state_of(id)
            );
            let i = self.window.slot(id);
            for k in 0..self.window.dep_cnt[i] as usize {
                let d = self.window.deps[i][k];
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
        let i = self.window.slot(head);
        sanity!(
            self,
            self.window.state_of(head) == State::Issued && self.window.done_at[i] <= self.cycle,
            "id {head} committed in state {:?} (done_at {})",
            self.window.state_of(head),
            self.window.done_at[i]
        );
        sanity!(
            self,
            !self.window.wrong_path[i],
            "wrong-path id {head} committed"
        );
        if let Some(last) = self.sanitizer.last_commit {
            sanity!(self, head > last, "id {head} committed after id {last}");
        }
        self.sanitizer.last_commit = Some(head);
    }

    /// Nothing issues before its operands are ready: every dependence has
    /// produced its value (or been squashed) by this cycle, and at least
    /// one cycle has passed since dispatch. A dependence below the window
    /// horizon was checked complete when the horizon passed it.
    fn sanitize_issue(&self, id: InstId) {
        let i = self.window.slot(id);
        sanity!(
            self,
            self.window.state_of(id) == State::Waiting,
            "id {id} issued from state {:?}",
            self.window.state_of(id)
        );
        sanity!(
            self,
            self.window.dispatched_at[i] < self.cycle,
            "id {id} issued the cycle it dispatched"
        );
        let n = self.window.dep_cnt[i] as usize;
        for k in 0..n {
            let d = self.window.deps[i][k];
            if d < self.window.oldest {
                continue;
            }
            let ready = match self.window.state_of(d) {
                State::Issued => self.window.done_at[self.window.slot(d)] <= self.cycle,
                State::Squashed => true,
                State::Waiting => false,
            };
            sanity!(
                self,
                ready,
                "id {id} issued before operand producer {d} (state {:?}, done_at {}) was ready",
                self.window.state_of(d),
                self.window.done_at[self.window.slot(d)]
            );
        }
    }

    /// The window horizon passes only complete entries: nothing in the
    /// ROB or a reservation station, and every result ready (or squashed)
    /// by this cycle. Everything below the horizon is read as complete
    /// from then on, and its slot is reused.
    fn sanitize_horizon(&self, id: InstId) {
        let i = self.window.slot(id);
        sanity!(
            self,
            !self.rob.contains(&id),
            "window horizon passed id {id}, still in the ROB"
        );
        sanity!(
            self,
            !self.waiting.contains(&id),
            "window horizon passed id {id}, still waiting to issue"
        );
        let complete = match self.window.state_of(id) {
            State::Issued => self.window.done_at[i] <= self.cycle,
            State::Squashed => true,
            State::Waiting => false,
        };
        sanity!(
            self,
            complete,
            "window horizon passed id {id} in state {:?} (done_at {})",
            self.window.state_of(id),
            self.window.done_at[i]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::ProgramBuilder;
    use preexec_trace::FuncSim;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn counting_loop(n: i64) -> Program {
        let mut b = ProgramBuilder::new("count");
        b.li(r(1), 0).li(r(2), n);
        b.label("top");
        b.addi(r(1), r(1), 1);
        b.blt(r(1), r(2), "top");
        b.halt();
        b.build()
    }

    #[test]
    fn architectural_state_matches_functional_sim() {
        let p = counting_loop(500);
        let mut fsim = FuncSim::new(&p);
        fsim.run(1_000_000);
        let mut sim = Simulator::new(&p, SimConfig::default());
        let rep = sim.run();
        assert!(rep.finished);
        assert_eq!(rep.committed, fsim.retired());
        assert_eq!(sim.spec_regs(), fsim.reg_file());
    }

    #[test]
    fn ipc_is_reasonable_for_tight_loop() {
        let p = counting_loop(2000);
        let rep = Simulator::new(&p, SimConfig::default()).run();
        assert!(rep.finished);
        let ipc = rep.ipc();
        // A 2-instruction dependent loop with a perfectly-predicted branch
        // should sustain at least ~0.7 IPC and at most 6.
        assert!(ipc > 0.7 && ipc <= 6.0, "ipc = {ipc}");
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        // A data-dependent unpredictable branch pattern.
        let mut b = ProgramBuilder::new("noise");
        b.li(r(1), 0x1234_5678).li(r(2), 0).li(r(3), 2000);
        b.label("top");
        // xorshift-ish scramble; branch on low bit.
        b.muli(r(1), r(1), 6364136223846793005);
        b.addi(r(1), r(1), 1442695040888963407);
        b.shri(r(4), r(1), 33);
        b.andi(r(4), r(4), 1);
        b.beq(r(4), Reg::ZERO, "skip");
        b.addi(r(5), r(5), 1);
        b.label("skip");
        b.addi(r(2), r(2), 1);
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let rep = Simulator::new(&p, SimConfig::default()).run();
        assert!(rep.finished);
        assert!(
            rep.mispredicts > 300,
            "unpredictable branch must mispredict, got {}",
            rep.mispredicts
        );
        // And the machine still makes forward progress.
        assert!(rep.ipc() > 0.3);
    }

    #[test]
    fn memory_bound_loop_is_slow() {
        // Loads striding to a new line every iteration, dependent chain.
        let mut b = ProgramBuilder::new("membound");
        b.li(r(1), 0x100000).li(r(2), 0).li(r(3), 300);
        b.label("top");
        b.muli(r(4), r(2), 4096);
        b.add(r(4), r(4), r(1));
        b.ld(r(5), r(4), 0);
        b.add(r(6), r(6), r(5));
        b.addi(r(2), r(2), 1);
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let rep = Simulator::new(&p, SimConfig::default()).run();
        assert!(rep.finished);
        assert!(rep.l2_misses_demand >= 290, "{}", rep.l2_misses_demand);
        // Overlapped misses: ROB 128 holds ~21 iterations; MSHRs cap
        // parallelism at 16. IPC must reflect memory-boundness.
        assert!(rep.ipc() < 2.0, "ipc = {}", rep.ipc());
    }

    #[test]
    fn pthread_prefetching_speeds_up_memory_bound_loop() {
        use preexec_isa::AluOp;
        // Each iteration carries enough serial work that the 128-entry ROB
        // holds only ~4 iterations: the main thread cannot generate memory
        // parallelism on its own (the paper's problem-load scenario), but
        // the address is computable arbitrarily far ahead.
        let mut b = ProgramBuilder::new("membound");
        b.li(r(1), 0x100000).li(r(2), 0).li(r(3), 500);
        b.label("top");
        b.muli(r(4), r(2), 4096); // pc 3
        b.add(r(4), r(4), r(1)); // pc 4
        b.ld(r(5), r(4), 0); // pc 5: problem load
        b.add(r(6), r(6), r(5)); // pc 6
        for _ in 0..24 {
            b.addi(r(7), r(7), 3); // serial filler work
        }
        b.addi(r(2), r(2), 1); // pc 31: induction (trigger)
        b.blt(r(2), r(3), "top"); // pc 32
        b.halt();
        let p = b.build();
        let base = Simulator::new(&p, SimConfig::default()).run();
        // Hand-built p-thread: on decoding `i++`, run 4 iterations ahead.
        let body = vec![
            Inst::AluImm {
                op: AluOp::Add,
                dst: r(2),
                src1: r(2),
                imm: 4,
            },
            Inst::AluImm {
                op: AluOp::Mul,
                dst: r(4),
                src1: r(2),
                imm: 4096,
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
        let pt = PThread {
            trigger_pc: 31,
            body,
            targets: vec![5],
            dc_trig: 500,
            dc_ptcm: 500,
            ladv_agg: 0.0,
            eadv_agg: 0.0,
            branch_hint: None,
            hint_lookahead: 0,
        };
        let opt = Simulator::new(&p, SimConfig::default())
            .with_pthreads(std::slice::from_ref(&pt))
            .run();
        assert!(opt.finished);
        assert!(opt.spawns > 400, "spawns = {}", opt.spawns);
        assert!(
            opt.covered_full + opt.covered_partial > 100,
            "covered = {} + {}",
            opt.covered_full,
            opt.covered_partial
        );
        assert!(
            opt.cycles < base.cycles,
            "pre-execution must speed this up: {} vs {}",
            opt.cycles,
            base.cycles
        );
        assert!(opt.pinsts > 0);
        // Architectural result unchanged: committed count identical.
        assert_eq!(opt.committed, base.committed);
    }

    #[test]
    fn dropped_spawns_when_contexts_exhausted() {
        // Spawn every iteration with a long body and only 1 context.
        let mut b = ProgramBuilder::new("drop");
        b.li(r(1), 0x100000).li(r(2), 0).li(r(3), 50);
        b.label("top");
        b.addi(r(2), r(2), 1); // pc 3: trigger
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let body: Vec<Inst> = (0..40)
            .map(|_| Inst::AluImm {
                op: preexec_isa::AluOp::Add,
                dst: r(4),
                src1: r(4),
                imm: 1,
            })
            .chain(std::iter::once(Inst::Load {
                dst: r(5),
                base: r(1),
                offset: 0,
            }))
            .collect();
        let pt = PThread {
            trigger_pc: 3,
            body,
            targets: vec![], // no real problem load in this synthetic program
            dc_trig: 50,
            dc_ptcm: 0,
            ladv_agg: 0.0,
            eadv_agg: 0.0,
            branch_hint: None,
            hint_lookahead: 0,
        };
        let cfg = SimConfig {
            pthread_contexts: 1,
            ..SimConfig::default()
        };
        let rep = Simulator::new(&p, cfg).with_pthreads(&[pt]).run();
        assert!(rep.finished);
        assert!(rep.spawns_dropped > 0, "contexts must saturate");
    }

    #[test]
    fn commit_spawn_point_never_spawns_on_wrong_path() {
        use preexec_isa::AluOp;
        // Noisy branches generate wrong-path fetch; Commit spawning must
        // show zero wrong-path spawns while Decode spawning shows some.
        let mut b = ProgramBuilder::new("wp");
        b.li(r(1), 0x9e3779b9)
            .li(r(2), 0)
            .li(r(3), 1500)
            .li(r(9), 0x100000);
        b.label("top");
        b.muli(r(1), r(1), 6364136223846793005);
        b.addi(r(1), r(1), 1442695040888963407);
        b.shri(r(4), r(1), 33);
        b.andi(r(4), r(4), 1);
        b.beq(r(4), Reg::ZERO, "skip");
        b.addi(r(5), r(5), 1);
        b.label("skip");
        b.addi(r(2), r(2), 1); // trigger
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let body = vec![
            Inst::AluImm {
                op: AluOp::Add,
                dst: r(2),
                src1: r(2),
                imm: 4,
            },
            Inst::Load {
                dst: r(6),
                base: r(9),
                offset: 0,
            },
        ];
        let pt = PThread {
            trigger_pc: 10,
            body,
            targets: vec![], // no real problem load in this synthetic program
            dc_trig: 1500,
            dc_ptcm: 0,
            ladv_agg: 0.0,
            eadv_agg: 0.0,
            branch_hint: None,
            hint_lookahead: 0,
        };
        let decode = Simulator::new(&p, SimConfig::default())
            .with_pthreads(std::slice::from_ref(&pt))
            .run();
        let cfg = SimConfig {
            spawn_point: crate::SpawnPoint::Commit,
            ..SimConfig::default()
        };
        let commit = Simulator::new(&p, cfg)
            .with_pthreads(std::slice::from_ref(&pt))
            .run();
        assert!(
            decode.spawns_wrong_path > 0,
            "decode spawning sees wrong paths"
        );
        assert_eq!(commit.spawns_wrong_path, 0, "commit spawning cannot");
        assert!(commit.finished && decode.finished);
    }

    #[test]
    fn l1_prefetch_turns_covered_misses_into_l1_hits() {
        use preexec_isa::AluOp;
        let mut b = ProgramBuilder::new("l1pf");
        b.li(r(1), 0x100000).li(r(2), 0).li(r(3), 400);
        b.label("top");
        // 4160-byte stride: a new line every iteration that also spreads
        // across L1 sets (a 4096 stride would alias to two sets and the
        // prefetches would evict each other).
        b.muli(r(4), r(2), 4160);
        b.add(r(4), r(4), r(1));
        b.ld(r(5), r(4), 0); // problem load
        for _ in 0..24 {
            b.addi(r(7), r(7), 3);
        }
        b.addi(r(2), r(2), 1); // trigger (pc 31)
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let body = vec![
            Inst::AluImm {
                op: AluOp::Add,
                dst: r(2),
                src1: r(2),
                imm: 4,
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
        let pt = PThread {
            trigger_pc: 31,
            body,
            targets: vec![5],
            dc_trig: 400,
            dc_ptcm: 400,
            ladv_agg: 0.0,
            eadv_agg: 0.0,
            branch_hint: None,
            hint_lookahead: 0,
        };
        let l2only = Simulator::new(&p, SimConfig::default())
            .with_pthreads(std::slice::from_ref(&pt))
            .run();
        let cfg = SimConfig {
            prefetch_l1: true,
            ..SimConfig::default()
        };
        let l1fill = Simulator::new(&p, cfg)
            .with_pthreads(std::slice::from_ref(&pt))
            .run();
        // With L1 fills, fewer demand loads reach the L2 at all.
        assert!(
            l1fill.counts.l2_main < l2only.counts.l2_main,
            "L1 prefetch should absorb demand L2 accesses: {} vs {}",
            l1fill.counts.l2_main,
            l2only.counts.l2_main
        );
        assert_eq!(l1fill.committed, l2only.committed);
    }

    #[test]
    fn energy_counts_accumulate() {
        let p = counting_loop(100);
        let rep = Simulator::new(&p, SimConfig::default()).run();
        assert!(rep.counts.dispatch_main >= rep.committed);
        assert!(rep.counts.imem_main > 0);
        assert_eq!(rep.counts.dispatch_pth, 0);
        assert_eq!(rep.counts.imem_pth, 0);
    }

    #[test]
    fn warmup_excludes_cold_effects() {
        // A loop whose working set fits the L2: cold, every line misses;
        // warm, everything hits. Measuring after warm-up must report a
        // dramatically higher IPC and no L2 misses.
        let mut b = ProgramBuilder::new("warm");
        b.li(r(1), 0x100000).li(r(2), 0).li(r(3), 4000);
        b.label("top");
        b.andi(r(4), r(2), 0x3fc0); // 16 KiB ring of lines
        b.add(r(4), r(4), r(1));
        b.ld(r(5), r(4), 0);
        b.addi(r(2), r(2), 64);
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let cold = Simulator::new(&p, SimConfig::default()).run();
        let cfg = SimConfig {
            warmup_commits: cold.committed / 2,
            ..SimConfig::default()
        };
        let warm = Simulator::new(&p, cfg).run();
        assert!(warm.finished);
        assert!(warm.committed < cold.committed);
        assert!(
            warm.ipc() > cold.ipc(),
            "measured-after-warmup IPC {} must beat cold {}",
            warm.ipc(),
            cold.ipc()
        );
        assert!(warm.l2_misses_demand < cold.l2_misses_demand);
    }

    #[test]
    fn cycle_cap_prevents_hangs() {
        let mut b = ProgramBuilder::new("inf");
        b.label("x");
        b.jump("x");
        let p = b.build();
        let cfg = SimConfig {
            max_cycles: 5000,
            ..SimConfig::default()
        };
        let rep = Simulator::new(&p, cfg).run();
        assert!(!rep.finished);
        assert_eq!(rep.cycles, 5000);
    }

    /// Fast-forward must be a pure optimization: identical report (every
    /// field, via the JSON form that golden snapshots use) and identical
    /// architectural state, while actually executing fewer cycles on a
    /// memory-bound program full of long stalls.
    #[test]
    fn fast_forward_matches_stepping_and_skips_stalls() {
        use preexec_json::ToJson;
        let mut b = ProgramBuilder::new("ffmem");
        b.li(r(1), 0x100000).li(r(2), 0).li(r(3), 200);
        b.label("top");
        b.muli(r(4), r(2), 4096);
        b.add(r(4), r(4), r(1));
        b.ld(r(5), r(4), 0);
        b.add(r(6), r(6), r(5)); // serial chain through the load
        b.muli(r(6), r(6), 3); // lengthen the dependent chain
        b.addi(r(2), r(2), 1);
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let mut fast = Simulator::new(&p, SimConfig::default());
        let fast_rep = fast.run();
        let mut slow = Simulator::new(&p, SimConfig::default()).with_fast_forward(false);
        let slow_rep = slow.run();
        assert_eq!(
            fast_rep.to_json().to_string(),
            slow_rep.to_json().to_string()
        );
        assert_eq!(fast.spec_regs(), slow.spec_regs());
        assert_eq!(fast.spec_mem(), slow.spec_mem());
        assert_eq!(slow.executed_cycles(), slow_rep.cycles);
        assert!(
            fast.executed_cycles() < slow.executed_cycles(),
            "fast-forward must skip stall cycles: executed {} of {}",
            fast.executed_cycles(),
            slow.executed_cycles()
        );
    }

    /// Fast-forward with p-threads installed: contexts activate and
    /// deactivate across the run, exercising the active-context guard.
    #[test]
    fn fast_forward_matches_stepping_with_pthreads() {
        use preexec_isa::AluOp;
        use preexec_json::ToJson;
        let mut b = ProgramBuilder::new("ffpth");
        b.li(r(1), 0x100000).li(r(2), 0).li(r(3), 300);
        b.label("top");
        b.muli(r(4), r(2), 4096);
        b.add(r(4), r(4), r(1));
        b.ld(r(5), r(4), 0);
        b.add(r(6), r(6), r(5));
        for _ in 0..24 {
            b.addi(r(7), r(7), 3);
        }
        b.addi(r(2), r(2), 1); // pc 31: trigger
        b.blt(r(2), r(3), "top");
        b.halt();
        let p = b.build();
        let body = vec![
            Inst::AluImm {
                op: AluOp::Add,
                dst: r(2),
                src1: r(2),
                imm: 4,
            },
            Inst::AluImm {
                op: AluOp::Mul,
                dst: r(4),
                src1: r(2),
                imm: 4096,
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
        let pt = PThread {
            trigger_pc: 31,
            body,
            targets: vec![5],
            dc_trig: 300,
            dc_ptcm: 300,
            ladv_agg: 0.0,
            eadv_agg: 0.0,
            branch_hint: None,
            hint_lookahead: 0,
        };
        let fast_rep = Simulator::new(&p, SimConfig::default())
            .with_pthreads(std::slice::from_ref(&pt))
            .run();
        let slow_rep = Simulator::new(&p, SimConfig::default())
            .with_pthreads(std::slice::from_ref(&pt))
            .with_fast_forward(false)
            .run();
        assert_eq!(
            fast_rep.to_json().to_string(),
            slow_rep.to_json().to_string()
        );
    }
}

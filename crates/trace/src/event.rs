//! Dynamic traces, stored column-wise.

use preexec_isa::{Inst, InstClass, Pc};

/// Index of a dynamic instruction within a trace (its retirement order).
pub type Seq = u64;

/// Marks an absent producer in [`Trace::deps`].
pub const NO_DEP: u32 = u32::MAX;

/// One retired dynamic instruction with its dataflow provenance.
///
/// Besides the architectural outcome (effective address, branch direction),
/// each event records which earlier dynamic instruction produced each of its
/// register sources and — for loads — which earlier store last wrote the
/// loaded word. These edges are what the backward slicer and the
/// critical-path analyzer walk.
///
/// A [`Trace`] does not store events as such: [`Trace::event`] assembles
/// one from the trace's columns on demand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Dynamic sequence number (position in the trace).
    pub seq: Seq,
    /// Static PC of the instruction.
    pub pc: Pc,
    /// The instruction itself (copied; instructions are small).
    pub inst: Inst,
    /// Effective address, for loads and stores.
    pub addr: Option<u64>,
    /// Branch direction, for conditional branches.
    pub taken: Option<bool>,
    /// PC of the next dynamic instruction.
    pub next_pc: Pc,
    /// Producer of each register source, in [`Inst::srcs`] order. `None`
    /// when the source is `r0`, a program input (never written), or the
    /// producer predates the trace window.
    pub src_deps: [Option<Seq>; 2],
    /// For loads: the store that last wrote the loaded word, if it occurred
    /// within the trace.
    pub mem_dep: Option<Seq>,
}

/// A complete dynamic trace: the retired-instruction stream of one program
/// run.
///
/// The trace is stored as columns rather than as one record per event,
/// so each analysis streams only what it reads: per event a static PC and
/// three producer indices, one bit of branch direction, and — for memory
/// instructions only — a word address. Everything else about an event
/// (its instruction, its next PC) follows from the static instruction
/// table the trace carries. Sequence numbers are held as `u32`, so a
/// trace records at most `u32::MAX` events.
///
/// # Examples
///
/// ```
/// use preexec_isa::{ProgramBuilder, Reg};
/// use preexec_trace::FuncSim;
///
/// let mut b = ProgramBuilder::new("p");
/// b.li(Reg::new(1), 3);
/// b.addi(Reg::new(2), Reg::new(1), 4);
/// b.halt();
/// let prog = b.build();
/// let trace = FuncSim::new(&prog).run_trace(1000);
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.event(1).src_deps[0], Some(0)); // addi reads li's value
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The traced program's instructions, indexed by PC.
    insts: Vec<Inst>,
    /// Static PC of each event.
    pcs: Vec<Pc>,
    /// Producers of each event: both register sources, then the store a
    /// load read from; [`NO_DEP`] where absent.
    deps: Vec<[u32; 3]>,
    /// Direction of each event, one bit per event (clear for
    /// non-branches).
    taken: Vec<u64>,
    /// Sequence numbers of the memory instructions, ascending.
    mem_seqs: Vec<u32>,
    /// Word address of each memory instruction, parallel to `mem_seqs`.
    mem_addrs: Vec<u64>,
    halted: bool,
}

impl Trace {
    /// An empty trace of a program with instructions `insts`, with room
    /// for `capacity` events.
    pub(crate) fn with_capacity(insts: &[Inst], capacity: usize) -> Trace {
        Trace {
            insts: insts.to_vec(),
            pcs: Vec::with_capacity(capacity),
            deps: Vec::with_capacity(capacity),
            taken: Vec::with_capacity(capacity.div_ceil(64)),
            ..Trace::default()
        }
    }

    /// Appends the next event. Sequence numbers are implicit: `e.seq`
    /// must equal the current length.
    #[inline]
    pub(crate) fn push(&mut self, e: &TraceEvent) {
        let seq = self.pcs.len();
        debug_assert_eq!(e.seq, seq as Seq);
        let dep = |d: Option<Seq>| d.map_or(NO_DEP, |d| d as u32);
        self.pcs.push(e.pc);
        self.deps
            .push([dep(e.src_deps[0]), dep(e.src_deps[1]), dep(e.mem_dep)]);
        if seq.is_multiple_of(64) {
            self.taken.push(0);
        }
        if e.taken == Some(true) {
            self.taken[seq / 64] |= 1 << (seq % 64);
        }
        if let Some(a) = e.addr {
            self.mem_seqs.push(seq as u32);
            self.mem_addrs.push(a);
        }
    }

    /// Ends recording: notes whether the program halted and releases the
    /// unused part of the up-front reservation.
    pub(crate) fn finish(&mut self, halted: bool) {
        self.halted = halted;
        self.pcs.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.taken.shrink_to_fit();
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// `true` if the traced program ran to its `halt` (rather than hitting
    /// the instruction budget).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The traced program's instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside the program.
    #[inline]
    pub fn static_inst(&self, pc: Pc) -> Inst {
        self.insts[pc as usize]
    }

    /// Static PC of every event, in retirement order.
    #[inline]
    pub fn pcs(&self) -> &[Pc] {
        &self.pcs
    }

    /// Producers of every event, in retirement order: the producers of
    /// both register sources (in [`Inst::srcs`] order), then the store a
    /// load read from, with [`NO_DEP`] marking an absent one. Producers
    /// always precede their consumer.
    #[inline]
    pub fn deps(&self) -> &[[u32; 3]] {
        &self.deps
    }

    /// Branch direction bit of event `seq`: `true` only for a taken
    /// conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    #[inline]
    pub fn taken_bit(&self, seq: usize) -> bool {
        assert!(seq < self.pcs.len(), "seq {seq} out of range");
        self.taken[seq / 64] >> (seq % 64) & 1 != 0
    }

    /// Sequence numbers of the memory instructions (loads and stores), in
    /// retirement order.
    pub fn mem_seqs(&self) -> &[u32] {
        &self.mem_seqs
    }

    /// Word address of each memory instruction, parallel to
    /// [`Trace::mem_seqs`].
    pub(crate) fn mem_addrs(&self) -> &[u64] {
        &self.mem_addrs
    }

    /// The event with sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn event(&self, seq: Seq) -> TraceEvent {
        match self.get(seq) {
            Some(e) => e,
            None => panic!("seq {seq} out of range for a trace of {}", self.len()),
        }
    }

    /// The event with sequence number `seq`, or `None` if out of range.
    pub fn get(&self, seq: Seq) -> Option<TraceEvent> {
        let i = usize::try_from(seq).ok().filter(|&i| i < self.len())?;
        let pc = self.pcs[i];
        let inst = self.insts[pc as usize];
        let bit = self.taken_bit(i);
        let (taken, next_pc) = match inst {
            Inst::Branch { target, .. } => (Some(bit), if bit { target } else { pc + 1 }),
            Inst::Jump { target } => (None, target),
            Inst::Halt => (None, pc),
            _ => (None, pc + 1),
        };
        let addr = match inst.class() {
            InstClass::Load | InstClass::Store => {
                let k = self
                    .mem_seqs
                    .binary_search(&(i as u32))
                    .expect("memory event recorded");
                Some(self.mem_addrs[k])
            }
            _ => None,
        };
        let dep = |d: u32| (d != NO_DEP).then_some(d as Seq);
        let [s0, s1, m] = self.deps[i];
        Some(TraceEvent {
            seq,
            pc,
            inst,
            addr,
            taken,
            next_pc,
            src_deps: [dep(s0), dep(s1)],
            mem_dep: dep(m),
        })
    }

    /// Iterates over events in retirement order.
    pub fn iter(&self) -> Events<'_> {
        Events {
            trace: self,
            next: 0,
        }
    }
}

/// Iterator over a trace's events, assembled from its columns; see
/// [`Trace::iter`].
#[derive(Clone, Debug)]
pub struct Events<'a> {
    trace: &'a Trace,
    next: Seq,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let e = self.trace.get(self.next)?;
        self.next += 1;
        Some(e)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEvent;
    type IntoIter = Events<'a>;

    fn into_iter(self) -> Events<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{BranchCond, Reg};

    fn ev(seq: Seq, pc: Pc) -> TraceEvent {
        TraceEvent {
            seq,
            pc,
            inst: Inst::Nop,
            addr: None,
            taken: None,
            next_pc: pc + 1,
            src_deps: [None, None],
            mem_dep: None,
        }
    }

    #[test]
    fn accessors() {
        let mut t = Trace::with_capacity(&[Inst::Nop, Inst::Nop], 2);
        t.push(&ev(0, 0));
        t.push(&ev(1, 1));
        t.finish(true);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(t.halted());
        assert_eq!(t.event(1).seq, 1);
        assert!(t.get(2).is_none());
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
    }

    #[test]
    fn events_round_trip_through_the_columns() {
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        let insts = [
            Inst::Load {
                dst: r1,
                base: r2,
                offset: 0,
            },
            Inst::Branch {
                cond: BranchCond::Ne,
                src1: r1,
                src2: Reg::ZERO,
                target: 0,
            },
            Inst::Halt,
        ];
        let load = TraceEvent {
            seq: 0,
            pc: 0,
            inst: insts[0],
            addr: Some(0x100),
            taken: None,
            next_pc: 1,
            src_deps: [None, None],
            mem_dep: None,
        };
        let branch = TraceEvent {
            seq: 1,
            pc: 1,
            inst: insts[1],
            addr: None,
            taken: Some(true),
            next_pc: 0,
            src_deps: [Some(0), None],
            mem_dep: None,
        };
        let again = TraceEvent {
            seq: 2,
            mem_dep: Some(0),
            addr: Some(0x108),
            src_deps: [Some(1), None],
            ..load
        };
        let mut t = Trace::with_capacity(&insts, 0);
        for e in [load, branch, again] {
            t.push(&e);
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![load, branch, again]);
        assert_eq!(t.mem_seqs(), &[0, 2]);
        assert_eq!(t.deps()[2], [1, NO_DEP, 0]);
        assert!(t.taken_bit(1) && !t.taken_bit(0));
    }
}

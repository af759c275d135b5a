//! The functional (architectural) simulator.

use crate::{Seq, Trace, TraceEvent};
use preexec_isa::{FlatMap, Inst, MemImage, Pc, Program, Reg, NUM_ARCH_REGS};

/// Architecturally executes a [`Program`] instruction by instruction,
/// optionally recording a dataflow-annotated [`Trace`].
///
/// The functional simulator defines the ISA's reference semantics: the
/// timing simulator's retired architectural state is validated against it.
///
/// # Examples
///
/// ```
/// use preexec_isa::{ProgramBuilder, Reg};
/// use preexec_trace::FuncSim;
///
/// let mut b = ProgramBuilder::new("p");
/// b.li(Reg::new(1), 20);
/// b.addi(Reg::new(1), Reg::new(1), 22);
/// b.halt();
/// let prog = b.build();
/// let mut sim = FuncSim::new(&prog);
/// sim.run(1000);
/// assert_eq!(sim.reg(Reg::new(1)), 42);
/// ```
#[derive(Clone, Debug)]
pub struct FuncSim<'p> {
    program: &'p Program,
    regs: [u64; NUM_ARCH_REGS],
    mem: FlatMap<u64>,
    pc: Pc,
    seq: Seq,
    halted: bool,
    // Provenance for trace annotation.
    last_writer: [Option<Seq>; NUM_ARCH_REGS],
    last_store: FlatMap<Seq>,
}

/// Result of a single functional step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// An instruction retired.
    Retired(TraceEvent),
    /// The program has halted; no instruction executed.
    Halted,
}

impl<'p> FuncSim<'p> {
    /// Creates a simulator positioned at the program's entry with the
    /// program's initial memory image loaded.
    pub fn new(program: &'p Program) -> FuncSim<'p> {
        let mut mem = FlatMap::new();
        for (a, v) in program.image().iter() {
            mem.insert(a, v);
        }
        FuncSim {
            program,
            regs: [0; NUM_ARCH_REGS],
            mem,
            pc: program.entry(),
            seq: 0,
            halted: false,
            last_writer: [None; NUM_ARCH_REGS],
            last_store: FlatMap::new(),
        }
    }

    /// Creates a simulator with an overridden initial image (used by
    /// workloads with `train`/`ref` input variants sharing one binary).
    pub fn with_image(program: &'p Program, image: &MemImage) -> FuncSim<'p> {
        let mut sim = FuncSim::new(program);
        sim.mem.clear();
        for (a, v) in image.iter() {
            sim.mem.insert(a, v);
        }
        sim
    }

    /// Current architectural value of `r`.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Current architectural value of the word at `addr`.
    pub fn mem_word(&self, addr: u64) -> u64 {
        self.mem.get(addr & !7).unwrap_or(0)
    }

    /// The next PC to execute.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// `true` once a `halt` has retired (or the PC fell off the program).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of retired instructions so far.
    pub fn retired(&self) -> u64 {
        self.seq
    }

    /// A snapshot of all 32 architectural registers.
    pub fn reg_file(&self) -> [u64; NUM_ARCH_REGS] {
        let mut out = self.regs;
        out[0] = 0;
        out
    }

    fn write_reg(&mut self, r: Reg, v: u64, seq: Seq) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
            self.last_writer[r.index()] = Some(seq);
        }
    }

    fn src_dep(&self, r: Reg) -> Option<Seq> {
        if r.is_zero() {
            None
        } else {
            self.last_writer[r.index()]
        }
    }

    /// Executes one instruction, returning its trace event.
    pub fn step(&mut self) -> Step {
        if self.halted {
            return Step::Halted;
        }
        let Some(&inst) = self.program.get(self.pc) else {
            // Fell off the end of the program: treat as halt.
            self.halted = true;
            return Step::Halted;
        };
        let seq = self.seq;
        let pc = self.pc;
        let mut addr = None;
        let mut taken = None;
        let mut mem_dep = None;
        // Capture source provenance before this instruction overwrites it.
        let mut src_deps = [None, None];
        for (i, s) in inst.srcs().enumerate() {
            src_deps[i] = self.src_dep(s);
        }
        let mut next_pc = pc + 1;
        match inst {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.apply(self.reg(src1), self.reg(src2));
                self.write_reg(dst, v, seq);
            }
            Inst::AluImm { op, dst, src1, imm } => {
                let v = op.apply(self.reg(src1), imm as u64);
                self.write_reg(dst, v, seq);
            }
            Inst::LoadImm { dst, imm } => {
                self.write_reg(dst, imm as u64, seq);
            }
            Inst::Load { dst, base, offset } => {
                let a = self.reg(base).wrapping_add(offset as u64) & !7;
                addr = Some(a);
                mem_dep = self.last_store.get(a);
                let v = self.mem.get(a).unwrap_or(0);
                self.write_reg(dst, v, seq);
            }
            Inst::Store { src, base, offset } => {
                let a = self.reg(base).wrapping_add(offset as u64) & !7;
                addr = Some(a);
                self.mem.insert(a, self.reg(src));
                self.last_store.insert(a, seq);
            }
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => {
                let t = cond.eval(self.reg(src1), self.reg(src2));
                taken = Some(t);
                if t {
                    next_pc = target;
                }
            }
            Inst::Jump { target } => {
                next_pc = target;
            }
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }
        self.pc = next_pc;
        self.seq += 1;
        Step::Retired(TraceEvent {
            seq,
            pc,
            inst,
            addr,
            taken,
            next_pc,
            src_deps,
            mem_dep,
        })
    }

    /// Runs until halt or until `max_insts` instructions retire. Returns the
    /// number retired by this call.
    pub fn run(&mut self, max_insts: u64) -> u64 {
        let mut n = 0;
        while n < max_insts {
            match self.step() {
                Step::Retired(_) => n += 1,
                Step::Halted => break,
            }
        }
        n
    }

    /// Runs (up to `max_insts`, and at most `u32::MAX` instructions, the
    /// most a [`Trace`] indexes) and collects the full trace.
    pub fn run_trace(mut self, max_insts: u64) -> Trace {
        let max = max_insts.min(u64::from(u32::MAX)) as usize;
        let mut trace = Trace::with_capacity(self.program.insts(), max.min(1 << 20));
        while trace.len() < max {
            match self.step() {
                Step::Retired(e) => trace.push(&e),
                Step::Halted => break,
            }
        }
        trace.finish(self.halted);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::ProgramBuilder;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut b = ProgramBuilder::new("loop");
        b.li(r(1), 0).li(r(2), 10);
        b.label("top");
        b.addi(r(1), r(1), 1);
        b.blt(r(1), r(2), "top");
        b.halt();
        let p = b.build();
        let mut s = FuncSim::new(&p);
        s.run(10_000);
        assert!(s.halted());
        assert_eq!(s.reg(r(1)), 10);
        // 2 setup + 10 * (addi + blt) + halt
        assert_eq!(s.retired(), 2 + 20 + 1);
    }

    #[test]
    fn loads_and_stores_roundtrip_and_record_deps() {
        let mut b = ProgramBuilder::new("mem");
        b.li(r(1), 0x100);
        b.li(r(2), 99);
        b.st(r(2), r(1), 0); // seq 2
        b.ld(r(3), r(1), 0); // seq 3
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        assert_eq!(t.len(), 5);
        let ld = t.event(3);
        assert_eq!(ld.addr, Some(0x100));
        assert_eq!(ld.mem_dep, Some(2));
        assert_eq!(ld.src_deps[0], Some(0)); // base produced by li at seq 0
    }

    #[test]
    fn initial_image_is_visible() {
        let mut b = ProgramBuilder::new("img");
        b.data(0x200, 7);
        b.li(r(1), 0x200);
        b.ld(r(2), r(1), 0);
        b.halt();
        let p = b.build();
        let mut s = FuncSim::new(&p);
        s.run(100);
        assert_eq!(s.reg(r(2)), 7);
    }

    #[test]
    fn with_image_overrides_program_image() {
        let mut b = ProgramBuilder::new("img");
        b.data(0x200, 7);
        b.li(r(1), 0x200);
        b.ld(r(2), r(1), 0);
        b.halt();
        let p = b.build();
        let mut other = MemImage::new();
        other.store(0x200, 13);
        let mut s = FuncSim::with_image(&p, &other);
        s.run(100);
        assert_eq!(s.reg(r(2)), 13);
    }

    #[test]
    fn branch_direction_recorded() {
        let mut b = ProgramBuilder::new("br");
        b.li(r(1), 1);
        b.beq(r(1), Reg::ZERO, "skip"); // not taken
        b.bne(r(1), Reg::ZERO, "skip"); // taken
        b.nop(); // skipped
        b.label("skip");
        b.halt();
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(100);
        assert_eq!(t.event(1).taken, Some(false));
        assert_eq!(t.event(2).taken, Some(true));
        assert_eq!(t.event(2).next_pc, 4);
        assert!(matches!(t.event(3).inst, Inst::Halt));
    }

    #[test]
    fn r0_reads_zero_and_ignores_writes() {
        let mut b = ProgramBuilder::new("z");
        b.li(Reg::ZERO, 55);
        b.addi(r(1), Reg::ZERO, 1);
        b.halt();
        let p = b.build();
        let mut s = FuncSim::new(&p);
        s.run(100);
        assert_eq!(s.reg(Reg::ZERO), 0);
        assert_eq!(s.reg(r(1)), 1);
    }

    #[test]
    fn instruction_budget_stops_infinite_loop() {
        let mut b = ProgramBuilder::new("inf");
        b.label("x");
        b.jump("x");
        let p = b.build();
        let t = FuncSim::new(&p).run_trace(50);
        assert_eq!(t.len(), 50);
        assert!(!t.halted());
    }

    #[test]
    fn halt_event_is_recorded_then_stops() {
        let mut b = ProgramBuilder::new("h");
        b.halt();
        let p = b.build();
        let mut s = FuncSim::new(&p);
        assert!(matches!(s.step(), Step::Retired(_)));
        assert!(matches!(s.step(), Step::Halted));
        assert!(s.halted());
    }

    #[test]
    fn falling_off_program_halts() {
        let mut b = ProgramBuilder::new("off");
        b.nop();
        let p = b.build();
        let mut s = FuncSim::new(&p);
        s.run(100);
        assert!(s.halted());
        assert_eq!(s.retired(), 1);
    }
}

//! # preexec-trace
//!
//! Functional simulation, dynamic tracing, and profiling for the
//! pre-execution reproduction.
//!
//! * [`FuncSim`] — the reference architectural interpreter.
//! * [`Trace`]/[`TraceEvent`] — retirement-order dynamic instruction stream
//!   with register and memory dataflow provenance (producer sequence
//!   numbers), which the backward slicer and critical-path analyzer walk.
//!   The trace is stored column-wise (PC, producers, a branch bit, and
//!   addresses for memory instructions only); events are assembled on
//!   demand.
//! * [`MemAnnotation`] — classifies every dynamic memory access by the
//!   cache level that served it.
//! * [`Profile`]/[`ProblemLoad`] — per-static-instruction statistics and
//!   "problem load" identification, PTHSEL's inputs.
//!
//! # Examples
//!
//! ```
//! use preexec_isa::{ProgramBuilder, Reg};
//! use preexec_mem::HierarchyConfig;
//! use preexec_trace::{FuncSim, MemAnnotation, Profile};
//!
//! let (b_, i) = (Reg::new(1), Reg::new(2));
//! let mut b = ProgramBuilder::new("tiny");
//! b.li(b_, 0x1000).ld(i, b_, 0).halt();
//! let prog = b.build();
//! let trace = FuncSim::new(&prog).run_trace(1_000);
//! let ann = MemAnnotation::compute(&trace, HierarchyConfig::default());
//! let profile = Profile::compute(&prog, &trace, &ann);
//! assert_eq!(profile.total_insts(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod annotate;
mod event;
mod func;
mod profile;

pub use annotate::MemAnnotation;
pub use event::{Events, Seq, Trace, TraceEvent, NO_DEP};
pub use func::{FuncSim, Step};
pub use profile::{PcStats, ProblemLoad, Profile};

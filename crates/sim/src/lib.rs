//! # preexec-sim
//!
//! A cycle-driven timing simulator of the paper's machine: a 6-way
//! dynamically-scheduled superscalar with a 15-stage pipeline flavour,
//! 128-entry ROB, 80 shared reservation stations, 8 thread contexts, a
//! two-level on-chip memory hierarchy (from `preexec-mem`), the shared
//! hybrid branch predictor (from `preexec-bpred`), and **DDMT-style
//! pre-execution**: control-less, unchained p-threads spawned
//! microarchitecturally when the main thread decodes a trigger, executed
//! in lightweight mode (no ROB/LSQ, no retirement), prefetching into the
//! L2.
//!
//! The simulator reports cycles, per-structure access counts (consumed by
//! `preexec-energy`), and the pre-execution diagnostics of the paper's
//! Figure 3: spawns, useless spawns, fully/partially covered misses, and
//! p-instruction overhead.
//!
//! ## The reference pipeline
//!
//! The hot path in `pipeline.rs` is a struct-of-arrays rewrite with
//! event-driven stall fast-forwarding. The original map-backed
//! implementation is not part of this crate: it is kept as test support
//! (`tests/support/reference.rs` at the repository root), and the
//! differential wall (`tests/fastpath.rs`) asserts the two produce
//! identical reports.
//!
//! ## The `sanitize` feature
//!
//! With `--features sanitize` the pipeline runs per-cycle invariant
//! checks: in-order ROB retirement, operand readiness at issue,
//! structural occupancy bounds (ROB, reservation stations, MSHRs, fetch
//! buffer, p-thread contexts), post-access cache line presence,
//! cache/TLB statistic coherency, and counter monotonicity. A violation
//! panics with `[sanitize] cycle N: ...`; the differential harness in
//! `preexec-oracle` converts that into a failure carrying a replayable
//! fuzz seed. The feature adds fields to [`Simulator`] and roughly
//! doubles per-cycle work, so it is off by default.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod interval;
mod pipeline;
mod report;

pub use config::{SimConfig, SpawnPoint};
pub use interval::IntervalSnapshot;
pub use pipeline::Simulator;
pub use report::SimReport;

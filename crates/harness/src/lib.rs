//! # preexec-harness
//!
//! The experiment driver: an [`Engine`] that prepares the full analysis
//! pipeline per benchmark ([`Prepared`]) on a work pool with a memoized
//! artifact cache and per-stage [`Metrics`], evaluates each selection
//! target, and regenerates every table and figure of the paper's
//! evaluation section (see the `experiments` module and the `repro`
//! binary).
//!
//! `repro verify` (the [`verify`] module) runs the oracle-vs-pipeline
//! differential pass from `preexec-oracle` over every workload kernel and
//! a fuzzed program batch on the same engine; build with
//! `--features sanitize` to add the pipeline's per-cycle invariant checks.
//! `repro lint` (the [`lint`] module) runs the static analyzer from
//! `preexec-analysis` over every kernel, slicer candidate, and selected
//! p-thread set without simulating a cycle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod atlas;
pub mod campaign;
mod chart;
mod engine;
pub mod experiments;
pub mod lint;
pub mod metrics;
pub mod service;
mod setup;
mod table;
pub mod verify;

pub use chart::{signed_bars, stacked_bars};
pub use engine::{Engine, ProgressSink, THREADS_ENV};
pub use metrics::{Metrics, Stage};
pub use setup::{
    build_program, check_bench, profile_from_json, program_fingerprint, trees_from_json, versioned,
    CritPathOutput, ExpConfig, Prepared, PreparedBase, PreparedCore, ProfilingRun, StageOutput,
    TargetResult, MODEL_VERSION,
};
pub use table::{num1, pct, ratio, TextTable};

//! # preexec-critpath
//!
//! A Fields-style dependence-graph critical-path model over dynamic traces,
//! providing:
//!
//! * execution-time estimates and the Figure 2 breakdown (fetch / commit /
//!   exec / L2 / mem) for unoptimized runs, and
//! * the **criticality-based load cost functions** of §4.1 — the paper's
//!   first extension to PTHSEL. For each problem load, the model samples
//!   the latency-reduction → execution-time-reduction curve at 25/50/75/
//!   100% of the tolerable miss latency, once pessimistically (only this
//!   load is helped) and once optimistically (all contemporaneous misses
//!   resolved), and averages the two to approximate interaction costs.
//!
//! The graph encodes in-order fetch at finite bandwidth, branch-
//! misprediction refill (using the same shared `preexec-bpred` predictor as
//! the timing simulator), a finite ROB, register and store→load dataflow,
//! execution latencies (memory latencies from the shared `preexec-mem`
//! annotation), and in-order commit at finite bandwidth.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod branches;
mod cost;
mod graph;
mod model;

pub use branches::{problem_branches, BranchStats, ProblemBranch};
pub use cost::LoadCost;
pub use graph::{longest_path, Breakdown, Category, NodeInput, PathResult};
pub use model::{CritPathModel, InteractionModel};

/// Machine parameters of the critical-path model, defaulting to the
/// paper's configuration: 6-wide fetch and commit, 128-entry ROB, a
/// 15-stage pipeline (modelled as a 10-cycle front end), and a 3-cycle
/// multiply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CritPathConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries (a size of 0 is modelled as 1).
    pub rob_size: u32,
    /// Cycles from fetch to execution-ready (front-end depth).
    pub frontend_depth: u64,
    /// Cycles from branch resolution to redirected fetch.
    pub mispredict_penalty: u64,
    /// Integer multiply latency in cycles.
    pub mul_latency: u64,
}

impl Default for CritPathConfig {
    fn default() -> Self {
        CritPathConfig {
            fetch_width: 6,
            commit_width: 6,
            rob_size: 128,
            frontend_depth: 10,
            mispredict_penalty: 11,
            mul_latency: 3,
        }
    }
}

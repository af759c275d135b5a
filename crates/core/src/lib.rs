//! # pthsel
//!
//! The paper's primary contribution: **PTHSEL**, the analytical
//! pre-execution-thread selection framework, and **PTHSEL+E**, its
//! energy-aware extension (Petric & Roth, ISCA 2005).
//!
//! The crate implements:
//!
//! * the Table 1 latency model ([`LatencyModel`], equations L1–L7), with
//!   both the classic flat miss-cost model and the §4.1 criticality-based
//!   one ([`MissCostModel`]);
//! * the Table 2 energy model ([`EnergyModel`], equations E1–E8) and
//!   composite model ([`CompositeModel`], equations C1–C4);
//! * the selection search with overlap discounting and common-trigger
//!   merging ([`select`]), retargetable via [`SelectionTarget`] to latency
//!   (L-p-threads), energy (E-p-threads), ED (P-p-threads), ED²
//!   (P²-p-threads), or classic PTHSEL (O-p-threads);
//! * the [`CandidateTable`] the search reads: every candidate with its
//!   latency terms, built once per program, so retargeting a selection
//!   costs only the energy and composite equations.
//!
//! # Examples
//!
//! ```no_run
//! use pthsel::{select, SelectionTarget, SelectorInputs};
//! # fn get_inputs() -> SelectorInputs<'static> { unimplemented!() }
//! let inputs: SelectorInputs = get_inputs();
//! let l = select(&inputs, SelectionTarget::Latency);
//! let e = select(&inputs, SelectionTarget::Energy);
//! assert!(l.predicted_ladv >= e.predicted_ladv);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod branch_ext;
mod candidate;
mod composite;
mod energy_model;
mod latency;
mod params;
mod select;
mod table;

pub use branch_ext::{select_branch_pthreads, DEFAULT_MISPREDICT_PENALTY};
pub use candidate::{candidates_from_tree, Candidate};
pub use composite::CompositeModel;
pub use energy_model::EnergyModel;
pub use latency::{LatencyModel, MissCostModel};
pub use params::{AppParams, EnergyParams, MachineParams};
pub use select::{select, PThread, Selection, SelectionTarget, SelectorInputs};
pub use table::CandidateTable;

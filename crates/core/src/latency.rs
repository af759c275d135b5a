//! PTHSEL's latency model — Table 1 of the paper.
//!
//! | Eq. | Definition |
//! |-----|------------|
//! | L1  | `LADVagg(p) = LREDagg(p) − LOHagg(p)` |
//! | L2  | `LOHagg(p) = DCtrig(p) · LOH(p)` |
//! | L3  | `LREDagg(p) = DCpt-cm(p) · LRED(p)` |
//! | L4  | `LOH(p) = (SIZE(p)/BWSEQproc) · (BWSEQmt/BWSEQproc)` |
//! | L7  | `LADVagg −= LRED(p) · DCpt-cm(CHILD(p))` (overlap discount) |
//!
//! `LRED(p)` — the per-covered-miss execution-time reduction — is where
//! the classic and criticality-based variants differ: classic PTHSEL maps
//! tolerated cycles to gained cycles one-for-one (the identity function),
//! while PTHSEL+E's §4.1 extension routes the tolerance through the
//! critical-path cost function of the targeted load.

use crate::{Candidate, MachineParams};
use preexec_critpath::LoadCost;

/// Which per-miss latency-gain translation to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissCostModel {
    /// Classic PTHSEL: one tolerated cycle is one gained cycle.
    Flat,
    /// §4.1: the averaged pessimistic/optimistic critical-path function.
    Criticality,
}

/// The latency model bound to per-load cost functions.
#[derive(Clone, Debug)]
pub struct LatencyModel<'a> {
    machine: MachineParams,
    bw_seq_mt: f64,
    model: MissCostModel,
    /// Cost function per problem load, looked up by the candidate's root.
    costs: &'a [LoadCost],
}

impl<'a> LatencyModel<'a> {
    /// Creates the model. `costs` holds one [`LoadCost`] per problem load
    /// (only consulted when `model` is [`MissCostModel::Criticality`]).
    pub fn new(
        machine: MachineParams,
        bw_seq_mt: f64,
        model: MissCostModel,
        costs: &'a [LoadCost],
    ) -> LatencyModel<'a> {
        LatencyModel {
            machine,
            bw_seq_mt,
            model,
            costs,
        }
    }

    /// Equation L4: per-instance sequencing-bandwidth overhead in cycles.
    /// The p-thread consumes `SIZE/BWSEQproc` fetch cycles, discounted by
    /// how much of the machine's bandwidth the main thread actually uses.
    pub fn loh(&self, c: &Candidate) -> f64 {
        (c.size as f64 / self.machine.bw_seq_proc) * (self.bw_seq_mt / self.machine.bw_seq_proc)
    }

    /// Per-covered-miss latency gain (`LRED`), after the miss-cost
    /// translation.
    pub fn lred(&self, c: &Candidate) -> f64 {
        match self.model {
            MissCostModel::Flat => c.tolerance,
            MissCostModel::Criticality => self
                .costs
                .iter()
                .find(|lc| lc.pc() == c.root_pc)
                .map(|lc| lc.gain(c.tolerance))
                .unwrap_or(c.tolerance),
        }
    }

    /// Equation L2: aggregate overhead.
    pub fn loh_agg(&self, c: &Candidate) -> f64 {
        c.dc_trig as f64 * self.loh(c)
    }

    /// Equation L3: aggregate latency reduction.
    pub fn lred_agg(&self, c: &Candidate) -> f64 {
        c.dc_ptcm as f64 * self.lred(c)
    }

    /// Equation L1: aggregate latency advantage in cycles.
    pub fn ladv_agg(&self, c: &Candidate) -> f64 {
        self.lred_agg(c) - self.loh_agg(c)
    }

    /// Equation L7: the overlap discount one selected p-thread suffers for
    /// each selected child covering `child_dc_ptcm` of its misses.
    pub fn overlap_discount(&self, c: &Candidate, child_dc_ptcm: u64) -> f64 {
        self.lred(c) * child_dc_ptcm as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `size_alu` ALU instructions followed by the target load.
    fn cand(size_alu: usize, dc_trig: u64, dc_ptcm: u64, tolerance: f64) -> Candidate {
        Candidate {
            tree_idx: 0,
            node: 1,
            root_pc: 7,
            trigger_pc: 3,
            size: size_alu + 1,
            alu: size_alu,
            loads: 1,
            dc_trig,
            dc_ptcm,
            lookahead: 0.0,
            lead_time: 0.0,
            l1_miss_weight: 1.0,
            tolerance,
        }
    }

    fn model(m: MissCostModel, costs: &[LoadCost]) -> LatencyModel<'_> {
        LatencyModel::new(MachineParams::default(), 1.5, m, costs)
    }

    #[test]
    fn l4_matches_formula() {
        let m = model(MissCostModel::Flat, &[]);
        let c = cand(11, 100, 40, 150.0); // SIZE = 12
                                          // (12/6) * (1.5/6) = 2 * 0.25 = 0.5
        assert!((m.loh(&c) - 0.5).abs() < 1e-12);
        assert!((m.loh_agg(&c) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn l1_l3_flat_model() {
        let m = model(MissCostModel::Flat, &[]);
        let c = cand(11, 100, 40, 150.0);
        assert!((m.lred_agg(&c) - 6000.0).abs() < 1e-12);
        assert!((m.ladv_agg(&c) - 5950.0).abs() < 1e-12);
    }

    #[test]
    fn criticality_model_uses_cost_function() {
        // A saturated load: gains cap at 60 regardless of tolerance.
        let costs = vec![LoadCost::from_points(
            7,
            40,
            200.0,
            vec![(0.0, 0.0), (100.0, 60.0), (200.0, 60.0)],
        )];
        let m = model(MissCostModel::Criticality, &costs);
        let c = cand(11, 100, 40, 150.0);
        assert!((m.lred(&c) - 60.0).abs() < 1e-12);
        let flat = model(MissCostModel::Flat, &[]);
        assert!(m.ladv_agg(&c) < flat.ladv_agg(&c));
    }

    #[test]
    fn unknown_load_falls_back_to_flat() {
        let costs = vec![LoadCost::identity(99, 1, 200.0)];
        let m = model(MissCostModel::Criticality, &costs);
        let c = cand(3, 10, 5, 80.0);
        assert_eq!(m.lred(&c), 80.0);
    }

    #[test]
    fn l7_discount_scales_with_child_coverage() {
        let m = model(MissCostModel::Flat, &[]);
        let c = cand(11, 100, 40, 150.0);
        assert!((m.overlap_discount(&c, 25) - 3750.0).abs() < 1e-12);
        // Discounting all 40 shared misses exactly cancels LREDagg.
        assert!((m.lred_agg(&c) - m.overlap_discount(&c, 40)).abs() < 1e-12);
    }

    #[test]
    fn overhead_grows_with_main_thread_utilization() {
        let costs: Vec<LoadCost> = Vec::new();
        let busy = LatencyModel::new(MachineParams::default(), 4.0, MissCostModel::Flat, &costs);
        let idle = LatencyModel::new(MachineParams::default(), 0.5, MissCostModel::Flat, &costs);
        let c = cand(11, 100, 40, 150.0);
        assert!(busy.loh(&c) > idle.loh(&c));
    }
}

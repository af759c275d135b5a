//! PTHSEL+E's explicit energy model — equations E1–E8 of Table 2.
//!
//! All quantities are in units of the processor's maximum per-cycle
//! energy. The model is layered on the latency model: a p-thread's energy
//! *benefit* is the idle energy its latency advantage saves (E2), and its
//! energy *cost* is per-spawn fetch + execution + L2 energy (E4–E7).

use crate::{Candidate, EnergyParams, LatencyModel, MachineParams};

/// The PTHSEL+E energy model.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    machine: MachineParams,
    energy: EnergyParams,
}

impl EnergyModel {
    /// Creates the model from machine and energy parameters.
    pub fn new(machine: MachineParams, energy: EnergyParams) -> EnergyModel {
        EnergyModel { machine, energy }
    }

    /// The energy parameters in use.
    pub fn params(&self) -> &EnergyParams {
        &self.energy
    }

    /// Equation E5: fetch energy per dynamic instance. P-threads are
    /// sequenced in processor-width blocks, so one instance costs
    /// `ceil(SIZE/BWSEQproc)` instruction-cache accesses.
    pub fn e_fetch(&self, c: &Candidate) -> f64 {
        (c.size as f64 / self.machine.bw_seq_proc).ceil() * self.energy.e_fetch_per_access
    }

    /// Equation E6: execution energy per dynamic instance — every
    /// p-instruction pays the amalgamated rename/window/register/bus
    /// energy; ALU instructions add ALU energy; loads add AGEN +
    /// D-cache/TLB/LSQ energy.
    pub fn e_exec(&self, c: &Candidate) -> f64 {
        c.size as f64 * self.energy.e_xall_per_access
            + c.alu as f64 * self.energy.e_xalu_per_access
            + c.loads as f64 * self.energy.e_xload_per_access
    }

    /// Equation E7: L2 energy per dynamic instance — each body load
    /// accesses the L2 when it misses the L1, at its profiled L1 miss rate
    /// (the candidate's `l1_miss_weight` aggregates `LOAD(p) ·
    /// MISSRATE-L1(p)` with per-load rates).
    pub fn e_l2(&self, c: &Candidate) -> f64 {
        c.l1_miss_weight * self.energy.e_l2_per_access
    }

    /// Equation E4: total per-instance energy overhead.
    pub fn eoh(&self, c: &Candidate) -> f64 {
        self.e_fetch(c) + self.e_exec(c) + self.e_l2(c)
    }

    /// Equation E3: aggregate energy overhead.
    pub fn eoh_agg(&self, c: &Candidate) -> f64 {
        c.dc_trig as f64 * self.eoh(c)
    }

    /// Equation E2: aggregate energy reduction — idle energy saved by the
    /// p-thread's aggregate latency advantage.
    pub fn ered_agg(&self, ladv_agg: f64) -> f64 {
        ladv_agg * self.energy.e_idle_per_cycle
    }

    /// Equation E1: aggregate energy advantage.
    pub fn eadv_agg(&self, c: &Candidate, ladv_agg: f64) -> f64 {
        self.ered_agg(ladv_agg) - self.eoh_agg(c)
    }

    /// Convenience: aggregate energy advantage computed straight from a
    /// latency model.
    pub fn eadv_agg_with(&self, c: &Candidate, lat: &LatencyModel<'_>) -> f64 {
        self.eadv_agg(c, lat.ladv_agg(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(alu: usize, loads: usize, dc_trig: u64, l1_miss_weight: f64) -> Candidate {
        Candidate {
            tree_idx: 0,
            node: 1,
            root_pc: 7,
            trigger_pc: 3,
            size: alu + loads,
            alu,
            loads,
            dc_trig,
            dc_ptcm: 10,
            lookahead: 0.0,
            lead_time: 0.0,
            l1_miss_weight,
            tolerance: 100.0,
        }
    }

    fn model() -> EnergyModel {
        EnergyModel::new(MachineParams::default(), EnergyParams::default())
    }

    #[test]
    fn e5_fetch_uses_block_ceiling() {
        let m = model();
        // SIZE 7 -> ceil(7/6) = 2 blocks.
        let c = cand(6, 1, 1, 1.0);
        assert!((m.e_fetch(&c) - 2.0 * 0.09).abs() < 1e-12);
        // SIZE 6 -> exactly 1 block.
        let c6 = cand(5, 1, 1, 1.0);
        assert!((m.e_fetch(&c6) - 0.09).abs() < 1e-12);
    }

    #[test]
    fn e6_separates_loads_from_alu() {
        let m = model();
        let c = cand(4, 2, 1, 1.0); // SIZE 6, ALU 4, LOAD 2
        let expected = 6.0 * 0.049 + 4.0 * 0.008 + 2.0 * 0.038;
        assert!((m.e_exec(&c) - expected).abs() < 1e-12);
    }

    #[test]
    fn e7_scales_with_l1_miss_weight() {
        let m = model();
        let hot = cand(4, 2, 1, 0.1);
        let cold = cand(4, 2, 1, 1.9);
        assert!(m.e_l2(&cold) > m.e_l2(&hot));
        assert!((m.e_l2(&cold) - 1.9 * 0.136).abs() < 1e-12);
    }

    #[test]
    fn e1_e3_aggregate() {
        let m = model();
        let c = cand(4, 2, 50, 1.0);
        let eoh = m.eoh(&c);
        assert!((m.eoh_agg(&c) - 50.0 * eoh).abs() < 1e-12);
        // With a big enough latency advantage, the p-thread pays for
        // itself.
        let breakeven_ladv = m.eoh_agg(&c) / 0.05;
        assert!(m.eadv_agg(&c, breakeven_ladv).abs() < 1e-9);
        assert!(m.eadv_agg(&c, breakeven_ladv * 2.0) > 0.0);
        assert!(m.eadv_agg(&c, breakeven_ladv * 0.5) < 0.0);
    }

    /// The whole E1–E8 stack against hand-computed values, using the E8
    /// vendor constants (§4.2): Ef/a = 0.09, Exall/a = 0.049,
    /// Exalu/a = 0.008, Exload/a = 0.038, EL2/a = 0.136, Eidle/c = 0.05.
    #[test]
    fn e1_through_e8_match_hand_computation() {
        let p = EnergyParams::default();
        // E8: the parameters themselves are the paper's vendor table.
        assert_eq!(p.e_fetch_per_access, 0.09);
        assert_eq!(p.e_xall_per_access, 0.049);
        assert_eq!(p.e_xalu_per_access, 0.008);
        assert_eq!(p.e_xload_per_access, 0.038);
        assert_eq!(p.e_l2_per_access, 0.136);
        assert_eq!(p.e_idle_per_cycle, 0.05);

        let m = model();
        // SIZE 6 (4 ALU + 2 loads), 50 dynamic instances, 0.25 aggregate
        // L1 miss weight.
        let c = cand(4, 2, 50, 0.25);
        // E5: ceil(6/6) = 1 block -> 0.09.
        assert!((m.e_fetch(&c) - 0.09).abs() < 1e-12);
        // E6: 6(0.049) + 4(0.008) + 2(0.038) = 0.402.
        assert!((m.e_exec(&c) - 0.402).abs() < 1e-12);
        // E7: 0.25(0.136) = 0.034.
        assert!((m.e_l2(&c) - 0.034).abs() < 1e-12);
        // E4 = E5 + E6 + E7 = 0.526.
        assert!((m.eoh(&c) - 0.526).abs() < 1e-12);
        // E3 = 50(0.526) = 26.3.
        assert!((m.eoh_agg(&c) - 26.3).abs() < 1e-12);
        // E2 at LADVagg = 1000: 1000(0.05) = 50.
        assert!((m.ered_agg(1000.0) - 50.0).abs() < 1e-12);
        // E1 = 50 - 26.3 = 23.7.
        assert!((m.eadv_agg(&c, 1000.0) - 23.7).abs() < 1e-12);
    }

    #[test]
    fn zero_idle_factor_makes_every_pthread_an_energy_loss() {
        // The Figure 5 (top) observation: with Eidle/c = 0 every EADVagg
        // is negative, so no E-p-threads exist.
        let m = EnergyModel::new(
            MachineParams::default(),
            EnergyParams::default().with_idle_factor(0.0),
        );
        let c = cand(4, 2, 10, 1.0);
        assert!(m.eadv_agg(&c, 1e9) < 0.0);
    }

    #[test]
    fn higher_idle_factor_improves_energy_advantage() {
        let lo = EnergyModel::new(
            MachineParams::default(),
            EnergyParams::default().with_idle_factor(0.05),
        );
        let hi = EnergyModel::new(
            MachineParams::default(),
            EnergyParams::default().with_idle_factor(0.10),
        );
        let c = cand(4, 2, 10, 1.0);
        assert!(hi.eadv_agg(&c, 5000.0) > lo.eadv_agg(&c, 5000.0));
    }
}

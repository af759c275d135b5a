//! Tables 1 and 2: the PTHSEL / PTHSEL+E equations themselves,
//! demonstrated on a worked example mirroring the paper's Figure 1
//! p-thread (a two-level-unrolled composite p-thread of ~5 instructions,
//! 100 triggers, 40 covered misses).

use crate::{ExpConfig, TextTable};
use preexec_critpath::LoadCost;
use preexec_isa::{AluOp, Inst, Reg};
use preexec_json::impl_json_object;
use preexec_slicer::{alu_count, load_count};
use pthsel::{AppParams, Candidate, CompositeModel, EnergyModel, LatencyModel, MissCostModel};
use std::fmt;

/// The worked-example evaluation of every equation in Tables 1 and 2.
/// Pure equation evaluation — the only experiment that needs no engine.
#[derive(Clone, Debug)]
pub struct Tab12 {
    /// (equation, value, unit) rows.
    pub rows: Vec<(String, f64, &'static str)>,
}

impl_json_object!(Tab12 { rows });

/// Builds the Figure 1-style candidate: `i += 2`, two field loads, two
/// copies of the target load (merged composite ≈ 5 instructions).
fn example_candidate() -> Candidate {
    let r = Reg::new;
    let body = vec![
        Inst::AluImm {
            op: AluOp::Add,
            dst: r(1),
            src1: r(1),
            imm: 2,
        },
        Inst::Load {
            dst: r(5),
            base: r(1),
            offset: 8,
        },
        Inst::Load {
            dst: r(6),
            base: r(5),
            offset: 0,
        },
        Inst::Load {
            dst: r(7),
            base: r(1),
            offset: 16,
        },
        Inst::Load {
            dst: r(6),
            base: r(7),
            offset: 0,
        },
    ];
    Candidate {
        tree_idx: 0,
        node: 1,
        root_pc: 15,
        trigger_pc: 3,
        size: body.len(),
        alu: alu_count(&body),
        loads: load_count(&body),
        dc_trig: 100,
        dc_ptcm: 40,
        lookahead: 30.0,
        lead_time: 6.0,
        l1_miss_weight: 2.2,
        tolerance: 150.0,
    }
}

/// Evaluates every equation on the worked example under `cfg`'s
/// parameters.
pub fn run(cfg: &ExpConfig) -> Tab12 {
    let c = example_candidate();
    let machine = cfg.machine_params();
    let energy = cfg.energy_params();
    let costs = [LoadCost::from_points(
        15,
        40,
        machine.mem_latency,
        vec![
            (0.0, 0.0),
            (0.25 * machine.mem_latency, 0.22 * machine.mem_latency),
            (0.50 * machine.mem_latency, 0.41 * machine.mem_latency),
            (0.75 * machine.mem_latency, 0.55 * machine.mem_latency),
            (machine.mem_latency, 0.63 * machine.mem_latency),
        ],
    )];
    let lat = LatencyModel::new(machine, 1.2, MissCostModel::Criticality, &costs);
    let em = EnergyModel::new(machine, energy);
    let app = AppParams {
        l0: 1.0e6,
        e0: 3.5e5,
        bw_seq_mt: 1.2,
    };

    let mut rows = Vec::new();
    let ladv = lat.ladv_agg(&c);
    rows.push(("L4: LOH(p)".into(), lat.loh(&c), "cycles/instance"));
    rows.push(("LRED(p)".into(), lat.lred(&c), "cycles/miss"));
    rows.push(("L2: LOHagg(p)".into(), lat.loh_agg(&c), "cycles"));
    rows.push(("L3: LREDagg(p)".into(), lat.lred_agg(&c), "cycles"));
    rows.push(("L1: LADVagg(p)".into(), ladv, "cycles"));
    rows.push((
        "L7: discount for child covering 25 misses".into(),
        lat.overlap_discount(&c, 25),
        "cycles",
    ));
    rows.push(("E5: Ef(p)".into(), em.e_fetch(&c), "max-E units"));
    rows.push(("E6: Ex(p)".into(), em.e_exec(&c), "max-E units"));
    rows.push(("E7: EL2(p)".into(), em.e_l2(&c), "max-E units"));
    rows.push(("E4: EOH(p)".into(), em.eoh(&c), "max-E units"));
    rows.push(("E3: EOHagg(p)".into(), em.eoh_agg(&c), "max-E units"));
    rows.push(("E2: EREDagg(p)".into(), em.ered_agg(ladv), "max-E units"));
    let eadv = em.eadv_agg(&c, ladv);
    rows.push(("E1: EADVagg(p)".into(), eadv, "max-E units"));
    for (label, w) in [
        ("W=1 (latency)", 1.0),
        ("W=0.5 (ED)", 0.5),
        ("W=0.67 (ED2)", 0.67),
        ("W=0 (energy)", 0.0),
    ] {
        let comp = CompositeModel::new(app, w);
        rows.push((
            format!("C1: CADVagg(p) {label}"),
            comp.cadv_agg(ladv, eadv),
            "composite units",
        ));
    }
    Tab12 { rows }
}

impl fmt::Display for Tab12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tables 1-2: PTHSEL / PTHSEL+E equations on the Figure 1 worked example\n\
             (composite p-thread: i+=2, two field loads, two target-load copies;\n\
             DCtrig=100, DCptcm=40, tolerance=150 cycles)\n"
        )?;
        let mut t = TextTable::new(vec!["equation".into(), "value".into(), "unit".into()]);
        for (name, v, unit) in &self.rows {
            t.row(vec![name.clone(), format!("{v:.3}"), unit.to_string()]);
        }
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example_is_consistent() {
        let t = run(&ExpConfig::default());
        let get = |needle: &str| {
            t.rows
                .iter()
                .find(|(n, _, _)| n.contains(needle))
                .map(|(_, v, _)| *v)
                .unwrap()
        };
        // L1 = L3 - L2.
        assert!((get("L1:") - (get("L3:") - get("L2:"))).abs() < 1e-9);
        // E4 = E5 + E6 + E7.
        assert!((get("E4:") - (get("E5:") + get("E6:") + get("E7:"))).abs() < 1e-9);
        // E1 = E2 - E3.
        assert!((get("E1:") - (get("E2:") - get("E3:"))).abs() < 1e-9);
        // W=1 composite equals the latency advantage.
        assert!((get("W=1") - get("L1:")).abs() < 1e-6);
        // W=0 composite equals the energy advantage.
        assert!((get("W=0 ") - get("E1:")).abs() < 1e-6);
    }
}

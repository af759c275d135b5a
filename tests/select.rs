//! The selection table against the per-call search it replaced.
//!
//! `select` reads a `CandidateTable` that each prepared core builds once,
//! and evaluates only the energy (E1–E8) and composite (C1–C4) terms per
//! request. Before the table, every call re-enumerated each slice tree's
//! candidates with their bodies, rescored them under the request's
//! miss-cost model, and re-evaluated each composite advantage inside the
//! sort comparator. That per-call search is kept here, test-only, as the
//! reference. For every kernel and two generated scenarios, at three memory
//! latencies, with two idle factors sharing one core, and for every named
//! target plus a 17-point `W` grid, the table-based selection must equal
//! it p-thread for p-thread and in the predicted `LADV`/`EADV` bits. The
//! 500-cycle latency is there for twolf, whose selection there depends
//! on the 2% buckets being keyed to the tree's final best advantage.

use preexec::critpath::LoadCost;
use preexec::harness::{ExpConfig, Prepared};
use preexec::isa::{Inst, Pc};
use preexec::pthsel::{
    AppParams, Candidate, CompositeModel, EnergyModel, LatencyModel, MachineParams, PThread,
    Selection, SelectionTarget,
};
use preexec::slicer::{
    alu_count, collapse_inductions, load_count, merge_bodies, NodeId, SliceTree,
};
use preexec::trace::Profile;
use preexec::workloads;
use std::sync::Arc;

// ------------------------------------------------------------ reference

/// A candidate as the per-call search held it: with its body and path.
struct RefCandidate {
    cand: Candidate,
    body: Vec<Inst>,
    body_pcs: Vec<Pc>,
}

/// Lowers every node of `tree`, bodies included.
fn ref_candidates(
    tree: &SliceTree,
    tree_idx: usize,
    profile: &Profile,
    machine: &MachineParams,
    bw_seq_mt: f64,
) -> Vec<RefCandidate> {
    let mut out = Vec::new();
    for node in tree.iter_preorder() {
        if node.parent.is_none() {
            continue;
        }
        let raw_body = tree.body(node.id);
        let body = collapse_inductions(&raw_body);
        let mut lead = 0.0;
        let mut l1_miss_weight = 0.0;
        let mut cur = Some(node.id);
        let mut pcs = Vec::new();
        while let Some(c) = cur {
            pcs.push(tree.node(c).pc);
            cur = tree.node(c).parent;
        }
        for (k, &pc) in pcs.iter().enumerate() {
            let inst = if k == 0 {
                tree.node(node.id).inst
            } else {
                raw_body[k]
            };
            let st = profile.pc_stats(pc);
            if inst.is_load() {
                l1_miss_weight += st.l1_miss_rate();
                if pc != tree.root_pc || k + 1 != pcs.len() {
                    lead += machine.expected_load_latency(st.l1_miss_rate(), st.l2_miss_rate());
                }
            } else if k + 1 != pcs.len() {
                lead += 1.0;
            }
        }
        let slack = if bw_seq_mt > 0.0 {
            node.lookahead() / bw_seq_mt
        } else {
            0.0
        };
        out.push(RefCandidate {
            cand: Candidate {
                tree_idx,
                node: node.id,
                root_pc: tree.root_pc,
                trigger_pc: node.pc,
                size: body.len(),
                alu: alu_count(&body),
                loads: load_count(&body),
                dc_trig: node.dc_trig,
                dc_ptcm: node.dc_ptcm,
                lookahead: node.lookahead(),
                lead_time: lead,
                l1_miss_weight,
                tolerance: (slack - lead).clamp(0.0, machine.mem_latency),
            },
            body,
            body_pcs: pcs,
        });
    }
    out
}

/// Everything one reference selection reads.
struct RefInputs<'a> {
    profile: &'a Profile,
    trees: &'a [SliceTree],
    costs: &'a [LoadCost],
    machine: MachineParams,
    energy: preexec::pthsel::EnergyParams,
    app: AppParams,
}

fn ref_select(inputs: &RefInputs<'_>, target: SelectionTarget) -> Selection {
    let lat = LatencyModel::new(
        inputs.machine,
        inputs.app.bw_seq_mt,
        target.miss_cost_model(),
        inputs.costs,
    );
    let emodel = EnergyModel::new(inputs.machine, inputs.energy);
    let comp = CompositeModel::new(inputs.app, target.weight());
    let mut chosen: Vec<(RefCandidate, f64, f64)> = Vec::new();
    for (ti, tree) in inputs.trees.iter().enumerate() {
        let cands = ref_candidates(
            tree,
            ti,
            inputs.profile,
            &inputs.machine,
            inputs.app.bw_seq_mt,
        );
        chosen.extend(ref_select_in_tree(
            cands, tree, target, &lat, &emodel, &comp,
        ));
    }
    chosen.sort_by_key(|(c, _, _)| c.cand.trigger_pc);
    let mut pthreads: Vec<PThread> = Vec::new();
    let mut i = 0;
    while i < chosen.len() {
        let mut j = i + 1;
        while j < chosen.len() && chosen[j].0.cand.trigger_pc == chosen[i].0.cand.trigger_pc {
            j += 1;
        }
        pthreads.extend(ref_merge_trigger_group(&chosen[i..j]));
        i = j;
    }
    let predicted_ladv = pthreads.iter().map(|p| p.ladv_agg).sum();
    let predicted_eadv = pthreads.iter().map(|p| p.eadv_agg).sum();
    Selection {
        target,
        pthreads,
        predicted_ladv,
        predicted_eadv,
    }
}

fn ref_merge_trigger_group(group: &[(RefCandidate, f64, f64)]) -> Vec<PThread> {
    let mut order: Vec<usize> = (0..group.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(group[k].0.body_pcs.len()));
    let mut kept: Vec<usize> = Vec::new();
    for &k in &order {
        let root = group[k].0.cand.root_pc;
        let subsumed = kept.iter().any(|&a| {
            let pcs = &group[a].0.body_pcs;
            pcs[..pcs.len().saturating_sub(1)].contains(&root)
        });
        if !subsumed {
            kept.push(k);
        }
    }
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    for &k in &kept {
        let first = group[k].0.body.first().copied();
        match partitions
            .iter_mut()
            .find(|p| group[p[0]].0.body.first().copied() == first)
        {
            Some(p) => p.push(k),
            None => partitions.push(vec![k]),
        }
    }
    partitions
        .into_iter()
        .map(|part| {
            let bodies: Vec<Vec<Inst>> = part.iter().map(|&k| group[k].0.body.clone()).collect();
            let mut targets: Vec<Pc> = part.iter().map(|&k| group[k].0.cand.root_pc).collect();
            targets.sort_unstable();
            targets.dedup();
            PThread {
                trigger_pc: group[part[0]].0.cand.trigger_pc,
                body: merge_bodies(&bodies),
                targets,
                dc_trig: part
                    .iter()
                    .map(|&k| group[k].0.cand.dc_trig)
                    .max()
                    .unwrap_or(0),
                dc_ptcm: part.iter().map(|&k| group[k].0.cand.dc_ptcm).sum(),
                ladv_agg: part.iter().map(|&k| group[k].1).sum(),
                eadv_agg: part.iter().map(|&k| group[k].2).sum(),
                branch_hint: None,
                hint_lookahead: part
                    .iter()
                    .map(|&k| {
                        let c = &group[k].0;
                        c.body_pcs
                            .iter()
                            .filter(|&&pc| pc == c.cand.trigger_pc)
                            .count() as u64
                    })
                    .max()
                    .unwrap_or(0),
            }
        })
        .collect()
}

fn ref_select_in_tree(
    cands: Vec<RefCandidate>,
    tree: &SliceTree,
    target: SelectionTarget,
    lat: &LatencyModel<'_>,
    emodel: &EnergyModel,
    comp: &CompositeModel,
) -> Vec<(RefCandidate, f64, f64)> {
    let advantage = |ladv: f64, eadv: f64| -> f64 {
        match target {
            SelectionTarget::Classic | SelectionTarget::Latency => ladv,
            SelectionTarget::Energy => eadv,
            _ => comp.cadv_agg(ladv, eadv),
        }
    };
    let min_cov = (tree.total_misses() / 100).max(8);
    let mut pool: Vec<usize> = Vec::new();
    let mut ladvs = vec![0.0; cands.len()];
    let mut eadvs = vec![0.0; cands.len()];
    for (k, c) in cands.iter().enumerate() {
        let l = lat.ladv_agg(&c.cand);
        let e = emodel.eadv_agg(&c.cand, l);
        ladvs[k] = l;
        eadvs[k] = e;
        if c.cand.dc_ptcm >= min_cov && advantage(l, e) > 0.0 {
            pool.push(k);
        }
    }
    let max_adv = pool
        .iter()
        .map(|&k| advantage(ladvs[k], eadvs[k]))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let bucket = |k: usize| (advantage(ladvs[k], eadvs[k]) / (0.02 * max_adv)).round() as i64;
    pool.sort_by(|&a, &b| {
        bucket(b)
            .cmp(&bucket(a))
            .then(
                cands[b]
                    .cand
                    .tolerance
                    .partial_cmp(&cands[a].cand.tolerance)
                    .expect("finite"),
            )
            .then(cands[a].body.len().cmp(&cands[b].body.len()))
            .then(cands[a].cand.node.cmp(&cands[b].cand.node))
    });
    let mut selected: Vec<usize> = Vec::new();
    for &k in &pool {
        let c = &cands[k].cand;
        let mut disc_l = ladvs[k];
        for &s in &selected {
            let sc = &cands[s].cand;
            if is_ancestor(tree, c.node, sc.node) {
                disc_l -= lat.overlap_discount(c, sc.dc_ptcm);
            } else if is_ancestor(tree, sc.node, c.node) {
                disc_l -= lat.overlap_discount(c, c.dc_ptcm);
            }
        }
        let disc_e = emodel.eadv_agg(c, disc_l);
        if advantage(disc_l, disc_e) <= 0.0 {
            continue;
        }
        selected.push(k);
        selected.retain(|&s| {
            if s == k {
                return true;
            }
            let sc = &cands[s].cand;
            if is_ancestor(tree, sc.node, c.node) {
                let dl = ladvs[s] - lat.overlap_discount(sc, c.dc_ptcm);
                let de = emodel.eadv_agg(sc, dl);
                if advantage(dl, de) <= 0.0 {
                    return false;
                }
                ladvs[s] = dl;
                eadvs[s] = de;
            }
            true
        });
        ladvs[k] = disc_l;
        eadvs[k] = disc_e;
    }
    let mut cands: Vec<Option<RefCandidate>> = cands.into_iter().map(Some).collect();
    selected
        .into_iter()
        .map(|k| (cands[k].take().expect("selected once"), ladvs[k], eadvs[k]))
        .collect()
}

fn is_ancestor(tree: &SliceTree, a: NodeId, b: NodeId) -> bool {
    let mut cur = tree.node(b).parent;
    while let Some(p) = cur {
        if p == a {
            return true;
        }
        cur = tree.node(p).parent;
    }
    false
}

// ---------------------------------------------------------------- check

fn targets() -> Vec<SelectionTarget> {
    let mut t = vec![
        SelectionTarget::Classic,
        SelectionTarget::Latency,
        SelectionTarget::Energy,
        SelectionTarget::Ed,
        SelectionTarget::Ed2,
    ];
    t.extend((0..=16).map(|i| SelectionTarget::Weighted(i as f64 / 16.0)));
    t
}

fn assert_same(got: &Selection, want: &Selection, label: &str) {
    assert_eq!(got.pthreads.len(), want.pthreads.len(), "{label}: count");
    for (g, w) in got.pthreads.iter().zip(&want.pthreads) {
        let at = format!("{label}: p-thread @pc{}", w.trigger_pc);
        assert_eq!(g.trigger_pc, w.trigger_pc, "{at}");
        assert_eq!(g.body, w.body, "{at}: body");
        assert_eq!(g.targets, w.targets, "{at}: targets");
        assert_eq!((g.dc_trig, g.dc_ptcm), (w.dc_trig, w.dc_ptcm), "{at}: dc");
        assert_eq!(g.hint_lookahead, w.hint_lookahead, "{at}: lookahead");
        assert_eq!(g.branch_hint, w.branch_hint, "{at}: hint");
        assert_eq!(g.ladv_agg.to_bits(), w.ladv_agg.to_bits(), "{at}: ladv");
        assert_eq!(g.eadv_agg.to_bits(), w.eadv_agg.to_bits(), "{at}: eadv");
    }
    assert_eq!(
        got.predicted_ladv.to_bits(),
        want.predicted_ladv.to_bits(),
        "{label}: predicted ladv"
    );
    assert_eq!(
        got.predicted_eadv.to_bits(),
        want.predicted_eadv.to_bits(),
        "{label}: predicted eadv"
    );
}

/// One core per memory latency; both idle factors select on it.
fn check(name: &str) {
    let mut selected = 0;
    for mem_latency in [200, 300, 500] {
        let mut cfg = ExpConfig::default();
        cfg.sim = cfg.sim.with_mem_latency(mem_latency);
        let core = Prepared::build(name, &cfg).core;
        for idle in [0.05, 0.10] {
            cfg.energy = cfg.energy.with_idle_factor(idle);
            let prep = Prepared::from_core(Arc::clone(&core), &cfg);
            let inputs = RefInputs {
                profile: &core.profile,
                trees: &core.trees,
                costs: &core.costs,
                machine: cfg.machine_params(),
                energy: cfg.energy_params(),
                app: prep.app,
            };
            for target in targets() {
                let label = format!("{name} mem{mem_latency} idle{idle} {target:?}");
                let got = prep.select(target);
                assert_same(&got, &ref_select(&inputs, target), &label);
                selected += got.pthreads.len();
            }
        }
    }
    assert!(selected > 0, "{name}: the grid must select something");
}

macro_rules! select_tests {
    ($($module:ident => $name:expr;)+) => {
        $(#[test]
        fn $module() {
            check($name);
        })+

        /// Every kernel has a named test above.
        #[test]
        fn all_kernels_are_covered() {
            let tested = [$($name),+];
            assert!(workloads::NAMES.iter().all(|n| tested.contains(n)));
        }
    };
}

select_tests! {
    bzip2 => "bzip2";
    gap => "gap";
    gcc => "gcc";
    mcf => "mcf";
    parser => "parser";
    twolf => "twolf";
    vortex => "vortex";
    vpr_place => "vpr.place";
    vpr_route => "vpr.route";
    gen_short_slices => "gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s7";
    gen_long_slices => "gen:sl8_id2_bd0.5_mr0.5_mc0.5_fp262144_s3";
}

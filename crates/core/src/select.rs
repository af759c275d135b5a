//! The p-thread selection search: per-tree candidate evaluation, overlap
//! discounting (equation L7), de-selection, and the common-trigger merge
//! post-pass.

use crate::table::Row;
use crate::{
    AppParams, Candidate, CandidateTable, CompositeModel, EnergyModel, EnergyParams, MissCostModel,
};
use preexec_isa::{Inst, Pc, Program};
use preexec_slicer::{merge_bodies, SliceTree};

/// What the selection optimizes, mapping to the paper's p-thread flavours.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum SelectionTarget {
    /// O-p-threads: original PTHSEL — latency with the flat miss-cost
    /// model.
    Classic,
    /// L-p-threads: latency with the criticality-based miss-cost model.
    #[default]
    Latency,
    /// E-p-threads: energy (`W = 0`).
    Energy,
    /// P-p-threads: energy-delay (`W = 0.5`).
    Ed,
    /// P²-p-threads: energy-delay² (`W = 0.67`).
    Ed2,
    /// Arbitrary composition weight.
    Weighted(f64),
}

impl SelectionTarget {
    /// The composition weight `W` (equation C2).
    pub fn weight(&self) -> f64 {
        match *self {
            SelectionTarget::Classic | SelectionTarget::Latency => 1.0,
            SelectionTarget::Energy => 0.0,
            SelectionTarget::Ed => 0.5,
            SelectionTarget::Ed2 => 0.67,
            SelectionTarget::Weighted(w) => w,
        }
    }

    /// Which miss-cost model this target uses.
    pub fn miss_cost_model(&self) -> MissCostModel {
        match self {
            SelectionTarget::Classic => MissCostModel::Flat,
            _ => MissCostModel::Criticality,
        }
    }

    /// Short label used in reports ("O", "L", "E", "P", "P2").
    pub fn label(&self) -> &'static str {
        match self {
            SelectionTarget::Classic => "O",
            SelectionTarget::Latency => "L",
            SelectionTarget::Energy => "E",
            SelectionTarget::Ed => "P",
            SelectionTarget::Ed2 => "P2",
            SelectionTarget::Weighted(_) => "W",
        }
    }
}

impl std::fmt::Display for SelectionTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A selected (possibly composite) p-thread, ready for the simulator.
#[derive(Clone, Debug)]
pub struct PThread {
    /// Spawn when the main thread decodes this PC.
    pub trigger_pc: Pc,
    /// Composite body in execution order.
    pub body: Vec<Inst>,
    /// The problem loads this p-thread targets.
    pub targets: Vec<Pc>,
    /// Predicted spawns per run.
    pub dc_trig: u64,
    /// Predicted covered misses per run.
    pub dc_ptcm: u64,
    /// Predicted aggregate latency advantage (cycles), after discounting.
    pub ladv_agg: f64,
    /// Predicted aggregate energy advantage (max-energy × cycles units).
    pub eadv_agg: f64,
    /// For branch pre-execution (§7): the branch this p-thread predicts.
    /// The simulator turns the body's computed outcome into a fetch hint
    /// for a future dynamic instance of that branch. `None` for ordinary
    /// load-prefetching p-threads.
    pub branch_hint: Option<Pc>,
    /// How many dynamic occurrences ahead of the trigger the p-thread's
    /// computation lands (the slice's unroll depth): the hint applies to
    /// the `hint_lookahead`-th occurrence of the target after the spawn.
    pub hint_lookahead: u64,
}

/// The outcome of one selection run.
#[derive(Clone, Debug)]
pub struct Selection {
    /// The target the selection optimized.
    pub target: SelectionTarget,
    /// Selected p-threads after merging, sorted by trigger PC.
    pub pthreads: Vec<PThread>,
    /// Sum of discounted `LADVagg` over selections (predicted cycle
    /// savings; Table 3's latency prediction).
    pub predicted_ladv: f64,
    /// Sum of `EADVagg` over selections (predicted energy savings).
    pub predicted_eadv: f64,
}

impl Selection {
    /// Total predicted composite advantage for reporting.
    pub fn predicted_cadv(&self, app: &AppParams, w: f64) -> f64 {
        CompositeModel::new(*app, w).cadv_agg(self.predicted_ladv, self.predicted_eadv)
    }

    /// Total instructions across p-thread bodies.
    pub fn total_body_insts(&self) -> usize {
        self.pthreads.iter().map(|p| p.body.len()).sum()
    }

    /// Average p-thread body length (0 when nothing selected).
    pub fn avg_body_len(&self) -> f64 {
        if self.pthreads.is_empty() {
            0.0
        } else {
            self.total_body_insts() as f64 / self.pthreads.len() as f64
        }
    }
}

/// All inputs of one selection run.
#[derive(Clone, Copy, Debug)]
pub struct SelectorInputs<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// Slice trees, one per problem load.
    pub trees: &'a [SliceTree],
    /// The candidates of `trees`, scored for the machine
    /// ([`CandidateTable::build`]).
    pub table: &'a CandidateTable,
    /// Machine energy parameters.
    pub energy: EnergyParams,
    /// Application parameters (`L0`, `E0`; `BWSEQmt` is already folded
    /// into `table`).
    pub app: AppParams,
}

/// Runs PTHSEL / PTHSEL+E for `target` over the given inputs.
///
/// The search follows the paper: each slice tree is examined
/// independently; candidates with positive (target-metric) advantage are
/// selected greedily from the largest advantage down; each selection
/// discounts its ancestors' latency advantage by the shared covered misses
/// (L7), de-selecting any ancestor whose discounted advantage goes
/// negative. A post-pass merges selected p-threads with a common trigger
/// into composite p-threads.
pub fn select(inputs: &SelectorInputs<'_>, target: SelectionTarget) -> Selection {
    let selection = select_raw(inputs, target);
    debug_verify_pthreads(inputs.program, &selection.pthreads);
    selection
}

/// Static verification of an accepted p-thread set (debug builds only):
/// the downstream simulator assumes store-free, control-less,
/// well-anchored bodies rather than checking them (see
/// `preexec-analysis`). Composite merges may exceed one slice's
/// `max_body`, so only structural shape is asserted here; `repro lint`
/// applies the length cap to raw candidates.
pub(crate) fn debug_verify_pthreads(program: &Program, pthreads: &[PThread]) {
    debug_assert!(
        pthreads.iter().all(|p| {
            let shape = preexec_analysis::PthreadShape {
                trigger_pc: p.trigger_pc,
                body: &p.body,
                targets: &p.targets,
                branch_hint: p.branch_hint,
            };
            !preexec_analysis::verify_pthread(program, &shape, usize::MAX)
                .iter()
                .any(preexec_analysis::Finding::is_error)
        }),
        "selection accepted a statically invalid p-thread set"
    );
}

/// [`select`] without the static-verification debug assertion — for the
/// branch extension, whose raw selections still carry the sliced branch
/// roots in their bodies until `finalize_branch_pthread` strips them.
pub(crate) fn select_raw(inputs: &SelectorInputs<'_>, target: SelectionTarget) -> Selection {
    let table = inputs.table;
    debug_assert_eq!(
        table.tree_count(),
        inputs.trees.len(),
        "table built from trees"
    );
    let emodel = EnergyModel::new(table.machine(), inputs.energy);
    let comp = CompositeModel::new(inputs.app, target.weight());
    let mut chosen: Vec<Pick<'_>> = Vec::new();
    for (ti, tree) in inputs.trees.iter().enumerate() {
        let picks = select_in_tree(table.tree_rows(ti), tree, target, &emodel, &comp);
        // Bodies exist only for the picks.
        chosen.extend(picks.into_iter().map(|(cand, ladv, eadv)| Pick {
            cand,
            body: cand.body(tree),
            body_pcs: cand.body_pcs(tree),
            ladv,
            eadv,
        }));
    }
    // Merge common triggers.
    chosen.sort_by_key(|p| p.cand.trigger_pc);
    let mut pthreads: Vec<PThread> = Vec::new();
    let mut i = 0;
    while i < chosen.len() {
        let mut j = i + 1;
        while j < chosen.len() && chosen[j].cand.trigger_pc == chosen[i].cand.trigger_pc {
            j += 1;
        }
        pthreads.extend(merge_trigger_group(&chosen[i..j]));
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

/// A selected candidate: its body, materialized from its tree, and its
/// discounted advantages.
struct Pick<'a> {
    cand: &'a Candidate,
    body: Vec<Inst>,
    body_pcs: Vec<Pc>,
    ladv: f64,
    eadv: f64,
}

/// Merges the selections sharing one trigger PC into composite p-threads.
///
/// Two refinements over naive concatenation keep merged bodies sound:
///
/// * **Subsumption**: a selection whose target load already appears as an
///   *embedded* load in another selection's slice path is dropped — the
///   embedding p-thread prefetches that line anyway (DDMT p-loads all
///   prefetch).
/// * **Prefix compatibility**: only bodies that start with the same
///   instruction are merged (shared slice prefix + forked tails, the
///   Figure 1e shape). Bodies with unrelated computations stay separate
///   p-threads on the same trigger; concatenating them would corrupt the
///   shared registers (e.g. apply two different induction advances).
fn merge_trigger_group(group: &[Pick<'_>]) -> Vec<PThread> {
    // Subsumption, biggest bodies first so the keeper set is stable.
    let mut order: Vec<usize> = (0..group.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(group[k].body_pcs.len()));
    let mut kept: Vec<usize> = Vec::new();
    for &k in &order {
        let root = group[k].cand.root_pc;
        let subsumed = kept.iter().any(|&a| {
            let pcs = &group[a].body_pcs;
            pcs[..pcs.len().saturating_sub(1)].contains(&root)
        });
        if !subsumed {
            kept.push(k);
        }
    }
    // Partition by leading instruction; merge within each partition.
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    for &k in &kept {
        let first = group[k].body.first().copied();
        match partitions
            .iter_mut()
            .find(|p| group[p[0]].body.first().copied() == first)
        {
            Some(p) => p.push(k),
            None => partitions.push(vec![k]),
        }
    }
    partitions
        .into_iter()
        .map(|part| {
            let bodies: Vec<Vec<Inst>> = part.iter().map(|&k| group[k].body.clone()).collect();
            let mut targets: Vec<Pc> = part.iter().map(|&k| group[k].cand.root_pc).collect();
            targets.sort_unstable();
            targets.dedup();
            PThread {
                trigger_pc: group[part[0]].cand.trigger_pc,
                body: merge_bodies(&bodies),
                targets,
                dc_trig: part
                    .iter()
                    .map(|&k| group[k].cand.dc_trig)
                    .max()
                    .unwrap_or(0),
                dc_ptcm: part.iter().map(|&k| group[k].cand.dc_ptcm).sum(),
                ladv_agg: part.iter().map(|&k| group[k].ladv).sum(),
                eadv_agg: part.iter().map(|&k| group[k].eadv).sum(),
                branch_hint: None,
                hint_lookahead: part
                    .iter()
                    .map(|&k| {
                        let g = &group[k];
                        g.body_pcs
                            .iter()
                            .filter(|&&pc| pc == g.cand.trigger_pc)
                            .count() as u64
                    })
                    .max()
                    .unwrap_or(0),
            }
        })
        .collect()
}

/// Selects within one tree with L7 overlap discounting. Returns the
/// picks in selection order with their discounted `(LADVagg, EADVagg)`.
fn select_in_tree<'t>(
    rows: &'t [Row],
    tree: &SliceTree,
    target: SelectionTarget,
    emodel: &EnergyModel,
    comp: &CompositeModel,
) -> Vec<(&'t Candidate, f64, f64)> {
    let model = target.miss_cost_model();
    // Advantage of a candidate under the target metric.
    let advantage = |ladv: f64, eadv: f64| -> f64 {
        match target {
            SelectionTarget::Classic | SelectionTarget::Latency => ladv,
            SelectionTarget::Energy => eadv,
            _ => comp.cadv_agg(ladv, eadv),
        }
    };
    // Initial (undiscounted) figures; keep positive-advantage candidates.
    // Candidates covering a negligible share of the load's misses are not
    // worth a static p-thread (they come from boundary effects in the
    // profile, e.g. slices of the first few dynamic instances that reach
    // program-initialization code).
    let min_cov = (tree.total_misses() / 100).max(8);
    let mut ladvs: Vec<f64> = rows.iter().map(|r| r.ladv_agg(model)).collect();
    let mut eadvs: Vec<f64> = rows
        .iter()
        .zip(&ladvs)
        .map(|(r, &l)| emodel.eadv_agg(&r.cand, l))
        .collect();
    let scored: Vec<(usize, f64)> = (0..rows.len())
        .filter(|&k| rows[k].cand.dc_ptcm >= min_cov)
        .map(|k| (k, advantage(ladvs[k], eadvs[k])))
        .filter(|&(_, adv)| adv > 0.0)
        .collect();
    // Greedy from best advantage down, with L7 discounting applied to
    // already-selected ancestors; ancestors whose discounted advantage
    // turns negative are de-selected.
    // Sort by advantage quantized into 2%-of-max buckets; among near-ties
    // prefer the larger tolerance (coverage arrives earlier — the gain
    // function saturates, so the model sees the extra hoisting as free)
    // and then the smaller body.
    let max_adv = scored
        .iter()
        .map(|&(_, adv)| adv)
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let mut pool: Vec<(i64, usize)> = scored
        .into_iter()
        .map(|(k, adv)| ((adv / (0.02 * max_adv)).round() as i64, k))
        .collect();
    pool.sort_by(|&(bucket_a, a), &(bucket_b, b)| {
        let (ca, cb) = (&rows[a].cand, &rows[b].cand);
        bucket_b
            .cmp(&bucket_a)
            .then(cb.tolerance.partial_cmp(&ca.tolerance).expect("finite"))
            .then(ca.size.cmp(&cb.size))
            .then(ca.node.cmp(&cb.node))
    });
    let mut selected: Vec<usize> = Vec::new();
    for &(_, k) in &pool {
        let c = &rows[k];
        // Skip if an already-selected candidate relates to this one as
        // ancestor/descendant *and* the discounted advantage would not be
        // positive.
        let mut disc_l = ladvs[k];
        for &s in &selected {
            let sc = &rows[s];
            if c.is_ancestor_of(sc) {
                // c is an ancestor of a selected deeper candidate: c's
                // shared misses are the descendant's coverage (L7).
                disc_l -= c.lred(model) * sc.cand.dc_ptcm as f64;
            } else if sc.is_ancestor_of(c) {
                // c is a descendant: the overlap is c's own coverage.
                disc_l -= c.lred(model) * c.cand.dc_ptcm as f64;
            }
        }
        let disc_e = emodel.eadv_agg(&c.cand, disc_l);
        if advantage(disc_l, disc_e) <= 0.0 {
            continue;
        }
        selected.push(k);
        // Discount previously selected ancestors of the new pick and
        // de-select those that go negative.
        selected.retain(|&s| {
            if s == k {
                return true;
            }
            let sc = &rows[s];
            if sc.is_ancestor_of(c) {
                let dl = ladvs[s] - sc.lred(model) * c.cand.dc_ptcm as f64;
                let de = emodel.eadv_agg(&sc.cand, dl);
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
    selected
        .into_iter()
        .map(|k| (&rows[k].cand, ladvs[k], eadvs[k]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineParams;
    use preexec_critpath::LoadCost;
    use preexec_mem::HierarchyConfig;
    use preexec_slicer::SliceConfig;
    use preexec_trace::{FuncSim, MemAnnotation, Profile};
    use preexec_workloads::{build, InputSet};

    struct Fixture {
        program: preexec_isa::Program,
        trees: Vec<SliceTree>,
        table: CandidateTable,
        app: AppParams,
    }

    fn fixture(name: &str) -> Fixture {
        let program = build(name, InputSet::Train).unwrap();
        let trace = FuncSim::new(&program).run_trace(150_000);
        let ann = MemAnnotation::compute(&trace, HierarchyConfig::default());
        let profile = Profile::compute(&program, &trace, &ann);
        let probs = profile.problem_loads(&program, 200);
        let cfg = SliceConfig::default();
        let trees: Vec<SliceTree> = probs
            .iter()
            .map(|pl| SliceTree::build(&program, &trace, &ann, &profile, pl.pc, &cfg))
            .collect();
        let cp = preexec_critpath::CritPathModel::new(
            &trace,
            &ann,
            preexec_critpath::CritPathConfig::default(),
        );
        let costs: Vec<LoadCost> = probs.iter().map(|pl| cp.load_cost(pl.pc)).collect();
        let l0 = cp.execution_time() as f64;
        let app = AppParams {
            l0,
            e0: l0 * 0.35,
            bw_seq_mt: cp.ipc(),
        };
        let table = CandidateTable::build(
            &trees,
            &profile,
            &costs,
            MachineParams::default(),
            app.bw_seq_mt,
        );
        Fixture {
            program,
            trees,
            table,
            app,
        }
    }

    fn inputs(f: &Fixture) -> SelectorInputs<'_> {
        SelectorInputs {
            program: &f.program,
            trees: &f.trees,
            table: &f.table,
            energy: EnergyParams::default(),
            app: f.app,
        }
    }

    #[test]
    fn latency_target_selects_pthreads_for_gap() {
        let f = fixture("gap");
        let sel = select(&inputs(&f), SelectionTarget::Latency);
        assert!(!sel.pthreads.is_empty(), "gap must get L-p-threads");
        assert!(sel.predicted_ladv > 0.0);
        for p in &sel.pthreads {
            assert!(!p.body.is_empty());
            assert!(p.body.iter().all(|i| i.is_pthread_eligible()));
            assert!(p.dc_ptcm > 0);
        }
    }

    #[test]
    fn zero_idle_factor_kills_e_pthreads() {
        let f = fixture("gap");
        let mut inp = inputs(&f);
        inp.energy = EnergyParams::default().with_idle_factor(0.0);
        let sel = select(&inp, SelectionTarget::Energy);
        assert!(
            sel.pthreads.is_empty(),
            "no E-p-threads can exist at 0% idle energy"
        );
    }

    #[test]
    fn energy_target_is_more_conservative_than_latency() {
        let f = fixture("bzip2");
        let l = select(&inputs(&f), SelectionTarget::Latency);
        let e = select(&inputs(&f), SelectionTarget::Energy);
        assert!(
            e.total_body_insts() * e.pthreads.len().max(1)
                <= l.total_body_insts() * l.pthreads.len().max(1),
            "E-selection must not out-spend L-selection"
        );
        // Predicted spawn volume is also no larger.
        let spawns = |s: &Selection| s.pthreads.iter().map(|p| p.dc_trig).sum::<u64>();
        assert!(spawns(&e) <= spawns(&l));
    }

    #[test]
    fn classic_selects_at_least_as_aggressively_as_criticality() {
        let f = fixture("mcf");
        let o = select(&inputs(&f), SelectionTarget::Classic);
        let l = select(&inputs(&f), SelectionTarget::Latency);
        let insts = |s: &Selection| {
            s.pthreads
                .iter()
                .map(|p| p.body.len() as u64 * p.dc_trig)
                .sum::<u64>()
        };
        assert!(
            insts(&o) >= insts(&l),
            "classic PTHSEL over-selects on mcf: O={} L={}",
            insts(&o),
            insts(&l)
        );
    }

    #[test]
    fn ed_target_sits_between_latency_and_energy() {
        let f = fixture("twolf");
        let l = select(&inputs(&f), SelectionTarget::Latency);
        let e = select(&inputs(&f), SelectionTarget::Energy);
        let p = select(&inputs(&f), SelectionTarget::Ed);
        let insts = |s: &Selection| {
            s.pthreads
                .iter()
                .map(|pt| pt.body.len() as u64 * pt.dc_trig)
                .sum::<u64>()
        };
        assert!(insts(&p) <= insts(&l) + 1);
        assert!(insts(&p) + 1 >= insts(&e));
    }

    #[test]
    fn pthreads_sharing_a_trigger_are_prefix_incompatible() {
        // Merging unifies bodies with a shared leading instruction; two
        // p-threads may share a trigger only when their computations could
        // not be merged soundly (different leading instructions).
        let f = fixture("vpr.place");
        let sel = select(&inputs(&f), SelectionTarget::Latency);
        for a in &sel.pthreads {
            for b in &sel.pthreads {
                if std::ptr::eq(a, b) || a.trigger_pc != b.trigger_pc {
                    continue;
                }
                assert_ne!(
                    a.body.first(),
                    b.body.first(),
                    "same trigger + same leading instruction must have merged"
                );
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let f = fixture("gcc");
        let a = select(&inputs(&f), SelectionTarget::Ed);
        let b = select(&inputs(&f), SelectionTarget::Ed);
        assert_eq!(a.pthreads.len(), b.pthreads.len());
        assert_eq!(a.predicted_ladv, b.predicted_ladv);
    }

    #[test]
    fn target_labels() {
        assert_eq!(SelectionTarget::Classic.label(), "O");
        assert_eq!(SelectionTarget::Latency.to_string(), "L");
        assert_eq!(SelectionTarget::Energy.weight(), 0.0);
        assert_eq!(SelectionTarget::Ed.weight(), 0.5);
        assert!((SelectionTarget::Ed2.weight() - 0.67).abs() < 1e-12);
        assert_eq!(SelectionTarget::Weighted(0.3).weight(), 0.3);
    }
}

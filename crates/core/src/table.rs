//! The selection table: every slice-tree candidate of one prepared
//! program, with everything the selection needs from it that does not
//! depend on the request.
//!
//! PTHSEL+E retargets by changing only the energy constants (E1–E8) and
//! the composition weight `W` (C1–C4). The candidate shape (body counts,
//! `DCtrig`, `DCpt-cm`, tolerance) and the latency equations (L1–L4, and
//! the per-miss `LRED` that L7 discounts by) depend only on the profile,
//! the slice trees, the cost functions and the machine, so
//! [`CandidateTable::build`] evaluates them once per program. [`select`]
//! then adds the energy and composite terms per request and materializes
//! bodies only for the candidates it picks.
//!
//! [`select`]: crate::select

use crate::{candidates_from_tree, Candidate, LatencyModel, MachineParams, MissCostModel};
use preexec_critpath::LoadCost;
use preexec_slicer::SliceTree;
use preexec_trace::Profile;
use std::ops::Range;

/// One candidate with its request-independent latency terms.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    /// The candidate (body-free).
    pub(crate) cand: Candidate,
    /// The node's depth-first preorder number within its tree, and one
    /// past the last number in its subtree: row `a` is a strict ancestor
    /// of row `b` iff `a.pre < b.pre < a.end`.
    pre: u32,
    end: u32,
    /// `LRED(p)` per covered miss, one column per [`MissCostModel`].
    lred: [f64; 2],
    /// Equation L1's `LADVagg(p)`, one column per [`MissCostModel`].
    ladv_agg: [f64; 2],
}

impl Row {
    /// `LRED(p)` under `model`.
    pub(crate) fn lred(&self, model: MissCostModel) -> f64 {
        self.lred[column(model)]
    }

    /// Undiscounted `LADVagg(p)` under `model`.
    pub(crate) fn ladv_agg(&self, model: MissCostModel) -> f64 {
        self.ladv_agg[column(model)]
    }

    /// Is this row a strict ancestor of `other` (same tree)?
    pub(crate) fn is_ancestor_of(&self, other: &Row) -> bool {
        self.pre < other.pre && other.pre < self.end
    }
}

fn column(model: MissCostModel) -> usize {
    match model {
        MissCostModel::Flat => 0,
        MissCostModel::Criticality => 1,
    }
}

/// Every non-root node of every slice tree of one program, lowered to a
/// [`Candidate`] and scored under both miss-cost models. Built once per
/// prepared program; read by every [`select`](crate::select) on it. It
/// holds nothing that depends on the energy constants or `W`, so
/// requests that differ only in those share one table.
#[derive(Clone, Debug)]
pub struct CandidateTable {
    machine: MachineParams,
    rows: Vec<Row>,
    /// Row range of each tree, in tree order.
    trees: Vec<Range<usize>>,
}

impl CandidateTable {
    /// Lowers and scores every candidate of `trees`. `costs` holds the
    /// criticality cost function of each tree's root (a root without one
    /// falls back to the flat model); `bw_seq_mt` is the unoptimized IPC
    /// (`BWSEQmt`, equation L6).
    pub fn build(
        trees: &[SliceTree],
        profile: &Profile,
        costs: &[LoadCost],
        machine: MachineParams,
        bw_seq_mt: f64,
    ) -> CandidateTable {
        let flat = LatencyModel::new(machine, bw_seq_mt, MissCostModel::Flat, costs);
        let crit = LatencyModel::new(machine, bw_seq_mt, MissCostModel::Criticality, costs);
        // Sized exactly: the table lives as long as its core.
        let mut rows = Vec::with_capacity(trees.iter().map(|t| t.len().saturating_sub(1)).sum());
        let mut spans = Vec::with_capacity(trees.len());
        for (ti, tree) in trees.iter().enumerate() {
            let (pre, end) = preorder(tree);
            let start = rows.len();
            rows.extend(
                candidates_from_tree(tree, ti, profile, &machine, bw_seq_mt)
                    .into_iter()
                    .map(|c| Row {
                        pre: pre[c.node],
                        end: end[c.node],
                        lred: [flat.lred(&c), crit.lred(&c)],
                        ladv_agg: [flat.ladv_agg(&c), crit.ladv_agg(&c)],
                        cand: c,
                    }),
            );
            spans.push(start..rows.len());
        }
        CandidateTable {
            machine,
            rows,
            trees: spans,
        }
    }

    /// The machine the table was scored for.
    pub(crate) fn machine(&self) -> MachineParams {
        self.machine
    }

    /// Number of slice trees.
    pub(crate) fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The rows of tree `ti`, in node order.
    pub(crate) fn tree_rows(&self, ti: usize) -> &[Row] {
        &self.rows[self.trees[ti].clone()]
    }
}

/// Each node's depth-first preorder number and one past its subtree's
/// last number.
fn preorder(tree: &SliceTree) -> (Vec<u32>, Vec<u32>) {
    let mut pre = vec![0; tree.len()];
    let mut end = vec![0; tree.len()];
    let mut next = 0;
    let mut stack = vec![(0, false)];
    while let Some((id, closing)) = stack.pop() {
        if closing {
            end[id] = next;
            continue;
        }
        pre[id] = next;
        next += 1;
        stack.push((id, true));
        stack.extend(tree.node(id).children.iter().map(|&c| (c, false)));
    }
    (pre, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_mem::HierarchyConfig;
    use preexec_slicer::SliceConfig;
    use preexec_trace::{FuncSim, MemAnnotation};
    use preexec_workloads::{build, InputSet};

    #[test]
    fn preorder_intervals_match_parent_walks() {
        let p = build("vpr.route", InputSet::Train).unwrap();
        let t = FuncSim::new(&p).run_trace(150_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = Profile::compute(&p, &t, &ann);
        let probs = prof.problem_loads(&p, 100);
        let tree = SliceTree::build(&p, &t, &ann, &prof, probs[0].pc, &SliceConfig::default());
        let table = CandidateTable::build(
            std::slice::from_ref(&tree),
            &prof,
            &[],
            MachineParams::default(),
            1.0,
        );
        let rows = table.tree_rows(0);
        assert_eq!(rows.len(), tree.len() - 1);
        let walk = |a: usize, b: usize| {
            let mut cur = tree.node(b).parent;
            while let Some(n) = cur {
                if n == a {
                    return true;
                }
                cur = tree.node(n).parent;
            }
            false
        };
        for a in rows {
            for b in rows {
                assert_eq!(a.is_ancestor_of(b), walk(a.cand.node, b.cand.node));
            }
        }
    }
}

//! Slice trees: the per-problem-load candidate space PTHSEL searches.
//!
//! The root of a tree is the problem load. Each node represents one linear
//! p-thread candidate: its *trigger* is the node's static instruction and
//! its *body* is the slice path from the node down to the root. A fork in
//! the tree marks a control decision that changes the load's data slice
//! (e.g. the `rxid` vs `g_rxid` fork in the paper's Figure 1b). Nodes are
//! annotated with the trace-mined counts the PTHSEL equations consume:
//! `DCptcm` (dynamic misses whose slice passes through the node) and
//! `DCtrig` (dynamic executions of the trigger instruction).

use crate::slice::Slicer;
use crate::SliceConfig;
use preexec_isa::{Inst, Pc, Program};
use preexec_trace::{MemAnnotation, Profile, Seq, Trace};

/// Identifier of a node within one [`SliceTree`].
pub type NodeId = usize;

/// One node of a slice tree: a linear p-thread candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceNode {
    /// This node's id.
    pub id: NodeId,
    /// Parent node (toward the root); `None` for the root itself.
    pub parent: Option<NodeId>,
    /// Children (deeper triggers, further from the load).
    pub children: Vec<NodeId>,
    /// Static PC of this node's instruction (the candidate's trigger).
    pub pc: Pc,
    /// The instruction at `pc`.
    pub inst: Inst,
    /// Distance from the root in slice steps (root = 0).
    pub depth: u32,
    /// Number of dynamic L2 misses of the root whose slice passes through
    /// this node (the paper's `DCpt-cm`).
    pub dc_ptcm: u64,
    /// Dynamic executions of the trigger instruction (the paper's
    /// `DCtrig`).
    pub dc_trig: u64,
    /// Sum over covered instances of the dynamic-instruction distance from
    /// trigger to target; `lookahead()` divides by `dc_ptcm`.
    pub lookahead_sum: u64,
}

impl SliceNode {
    /// Mean dynamic-instruction distance from trigger to target over the
    /// covered misses.
    pub fn lookahead(&self) -> f64 {
        if self.dc_ptcm == 0 {
            0.0
        } else {
            self.lookahead_sum as f64 / self.dc_ptcm as f64
        }
    }
}

/// The slice tree of one static problem load.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceTree {
    /// Static PC of the problem load (the tree's root instruction).
    pub root_pc: Pc,
    nodes: Vec<SliceNode>,
}

impl SliceTree {
    /// Builds the slice tree for the problem load at `root_pc` by slicing
    /// every L2-missing dynamic instance found in `trace`.
    pub fn build(
        program: &Program,
        trace: &Trace,
        ann: &MemAnnotation,
        profile: &Profile,
        root_pc: Pc,
        cfg: &SliceConfig,
    ) -> SliceTree {
        let instances: Vec<Seq> = if trace.static_inst(root_pc).is_load() {
            trace
                .mem_seqs()
                .iter()
                .map(|&seq| Seq::from(seq))
                .filter(|&seq| trace.pcs()[seq as usize] == root_pc && ann.is_l2_miss(seq))
                .collect()
        } else {
            Vec::new()
        };
        SliceTree::build_from_instances(program, trace, profile, root_pc, &instances, cfg)
    }

    /// Builds a slice tree from an explicit set of problem instances of
    /// the instruction at `root_pc` — the generalization used by branch
    /// pre-execution (paper §7), where the instances are the branch's
    /// *mispredicted* executions rather than a load's L2 misses.
    ///
    /// # Panics
    ///
    /// Panics if any instance's PC differs from `root_pc`.
    pub fn build_from_instances(
        program: &Program,
        trace: &Trace,
        profile: &Profile,
        root_pc: Pc,
        instances: &[Seq],
        cfg: &SliceConfig,
    ) -> SliceTree {
        let root = SliceNode {
            id: 0,
            parent: None,
            children: Vec::new(),
            pc: root_pc,
            inst: *program.inst(root_pc),
            depth: 0,
            dc_ptcm: 0,
            dc_trig: profile.pc_stats(root_pc).execs,
            lookahead_sum: 0,
        };
        let mut tree = SliceTree {
            root_pc,
            nodes: vec![root],
        };
        let pcs = trace.pcs();
        let mut slicer = Slicer::default();
        let mut path = Vec::with_capacity(cfg.max_body);
        for &target in instances {
            let target = u32::try_from(target).expect("trace sequence numbers fit 32 bits");
            assert_eq!(
                pcs[target as usize], root_pc,
                "instance pc must match the root"
            );
            slicer.slice(trace, target, cfg, &mut path);
            // Walk/extend the tree along the backward path (skipping the
            // root element itself at index 0).
            let mut node = 0;
            tree.nodes[0].dc_ptcm += 1;
            for (k, &seq) in path.iter().enumerate().skip(1) {
                let pc = pcs[seq as usize];
                let next = match tree.nodes[node]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| tree.nodes[c].pc == pc)
                {
                    Some(c) => c,
                    None => {
                        if tree.nodes.len() >= cfg.max_tree_nodes {
                            break;
                        }
                        let id = tree.nodes.len();
                        tree.nodes.push(SliceNode {
                            id,
                            parent: Some(node),
                            children: Vec::new(),
                            pc,
                            inst: trace.static_inst(pc),
                            depth: k as u32,
                            dc_ptcm: 0,
                            dc_trig: profile.pc_stats(pc).execs,
                            lookahead_sum: 0,
                        });
                        tree.nodes[node].children.push(id);
                        id
                    }
                };
                tree.nodes[next].dc_ptcm += 1;
                tree.nodes[next].lookahead_sum += u64::from(target - seq);
                node = next;
            }
        }
        tree
    }

    /// Reassembles a tree from its root PC and the nodes
    /// [`SliceTree::nodes`] returns. The caller keeps the invariants
    /// [`SliceTree::build`] establishes: node `i` has id `i`, every parent
    /// id is below its child's, and children are listed in id order.
    pub fn from_parts(root_pc: Pc, nodes: Vec<SliceNode>) -> SliceTree {
        SliceTree { root_pc, nodes }
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &SliceNode {
        &self.nodes[id]
    }

    /// All nodes; index 0 is the root.
    pub fn nodes(&self) -> &[SliceNode] {
        &self.nodes
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Total L2 misses of the root load that were sliced into this tree.
    pub fn total_misses(&self) -> u64 {
        self.nodes[0].dc_ptcm
    }

    /// The body of the linear p-thread candidate anchored at `id`: the
    /// instructions from the trigger (inclusive) down to the root load, in
    /// forward (execution) order.
    pub fn body(&self, id: NodeId) -> Vec<Inst> {
        let mut rev = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            rev.push(self.nodes[c].inst);
            cur = self.nodes[c].parent;
        }
        // rev runs trigger→...→root already? No: walking parents goes
        // *toward* the root, and the root is the load executed last, so
        // `rev` is already in forward execution order.
        rev
    }

    /// Iterates nodes in depth-first order, parents before children.
    pub fn iter_preorder(&self) -> impl Iterator<Item = &SliceNode> {
        // Node ids are created parent-first, so id order is a valid
        // topological (pre)order.
        self.nodes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_mem::HierarchyConfig;
    use preexec_trace::{FuncSim, MemAnnotation, Profile};
    use preexec_workloads::{build, kernels, InputSet};

    fn tree_for(name: &str) -> (preexec_isa::Program, SliceTree) {
        let p = build(name, InputSet::Train).unwrap();
        let t = FuncSim::new(&p).run_trace(150_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = Profile::compute(&p, &t, &ann);
        let probs = prof.problem_loads(&p, 100);
        let tree = SliceTree::build(&p, &t, &ann, &prof, probs[0].pc, &SliceConfig::default());
        (p, tree)
    }

    #[test]
    fn fig1_tree_forks_on_field_selection() {
        let p = kernels::fig1::build(InputSet::Train);
        let t = FuncSim::new(&p).run_trace(100_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = Profile::compute(&p, &t, &ann);
        let root = kernels::fig1::problem_load_pc();
        let tree = SliceTree::build(&p, &t, &ann, &prof, root, &SliceConfig::default());
        assert_eq!(tree.root_pc, root);
        assert!(tree.total_misses() > 10);
        // Some node must fork: the add feeding the load has two possible
        // producers (rxid vs g_rxid loads).
        let forked = tree.nodes().iter().any(|n| n.children.len() >= 2);
        assert!(forked, "fig1's slice tree must fork");
    }

    #[test]
    fn counts_decrease_toward_deeper_triggers() {
        let (_, tree) = tree_for("twolf");
        for n in tree.nodes() {
            if let Some(pid) = n.parent {
                assert!(
                    tree.node(pid).dc_ptcm >= n.dc_ptcm,
                    "child coverage cannot exceed parent's"
                );
            }
        }
    }

    #[test]
    fn bodies_end_with_the_problem_load() {
        let (_, tree) = tree_for("gap");
        for n in tree.nodes().iter().take(20) {
            let body = tree.body(n.id);
            assert_eq!(body.len() as u32, n.depth + 1);
            assert!(body.last().unwrap().is_load());
            // All body instructions are p-thread eligible.
            assert!(body.iter().all(|i| i.is_pthread_eligible()));
        }
    }

    #[test]
    fn gap_slices_contain_no_embedded_loads() {
        // gap's address slice is pure arithmetic except for the one-shot
        // input-seed load at program start, which only the very earliest
        // instances can reach within the slicing window.
        let (p, tree) = tree_for("gap");
        let seed_pc = p
            .insts()
            .iter()
            .position(|i| i.is_load())
            .map(|pc| pc as preexec_isa::Pc)
            .unwrap();
        for n in tree.nodes() {
            if n.pc == seed_pc {
                continue;
            }
            assert!(
                !n.inst.is_load() || n.parent.is_none(),
                "non-root load in slice must be the seed, got pc {} at depth {}",
                n.pc,
                n.depth
            );
        }
        // The dominant (high-coverage) candidates embed no loads at all.
        for n in tree.nodes() {
            if n.dc_ptcm < tree.total_misses() / 2 {
                continue;
            }
            let body = tree.body(n.id);
            assert_eq!(body.iter().filter(|i| i.is_load()).count(), 1);
        }
    }

    #[test]
    fn mcf_slices_embed_the_perm_load() {
        // Build the tree for the *arcs* load (the second static load),
        // whose address flows through the perm load.
        let p = build("mcf", InputSet::Train).unwrap();
        let t = FuncSim::new(&p).run_trace(150_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = Profile::compute(&p, &t, &ann);
        let arcs_pc = p
            .insts()
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_load())
            .nth(1)
            .map(|(pc, _)| pc as preexec_isa::Pc)
            .unwrap();
        let tree = SliceTree::build(&p, &t, &ann, &prof, arcs_pc, &SliceConfig::default());
        // The deepest candidates for the arcs load include the perm load.
        let deep = tree
            .nodes()
            .iter()
            .max_by_key(|n| n.depth)
            .expect("nonempty");
        if deep.depth >= 3 {
            let body = tree.body(deep.id);
            let loads = body.iter().filter(|i| i.is_load()).count();
            assert!(loads >= 2, "mcf deep slice should embed a load: {body:?}");
        }
    }

    #[test]
    fn lookahead_grows_with_depth() {
        let (_, tree) = tree_for("bzip2");
        // Average over nodes: deeper triggers are further from the target.
        let mut shallow = Vec::new();
        let mut deep = Vec::new();
        for n in tree.nodes() {
            if n.dc_ptcm < 10 {
                continue;
            }
            if n.depth == 1 {
                shallow.push(n.lookahead());
            } else if n.depth >= 4 {
                deep.push(n.lookahead());
            }
        }
        if !shallow.is_empty() && !deep.is_empty() {
            let s = shallow.iter().sum::<f64>() / shallow.len() as f64;
            let d = deep.iter().sum::<f64>() / deep.len() as f64;
            assert!(d > s, "deep lookahead {d} should exceed shallow {s}");
        }
    }

    #[test]
    fn node_cap_bounds_tree() {
        let p = build("gcc", InputSet::Train).unwrap();
        let t = FuncSim::new(&p).run_trace(150_000);
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = Profile::compute(&p, &t, &ann);
        let probs = prof.problem_loads(&p, 100);
        let cfg = SliceConfig {
            max_tree_nodes: 8,
            ..SliceConfig::default()
        };
        let tree = SliceTree::build(&p, &t, &ann, &prof, probs[0].pc, &cfg);
        assert!(tree.len() <= 8);
    }
}

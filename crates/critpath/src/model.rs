//! The critical-path model over a concrete trace: baseline execution-time
//! estimate, Figure 2 breakdown, and the criticality-based load cost
//! functions that PTHSEL+E consumes.

use crate::graph::{longest_path, walk, Breakdown, Category, Node, NodeInput, PathResult};
use crate::{CritPathConfig, LoadCost};
use preexec_bpred::{HybridPredictor, PredictorConfig};
use preexec_isa::{InstClass, Pc};
use preexec_mem::Level;
use preexec_trace::{MemAnnotation, Seq, Trace};

// Per-instruction latency kinds. Every execute latency the model assigns
// is one of six values, so each instruction stores a one-byte kind (plus
// the misprediction bit) and the latencies live in a six-entry table.
const K_UNIT: u8 = 0; // ALU, branch, jump, store, nop/halt: 1 cycle
const K_MUL: u8 = 1; // integer multiply
const K_LOAD_L1: u8 = 2; // load served by the L1
const K_LOAD_L2: u8 = 3; // load served by the L2
const K_LOAD_MEM: u8 = 4; // load served by memory: an L2 miss
const K_LOAD_NONE: u8 = 5; // load the annotation does not cover
const KIND_MASK: u8 = 7;
const MISPREDICTED: u8 = 8;

/// The §4.1 sample fractions of the tolerable latency.
const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// The nine samples of one problem load's cost function, lane by lane:
/// the fraction of tolerable latency removed from the load's own misses,
/// and whether every other L2 miss becomes an L2 hit. Lanes 0-3 help
/// only this load (pessimistic); lanes 4-8 also resolve every other miss
/// (optimistic), from no reduction up. Every interaction model reads the
/// lanes it needs.
const LANES: [(f64, bool); 9] = [
    (0.25, false),
    (0.5, false),
    (0.75, false),
    (1.0, false),
    (0.0, true),
    (0.25, true),
    (0.5, true),
    (0.75, true),
    (1.0, true),
];

/// Problem loads evaluated per `f32` multi-lane pass (9 lanes each):
/// bounds the lane width at 72.
const LOADS_PER_PASS: usize = 8;

/// A dependence-graph critical-path model bound to one trace.
///
/// Construction replays the trace through the shared branch predictor (to
/// place misprediction edges) and classifies every instruction's execute
/// latency from the memory annotation — one byte per instruction.
/// Evaluations with hypothetically reduced load latencies then share that
/// base state.
///
/// # Examples
///
/// ```
/// use preexec_critpath::{CritPathConfig, CritPathModel};
/// use preexec_isa::{ProgramBuilder, Reg};
/// use preexec_mem::HierarchyConfig;
/// use preexec_trace::{FuncSim, MemAnnotation};
///
/// let mut b = ProgramBuilder::new("p");
/// b.li(Reg::new(1), 1).addi(Reg::new(1), Reg::new(1), 2).halt();
/// let prog = b.build();
/// let trace = FuncSim::new(&prog).run_trace(100);
/// let ann = MemAnnotation::compute(&trace, HierarchyConfig::default());
/// let model = CritPathModel::new(&trace, &ann, CritPathConfig::default());
/// assert!(model.execution_time() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct CritPathModel<'t> {
    trace: &'t Trace,
    cfg: CritPathConfig,
    /// Latency kind of each instruction, `| MISPREDICTED` for a
    /// mispredicted conditional branch.
    kinds: Vec<u8>,
    /// Execute latency of each kind.
    latency: [u64; 6],
    l2_hit_latency: u64,
    mem_miss_latency: u64,
    baseline: PathResult,
}

impl<'t> CritPathModel<'t> {
    /// Builds the model for `trace` with memory levels from `ann`.
    pub fn new(trace: &'t Trace, ann: &MemAnnotation, cfg: CritPathConfig) -> CritPathModel<'t> {
        let mut bpred = HybridPredictor::new(PredictorConfig::default());
        let hier = ann.config();
        let l2_hit_latency = hier.l1d.latency + hier.l2.latency;
        let mem_miss_latency = l2_hit_latency + hier.mem_latency;
        let kinds = trace
            .pcs()
            .iter()
            .enumerate()
            .map(|(i, &pc)| match trace.static_inst(pc).class() {
                InstClass::Branch if !bpred.update(pc, trace.taken_bit(i)) => K_UNIT | MISPREDICTED,
                InstClass::IntMul => K_MUL,
                InstClass::Load => match ann.served(i as Seq) {
                    Some(Level::L1) => K_LOAD_L1,
                    Some(Level::L2) => K_LOAD_L2,
                    Some(Level::Mem) => K_LOAD_MEM,
                    None => K_LOAD_NONE,
                },
                // Stores write at retire, off the path; the rest is 1 cycle.
                _ => K_UNIT,
            })
            .collect();
        let latency = [
            1,
            cfg.mul_latency,
            hier.l1d.latency,
            l2_hit_latency,
            mem_miss_latency,
            0,
        ];
        let mut model = CritPathModel {
            trace,
            cfg,
            kinds,
            latency,
            l2_hit_latency,
            mem_miss_latency,
            baseline: PathResult {
                cycles: 0,
                breakdown: Breakdown::default(),
            },
        };
        model.baseline = model.baseline_path();
        model
    }

    fn baseline_path(&self) -> PathResult {
        let deps = self.trace.deps();
        walk(self.kinds.len(), &self.cfg, |i| {
            let k = self.kinds[i];
            Node {
                latency: self.latency[(k & KIND_MASK) as usize],
                deps: deps[i],
                mispredicted: k & MISPREDICTED != 0,
                cat: match k & KIND_MASK {
                    K_LOAD_L2 => Category::L2,
                    K_LOAD_MEM => Category::Mem,
                    _ => Category::Exec,
                },
            }
        })
    }

    /// The baseline inputs of every instruction, as [`longest_path`]
    /// takes them.
    fn base_inputs(&self) -> Vec<NodeInput> {
        self.kinds
            .iter()
            .map(|&k| NodeInput {
                latency: self.latency[(k & KIND_MASK) as usize],
                served: match k & KIND_MASK {
                    K_LOAD_L1 => Some(Level::L1),
                    K_LOAD_L2 => Some(Level::L2),
                    K_LOAD_MEM => Some(Level::Mem),
                    _ => None,
                },
                mispredicted: k & MISPREDICTED != 0,
            })
            .collect()
    }

    /// Sequence numbers of the L2-missing loads, in trace order.
    fn mem_loads(&self) -> impl Iterator<Item = usize> + '_ {
        self.trace
            .mem_seqs()
            .iter()
            .map(|&s| s as usize)
            .filter(|&i| self.kinds[i] & KIND_MASK == K_LOAD_MEM)
    }

    /// The cycles of the nine [`LANES`] samples of each load in `loads`
    /// (sorted, distinct PCs), nine per load in `loads` order; `None` when
    /// the baseline fits no lane type exactly.
    ///
    /// Reduced latencies never exceed their baseline values, so every
    /// lane's node times (and every partial sum on the way) are bounded by
    /// the baseline critical path. Below 2^24 cycles the lanes are `f32`,
    /// [`LOADS_PER_PASS`] loads to a pass; below 2^53 they are `f64`, one
    /// load to a pass.
    fn sample_cycles(&self, loads: &[Pc]) -> Option<Vec<u64>> {
        // A fixed width lets every per-lane loop compile to straight-line
        // SIMD: nine lanes per load, rounded up to a multiple of four.
        macro_rules! f32_pass {
            ($batch:expr; $($k:literal => $w:literal),*) => {
                match $batch.len() {
                    $($k => self.lanes_pass::<f32, $w>($batch),)*
                    k => unreachable!("{k} loads exceed one pass"),
                }
            };
        }
        let cycles = self.baseline.cycles;
        if cycles < f32::EXACT {
            let passes = loads.chunks(LOADS_PER_PASS).flat_map(|batch| {
                f32_pass!(batch; 1 => 12, 2 => 20, 3 => 28, 4 => 36, 5 => 48, 6 => 56, 7 => 64, 8 => 72)
            });
            Some(passes.collect())
        } else if cycles < f64::EXACT {
            let passes = loads
                .chunks(1)
                .flat_map(|load| self.lanes_pass::<f64, 10>(load));
            Some(passes.collect())
        } else {
            None
        }
    }

    /// Batched cycles-only longest path over the [`LANES`] samples of
    /// every load in `targets` (sorted, distinct PCs) in one pass over the
    /// trace, at `L >= 9 * targets.len()` lanes: lane `9 * g + s` gives the
    /// L2 misses of `targets[g]` the reduced latency of sample `s`; every
    /// other L2-missing load keeps its baseline latency, or becomes an L2
    /// hit in the optimistic samples. Lanes past `9 * targets.len()`
    /// compute a don't-care copy.
    ///
    /// This computes exactly the `cycles` field of [`longest_path`] while
    /// node times stay below `T::EXACT` — breakdown attribution needs the
    /// predecessor chain and stays on the scalar path. Node times live in
    /// ROB-sized rings, as in the scalar walk, so the working set stays
    /// cache-resident.
    fn lanes_pass<T: Lane, const L: usize>(&self, targets: &[Pc]) -> Vec<u64> {
        let nl = 9 * targets.len();
        // Latency vectors of an L2-missing load: one per target (its own
        // lanes take the reduced latency) and one for any other load.
        let mut other = [T::default(); L];
        for (x, &(_, resolved)) in other[..nl].iter_mut().zip(LANES.iter().cycle()) {
            *x = T::of(match resolved {
                true => self.l2_hit_latency,
                false => self.mem_miss_latency,
            });
        }
        let own: Vec<[T; L]> = (0..targets.len())
            .map(|g| {
                let mut v = other;
                for (x, &(frac, _)) in v[9 * g..9 * g + 9].iter_mut().zip(&LANES) {
                    *x = T::of(self.reduced_latency(frac));
                }
                v
            })
            .collect();
        let n = self.kinds.len();
        let (pcs, deps) = (self.trace.pcs(), self.trace.deps());
        let fw = self.cfg.fetch_width as usize;
        let cw = self.cfg.commit_width as usize;
        let rob = self.cfg.rob_size.max(1) as usize;
        let fd = T::of(self.cfg.frontend_depth);
        let mp = T::of(self.cfg.mispredict_penalty);
        let (zero, one) = (T::default(), T::of(1));
        let latency = self.latency.map(T::of);
        let mask = rob.next_power_of_two() - 1;
        let mut te = vec![[zero; L]; mask + 1];
        let mut tc = vec![[zero; L]; mask + 1];
        let mut tf = [zero; L];
        let mut prev_misp = false;
        // `i % fetch_width` and `i % commit_width`, without dividing.
        let (mut kf, mut kc) = (0usize, 0usize);
        for i in 0..n {
            // --- F node (in place over the previous one) ---
            if i > 0 {
                let w = if kf == 0 { one } else { zero };
                for f in &mut tf {
                    *f += w;
                }
                if prev_misp {
                    let te_prev = &te[(i - 1) & mask];
                    for l in 0..L {
                        tf[l] = max(tf[l], te_prev[l] + mp);
                    }
                }
            }
            if i >= rob {
                let old = &tc[(i - rob) & mask];
                for l in 0..L {
                    tf[l] = max(tf[l], old[l] + one);
                }
            }
            // --- E node: max(fetch + front end, producers) + latency ---
            let mut t = [zero; L];
            for l in 0..L {
                t[l] = tf[l] + fd;
            }
            for &d in &deps[i] {
                // Only producers less than `rob` back can bind (see
                // `walk`); NO_DEP wraps to a huge distance.
                let d = d as usize;
                if i.wrapping_sub(d) >= rob {
                    continue;
                }
                let td = &te[d & mask];
                for l in 0..L {
                    t[l] = max(t[l], td[l]);
                }
            }
            let k = self.kinds[i];
            if k & KIND_MASK == K_LOAD_MEM {
                let lat = match targets.binary_search(&pcs[i]) {
                    Ok(g) => &own[g],
                    Err(_) => &other,
                };
                for l in 0..L {
                    t[l] += lat[l];
                }
            } else {
                let lat = latency[(k & KIND_MASK) as usize];
                for x in &mut t {
                    *x += lat;
                }
            }
            te[i & mask] = t;
            // --- C node ---
            if i > 0 {
                let w = if kc == 0 { one } else { zero };
                let prev = &tc[(i - 1) & mask];
                for l in 0..L {
                    t[l] = max(t[l], prev[l] + w);
                }
            }
            tc[i & mask] = t;
            prev_misp = k & MISPREDICTED != 0;
            kf = if kf + 1 == fw { 0 } else { kf + 1 };
            kc = if kc + 1 == cw { 0 } else { kc + 1 };
        }
        let last = if n == 0 {
            [zero; L]
        } else {
            tc[(n - 1) & mask]
        };
        last[..nl].iter().map(|&c| c.get()).collect()
    }

    /// The reduced latency the paper's sampling assigns the target load at
    /// `fraction` of its tolerable (prefetchable) portion.
    fn reduced_latency(&self, fraction: f64) -> u64 {
        let tol = (self.mem_miss_latency - self.l2_hit_latency) as f64;
        (self.mem_miss_latency as f64 - fraction * tol).round() as u64
    }

    /// The model's predicted unoptimized execution time in cycles.
    pub fn execution_time(&self) -> u64 {
        self.baseline.cycles
    }

    /// The model's predicted unoptimized IPC (the paper's `BWSEQmt`).
    pub fn ipc(&self) -> f64 {
        if self.baseline.cycles == 0 {
            0.0
        } else {
            self.trace.len() as f64 / self.baseline.cycles as f64
        }
    }

    /// The Figure 2 execution-time breakdown of the baseline.
    pub fn breakdown(&self) -> Breakdown {
        self.baseline.breakdown
    }

    /// Full miss latency minus L2-hit latency: the cycles of one miss a
    /// perfect prefetch can remove (the paper's `Lcm` tolerable portion).
    pub fn tolerable_cycles(&self) -> u64 {
        self.mem_miss_latency - self.l2_hit_latency
    }

    /// Evaluates a hypothetical execution where the L2 misses of the static
    /// load at `pc` are reduced by `fraction` of their tolerable latency,
    /// and, when `others_resolved`, every other L2 miss is fully resolved
    /// to an L2 hit (the optimistic interaction-cost variant).
    pub fn time_with_reduction(&self, pc: Pc, fraction: f64, others_resolved: bool) -> u64 {
        let mut inputs = self.base_inputs();
        let pcs = self.trace.pcs();
        for i in self.mem_loads() {
            if pcs[i] == pc {
                let tol = (self.mem_miss_latency - self.l2_hit_latency) as f64;
                let reduced = self.mem_miss_latency as f64 - fraction * tol;
                inputs[i].latency = reduced.round() as u64;
            } else if others_resolved {
                inputs[i].latency = self.l2_hit_latency;
                inputs[i].served = Some(Level::L2);
            }
        }
        longest_path(self.trace, &inputs, &self.cfg).cycles
    }

    /// Computes the criticality-based load cost function for the problem
    /// load at `pc`, averaging the pessimistic (only this load is helped)
    /// and optimistic (all contemporaneous misses resolved) critical-path
    /// estimates, exactly as §4.1 of the paper prescribes. The function is
    /// sampled at 25/50/75/100% latency reduction and linearly
    /// interpolated between samples.
    pub fn load_cost(&self, pc: Pc) -> LoadCost {
        self.load_cost_with(pc, InteractionModel::Averaged)
    }

    /// Like [`CritPathModel::load_cost`] but with an explicit
    /// interaction-cost treatment — the §4.1 ablation knob. The paper
    /// argues pure pessimism under-selects (overlapped misses all look
    /// non-critical) and pure optimism over-selects (like classic PTHSEL);
    /// averaging the two is its chosen compromise.
    pub fn load_cost_with(&self, pc: Pc, interaction: InteractionModel) -> LoadCost {
        let mut costs = self.load_costs_with(&[pc], interaction);
        costs.pop().expect("one cost per pc")
    }

    /// [`CritPathModel::load_cost`] for several loads at once, in `pcs`
    /// order. Every sample of every load comes from one multi-lane pass
    /// over the trace per [`LOADS_PER_PASS`] loads (per load when the
    /// baseline reaches 2^24 cycles), instead of a pass per sample.
    pub fn load_costs(&self, pcs: &[Pc]) -> Vec<LoadCost> {
        self.load_costs_with(pcs, InteractionModel::Averaged)
    }

    /// [`CritPathModel::load_costs`] with an explicit interaction-cost
    /// treatment.
    pub fn load_costs_with(&self, pcs: &[Pc], interaction: InteractionModel) -> Vec<LoadCost> {
        let tol_max = self.tolerable_cycles() as f64;
        let mut targets: Vec<Pc> = pcs.to_vec();
        targets.sort_unstable();
        targets.dedup();
        let mut misses = vec![0u64; targets.len()];
        let trace_pcs = self.trace.pcs();
        for i in self.mem_loads() {
            if let Ok(g) = targets.binary_search(&trace_pcs[i]) {
                misses[g] += 1;
            }
        }
        let missing = |pc: &Pc| targets.binary_search(pc).map_or(0, |g| misses[g]);
        let live: Vec<Pc> = targets
            .iter()
            .copied()
            .filter(|pc| missing(pc) > 0)
            .collect();
        let sampled = self.sample_cycles(&live);

        pcs.iter()
            .map(|&pc| {
                let misses = missing(&pc);
                if misses == 0 {
                    return LoadCost::flat(pc, 0, tol_max);
                }
                let Some(cycles) = &sampled else {
                    return self.load_cost_scalar(pc, interaction, misses);
                };
                let g = live.binary_search(&pc).expect("a missing load is live");
                let c = &cycles[9 * g..9 * g + 9];
                let pess = c[..4].try_into().expect("four pessimistic lanes");
                let opt = c[4..].try_into().expect("five optimistic lanes");
                self.cost_from_samples(pc, interaction, misses, pess, opt)
            })
            .collect()
    }

    /// Assembles a cost function from the sampled execution times:
    /// `pess[k]` and `opt[k + 1]` at `FRACTIONS[k]`, and `opt[0]` the
    /// optimistic time at no reduction. Samples the interaction model
    /// does not use are ignored.
    fn cost_from_samples(
        &self,
        pc: Pc,
        interaction: InteractionModel,
        misses: u64,
        pess: [u64; 4],
        opt: [u64; 5],
    ) -> LoadCost {
        let tol_max = self.tolerable_cycles() as f64;
        let t_pess_base = self.baseline.cycles as f64;
        let t_opt_base = opt[0] as f64;
        let mut points = Vec::with_capacity(5);
        points.push((0.0, 0.0));
        for (k, &frac) in FRACTIONS.iter().enumerate() {
            let d_pess = || t_pess_base - pess[k] as f64;
            let d_opt = || t_opt_base - opt[k + 1] as f64;
            let per_miss = match interaction {
                InteractionModel::Pessimistic => d_pess(),
                InteractionModel::Optimistic => d_opt(),
                InteractionModel::Averaged => 0.5 * (d_pess() + d_opt()),
            } / misses as f64;
            points.push((frac * tol_max, per_miss.max(0.0)));
        }
        LoadCost::from_points(pc, misses, tol_max, points)
    }

    /// The scalar reference sampling: one full longest-path evaluation
    /// per sample. The fallback for (pathological) traces whose critical
    /// path fits no lane type, and the oracle the lanes are tested
    /// against.
    fn load_cost_scalar(&self, pc: Pc, interaction: InteractionModel, misses: u64) -> LoadCost {
        let pessimistic = !matches!(interaction, InteractionModel::Optimistic);
        let optimistic = !matches!(interaction, InteractionModel::Pessimistic);
        let (mut pess, mut opt) = ([0u64; 4], [0u64; 5]);
        if optimistic {
            opt[0] = self.time_with_reduction(pc, 0.0, true);
        }
        for (k, &frac) in FRACTIONS.iter().enumerate() {
            if pessimistic {
                pess[k] = self.time_with_reduction(pc, frac, false);
            }
            if optimistic {
                opt[k + 1] = self.time_with_reduction(pc, frac, true);
            }
        }
        self.cost_from_samples(pc, interaction, misses, pess, opt)
    }
}

/// The element type of the multi-lane pass. Floats hold every integer
/// below `EXACT` exactly and add and compare such integers exactly;
/// unlike 32-bit integer max, float max is a single instruction
/// (`maxps`/`maxpd`) on baseline x86-64.
trait Lane: Copy + Default + PartialOrd + std::ops::Add<Output = Self> + std::ops::AddAssign {
    /// Node times below this bound are exact.
    const EXACT: u64;
    fn of(v: u64) -> Self;
    fn get(self) -> u64;
}

impl Lane for f32 {
    const EXACT: u64 = 1 << f32::MANTISSA_DIGITS;
    fn of(v: u64) -> f32 {
        v as f32
    }
    fn get(self) -> u64 {
        self as u64
    }
}

impl Lane for f64 {
    const EXACT: u64 = 1 << f64::MANTISSA_DIGITS;
    fn of(v: u64) -> f64 {
        v as f64
    }
    fn get(self) -> u64 {
        self as u64
    }
}

/// The larger of two lane values. Lane values are never NaN, so a plain
/// compare-and-select suffices; it compiles to one `maxps`/`maxpd` lane,
/// where `f32::max` adds NaN handling.
#[inline(always)]
fn max<T: Lane>(a: T, b: T) -> T {
    if a > b {
        a
    } else {
        b
    }
}

/// How contemporaneous-miss interaction costs are approximated when
/// sampling a load's cost function (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InteractionModel {
    /// Only the targeted load's misses are reduced; overlapped misses make
    /// every individual load look non-critical.
    Pessimistic,
    /// All other L2 misses are assumed resolved, like classic PTHSEL but
    /// with secondary-path awareness.
    Optimistic,
    /// The paper's choice: the mean of the two estimates.
    #[default]
    Averaged,
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_mem::HierarchyConfig;
    use preexec_trace::FuncSim;
    use preexec_workloads::{build, InputSet};

    fn model_for(name: &str) -> (preexec_isa::Program, Trace) {
        let p = build(name, InputSet::Train).unwrap();
        let t = FuncSim::new(&p).run_trace(150_000);
        (p, t)
    }

    #[test]
    fn mcf_is_memory_dominated() {
        let (_, t) = model_for("mcf");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let b = m.breakdown();
        let mem_frac = b.mem / b.total();
        assert!(
            mem_frac > 0.6,
            "mcf memory fraction {mem_frac} should dominate"
        );
    }

    #[test]
    fn gcc_is_less_memory_bound_than_mcf() {
        let (_, tg) = model_for("gcc");
        let anng = MemAnnotation::compute(&tg, HierarchyConfig::default());
        let mg = CritPathModel::new(&tg, &anng, CritPathConfig::default());
        let (_, tm) = model_for("mcf");
        let annm = MemAnnotation::compute(&tm, HierarchyConfig::default());
        let mm = CritPathModel::new(&tm, &annm, CritPathConfig::default());
        let fg = mg.breakdown().mem / mg.breakdown().total();
        let fm = mm.breakdown().mem / mm.breakdown().total();
        assert!(fg < fm, "gcc {fg} should be below mcf {fm}");
    }

    #[test]
    fn cost_function_is_monotone_and_bounded() {
        let (p, t) = model_for("gap");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let target = prof.problem_loads(&p, 100)[0].pc;
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let cost = m.load_cost(target);
        let tol = m.tolerable_cycles() as f64;
        let mut last = 0.0;
        for k in 0..=8 {
            let x = tol * k as f64 / 8.0;
            let g = cost.gain(x);
            assert!(g + 1e-9 >= last, "gain must be nondecreasing");
            assert!(
                g <= x + 1e-9,
                "per-miss gain {g} cannot exceed tolerated {x}"
            );
            last = g;
        }
    }

    #[test]
    fn overlapped_misses_have_sublinear_cost() {
        // mcf's misses overlap heavily: the per-miss gain at full
        // tolerance must be well below the tolerable latency.
        let (p, t) = model_for("mcf");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let target = prof.problem_loads(&p, 100)[0].pc;
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let cost = m.load_cost(target);
        let tol = m.tolerable_cycles() as f64;
        assert!(
            cost.gain(tol) < 0.8 * tol,
            "mcf per-miss gain {} should be sublinear vs {}",
            cost.gain(tol),
            tol
        );
    }

    #[test]
    fn ipc_is_sane() {
        let (_, t) = model_for("gcc");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let ipc = m.ipc();
        assert!(ipc > 0.05 && ipc < 6.0, "ipc {ipc}");
    }

    /// The multi-lane cycles-only evaluator must reproduce the scalar
    /// longest-path sampling bit-for-bit: same cycles per sample, hence
    /// identical cost-function points, for every interaction model —
    /// whether the loads are evaluated one per pass or fused into one.
    #[test]
    fn batched_sampling_matches_scalar_reference() {
        for name in ["gap", "mcf", "gcc"] {
            let (p, t) = model_for(name);
            let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
            let prof = preexec_trace::Profile::compute(&p, &t, &ann);
            let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
            assert!(
                m.execution_time() < <f32 as Lane>::EXACT,
                "{name} baseline must fit the f32 lanes"
            );
            let pcs: Vec<Pc> = prof
                .problem_loads(&p, 100)
                .iter()
                .take(4)
                .map(|pl| pl.pc)
                .collect();
            for im in [
                InteractionModel::Pessimistic,
                InteractionModel::Optimistic,
                InteractionModel::Averaged,
            ] {
                let fused = m.load_costs_with(&pcs, im);
                for (pc, fast) in pcs.iter().zip(&fused) {
                    let slow = m.load_cost_scalar(*pc, im, fast.misses());
                    assert_eq!(fast, &slow, "{name} pc {pc} {im:?}");
                    assert_eq!(fast, &m.load_cost_with(*pc, im), "{name} pc {pc} {im:?}");
                }
            }
        }
    }

    /// Both lane types reproduce the scalar evaluator's raw cycle counts,
    /// lane by lane, including the frac-0 optimistic base sample.
    #[test]
    fn lane_cycles_equal_longest_path_cycles() {
        let (p, t) = model_for("gcc");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let mut pcs: Vec<Pc> = prof.problem_loads(&p, 100)[..2]
            .iter()
            .map(|pl| pl.pc)
            .collect();
        pcs.sort_unstable();
        let scalar: Vec<u64> = pcs
            .iter()
            .flat_map(|&pc| LANES.map(|(frac, others)| m.time_with_reduction(pc, frac, others)))
            .collect();
        assert_eq!(m.lanes_pass::<f32, 20>(&pcs), scalar);
        assert_eq!(m.lanes_pass::<f64, 20>(&pcs), scalar);
    }

    /// The compact baseline walk agrees with the public evaluator fed the
    /// same per-instruction inputs.
    #[test]
    fn baseline_equals_longest_path_over_base_inputs() {
        let (_, t) = model_for("twolf");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let r = longest_path(&t, &m.base_inputs(), &m.cfg);
        assert_eq!(r.cycles, m.execution_time());
        assert_eq!(r.breakdown, m.breakdown());
    }

    /// Duplicate and miss-free PCs in one request are answered in request
    /// order without disturbing the others.
    #[test]
    fn load_costs_keep_request_order() {
        let (p, t) = model_for("gcc");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let probs = prof.problem_loads(&p, 100);
        let (a, b) = (probs[0].pc, probs[1].pc);
        let costs = m.load_costs(&[b, 99_999, a, b]);
        assert_eq!(costs[0], m.load_cost(b));
        assert_eq!(costs[1].misses(), 0);
        assert_eq!(costs[2], m.load_cost(a));
        assert_eq!(costs[3], costs[0]);
    }

    #[test]
    fn unknown_load_yields_flat_zero_cost() {
        let (_, t) = model_for("gap");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let cost = m.load_cost(99999);
        assert_eq!(cost.misses(), 0);
        assert_eq!(cost.gain(100.0), 0.0);
    }
}

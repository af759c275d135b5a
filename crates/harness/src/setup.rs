//! End-to-end experiment preparation: trace → profile → slice trees →
//! critical-path cost functions → baseline simulation, per benchmark.
//!
//! Preparation is layered so the engine can memoize it: a
//! [`PreparedBase`] holds the artifacts independent of *both* the energy
//! constants and the slicing knobs (trace-derived profile, cost
//! functions, baseline timing run); a [`PreparedCore`] shares one base
//! behind an `Arc` and adds the slice trees and their selection table,
//! and is cached under [`PreparedCore::structural_key`]; [`Prepared`]
//! wraps an `Arc<PreparedCore>` with the full config and the (cheap,
//! energy-dependent) application parameters. Sweeps that only perturb
//! energy constants or selection weights therefore reuse the expensive
//! artifacts.
//!
//! Three stage outputs — the profile, the critical-path output and the
//! slice trees — are asked for as a [`StageOutput`], keyed by exactly
//! that stage's inputs, so the engine can serve them from its memo and
//! persistent store. The profiling trace they are computed from is a
//! [`ProfilingRun`], replayed only when one of them is computed.

use crate::metrics::{Metrics, Stage};
use preexec_critpath::{Breakdown, CritPathConfig, CritPathModel, LoadCost};
use preexec_energy::EnergyConfig;
use preexec_isa::Program;
use preexec_json::{impl_json_object, FromJson, Json, ToJson};
use preexec_sim::{IntervalSnapshot, SimConfig, SimReport, Simulator};
use preexec_slicer::{SliceConfig, SliceNode, SliceTree};
use preexec_trace::{FuncSim, MemAnnotation, PcStats, Profile, Trace};
use preexec_workloads::InputSet;
use pthsel::{
    select, AppParams, CandidateTable, EnergyParams, MachineParams, PThread, Selection,
    SelectionTarget, SelectorInputs,
};
use std::cell::OnceCell;
use std::sync::Arc;

/// Version of the analysis/simulation model, folded into every memo and
/// persistent-store key. Bump it whenever a change alters what any
/// cached artifact *means* (simulator timing, selection math, energy
/// accounting, profile mining): in-memory memos die with the process,
/// but the persistent store outlives it, and a stale entry read under a
/// changed model would silently poison every downstream result.
pub const MODEL_VERSION: u32 = 1;

/// Prefixes `raw` with an explicit model-version tag. All cache keys are
/// built through this, so bumping [`MODEL_VERSION`] atomically
/// invalidates every previously persisted entry (old entries just stop
/// being addressed; the store's capacity bound reclaims them).
pub fn versioned(version: u32, raw: &str) -> String {
    format!("mv{version}|{raw}")
}

/// Resolves a benchmark name to its program. Generator scenarios
/// (`gen:` prefix, see `preexec-gen`) carry their whole identity — knob
/// point and data-layout seed — in the name, so the input set does not
/// apply to them; every other name is a hand-written workload kernel
/// parameterized by `input`.
pub fn build_program(name: &str, input: InputSet) -> Option<Program> {
    if preexec_gen::is_gen_name(name) {
        preexec_gen::build_named(name)
    } else {
        preexec_workloads::build(name, input)
    }
}

/// Checks that a benchmark name resolves: a shipped workload kernel or a
/// canonical in-range generated scenario (`gen:…`). The error names the
/// accepted kernels.
pub fn check_bench(name: &str) -> Result<(), String> {
    if preexec_workloads::NAMES.contains(&name) || preexec_gen::valid_name(name) {
        Ok(())
    } else {
        Err(format!(
            "unknown benchmark {name:?} (expected one of {:?} or a gen: scenario)",
            preexec_workloads::NAMES
        ))
    }
}

/// Content fingerprint of a program binary: instructions plus sorted data
/// image, hashed. Persistent-store keys for simulator runs are derived
/// from this rather than from the program *name*, so distinct scenario
/// names that emit identical binaries (the generator's degenerate knob
/// corners, e.g. any `miss_clustering` at `miss_rate` 0) share one stored
/// run per machine configuration.
pub fn program_fingerprint(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for inst in program.insts() {
        let _ = writeln!(text, "{inst}");
    }
    let mut words: Vec<(u64, u64)> = program.image().iter().collect();
    words.sort_unstable();
    for (addr, value) in words {
        let _ = writeln!(text, "{addr} {value}");
    }
    preexec_campaign::content_hash(&text)
}

/// One metered timing run of `program` on `sim` with `pthreads`
/// installed. Its wall-clock and call go to [`Stage::BaselineSim`] for the
/// empty set and to [`Stage::OptSim`] otherwise, so those two stages'
/// calls count every timing run. The interval log is recorded at
/// `log_stride` cycles (`0` turns it off, and the log comes back empty);
/// it leaves the report byte-identical.
pub(crate) fn timed_run(
    m: &Metrics,
    program: &Program,
    sim: &SimConfig,
    pthreads: &[PThread],
    log_stride: u64,
) -> (SimReport, Vec<IntervalSnapshot>) {
    let stage = if pthreads.is_empty() {
        Stage::BaselineSim
    } else {
        Stage::OptSim
    };
    let (report, intervals) = m.time(stage, || {
        let mut run = Simulator::new(program, *sim).with_pthreads(pthreads);
        if log_stride != 0 {
            run = run.with_interval_log(log_stride);
        }
        let report = run.run();
        (report, run.intervals().to_vec())
    });
    m.add_sim_cycles(report.cycles);
    (report, intervals)
}

/// Experiment-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Simulated machine.
    pub sim: SimConfig,
    /// Energy accounting constants (simulator side).
    pub energy: EnergyConfig,
    /// Input used to *profile* (mine slices/statistics). The primary study
    /// uses [`InputSet::Train`] — ideal profiling; Figure 4 uses
    /// [`InputSet::Ref`].
    pub profile_input: InputSet,
    /// Input the optimized binary actually *runs* on.
    pub run_input: InputSet,
    /// Dynamic-instruction cap on the profiling trace.
    pub trace_cap: u64,
    /// Slicing configuration.
    pub slice: SliceConfig,
    /// Problem loads must account for at least this fraction of total L2
    /// misses.
    pub problem_frac: f64,
    /// Cap on problem loads per benchmark.
    pub max_problem_loads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            sim: SimConfig::default(),
            energy: EnergyConfig::default(),
            profile_input: InputSet::Train,
            run_input: InputSet::Train,
            trace_cap: 600_000,
            slice: SliceConfig::default(),
            problem_frac: 0.02,
            max_problem_loads: 6,
        }
    }
}

impl ExpConfig {
    /// Model-side machine parameters consistent with the simulated one.
    pub fn machine_params(&self) -> MachineParams {
        MachineParams {
            bw_seq_proc: self.sim.fetch_width as f64,
            mem_latency: self.sim.hierarchy.mem_latency as f64,
            l1_latency: self.sim.hierarchy.l1d.latency as f64,
            l2_latency: self.sim.hierarchy.l2.latency as f64,
        }
    }

    /// Model-side energy parameters consistent with the accounting ones.
    pub fn energy_params(&self) -> EnergyParams {
        EnergyParams {
            e_fetch_per_access: self.energy.e_icache,
            e_xall_per_access: self.energy.e_xall,
            e_xalu_per_access: self.energy.e_alu,
            e_xload_per_access: self.energy.e_dcache,
            e_l2_per_access: self.energy.e_l2,
            e_idle_per_cycle: self.energy.idle_factor,
            // Busy power for branch pre-execution (§7): the measured
            // average active per-cycle energy of these workloads.
            e_total_per_cycle: 0.35,
        }
    }

    /// Critical-path model parameters consistent with the simulator.
    pub fn critpath_config(&self) -> CritPathConfig {
        CritPathConfig {
            fetch_width: self.sim.fetch_width,
            commit_width: self.sim.commit_width,
            rob_size: self.sim.rob_size as u32,
            frontend_depth: self.sim.decode_delay + 2,
            mispredict_penalty: self.sim.decode_delay + 3,
            mul_latency: self.sim.mul_latency,
        }
    }
}

/// The critical-path stage's output for one profiling binary: the cost
/// functions of its problem loads, the Fig. 2 breakdown of the
/// unoptimized run, and the model's IPC estimate. It depends only on the
/// inputs [`PreparedBase::critpath_key`] names, so the engine keeps it in
/// its memo and the persistent store; the written form decodes bit for
/// bit.
#[derive(Clone, Debug, PartialEq)]
pub struct CritPathOutput {
    /// Criticality-based cost functions of the problem loads, in
    /// selection order.
    pub costs: Vec<LoadCost>,
    /// Critical-path breakdown of the unoptimized profiling run.
    pub breakdown: Breakdown,
    /// Critical-path IPC estimate.
    pub ipc: f64,
}

impl_json_object!(CritPathOutput {
    costs,
    breakdown,
    ipc,
} decode);

/// One stage's output as preparation asks for it: the memo and
/// persistent-store key, which names exactly the stage's inputs; the
/// strict decoder and the encoder of its stored form; and the thunk that
/// computes it. The engine serves it from its memo, then its store, and
/// calls `compute` only on a miss; [`Prepared::build`] always computes.
/// Every stored form round-trips exactly, so either way the output is
/// bit-identical.
pub struct StageOutput<'a, T> {
    /// Memo and store key.
    pub key: String,
    /// Decodes a stored entry, rejecting one that does not fit the
    /// binary it claims to describe.
    pub decode: &'a dyn Fn(&Json) -> Result<T, String>,
    /// The stored form.
    pub encode: fn(&T) -> Json,
    /// Computes the output, metered as its stage.
    pub compute: &'a dyn Fn() -> T,
}

/// The stored form of a [`Profile`]: each PC's `[execs, taken,
/// l1_misses, l2_misses]` and the two totals.
struct ProfileEntry {
    per_pc: Vec<Vec<u64>>,
    total_insts: u64,
    total_l2_misses: u64,
}

impl_json_object!(ProfileEntry {
    per_pc,
    total_insts,
    total_l2_misses,
} decode);

fn profile_to_json(profile: &Profile) -> Json {
    ProfileEntry {
        per_pc: profile
            .per_pc()
            .iter()
            .map(|s| vec![s.execs, s.taken, s.l1_misses, s.l2_misses])
            .collect(),
        total_insts: profile.total_insts(),
        total_l2_misses: profile.total_l2_misses(),
    }
    .to_json()
}

/// Decodes a stored profile of `program`, which must have one entry per
/// instruction.
pub fn profile_from_json(j: &Json, program: &Program) -> Result<Profile, String> {
    let entry = ProfileEntry::from_json(j)?;
    if entry.per_pc.len() != program.len() {
        return Err(format!(
            "Profile: {} PCs for a {}-instruction program",
            entry.per_pc.len(),
            program.len()
        ));
    }
    let per_pc = entry
        .per_pc
        .iter()
        .map(|s| match s[..] {
            [execs, taken, l1_misses, l2_misses] => Ok(PcStats {
                execs,
                taken,
                l1_misses,
                l2_misses,
            }),
            _ => Err(format!("Profile: a PC has {} counts, not 4", s.len())),
        })
        .collect::<Result<_, _>>()?;
    Ok(Profile::from_parts(
        per_pc,
        entry.total_insts,
        entry.total_l2_misses,
    ))
}

/// The stored form of slice trees: per tree, its nodes in id order, each
/// as `[parent, pc, dc_ptcm, lookahead_sum]` with a `null` parent for
/// the root. The other fields follow from these and the binary.
fn trees_to_json(trees: &[SliceTree]) -> Json {
    let node = |n: &SliceNode| {
        Json::Array(vec![
            n.parent.to_json(),
            n.pc.to_json(),
            n.dc_ptcm.to_json(),
            n.lookahead_sum.to_json(),
        ])
    };
    Json::Array(
        trees
            .iter()
            .map(|t| Json::Array(t.nodes().iter().map(node).collect()))
            .collect(),
    )
}

/// Decodes the stored slice trees of `problem_pcs` in `program`, whose
/// profile is `profile`, rebuilding each node's instruction, `dc_trig`,
/// depth and children. Rejects an entry with a tree per problem load
/// missing, a root at another PC, a parent that is not an earlier node,
/// or a PC outside the program.
pub fn trees_from_json(
    j: &Json,
    program: &Program,
    profile: &Profile,
    problem_pcs: &[u32],
) -> Result<Vec<SliceTree>, String> {
    let rows = Vec::<Vec<Vec<Option<u64>>>>::decode(j)
        .map_err(|e| e.unwrap_or_else(|| "slice trees: expected arrays of nodes".into()))?;
    if rows.len() != problem_pcs.len() {
        return Err(format!(
            "slice trees: {} trees for {} problem loads",
            rows.len(),
            problem_pcs.len()
        ));
    }
    rows.iter()
        .zip(problem_pcs)
        .map(|(tree, &root_pc)| {
            let mut nodes: Vec<SliceNode> = Vec::with_capacity(tree.len());
            for (id, row) in tree.iter().enumerate() {
                let &[parent, Some(pc), Some(dc_ptcm), Some(lookahead_sum)] = &row[..] else {
                    return Err(format!(
                        "slice node {id}: expected [parent, pc, dc_ptcm, lookahead_sum]"
                    ));
                };
                let parent = match parent {
                    None if id == 0 => None,
                    Some(p) if id > 0 && p < id as u64 => Some(p as usize),
                    _ => {
                        return Err(format!(
                            "slice node {id}: parent {parent:?} is not an earlier node"
                        ))
                    }
                };
                let pc = u32::try_from(pc)
                    .ok()
                    .filter(|&pc| (pc as usize) < program.len())
                    .ok_or_else(|| format!("slice node {id}: pc {pc} is outside the program"))?;
                if id == 0 && pc != root_pc {
                    return Err(format!("slice tree of pc {root_pc}: root at pc {pc}"));
                }
                let depth = parent.map_or(0, |p| nodes[p].depth + 1);
                if let Some(p) = parent {
                    nodes[p].children.push(id);
                }
                nodes.push(SliceNode {
                    id,
                    parent,
                    children: Vec::new(),
                    pc,
                    inst: *program.inst(pc),
                    depth,
                    dc_ptcm,
                    dc_trig: profile.pc_stats(pc).execs,
                    lookahead_sum,
                });
            }
            if nodes.is_empty() {
                return Err(format!("slice tree of pc {root_pc}: no root"));
            }
            Ok(SliceTree::from_parts(root_pc, nodes))
        })
        .collect()
}

/// The profiling run of one binary: its functional trace and memory
/// annotation, computed on first demand and then kept. Profiling, the
/// critical-path model and slicing all read it, so one cold preparation
/// runs the 600k-event functional simulation at most once, and one whose
/// three outputs are all served runs it not at all.
#[derive(Default)]
pub struct ProfilingRun(OnceCell<(Trace, MemAnnotation)>);

impl ProfilingRun {
    /// The trace of `program`'s first `cfg.trace_cap` instructions and
    /// its annotation under `cfg`'s cache hierarchy, metered as
    /// [`Stage::Trace`] and [`Stage::Profile`] when first computed.
    fn get(&self, program: &Program, cfg: &ExpConfig, m: &Metrics) -> &(Trace, MemAnnotation) {
        self.0.get_or_init(|| {
            let trace = m.time(Stage::Trace, || {
                FuncSim::new(program).run_trace(cfg.trace_cap)
            });
            m.add_trace_insts(trace.len() as u64);
            let ann = m.time(Stage::Profile, || {
                MemAnnotation::compute(&trace, cfg.sim.hierarchy)
            });
            (trace, ann)
        })
    }
}

/// The artifacts of one benchmark's preparation that are independent of
/// *both* the energy constants and the slicing knobs: profiling trace
/// statistics, critical-path cost functions, and the baseline timing run.
/// The engine caches it under [`PreparedBase::base_key`], so slice-knob
/// sweeps (which rebuild trees) still share the expensive critical-path
/// and baseline work.
#[derive(Clone, Debug)]
pub struct PreparedBase {
    /// Benchmark name.
    pub name: String,
    /// The binary that was profiled (built for the profile input).
    profile_prog: Program,
    /// Content fingerprint of `profile_prog`.
    profile_fingerprint: String,
    /// The binary that runs (built for the run input).
    pub program: Program,
    /// Per-PC profile mined from the profiling run, shared with the
    /// engine's memo.
    pub profile: Arc<Profile>,
    /// PCs of the problem loads, in selection order.
    problem_pcs: Vec<u32>,
    /// Criticality-based cost functions of the problem loads.
    pub costs: Vec<LoadCost>,
    /// Critical-path breakdown of the unoptimized profiling run.
    pub cp_breakdown: Breakdown,
    /// Unoptimized timing-simulator baseline (on the run input).
    pub baseline: SimReport,
    /// Content fingerprint of `program` ([`program_fingerprint`]).
    pub fingerprint: String,
    /// Critical-path IPC estimate (fallback for unfinished baselines).
    pub cp_ipc: f64,
}

impl PreparedBase {
    /// Builds the slice-independent pipeline for `name` under `cfg`,
    /// handing back the profiling run too: a cold `Engine::prepared`
    /// threads it straight into [`PreparedCore::from_base`], so the
    /// functional trace runs at most once per preparation.
    ///
    /// `profile` and `critpath` supply those stages' outputs as
    /// [`StageOutput`]s keyed by [`PreparedBase::profile_key`] and
    /// [`PreparedBase::critpath_key`]; `baseline` supplies the baseline
    /// timing run, given the run binary and its [`program_fingerprint`].
    /// The engine serves each from its memo, then its persistent store,
    /// and computes only on a miss; [`Prepared::build`] always computes.
    /// Every stage is deterministic in the inputs its key names, so
    /// either way the artifacts are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known workload.
    pub fn build(
        name: &str,
        cfg: &ExpConfig,
        m: &Metrics,
        profile: impl FnOnce(StageOutput<Profile>) -> Arc<Profile>,
        critpath: impl FnOnce(StageOutput<CritPathOutput>) -> Arc<CritPathOutput>,
        baseline: impl FnOnce(&Program, &str) -> SimReport,
    ) -> (PreparedBase, ProfilingRun) {
        // Equal inputs build equal binaries, so one build serves both.
        let same_input = cfg.profile_input == cfg.run_input;
        let (profile_prog, run_prog) = m.time(Stage::WorkloadBuild, || {
            let p = build_program(name, cfg.profile_input)
                .unwrap_or_else(|| panic!("unknown workload {name:?}"));
            let r = if same_input {
                p.clone()
            } else {
                build_program(name, cfg.run_input).expect("same registry")
            };
            (p, r)
        });
        let fingerprint = program_fingerprint(&run_prog);
        let profile_fingerprint = if same_input {
            fingerprint.clone()
        } else {
            program_fingerprint(&profile_prog)
        };
        let run = ProfilingRun::default();

        let profile = profile(StageOutput {
            key: PreparedBase::profile_key(&profile_fingerprint, cfg),
            decode: &|j| profile_from_json(j, &profile_prog),
            encode: profile_to_json,
            compute: &|| {
                let (trace, ann) = run.get(&profile_prog, cfg, m);
                m.time(Stage::Profile, || {
                    Profile::compute(&profile_prog, trace, ann)
                })
            },
        });

        // Problem loads.
        let min_misses = ((profile.total_l2_misses() as f64 * cfg.problem_frac) as u64).max(64);
        let mut probs = profile.problem_loads(&profile_prog, min_misses);
        probs.truncate(cfg.max_problem_loads);
        let problem_pcs: Vec<u32> = probs.iter().map(|pl| pl.pc).collect();

        // Criticality cost functions.
        let critpath = critpath(StageOutput {
            key: PreparedBase::critpath_key(&profile_fingerprint, cfg, &problem_pcs),
            decode: &CritPathOutput::from_json,
            encode: CritPathOutput::to_json,
            compute: &|| {
                let (trace, ann) = run.get(&profile_prog, cfg, m);
                m.time(Stage::Critpath, || {
                    let cp = CritPathModel::new(trace, ann, cfg.critpath_config());
                    CritPathOutput {
                        costs: cp.load_costs(&problem_pcs),
                        breakdown: cp.breakdown(),
                        ipc: cp.ipc(),
                    }
                })
            },
        });
        let CritPathOutput {
            costs,
            breakdown: cp_breakdown,
            ipc: cp_ipc,
        } = (*critpath).clone();

        // Baseline timing run on the run input.
        let baseline = baseline(&run_prog, &fingerprint);

        let base = PreparedBase {
            name: name.to_string(),
            profile_prog,
            profile_fingerprint,
            program: run_prog,
            profile,
            problem_pcs,
            costs,
            cp_breakdown,
            baseline,
            fingerprint,
            cp_ipc,
        };
        (base, run)
    }

    /// The engine's base-layer cache key: [`PreparedCore::structural_key`]
    /// minus `cfg.slice` — slicing knobs reshape the trees but not these
    /// artifacts.
    pub fn base_key(name: &str, cfg: &ExpConfig) -> String {
        versioned(
            MODEL_VERSION,
            &format!(
                "{name}|{:?}|{:?}|{:?}|{}|{}|{}",
                cfg.sim,
                cfg.profile_input,
                cfg.run_input,
                cfg.trace_cap,
                cfg.problem_frac,
                cfg.max_problem_loads,
            ),
        )
    }

    /// The persistent-store key of the baseline timing run of a binary
    /// with content `fingerprint` ([`program_fingerprint`]): exactly the
    /// simulator's inputs — the binary's content and the machine
    /// configuration — so every name and sweep point sharing a binary and
    /// a machine shares the stored run. Keying on content rather than name
    /// is what dedupes generated scenarios whose knob points emit
    /// identical programs.
    pub fn baseline_key_for(fingerprint: &str, sim: &SimConfig) -> String {
        versioned(MODEL_VERSION, &format!("baseline|pf{fingerprint}|{sim:?}"))
    }

    /// The memo and persistent-store key of the profile of the profiling
    /// binary with content `fingerprint` ([`program_fingerprint`]):
    /// exactly the profiling stage's inputs, the binary's first
    /// `cfg.trace_cap` instructions and the cache hierarchy that
    /// annotates them.
    pub fn profile_key(fingerprint: &str, cfg: &ExpConfig) -> String {
        versioned(
            MODEL_VERSION,
            &format!(
                "profile|pf{fingerprint}|{}|{:?}",
                cfg.trace_cap, cfg.sim.hierarchy,
            ),
        )
    }

    /// The memo and persistent-store key of the critical-path stage's
    /// output for the profiling binary with content `fingerprint`
    /// ([`program_fingerprint`]): exactly the model's inputs. The trace
    /// is the binary's first `cfg.trace_cap` instructions, the memory
    /// annotation follows from it and the cache hierarchy, and the model
    /// takes its machine from [`ExpConfig::critpath_config`] and the
    /// problem loads from `problem_pcs`.
    pub fn critpath_key(fingerprint: &str, cfg: &ExpConfig, problem_pcs: &[u32]) -> String {
        versioned(
            MODEL_VERSION,
            &format!(
                "critpath|pf{fingerprint}|{}|{:?}|{:?}|{problem_pcs:?}",
                cfg.trace_cap,
                cfg.sim.hierarchy,
                cfg.critpath_config(),
            ),
        )
    }

    /// The memo and persistent-store key of the slice trees of the
    /// problem loads `problem_pcs` of the profiling binary with content
    /// `fingerprint` ([`program_fingerprint`]): exactly the slicing
    /// stage's inputs. The trace, its annotation and the profile the
    /// trees count from follow as for [`PreparedBase::profile_key`], and
    /// the trees take their shape from `cfg.slice`.
    pub fn slices_key(fingerprint: &str, cfg: &ExpConfig, problem_pcs: &[u32]) -> String {
        versioned(
            MODEL_VERSION,
            &format!(
                "slices|pf{fingerprint}|{}|{:?}|{:?}|{problem_pcs:?}",
                cfg.trace_cap, cfg.sim.hierarchy, cfg.slice,
            ),
        )
    }

    /// `BWSEQmt` (equation L6), the unoptimized IPC: measured from the
    /// baseline when it finished, else the critical-path estimate.
    fn bw_seq_mt(&self) -> f64 {
        if self.baseline.finished {
            self.baseline.ipc()
        } else {
            self.cp_ipc
        }
    }
}

/// The energy-independent artifacts of one benchmark's preparation: a
/// shared [`PreparedBase`] plus the slice trees and selection table that
/// `cfg.slice` shapes. This is the expensive ~99% of [`Prepared::build`];
/// the engine caches it by [`PreparedCore::structural_key`] and shares it
/// across threads behind an `Arc`. Dereferences to its base, so the base
/// artifacts read like plain fields (`core.baseline`, `core.program`).
#[derive(Clone, Debug)]
pub struct PreparedCore {
    /// The slice-independent artifacts, shared with every core finished
    /// from the same base.
    pub base: Arc<PreparedBase>,
    /// Slice trees of the problem loads, shared with the engine's memo.
    pub trees: Arc<Vec<SliceTree>>,
    /// Every candidate of `trees` with its latency terms, read by every
    /// selection on this core.
    pub table: CandidateTable,
}

impl std::ops::Deref for PreparedCore {
    type Target = PreparedBase;

    fn deref(&self) -> &PreparedBase {
        &self.base
    }
}

impl PreparedCore {
    /// Finishes a (possibly cache-served) [`PreparedBase`] for `cfg`'s
    /// slicing knobs: the slice trees and their selection table. `slices`
    /// supplies the trees as a [`StageOutput`] keyed by
    /// [`PreparedBase::slices_key`], like the base's own stage outputs.
    /// Computing them reads the profiling trace from `run`: the one a
    /// fresh [`PreparedBase::build`] returned, or an empty run for a
    /// cache-served base, which replays it. The replay is deterministic in
    /// `(base.profile_prog, cfg.trace_cap, cfg.sim.hierarchy)`, so either
    /// way the trees are bit-identical.
    pub fn from_base(
        base: Arc<PreparedBase>,
        cfg: &ExpConfig,
        m: &Metrics,
        run: &ProfilingRun,
        slices: impl FnOnce(StageOutput<Vec<SliceTree>>) -> Arc<Vec<SliceTree>>,
    ) -> PreparedCore {
        let trees = slices(StageOutput {
            key: PreparedBase::slices_key(&base.profile_fingerprint, cfg, &base.problem_pcs),
            decode: &|j| trees_from_json(j, &base.profile_prog, &base.profile, &base.problem_pcs),
            encode: |trees| trees_to_json(trees),
            compute: &|| {
                let (trace, ann) = run.get(&base.profile_prog, cfg, m);
                let trees: Vec<SliceTree> = m.time(Stage::Slice, || {
                    base.problem_pcs
                        .iter()
                        .map(|&pc| {
                            SliceTree::build(
                                &base.profile_prog,
                                trace,
                                ann,
                                &base.profile,
                                pc,
                                &cfg.slice,
                            )
                        })
                        .collect()
                });
                m.add_slice_nodes(trees.iter().map(|t| t.len() as u64).sum());
                trees
            },
        });
        // PTHSEL work, though not a select call: `select.calls` keeps
        // counting selections only.
        let table = m.time_uncounted(Stage::Select, || {
            CandidateTable::build(
                &trees,
                &base.profile,
                &base.costs,
                cfg.machine_params(),
                base.bw_seq_mt(),
            )
        });
        PreparedCore { base, trees, table }
    }

    /// The engine's cache key: every configuration field that shapes these
    /// artifacts. `cfg.energy` is deliberately excluded — energy constants
    /// only affect selection and accounting, so energy sweeps share one
    /// core.
    pub fn structural_key(name: &str, cfg: &ExpConfig) -> String {
        versioned(
            MODEL_VERSION,
            &format!(
                "{name}|{:?}|{:?}|{:?}|{}|{:?}|{}|{}",
                cfg.sim,
                cfg.profile_input,
                cfg.run_input,
                cfg.trace_cap,
                cfg.slice,
                cfg.problem_frac,
                cfg.max_problem_loads,
            ),
        )
    }
}

/// Everything needed to select and evaluate p-threads for one benchmark
/// under one configuration. Dereferences to its [`PreparedCore`], so the
/// shared artifacts read like plain fields (`prep.baseline`, `prep.trees`).
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The shared energy-independent artifacts.
    pub core: Arc<PreparedCore>,
    /// Configuration used (including energy constants).
    pub cfg: ExpConfig,
    /// Application parameters measured from the baseline under
    /// `cfg.energy`.
    pub app: AppParams,
}

impl std::ops::Deref for Prepared {
    type Target = PreparedCore;

    fn deref(&self) -> &PreparedCore {
        &self.core
    }
}

impl Prepared {
    /// Builds the full analysis pipeline for `name` under `cfg`, without
    /// caching. The engine's `prepared` is the memoized equivalent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known workload.
    pub fn build(name: &str, cfg: &ExpConfig) -> Prepared {
        let metrics = Metrics::new();
        // The trace is dropped and replayed, as for a cache-served base,
        // so comparing this path with the engine's also checks the replay.
        let (base, _) = PreparedBase::build(
            name,
            cfg,
            &metrics,
            |out| Arc::new((out.compute)()),
            |out| Arc::new((out.compute)()),
            |program, _| timed_run(&metrics, program, &cfg.sim, &[], 0).0,
        );
        let core = PreparedCore::from_base(
            Arc::new(base),
            cfg,
            &metrics,
            &ProfilingRun::default(),
            |out| Arc::new((out.compute)()),
        );
        Prepared::from_core(Arc::new(core), cfg)
    }

    /// Finishes a cached core for `cfg`: recomputes the (cheap)
    /// energy-dependent application parameters.
    pub fn from_core(core: Arc<PreparedCore>, cfg: &ExpConfig) -> Prepared {
        let l0 = core.baseline.cycles as f64;
        let e0 = core.baseline.total_energy(&cfg.energy);
        let app = AppParams {
            l0,
            e0,
            bw_seq_mt: core.bw_seq_mt(),
        };
        Prepared {
            core,
            cfg: *cfg,
            app,
        }
    }

    /// Runs PTHSEL(+E) for `target`.
    pub fn select(&self, target: SelectionTarget) -> Selection {
        let inputs = SelectorInputs {
            program: &self.program,
            trees: &self.trees,
            table: &self.table,
            energy: self.cfg.energy_params(),
            app: self.app,
        };
        select(&inputs, target)
    }

    /// Simulates the program augmented with `selection`'s p-threads.
    pub fn run_with(&self, selection: &Selection) -> SimReport {
        Simulator::new(&self.program, self.cfg.sim)
            .with_pthreads(&selection.pthreads)
            .run()
    }

    /// Selects for `target` and simulates, returning both.
    pub fn evaluate(&self, target: SelectionTarget) -> TargetResult {
        let selection = self.select(target);
        let report = self.run_with(&selection);
        TargetResult {
            target,
            selection,
            report,
        }
    }
}

/// One (target, selection, simulation) outcome.
#[derive(Clone, Debug)]
pub struct TargetResult {
    /// The optimization target.
    pub target: SelectionTarget,
    /// What PTHSEL(+E) chose.
    pub selection: Selection,
    /// How the augmented program ran.
    pub report: SimReport,
}

impl TargetResult {
    /// Percent execution-time reduction vs. `base` (positive = faster).
    pub fn latency_gain_pct(&self, base: &SimReport) -> f64 {
        100.0 * (1.0 - self.report.cycles as f64 / base.cycles as f64)
    }

    /// Percent energy reduction vs. `base` (positive = less energy).
    pub fn energy_save_pct(&self, base: &SimReport, e: &EnergyConfig) -> f64 {
        100.0 * (1.0 - self.report.total_energy(e) / base.total_energy(e))
    }

    /// Percent ED reduction vs. `base`.
    pub fn ed_save_pct(&self, base: &SimReport, e: &EnergyConfig) -> f64 {
        100.0 * (1.0 - self.report.ed(e) / base.ed(e))
    }

    /// Percent ED² reduction vs. `base`.
    pub fn ed2_save_pct(&self, base: &SimReport, e: &EnergyConfig) -> f64 {
        100.0 * (1.0 - self.report.ed2(e) / base.ed2(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_parameters_track_simulated_machine() {
        let mut cfg = ExpConfig::default();
        cfg.sim = cfg.sim.with_mem_latency(300).with_l2(128 * 1024, 10);
        let m = cfg.machine_params();
        assert_eq!(m.mem_latency, 300.0);
        assert_eq!(m.l2_latency, 10.0);
        assert_eq!(m.bw_seq_proc, cfg.sim.fetch_width as f64);
        let cp = cfg.critpath_config();
        assert_eq!(cp.rob_size, cfg.sim.rob_size as u32);
    }

    #[test]
    fn energy_parameters_track_accounting_constants() {
        let mut cfg = ExpConfig::default();
        cfg.energy = cfg.energy.with_idle_factor(0.08);
        let e = cfg.energy_params();
        assert_eq!(e.e_idle_per_cycle, 0.08);
        assert_eq!(e.e_l2_per_access, cfg.energy.e_l2);
        assert_eq!(e.e_fetch_per_access, cfg.energy.e_icache);
    }

    #[test]
    fn prepared_pipeline_is_complete_for_gap() {
        let p = Prepared::build("gap", &ExpConfig::default());
        assert!(p.baseline.finished);
        assert!(!p.trees.is_empty());
        assert_eq!(p.trees.len(), p.costs.len());
        assert!(p.app.l0 > 0.0 && p.app.e0 > 0.0);
        assert!(p.cp_breakdown.total() > 0.0);
    }

    #[test]
    fn latency_target_speeds_up_gap() {
        let p = Prepared::build("gap", &ExpConfig::default());
        let r = p.evaluate(SelectionTarget::Latency);
        assert!(!r.selection.pthreads.is_empty());
        let gain = r.latency_gain_pct(&p.baseline);
        assert!(
            gain > 2.0,
            "gap with L-p-threads should speed up, got {gain:.2}%"
        );
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = Prepared::build("nonesuch", &ExpConfig::default());
    }

    #[test]
    fn all_cache_keys_carry_the_model_version() {
        let cfg = ExpConfig::default();
        let prefix = format!("mv{MODEL_VERSION}|");
        for key in [
            PreparedCore::structural_key("gap", &cfg),
            PreparedBase::base_key("gap", &cfg),
            PreparedBase::baseline_key_for("0123abcd", &cfg.sim),
            PreparedBase::profile_key("0123abcd", &cfg),
            PreparedBase::critpath_key("0123abcd", &cfg, &[4, 9]),
            PreparedBase::slices_key("0123abcd", &cfg, &[4, 9]),
        ] {
            assert!(key.starts_with(&prefix), "unversioned key {key:?}");
        }
    }

    #[test]
    fn bumping_the_model_version_changes_every_key() {
        assert_ne!(versioned(1, "k"), versioned(2, "k"));
        assert_eq!(versioned(MODEL_VERSION, "k"), versioned(MODEL_VERSION, "k"));
    }
}

//! Golden digests of the analysis front end.
//!
//! For each paper kernel plus one generated scenario, under the default
//! experiment configuration, this test renders every front-end artifact
//! the selector and the experiments consume — the dataflow-annotated
//! trace, its memory annotation, the per-PC profile, the critical-path
//! baseline and breakdown, the load cost functions, the load slice trees
//! and a branch slice tree — as canonical text, and compares one content
//! hash per kernel with `tests/golden/frontend.txt`.
//!
//! The end-to-end goldens only see these artifacts through the
//! selections they lead to; this pins them directly, so a rewrite of the
//! trace layout, the critical-path evaluator or the slicer must be
//! bit-for-bit faithful. If a change is meant to alter them, paste the
//! table printed on failure into the golden file.
//!
//! The property tests below check the data-oriented front end against
//! plain reference implementations on random looping programs: the
//! column-stored trace against the functional simulator's own events, the
//! ROB-ring longest path against a full-graph evaluation, the fused
//! multi-lane cost sampling against scalar evaluations, and the bounded
//! slicer against closure-then-truncate.

use preexec::campaign::content_hash;
use preexec::critpath::{
    longest_path, problem_branches, Breakdown, CritPathConfig, CritPathModel, InteractionModel,
    NodeInput,
};
use preexec::harness::{build_program, ExpConfig};
use preexec::isa::{Program, ProgramBuilder, Reg};
use preexec::mem::{HierarchyConfig, Level};
use preexec::slicer::{backward_slice, SliceConfig, SliceTree};
use preexec::trace::{FuncSim, MemAnnotation, Profile, Seq, Step, Trace};
use preexec_prop::{run_cases, Gen};
use std::fmt::Write as _;

const NAMES: [&str; 10] = [
    "bzip2",
    "gap",
    "gcc",
    "mcf",
    "parser",
    "twolf",
    "vortex",
    "vpr.place",
    "vpr.route",
    "gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s7",
];

/// FNV-1a over a stream of words, for the per-event columns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn tree_text(out: &mut String, tree: &SliceTree) {
    let _ = writeln!(out, "tree root {} nodes {}", tree.root_pc, tree.len());
    for n in tree.nodes() {
        let _ = writeln!(
            out,
            "  {} p{:?} pc{} d{} cm{} trig{} la{} ch{:?}",
            n.id, n.parent, n.pc, n.depth, n.dc_ptcm, n.dc_trig, n.lookahead_sum, n.children
        );
    }
}

fn frontend_text(name: &str, cfg: &ExpConfig) -> String {
    let program = build_program(name, cfg.profile_input).expect("known kernel");
    let trace = FuncSim::new(&program).run_trace(cfg.trace_cap);
    let ann = MemAnnotation::compute(&trace, cfg.sim.hierarchy);
    let profile = Profile::compute(&program, &trace, &ann);
    let mut out = String::new();

    let (mut events, mut served) = (Fnv::new(), Fnv::new());
    for seq in 0..trace.len() as u64 {
        let e = trace.event(seq);
        assert_eq!(e.seq, seq);
        events.word(e.pc as u64);
        events.word(e.addr.map_or(u64::MAX, |a| a));
        events.word(e.taken.map_or(2, u64::from));
        events.word(e.next_pc as u64);
        for d in e.src_deps.iter().chain([&e.mem_dep]) {
            events.word(d.map_or(u64::MAX, |d| d));
        }
        served.word(ann.served(seq).map_or(9, |l| l as u64));
    }
    let _ = writeln!(
        out,
        "trace {} halted {} events {:016x} served {:016x}",
        trace.len(),
        trace.halted(),
        events.0,
        served.0
    );

    let mut per_pc = Fnv::new();
    for pc in 0..program.len() as u32 {
        let s = profile.pc_stats(pc);
        for w in [s.execs, s.taken, s.l1_misses, s.l2_misses] {
            per_pc.word(w);
        }
    }
    let _ = writeln!(
        out,
        "profile {} l2 {} per-pc {:016x}",
        profile.total_insts(),
        profile.total_l2_misses(),
        per_pc.0
    );

    // Problem loads exactly as the engine picks them.
    let min_misses = ((profile.total_l2_misses() as f64 * cfg.problem_frac) as u64).max(64);
    let mut probs = profile.problem_loads(&program, min_misses);
    probs.truncate(cfg.max_problem_loads);
    let _ = writeln!(out, "problems {probs:?}");

    let cp = CritPathModel::new(&trace, &ann, cfg.critpath_config());
    let _ = writeln!(
        out,
        "critpath {} ipc {:016x} {:?}",
        cp.execution_time(),
        cp.ipc().to_bits(),
        cp.breakdown()
    );
    for pl in &probs {
        let _ = writeln!(out, "cost {:?}", cp.load_cost(pl.pc));
        tree_text(
            &mut out,
            &SliceTree::build(&program, &trace, &ann, &profile, pl.pc, &cfg.slice),
        );
    }

    let branches = problem_branches(&trace, cfg.sim.predictor, 64);
    if let Some(pb) = branches.first() {
        let _ = writeln!(
            out,
            "branch pc{} execs {} mispredicts {} of {}",
            pb.pc,
            pb.stats.execs,
            pb.stats.mispredicts,
            branches.len()
        );
        tree_text(
            &mut out,
            &SliceTree::build_from_instances(
                &program,
                &trace,
                &profile,
                pb.pc,
                &pb.stats.mispredict_seqs,
                &cfg.slice,
            ),
        );
    }
    out
}

#[test]
fn frontend_artifacts_match_golden() {
    let cfg = ExpConfig::default();
    // Two workers, each taking every other kernel; lines keep NAMES order.
    let digest = |name: &&str| format!("{name} {}\n", content_hash(&frontend_text(name, &cfg)));
    let (even, odd): (Vec<String>, Vec<String>) = std::thread::scope(|s| {
        let odd = s.spawn(|| NAMES.iter().skip(1).step_by(2).map(digest).collect());
        let even = NAMES.iter().step_by(2).map(digest).collect();
        (even, odd.join().expect("digest worker"))
    });
    let got: String = (0..NAMES.len())
        .map(|i| {
            if i % 2 == 0 {
                &even[i / 2]
            } else {
                &odd[i / 2]
            }
            .as_str()
        })
        .collect();
    assert_eq!(
        got,
        include_str!("golden/frontend.txt"),
        "front-end artifacts drifted from tests/golden/frontend.txt; if the \
         change is intentional, replace the file with:\n{got}"
    );
}

/// A random loop: each iteration strides a base pointer to fresh cache
/// lines, then runs a random body of ALU operations, loads and stores off
/// that pointer, and short forward branches.
fn looping_program(g: &mut Gen) -> Program {
    let reg = |g: &mut Gen| Reg::new(g.u64(1, 7) as u8);
    let (i, n, base, ptr) = (Reg::new(7), Reg::new(8), Reg::new(9), Reg::new(10));
    let mut b = ProgramBuilder::new("loop");
    b.li(i, 0).li(n, g.i64(2, 12)).li(base, 0x10_0000);
    b.label("top");
    b.muli(ptr, i, 4096).add(ptr, ptr, base);
    for k in 0..g.usize(1, 30) {
        match g.u64(0, 6) {
            0 => b.add(reg(g), reg(g), reg(g)),
            1 => b.muli(reg(g), reg(g), g.i64(1, 9)),
            2 => b.addi(reg(g), reg(g), g.i64(-8, 8)),
            3 => b.ld(reg(g), ptr, 64 * g.i64(0, 16)),
            4 => b.st(reg(g), ptr, 64 * g.i64(0, 16)),
            _ => {
                let skip = format!("skip{k}");
                b.beq(reg(g), reg(g), &skip).addi(reg(g), reg(g), 1);
                b.label(&skip)
            }
        };
    }
    b.addi(i, i, 1).blt(i, n, "top").halt();
    b.build()
}

/// Random machine parameters. Half the ROBs are tiny, so that the edge
/// from a producer just inside the ROB's reach — the boundary the
/// ring-buffered evaluators rely on — often binds.
fn random_critpath_config(g: &mut Gen) -> CritPathConfig {
    let rob_size = if g.bool() { g.u64(1, 4) } else { g.u64(4, 48) } as u32;
    CritPathConfig {
        fetch_width: g.u64(1, 8) as u32,
        commit_width: g.u64(1, 8) as u32,
        rob_size,
        frontend_depth: g.u64(0, 12),
        mispredict_penalty: g.u64(0, 15),
        mul_latency: g.u64(1, 6),
    }
}

/// The column-stored trace reproduces, event for event, what the
/// functional simulator's `step` reports.
#[test]
fn trace_columns_reproduce_stepped_events() {
    run_cases(48, |g| {
        let program = looping_program(g);
        let cap = g.u64(1, 400);
        let trace = FuncSim::new(&program).run_trace(cap);
        let mut sim = FuncSim::new(&program);
        let mut stepped = Vec::new();
        while (stepped.len() as u64) < cap {
            match sim.step() {
                Step::Retired(e) => stepped.push(e),
                Step::Halted => break,
            }
        }
        assert_eq!(trace.iter().collect::<Vec<_>>(), stepped);
        assert_eq!(trace.halted(), sim.halted());
    });
}

/// The full-graph longest path: every node time kept, every producer
/// considered, predecessors stored per node.
fn reference_longest_path(
    trace: &Trace,
    inputs: &[NodeInput],
    cfg: &CritPathConfig,
) -> (u64, Breakdown) {
    #[derive(Clone, Copy)]
    struct Pred {
        node: usize,
        seq: usize,
        cat: usize,
        weight: u64,
    }
    let n = trace.len();
    if n == 0 {
        return (0, Breakdown::default());
    }
    let rob = cfg.rob_size.max(1) as usize;
    // t[node][i] and p[node][i], node 0 = F, 1 = E, 2 = C; categories
    // 0 fetch, 1 commit, 2 exec, 3 L2, 4 mem.
    let mut t = vec![vec![0u64; n]; 3];
    let mut p: Vec<Vec<Option<Pred>>> = vec![vec![None; n]; 3];
    let consider = |best: &mut (u64, Option<Pred>), src: u64, pred: Pred| {
        if src + pred.weight > best.0 {
            *best = (src + pred.weight, Some(pred));
        }
    };
    for i in 0..n {
        let e = trace.event(i as Seq);
        let inp = inputs[i];
        let mut best = (0, None);
        if i > 0 {
            let w = u64::from(i % cfg.fetch_width as usize == 0);
            consider(
                &mut best,
                t[0][i - 1],
                Pred {
                    node: 0,
                    seq: i - 1,
                    cat: 0,
                    weight: w,
                },
            );
            if inputs[i - 1].mispredicted {
                let pred = Pred {
                    node: 1,
                    seq: i - 1,
                    cat: 0,
                    weight: cfg.mispredict_penalty,
                };
                consider(&mut best, t[1][i - 1], pred);
            }
        }
        if i >= rob {
            consider(
                &mut best,
                t[2][i - rob],
                Pred {
                    node: 2,
                    seq: i - rob,
                    cat: 0,
                    weight: 1,
                },
            );
        }
        (t[0][i], p[0][i]) = best;
        let cat = match (e.inst.is_load(), inp.served) {
            (true, Some(Level::Mem)) => 4,
            (true, Some(Level::L2)) => 3,
            _ => 2,
        };
        let own = cfg.frontend_depth + inp.latency;
        let mut best = (
            t[0][i] + own,
            Some(Pred {
                node: 0,
                seq: i,
                cat,
                weight: own,
            }),
        );
        for d in e.src_deps.iter().chain([&e.mem_dep]).flatten() {
            let d = *d as usize;
            consider(
                &mut best,
                t[1][d],
                Pred {
                    node: 1,
                    seq: d,
                    cat,
                    weight: inp.latency,
                },
            );
        }
        (t[1][i], p[1][i]) = best;
        let mut best = (
            t[1][i],
            Some(Pred {
                node: 1,
                seq: i,
                cat: 2,
                weight: 0,
            }),
        );
        if i > 0 {
            let w = u64::from(i % cfg.commit_width as usize == 0);
            consider(
                &mut best,
                t[2][i - 1],
                Pred {
                    node: 2,
                    seq: i - 1,
                    cat: 1,
                    weight: w,
                },
            );
        }
        (t[2][i], p[2][i]) = best;
    }
    let mut sums = [0f64; 5];
    let (mut node, mut seq) = (2, n - 1);
    while let Some(pred) = p[node][seq] {
        sums[pred.cat] += pred.weight as f64;
        (node, seq) = (pred.node, pred.seq);
    }
    let [fetch, commit, exec, l2, mem] = sums;
    (
        t[2][n - 1],
        Breakdown {
            fetch,
            commit,
            exec,
            l2,
            mem,
        },
    )
}

/// The ROB-ring longest path, which skips provably slack producers and
/// keeps one predecessor byte per instruction, equals the full-graph
/// evaluation — cycles and the attributed breakdown — for arbitrary
/// latencies, misprediction marks and machine widths.
#[test]
fn longest_path_matches_full_graph_reference() {
    run_cases(64, |g| {
        let program = looping_program(g);
        let trace = FuncSim::new(&program).run_trace(600);
        let cfg = random_critpath_config(g);
        let levels = [None, Some(Level::L1), Some(Level::L2), Some(Level::Mem)];
        let inputs: Vec<NodeInput> = (0..trace.len())
            .map(|_| NodeInput {
                latency: g.u64(0, 300),
                served: *g.choose(&levels),
                mispredicted: g.u64(0, 8) == 0,
            })
            .collect();
        let got = longest_path(&trace, &inputs, &cfg);
        let (cycles, breakdown) = reference_longest_path(&trace, &inputs, &cfg);
        assert_eq!(got.cycles, cycles, "{cfg:?}");
        assert_eq!(got.breakdown, breakdown, "{cfg:?}");
    });
}

/// Cost functions sampled for all problem loads in one multi-lane pass
/// agree with scalar longest-path evaluations of each sample. Half the
/// cases use a memory latency that pushes the critical path past 2^24
/// cycles, so the wider lanes are checked too.
#[test]
fn fused_load_costs_match_scalar_samples() {
    let mut wide = 0;
    run_cases(24, |g| {
        let program = looping_program(g);
        let trace = FuncSim::new(&program).run_trace(600);
        let mut hier = HierarchyConfig::default();
        if g.bool() {
            hier.mem_latency = 1 << 24;
        }
        let ann = MemAnnotation::compute(&trace, hier);
        let profile = Profile::compute(&program, &trace, &ann);
        let cfg = random_critpath_config(g);
        let model = CritPathModel::new(&trace, &ann, cfg);
        let pcs: Vec<u32> = profile
            .problem_loads(&program, 1)
            .iter()
            .map(|pl| pl.pc)
            .collect();
        if model.execution_time() >= 1 << 24 && !pcs.is_empty() {
            wide += 1;
        }
        let tol = model.tolerable_cycles() as f64;
        for (others, im) in [
            (false, InteractionModel::Pessimistic),
            (true, InteractionModel::Optimistic),
        ] {
            let costs = model.load_costs_with(&pcs, im);
            for (&pc, cost) in pcs.iter().zip(&costs) {
                let misses = cost.misses() as f64;
                let base = if others {
                    model.time_with_reduction(pc, 0.0, true)
                } else {
                    model.execution_time()
                } as f64;
                for frac in [0.25, 0.5, 0.75, 1.0] {
                    let t = model.time_with_reduction(pc, frac, others) as f64;
                    let want = ((base - t) / misses).max(0.0);
                    let got = cost.gain(frac * tol);
                    assert!(
                        (got - want).abs() < 1e-9,
                        "pc {pc} {im:?} at {frac}: {got} vs {want}"
                    );
                }
            }
        }
    });
    assert!(wide > 0, "no case reached the f64 lanes");
}

/// The bounded newest-first slicer equals the full register-dataflow
/// closure within the window, sorted and cut to the newest `max_body`.
#[test]
fn backward_slice_matches_closure_reference() {
    run_cases(64, |g| {
        let program = looping_program(g);
        let trace = FuncSim::new(&program).run_trace(600);
        let target = g.u64(0, trace.len() as u64);
        let cfg = SliceConfig {
            window: g.u64(1, 400),
            max_body: g.usize(0, 48),
            ..SliceConfig::default()
        };
        let low = target.saturating_sub(cfg.window);
        let mut closure = std::collections::BTreeSet::from([target]);
        let mut work = vec![target];
        while let Some(s) = work.pop() {
            for &d in trace.event(s).src_deps.iter().flatten() {
                if d >= low && closure.insert(d) {
                    work.push(d);
                }
            }
        }
        let want: Vec<Seq> = closure.into_iter().rev().take(cfg.max_body).collect();
        assert_eq!(backward_slice(&trace, target, &cfg), want, "{cfg:?}");
    });
}

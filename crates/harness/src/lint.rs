//! The `repro lint` pass: the static analyzer (`preexec-analysis`) run
//! over every shipped artifact on the [`Engine`] work pool.
//!
//! Three layers, mirroring how p-threads are produced:
//!
//! 1. **Programs** — every workload kernel (plus the `fig1` worked
//!    example) through [`lint_program`](preexec_analysis::lint_program):
//!    CFG shape, unreachable blocks, infinite-loop shapes, and
//!    use-before-def.
//! 2. **Slicer candidates** — every candidate body lowered from every
//!    slice tree, verified against `SliceConfig::max_body` and the
//!    structural p-thread invariants.
//! 3. **Selected sets** — the real latency- and ED-targeted selections
//!    ([`select`](pthsel::select) output, post-merge), verified with a
//!    merge-scaled length cap.
//!
//! A clean tree reports zero findings; any finding (warnings included)
//! fails the pass, keeping the shipped kernels lint-clean by
//! construction.

use crate::{Engine, ExpConfig};
use preexec_analysis as analysis;
use preexec_json::impl_json_object;
use preexec_workloads as workloads;
use pthsel::{candidates_from_tree, PThread, SelectionTarget};

/// Selection targets linted: the same pair `repro verify` injects (the
/// most aggressive sets and the paper's headline configuration).
const LINT_TARGETS: [SelectionTarget; 2] = [SelectionTarget::Latency, SelectionTarget::Ed];

/// Outcome of a lint run.
#[derive(Clone, Debug)]
pub struct LintSummary {
    /// Programs linted (workload kernels + `fig1`).
    pub programs: usize,
    /// Slicer candidate bodies verified.
    pub candidates: usize,
    /// Selected (post-merge) p-threads verified, across targets.
    pub selected_pthreads: usize,
    /// Every finding, in deterministic order. Empty means clean.
    pub findings: Vec<String>,
}

impl_json_object!(LintSummary {
    programs,
    candidates,
    selected_pthreads,
    findings,
});

impl LintSummary {
    /// `true` when nothing was flagged.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

impl std::fmt::Display for LintSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lint: {} programs, {} slicer candidates, {} selected p-threads",
            self.programs, self.candidates, self.selected_pthreads,
        )?;
        if self.ok() {
            writeln!(f, "lint: CLEAN")
        } else {
            for finding in &self.findings {
                writeln!(f, "LINT {finding}")?;
            }
            writeln!(f, "lint: {} FINDINGS", self.findings.len())
        }
    }
}

/// Lints external kernel files (`repro lint --file`): each file is
/// parsed with `preexec_isa::parse_program` (the text `preexec-gen`'s
/// `emit_text` produces, or any hand-written kernel in the same format)
/// and run through the whole-program lint. Slicer candidates and
/// selections do not apply to standalone files, so those counters stay
/// 0. An unreadable or unparsable file is a usage error (`Err`), not a
/// finding.
pub fn lint_files(paths: &[String]) -> Result<LintSummary, String> {
    let mut findings = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
        let name = path.rsplit('/').next().unwrap_or(path);
        let program = preexec_isa::parse_program(name, &text)
            .map_err(|e| format!("{path}: parse error: {e}"))?;
        findings.extend(
            analysis::lint_program(&program)
                .into_iter()
                .map(|f| format!("{name}: {f}")),
        );
    }
    Ok(LintSummary {
        programs: paths.len(),
        candidates: 0,
        selected_pthreads: 0,
        findings,
    })
}

/// Verifies one p-thread shape, prefixing findings with `label`.
fn verify_into(
    program: &preexec_isa::Program,
    p: &PThread,
    max_body: usize,
    label: &str,
    findings: &mut Vec<String>,
) {
    let shape = analysis::PthreadShape {
        trigger_pc: p.trigger_pc,
        body: &p.body,
        targets: &p.targets,
        branch_hint: p.branch_hint,
    };
    findings.extend(
        analysis::verify_pthread(program, &shape, max_body)
            .into_iter()
            .map(|f| format!("{label}: {f}")),
    );
}

/// Per-kernel lint result, merged into the [`LintSummary`].
struct KernelLint {
    candidates: usize,
    selected: usize,
    findings: Vec<String>,
}

/// Runs the full lint pass on `engine`'s work pool.
pub fn run(engine: &Engine, cfg: &ExpConfig) -> LintSummary {
    let mut findings = Vec::new();

    // Layer 1: every program through the whole-program lint.
    let mut program_names: Vec<&str> = vec!["fig1"];
    program_names.extend(workloads::NAMES);
    let programs = program_names.len();
    findings.extend(
        engine
            .par_map(program_names, |name| {
                let program = workloads::build(name, cfg.run_input).expect("known kernel");
                analysis::lint_program(&program)
                    .into_iter()
                    .map(|f| format!("{name}: {f}"))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten(),
    );

    // Layers 2 and 3: candidates and selections per benchmark kernel.
    let per_kernel = engine.par_map(workloads::NAMES.to_vec(), |name| {
        let prep = engine.prepared(name, cfg);
        let mut kl = KernelLint {
            candidates: 0,
            selected: 0,
            findings: Vec::new(),
        };
        let machine = cfg.machine_params();
        for (ti, tree) in prep.trees.iter().enumerate() {
            let cands = candidates_from_tree(tree, ti, &prep.profile, &machine, prep.app.bw_seq_mt);
            kl.candidates += cands.len();
            for c in &cands {
                let as_pthread = PThread {
                    trigger_pc: c.trigger_pc,
                    body: c.body(tree),
                    targets: vec![c.root_pc],
                    dc_trig: c.dc_trig,
                    dc_ptcm: c.dc_ptcm,
                    ladv_agg: 0.0,
                    eadv_agg: 0.0,
                    branch_hint: None,
                    hint_lookahead: 1,
                };
                let label = format!("{name}/tree{ti}/candidate@pc{}", c.trigger_pc);
                verify_into(
                    &prep.program,
                    &as_pthread,
                    cfg.slice.max_body,
                    &label,
                    &mut kl.findings,
                );
            }
        }
        for target in LINT_TARGETS {
            let selection = prep.select(target);
            kl.selected += selection.pthreads.len();
            for p in &selection.pthreads {
                // A composite p-thread merges one candidate per target, so
                // the cap scales with the merge width.
                let max = cfg.slice.max_body * p.targets.len().max(1);
                let label = format!("{name}/{target}/pthread@pc{}", p.trigger_pc);
                verify_into(&prep.program, p, max, &label, &mut kl.findings);
            }
        }
        kl
    });

    let mut candidates = 0;
    let mut selected_pthreads = 0;
    for kl in per_kernel {
        candidates += kl.candidates;
        selected_pthreads += kl.selected;
        findings.extend(kl.findings);
    }

    LintSummary {
        programs,
        candidates,
        selected_pthreads,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_json::ToJson;

    #[test]
    fn shipped_kernels_lint_clean() {
        let engine = Engine::new(2);
        let summary = run(&engine, &ExpConfig::default());
        assert!(summary.ok(), "{summary}");
        assert_eq!(summary.programs, 10);
        assert!(summary.candidates > 0);
        assert!(summary.selected_pthreads > 0);
        let j = summary.to_json().to_string();
        assert!(j.contains("\"findings\":[]"), "{j}");
    }
}

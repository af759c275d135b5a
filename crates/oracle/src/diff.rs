//! The oracle-vs-pipeline differential harness.
//!
//! One check = one program run through the [`Oracle`] and through the
//! timing [`Simulator`], comparing the complete architectural outcome:
//! retired-instruction count, final register file, and final memory. The
//! pipeline is run under `catch_unwind`, so `sanitize`-feature invariant
//! panics surface as labelled failures instead of aborting a whole fuzz
//! batch.
//!
//! The paper's central invariant gets its own helper:
//! [`check_pthread_invariance`] runs a program with and without an
//! injected p-thread set and requires both to match the oracle exactly —
//! pre-execution may change cycles and energy counters, never results.

use crate::{ArchState, Oracle};
use preexec_isa::Program;
use preexec_mem::TlbConfig;
use preexec_sim::{IntervalSnapshot, SimConfig, SimReport, Simulator, SpawnPoint};
use pthsel::PThread;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Instruction budget for oracle runs. Far above any fuzzed program or
/// workload kernel; a program that exceeds it fails the check as
/// non-terminating.
pub const ORACLE_INST_CAP: u64 = 50_000_000;

/// The grid of machine shapes every differential check sweeps.
///
/// Each entry stresses a different pipeline mechanism: `narrow` forces
/// structural stalls everywhere, `commit-spawn` and `l1-prefetch` flip
/// the pre-execution ablation knobs, `tiny-mem-tlb` makes every cache and
/// TLB boundary hot, and `warmup` exercises the mid-run report reset.
pub fn config_grid() -> Vec<(&'static str, SimConfig)> {
    let base = SimConfig {
        max_cycles: 20_000_000,
        ..SimConfig::default()
    };
    let narrow = SimConfig {
        fetch_width: 2,
        decode_width: 2,
        issue_width: 2,
        commit_width: 2,
        rob_size: 16,
        rs_size: 8,
        pthread_contexts: 2,
        decode_delay: 1,
        load_ports: 1,
        store_ports: 1,
        mshrs: 2,
        ..base
    };
    let commit_spawn = SimConfig {
        spawn_point: SpawnPoint::Commit,
        ..base
    };
    let l1_prefetch = SimConfig {
        prefetch_l1: true,
        ..base
    };
    let mut tiny = SimConfig {
        ..base.with_mem_latency(80).with_l2(4 * 1024, 6)
    };
    tiny.hierarchy.l1d = preexec_mem::CacheConfig::new(512, 64, 1, 2);
    tiny.hierarchy.l1i = preexec_mem::CacheConfig::new(512, 64, 1, 1);
    tiny.hierarchy.tlb = Some(TlbConfig {
        entries: 4,
        page_bytes: 8 * 1024,
        miss_latency: 30,
    });
    let warmup = SimConfig {
        warmup_commits: 64,
        ..base
    };
    vec![
        ("default", base),
        ("narrow", narrow),
        ("commit-spawn", commit_spawn),
        ("l1-prefetch", l1_prefetch),
        ("tiny-mem-tlb", tiny),
        ("warmup", warmup),
    ]
}

fn diff_state(
    label: &str,
    oracle: &ArchState,
    committed: u64,
    skip_committed: bool,
    regs: &[u64],
    mem: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    if !skip_committed && committed != oracle.retired {
        return Err(format!(
            "[{label}] committed {committed} != oracle retired {}",
            oracle.retired
        ));
    }
    for (i, (&got, &want)) in regs.iter().zip(oracle.regs.iter()).enumerate() {
        if got != want {
            return Err(format!("[{label}] r{i} = {got:#x}, oracle has {want:#x}"));
        }
    }
    if *mem != oracle.mem {
        // Name one differing address to keep the failure readable.
        for (addr, want) in &oracle.mem {
            let got = mem.get(addr).copied().unwrap_or(0);
            if got != *want {
                return Err(format!(
                    "[{label}] mem[{addr:#x}] = {got:#x}, oracle has {want:#x}"
                ));
            }
        }
        for (addr, got) in mem {
            if !oracle.mem.contains_key(addr) {
                return Err(format!(
                    "[{label}] pipeline wrote mem[{addr:#x}] = {got:#x}, oracle never did"
                ));
            }
        }
    }
    Ok(())
}

/// Runs `program` through the oracle and through the pipeline under
/// `cfg` (with `pthreads` installed) and checks architectural
/// equivalence. `label` prefixes every failure message.
///
/// With an empty p-thread set this additionally requires every
/// pre-execution counter in the report to be zero — a baseline run must
/// not even *touch* the p-thread machinery.
pub fn check_equivalence(
    program: &Program,
    pthreads: &[PThread],
    cfg: &SimConfig,
    label: &str,
) -> Result<(), String> {
    let oracle = oracle_state(program, label)?;
    check_run(program, &oracle, pthreads, cfg, label, 0).map(|_| ())
}

/// The oracle's final state of `program`: the reference every pipeline
/// run of it is checked against. Architectural state does not depend on
/// the machine or the p-thread set, so one oracle run serves them all.
/// Fails when the oracle hits [`ORACLE_INST_CAP`].
pub fn oracle_state(program: &Program, label: &str) -> Result<ArchState, String> {
    let oracle = Oracle::run_state(program, ORACLE_INST_CAP);
    if !oracle.halted {
        return Err(format!(
            "[{label}] oracle hit the {ORACLE_INST_CAP}-instruction cap; program may not terminate"
        ));
    }
    Ok(oracle)
}

/// The pipeline half of [`check_equivalence`]: runs `program` under `cfg`
/// with `pthreads` installed and checks it against the `oracle` state
/// ([`oracle_state`]). A run that passes is handed back: its report and,
/// when `log_stride` is nonzero, its interval log at that stride (empty
/// otherwise). The log leaves the report byte-identical.
pub fn check_run(
    program: &Program,
    oracle: &ArchState,
    pthreads: &[PThread],
    cfg: &SimConfig,
    label: &str,
    log_stride: u64,
) -> Result<(SimReport, Vec<IntervalSnapshot>), String> {
    let cfg = *cfg;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulator::new(program, cfg).with_pthreads(pthreads);
        if log_stride != 0 {
            sim = sim.with_interval_log(log_stride);
        }
        let report = sim.run();
        let intervals = sim.intervals().to_vec();
        (report, intervals, sim.spec_regs(), sim.spec_mem())
    }));
    let (report, intervals, regs, mem) = match ran {
        Ok(t) => t,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            return Err(format!("[{label}] pipeline panicked: {msg}"));
        }
    };
    if !report.finished {
        return Err(format!(
            "[{label}] pipeline hit the {}-cycle cap without committing halt",
            cfg.max_cycles
        ));
    }
    // Warm-up resets the report mid-run, so `committed` no longer counts
    // every retired instruction; registers and memory stay comparable.
    let skip_committed = cfg.warmup_commits > 0;
    diff_state(label, oracle, report.committed, skip_committed, &regs, &mem)?;
    if pthreads.is_empty() {
        let pth_counters = [
            ("pinsts", report.pinsts),
            ("spawns", report.spawns),
            ("spawns_dropped", report.spawns_dropped),
            ("spawns_wrong_path", report.spawns_wrong_path),
            ("covered_full", report.covered_full),
            ("covered_partial", report.covered_partial),
            ("hints_used", report.hints_used),
            ("hints_correct", report.hints_correct),
            ("max_pthread_pregs", report.max_pthread_pregs),
            ("imem_pth", report.counts.imem_pth),
            ("dmem_pth", report.counts.dmem_pth),
            ("l2_pth", report.counts.l2_pth),
            ("dispatch_pth", report.counts.dispatch_pth),
            ("alu_pth", report.counts.alu_pth),
        ];
        for (name, v) in pth_counters {
            if v != 0 {
                return Err(format!("[{label}] no p-threads installed but {name} = {v}"));
            }
        }
    }
    Ok((report, intervals))
}

/// Checks the paper's key invariant on one config: the baseline run and
/// the p-thread-injected run are both architecturally identical to the
/// oracle (so pre-execution changed timing at most).
pub fn check_pthread_invariance(
    program: &Program,
    pthreads: &[PThread],
    cfg: &SimConfig,
    label: &str,
) -> Result<(), String> {
    check_equivalence(program, &[], cfg, &format!("{label}/baseline"))?;
    check_equivalence(program, pthreads, cfg, &format!("{label}/injected"))
}

/// Runs [`check_pthread_invariance`] across the whole [`config_grid`].
pub fn check_across_grid(
    program: &Program,
    pthreads: &[PThread],
    label: &str,
) -> Result<(), String> {
    for (cfg_name, cfg) in config_grid() {
        check_pthread_invariance(program, pthreads, &cfg, &format!("{label}/{cfg_name}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz;
    use preexec_isa::{ProgramBuilder, Reg};
    use preexec_prop::run_cases;

    fn sum_loop() -> Program {
        let mut b = ProgramBuilder::new("sum");
        let (sum, i, n, base, tmp) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
        );
        b.data_slice(0x1000, &[3, 1, 4, 1, 5, 9, 2, 6]);
        b.li(sum, 0).li(i, 0).li(n, 8).li(base, 0x1000);
        b.label("loop");
        b.shli(tmp, i, 3);
        b.add(tmp, tmp, base);
        b.ld(tmp, tmp, 0);
        b.add(sum, sum, tmp);
        b.addi(i, i, 1);
        b.blt(i, n, "loop");
        b.halt();
        b.build()
    }

    #[test]
    fn simple_loop_matches_on_all_grid_configs() {
        let p = sum_loop();
        for (name, cfg) in config_grid() {
            check_equivalence(&p, &[], &cfg, name).unwrap();
        }
    }

    #[test]
    fn fuzzed_pthread_injection_preserves_architecture() {
        run_cases(8, |g| {
            let p = fuzz::gen_program(g);
            let pts = fuzz::gen_pthreads(g, &p);
            let cfg = SimConfig {
                max_cycles: 20_000_000,
                ..SimConfig::default()
            };
            check_pthread_invariance(&p, &pts, &cfg, "fuzz").unwrap();
        });
    }

    #[test]
    fn nonterminating_program_is_reported() {
        let mut b = ProgramBuilder::new("spin");
        b.label("x");
        b.jump("x");
        let p = b.build();
        let err = check_equivalence(&p, &[], &SimConfig::default(), "spin").unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }
}

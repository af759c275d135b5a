//! # preexec-gen
//!
//! A parameterized workload generator: maps a point in the knob space the
//! paper argues governs pre-execution behaviour — slice length, induction
//! depth, branch divergence, miss rate, miss clustering, footprint — to a
//! concrete ISA program plus a seeded data layout. The paper's evaluation
//! rests on 9 hand-written kernels; this crate populates the *space those
//! kernels sample* so campaign sweeps can ask whether the E-vs-L
//! conclusion is representative of the whole landscape.
//!
//! ## Scenario anatomy
//!
//! Every generated kernel is one loop of `ITERS` iterations. Each
//! iteration loads an entry from a precomputed index array, decodes a
//! branch bit and a word index from it, walks a dependent ALU chain of
//! [`KnobPoint::slice_len`] instructions (the backward slice a p-thread
//! must replay to prefetch the load), issues the *problem load* at the
//! decoded word, conditionally executes a short divergent block (taken
//! with probability [`KnobPoint::branch_divergence`]), and advances the
//! induction variable through a chain of [`KnobPoint::induction_depth`]
//! self-updates. Whether an iteration's word is drawn from an L1-resident
//! hot set or a [`KnobPoint::footprint`]-sized cold region is decided by a
//! two-state Markov chain whose stationary cold probability is
//! [`KnobPoint::miss_rate`] and whose burstiness is
//! [`KnobPoint::miss_clustering`] (0 = independent draws, →1 = long
//! cold/hot runs at the same overall rate).
//!
//! ## Correct by construction
//!
//! [`admit`] gates every emitted kernel: it must produce **zero**
//! `preexec-analysis` lint findings (warnings included) and run
//! architecturally identical through the functional oracle and the
//! pipelined simulator on a two-point config grid ([`ADMISSION_CONFIGS`]).
//! [`admit_runs`] hands the checked runs back, so a caller that would
//! simulate the same machine (the atlas's baseline runs) can reuse them.
//! Generation is fully deterministic: a scenario is identified by its
//! [`Scenario::name`] (`gen:sl…_s{seed}`), and the same name always
//! yields a byte-identical program — names, not programs, flow through
//! the campaign machinery, and the persistent store dedupes by program
//! fingerprint (knob points that happen to emit identical programs, e.g.
//! any `miss_clustering` at `miss_rate = 0`, share one entry).
//!
//! ## Spec DSL
//!
//! [`GenSpec`] is the declarative layer: a tiny TOML-subset or JSON
//! document giving per-knob value grids plus a seed; [`GenSpec::scenarios`]
//! expands the cartesian product in a fixed knob order. See the README's
//! "Workload atlas" section for the CLI (`repro gen`, `repro atlas`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod spec;

pub use spec::{GenSpec, SPEC_KEYS};

use preexec_analysis::lint_program;
use preexec_isa::{Program, ProgramBuilder, Reg, WORD_BYTES};
use preexec_oracle::diff::{check_run, config_grid, oracle_state};
use preexec_sim::{IntervalSnapshot, SimConfig, SimReport};
use preexec_workloads::util::region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iterations of the generated loop (fixed: scenario size is not a knob,
/// so per-iteration behaviour differences are never diluted by length).
pub const ITERS: u64 = 1024;

/// Words in the L1-resident hot set (512 B).
pub const HOT_WORDS: u64 = 64;

/// Upper bound on [`KnobPoint::footprint`] in words (8 MiB — well past
/// the default 256 KiB L2, and clear of the next data region).
pub const MAX_FOOTPRINT: u64 = 1 << 20;

/// Upper bound on [`KnobPoint::slice_len`].
pub const MAX_SLICE_LEN: u32 = 64;

/// Upper bound on [`KnobPoint::induction_depth`].
pub const MAX_INDUCTION_DEPTH: u32 = 16;

/// The oracle-vs-pipeline configs every kernel must pass to be admitted
/// (by name in `preexec_oracle::diff::config_grid`): the paper-default
/// machine plus the stress config with tiny caches and a 4-entry TLB.
pub const ADMISSION_CONFIGS: [&str; 2] = ["default", "tiny-mem-tlb"];

// Data regions 64/65 keep generated layouts disjoint from every
// hand-written kernel (they use low region numbers).
const IDX_REGION: u64 = 64;
const DATA_REGION: u64 = 65;

// Each slice-chain instruction subtracts 9; the index array pre-adds
// 9*slice_len so the chain lands back on the drawn word index with every
// intermediate value non-negative (logical shifts never see a sign bit).
const SLICE_STEP: i64 = -9;

/// One point in the generator's knob space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KnobPoint {
    /// Dependent ALU instructions between index decode and the problem
    /// load — the length of the backward slice a p-thread must execute.
    pub slice_len: u32,
    /// Self-updates in the induction-variable chain per iteration
    /// (≥ 1; the slicer's induction collapse gets real work at depth > 1).
    pub induction_depth: u32,
    /// Probability an iteration takes the divergent block (`[0, 1]`).
    pub branch_divergence: f64,
    /// Stationary probability an iteration's load hits the cold region
    /// (`[0, 1]`) — the knob behind the kernel's L2 miss rate.
    pub miss_rate: f64,
    /// Temporal burstiness of cold iterations (`[0, 1]`): 0 draws
    /// independently, higher values make cold runs longer at the same
    /// stationary rate.
    pub miss_clustering: f64,
    /// Cold-region size in 8-byte words (`1..=`[`MAX_FOOTPRINT`]).
    pub footprint: u64,
}

impl Default for KnobPoint {
    fn default() -> KnobPoint {
        KnobPoint {
            slice_len: 4,
            induction_depth: 1,
            branch_divergence: 0.0,
            miss_rate: 0.25,
            miss_clustering: 0.0,
            footprint: 1 << 17,
        }
    }
}

impl KnobPoint {
    /// Checks every knob against its documented range.
    pub fn validate(&self) -> Result<(), String> {
        if self.slice_len > MAX_SLICE_LEN {
            return Err(format!("slice_len {} > {MAX_SLICE_LEN}", self.slice_len));
        }
        if self.induction_depth == 0 || self.induction_depth > MAX_INDUCTION_DEPTH {
            return Err(format!(
                "induction_depth {} outside 1..={MAX_INDUCTION_DEPTH}",
                self.induction_depth
            ));
        }
        for (knob, v) in [
            ("branch_divergence", self.branch_divergence),
            ("miss_rate", self.miss_rate),
            ("miss_clustering", self.miss_clustering),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(format!("{knob} {v} outside [0, 1]"));
            }
        }
        if self.footprint == 0 || self.footprint > MAX_FOOTPRINT {
            return Err(format!(
                "footprint {} outside 1..={MAX_FOOTPRINT}",
                self.footprint
            ));
        }
        Ok(())
    }
}

/// A knob point plus the data-layout seed: everything that identifies a
/// generated kernel. The identity is the *name* ([`Scenario::name`]) —
/// campaign cells, journals, and store keys all carry names, and
/// [`build_named`] reconstructs the identical program from one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// The knob point.
    pub knobs: KnobPoint,
    /// Seed for the data layout (index array contents).
    pub seed: u64,
}

impl Scenario {
    /// The canonical name, e.g. `gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s1`.
    /// Floats render in Rust's shortest round-trip form, so
    /// `parse(name).name() == name` always holds.
    pub fn name(&self) -> String {
        let k = &self.knobs;
        format!(
            "gen:sl{}_id{}_bd{}_mr{}_mc{}_fp{}_s{}",
            k.slice_len,
            k.induction_depth,
            k.branch_divergence,
            k.miss_rate,
            k.miss_clustering,
            k.footprint,
            self.seed
        )
    }

    /// Parses a canonical name back into a scenario. Returns `None` for
    /// anything that is not the exact output of [`Scenario::name`]
    /// (non-canonical float spellings are rejected so one scenario never
    /// has two names).
    pub fn parse(name: &str) -> Option<Scenario> {
        let rest = name.strip_prefix("gen:")?;
        let toks: Vec<&str> = rest.split('_').collect();
        if toks.len() != 7 {
            return None;
        }
        let s = Scenario {
            knobs: KnobPoint {
                slice_len: toks[0].strip_prefix("sl")?.parse().ok()?,
                induction_depth: toks[1].strip_prefix("id")?.parse().ok()?,
                branch_divergence: toks[2].strip_prefix("bd")?.parse().ok()?,
                miss_rate: toks[3].strip_prefix("mr")?.parse().ok()?,
                miss_clustering: toks[4].strip_prefix("mc")?.parse().ok()?,
                footprint: toks[5].strip_prefix("fp")?.parse().ok()?,
            },
            seed: toks[6].strip_prefix('s')?.parse().ok()?,
        };
        (s.name() == name).then_some(s)
    }

    /// Checks the knob point ([`KnobPoint::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        self.knobs.validate()
    }
}

/// `true` if `name` carries the generator prefix (`gen:`), whether or not
/// it parses — use [`valid_name`] to also check it resolves.
pub fn is_gen_name(name: &str) -> bool {
    name.starts_with("gen:")
}

/// `true` if `name` is a canonical, in-range scenario name that
/// [`build_named`] will resolve.
pub fn valid_name(name: &str) -> bool {
    Scenario::parse(name).is_some_and(|s| s.validate().is_ok())
}

/// Builds the program for `scenario`. Deterministic: the same scenario
/// always yields a byte-identical program (instructions and image).
pub fn build_scenario(scenario: &Scenario) -> Result<Program, String> {
    scenario.validate()?;
    let k = scenario.knobs;
    let name = scenario.name();
    let idx_base = region(IDX_REGION);
    let data_base = region(DATA_REGION);

    let mut b = ProgramBuilder::new(&name);
    let iv = Reg::new(1); // induction variable / iteration index
    let bound = Reg::new(2);
    let idx_reg = Reg::new(3);
    let data_reg = Reg::new(4);
    let t0 = Reg::new(5); // index-array slot address
    let t1 = Reg::new(6); // entry → slice chain → word index
    let tb = Reg::new(7); // branch bit
    let t2 = Reg::new(8); // problem-load address
    let t3 = Reg::new(9); // loaded word
    let acc = Reg::new(10);
    let acc2 = Reg::new(11);
    let zero = Reg::new(12);

    // Preamble: every register the loop reads is written first, so the
    // use-before-def lint (a warning, but admission requires zero
    // findings) stays clean.
    b.li(acc, 0);
    b.li(acc2, 0);
    b.li(iv, 0);
    b.li(bound, ITERS as i64);
    b.li(idx_reg, idx_base as i64);
    b.li(data_reg, data_base as i64);
    b.li(zero, 0);

    b.label("loop");
    b.shli(t0, iv, 3);
    b.add(t0, t0, idx_reg);
    b.ld(t1, t0, 0); // index-array entry
    b.andi(tb, t1, 1); // branch bit
    b.shri(t1, t1, 1); // word index + 9*slice_len
    for _ in 0..k.slice_len {
        b.addi(t1, t1, SLICE_STEP);
    }
    b.shli(t2, t1, 3);
    b.add(t2, t2, data_reg);
    b.ld(t3, t2, 0); // the problem load
    b.add(acc, acc, t3);
    b.beq(tb, zero, "skip");
    b.addi(acc2, acc2, 1);
    b.xor(acc, acc, t3);
    b.label("skip");
    // Induction chain: net +1 through `induction_depth` self-updates.
    // Identity ops alternate mul/add so no two adjacent immediate-add
    // self-updates survive for the slicer's induction collapse to flag.
    b.addi(iv, iv, 1);
    for j in 1..k.induction_depth {
        if j % 2 == 1 {
            b.muli(iv, iv, 1);
        } else {
            b.addi(iv, iv, 0);
        }
    }
    b.blt(iv, bound, "loop");
    b.halt();

    // Index array: per iteration one entry ((wi + 9*slice_len) << 1) | bit.
    // Exactly three RNG draws per iteration regardless of knob values, so
    // knobs that cannot influence a draw's outcome (any miss_clustering or
    // footprint at miss_rate 0) yield byte-identical images — the store
    // then dedupes those scenarios by program fingerprint.
    let p_stay = k.miss_rate + k.miss_clustering * (1.0 - k.miss_rate);
    let p_enter = if k.miss_rate >= 1.0 {
        1.0
    } else {
        k.miss_rate * (1.0 - p_stay) / (1.0 - k.miss_rate)
    };
    let mut rng = rng_for_seed(scenario.seed);
    let mut cold = false;
    for i in 0..ITERS {
        let u: f64 = rng.gen();
        let threshold = if i == 0 {
            k.miss_rate // start the chain at its stationary distribution
        } else if cold {
            p_stay
        } else {
            p_enter
        };
        cold = u < threshold;
        let wi = if cold {
            HOT_WORDS + rng.gen_range(0..k.footprint)
        } else {
            rng.gen_range(0..HOT_WORDS)
        };
        let ub: f64 = rng.gen();
        let bit = (ub < k.branch_divergence) as u64;
        let entry = ((wi + 9 * k.slice_len as u64) << 1) | bit;
        b.data(idx_base + i * WORD_BYTES, entry);
    }
    // The data region itself stays unwritten: loads architecturally read
    // zero there (oracle and pipeline agree), only the addresses matter.
    Ok(b.build())
}

/// Resolves a scenario name to its program: `Scenario::parse` + bounds
/// check + [`build_scenario`]. `None` for anything that is not a valid
/// canonical name.
pub fn build_named(name: &str) -> Option<Program> {
    let s = Scenario::parse(name)?;
    build_scenario(&s).ok()
}

/// The admission gate: zero lint findings (warnings included) and
/// oracle-vs-pipeline architectural identity on every
/// [`ADMISSION_CONFIGS`] config. Returns the first failure.
pub fn admit(program: &Program) -> Result<(), String> {
    admit_runs(program, 0).map(|_| ())
}

/// One pipeline run the admission gate checked, handed back so a caller
/// can reuse it instead of simulating the same machine again.
#[derive(Clone, Debug)]
pub struct AdmissionRun {
    /// The machine of the [`ADMISSION_CONFIGS`] entry it ran under.
    pub sim: SimConfig,
    /// The run's report.
    pub report: SimReport,
    /// The run's interval log (empty when logging was off).
    pub intervals: Vec<IntervalSnapshot>,
}

/// [`admit`], keeping the checked runs: one per [`ADMISSION_CONFIGS`]
/// entry, in that order, each with its interval log at `log_stride`
/// cycles (`0` turns the log off). The oracle runs once, since
/// architectural state does not depend on the machine.
pub fn admit_runs(program: &Program, log_stride: u64) -> Result<Vec<AdmissionRun>, String> {
    let findings = lint_program(program);
    if !findings.is_empty() {
        let list: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        return Err(format!(
            "{}: {} lint finding(s): {}",
            program.name(),
            list.len(),
            list.join("; ")
        ));
    }
    let failed = |e: String| format!("{}: {e}", program.name());
    let oracle = oracle_state(program, "oracle").map_err(failed)?;
    let grid = config_grid();
    ADMISSION_CONFIGS
        .iter()
        .map(|&want| {
            let (label, sim) = grid
                .iter()
                .find(|(name, _)| *name == want)
                .unwrap_or_else(|| panic!("config grid lost the {want} entry"));
            let (report, intervals) =
                check_run(program, &oracle, &[], sim, label, log_stride).map_err(failed)?;
            Ok(AdmissionRun {
                sim: *sim,
                report,
                intervals,
            })
        })
        .collect()
}

/// Renders a program as parseable kernel text: a name comment, `.data`
/// lines for the image (sorted by address), then one instruction per
/// line. `preexec_isa::parse_program` reads this back verbatim, which is
/// what `repro lint --file` consumes.
pub fn emit_text(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "; {}", program.name());
    let mut words: Vec<(u64, u64)> = program.image().iter().collect();
    words.sort_unstable();
    for (addr, value) in words {
        let _ = writeln!(out, ".data {addr} {value}");
    }
    for (pc, inst) in program.insts().iter().enumerate() {
        let _ = writeln!(out, "{pc}: {inst}");
    }
    out
}

/// Deterministic RNG for a scenario seed. Deliberately a function of the
/// seed alone (not the knobs): knob points that make identical draw-level
/// decisions then emit identical images.
fn rng_for_seed(seed: u64) -> StdRng {
    let mut bytes = [0u8; 32];
    for (i, chunk) in bytes.chunks_mut(8).enumerate() {
        let v = seed ^ (0x67656e5f73656564u64.rotate_left(i as u32 * 17 + 1));
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    StdRng::from_seed(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario {
            knobs: KnobPoint::default(),
            seed: 7,
        }
    }

    #[test]
    fn names_round_trip_and_reject_non_canonical() {
        let s = scenario();
        let name = s.name();
        assert_eq!(name, "gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s7");
        assert_eq!(Scenario::parse(&name), Some(s));
        // Non-canonical float spelling, wrong prefix, trailing junk.
        assert_eq!(
            Scenario::parse("gen:sl4_id1_bd0_mr0.250_mc0_fp131072_s7"),
            None
        );
        assert_eq!(Scenario::parse("sl4_id1_bd0_mr0.25_mc0_fp131072_s7"), None);
        assert_eq!(
            Scenario::parse("gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s7_x1"),
            None
        );
        assert!(valid_name(&name));
        assert!(!valid_name("gen:sl999_id1_bd0_mr0.25_mc0_fp131072_s7"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build_scenario(&scenario()).unwrap();
        let b = build_scenario(&scenario()).unwrap();
        assert_eq!(emit_text(&a), emit_text(&b));
    }

    #[test]
    fn zero_miss_rate_collapses_clustering_and_footprint() {
        let mut a = scenario();
        a.knobs.miss_rate = 0.0;
        let mut b = a;
        b.knobs.miss_clustering = 0.7;
        b.knobs.footprint = 1 << 10;
        let (pa, pb) = (build_scenario(&a).unwrap(), build_scenario(&b).unwrap());
        // Same instructions and image: only the names differ.
        assert_eq!(pa.insts(), pb.insts());
        let ia: Vec<_> = pa.image().iter().collect();
        let ib: Vec<_> = pb.image().iter().collect();
        assert_eq!(ia, ib);
        assert_ne!(pa.name(), pb.name());
    }

    #[test]
    fn miss_rate_controls_cold_fraction() {
        let mut s = scenario();
        s.knobs.miss_rate = 0.5;
        let p = build_scenario(&s).unwrap();
        let cold = p
            .image()
            .iter()
            .filter(|&(_, v)| (v >> 1) - 9 * s.knobs.slice_len as u64 >= HOT_WORDS)
            .count();
        let frac = cold as f64 / ITERS as f64;
        assert!((frac - 0.5).abs() < 0.08, "cold fraction {frac}");
        // And clustering keeps the rate but lengthens runs.
        let mut c = s;
        c.knobs.miss_clustering = 0.9;
        let pc = build_scenario(&c).unwrap();
        let colds: Vec<bool> = pc
            .image()
            .iter()
            .map(|(_, v)| (v >> 1) - 9 * c.knobs.slice_len as u64 >= HOT_WORDS)
            .collect();
        let cold_frac = colds.iter().filter(|&&b| b).count() as f64 / colds.len() as f64;
        // High clustering shrinks the effective sample count (~1024 / 20
        // run length), so the stationary rate is only loosely pinned.
        assert!(
            (cold_frac - 0.5).abs() < 0.2,
            "clustered cold fraction {cold_frac}"
        );
        let runs = colds.windows(2).filter(|w| w[0] != w[1]).count();
        // Independent draws at 0.5 flip ~half the time; 0.9 clustering
        // flips far less.
        assert!(runs < 300, "{runs} transitions is not clustered");
    }

    #[test]
    fn out_of_range_knobs_are_rejected() {
        let mut s = scenario();
        s.knobs.induction_depth = 0;
        assert!(build_scenario(&s).is_err());
        s.knobs.induction_depth = 1;
        s.knobs.miss_rate = 1.5;
        assert!(build_scenario(&s).is_err());
        s.knobs.miss_rate = 0.25;
        s.knobs.footprint = MAX_FOOTPRINT + 1;
        assert!(build_scenario(&s).is_err());
    }

    #[test]
    fn emitted_text_reparses_byte_identically() {
        let p = build_scenario(&scenario()).unwrap();
        let text = emit_text(&p);
        let back = preexec_isa::parse_program(p.name(), &text).expect("reparse");
        assert_eq!(p.insts(), back.insts());
        assert_eq!(emit_text(&p), emit_text(&back));
    }

    #[test]
    fn default_scenario_is_admitted() {
        let p = build_scenario(&scenario()).unwrap();
        admit(&p).unwrap();
    }
}

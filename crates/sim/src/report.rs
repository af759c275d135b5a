//! Simulation results.

use preexec_energy::{AccessCounts, EnergyBreakdown, EnergyConfig};
use preexec_json::impl_json_object;

/// Everything a run of the timing simulator produces: cycle count,
/// architectural progress, pre-execution diagnostics, structure-access
/// counts, and predictor accuracy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Simulated cycles until the program's `halt` committed.
    pub cycles: u64,
    /// Main-thread instructions committed.
    pub committed: u64,
    /// P-instructions dispatched (executed in lightweight mode).
    pub pinsts: u64,
    /// P-threads spawned.
    pub spawns: u64,
    /// Spawns dropped because no thread context was free.
    pub spawns_dropped: u64,
    /// Spawns that occurred on a mispredicted (wrong) path.
    pub spawns_wrong_path: u64,
    /// Main-thread demand loads that missed the L2.
    pub l2_misses_demand: u64,
    /// Demand misses fully covered by a p-thread prefetch (the line was
    /// ready by the time the main thread asked).
    pub covered_full: u64,
    /// Demand misses partially covered (the prefetch was in flight).
    pub covered_partial: u64,
    /// Conditional-branch mispredictions.
    pub mispredicts: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Fetch-time branch predictions taken from p-thread hints (branch
    /// pre-execution, §7).
    pub hints_used: u64,
    /// Hinted predictions that turned out correct.
    pub hints_correct: u64,
    /// Peak count of p-instructions holding a destination register at
    /// once — a proxy for the extra physical registers p-threads need
    /// (the paper reports ~20 suffice even with 8 contexts).
    pub max_pthread_pregs: u64,
    /// Structure-access counts for the energy model.
    pub counts: AccessCounts,
    /// `true` if the run ended by committing `halt` (vs. the cycle cap).
    pub finished: bool,
    /// Host wall-clock nanoseconds the simulation took — the per-stage
    /// observability hook the experiment engine aggregates. Excluded from
    /// the JSON form (and so from golden snapshots): it varies run to run
    /// while every simulated quantity above is deterministic.
    pub wall_nanos: u64,
}

impl SimReport {
    /// Committed instructions per cycle (main thread only).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of spawns whose p-thread covered at least one miss.
    pub fn usefulness(&self) -> f64 {
        if self.spawns == 0 {
            0.0
        } else {
            (self.covered_full + self.covered_partial) as f64 / self.spawns as f64
        }
    }

    /// P-instruction count as a fraction of committed instructions.
    pub fn pinst_overhead(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.pinsts as f64 / self.committed as f64
        }
    }

    /// The energy breakdown of this run under `cfg`.
    pub fn energy(&self, cfg: &EnergyConfig) -> EnergyBreakdown {
        EnergyBreakdown::compute(&self.counts, self.cycles, cfg)
    }

    /// Total energy of this run under `cfg`.
    pub fn total_energy(&self, cfg: &EnergyConfig) -> f64 {
        self.energy(cfg).total()
    }

    /// Energy-delay product (energy × cycles).
    pub fn ed(&self, cfg: &EnergyConfig) -> f64 {
        self.total_energy(cfg) * self.cycles as f64
    }

    /// Energy-delay² product.
    pub fn ed2(&self, cfg: &EnergyConfig) -> f64 {
        self.ed(cfg) * self.cycles as f64
    }
}

// `wall_nanos` stays off the wire (see its field docs) and decodes as 0.
impl_json_object!(SimReport {
    cycles,
    committed,
    pinsts,
    spawns,
    spawns_dropped,
    spawns_wrong_path,
    l2_misses_demand,
    covered_full,
    covered_partial,
    mispredicts,
    branches,
    hints_used,
    hints_correct,
    max_pthread_pregs,
    counts,
    finished,
} decode, local = wall_nanos);

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_json::ToJson;

    fn report() -> SimReport {
        SimReport {
            cycles: 1000,
            committed: 1500,
            pinsts: 300,
            spawns: 100,
            covered_full: 40,
            covered_partial: 20,
            ..SimReport::default()
        }
    }

    #[test]
    fn derived_ratios() {
        let r = report();
        assert!((r.ipc() - 1.5).abs() < 1e-12);
        assert!((r.usefulness() - 0.6).abs() < 1e-12);
        assert!((r.pinst_overhead() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_guards() {
        let r = SimReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.usefulness(), 0.0);
        assert_eq!(r.pinst_overhead(), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let r = report();
        let s = r.to_json().to_string();
        let back = SimReport::from_json(&preexec_json::parse(&s).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn wall_nanos_is_not_serialized() {
        let mut r = report();
        r.wall_nanos = 12345;
        let s = r.to_json().to_string();
        assert!(!s.contains("wall_nanos"), "{s}");
        assert_eq!(
            SimReport::from_json(&preexec_json::parse(&s).unwrap())
                .unwrap()
                .wall_nanos,
            0
        );
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        // Distinct values everywhere so a swapped or dropped key shows up.
        let r = SimReport {
            cycles: 101,
            committed: 102,
            pinsts: 103,
            spawns: 104,
            spawns_dropped: 105,
            spawns_wrong_path: 106,
            l2_misses_demand: 107,
            covered_full: 108,
            covered_partial: 109,
            mispredicts: 110,
            branches: 111,
            hints_used: 112,
            hints_correct: 113,
            max_pthread_pregs: 114,
            counts: AccessCounts {
                imem_main: 1,
                imem_pth: 2,
                dmem_main: 3,
                dmem_pth: 4,
                l2_main: 5,
                l2_pth: 6,
                dispatch_main: 7,
                dispatch_pth: 8,
                alu_main: 9,
                alu_pth: 10,
                rob_bpred: 11,
            },
            finished: true,
            wall_nanos: 0,
        };
        let s = r.to_json().to_string();
        let back = SimReport::from_json(&preexec_json::parse(&s).unwrap()).unwrap();
        // Serializing the round-tripped report must reproduce the bytes:
        // with every field distinct this pins the whole mapping.
        assert_eq!(back.to_json().to_string(), s);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        // A partial report (a truncated store entry, say) must not read
        // as a run whose missing counters were 0.
        let partial = |text: &str| SimReport::from_json(&preexec_json::parse(text).unwrap());
        let err = partial("{\"cycles\":7}").unwrap_err();
        assert!(
            err.contains("SimReport") && err.contains("committed"),
            "{err}"
        );
        let mut full = report().to_json();
        if let preexec_json::Json::Object(fields) = &mut full {
            let counts = fields.iter_mut().find(|(k, _)| k == "counts").unwrap();
            counts.1 = preexec_json::parse("{\"imem_main\":1}").unwrap();
        }
        let err = SimReport::from_json(&full).unwrap_err();
        assert!(
            err.contains("AccessCounts") && err.contains("imem_pth"),
            "{err}"
        );
        assert!(partial("{\"cycles\":7,\"bogus\":1}").is_err());
    }

    #[test]
    fn usefulness_edge_cases() {
        // Spawns but zero coverage: a well-defined 0, not NaN.
        let r = SimReport {
            spawns: 50,
            ..SimReport::default()
        };
        assert_eq!(r.usefulness(), 0.0);
        // Coverage with zero spawns (inconsistent input): still guarded.
        let r = SimReport {
            covered_full: 3,
            covered_partial: 1,
            ..SimReport::default()
        };
        assert_eq!(r.usefulness(), 0.0);
        // Coverage can exceed spawns (one p-thread covering many misses).
        let r = SimReport {
            spawns: 2,
            covered_full: 5,
            covered_partial: 1,
            ..SimReport::default()
        };
        assert!((r.usefulness() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pinst_overhead_edge_cases() {
        // Zero p-instructions: exactly 0 overhead.
        let r = SimReport {
            committed: 1234,
            ..SimReport::default()
        };
        assert_eq!(r.pinst_overhead(), 0.0);
        // P-instructions with zero retired (run died before committing
        // anything): guarded to 0, not infinity.
        let r = SimReport {
            pinsts: 777,
            ..SimReport::default()
        };
        assert_eq!(r.pinst_overhead(), 0.0);
    }

    #[test]
    fn ed_metrics_multiply_delay() {
        let r = report();
        let cfg = EnergyConfig::default();
        let e = r.total_energy(&cfg);
        assert!((r.ed(&cfg) - e * 1000.0).abs() < 1e-6);
        assert!((r.ed2(&cfg) - e * 1_000_000.0).abs() < 1e-3);
    }
}

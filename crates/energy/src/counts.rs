//! Raw structure-access counters produced by the timing simulator.

use preexec_json::impl_json_object;
use std::ops::{Add, AddAssign};

/// Per-structure access counts for one simulated run, split between the
/// main thread and p-threads so the paper's striped/solid energy bars can
/// be reconstructed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AccessCounts {
    /// Instruction-cache (+ I-TLB) block accesses by main-thread fetch.
    pub imem_main: u64,
    /// Instruction-cache block accesses by p-thread sequencing.
    pub imem_pth: u64,
    /// D-cache/D-TLB/LSQ accesses by main-thread loads and stores.
    pub dmem_main: u64,
    /// D-cache probes by p-thread loads.
    pub dmem_pth: u64,
    /// L2 accesses caused by the main thread (demand misses, writebacks,
    /// instruction misses).
    pub l2_main: u64,
    /// L2 accesses caused by p-thread loads.
    pub l2_pth: u64,
    /// Main-thread instructions through decode/rename/window/regfile/bus.
    pub dispatch_main: u64,
    /// P-instructions through the same structures.
    pub dispatch_pth: u64,
    /// Main-thread ALU operations executed.
    pub alu_main: u64,
    /// P-thread ALU operations executed.
    pub alu_pth: u64,
    /// Main-thread instructions charged ROB + branch-predictor energy
    /// (p-instructions never touch either structure).
    pub rob_bpred: u64,
}

impl AccessCounts {
    /// Creates zeroed counters.
    pub fn new() -> AccessCounts {
        AccessCounts::default()
    }

    /// Total p-instruction activity indicator (dispatched p-instructions).
    pub fn pinsts(&self) -> u64 {
        self.dispatch_pth
    }
}

impl Add for AccessCounts {
    type Output = AccessCounts;

    fn add(self, rhs: AccessCounts) -> AccessCounts {
        AccessCounts {
            imem_main: self.imem_main + rhs.imem_main,
            imem_pth: self.imem_pth + rhs.imem_pth,
            dmem_main: self.dmem_main + rhs.dmem_main,
            dmem_pth: self.dmem_pth + rhs.dmem_pth,
            l2_main: self.l2_main + rhs.l2_main,
            l2_pth: self.l2_pth + rhs.l2_pth,
            dispatch_main: self.dispatch_main + rhs.dispatch_main,
            dispatch_pth: self.dispatch_pth + rhs.dispatch_pth,
            alu_main: self.alu_main + rhs.alu_main,
            alu_pth: self.alu_pth + rhs.alu_pth,
            rob_bpred: self.rob_bpred + rhs.rob_bpred,
        }
    }
}

impl AddAssign for AccessCounts {
    fn add_assign(&mut self, rhs: AccessCounts) {
        *self = *self + rhs;
    }
}

impl_json_object!(AccessCounts {
    imem_main,
    imem_pth,
    dmem_main,
    dmem_pth,
    l2_main,
    l2_pth,
    dispatch_main,
    dispatch_pth,
    alu_main,
    alu_pth,
    rob_bpred,
} decode);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_fieldwise() {
        let a = AccessCounts {
            imem_main: 1,
            l2_pth: 2,
            dispatch_pth: 3,
            ..AccessCounts::new()
        };
        let b = AccessCounts {
            imem_main: 10,
            alu_main: 5,
            ..AccessCounts::new()
        };
        let c = a + b;
        assert_eq!(c.imem_main, 11);
        assert_eq!(c.l2_pth, 2);
        assert_eq!(c.alu_main, 5);
        assert_eq!(c.pinsts(), 3);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = AccessCounts {
            dmem_main: 4,
            ..AccessCounts::new()
        };
        let b = AccessCounts {
            dmem_main: 6,
            rob_bpred: 1,
            ..AccessCounts::new()
        };
        a += b;
        assert_eq!(a.dmem_main, 10);
        assert_eq!(a.rob_bpred, 1);
    }
}

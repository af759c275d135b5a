//! Criticality-based load cost functions.

use preexec_isa::Pc;
use preexec_json::impl_json_object;

/// The latency-reduction → execution-time-reduction function for one
/// static problem load, per §4.1 of the paper.
///
/// For a single dynamic miss the true function is the identity up to the
/// point where a secondary critical path forms, then flat; averaging over
/// all instances (and over the pessimistic/optimistic interaction-cost
/// estimates) smooths it. The model samples at 25/50/75/100% of the
/// tolerable latency and interpolates linearly between samples, exactly as
/// PTHSEL+E's analyzer does.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadCost {
    pc: Pc,
    misses: u64,
    tol_max: f64,
    /// `(tolerated cycles, per-miss execution-time reduction)`, ascending
    /// in the first coordinate, starting at `(0, 0)`.
    points: Vec<(f64, f64)>,
}

// The written form carries every field, so a decoded cost is the same
// function bit for bit (`preexec_json` writes floats in shortest
// round-trip form).
impl_json_object!(LoadCost {
    pc,
    misses,
    tol_max,
    points,
} decode, check = LoadCost::check);

impl LoadCost {
    /// A cost function that is identically zero (a load with no misses).
    pub fn flat(pc: Pc, misses: u64, tol_max: f64) -> LoadCost {
        LoadCost {
            pc,
            misses,
            tol_max,
            points: vec![(0.0, 0.0)],
        }
    }

    /// The classic PTHSEL assumption: one cycle of latency tolerance is
    /// one cycle of execution time, with no saturation.
    pub fn identity(pc: Pc, misses: u64, tol_max: f64) -> LoadCost {
        LoadCost {
            pc,
            misses,
            tol_max,
            points: vec![(0.0, 0.0), (tol_max, tol_max)],
        }
    }

    /// Builds from sampled `(tolerated cycles, per-miss gain)` points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or not ascending in the first
    /// coordinate.
    pub fn from_points(pc: Pc, misses: u64, tol_max: f64, points: Vec<(f64, f64)>) -> LoadCost {
        let cost = LoadCost {
            pc,
            misses,
            tol_max,
            points,
        };
        if let Err(e) = cost.check() {
            panic!("{e}");
        }
        cost
    }

    /// The rules [`LoadCost::from_points`] enforces, also run on every
    /// decoded cost: at least one sample, ascending in tolerated cycles.
    fn check(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("LoadCost: need at least one sample".into());
        }
        if self.points.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err("LoadCost: samples must ascend in tolerated cycles".into());
        }
        Ok(())
    }

    /// Static PC of the load this function describes.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Number of dynamic L2 misses observed for this load.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The `(tolerated cycles, per-miss gain)` samples, ascending in
    /// tolerated cycles.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The full tolerable latency of one miss in cycles.
    pub fn tolerable(&self) -> f64 {
        self.tol_max
    }

    /// Per-miss execution-time reduction when `tolerated` cycles of the
    /// miss latency are hidden. Linear interpolation between samples; flat
    /// beyond the last sample; zero at or below zero tolerance.
    pub fn gain(&self, tolerated: f64) -> f64 {
        if tolerated <= 0.0 || self.points.is_empty() {
            return 0.0;
        }
        let last = *self.points.last().expect("nonempty");
        if tolerated >= last.0 {
            return last.1;
        }
        // Find the surrounding pair.
        let mut prev = self.points[0];
        for &p in &self.points[1..] {
            if tolerated <= p.0 {
                let span = p.0 - prev.0;
                if span <= f64::EPSILON {
                    return p.1;
                }
                let f = (tolerated - prev.0) / span;
                return prev.1 + f * (p.1 - prev.1);
            }
            prev = p;
        }
        last.1
    }

    /// Marginal gain per cycle near full tolerance — used to compare how
    /// saturated a load's criticality is.
    pub fn saturation(&self) -> f64 {
        if self.tol_max <= 0.0 {
            return 0.0;
        }
        self.gain(self.tol_max) / self.tol_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_the_classic_model() {
        let c = LoadCost::identity(7, 10, 200.0);
        assert_eq!(c.gain(0.0), 0.0);
        assert_eq!(c.gain(50.0), 50.0);
        assert_eq!(c.gain(200.0), 200.0);
        assert_eq!(c.gain(400.0), 200.0); // flat beyond full tolerance
        assert_eq!(c.saturation(), 1.0);
    }

    #[test]
    fn flat_is_zero_everywhere() {
        let c = LoadCost::flat(7, 0, 200.0);
        assert_eq!(c.gain(100.0), 0.0);
        assert_eq!(c.saturation(), 0.0);
    }

    #[test]
    fn interpolation_between_samples() {
        let c = LoadCost::from_points(1, 5, 200.0, vec![(0.0, 0.0), (100.0, 80.0), (200.0, 100.0)]);
        assert!((c.gain(50.0) - 40.0).abs() < 1e-9);
        assert!((c.gain(150.0) - 90.0).abs() < 1e-9);
        assert_eq!(c.gain(500.0), 100.0);
    }

    #[test]
    fn negative_tolerance_is_zero() {
        let c = LoadCost::identity(1, 5, 200.0);
        assert_eq!(c.gain(-10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn non_ascending_points_panic() {
        let _ = LoadCost::from_points(1, 5, 200.0, vec![(0.0, 0.0), (100.0, 1.0), (50.0, 2.0)]);
    }

    #[test]
    fn json_round_trip_is_exact_and_checked() {
        use preexec_json::{parse, ToJson};
        let c = LoadCost::from_points(3, 8, 180.0, vec![(0.0, -0.0), (45.0, 12.5)]);
        let back = LoadCost::from_json(&parse(&c.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, c);
        assert!(back.points[0].1.is_sign_negative());
        let descending = r#"{"pc":3,"misses":8,"tol_max":1.0,"points":[[2.0,0.0],[1.0,0.0]]}"#;
        assert!(LoadCost::from_json(&parse(descending).unwrap())
            .unwrap_err()
            .contains("ascend"));
        let empty = r#"{"pc":3,"misses":8,"tol_max":1.0,"points":[]}"#;
        assert!(LoadCost::from_json(&parse(empty).unwrap()).is_err());
    }

    #[test]
    fn accessors() {
        let c = LoadCost::identity(9, 42, 150.0);
        assert_eq!(c.pc(), 9);
        assert_eq!(c.misses(), 42);
        assert_eq!(c.tolerable(), 150.0);
    }
}

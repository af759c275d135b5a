//! Composite latency/energy targets — equations C1–C4 of Table 2.
//!
//! `CADVagg` measures how much a p-thread reduces the composite quantity
//! `L^W · E^(1−W)` relative to the unoptimized program's `L0` and `E0`:
//! `W = 1` optimizes latency, `W = 0` energy, `W = 0.5` energy-delay (ED),
//! and `W = 0.67` approximately ED².

use crate::AppParams;

/// The composite-advantage evaluator.
#[derive(Clone, Copy, Debug)]
pub struct CompositeModel {
    app: AppParams,
    w: f64,
    /// `L0^W · E0^(1−W)`, fixed by `app` and `w`.
    baseline: f64,
}

impl CompositeModel {
    /// Creates the evaluator with composition weight `w` in `[0, 1]`
    /// (equation C2).
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside `[0, 1]` or the application baselines are
    /// non-positive.
    pub fn new(app: AppParams, w: f64) -> CompositeModel {
        assert!((0.0..=1.0).contains(&w), "weight must be in [0,1]");
        assert!(app.l0 > 0.0 && app.e0 > 0.0, "baselines must be positive");
        let baseline = app.l0.powf(w) * app.e0.powf(1.0 - w);
        CompositeModel { app, w, baseline }
    }

    /// The composition weight.
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// The unoptimized composite value `L0^W · E0^(1−W)`.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Equation C1/C3: the aggregate composite advantage of a p-thread (or
    /// of a set, since `LADVagg` and `EADVagg` add directly) with the given
    /// latency and energy advantages.
    pub fn cadv_agg(&self, ladv_agg: f64, eadv_agg: f64) -> f64 {
        let l = (self.app.l0 - ladv_agg).max(f64::MIN_POSITIVE);
        let e = (self.app.e0 - eadv_agg).max(f64::MIN_POSITIVE);
        self.baseline - l.powf(self.w) * e.powf(1.0 - self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> AppParams {
        AppParams {
            l0: 1_000_000.0,
            e0: 400_000.0,
            bw_seq_mt: 1.0,
        }
    }

    #[test]
    fn w1_reduces_to_latency_advantage() {
        let m = CompositeModel::new(app(), 1.0);
        assert!((m.cadv_agg(5000.0, -1e9) - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn w0_reduces_to_energy_advantage() {
        let m = CompositeModel::new(app(), 0.0);
        assert!((m.cadv_agg(-1e9, 300.0) - 300.0).abs() < 1e-6);
    }

    #[test]
    fn ed_trades_latency_for_energy() {
        let m = CompositeModel::new(app(), 0.5);
        // A p-thread that gains 1% latency but costs 0.5% energy still
        // improves ED.
        let good = m.cadv_agg(10_000.0, -2_000.0);
        assert!(good > 0.0);
        // One that gains 0.1% latency but costs 1% energy hurts ED.
        let bad = m.cadv_agg(1_000.0, -4_000.0);
        assert!(bad < 0.0);
    }

    #[test]
    fn baseline_is_geometric_mean_at_half() {
        let m = CompositeModel::new(app(), 0.5);
        let expected = (1_000_000.0f64 * 400_000.0).sqrt();
        assert!((m.baseline() - expected).abs() < 1e-6);
    }

    /// C1–C4 against hand-computed values at the four paper weights
    /// (`W = 1` latency, `0.5` ED, `0.67` ≈ ED², `0` energy), with
    /// `L0 = 10^6`, `E0 = 4·10^5`, `LADVagg = 10^4`, `EADVagg = 2·10^3`:
    /// `CADVagg = L0^W·E0^(1−W) − (L0−LADVagg)^W·(E0−EADVagg)^(1−W)`.
    #[test]
    fn c1_through_c4_match_hand_computation() {
        let cases = [
            // (W, baseline, cadv_agg) — computed by hand/bc.
            (0.0, 400_000.0, 2_000.0),
            (0.5, 632_455.5320336759, 4_745.407852139324),
            (0.67, 739_060.1692542803, 6_173.209841789096),
            (1.0, 1_000_000.0, 10_000.0),
        ];
        for (w, baseline, cadv) in cases {
            let m = CompositeModel::new(app(), w);
            assert!(
                (m.baseline() - baseline).abs() < 1e-6 * baseline,
                "baseline at W={w}"
            );
            let got = m.cadv_agg(10_000.0, 2_000.0);
            assert!(
                (got - cadv).abs() < 1e-6 * cadv,
                "cadv at W={w}: got {got}, want {cadv}"
            );
        }
    }

    #[test]
    fn zero_advantage_is_zero() {
        for w in [0.0, 0.5, 0.67, 1.0] {
            let m = CompositeModel::new(app(), w);
            assert!(m.cadv_agg(0.0, 0.0).abs() < 1e-9);
        }
    }

    #[test]
    fn monotone_in_both_arguments() {
        let m = CompositeModel::new(app(), 0.67);
        let base = m.cadv_agg(1000.0, 100.0);
        assert!(m.cadv_agg(2000.0, 100.0) > base);
        assert!(m.cadv_agg(1000.0, 200.0) > base);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn out_of_range_weight_panics() {
        let _ = CompositeModel::new(app(), 1.5);
    }

    #[test]
    fn overshooting_baseline_saturates_instead_of_nan() {
        let m = CompositeModel::new(app(), 0.5);
        let v = m.cadv_agg(2_000_000.0, 800_000.0);
        assert!(v.is_finite());
        assert!(v > 0.0);
    }
}

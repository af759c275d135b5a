//! `benchmark compare A B`: applies the bounds in `BENCHMARK.json` to two
//! result sets. A result set is a directory holding `<workload>.jsonl`,
//! one result line per run (as `benchmark repeat` writes them).

use crate::stats::{median, quartiles, spread};
use preexec_json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// The repository's `BENCHMARK.json`, as this binary was built with it.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

/// How set B compares with set A on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Improved,
    /// The medians are within the bound of each other.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's spread exceeds the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. `bound` is the share of A's median by which a
/// metric may move; a set whose spread (IQR over median) exceeds it is
/// unresolved unless every run of B reads better than every run of A by
/// more than the bound.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() || median(a) == 0.0 {
        return Verdict::Unresolved;
    }
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let gain = sign * (median(b) - median(a)) / median(a).abs();
    let key = |x: f64| sign * x;
    let worst_b = b.iter().copied().map(key).fold(f64::INFINITY, f64::min);
    let best_a = a.iter().copied().map(key).fold(f64::NEG_INFINITY, f64::max);
    if spread(a) > bound || spread(b) > bound {
        return if worst_b > best_a && gain > bound {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Regressed
    } else if gain > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The result lines of one workload in a set, one per run (none when the
/// set has no file for it).
fn load(dir: &Path, workload: &str) -> Result<Vec<Json>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return Ok(Vec::new()),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| preexec_json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn errors(runs: &[Json]) -> (u64, u64, usize) {
    let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
    let failed = runs.iter().map(|r| field(r, "failed")).sum();
    let attempted = runs.iter().map(|r| field(r, "attempted")).sum();
    let incorrect = runs
        .iter()
        .filter(|r| r.get("correct").and_then(Json::as_bool) != Some(true))
        .count();
    (failed, attempted, incorrect)
}

fn describe(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4}, {q3:.4}] n={}", median(xs), xs.len()),
        None => format!("{:.4} n={}", median(xs), xs.len()),
    }
}

/// Compares result sets `a` and `b` under the end-to-end bounds of
/// `spec` (the parsed `BENCHMARK.json`). Returns the report and the
/// number of pairs judged regressed or improved.
pub fn compare(spec: &Json, a: &Path, b: &Path) -> Result<(String, usize), String> {
    let list = |k: &str| {
        spec.get(k)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("spec has no {k:?} list"))
    };
    let mut report = String::new();
    let mut moved = 0;
    for w in list("workloads")? {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let (ra, rb) = (load(a, workload)?, load(b, workload)?);
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let (fa, aa, ia) = errors(&ra);
        let (fb, ab, ib) = errors(&rb);
        let _ = writeln!(
            report,
            "{workload}: A {fa}/{aa} ops failed, {ia} incorrect runs; B {fb}/{ab} ops failed, {ib} incorrect runs"
        );
        for m in list("end_to_end")? {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (values(&ra, name), values(&rb, name));
            let verdict = judge(&va, &vb, higher, bound);
            if matches!(verdict, Verdict::Improved | Verdict::Regressed) {
                moved += 1;
            }
            let change = 100.0 * (median(&vb) - median(&va)) / median(&va).abs();
            let _ = writeln!(
                report,
                "  {name:<16} A {}  B {}  {change:+.2}% (bound {:.0}%, spreads {:.2}% / {:.2}%)  {}",
                describe(&va),
                describe(&vb),
                bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                verdict.label(),
            );
        }
    }
    if report.is_empty() {
        return Err(format!(
            "no workload has results in both {} and {}",
            a.display(),
            b.display()
        ));
    }
    Ok((report, moved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.8];
        assert_eq!(judge(&a, &same, false, 0.05), Verdict::Unchanged);
        assert_eq!(judge(&a, &faster, false, 0.05), Verdict::Improved);
        assert_eq!(judge(&a, &faster, true, 0.05), Verdict::Regressed);
        assert_eq!(judge(&a, &faster, false, 0.2), Verdict::Unchanged);
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_fully_separated() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(judge(&a, &b, false, 0.05), Verdict::Unresolved);
        let far = [10.0, 12.0, 14.0, 11.0, 13.0];
        assert_eq!(judge(&a, &far, false, 0.05), Verdict::Improved);
        assert_eq!(judge(&a, &[], false, 0.05), Verdict::Unresolved);
    }
}

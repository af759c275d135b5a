//! Order statistics behind every reported number: nearest-rank
//! percentiles, medians and quartiles.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p·n / 100)`, in integer arithmetic so no float rounding can move
/// a rank.
pub fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (1–100) of `samples`: the smallest sample
/// with at least `p`% of all samples at or below it. 0 when empty.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    sorted(samples)[rank(p, samples.len()) - 1]
}

/// The highest whole percentile that still has at least ten samples
/// beyond its nearest rank, or `None` below eleven samples. 50 samples
/// give p80; 900 give p98.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100).rev().find(|&p| n >= 11 && n - rank(p, n) >= 10)
}

/// The median (mean of the middle two for an even count). 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones computed from the same values in Python. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Inter-quartile range as a share of the median: the run-to-run spread
/// a bound is judged against. 0 for fewer than two samples.
pub fn spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) if median(samples) != 0.0 => (q3 - q1) / median(samples).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 5.0);
        assert_eq!(percentile(&xs, 51), 6.0);
        assert_eq!(percentile(&xs, 100), 10.0);
        assert_eq!(percentile(&xs, 1), 1.0);
        assert_eq!(percentile(&[3.0], 98), 3.0);
        assert_eq!(percentile(&[], 50), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50), 5.0);
    }

    #[test]
    fn ranks_use_exact_integer_arithmetic() {
        // 0.98 · 900 is not exact in binary floating point; the rank is.
        assert_eq!(rank(98, 900), 882);
        assert_eq!(rank(80, 50), 40);
        assert_eq!(rank(80, 51), 41);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(900), Some(98));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        for n in 11..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(p + 1, n) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}

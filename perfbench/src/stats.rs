//! Order statistics the benchmark reports: medians, and the tail
//! percentile rule — the highest percentile that still has at least ten
//! samples beyond it, reported together with the sample count.

/// Percentiles the tail rule tries, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for even counts);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A distribution's summary: median, tail percentile and sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub p50: f64,
    /// Which percentile `tail` is (see [`summarize`]).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank percentile of sorted `v`: the smallest value with at
/// least `pct`% of the samples at or below it. Returns the value and how
/// many samples lie strictly beyond its rank.
fn nearest_rank(v: &[f64], pct: f64) -> (f64, usize) {
    // The slack keeps float error in `pct · n` from rounding a whole rank
    // up (99.9% of 10 000 is 9990, not 9991).
    let rank = (pct * v.len() as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    (v[rank - 1], v.len() - rank)
}

/// Summarizes `samples`. The tail is the highest of 99.9, 99, 95, 90, 75
/// and 50 that has at least ten samples beyond its rank; with fewer
/// samples than that it falls back to the median. `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = median(&v);
    let (tail_pct, tail) = TAIL_CANDIDATES
        .iter()
        .find_map(|&pct| {
            let (value, beyond) = nearest_rank(&v, pct);
            (beyond >= TAIL_BEYOND).then_some((pct, value))
        })
        .unwrap_or((50.0, p50));
    Some(Summary { p50, tail_pct, tail, n: v.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has rank 990 and exactly 10 beyond it.
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.n), (99.0, 990.0, 1000));
        // 999 samples: p99 has only 9 beyond, so p95 (rank 950) is next.
        let s = summarize(&ramp(999)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.n), (95.0, 950.0, 999));
        // 10 000 samples reach p99.9.
        assert_eq!(summarize(&ramp(10_000)).unwrap().tail_pct, 99.9);
        // Too few samples for any percentile: the median stands in.
        let s = summarize(&ramp(15)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.p50, s.n), (50.0, 8.0, 8.0, 15));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| ((i * 7919) % 200) as f64).collect();
        let a = summarize(&v).unwrap();
        v.reverse();
        assert_eq!(a, summarize(&v).unwrap());
        assert_eq!((a.tail_pct, a.tail, a.n), (95.0, 189.0, 200));
    }
}

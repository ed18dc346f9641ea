//! The exponential mechanism (McSherry & Talwar, FOCS 2007).
//!
//! Selects a candidate `o` with probability proportional to
//! `exp(ε · q(D, o) / (2 Δq))`. PrivGraph uses it to assign nodes to
//! communities privately; PrivHRG's MCMC targets an exponential-mechanism
//! stationary distribution over dendrograms.

use rand::Rng;

/// Samples an index into `scores` with probability proportional to
/// `exp(ε · scoreᵢ / (2 Δq))`, where `sensitivity` is the quality-function
/// sensitivity Δq.
///
/// Implemented with the Gumbel-max trick, which is numerically stable for
/// arbitrarily large score magnitudes (no overflowing `exp`) and needs only
/// one pass.
///
/// # Panics
/// Panics if `scores` is empty, or if `ε ≤ 0` or `sensitivity ≤ 0`.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    scores: &[f64],
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> usize {
    assert!(!scores.is_empty(), "exponential mechanism needs at least one candidate");
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    assert!(sensitivity > 0.0, "sensitivity must be positive, got {sensitivity}");
    let factor = epsilon / (2.0 * sensitivity);
    let mut best = 0usize;
    let mut best_key = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gumbel = -(-u.ln()).ln();
        let key = factor * s + gumbel;
        if key > best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Exponential mechanism over a *sparse* score vector: `total` candidates
/// of which only `nonzero` (index, score) pairs have non-zero quality;
/// all others implicitly score 0.
///
/// Exactly equivalent to densifying the scores and calling
/// [`exponential_mechanism`], but runs in `O(|nonzero|)` — the form
/// PrivGraph's per-node community adjustment needs when the candidate set
/// is large (e.g. one community per node initially).
///
/// # Panics
/// Panics if `total == 0`, any index is out of range, `ε ≤ 0`, or
/// `sensitivity ≤ 0`.
pub fn exponential_mechanism_sparse<R: Rng + ?Sized>(
    nonzero: &[(usize, f64)],
    total: usize,
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> usize {
    assert!(total > 0, "exponential mechanism needs at least one candidate");
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    assert!(sensitivity > 0.0, "sensitivity must be positive, got {sensitivity}");
    let factor = epsilon / (2.0 * sensitivity);
    // Stabilise with the max exponent (zero-score candidates have exp 0).
    let max_exp = nonzero.iter().map(|&(_, s)| factor * s).fold(0.0f64, f64::max);
    let zero_count = total - nonzero.len();
    let zero_mass = zero_count as f64 * (-max_exp).exp();
    let masses: Vec<f64> = nonzero
        .iter()
        .map(|&(i, s)| {
            assert!(i < total, "candidate index {i} out of range {total}");
            (factor * s - max_exp).exp()
        })
        .collect();
    let total_mass = zero_mass + masses.iter().sum::<f64>();
    let mut pick = rng.gen_range(0.0..total_mass);
    for (&(i, _), &m) in nonzero.iter().zip(&masses) {
        if pick < m {
            return i;
        }
        pick -= m;
    }
    // Landed in the zero-score mass: uniform among candidates not listed.
    // Draw until an unlisted index comes up (listed indices are few).
    let listed: std::collections::HashSet<usize> = nonzero.iter().map(|&(i, _)| i).collect();
    if listed.len() >= total {
        // All candidates listed; numerical slack pushed us past the end.
        return nonzero.last().expect("nonzero non-empty when covering all").0;
    }
    loop {
        let i = rng.gen_range(0..total);
        if !listed.contains(&i) {
            return i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prefers_high_scores() {
        let mut rng = StdRng::seed_from_u64(20);
        let scores = [0.0, 0.0, 10.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[exponential_mechanism(&scores, 1.0, 2.0, &mut rng)] += 1;
        }
        assert!(counts[2] > 9_500, "counts {counts:?}");
    }

    #[test]
    fn empirical_probabilities_match_theory() {
        let mut rng = StdRng::seed_from_u64(21);
        let scores = [0.0, 1.0];
        let (eps, sens) = (2.0, 1.0);
        let mut hi = 0usize;
        let n = 100_000;
        for _ in 0..n {
            if exponential_mechanism(&scores, sens, eps, &mut rng) == 1 {
                hi += 1;
            }
        }
        // P(1) = e^(ε/2Δ) / (1 + e^(ε/2Δ)) = e / (1 + e) ≈ 0.731.
        let expected = (eps / (2.0 * sens)).exp() / (1.0 + (eps / (2.0 * sens)).exp());
        let observed = hi as f64 / n as f64;
        assert!((observed - expected).abs() < 0.01, "{observed} vs {expected}");
    }

    #[test]
    fn uniform_when_scores_equal() {
        let mut rng = StdRng::seed_from_u64(22);
        let scores = [5.0; 4];
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[exponential_mechanism(&scores, 1.0, 1.0, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn stable_for_huge_scores() {
        let mut rng = StdRng::seed_from_u64(23);
        // Naive exp() would overflow; Gumbel-max must not.
        let scores = [1e308, 1e308 - 1.0];
        let i = exponential_mechanism(&scores, 1.0, 1.0, &mut rng);
        assert!(i < 2);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        let mut rng = StdRng::seed_from_u64(24);
        exponential_mechanism(&[], 1.0, 1.0, &mut rng);
    }

    #[test]
    fn sparse_matches_dense_distribution() {
        let mut rng = StdRng::seed_from_u64(25);
        // 5 candidates: index 1 scores 2.0, index 3 scores 1.0, rest 0.
        let dense = [0.0, 2.0, 0.0, 1.0, 0.0];
        let sparse = [(1usize, 2.0f64), (3, 1.0)];
        let trials = 60_000;
        let mut dense_counts = [0usize; 5];
        let mut sparse_counts = [0usize; 5];
        for _ in 0..trials {
            dense_counts[exponential_mechanism(&dense, 1.0, 2.0, &mut rng)] += 1;
            sparse_counts[exponential_mechanism_sparse(&sparse, 5, 1.0, 2.0, &mut rng)] += 1;
        }
        for i in 0..5 {
            let (d, s) =
                (dense_counts[i] as f64 / trials as f64, sparse_counts[i] as f64 / trials as f64);
            assert!((d - s).abs() < 0.012, "index {i}: dense {d} sparse {s}");
        }
    }

    #[test]
    fn sparse_all_zero_scores_uniform() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            counts[exponential_mechanism_sparse(&[], 4, 1.0, 1.0, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5_000.0).abs() < 400.0, "{counts:?}");
        }
    }

    #[test]
    fn sparse_huge_candidate_set_is_fast() {
        let mut rng = StdRng::seed_from_u64(27);
        // 10⁶ candidates but only two scored: must run instantly and
        // prefer the high scorer.
        let sparse = [(123_456usize, 50.0f64), (999_999, 1.0)];
        let mut hits = 0;
        for _ in 0..200 {
            if exponential_mechanism_sparse(&sparse, 1_000_000, 1.0, 2.0, &mut rng) == 123_456 {
                hits += 1;
            }
        }
        assert!(hits > 190, "hits {hits}");
    }
}

//! Statistical conformance of the DP primitives against their closed
//! forms, via the shared `pgb_dp::testing` harness. Seeds are fixed and
//! every bound allows 5 standard errors of the relevant estimator (see the
//! tolerance discipline in `pgb_dp::testing`), so failures indicate real
//! distributional drift, not unlucky draws.

use pgb_dp::exponential::{exponential_mechanism, exponential_mechanism_sparse};
use pgb_dp::laplace::sample_laplace;
use pgb_dp::testing::{assert_chi_square, assert_mean, assert_variance};
use rand::rngs::StdRng;
use rand::SeedableRng;

const Z: f64 = 5.0;

#[test]
fn laplace_scale_matches_closed_form() {
    // Lap(b): mean 0, Var = 2b², E|X| = b — across the scales the
    // mechanisms actually use (1/ε for ε ∈ {0.1 … 10}).
    let mut rng = StdRng::seed_from_u64(1001);
    for scale in [0.1, 1.0, 10.0] {
        let samples: Vec<f64> = (0..100_000).map(|_| sample_laplace(scale, &mut rng)).collect();
        let var = 2.0 * scale * scale;
        assert_mean(&samples, 0.0, var, Z);
        assert_variance(&samples, var, Z);
        let abs: Vec<f64> = samples.iter().map(|x| x.abs()).collect();
        // |X| is Exp(1/b): mean b, variance b².
        assert_mean(&abs, scale, scale * scale, Z);
    }
}

/// Closed-form exponential-mechanism selection probabilities:
/// `P(i) ∝ exp(ε·qᵢ/(2Δq))`.
fn softmax_probs(scores: &[f64], sensitivity: f64, epsilon: f64) -> Vec<f64> {
    let factor = epsilon / (2.0 * sensitivity);
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = scores.iter().map(|&s| (factor * (s - max)).exp()).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

#[test]
fn exponential_mechanism_selection_frequencies_match_softmax() {
    let mut rng = StdRng::seed_from_u64(1003);
    let scores = [0.0, 1.0, 2.0, 3.5];
    let (sensitivity, epsilon) = (1.0, 2.0);
    let probs = softmax_probs(&scores, sensitivity, epsilon);
    let trials = 50_000;
    let mut counts = vec![0u64; scores.len()];
    for _ in 0..trials {
        counts[exponential_mechanism(&scores, sensitivity, epsilon, &mut rng)] += 1;
    }
    assert_chi_square(&counts, &probs, Z);
}

#[test]
fn sparse_exponential_mechanism_matches_same_softmax() {
    // The sparse form must realise the *same* distribution as densifying:
    // 6 candidates, two scored, four implicit zeros.
    let mut rng = StdRng::seed_from_u64(1004);
    let dense = [0.0, 2.0, 0.0, 1.0, 0.0, 0.0];
    let sparse = [(1usize, 2.0f64), (3, 1.0)];
    let (sensitivity, epsilon) = (1.0, 2.0);
    let probs = softmax_probs(&dense, sensitivity, epsilon);
    let trials = 50_000;
    let mut counts = vec![0u64; dense.len()];
    for _ in 0..trials {
        counts
            [exponential_mechanism_sparse(&sparse, dense.len(), sensitivity, epsilon, &mut rng)] +=
            1;
    }
    assert_chi_square(&counts, &probs, Z);
}

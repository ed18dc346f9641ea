//! The distribution-comparison metric: KL divergence.
//!
//! Inputs are non-negative weight vectors indexed by a common discrete
//! support (e.g. degree). Vectors of different lengths are implicitly
//! zero-padded to the longer support, and both are normalised to
//! probability vectors first.
//!
//! **Zero-mass inputs** (an all-zero weight vector — e.g. the degree
//! distribution of an edgeless synthetic graph at tiny ε) are valid:
//! [`kl_divergence`] is total over them via its additive smoothing (a
//! zero vector smooths to uniform), so they never abort a benchmark run.

/// Additive smoothing applied before KL so that empty bins on either side
/// stay finite; matches the evaluation convention of the PGB reference
/// implementation.
const KL_SMOOTHING: f64 = 1e-9;

fn validate_weights(weights: &[f64]) {
    assert!(
        weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
        "weights must be non-negative and finite"
    );
}

fn normalized(weights: &[f64], len: usize) -> Vec<f64> {
    validate_weights(weights);
    let mut p: Vec<f64> =
        (0..len).map(|i| weights.get(i).copied().unwrap_or(0.0) + KL_SMOOTHING).collect();
    let total: f64 = p.iter().sum();
    assert!(total > 0.0, "distribution must have positive mass");
    for x in &mut p {
        *x /= total;
    }
    p
}

/// Kullback–Leibler divergence `KL(P ‖ Q) = Σ pᵢ ln(pᵢ / qᵢ)` (metric E3),
/// in nats, with additive smoothing so the result is always finite.
///
/// `p_weights` is the *true* distribution and `q_weights` the synthetic
/// one, following the paper's usage for degree and distance distributions.
pub fn kl_divergence(p_weights: &[f64], q_weights: &[f64]) -> f64 {
    let len = p_weights.len().max(q_weights.len()).max(1);
    let p = normalized(p_weights, len);
    let q = normalized(q_weights, len);
    p.iter().zip(&q).map(|(&pi, &qi)| if pi > 0.0 { pi * (pi / qi).ln() } else { 0.0 }).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_of_identical_is_zero() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-9);
    }

    #[test]
    fn kl_positive_for_different() {
        assert!(kl_divergence(&[1.0, 0.0], &[0.5, 0.5]) > 0.1);
    }

    #[test]
    fn kl_finite_with_empty_bins() {
        let v = kl_divergence(&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]);
        assert!(v.is_finite());
        assert!(v > 1.0);
    }

    #[test]
    fn kl_handles_unequal_lengths() {
        let v = kl_divergence(&[1.0], &[0.5, 0.5]);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn kl_known_value() {
        // KL([0.5, 0.5] || [0.9, 0.1]) = 0.5 ln(0.5/0.9) + 0.5 ln(0.5/0.1)
        let expected = 0.5 * (0.5f64 / 0.9).ln() + 0.5 * (0.5f64 / 0.1).ln();
        let got = kl_divergence(&[0.5, 0.5], &[0.9, 0.1]);
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn unnormalised_inputs_accepted() {
        // Weight vectors (histogram counts) are normalised internally.
        let a = [3.0, 3.0, 6.0];
        let b = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&a, &b).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_panic() {
        kl_divergence(&[-1.0, 2.0], &[0.5, 0.5]);
    }

    #[test]
    fn kl_total_over_zero_mass_via_smoothing() {
        // KL needs no special case: smoothing turns a zero vector into the
        // uniform distribution, so the divergence stays finite both ways.
        assert!(kl_divergence(&[0.0, 0.0], &[0.3, 0.7]).is_finite());
        assert!(kl_divergence(&[0.3, 0.7], &[0.0, 0.0]).is_finite());
        assert!(kl_divergence(&[0.0], &[0.0]).abs() < 1e-12);
    }
}

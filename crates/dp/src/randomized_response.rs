//! Warner's randomized response (JASA 1965) for single bits.
//!
//! Keeping a bit with probability `e^ε / (1 + e^ε)` and flipping it
//! otherwise satisfies ε-DP for that bit. Applied to adjacency-vector
//! entries it is the canonical Edge-LDP primitive; the paper's §IV-B notes
//! its density problem on sparse graphs.

use rand::Rng;

/// Probability of reporting the true bit under ε-RR.
pub fn rr_keep_probability(epsilon: f64) -> f64 {
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    let e = epsilon.exp();
    e / (1.0 + e)
}

/// Probability of flipping the bit under ε-RR.
pub fn rr_flip_probability(epsilon: f64) -> f64 {
    1.0 - rr_keep_probability(epsilon)
}

/// Applies ε-randomized response to one bit.
pub fn randomized_response<R: Rng + ?Sized>(bit: bool, epsilon: f64, rng: &mut R) -> bool {
    if rng.gen_bool(rr_keep_probability(epsilon)) {
        bit
    } else {
        !bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keep_probability_monotone_in_epsilon() {
        assert!(rr_keep_probability(0.1) < rr_keep_probability(1.0));
        assert!(rr_keep_probability(1.0) < rr_keep_probability(5.0));
        assert!((rr_keep_probability(1.0) - 1.0f64.exp() / (1.0 + 1.0f64.exp())).abs() < 1e-12);
    }

    #[test]
    fn keep_plus_flip_is_one() {
        for eps in [0.1, 1.0, 3.0] {
            assert!((rr_keep_probability(eps) + rr_flip_probability(eps) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_keep_rate() {
        let mut rng = StdRng::seed_from_u64(30);
        let eps = 1.0;
        let n = 100_000;
        let kept = (0..n).filter(|_| randomized_response(true, eps, &mut rng)).count();
        let observed = kept as f64 / n as f64;
        assert!((observed - rr_keep_probability(eps)).abs() < 0.01, "{observed}");
    }

    #[test]
    fn dp_ratio_bounded_by_exp_epsilon() {
        // P(report 1 | true 1) / P(report 1 | true 0) = p/(1−p) = e^ε.
        let eps = 2.0f64;
        let p = rr_keep_probability(eps);
        let ratio = p / (1.0 - p);
        assert!((ratio - eps.exp()).abs() < 1e-9);
    }
}

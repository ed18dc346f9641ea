//! Statistical assertion helpers for testing randomised mechanisms.
//!
//! The DP mechanisms in this crate have closed-form moments (Laplace:
//! `Var = 2b²`) and closed-form selection probabilities (exponential mechanism: softmax in
//! `ε·q/(2Δq)`). Their tests draw large fixed-seed samples and check the
//! empirical statistics against those forms; this module centralises the
//! estimators and the tolerance discipline so every mechanism test states
//! its bound the same way.
//!
//! ## Tolerance discipline
//!
//! All assertions take a `z` budget in *standard errors* of the estimator
//! under the null (the sample really does follow the claimed law):
//!
//! * [`assert_mean`] — the sample mean of `N` draws has standard error
//!   `σ/√N`; the assertion allows `z` of them.
//! * [`assert_variance`] — the sample variance is asymptotically normal
//!   with standard error `√((m₄ − m₂²)/N)`, estimated from the sample's
//!   own fourth moment; the assertion allows `z` of them.
//! * [`assert_chi_square`] — Pearson's statistic against expected category
//!   probabilities is asymptotically `χ²(df)` with `df = k − 1`; the
//!   assertion allows `df + z·√(2·df)` (mean plus `z` standard deviations
//!   of the χ² law).
//!
//! Tests in this workspace use `z = 5` with samples of 10⁴–10⁵ draws:
//! under the null a 5σ excursion has probability below 10⁻⁶, and the
//! seeds are fixed, so a failure means the implementation (or the claimed
//! closed form) is wrong — not an unlucky run.

/// Sample size, mean, and (population-normalised) variance of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Moments {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample variance (`Σ(x−x̄)²/n`).
    pub variance: f64,
    /// Fourth central moment (`Σ(x−x̄)⁴/n`) — drives the variance
    /// estimator's own standard error.
    pub fourth: f64,
}

/// Computes [`Moments`] in two passes.
///
/// # Panics
/// Panics on an empty sample.
pub fn moments(samples: &[f64]) -> Moments {
    assert!(!samples.is_empty(), "moments of an empty sample");
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let (mut m2, mut m4) = (0.0, 0.0);
    for &x in samples {
        let d = x - mean;
        m2 += d * d;
        m4 += d * d * d * d;
    }
    Moments { n, mean, variance: m2 / n as f64, fourth: m4 / n as f64 }
}

/// Asserts the sample mean is within `z` standard errors (`z·σ/√N`, with
/// `σ² = expected_variance`) of `expected_mean`.
///
/// # Panics
/// Panics with both the observed and allowed deviation when the bound is
/// exceeded, and on invalid inputs (empty sample, non-positive variance).
pub fn assert_mean(samples: &[f64], expected_mean: f64, expected_variance: f64, z: f64) {
    assert!(expected_variance > 0.0, "expected variance must be positive");
    let m = moments(samples);
    let tol = z * (expected_variance / m.n as f64).sqrt();
    let dev = (m.mean - expected_mean).abs();
    assert!(
        dev <= tol,
        "sample mean {:.6} deviates from {expected_mean:.6} by {dev:.6} > {tol:.6} ({z}σ, N = {})",
        m.mean,
        m.n
    );
}

/// Asserts the sample variance is within `z` standard errors of
/// `expected_variance`, using the sample's own fourth moment for the
/// estimator's standard error `√((m₄ − m₂²)/N)`.
///
/// # Panics
/// Panics with both the observed and allowed deviation when the bound is
/// exceeded, and on invalid inputs.
pub fn assert_variance(samples: &[f64], expected_variance: f64, z: f64) {
    assert!(expected_variance > 0.0, "expected variance must be positive");
    let m = moments(samples);
    let se = ((m.fourth - m.variance * m.variance).max(0.0) / m.n as f64).sqrt();
    // Guard against a degenerate fourth-moment estimate on tiny samples.
    let tol = z * se.max(expected_variance * 1e-3);
    let dev = (m.variance - expected_variance).abs();
    assert!(
        dev <= tol,
        "sample variance {:.6} deviates from {expected_variance:.6} by {dev:.6} > {tol:.6} \
         ({z}σ, N = {})",
        m.variance,
        m.n
    );
}

/// Pearson's χ² statistic of observed category counts against expected
/// probabilities.
///
/// # Panics
/// Panics if the slices' lengths differ, the counts are all zero, or the
/// probabilities do not sum to ≈ 1.
pub fn chi_square(observed: &[u64], probs: &[f64]) -> f64 {
    assert_eq!(observed.len(), probs.len(), "counts and probabilities must align");
    let total: u64 = observed.iter().sum();
    assert!(total > 0, "chi-square of an empty sample");
    let psum: f64 = probs.iter().sum();
    assert!((psum - 1.0).abs() < 1e-9, "probabilities sum to {psum}, not 1");
    observed
        .iter()
        .zip(probs)
        .map(|(&o, &p)| {
            let e = total as f64 * p;
            (o as f64 - e).powi(2) / e
        })
        .sum()
}

/// Asserts Pearson's χ² statistic stays below `df + z·√(2·df)` — the χ²
/// law's mean plus `z` of its standard deviations, `df = k − 1`.
///
/// # Panics
/// Panics with the statistic and the threshold when the bound is exceeded.
pub fn assert_chi_square(observed: &[u64], probs: &[f64], z: f64) {
    let df = (observed.len() - 1).max(1) as f64;
    let threshold = df + z * (2.0 * df).sqrt();
    let stat = chi_square(observed, probs);
    assert!(
        stat <= threshold,
        "χ² = {stat:.3} exceeds {threshold:.3} (df = {df}, {z}σ) for counts {observed:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_sample() {
        // Variance of {-1, 1} is 1, fourth moment 1.
        let m = moments(&[-1.0, 1.0, -1.0, 1.0]);
        assert_eq!(m.n, 4);
        assert_eq!(m.mean, 0.0);
        assert_eq!(m.variance, 1.0);
        assert_eq!(m.fourth, 1.0);
    }

    #[test]
    fn mean_assertion_accepts_truth_rejects_shift() {
        let samples: Vec<f64> = (0..10_000).map(|i| (i % 2) as f64 * 2.0 - 1.0).collect();
        assert_mean(&samples, 0.0, 1.0, 5.0);
        let shifted = std::panic::catch_unwind(|| assert_mean(&samples, 0.5, 1.0, 5.0));
        assert!(shifted.is_err());
    }

    #[test]
    fn variance_assertion_accepts_truth_rejects_inflation() {
        let samples: Vec<f64> = (0..10_000).map(|i| (i % 2) as f64 * 2.0 - 1.0).collect();
        assert_variance(&samples, 1.0, 5.0);
        let wrong = std::panic::catch_unwind(|| assert_variance(&samples, 2.0, 5.0));
        assert!(wrong.is_err());
    }

    #[test]
    fn chi_square_zero_for_exact_match() {
        let stat = chi_square(&[250, 250, 250, 250], &[0.25; 4]);
        assert!(stat.abs() < 1e-12);
    }

    #[test]
    fn chi_square_rejects_skewed_counts() {
        let skewed = std::panic::catch_unwind(|| {
            assert_chi_square(&[900, 100, 0, 0], &[0.25; 4], 5.0);
        });
        assert!(skewed.is_err());
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn chi_square_length_mismatch_panics() {
        chi_square(&[1, 2], &[0.5, 0.25, 0.25]);
    }
}

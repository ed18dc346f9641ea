//! The Laplace mechanism (Dwork et al., TCC 2006).
//!
//! Adds `Lap(Δf / ε)` noise to a numeric query with global sensitivity
//! `Δf`, giving ε-DP. This is the workhorse perturbation of TmF, PrivGraph,
//! DGG, and the dK-1 variant of DP-dK.

use rand::Rng;

/// Draws one sample from the Laplace distribution with the given `scale`
/// (mean 0), via inverse-CDF sampling.
///
/// # Panics
/// Panics if `scale` is not positive and finite.
pub fn sample_laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(scale > 0.0 && scale.is_finite(), "Laplace scale must be positive, got {scale}");
    // u ∈ (-1/2, 1/2); the open interval keeps ln() finite.
    let u: f64 = rng.gen_range(-0.5f64..0.5f64);
    let u = if u == -0.5 { -0.5 + f64::EPSILON } else { u };
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// The Laplace mechanism: `value + Lap(sensitivity / ε)`.
///
/// # Panics
/// Panics if `sensitivity ≤ 0` or `ε ≤ 0`.
pub fn laplace_mechanism<R: Rng + ?Sized>(
    value: f64,
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> f64 {
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    assert!(sensitivity > 0.0, "sensitivity must be positive, got {sensitivity}");
    value + sample_laplace(sensitivity / epsilon, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_mean_and_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let scale = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(scale, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        // E|X| = scale for Laplace.
        let mean_abs = samples.iter().map(|x| x.abs()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((mean_abs - scale).abs() < 0.05, "mean abs {mean_abs}");
    }

    #[test]
    fn laplace_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        let scale = 1.5;
        let n = 200_000;
        let var = (0..n).map(|_| sample_laplace(scale, &mut rng).powi(2)).sum::<f64>() / n as f64;
        // Var = 2 scale².
        assert!((var - 2.0 * scale * scale).abs() < 0.15, "var {var}");
    }

    #[test]
    fn mechanism_centers_on_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mean =
            (0..n).map(|_| laplace_mechanism(100.0, 1.0, 2.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn more_budget_less_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let spread = |eps: f64, rng: &mut StdRng| {
            (0..20_000).map(|_| (laplace_mechanism(0.0, 1.0, eps, rng)).abs()).sum::<f64>()
                / 20_000.0
        };
        let loose = spread(0.1, &mut rng);
        let tight = spread(10.0, &mut rng);
        assert!(loose > 50.0 * tight, "loose {loose} tight {tight}");
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        laplace_mechanism(0.0, 1.0, 0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn bad_scale_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        sample_laplace(f64::NAN, &mut rng);
    }
}

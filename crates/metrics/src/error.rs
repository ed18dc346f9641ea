//! Scalar and vector error metrics: RE and MAE.

/// Relative error `|true − noisy| / |true|` (metric E1).
///
/// When the true value is zero the paper's convention (inherited from
/// TmF / PrivGraph evaluation code) is used: the error is 0 if the noisy
/// value is also zero and the absolute error otherwise, which keeps the
/// metric finite for e.g. zero-triangle road networks.
pub fn relative_error(true_value: f64, noisy_value: f64) -> f64 {
    let diff = (true_value - noisy_value).abs();
    if true_value.abs() < f64::EPSILON {
        if diff < f64::EPSILON {
            0.0
        } else {
            diff
        }
    } else {
        diff / true_value.abs()
    }
}

/// Mean absolute error (metric E7).
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mean_absolute_error(true_values: &[f64], noisy_values: &[f64]) -> f64 {
    assert_eq!(true_values.len(), noisy_values.len(), "length mismatch");
    assert!(!true_values.is_empty(), "MAE of empty slices is undefined");
    let sum: f64 = true_values.iter().zip(noisy_values).map(|(&t, &n)| (t - n).abs()).sum();
    sum / true_values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn re_basic() {
        assert!((relative_error(10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((relative_error(10.0, 10.0)).abs() < 1e-12);
        assert!((relative_error(-4.0, -2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn re_zero_truth_convention() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(0.0, 3.0), 3.0);
    }

    #[test]
    fn mae_known_value() {
        let t = [1.0, 2.0, 3.0];
        let n = [2.0, 2.0, 1.0];
        assert!((mean_absolute_error(&t, &n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_vectors_zero_error() {
        let v = [3.0, 1.0, 4.0];
        assert_eq!(mean_absolute_error(&v, &v), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        mean_absolute_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn empty_mae_panics() {
        mean_absolute_error(&[], &[]);
    }
}

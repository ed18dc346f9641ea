//! Sensitivity notions: global, local, and smooth (Nissim, Raskhodnikova &
//! Smith, STOC 2007).
//!
//! Global sensitivity can be wildly pessimistic for graph statistics (the
//! paper's principle M2): the dK-2 series has global sensitivity Θ(n) but
//! local sensitivity O(d_max). Smooth sensitivity upper-bounds local
//! sensitivity with a function that changes slowly between neighbouring
//! datasets, allowing far less noise at the cost of a (ε, δ) guarantee.
//! DP-dK and PrivSKG — the two smooth-sensitivity algorithms in the
//! benchmark (Table I, column Δ) — calibrate through this module.

/// Parameters of a smooth-sensitivity-calibrated mechanism.
#[derive(Clone, Copy, Debug)]
pub struct SmoothParams {
    /// The smoothing rate β.
    pub beta: f64,
    /// The ε of the resulting (ε, δ) guarantee.
    pub epsilon: f64,
    /// The δ of the resulting (ε, δ) guarantee.
    pub delta: f64,
}

impl SmoothParams {
    /// Standard calibration for adding Laplace noise scaled to smooth
    /// sensitivity: `β = ε / (2 ln(2/δ))` yields (ε, δ)-DP when the noise is
    /// `Lap(2 S_β(D) / ε)` (Nissim et al., Lemma 2.6).
    ///
    /// # Panics
    /// Panics unless `ε > 0` and `0 < δ < 1`.
    pub fn for_laplace(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1), got {delta}");
        let beta = epsilon / (2.0 * (2.0 / delta).ln());
        SmoothParams { beta, epsilon, delta }
    }
}

/// Computes the β-smooth sensitivity
/// `S_β(D) = max_k e^(−βk) · LS_k(D)` given a callback producing
/// `LS_k(D)` — an upper bound on the local sensitivity at Hamming distance
/// `k` from the dataset — evaluated for `k = 0..=max_distance`.
///
/// For the graph statistics in PGB, `LS_k` is a simple closed form (e.g.
/// `4(d_max + k) + 1` for the dK-2 series under edge neighbouring), so a
/// linear scan over `k` is exact. The scan stops early once the geometric
/// factor `e^(−βk)` provably dominates any further linear growth of `LS_k`.
pub fn smooth_sensitivity<F>(ls_at_distance: F, beta: f64, max_distance: usize) -> f64
where
    F: Fn(usize) -> f64,
{
    assert!(beta > 0.0, "beta must be positive, got {beta}");
    let mut best = 0.0f64;
    for k in 0..=max_distance {
        let candidate = (-beta * k as f64).exp() * ls_at_distance(k);
        if candidate > best {
            best = candidate;
        }
        // Early exit: for k ≥ 2/β the factor e^(−βk) shrinks faster than
        // any linear LS growth can compensate once candidates decline.
        if k as f64 > 2.0 / beta && candidate < best * 0.5 {
            break;
        }
    }
    best
}

/// Local sensitivity at distance `k` for the **dK-2 series** (joint degree
/// distribution) under edge neighbouring: toggling one edge `{u, v}`
/// changes the degree of `u` and `v`, relocating every incident edge's JDD
/// entry (two L1 units each) plus the toggled edge itself. With degrees
/// bounded by `d_max + k` after `k` edge changes:
/// `LS_k ≤ 4 (d_max + k) + 1`.
pub fn dk2_local_sensitivity_at(d_max: usize, k: usize) -> f64 {
    4.0 * (d_max + k) as f64 + 1.0
}

/// Local sensitivity at distance `k` for the **triangle count** under edge
/// neighbouring: toggling edge `{u, v}` changes the count by the number of
/// common neighbours, at most `d_max + k` after `k` changes.
pub fn triangle_local_sensitivity_at(d_max: usize, k: usize) -> f64 {
    (d_max + k) as f64
}

/// Local sensitivity at distance `k` for the **wedge (2-star) count** under
/// edge neighbouring: toggling `{u, v}` changes the wedge count by
/// `dᵤ + dᵥ` (new wedges centred at u and v) ≤ `2 (d_max + k)`.
pub fn wedge_local_sensitivity_at(d_max: usize, k: usize) -> f64 {
    2.0 * (d_max + k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_calibration_formula() {
        let p = SmoothParams::for_laplace(1.0, 0.01);
        assert!((p.beta - 1.0 / (2.0 * (200.0f64).ln())).abs() < 1e-12);
    }

    #[test]
    fn smooth_at_least_local_at_zero() {
        let ls = |k: usize| 4.0 * (10 + k) as f64 + 1.0;
        let s = smooth_sensitivity(ls, 0.1, 10_000);
        assert!(s >= ls(0));
    }

    #[test]
    fn smooth_below_worst_case_global() {
        // Global sensitivity for dK-2 on an n-node graph is Θ(n); smooth
        // sensitivity with a modest β should be far below it for d_max ≪ n.
        let n = 10_000usize;
        let d_max = 50usize;
        let beta = SmoothParams::for_laplace(1.0, 0.01).beta;
        let s = smooth_sensitivity(|k| dk2_local_sensitivity_at(d_max, k), beta, n);
        let global = 4.0 * n as f64 + 1.0;
        assert!(s < global / 10.0, "smooth {s} vs global {global}");
    }

    #[test]
    fn smooth_maximum_found_internally() {
        // A bump at k = 5 must be caught despite early-exit logic.
        let ls = |k: usize| if k == 5 { 1_000.0 } else { 1.0 };
        let s = smooth_sensitivity(ls, 0.01, 100);
        assert!((s - 1_000.0 * (-0.05f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn smooth_monotone_in_beta() {
        let ls = |k: usize| 4.0 * (20 + k) as f64 + 1.0;
        let s_small_beta = smooth_sensitivity(ls, 0.01, 10_000);
        let s_large_beta = smooth_sensitivity(ls, 1.0, 10_000);
        assert!(s_small_beta >= s_large_beta);
    }

    #[test]
    fn local_sensitivity_forms() {
        assert_eq!(dk2_local_sensitivity_at(3, 0), 13.0);
        assert_eq!(triangle_local_sensitivity_at(3, 2), 5.0);
        assert_eq!(wedge_local_sensitivity_at(3, 1), 8.0);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0,1)")]
    fn pure_delta_rejected_for_smooth() {
        SmoothParams::for_laplace(1.0, 0.0);
    }
}

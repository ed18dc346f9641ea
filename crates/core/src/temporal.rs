//! The temporal generation pipeline: a [`TemporalGenerator`] wraps any
//! static [`GraphGenerator`] and re-runs its two-phase measure/sample
//! split once per window of a [`SnapshotSequence`].
//!
//! The refactor deliberately changes nothing about the inner mechanism:
//! per-window TmF *is* static TmF applied to each window's snapshot. What
//! the wrapper adds is the two contracts a longitudinal release needs:
//!
//! * **budget composition** — one [`BudgetAccountant`] holds the grant,
//!   and window `w` is charged `ε · w / Σw` (even weights by default, or
//!   explicit ones for `--window-eps`), clamped to what the accountant has
//!   left so rounding never overdraws it. Σ window spends ≡ ε by
//!   sequential composition. The clamp can shave the last window's share
//!   by an ulp (4 even windows at ε = 0.1 give a last share of
//!   0.024999999999999994), so this drain is not
//!   [`BudgetAccountant::split`], which charges the unclamped quotient;
//! * **RNG discipline** — `measure` and `sample` each draw exactly one
//!   `u64` from the caller and hand every window its own
//!   [`derive_stream`](pgb_par::derive_stream) substream. The caller's RNG
//!   is the per-cell stream in the runner, so measurement randomness is
//!   derived per (window, cell) and results are independent of window
//!   evaluation order and thread budget.
//!
//! With a single window the drain hands back the grant bit-for-bit
//! (`ε · 1/1`), so a one-window temporal run reproduces the static
//! pipeline exactly on matched streams — the degenerate-case regression
//! in `tests/temporal.rs` pins that.

use crate::generator::{GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_dp::{BudgetAccountant, BudgetError};
use pgb_graph::temporal::SnapshotSequence;
use pgb_graph::Graph;
use rand::RngCore;

/// A per-window lift of a static mechanism, with windowed budget
/// composition and derived per-window RNG streams.
///
/// ```
/// use pgb_core::temporal::TemporalGenerator;
/// use pgb_core::TmF;
/// use pgb_graph::temporal::SnapshotSequence;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let events = [(0, 1, 0), (1, 2, 5), (2, 3, 9)];
/// let seq = SnapshotSequence::build(4, &events, 3).unwrap();
/// let tgen = TemporalGenerator::new(Box::new(TmF::default()));
/// let mut rng = StdRng::seed_from_u64(7);
/// let graphs = tgen.generate(&seq, 1.0, &mut rng).unwrap();
/// assert_eq!(graphs.len(), 3);
/// assert!(graphs.iter().all(|g| g.node_count() == 4));
/// ```
pub struct TemporalGenerator {
    inner: Box<dyn GraphGenerator>,
    window_weights: Option<Vec<f64>>,
}

impl TemporalGenerator {
    /// Wraps `inner` with an even per-window budget split.
    pub fn new(inner: Box<dyn GraphGenerator>) -> Self {
        TemporalGenerator { inner, window_weights: None }
    }

    /// Replaces the even split with an explicit per-window weight vector
    /// (the `--window-eps` flag); shares are `ε · w / Σw`. The length must
    /// match the sequence's window count at `measure` time and every weight
    /// must be positive and finite, or `measure` fails with
    /// [`BudgetError::InvalidSplit`].
    pub fn with_window_weights(mut self, weights: Vec<f64>) -> Self {
        self.window_weights = Some(weights);
        self
    }

    /// The wrapped mechanism's display name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// The wrapped mechanism's δ (unchanged by windowing: each window is
    /// measured under the same guarantee at its share of ε).
    pub fn delta(&self) -> f64 {
        self.inner.delta()
    }

    /// Measures every window of `seq` under its share of `epsilon`, charged
    /// in window order to one [`BudgetAccountant`], and returns the
    /// per-window private intermediates. Draws exactly one `u64` from
    /// `rng`; window `w` measures on `derive_stream(base, w)`.
    pub fn measure(
        &self,
        seq: &SnapshotSequence,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<TemporalSynthesis, GenerateError> {
        let mut acc = BudgetAccountant::new(epsilon)?;
        let windows = seq.window_count();
        let weights = self.window_weights.clone().unwrap_or_else(|| vec![1.0; windows]);
        if weights.len() != windows
            || weights.is_empty()
            || weights.iter().any(|&w| !(w > 0.0 && w.is_finite()))
        {
            return Err(GenerateError::Budget(BudgetError::InvalidSplit));
        }
        let sum: f64 = weights.iter().sum();
        let base = rng.next_u64();
        let mut syntheses = Vec::with_capacity(windows);
        for (w, weight) in weights.iter().enumerate() {
            // Clamped to the remainder so accumulated rounding never
            // overdraws the grant; a zero share fails the spend as an
            // invalid ε before it can reach the inner mechanism.
            let share =
                acc.spend("window measure", (epsilon * weight / sum).min(acc.remaining()))?;
            let mut wrng = pgb_par::derive_stream(base, w as u64);
            syntheses.push(self.inner.measure(seq.snapshot(w), share, &mut wrng)?);
        }
        Ok(TemporalSynthesis { windows: syntheses })
    }

    /// One synthetic snapshot sequence: `measure` followed by a single
    /// `sample` on the same RNG, mirroring [`GraphGenerator::generate`].
    pub fn generate(
        &self,
        seq: &SnapshotSequence,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Graph>, GenerateError> {
        Ok(self.measure(seq, epsilon, rng)?.sample(rng))
    }
}

/// The temporal private intermediate: one [`PrivateSynthesis`] per window.
/// Like its static counterpart, sampling is ε-free post-processing and may
/// be repeated (the per-cell measurement-reuse mode relies on it).
pub struct TemporalSynthesis {
    windows: Vec<Box<dyn PrivateSynthesis>>,
}

impl TemporalSynthesis {
    /// Number of windows.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Window `w`'s private intermediate. Panics if out of range.
    pub fn window(&self, w: usize) -> &dyn PrivateSynthesis {
        self.windows[w].as_ref()
    }

    /// Total ε consumed across all windows (≡ the grant, by composition).
    pub fn epsilon_spent(&self) -> f64 {
        self.windows.iter().map(|s| s.epsilon_spent()).sum()
    }

    /// Heap footprint of all per-window intermediates, in bytes.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.windows.as_slice())
            + self.windows.iter().map(|s| s.heap_bytes()).sum::<usize>()
    }

    /// Constructs one synthetic graph per window. Draws exactly one `u64`
    /// from `rng`; window `w` samples on `derive_stream(base, w)`.
    pub fn sample(&self, rng: &mut dyn RngCore) -> Vec<Graph> {
        let base = rng.next_u64();
        self.windows
            .iter()
            .enumerate()
            .map(|(w, s)| s.sample(&mut pgb_par::derive_stream(base, w as u64)))
            .collect()
    }
}

/// The temporal mechanism roster of the benchmark: the standard suite's
/// single-shot mechanisms lifted per-window. TmF is the headline temporal
/// mechanism (the paper's strongest all-rounder stays the strongest under
/// windowing); DGG rides along as the structural contrast.
pub fn temporal_suite() -> Vec<TemporalGenerator> {
    vec![
        TemporalGenerator::new(Box::new(crate::TmF::default())),
        TemporalGenerator::new(Box::new(crate::Dgg::default())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TmF;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(windows: usize) -> SnapshotSequence {
        let events: Vec<(u32, u32, u64)> =
            (0..30u32).map(|i| (i, (i + 1) % 30, i as u64)).collect();
        SnapshotSequence::build(30, &events, windows).unwrap()
    }

    #[test]
    fn spends_the_whole_grant_across_windows() {
        let tgen = TemporalGenerator::new(Box::new(TmF::default()));
        let mut rng = StdRng::seed_from_u64(1);
        let syn = tgen.measure(&seq(4), 2.0, &mut rng).unwrap();
        assert_eq!(syn.window_count(), 4);
        assert!((syn.epsilon_spent() - 2.0).abs() < 1e-9);
        for w in 0..4 {
            assert!((syn.window(w).epsilon_spent() - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_split_respects_weights() {
        let tgen =
            TemporalGenerator::new(Box::new(TmF::default())).with_window_weights(vec![1.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let syn = tgen.measure(&seq(2), 1.0, &mut rng).unwrap();
        assert!((syn.window(0).epsilon_spent() - 0.25).abs() < 1e-9);
        assert!((syn.window(1).epsilon_spent() - 0.75).abs() < 1e-9);
    }

    /// Window `w`'s share, as charged to the inner mechanism.
    fn shares(tgen: &TemporalGenerator, windows: usize, epsilon: f64) -> Vec<f64> {
        let syn = tgen.measure(&seq(windows), epsilon, &mut StdRng::seed_from_u64(8)).unwrap();
        (0..windows).map(|w| syn.window(w).epsilon_spent()).collect()
    }

    #[test]
    fn the_clamp_trims_the_last_of_four_even_windows() {
        // 0.1 / 4 is 0.025, but three of them leave 0.025 less an ulp.
        let tgen = TemporalGenerator::new(Box::new(TmF::default()));
        assert_eq!(shares(&tgen, 4, 0.1), [0.025, 0.025, 0.025, 0.024999999999999994]);
    }

    #[test]
    fn the_clamp_trims_the_last_weighted_window() {
        let tgen = TemporalGenerator::new(Box::new(TmF::default()))
            .with_window_weights(vec![1.0, 2.0, 1.0]);
        assert_eq!(shares(&tgen, 3, 0.1)[2], 0.024999999999999994);
    }

    #[test]
    fn non_positive_or_non_finite_weights_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let tgen = TemporalGenerator::new(Box::new(TmF::default()))
                .with_window_weights(vec![1.0, bad]);
            let mut rng = StdRng::seed_from_u64(3);
            assert!(
                matches!(
                    tgen.measure(&seq(2), 1.0, &mut rng),
                    Err(GenerateError::Budget(BudgetError::InvalidSplit))
                ),
                "weight {bad}"
            );
        }
    }

    #[test]
    fn weight_count_mismatch_errors() {
        let tgen = TemporalGenerator::new(Box::new(TmF::default())).with_window_weights(vec![1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        match tgen.measure(&seq(2), 1.0, &mut rng) {
            Err(GenerateError::Budget(BudgetError::InvalidSplit)) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("mismatched weight count must not measure"),
        }
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let tgen = TemporalGenerator::new(Box::new(TmF::default()));
        let mut rng = StdRng::seed_from_u64(4);
        assert!(tgen.generate(&seq(2), 0.0, &mut rng).is_err());
        assert!(tgen.generate(&seq(2), f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn sample_is_repeatable_post_processing() {
        let tgen = TemporalGenerator::new(Box::new(TmF::default()));
        let mut rng = StdRng::seed_from_u64(5);
        let syn = tgen.measure(&seq(3), 1.0, &mut rng).unwrap();
        let spent = syn.epsilon_spent();
        let a = syn.sample(&mut StdRng::seed_from_u64(9));
        let b = syn.sample(&mut StdRng::seed_from_u64(9));
        for (ga, gb) in a.iter().zip(&b) {
            assert_eq!(ga.csr(), gb.csr());
        }
        assert_eq!(syn.epsilon_spent(), spent); // sampling is ε-free
    }

    #[test]
    fn generate_matches_measure_then_sample() {
        let tgen = TemporalGenerator::new(Box::new(TmF::default()));
        let s = seq(3);
        let one_shot = tgen.generate(&s, 1.0, &mut StdRng::seed_from_u64(6)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let two_phase = tgen.measure(&s, 1.0, &mut rng).unwrap().sample(&mut rng);
        for (a, b) in one_shot.iter().zip(&two_phase) {
            assert_eq!(a.csr(), b.csr());
        }
    }

    #[test]
    fn temporal_suite_names() {
        let names: Vec<&str> = temporal_suite().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["TmF", "DGG"]);
    }
}

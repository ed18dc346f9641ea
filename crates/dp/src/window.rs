//! Sliding-window budget composition for temporal releases.
//!
//! A temporal mechanism re-releases once per time window, and each window's
//! release must be paid for out of one overall grant: by sequential
//! composition, a per-window split `Σ_w ε_w ≤ ε` gives ε-DP over the whole
//! sequence. [`WindowComposition`] enforces that with two nested invariants:
//!
//! 1. **the grant** — every spend goes through one [`BudgetAccountant`], so
//!    the labelled global ledger can never be overdrawn and stays auditable
//!    (`entries()` sums to `spent()` exactly, as with any accountant);
//! 2. **the window shares** — the grant is pre-split proportionally to the
//!    window weights with the same exact-FP arithmetic as
//!    [`BudgetAccountant::split`] (`total · w / Σw`), and a spend against
//!    window `w` is additionally checked against that window's share (with
//!    the usual `EPS_SLACK` tolerance), so no interleaving of spends across
//!    windows can push one window past its allocation.
//!
//! Failed spends mutate nothing at either level.

use std::borrow::Cow;

use crate::budget::{BudgetAccountant, BudgetError, EPS_SLACK};

/// A per-window ε split over one [`BudgetAccountant`] grant.
///
/// ```
/// use pgb_dp::window::WindowComposition;
///
/// let mut comp = WindowComposition::even(1.0, 4).unwrap();
/// for w in 0..4 {
///     let share = comp.spend_window_remaining(w, "window measure");
///     assert!((share - 0.25).abs() < 1e-12);
/// }
/// assert!((comp.spent() - 1.0).abs() < 1e-12);
/// assert_eq!(comp.entries().len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct WindowComposition {
    accountant: BudgetAccountant,
    shares: Vec<f64>,
    spent: Vec<f64>,
}

impl WindowComposition {
    /// An even split of `total` ε over `windows` windows.
    pub fn even(total: f64, windows: usize) -> Result<Self, BudgetError> {
        if windows == 0 {
            return Err(BudgetError::InvalidSplit);
        }
        Self::weighted(total, &vec![1.0; windows])
    }

    /// A split of `total` ε proportional to `weights` (one per window).
    /// Weights must be positive and finite; shares are `total · w / Σw`,
    /// matching [`BudgetAccountant::split`]'s arithmetic exactly.
    pub fn weighted(total: f64, weights: &[f64]) -> Result<Self, BudgetError> {
        let accountant = BudgetAccountant::new(total)?;
        if weights.is_empty() || weights.iter().any(|&w| !(w > 0.0 && w.is_finite())) {
            return Err(BudgetError::InvalidSplit);
        }
        let sum: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights.iter().map(|w| total * w / sum).collect();
        let spent = vec![0.0; weights.len()];
        Ok(WindowComposition { accountant, shares, spent })
    }

    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.shares.len()
    }

    /// The overall grant.
    pub fn total(&self) -> f64 {
        self.accountant.total()
    }

    /// ε consumed across all windows.
    pub fn spent(&self) -> f64 {
        self.accountant.spent()
    }

    /// ε still available in the overall grant.
    pub fn remaining(&self) -> f64 {
        self.accountant.remaining()
    }

    /// Window `w`'s allocated share. Panics if out of range.
    pub fn share(&self, w: usize) -> f64 {
        self.shares[w]
    }

    /// ε consumed by window `w`. Panics if out of range.
    pub fn window_spent(&self, w: usize) -> f64 {
        self.spent[w]
    }

    /// ε still available to window `w`. Panics if out of range.
    pub fn window_remaining(&self, w: usize) -> f64 {
        (self.shares[w] - self.spent[w]).max(0.0)
    }

    /// The labelled `(label, ε)` entries of the underlying accountant, in
    /// spend order across all windows.
    pub fn entries(&self) -> &[(Cow<'static, str>, f64)] {
        self.accountant.entries()
    }

    /// Registers a labelled spend of `epsilon` against window `w`, checking
    /// the window share first and the overall grant second. Errors (from
    /// either level) mutate nothing. Panics if `w` is out of range.
    pub fn spend(
        &mut self,
        w: usize,
        label: impl Into<Cow<'static, str>>,
        epsilon: f64,
    ) -> Result<f64, BudgetError> {
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(BudgetError::InvalidEpsilon(epsilon));
        }
        if self.spent[w] + epsilon > self.shares[w] + EPS_SLACK {
            return Err(BudgetError::Exhausted {
                requested: epsilon,
                remaining: self.window_remaining(w),
            });
        }
        let e = self.accountant.spend(label, epsilon)?;
        self.spent[w] += e;
        Ok(e)
    }

    /// Drains window `w`'s remaining share (clamped to the grant remainder,
    /// so accumulated FP slack can never overdraw the accountant) under
    /// `label` and returns it. A drained window records nothing and returns
    /// 0.0. Panics if `w` is out of range.
    pub fn spend_window_remaining(&mut self, w: usize, label: impl Into<Cow<'static, str>>) -> f64 {
        let r = self.window_remaining(w).min(self.accountant.remaining());
        if r > 0.0 {
            self.accountant.spend(label, r).expect("clamped to the grant remainder");
            self.spent[w] += r;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_shares() {
        let comp = WindowComposition::even(2.0, 4).unwrap();
        assert_eq!(comp.windows(), 4);
        for w in 0..4 {
            assert!((comp.share(w) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_split_matches_budget_split_arithmetic() {
        let comp = WindowComposition::weighted(2.0, &[1.0, 3.0]).unwrap();
        assert!((comp.share(0) - 0.5).abs() < 1e-12);
        assert!((comp.share(1) - 1.5).abs() < 1e-12);
        // Same inputs through BudgetAccountant::split must agree bit-for-bit.
        let mut acc = BudgetAccountant::new(2.0).unwrap();
        let shares = acc.split(&[("a", 1.0), ("b", 3.0)]).unwrap();
        assert_eq!(comp.share(0).to_bits(), shares[0].to_bits());
        assert_eq!(comp.share(1).to_bits(), shares[1].to_bits());
    }

    #[test]
    fn window_overdraw_rejected_even_with_global_room() {
        let mut comp = WindowComposition::even(1.0, 2).unwrap();
        // 0.6 fits the grant (1.0) but not window 0's share (0.5).
        let err = comp.spend(0, "phase", 0.6).unwrap_err();
        assert!(matches!(err, BudgetError::Exhausted { .. }));
        // Nothing moved, at either level.
        assert_eq!(comp.spent(), 0.0);
        assert_eq!(comp.window_spent(0), 0.0);
        assert!(comp.entries().is_empty());
        // The other window is untouched and spendable.
        comp.spend(1, "phase", 0.5).unwrap();
        assert!((comp.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interleaved_spends_respect_both_levels() {
        let mut comp = WindowComposition::even(1.0, 2).unwrap();
        comp.spend(0, "a", 0.25).unwrap();
        comp.spend(1, "b", 0.25).unwrap();
        comp.spend(0, "c", 0.25).unwrap();
        assert!(comp.spend(0, "over", 0.25).is_err()); // window 0 drained
        comp.spend(1, "d", 0.25).unwrap();
        assert!((comp.spent() - 1.0).abs() < 1e-12);
        let entry_sum: f64 = comp.entries().iter().map(|&(_, e)| e).sum();
        assert_eq!(entry_sum, comp.spent());
    }

    #[test]
    fn drain_sums_to_grant() {
        let mut comp = WindowComposition::weighted(1.0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let drained: f64 = (0..4).map(|w| comp.spend_window_remaining(w, "w")).sum();
        assert!((drained - 1.0).abs() < 1e-9);
        assert!(comp.remaining() < 1e-9);
        // Re-draining yields nothing and records nothing.
        assert_eq!(comp.spend_window_remaining(0, "again"), 0.0);
        assert_eq!(comp.entries().len(), 4);
    }

    #[test]
    fn single_window_share_is_exact() {
        // total · 1 / 1 is exact in IEEE arithmetic, so a single-window
        // composition must hand back the grant bit-for-bit (the
        // single-window ≡ static regression depends on this).
        for total in [0.1, 1.0, 3.7] {
            let mut comp = WindowComposition::even(total, 1).unwrap();
            let share = comp.spend_window_remaining(0, "all");
            assert_eq!(share.to_bits(), total.to_bits());
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(WindowComposition::even(0.0, 2).is_err());
        assert!(WindowComposition::even(1.0, 0).is_err());
        assert!(WindowComposition::weighted(1.0, &[]).is_err());
        assert!(WindowComposition::weighted(1.0, &[1.0, 0.0]).is_err());
        assert!(WindowComposition::weighted(1.0, &[1.0, -1.0]).is_err());
        assert!(WindowComposition::weighted(1.0, &[1.0, f64::NAN]).is_err());
        let mut comp = WindowComposition::even(1.0, 2).unwrap();
        assert!(comp.spend(0, "zero", 0.0).is_err());
        assert!(comp.spend(0, "neg", -0.1).is_err());
    }
}

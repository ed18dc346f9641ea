//! Budget accounting.
//!
//! PGB compares all algorithms at identical total budgets (principle P of
//! the 4-tuple), so every algorithm in `pgb-core` draws its per-phase ε
//! shares through a [`BudgetAccountant`], which enforces sequential
//! composition: spent shares must sum to at most the total.

use std::borrow::Cow;
use std::fmt;

/// Errors from budget accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BudgetError {
    /// ε must be positive and finite.
    InvalidEpsilon(f64),
    /// A spend would exceed the remaining budget.
    Exhausted {
        /// ε requested by the spend.
        requested: f64,
        /// ε still available.
        remaining: f64,
    },
    /// Budget split weights must be positive.
    InvalidSplit,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::InvalidEpsilon(e) => write!(f, "invalid epsilon {e}"),
            BudgetError::Exhausted { requested, remaining } => {
                write!(f, "budget exhausted: requested ε={requested}, remaining ε={remaining}")
            }
            BudgetError::InvalidSplit => write!(f, "split weights must be positive"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Slack used when comparing accumulated floating-point ε spends against
/// a bound of 1 or more.
const EPS_SLACK: f64 = 1e-9;

/// The floating-point slack a spend may exceed `bound` by: [`EPS_SLACK`],
/// scaled down with bounds below 1 so a tiny grant cannot be overdrawn many
/// times over.
fn slack(bound: f64) -> f64 {
    EPS_SLACK * bound.min(1.0)
}

/// A labelled ε ledger for a mechanism's *measure* phase.
///
/// The accountant enforces sequential composition — spent shares sum to
/// at most the total — and records **what** each share was spent on —
/// one `(label, ε)` entry per perturbation step — so a private intermediate
/// can report its exact spend (`PrivateSynthesis::epsilon_spent` in
/// `pgb-core`) and serving layers can audit per-tenant consumption
/// (`pgb-serve`'s `TenantAccountant` holds one per tenant). Mechanisms
/// register their splits against it instead of doing ad-hoc
/// `epsilon * fraction` arithmetic inline.
///
/// Labels are [`Cow`]s: mechanisms pass `&'static str` phase names for
/// free, while a serving layer can record owned per-request labels
/// (`"req0007 er/TmF ε=0.5"`) without interning.
///
/// ```
/// use pgb_dp::budget::BudgetAccountant;
///
/// let mut acc = BudgetAccountant::new(1.0).unwrap();
/// let eps_cells = acc.spend("cells", 0.9).unwrap();
/// let eps_count = acc.spend_remaining("edge count");
/// assert!((eps_cells - 0.9).abs() < 1e-12);
/// assert!((eps_count - 0.1).abs() < 1e-12);
/// assert!((acc.spent() - 1.0).abs() < 1e-12);
/// assert_eq!(acc.entries().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct BudgetAccountant {
    total: f64,
    spent: f64,
    entries: Vec<(Cow<'static, str>, f64)>,
}

impl BudgetAccountant {
    /// An accountant over `total` ε. Fails unless `0 < total < ∞`.
    pub fn new(total: f64) -> Result<Self, BudgetError> {
        if !(total > 0.0 && total.is_finite()) {
            return Err(BudgetError::InvalidEpsilon(total));
        }
        Ok(BudgetAccountant { total, spent: 0.0, entries: Vec::new() })
    }

    /// Total ε of the accountant.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// ε consumed so far, summed over the registered entries.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// ε still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// The registered `(label, ε)` entries, in spend order.
    pub fn entries(&self) -> &[(Cow<'static, str>, f64)] {
        &self.entries
    }

    /// Registers a labelled spend of `epsilon` and returns it, or errors if
    /// the remainder is insufficient (nothing is recorded on error).
    pub fn spend(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        epsilon: f64,
    ) -> Result<f64, BudgetError> {
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(BudgetError::InvalidEpsilon(epsilon));
        }
        if self.spent + epsilon > self.total + slack(self.total) {
            return Err(BudgetError::Exhausted { requested: epsilon, remaining: self.remaining() });
        }
        self.spent += epsilon;
        self.entries.push((label.into(), epsilon));
        Ok(epsilon)
    }

    /// Registers everything left under `label` and returns it. A drained
    /// accountant records nothing and returns 0.0 — callers that require a
    /// positive share should check.
    pub fn spend_remaining(&mut self, label: impl Into<Cow<'static, str>>) -> f64 {
        let e = self.remaining();
        self.spent = self.total;
        if e > 0.0 {
            self.entries.push((label.into(), e));
        }
        e
    }

    /// Splits the *entire* remaining budget proportionally to the shares'
    /// weights, registering one labelled share each.
    ///
    /// This is how multi-phase algorithms (PrivGraph, PrivHRG, TmF) divide
    /// their ε: the shares sum to the remainder by construction, so
    /// sequential composition gives ε-DP overall. `spent` is set to the
    /// total, not accumulated share by share. Nothing is recorded on error.
    pub fn split(&mut self, shares: &[(&'static str, f64)]) -> Result<Vec<f64>, BudgetError> {
        if shares.is_empty() || shares.iter().any(|&(_, w)| !(w > 0.0 && w.is_finite())) {
            return Err(BudgetError::InvalidSplit);
        }
        let remaining = self.remaining();
        if remaining <= 0.0 {
            return Err(BudgetError::Exhausted { requested: 0.0, remaining });
        }
        let sum: f64 = shares.iter().map(|&(_, w)| w).sum();
        let eps: Vec<f64> = shares.iter().map(|&(_, w)| remaining * w / sum).collect();
        self.spent = self.total;
        for (&(label, _), &e) in shares.iter().zip(&eps) {
            self.entries.push((Cow::Borrowed(label), e));
        }
        Ok(eps)
    }

    /// Serializes the full accounting state — total, spent, and every
    /// `(label, ε)` entry in spend order — as a self-contained byte string.
    ///
    /// Layout, all integers little-endian: the total's and spent's
    /// IEEE-754 bits (8 bytes each), the entry count (8 bytes), then per
    /// entry the label's byte length (8 bytes), its UTF-8 bytes and the
    /// ε bits (8 bytes). Floats are stored as exact bit patterns and
    /// entries in spend order, so two states encode equally only if they
    /// are bit-identical; durable logs (`pgb-serve`'s WAL checkpoints) rely
    /// on this to compare recovered state against recorded state
    /// byte-for-byte.
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.entries.len() * 24);
        out.extend_from_slice(&self.total.to_bits().to_le_bytes());
        out.extend_from_slice(&self.spent.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (label, eps) in &self.entries {
            out.extend_from_slice(&(label.len() as u64).to_le_bytes());
            out.extend_from_slice(label.as_bytes());
            out.extend_from_slice(&eps.to_bits().to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_tracks_and_overdraw_errors() {
        let mut acc = BudgetAccountant::new(1.0).unwrap();
        acc.spend("a", 0.5).unwrap();
        assert!((acc.remaining() - 0.5).abs() < 1e-12);
        let err = acc.spend("b", 0.6).unwrap_err();
        assert!(matches!(err, BudgetError::Exhausted { .. }));
        // The failed spend must not consume or record anything.
        assert!((acc.remaining() - 0.5).abs() < 1e-12);
        assert_eq!(acc.entries().len(), 1);
    }

    #[test]
    fn spend_rejects_nonpositive() {
        let mut acc = BudgetAccountant::new(1.0).unwrap();
        assert!(acc.spend("zero", 0.0).is_err());
        assert!(acc.spend("negative", -0.5).is_err());
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert!(matches!(BudgetAccountant::new(bad), Err(BudgetError::InvalidEpsilon(_))));
        }
    }

    #[test]
    fn exact_total_spend_allowed_despite_fp() {
        let mut acc = BudgetAccountant::new(1.0).unwrap();
        for _ in 0..10 {
            acc.spend("tenth", 0.1).unwrap(); // 10 × 0.1 accumulates fp error
        }
        assert!(acc.remaining() < 1e-9);
    }

    #[test]
    fn slack_scales_with_a_small_total() {
        let mut acc = BudgetAccountant::new(1e-10).unwrap();
        assert!(matches!(acc.spend("10x", 1e-9), Err(BudgetError::Exhausted { .. })));
        assert!(acc.spend("a hair over", 1e-10 * (1.0 + 1e-6)).is_err());
        for _ in 0..10 {
            acc.spend("tenth", 1e-11).unwrap();
        }
        assert!(acc.remaining() < 1e-19);
    }

    #[test]
    fn split_consumes_everything() {
        let mut acc = BudgetAccountant::new(2.0).unwrap();
        let shares = acc.split(&[("a", 1.0), ("b", 3.0)]).unwrap();
        assert!((shares[0] - 0.5).abs() < 1e-12);
        assert!((shares[1] - 1.5).abs() < 1e-12);
        assert_eq!(acc.remaining(), 0.0);
        assert_eq!(acc.entries().len(), 2);
    }

    #[test]
    fn split_after_spend_uses_remainder() {
        let mut acc = BudgetAccountant::new(1.0).unwrap();
        acc.spend("first", 0.2).unwrap();
        let shares = acc.split(&[("a", 1.0), ("b", 1.0)]).unwrap();
        assert!((shares[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn accountant_accepts_owned_labels() {
        // Serving layers record per-request labels built at runtime; the
        // Cow-based API must take them without interning, alongside the
        // static phase names mechanisms use, and a rejected spend must
        // record no entry.
        let mut acc = BudgetAccountant::new(1.0).unwrap();
        acc.spend(format!("req{:04} er/TmF ε={}", 7, 0.25), 0.25).unwrap();
        acc.spend("static phase", 0.5).unwrap();
        assert!(acc.spend(String::from("too big"), 0.5).is_err());
        assert_eq!(acc.entries().len(), 2);
        assert_eq!(acc.entries()[0].0, "req0007 er/TmF ε=0.25");
        assert_eq!(acc.entries()[1].0, "static phase");
        let entry_sum: f64 = acc.entries().iter().map(|&(_, e)| e).sum();
        assert_eq!(entry_sum, acc.spent());
    }

    #[test]
    fn encode_bytes_lays_out_fields_in_spend_order() {
        let mut acc = BudgetAccountant::new(1.0).unwrap();
        acc.spend("ab", 0.25).unwrap();
        acc.spend("c", 0.5).unwrap();
        let mut expected = Vec::new();
        for word in [1.0f64.to_bits(), 0.75f64.to_bits(), 2] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        for (label, eps) in [("ab", 0.25f64), ("c", 0.5)] {
            expected.extend_from_slice(&(label.len() as u64).to_le_bytes());
            expected.extend_from_slice(label.as_bytes());
            expected.extend_from_slice(&eps.to_bits().to_le_bytes());
        }
        assert_eq!(acc.encode_bytes(), expected);

        // Same total and spent, spends in the other order: checkpoint
        // divergence detection needs the encodings to differ.
        let mut swapped = BudgetAccountant::new(1.0).unwrap();
        swapped.spend("c", 0.5).unwrap();
        swapped.spend("ab", 0.25).unwrap();
        assert_eq!(swapped.spent().to_bits(), acc.spent().to_bits());
        assert_ne!(swapped.encode_bytes(), acc.encode_bytes());
    }

    #[test]
    fn split_validates_weights() {
        let mut acc = BudgetAccountant::new(1.0).unwrap();
        assert!(acc.split(&[]).is_err());
        assert!(acc.split(&[("a", 1.0), ("b", 0.0)]).is_err());
        assert!(acc.split(&[("a", 1.0), ("b", -1.0)]).is_err());
        assert!(acc.entries().is_empty());
        assert_eq!(acc.remaining(), 1.0);
    }
}

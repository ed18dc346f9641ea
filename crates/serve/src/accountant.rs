//! The concurrent per-tenant budget accountant.
//!
//! [`pgb_dp::BudgetAccountant`] enforces sequential composition for one
//! principal on one thread; a service has many tenants and many threads.
//! [`TenantAccountant`] lifts one accountant per tenant behind a single
//! lock: every spend and statement is atomic with respect to every other,
//! so the accountant's arithmetic — which already guarantees a failed
//! spend mutates nothing — extends to arbitrary concurrent interleavings.
//! The invariants the proptests in `tests/accountant.rs` pin down:
//!
//! * **No overdraw, ever**: `consumed ≤ grant + ε_slack` regardless of how
//!   spends and rejections interleave across threads.
//! * **Conservation**: `consumed + remaining ≡ grant` (exactly, by the
//!   accountant's `remaining = max(total − spent, 0)` arithmetic, up to
//!   the same `1e-9` slack the spend check allows).
//! * **Absorption**: a drained tenant stays drained — every later spend is
//!   rejected with a structured [`ServeError::BudgetExhausted`].
//! * **Audit completeness**: the labelled entries sum to exactly
//!   `consumed` (bit-for-bit — entries are appended under the same lock,
//!   in the same order, as the spends they record).

use crate::error::ServeError;
use pgb_dp::budget::BudgetAccountant;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Mutex;

/// The outcome of one admission charge: what was drawn and where the
/// tenant's budget stood immediately after, read atomically with the
/// spend. This is the "budget statement" half of a replay transcript.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetStatement {
    /// The charged tenant.
    pub tenant: String,
    /// ε drawn by this charge.
    pub charged: f64,
    /// Total ε the tenant has consumed, this charge included.
    pub spent: f64,
    /// ε the tenant still holds.
    pub remaining: f64,
}

/// A point-in-time audit view of one tenant's budget.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantStatement {
    /// The tenant.
    pub tenant: String,
    /// Total ε granted at registration.
    pub grant: f64,
    /// ε consumed so far.
    pub consumed: f64,
    /// ε still available.
    pub remaining: f64,
    /// The labelled spends, in charge order.
    pub entries: Vec<(String, f64)>,
}

/// The concurrent, labelled, per-tenant ε ledger.
///
/// All methods take `&self` and serialize on one internal lock; the lock
/// is never held across user code (labels are built before locking,
/// statements are cloned out), so it cannot be poisoned by a panicking
/// mechanism and cannot deadlock against the cache or the worker pool.
#[derive(Debug, Default)]
pub struct TenantAccountant {
    tenants: Mutex<HashMap<String, BudgetAccountant>>,
}

impl TenantAccountant {
    /// An accountant with no tenants registered.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, BudgetAccountant>> {
        self.tenants.lock().expect("tenant accountant lock poisoned")
    }

    /// Registers `tenant` with a total grant of `epsilon`. Errors if the
    /// tenant already exists (a grant is immutable once issued) or the
    /// grant is non-positive/non-finite.
    pub fn register(&self, tenant: &str, epsilon: f64) -> Result<(), ServeError> {
        let acc = BudgetAccountant::new(epsilon).map_err(|_| ServeError::InvalidGrant(epsilon))?;
        let mut tenants = self.lock();
        if tenants.contains_key(tenant) {
            return Err(ServeError::TenantExists(tenant.to_string()));
        }
        tenants.insert(tenant.to_string(), acc);
        Ok(())
    }

    /// Charges `epsilon` to `tenant` under `label`, atomically, and returns
    /// the post-charge [`BudgetStatement`]. A rejected charge mutates
    /// nothing: the tenant's budget and entry list are exactly as before,
    /// and the error carries the live remainder.
    pub fn spend(
        &self,
        tenant: &str,
        label: impl Into<Cow<'static, str>>,
        epsilon: f64,
    ) -> Result<BudgetStatement, ServeError> {
        let label = label.into();
        let mut tenants = self.lock();
        let acc =
            tenants.get_mut(tenant).ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        match acc.spend(label, epsilon) {
            Ok(charged) => Ok(BudgetStatement {
                tenant: tenant.to_string(),
                charged,
                spent: acc.spent(),
                remaining: acc.remaining(),
            }),
            Err(pgb_dp::BudgetError::Exhausted { requested, remaining }) => {
                Err(ServeError::BudgetExhausted {
                    tenant: tenant.to_string(),
                    requested,
                    remaining,
                })
            }
            Err(_) => Err(ServeError::InvalidEpsilon(epsilon)),
        }
    }

    /// The tenant's full audit statement (grant, consumption, labelled
    /// entries), read atomically.
    pub fn statement(&self, tenant: &str) -> Result<TenantStatement, ServeError> {
        let tenants = self.lock();
        let acc =
            tenants.get(tenant).ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        Ok(TenantStatement {
            tenant: tenant.to_string(),
            grant: acc.total(),
            consumed: acc.spent(),
            remaining: acc.remaining(),
            entries: acc.entries().iter().map(|(l, e)| (l.to_string(), *e)).collect(),
        })
    }

    /// The registered tenant names, sorted (the map's internal order is
    /// not deterministic; the sort makes audits and transcripts stable).
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// A bit-exact byte snapshot of every tenant's accounting state,
    /// sorted by tenant name, read atomically. WAL checkpoints embed this
    /// so recovery can verify that folding the admission log reproduces
    /// the recorded state byte-for-byte (see `pgb_serve::wal`).
    pub fn encode_snapshot(&self) -> Vec<(String, Vec<u8>)> {
        let tenants = self.lock();
        let mut out: Vec<(String, Vec<u8>)> =
            tenants.iter().map(|(name, acc)| (name.clone(), acc.encode_bytes())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_spend_and_statement_round_trip() {
        let acc = TenantAccountant::new();
        acc.register("alice", 2.0).unwrap();
        let st = acc.spend("alice", "req0 er/TmF", 0.5).unwrap();
        assert_eq!(st.charged, 0.5);
        assert!((st.remaining - 1.5).abs() < 1e-12);
        let full = acc.statement("alice").unwrap();
        assert_eq!(full.grant, 2.0);
        assert_eq!(full.entries, vec![("req0 er/TmF".to_string(), 0.5)]);
        assert!((full.consumed + full.remaining - full.grant).abs() < 1e-12);
    }

    #[test]
    fn rejection_is_structured_and_mutates_nothing() {
        let acc = TenantAccountant::new();
        acc.register("bob", 1.0).unwrap();
        acc.spend("bob", "warmup", 0.75).unwrap();
        let err = acc.spend("bob", "too much", 0.5).unwrap_err();
        match err {
            ServeError::BudgetExhausted { tenant, requested, remaining } => {
                assert_eq!(tenant, "bob");
                assert_eq!(requested, 0.5);
                assert!((remaining - 0.25).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        let st = acc.statement("bob").unwrap();
        assert_eq!(st.entries.len(), 1, "rejected spends record nothing");
        assert!((st.remaining - 0.25).abs() < 1e-12);
    }

    #[test]
    fn duplicate_and_unknown_tenants() {
        let acc = TenantAccountant::new();
        acc.register("t", 1.0).unwrap();
        assert_eq!(acc.register("t", 2.0), Err(ServeError::TenantExists("t".into())));
        assert_eq!(
            acc.spend("ghost", "x", 0.1).unwrap_err(),
            ServeError::UnknownTenant("ghost".into())
        );
        assert!(matches!(acc.register("neg", -1.0), Err(ServeError::InvalidGrant(_))));
        assert_eq!(acc.tenants(), vec!["t".to_string()]);
    }
}

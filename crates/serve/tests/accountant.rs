//! Concurrency property tests for [`TenantAccountant`]: the satellite
//! suite pinning the three ledger invariants under arbitrary thread
//! interleavings — no overdraw, conservation, and absorption (an
//! exhausted tenant stays exhausted).
//!
//! Strategy: proptest generates a grant and a batch of spend amounts; the
//! test scatters the spends round-robin over a generated number of OS
//! threads, lets them race on one shared accountant, and then checks the
//! invariants that must hold for **every** interleaving. The per-spend
//! outcomes differ run to run (which spends get rejected depends on
//! arrival order); the invariants never do.

use pgb_serve::{ServeError, TenantAccountant};
use proptest::prelude::*;

/// The ε slack `pgb_dp::BudgetAccountant` allows a spend to overshoot by (floating
/// accumulation tolerance), mirrored here so the tests assert the real
/// contract rather than an idealized one.
const EPS_SLACK: f64 = 1e-9;

/// Runs `spends` against one tenant from `threads` racing threads and
/// returns the successfully charged amounts (unordered).
fn race_spends(acc: &TenantAccountant, tenant: &str, spends: &[f64], threads: usize) -> Vec<f64> {
    let shards: Vec<Vec<f64>> =
        (0..threads).map(|t| spends.iter().copied().skip(t).step_by(threads).collect()).collect();
    let charged = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for shard in &shards {
            scope.spawn(|| {
                for (i, &eps) in shard.iter().enumerate() {
                    if let Ok(st) = acc.spend(tenant, format!("spend {i}"), eps) {
                        charged.lock().unwrap().push(st.charged);
                    }
                }
            });
        }
    });
    charged.into_inner().unwrap()
}

proptest! {
    /// No interleaving of concurrent spends can overdraw the grant, and
    /// consumed + remaining reconstructs it exactly.
    #[test]
    fn concurrent_spends_never_overdraw(
        grant in 0.1f64..20.0,
        spends in proptest::collection::vec(0.001f64..2.0, 1..24),
        threads in 1usize..5,
    ) {
        let acc = TenantAccountant::new();
        acc.register("t", grant).unwrap();
        let charged = race_spends(&acc, "t", &spends, threads);

        let st = acc.statement("t").unwrap();
        prop_assert!(st.consumed <= grant + EPS_SLACK,
            "overdraw: consumed {} of grant {}", st.consumed, grant);
        prop_assert!(st.remaining >= 0.0);
        prop_assert!((st.consumed + st.remaining - grant).abs() < EPS_SLACK,
            "conservation: {} + {} != {}", st.consumed, st.remaining, grant);

        // Audit completeness: the labelled entries are exactly the
        // successful charges (as a multiset), and their in-order sum is
        // bit-identical to `consumed` (entries append under the same lock,
        // in the same order, as the accumulator's additions).
        prop_assert_eq!(st.entries.len(), charged.len());
        // Exact equality, no tolerance (`==`, not `to_bits`: an empty f64
        // sum is `-0.0`, which is == but not bit-equal to `+0.0`).
        let entry_sum: f64 = st.entries.iter().map(|(_, e)| e).sum();
        prop_assert!(entry_sum == st.consumed,
            "entry sum {} != consumed {}", entry_sum, st.consumed);
        let mut a: Vec<u64> = charged.iter().map(|c| c.to_bits()).collect();
        let mut b: Vec<u64> = st.entries.iter().map(|(_, e)| e.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// A drained tenant rejects every concurrent spend, every time, and
    /// the rejections carry the live (zero) remainder.
    #[test]
    fn exhausted_stays_exhausted(
        grant in 0.1f64..5.0,
        spends in proptest::collection::vec(0.001f64..1.0, 1..16),
        threads in 1usize..5,
    ) {
        let acc = TenantAccountant::new();
        acc.register("t", grant).unwrap();
        let st = acc.spend("t", "drain", grant).unwrap();
        prop_assert_eq!(st.charged.to_bits(), grant.to_bits());
        prop_assert_eq!(st.remaining, 0.0);

        let errors = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let shard: Vec<f64> =
                    spends.iter().copied().skip(t).step_by(threads).collect();
                let (errors, acc) = (&errors, &acc);
                scope.spawn(move || {
                    for eps in shard {
                        errors.lock().unwrap().push(acc.spend("t", "late", eps));
                    }
                });
            }
        });
        for outcome in errors.into_inner().unwrap() {
            match outcome {
                Err(ServeError::BudgetExhausted { remaining, .. }) => {
                    prop_assert_eq!(remaining, 0.0);
                }
                other => prop_assert!(false, "expected BudgetExhausted, got {:?}", other),
            }
        }
        // Still exactly one entry: the drain. Rejections record nothing.
        prop_assert_eq!(acc.statement("t").unwrap().entries.len(), 1);
    }

    /// Tenants are isolated: concurrent traffic against one tenant never
    /// moves another's budget.
    #[test]
    fn tenants_are_isolated(
        grant_a in 0.1f64..10.0,
        grant_b in 0.1f64..10.0,
        spends in proptest::collection::vec(0.001f64..1.0, 1..16),
        threads in 1usize..4,
    ) {
        let acc = TenantAccountant::new();
        acc.register("a", grant_a).unwrap();
        acc.register("b", grant_b).unwrap();
        race_spends(&acc, "a", &spends, threads);
        let b = acc.statement("b").unwrap();
        prop_assert_eq!(b.consumed, 0.0);
        prop_assert_eq!(b.remaining.to_bits(), grant_b.to_bits());
        prop_assert!(b.entries.is_empty());
    }
}

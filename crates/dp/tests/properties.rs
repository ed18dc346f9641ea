//! Property-based tests for the DP machinery: budget arithmetic can never
//! overspend, mechanism outputs stay in range, and calibration helpers
//! are monotone in their parameters.

use pgb_dp::budget::BudgetAccountant;
use pgb_dp::exponential::{exponential_mechanism, exponential_mechanism_sparse};
use pgb_dp::laplace::{laplace_mechanism, sample_laplace};
use pgb_dp::randomized_response::rr_keep_probability;
use pgb_dp::sensitivity::{smooth_sensitivity, SmoothParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn budget_split_preserves_total(
        total in 0.01f64..100.0,
        w1 in 0.1f64..10.0,
        w2 in 0.1f64..10.0,
        w3 in 0.1f64..10.0,
    ) {
        let mut acc = BudgetAccountant::new(total).unwrap();
        let shares = acc.split(&[("a", w1), ("b", w2), ("c", w3)]).unwrap();
        let sum: f64 = shares.iter().sum();
        prop_assert!((sum - total).abs() < 1e-9, "shares sum {sum} vs {total}");
        prop_assert!(shares.iter().all(|&s| s > 0.0));
        prop_assert!(acc.remaining() < 1e-12);
    }

    #[test]
    fn budget_never_overspends(
        total in 0.01f64..10.0,
        spends in proptest::collection::vec(0.001f64..1.0, 1..20),
    ) {
        let mut acc = BudgetAccountant::new(total).unwrap();
        for s in spends {
            let _ = acc.spend("step", s); // may fail; must never corrupt state
            prop_assert!(acc.spent() <= acc.total() + 1e-9);
            prop_assert!(acc.remaining() >= 0.0);
        }
    }

    #[test]
    fn laplace_sample_finite(scale in 0.001f64..1e6, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = sample_laplace(scale, &mut rng);
        prop_assert!(x.is_finite());
    }

    #[test]
    fn laplace_mechanism_finite(
        value in -1e9f64..1e9,
        sens in 0.01f64..100.0,
        eps in 0.01f64..100.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = laplace_mechanism(value, sens, eps, &mut rng);
        prop_assert!(x.is_finite());
    }

    #[test]
    fn exponential_returns_valid_index(
        scores in proptest::collection::vec(-1e3f64..1e3, 1..64),
        eps in 0.01f64..50.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let i = exponential_mechanism(&scores, 1.0, eps, &mut rng);
        prop_assert!(i < scores.len());
    }

    #[test]
    fn sparse_exponential_valid_index(
        total in 1usize..10_000,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nonzero: Vec<(usize, f64)> =
            (0..total.min(8)).map(|i| (i * (total / 8).max(1) % total, i as f64)).collect();
        let mut dedup = nonzero.clone();
        dedup.sort_unstable_by_key(|a| a.0);
        dedup.dedup_by_key(|x| x.0);
        let i = exponential_mechanism_sparse(&dedup, total, 1.0, 1.0, &mut rng);
        prop_assert!(i < total);
    }

    #[test]
    fn rr_probabilities_consistent(eps in 0.01f64..30.0) {
        let p = rr_keep_probability(eps);
        prop_assert!(p > 0.5 && p < 1.0);
    }

    #[test]
    fn budget_arbitrary_op_sequences_never_overdraw(
        total in 0.01f64..10.0,
        ops in proptest::collection::vec((0usize..3, 0.001f64..2.0, 1usize..4), 1..24),
    ) {
        // Ops: 0 ⇒ spend(x), 1 ⇒ split over k equal weights, 2 ⇒
        // spend_remaining. Whatever interleaving, the accounting
        // invariants hold after every step: nothing spent beyond the
        // total (modulo the documented fp slack), consumed + remaining ≡ ε
        // and the labelled entries sum to what was consumed at all times,
        // and a rejected op records no entry.
        let mut acc = BudgetAccountant::new(total).unwrap();
        for (op, x, k) in ops {
            let before = acc.spent();
            let entries_before = acc.entries().len();
            match op {
                0 => {
                    match acc.spend("spend", x) {
                        Ok(granted) => prop_assert!((granted - x).abs() < 1e-12),
                        // A failed spend must not consume or record anything.
                        Err(_) => {
                            prop_assert!((acc.spent() - before).abs() < 1e-12);
                            prop_assert_eq!(acc.entries().len(), entries_before);
                        }
                    }
                }
                1 => {
                    match acc.split(&vec![("share", 1.0); k]) {
                        Ok(shares) => {
                            // A split consumes exactly what it hands out.
                            let handed: f64 = shares.iter().sum();
                            prop_assert!((acc.spent() - before - handed).abs() < 1e-9);
                            prop_assert!(shares.iter().all(|&s| s > 0.0));
                            prop_assert_eq!(acc.entries().len(), entries_before + k);
                        }
                        Err(_) => prop_assert_eq!(acc.entries().len(), entries_before),
                    }
                }
                _ => {
                    let r = acc.spend_remaining("drain");
                    prop_assert!((acc.spent() - before - r).abs() < 1e-12);
                }
            }
            prop_assert!(acc.spent() <= acc.total() + 1e-9,
                "overdraw: {} > {}", acc.spent(), acc.total());
            prop_assert!((acc.spent() + acc.remaining() - total).abs() < 1e-9,
                "consumed {} + remaining {} != total {total}", acc.spent(), acc.remaining());
            let entry_sum: f64 = acc.entries().iter().map(|&(_, e)| e).sum();
            prop_assert!((entry_sum - acc.spent()).abs() < 1e-9,
                "entries sum {entry_sum} != spent {}", acc.spent());
        }
    }

    #[test]
    fn exhausted_budget_always_errors(
        total in 0.01f64..10.0,
        request in 0.001f64..10.0,
        k in 1usize..5,
        drain_by_split in 0usize..2,
    ) {
        // However the budget was drained — split or spend_remaining —
        // every further spend and split must error, and the error must be
        // Exhausted (not a validation artefact).
        let mut acc = BudgetAccountant::new(total).unwrap();
        if drain_by_split == 1 {
            acc.split(&vec![("share", 1.0); k]).unwrap();
        } else {
            acc.spend_remaining("drain");
        }
        prop_assert!(acc.remaining() < 1e-12);
        let spend_exhausted = matches!(
            acc.spend("late", request).unwrap_err(),
            pgb_dp::BudgetError::Exhausted { .. }
        );
        prop_assert!(spend_exhausted, "spend after drain must report Exhausted");
        let split_exhausted = matches!(
            acc.split(&vec![("late", 1.0); k]).unwrap_err(),
            pgb_dp::BudgetError::Exhausted { .. }
        );
        prop_assert!(split_exhausted, "split after drain must report Exhausted");
    }

    #[test]
    fn smooth_sensitivity_bounds(
        d_max in 1usize..1000,
        eps in 0.05f64..10.0,
    ) {
        let params = SmoothParams::for_laplace(eps, 0.01);
        let ls = |k: usize| 4.0 * (d_max + k) as f64 + 1.0;
        let s = smooth_sensitivity(ls, params.beta, 100_000);
        // At least the local sensitivity, at most global-ish (4n + 1).
        prop_assert!(s >= ls(0));
        prop_assert!(s <= 4.0 * 200_000.0 + 1.0);
    }
}

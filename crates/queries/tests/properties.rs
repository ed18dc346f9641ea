//! Property-based tests for the query layer: structural invariants that
//! must hold on any graph.

use pgb_graph::Graph;
use pgb_queries::counting::{triangle_count, wedge_count};
use pgb_queries::path::path_stats;
use pgb_queries::{PathMode, Query, QueryParams, QuerySuite, QueryValue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn raw_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..35).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..100))
    })
}

proptest! {
    #[test]
    fn clustering_coefficients_bounded((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let gcc = pgb_queries::clustering::global_clustering(&g);
        let acc = pgb_queries::clustering::average_clustering(&g);
        prop_assert!((0.0..=1.0).contains(&gcc), "GCC {gcc}");
        prop_assert!((0.0..=1.0).contains(&acc), "ACC {acc}");
    }

    #[test]
    fn triangles_bounded_by_wedges((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        // Each triangle uses 3 wedges, so 3△ ≤ wedges.
        prop_assert!(3 * triangle_count(&g) <= wedge_count(&g));
    }

    #[test]
    fn path_invariants((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = path_stats(&g, PathMode::Exact, &mut rng);
        // Average ≤ diameter; distribution sums to 1 (or graph is edgeless).
        prop_assert!(s.average_length <= s.diameter as f64 + 1e-9);
        let mass: f64 = s.distance_distribution.iter().sum();
        if g.edge_count() > 0 {
            prop_assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
            prop_assert!(s.average_length >= 1.0);
        } else {
            prop_assert_eq!(s.diameter, 0);
        }
    }

    #[test]
    fn evc_normalised((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let x = pgb_queries::centrality::eigenvector_centrality(&g, 300, 1e-10);
        prop_assert_eq!(x.len(), n);
        prop_assert!(x.iter().all(|&v| v >= 0.0 && v.is_finite()));
        let norm: f64 = x.iter().map(|v| v * v).sum();
        if g.edge_count() > 0 {
            prop_assert!((norm - 1.0).abs() < 1e-6, "norm {norm}");
        } else {
            prop_assert!(norm.abs() < 1e-12);
        }
    }

    #[test]
    fn every_query_shape_stable((n, edges) in raw_edges(), seed in 0u64..200) {
        let g = Graph::from_edges(n, edges).unwrap();
        let params = QueryParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        for q in Query::ALL {
            match q.evaluate(&g, &params, &mut rng) {
                QueryValue::Scalar(x) => prop_assert!(x.is_finite(), "{q:?}"),
                QueryValue::Distribution(d) => prop_assert!(!d.is_empty(), "{q:?}"),
                QueryValue::Partition(p) => prop_assert_eq!(p.len(), n, "query {:?}", q),
                QueryValue::Vector(v) => prop_assert_eq!(v.len(), n, "query {:?}", q),
            }
        }
    }

    #[test]
    fn sampled_paths_lower_bound_diameter((n, edges) in raw_edges(), seed in 0u64..200) {
        let g = Graph::from_edges(n, edges).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let exact = path_stats(&g, PathMode::Exact, &mut rng);
        let sampled = path_stats(&g, PathMode::Sampled { sources: 5 }, &mut rng);
        prop_assert!(sampled.diameter <= exact.diameter);
    }

    #[test]
    fn evaluate_all_matches_per_query_for_every_query(
        (n, edges) in raw_edges(),
        seed in 0u64..200,
    ) {
        // `Query::evaluate` is a one-query suite, so under the suite's
        // RNG-stream discipline every query — Louvain-backed Q12/Q13 and
        // sampled Q7–Q9 included — must return *identical* values alone
        // and in the full suite at the same caller seed.
        let g = Graph::from_edges(n, edges).unwrap();
        let params = QueryParams { path_mode: PathMode::Sampled { sources: 4 }, ..Default::default() };
        let all = QuerySuite::evaluate_all(
            &g,
            &Query::ALL,
            &params,
            &mut StdRng::seed_from_u64(seed),
        );
        for (&q, suite_value) in Query::ALL.iter().zip(&all) {
            let single = q.evaluate(&g, &params, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(&single, suite_value, "query {:?}", q);
        }
    }

    #[test]
    fn evaluate_all_subset_independence((n, edges) in raw_edges(), seed in 0u64..200) {
        // Randomised queries included: the per-intermediate RNG streams
        // make each query's value independent of the requested subset.
        let g = Graph::from_edges(n, edges).unwrap();
        let params = QueryParams { path_mode: PathMode::Sampled { sources: 4 }, ..Default::default() };
        let full = QuerySuite::evaluate_all(
            &g,
            &Query::ALL,
            &params,
            &mut StdRng::seed_from_u64(seed),
        );
        for (i, &q) in Query::ALL.iter().enumerate() {
            let alone = QuerySuite::evaluate_all(
                &g,
                &[q],
                &params,
                &mut StdRng::seed_from_u64(seed),
            );
            prop_assert_eq!(&alone[0], &full[i], "query {:?}", q);
        }
    }
}

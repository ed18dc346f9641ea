//! Property-based tests over the graph constructors: every generator must
//! emit a structurally valid simple graph, and constructors with exactness
//! guarantees must honour them.

use pgb_graph::degree::degree_sequence;
use pgb_graph::Graph;
use pgb_models::havel_hakimi::{havel_hakimi, is_graphical};
use pgb_models::hrg::{Child, Dendrogram};
use pgb_models::lattice::irregular_grid;
use pgb_models::{
    barabasi_albert, bter, chung_lu, configuration_model, erdos_renyi_gnm, erdos_renyi_gnp,
    grid_graph, BterParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gnp_always_valid(n in 0usize..120, p in 0.0f64..=1.0, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_gnp(n, p, &mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.check_invariants());
        let max = n.saturating_mul(n.saturating_sub(1)) / 2;
        prop_assert!(g.edge_count() <= max);
    }

    #[test]
    fn gnm_exact_edge_count(n in 2usize..60, frac in 0.0f64..1.0, seed in 0u64..1000) {
        let m = ((n * (n - 1) / 2) as f64 * frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_gnm(n, m, &mut rng);
        prop_assert_eq!(g.edge_count(), m);
        prop_assert!(g.check_invariants());
    }

    #[test]
    fn ba_structure(n in 3usize..150, seed in 0u64..1000) {
        let m = 1 + seed as usize % ((n - 1).min(5));
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(n, m, &mut rng);
        prop_assert_eq!(g.edge_count(), (n - m) * m);
        prop_assert!(g.check_invariants());
    }

    #[test]
    fn hh_realises_graphical(degrees in proptest::collection::vec(0u32..6, 2..40)) {
        let edges = havel_hakimi(&degrees);
        let g = Graph::from_edges(degrees.len(), edges.clone()).unwrap();
        // Each edge is emitted once and none is a self-loop.
        prop_assert_eq!(g.edge_count(), edges.len());
        prop_assert!(g.check_invariants());
        let realised = degree_sequence(&g);
        if is_graphical(&degrees) {
            prop_assert_eq!(realised, degrees);
        } else {
            // Best effort never overshoots a target.
            for (got, want) in realised.iter().zip(&degrees) {
                prop_assert!(got <= want);
            }
        }
    }

    #[test]
    fn config_model_bounded(degrees in proptest::collection::vec(0u32..8, 0..60), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = configuration_model(&degrees, &mut rng);
        prop_assert!(g.check_invariants());
        for (u, &d) in degrees.iter().enumerate() {
            prop_assert!(g.degree(u as u32) as u32 <= d);
        }
    }

    #[test]
    fn chung_lu_valid(weights in proptest::collection::vec(0.0f64..10.0, 0..80), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        chung_lu(&weights, &mut rng, |u, v| edges.push((u, v)));
        let g = Graph::from_edges(weights.len(), edges.iter().copied()).unwrap();
        // Each edge is emitted once and none is a self-loop.
        prop_assert_eq!(g.edge_count(), edges.len());
        prop_assert!(g.check_invariants());
    }

    #[test]
    fn bter_valid(degrees in proptest::collection::vec(0u32..10, 2..80), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = bter(&degrees, &BterParams::default(), &mut rng);
        prop_assert_eq!(g.node_count(), degrees.len());
        prop_assert!(g.check_invariants());
    }

    #[test]
    fn grid_valid(rows in 1usize..15, cols in 1usize..15) {
        let g = grid_graph(rows, cols);
        prop_assert_eq!(g.node_count(), rows * cols);
        let expected = rows * (cols.saturating_sub(1)) + cols * (rows.saturating_sub(1));
        prop_assert_eq!(g.edge_count(), expected);
        prop_assert!(g.check_invariants());
    }
}

/// The leaves under a dendrogram child, read through the public API only.
fn hrg_leaves(d: &Dendrogram, c: Child) -> Vec<u32> {
    match c {
        Child::Leaf(u) => vec![u],
        Child::Internal(r) => {
            let (x, y) = d.children(r);
            let mut out = hrg_leaves(d, x);
            out.extend(hrg_leaves(d, y));
            out
        }
    }
}

/// Checks `edges_between` against a brute-force count for every pair an
/// MCMC move at `q` can query — `q`'s own children, and each grandchild
/// against its parent's sibling — and each `E_q` against the same count.
/// Returns how many checked pairs had a single-leaf side.
fn check_edges_between(d: &mut Dendrogram, g: &Graph) -> usize {
    let brute = |d: &Dendrogram, x: Child, y: Child| -> u64 {
        let ys: HashSet<u32> = hrg_leaves(d, y).into_iter().collect();
        let xs = hrg_leaves(d, x);
        xs.iter().flat_map(|&u| g.neighbors(u)).filter(|v| ys.contains(v)).count() as u64
    };
    let mut single = 0;
    for q in 0..d.internal_count() as u32 {
        let (l, r) = d.children(q);
        assert_eq!(d.edges_at(q), brute(d, l, r), "E_{q}");
        let mut pairs = vec![(l, r)];
        for (inner, sibling) in [(l, r), (r, l)] {
            if let Child::Internal(i) = inner {
                let (a, b) = d.children(i);
                pairs.extend([(a, sibling), (b, sibling)]);
            }
        }
        for (x, y) in pairs {
            let want = brute(d, x, y);
            assert_eq!(d.edges_between(g, x, y), want, "{x:?} vs {y:?}");
            assert_eq!(d.edges_between(g, y, x), want, "{y:?} vs {x:?}");
            single += usize::from(matches!(x, Child::Leaf(_)) || matches!(y, Child::Leaf(_)));
        }
    }
    single
}

/// Counts two kinds of move over every non-root internal node `r`, with
/// children `(a, b)` under parent `q`: those where `E_q = 0`, which need no
/// count, and those where `E_q > 0` and `b` has fewer leaves than `a`,
/// which count `b` against `r`'s sibling.
fn hrg_move_cases(d: &Dendrogram) -> (usize, usize) {
    let (mut empty_q, mut smaller_b) = (0, 0);
    for q in 0..d.internal_count() as u32 {
        let (x, y) = d.children(q);
        for r in [x, y] {
            if let Child::Internal(r) = r {
                let (a, b) = d.children(r);
                if d.edges_at(q) == 0 {
                    empty_q += 1;
                } else if hrg_leaves(d, b).len() < hrg_leaves(d, a).len() {
                    smaller_b += 1;
                }
            }
        }
    }
    (empty_q, smaller_b)
}

#[test]
fn hrg_mcmc_long_run_consistency() {
    // A longer, deterministic MCMC soak over two kinds of graph: an ER
    // graph with a hub and isolated nodes, and a sparse road-like grid.
    // Incremental edge counts must stay equal to recomputed ones across
    // hundreds of accepted restructures, and `edges_between` must agree
    // with a brute-force count at many points along the chain. Both of
    // the step's shortcuts must come up along the chains: a parent with
    // no edges, and a parent with edges whose `r` has the smaller second
    // child.
    let (mut single_leaf_pairs, mut empty_q, mut smaller_b) = (0, 0, 0);
    for seed in [999u64, 1000, 1001] {
        let mut rng = StdRng::seed_from_u64(seed);
        // Nodes 0..60 form an ER graph, node 60 is a hub adjacent to every
        // third of them, and nodes 61..70 are isolated.
        let er = erdos_renyi_gnp(60, 0.1, &mut rng);
        let hub = (0..60).step_by(3).map(|v| (60, v));
        let road = irregular_grid(8, 9, 0.1, 5, &mut rng);
        for g in [Graph::from_edges(70, er.edges().chain(hub)).unwrap(), road] {
            let mut d = Dendrogram::from_graph(&g, &mut rng);
            for step in 0..2_000 {
                d.mcmc_step(&g, 1.0, &mut rng);
                if step % 100 == 0 {
                    single_leaf_pairs += check_edges_between(&mut d, &g);
                    let (e, b) = hrg_move_cases(&d);
                    empty_q += e;
                    smaller_b += b;
                }
            }
            assert!(d.check_invariants());
            let mut fresh = d.clone();
            fresh.recompute_edge_counts(&g);
            for r in 0..d.internal_count() as u32 {
                assert_eq!(d.edges_at(r), fresh.edges_at(r), "internal node {r}");
            }
            let sum: u64 = (0..d.internal_count() as u32).map(|r| d.edges_at(r)).sum();
            assert_eq!(sum, g.edge_count() as u64);
        }
    }
    assert!(single_leaf_pairs > 0, "no checked pair had a single-leaf side");
    assert!(empty_q > 0, "no move had a parent without edges");
    assert!(smaller_b > 0, "no move with parent edges had the smaller second child");
}

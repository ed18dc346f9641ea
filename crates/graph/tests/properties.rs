//! Property-based tests for the graph substrate's core invariants.

use pgb_graph::degree::{
    assortativity, degree_histogram, degree_sequence, joint_degree_distribution,
};
use pgb_graph::traversal::{bfs_distances, connected_components, UNREACHABLE};
use pgb_graph::{Graph, GraphBuilder};
use proptest::prelude::*;

/// Strategy: a random edge set over up to 40 nodes (possibly with
/// duplicates and self-loops, which construction must clean up).
fn raw_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

proptest! {
    #[test]
    fn csr_matches_hashset_reference_model((n, edges) in raw_edges()) {
        // Reference model: the edge set as a plain HashSet of canonicalised
        // pairs, applying the same cleanup rules (self-loops dropped,
        // duplicates collapsed) the CSR construction promises.
        let mut reference: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for &(u, v) in &edges {
            if u != v {
                reference.insert(if u < v { (u, v) } else { (v, u) });
            }
        }
        let g = Graph::from_edges(n, edges).unwrap();
        prop_assert_eq!(g.edge_count(), reference.len());
        prop_assert!(g.check_invariants());
        let canon = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
        for u in 0..n as u32 {
            // Neighbour slices: sorted ascending, exactly the model's.
            let expected: Vec<u32> = (0..n as u32)
                .filter(|&v| v != u && reference.contains(&canon(u, v)))
                .collect();
            prop_assert_eq!(g.neighbors(u), &expected[..]);
            prop_assert_eq!(g.degree(u), expected.len());
        }
        // has_edge over the full pair square, including self-queries.
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let expected = u != v && reference.contains(&canon(u, v));
                prop_assert_eq!(g.has_edge(u, v), expected, "({}, {})", u, v);
            }
        }
    }

    #[test]
    fn csr_arrays_well_formed((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let (offsets, neighbors) = g.csr();
        prop_assert_eq!(offsets.len(), n + 1);
        prop_assert_eq!(offsets[0], 0);
        prop_assert_eq!(offsets[n] as usize, neighbors.len());
        prop_assert_eq!(neighbors.len(), 2 * g.edge_count());
        prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let degrees: Vec<u32> = g.degrees().collect();
        let from_offsets: Vec<u32> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        prop_assert_eq!(degrees, from_offsets);
    }

    #[test]
    fn construction_invariants((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        prop_assert!(g.check_invariants());
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn builder_equals_from_edges((n, edges) in raw_edges()) {
        let g1 = Graph::from_edges(n, edges.clone()).unwrap();
        let mut b = GraphBuilder::new(n);
        b.extend(edges);
        let g2 = b.build().unwrap();
        prop_assert_eq!(g1.edge_vec(), g2.edge_vec());
    }

    #[test]
    fn edges_iterator_matches_has_edge((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let listed = g.edge_vec();
        prop_assert_eq!(listed.len(), g.edge_count());
        for &(u, v) in &listed {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
        // Exhaustive cross-check on small n.
        let mut count = 0;
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if g.has_edge(u, v) {
                    count += 1;
                }
            }
        }
        prop_assert_eq!(count, g.edge_count());
    }

    #[test]
    fn histogram_consistent_with_sequence((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let seq = degree_sequence(&g);
        let hist = degree_histogram(&g);
        let total: u64 = hist.iter().sum();
        prop_assert_eq!(total as usize, n);
        for (d, &c) in hist.iter().enumerate() {
            let observed = seq.iter().filter(|&&x| x as usize == d).count();
            prop_assert_eq!(observed as u64, c);
        }
    }

    #[test]
    fn jdd_mass_equals_edges((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let jdd = joint_degree_distribution(&g);
        let total: u64 = jdd.values().sum();
        prop_assert_eq!(total, g.edge_count() as u64);
        for &(a, b) in jdd.keys() {
            prop_assert!(a <= b);
        }
    }

    #[test]
    fn assortativity_bounded((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        if let Some(r) = assortativity(&g) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
    }

    #[test]
    fn bfs_triangle_inequality((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let d0 = bfs_distances(&g, 0);
        // Every edge's endpoints differ by at most 1 in BFS distance.
        for (u, v) in g.edges() {
            let (du, dv) = (d0[u as usize], d0[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // Edge endpoints are always in the same component.
                prop_assert_eq!(du, dv);
            }
        }
    }

    #[test]
    fn components_partition_nodes((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let comps = connected_components(&g);
        let total: usize = comps.sizes.iter().sum();
        prop_assert_eq!(total, n);
        // Same-component iff mutually reachable (checked via BFS from 0).
        let d0 = bfs_distances(&g, 0);
        for (u, &du) in d0.iter().enumerate() {
            let same = comps.label[u] == comps.label[0];
            prop_assert_eq!(same, du != UNREACHABLE);
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        // Take the even nodes.
        let keep: Vec<u32> = (0..n as u32).filter(|u| u % 2 == 0).collect();
        let (sub, order) = g.induced_subgraph(&keep);
        prop_assert!(sub.check_invariants());
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(order[a as usize], order[b as usize]));
        }
        // Count edges of g with both endpoints kept.
        let expected = g
            .edges()
            .filter(|&(u, v)| u % 2 == 0 && v % 2 == 0)
            .count();
        prop_assert_eq!(sub.edge_count(), expected);
    }

    #[test]
    fn io_roundtrip_preserves_structure((n, edges) in raw_edges()) {
        let g = Graph::from_edges(n, edges).unwrap();
        let mut buf = Vec::new();
        pgb_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let (g2, labels) = pgb_graph::io::read_edge_list(buf.as_slice()).unwrap();
        // Isolated nodes are not representable in an edge list; compare via
        // the label mapping.
        prop_assert_eq!(g2.edge_count(), g.edge_count());
        for (u, v) in g2.edges() {
            prop_assert!(g.has_edge(labels[u as usize] as u32, labels[v as usize] as u32));
        }
    }
}

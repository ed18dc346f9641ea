//! Property-based tests for the graph substrate's core invariants.

use pgb_graph::degree::{
    assortativity, degree_histogram, degree_sequence, joint_degree_distribution,
};
use pgb_graph::traversal::{bfs_distances, connected_components, UNREACHABLE};
use pgb_graph::{Graph, GraphBuilder, GraphError};
use proptest::prelude::*;

/// Strategy: a random edge set over up to 40 nodes (possibly with
/// duplicates and self-loops, which construction must clean up).
fn raw_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

/// The comparison-sort build that [`Graph::from_edges`] replaced, kept as
/// its oracle: check and normalise the pairs in input order (`u` before
/// `v`), sort, deduplicate, and fill the CSR arrays from the sorted pairs.
fn sort_dedup_csr(n: usize, edges: &[(u32, u32)]) -> Result<(Vec<u32>, Vec<u32>), GraphError> {
    let mut pairs = Vec::new();
    for &(u, v) in edges {
        if u as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u != v {
            pairs.push(if u < v { (u, v) } else { (v, u) });
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut offsets = vec![0u32; n + 1];
    for &(u, v) in &pairs {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut neighbors = vec![0u32; 2 * pairs.len()];
    for &(u, v) in &pairs {
        neighbors[cursor[u as usize] as usize] = v;
        cursor[u as usize] += 1;
        neighbors[cursor[v as usize] as usize] = u;
        cursor[v as usize] += 1;
    }
    Ok((offsets, neighbors))
}

/// Strategy: an edge list for the oracle comparison. `n` is 0, 1, small,
/// or above 2^15; endpoints are drawn from the whole range or from a
/// 16-node window, so duplicates and self-loops turn up at every `n`. The
/// list is left as drawn (shuffled), or normalised and then sorted
/// (presorted), sorted with every pair flipped, or sorted by smaller end
/// only; then up to two endpoints may be set out of range, at most 2 past
/// `n`.
fn oracle_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    let n = (0u8..4, 2usize..40, (1usize << 15) + 1..(1 << 15) + 64)
        .prop_map(|(kind, small, large)| [0, 1, small, large][kind as usize]);
    n.prop_flat_map(|n| {
        let hi = n.max(1) as u32;
        let id = move || {
            (0..hi, 0u8..2).prop_map(
                move |(x, windowed)| {
                    if windowed == 1 {
                        hi - 1 - x % hi.min(16)
                    } else {
                        x
                    }
                },
            )
        };
        let len = if n == 0 { 0..3 } else { 0..200 };
        let edges = proptest::collection::vec((id(), id()), len);
        let bad = proptest::collection::vec((0usize..1000, 0u8..2, 0u32..3), 0..3);
        (Just(n), edges, 0u8..4, (0u8..4, bad))
    })
    .prop_map(|(n, mut edges, order, (gate, bad))| {
        if order > 0 {
            for e in &mut edges {
                *e = (e.0.min(e.1), e.0.max(e.1));
            }
            if order == 3 {
                edges.sort_by_key(|e| e.0);
            } else {
                edges.sort_unstable();
            }
            if order == 2 {
                for e in &mut edges {
                    *e = (e.1, e.0);
                }
            }
        }
        if gate == 0 && !edges.is_empty() {
            let len = edges.len();
            for (at, end_v, past) in bad {
                let e = &mut edges[at % len];
                let node = n as u32 + past;
                if end_v == 1 {
                    e.1 = node;
                } else {
                    e.0 = node;
                }
            }
        }
        (n, edges)
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
    fn from_edges_matches_sort_dedup_oracle((n, edges) in oracle_edges()) {
        // Same CSR arrays on every input, and the same first error in input
        // order, `u` checked before `v`.
        match (Graph::from_edges(n, edges.iter().copied()), sort_dedup_csr(n, &edges)) {
            (Ok(g), Ok((offsets, neighbors))) => {
                prop_assert_eq!(g.csr(), (&offsets[..], &neighbors[..]));
                prop_assert!(g.check_invariants());
            }
            (Err(got), Err(want)) => prop_assert_eq!(format!("{got:?}"), format!("{want:?}")),
            (got, want) => prop_assert!(false, "from_edges {:?} vs oracle {:?}", got, want.map(|_| ())),
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

//! Property tests over Louvain's two entry points.

use pgb_community::WeightedGraph;
use pgb_community::{louvain, louvain_weighted, modularity, modularity_weighted, LouvainParams};
use pgb_graph::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random simple graphs: `n` nodes touched by up to 150 random edge draws
/// (self-loops and duplicates collapse), then `isolated` extra nodes with
/// no edges. Zero draws give edgeless graphs; `n = 0` with no extra nodes
/// gives the empty graph.
fn graphs() -> impl Strategy<Value = Graph> {
    (0usize..60, 0usize..8).prop_flat_map(|(n, isolated)| {
        let pairs = if n == 0 {
            Just(Vec::new()).boxed()
        } else {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..150).boxed()
        };
        pairs.prop_map(move |edges| Graph::from_edges(n + isolated, edges).unwrap())
    })
}

proptest! {
    #[test]
    fn unweighted_and_lifted_entry_points_agree(g in graphs(), seed in 0u64..1 << 32) {
        // `louvain` reads the CSR at level 0; `louvain_weighted` reads the
        // unit-weight lift. Same labels, and the same modularity bits from
        // either modularity function.
        let params = LouvainParams::default();
        let p = louvain(&g, &params, &mut StdRng::seed_from_u64(seed));
        let w = WeightedGraph::from_graph(&g);
        let pw = louvain_weighted(&w, &params, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(p.labels(), pw.labels());
        let q = modularity(&g, &p);
        prop_assert_eq!(q.to_bits(), modularity_weighted(&w, pw.labels()).to_bits());
    }
}

//! Newman modularity (query Q13 of the benchmark).

use crate::weighted::Adjacency;
use crate::{Partition, WeightedGraph};
use pgb_graph::Graph;
use std::collections::HashMap;

/// Modularity of `partition` on the unweighted graph `g`:
/// `Q = Σ_c (e_c / m − (d_c / 2m)²)`, where `e_c` is the number of
/// intra-community edges and `d_c` the total degree of community `c`.
/// Returns 0.0 for edgeless graphs (the convention used by the reference
/// evaluation code).
pub fn modularity(g: &Graph, partition: &Partition) -> f64 {
    assert_eq!(g.node_count(), partition.len(), "partition/graph size mismatch");
    modularity_of(g, partition.labels())
}

/// Weighted modularity over a [`WeightedGraph`] (used by Louvain's
/// aggregated levels): same formula with weights in place of counts.
pub fn modularity_weighted(g: &WeightedGraph, labels: &[u32]) -> f64 {
    assert_eq!(g.node_count(), labels.len(), "label/graph size mismatch");
    modularity_of(g, labels)
}

/// Modularity over any [`Adjacency`]. On a [`Graph`] every sum is a count
/// below 2^53, so it is exact in any order and `2m / 2` is `m`: a graph
/// and its [`WeightedGraph::from_graph`] lift give the same bits.
fn modularity_of<G: Adjacency>(g: &G, labels: &[u32]) -> f64 {
    let two_m = g.total_weight();
    if two_m <= 0.0 {
        return 0.0;
    }
    // Per community: (total degree, intra-community weight).
    let mut sums: HashMap<u32, (f64, f64)> = HashMap::new();
    for u in 0..g.node_count() as u32 {
        let cu = labels[u as usize];
        let (degree, intra) = sums.entry(cu).or_insert((0.0, 0.0));
        *degree += g.weighted_degree(u);
        *intra += g.self_loop(u); // w counted once per loop
        for (v, w) in g.weighted_neighbors(u) {
            if v > u && labels[v as usize] == cu {
                *intra += w.into();
            }
        }
    }
    // Sum community terms in label order: float addition is not
    // associative, so reducing in HashMap iteration order would make the
    // last bits of Q vary between otherwise identical runs.
    let mut communities: Vec<(u32, (f64, f64))> = sums.into_iter().collect();
    communities.sort_unstable_by_key(|&(c, _)| c);
    communities.into_iter().map(|(_, (d, e))| e / (two_m / 2.0) - (d / two_m).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::Graph;

    /// Two triangles joined by a single bridge edge.
    fn two_triangles() -> Graph {
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn perfect_split_scores_high() {
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let q = modularity(&g, &p);
        // Hand computation: m = 7, each community has 3 intra edges and
        // total degree 7 ⇒ Q = 2·(3/7 − (7/14)²) = 6/7 − 1/2 = 5/14.
        assert!((q - 5.0 / 14.0).abs() < 1e-12, "Q = {q}");
    }

    #[test]
    fn whole_partition_scores_zero() {
        let g = two_triangles();
        let q = modularity(&g, &Partition::whole(6));
        assert!(q.abs() < 1e-12);
    }

    #[test]
    fn singletons_score_negative() {
        let g = two_triangles();
        let q = modularity(&g, &Partition::singletons(6));
        assert!(q < 0.0);
    }

    #[test]
    fn good_split_beats_bad_split() {
        let g = two_triangles();
        let good = modularity(&g, &Partition::from_labels(vec![0, 0, 0, 1, 1, 1]));
        let bad = modularity(&g, &Partition::from_labels(vec![0, 1, 0, 1, 0, 1]));
        assert!(good > bad + 0.3);
    }

    #[test]
    fn empty_graph_zero() {
        let g = Graph::new(4);
        assert_eq!(modularity(&g, &Partition::whole(4)), 0.0);
    }

    #[test]
    fn weighted_matches_unweighted_for_unit_weights() {
        let g = two_triangles();
        let w = WeightedGraph::from_graph(&g);
        let labels = vec![0, 0, 0, 1, 1, 1];
        let qw = modularity_weighted(&w, &labels);
        let q = modularity(&g, &Partition::from_labels(labels));
        assert!((qw - q).abs() < 1e-12, "{qw} vs {q}");
    }

    #[test]
    fn weighted_aggregation_invariant() {
        // Modularity of a partition equals the modularity of the same
        // partition on the aggregated graph with singleton labels.
        let g = two_triangles();
        let w = WeightedGraph::from_graph(&g);
        let labels = vec![0u32, 0, 0, 1, 1, 1];
        let agg = w.aggregate(&labels, 2);
        let q1 = modularity_weighted(&w, &labels);
        let q2 = modularity_weighted(&agg, &[0, 1]);
        assert!((q1 - q2).abs() < 1e-12, "{q1} vs {q2}");
    }
}

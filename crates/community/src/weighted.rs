//! A compact weighted undirected graph used by Louvain's aggregation
//! phase and by PrivGraph's noisy super-graph.
//!
//! The two full-graph scans — lifting an unweighted [`Graph`]
//! ([`WeightedGraph::from_graph`]) and community coarsening
//! ([`WeightedGraph::aggregate`]) — are chunked over nodes and run on the
//! ambient [`pgb_par::current_parallelism`] budget. Both keep float
//! *arithmetic* out of the chunk merge (merges only append contribution
//! lists in node order); every weight sum happens afterwards in a fixed
//! order, so the resulting graph is bit-identical at any thread count.
//!
//! Coarsening reads its input through the crate-private `Adjacency`
//! trait, so Louvain coarsens its level-0 [`Graph`] without lifting it.

use pgb_graph::{Graph, NodeId};

/// Nodes per chunk for the parallel scans.
const NODE_CHUNK: usize = 16_384;

/// What Louvain's local moving and aggregation read of a graph. Level 0
/// reads the unweighted CSR [`Graph`] directly (unit weights, no
/// self-loops); every later level reads an aggregated [`WeightedGraph`].
/// A `Graph` gives the same values, in the same order, as its
/// [`WeightedGraph::from_graph`] lift: unit weights sum exactly, so its
/// weighted degree is `deg as f64` and its total weight `2m`.
pub(crate) trait Adjacency: Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Total weight `2m`.
    fn total_weight(&self) -> f64;
    /// Incident edge weights plus twice the self-loop weight.
    fn weighted_degree(&self, u: NodeId) -> f64;
    /// Self-loop weight at `u`.
    fn self_loop(&self, u: NodeId) -> f64;
    /// Neighbours of `u` with their (strictly positive) edge weights, in
    /// stored order; self-loops excluded.
    fn weighted_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_;
}

impl Adjacency for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn total_weight(&self) -> f64 {
        2.0 * self.edge_count() as f64
    }

    fn weighted_degree(&self, u: NodeId) -> f64 {
        self.degree(u) as f64
    }

    fn self_loop(&self, _u: NodeId) -> f64 {
        0.0
    }

    fn weighted_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.neighbors(u).iter().map(|&v| (v, 1.0))
    }
}

impl Adjacency for WeightedGraph {
    fn node_count(&self) -> usize {
        WeightedGraph::node_count(self)
    }

    fn total_weight(&self) -> f64 {
        WeightedGraph::total_weight(self)
    }

    fn weighted_degree(&self, u: NodeId) -> f64 {
        WeightedGraph::weighted_degree(self, u)
    }

    fn self_loop(&self, u: NodeId) -> f64 {
        WeightedGraph::self_loop(self, u)
    }

    fn weighted_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.neighbors(u).iter().copied()
    }
}

/// An undirected graph with `f64` edge weights and per-node self-loop
/// weights (self-loops arise from community aggregation). Every stored
/// edge weight is strictly positive (`add_edge` drops zeros); Louvain's
/// local moving relies on this to mark untouched communities with 0.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    adj: Vec<Vec<(NodeId, f64)>>,
    self_loops: Vec<f64>,
    /// Total weight `2m`: twice the sum of edge weights plus twice the
    /// self-loop weights (a self-loop contributes its weight to both
    /// endpoints, i.e. 2w to the degree of its node — the Louvain
    /// convention).
    total: f64,
}

impl WeightedGraph {
    /// An empty weighted graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        WeightedGraph { adj: vec![Vec::new(); n], self_loops: vec![0.0; n], total: 0.0 }
    }

    /// Lifts an unweighted [`Graph`] (every edge weight 1).
    ///
    /// Built directly from the CSR adjacency in parallel node chunks: each
    /// node's weighted list is its id-sorted neighbour segment at weight 1
    /// — exactly the list the incremental [`WeightedGraph::add_edge`] path
    /// produces, without the per-edge linear find.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let adj: Vec<Vec<(NodeId, f64)>> = pgb_par::par_map_chunks(n, NODE_CHUNK, |range, out| {
            for u in range {
                out.push(g.neighbors(u as NodeId).iter().map(|&v| (v, 1.0)).collect());
            }
        });
        // 2m exactly — the same value the add_edge path accumulates in
        // unit steps (integers are exact in f64).
        let total = 2.0 * g.edge_count() as f64;
        WeightedGraph { adj, self_loops: vec![0.0; n], total }
    }

    /// Builds the graph from weighted edges `(u, v, w)` with `u ≤ v`
    /// (`u == v` is a self-loop), listed in strictly increasing `(u, v)`
    /// order — the row order PrivGraph's noisy super-graph comes in.
    ///
    /// No pair repeats, so every edge is pushed without the linear find
    /// of [`WeightedGraph::add_edge`]. Rows and `total` accumulate in the
    /// same order as an `add_edge` loop over the same edges, so the
    /// result is bit-identical to it.
    ///
    /// # Panics
    /// Panics if a pair has `u > v`, is out of range, does not follow its
    /// predecessor strictly, or has a negative/NaN weight.
    pub fn from_upper_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Self {
        let mut g = WeightedGraph::new(n);
        let mut prev = None;
        for (u, v, weight) in edges {
            assert!(u <= v && prev < Some((u, v)), "edge ({u},{v}) out of order after {prev:?}");
            prev = Some((u, v));
            if !g.check_edge(u, v, weight) {
                continue;
            }
            if u == v {
                g.self_loops[u as usize] += weight;
            } else {
                g.adj[u as usize].push((v, weight));
                g.adj[v as usize].push((u, weight));
            }
            g.total += 2.0 * weight;
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Validates an edge for insertion; `false` means a zero weight,
    /// which is dropped.
    fn check_edge(&self, u: NodeId, v: NodeId, weight: f64) -> bool {
        assert!(weight >= 0.0 && weight.is_finite(), "invalid weight {weight}");
        let n = self.node_count();
        assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of range {n}");
        weight != 0.0
    }

    /// Adds weight `weight` to the edge `{u, v}` (accumulating if called
    /// twice); `u == v` accumulates a self-loop.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or `weight` is negative/NaN.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) {
        if !self.check_edge(u, v, weight) {
            return;
        }
        if u == v {
            self.self_loops[u as usize] += weight;
            self.total += 2.0 * weight;
            return;
        }
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adj[a as usize];
            match list.iter_mut().find(|(x, _)| *x == b) {
                Some((_, w)) => *w += weight,
                None => list.push((b, weight)),
            }
        }
        self.total += 2.0 * weight;
    }

    /// Weighted neighbours of `u` (self-loops excluded).
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.adj[u as usize]
    }

    /// Self-loop weight at `u`.
    pub fn self_loop(&self, u: NodeId) -> f64 {
        self.self_loops[u as usize]
    }

    /// Weighted degree of `u`: incident edge weights plus twice the
    /// self-loop weight.
    pub fn weighted_degree(&self, u: NodeId) -> f64 {
        let nbr: f64 = self.adj[u as usize].iter().map(|&(_, w)| w).sum();
        nbr + 2.0 * self.self_loops[u as usize]
    }

    /// Total weight `2m`.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Aggregates nodes by `labels` (values must be `0..k`): returns the
    /// `k`-node graph whose edge weights sum the inter-community weights
    /// and whose self-loops sum the intra-community weights.
    ///
    /// Two chunked parallel phases, both thread-count-invariant:
    ///
    /// 1. **Bucketing** — node chunks append each contribution `(c₂, w)`
    ///    (or `(c, w)` for intra-community / self-loop weight) to the
    ///    affected communities' buckets; chunk buckets append-merge in
    ///    chunk order, so every community sees its contributions in
    ///    ascending-node order — the order the old sequential `add_edge`
    ///    loop produced.
    /// 2. **Row folding** — community chunks fold their buckets into the
    ///    weighted rows: neighbour entries keep first-occurrence order
    ///    and accumulate in contribution order, exactly like repeated
    ///    `add_edge` calls. Each chunk finds a neighbour's entry through a
    ///    dense `k`-slot position index rather than a scan of the row,
    ///    and clears only the slots its row set.
    ///
    /// The total weight is re-accumulated by one sequential pass over the
    /// input in ascending-node order — the *chronological* order the old
    /// per-edge `add_edge` loop used — so even with non-integer weights
    /// (PrivGraph's noisy super-graphs) every output field is bit-identical
    /// to the pre-parallel implementation, at any thread count.
    pub fn aggregate(&self, labels: &[u32], k: usize) -> WeightedGraph {
        aggregate(self, labels, k)
    }
}

/// [`WeightedGraph::aggregate`] over any [`Adjacency`]: Louvain coarsens
/// its level-0 [`Graph`] through this without lifting it first.
pub(crate) fn aggregate<G: Adjacency>(g: &G, labels: &[u32], k: usize) -> WeightedGraph {
    assert_eq!(labels.len(), g.node_count(), "label vector length mismatch");
    let buckets: Vec<Vec<(u32, f64)>> = pgb_par::par_fold_chunks(
        g.node_count(),
        NODE_CHUNK,
        || vec![Vec::new(); k],
        |buckets: &mut Vec<Vec<(u32, f64)>>, range| {
            for u in range {
                let cu = labels[u];
                let self_w = g.self_loop(u as NodeId);
                if self_w > 0.0 {
                    buckets[cu as usize].push((cu, self_w));
                }
                for (v, w) in g.weighted_neighbors(u as NodeId) {
                    if v as usize > u {
                        let cv = labels[v as usize];
                        if cu == cv {
                            buckets[cu as usize].push((cu, w));
                        } else {
                            buckets[cu as usize].push((cv, w));
                            buckets[cv as usize].push((cu, w));
                        }
                    }
                }
            }
        },
        |buckets, other| {
            for (b, mut o) in buckets.iter_mut().zip(other) {
                b.append(&mut o);
            }
        },
    );
    let rows: Vec<(Vec<(NodeId, f64)>, f64)> =
        pgb_par::par_map_chunks(k, NODE_CHUNK, |range, out| {
            // `pos[c2]` is c2's index in the row being folded, u32::MAX
            // when absent; reset from the row after each community.
            let mut pos = vec![u32::MAX; k];
            for c in range {
                let c = c as u32;
                let mut list: Vec<(NodeId, f64)> = Vec::new();
                let mut self_w = 0.0f64;
                for &(c2, w) in &buckets[c as usize] {
                    if c2 == c {
                        self_w += w;
                        continue;
                    }
                    let slot = &mut pos[c2 as usize];
                    if *slot == u32::MAX {
                        *slot = list.len() as u32;
                        list.push((c2, w));
                    } else {
                        list[*slot as usize].1 += w;
                    }
                }
                for &(c2, _) in &list {
                    pos[c2 as usize] = u32::MAX;
                }
                out.push((list, self_w));
            }
        });
    let mut adj = Vec::with_capacity(k);
    let mut self_loops = Vec::with_capacity(k);
    for (list, s) in rows {
        adj.push(list);
        self_loops.push(s);
    }
    // `total` in chronological (ascending-node) contribution order:
    // exactly the `total += 2.0 * w` sequence the old sequential
    // `add_edge` loop performed, so float weights reproduce the
    // pre-parallel bits — and the order is fixed, so neither chunking
    // nor threads can move it.
    let mut total = 0.0;
    for u in 0..g.node_count() {
        let self_w = g.self_loop(u as NodeId);
        if self_w > 0.0 {
            total += 2.0 * self_w;
        }
        for (v, w) in g.weighted_neighbors(u as NodeId) {
            if v as usize > u {
                total += 2.0 * w;
            }
        }
    }
    WeightedGraph { adj, self_loops, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::Graph;

    #[test]
    fn from_graph_weights() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let w = WeightedGraph::from_graph(&g);
        assert_eq!(w.total_weight(), 4.0);
        assert_eq!(w.weighted_degree(1), 2.0);
        assert_eq!(w.weighted_degree(0), 1.0);
    }

    #[test]
    fn add_edge_accumulates() {
        let mut w = WeightedGraph::new(2);
        w.add_edge(0, 1, 1.5);
        w.add_edge(1, 0, 0.5);
        assert_eq!(w.neighbors(0), &[(1, 2.0)]);
        assert_eq!(w.total_weight(), 4.0);
    }

    #[test]
    fn self_loops_count_double() {
        let mut w = WeightedGraph::new(1);
        w.add_edge(0, 0, 3.0);
        assert_eq!(w.self_loop(0), 3.0);
        assert_eq!(w.weighted_degree(0), 6.0);
        assert_eq!(w.total_weight(), 6.0);
    }

    #[test]
    fn zero_weight_ignored() {
        let mut w = WeightedGraph::new(2);
        w.add_edge(0, 1, 0.0);
        assert!(w.neighbors(0).is_empty());
        assert_eq!(w.total_weight(), 0.0);
    }

    #[test]
    fn aggregate_preserves_total_weight() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let w = WeightedGraph::from_graph(&g);
        let agg = w.aggregate(&[0, 0, 1, 1], 2);
        assert_eq!(agg.node_count(), 2);
        // Intra: {0,1} and {2,3} → self-loops of weight 1 each.
        assert_eq!(agg.self_loop(0), 1.0);
        assert_eq!(agg.self_loop(1), 1.0);
        // Inter: {1,2} and {3,0} → edge weight 2.
        assert_eq!(agg.neighbors(0), &[(1, 2.0)]);
        assert_eq!(agg.total_weight(), w.total_weight());
    }

    #[test]
    fn aggregate_rows_keep_first_occurrence_order() {
        // Community 0 meets community 2 before community 1, and meets each
        // of them twice: its row must list 2 first, with both weights
        // summed into the one entry.
        let mut w = WeightedGraph::new(6);
        for (u, v, weight) in
            [(0, 4, 1.0), (0, 2, 0.5), (1, 5, 0.25), (1, 3, 2.0), (3, 4, 0.125), (0, 1, 4.0)]
        {
            w.add_edge(u, v, weight);
        }
        let agg = w.aggregate(&[0, 0, 1, 1, 2, 2], 3);
        assert_eq!(agg.neighbors(0), &[(2, 1.25), (1, 2.5)]);
        assert_eq!(agg.neighbors(1), &[(0, 2.5), (2, 0.125)]);
        assert_eq!(agg.neighbors(2), &[(0, 1.25), (1, 0.125)]);
        assert_eq!(agg.self_loop(0), 4.0);
        assert_eq!(agg.self_loop(1), 0.0);
        assert_eq!(agg.total_weight(), w.total_weight());
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        WeightedGraph::new(2).add_edge(0, 1, -1.0);
    }

    #[test]
    fn scans_bit_identical_at_any_thread_budget() {
        // Non-integer weights on purpose: the bucket/append discipline must
        // keep f64 accumulation in a fixed order regardless of threads.
        let mut w = WeightedGraph::new(40);
        for u in 0..40u32 {
            for v in (u + 1)..40 {
                if (u * 31 + v * 17) % 5 == 0 {
                    w.add_edge(u, v, 0.1 + (u as f64 + 0.3) / (v as f64 + 1.7));
                }
            }
        }
        w.add_edge(3, 3, 0.25);
        let labels: Vec<u32> = (0..40u32).map(|u| u % 7).collect();
        let run = |threads: usize| pgb_par::with_parallelism(threads, || w.aggregate(&labels, 7));
        let reference = run(1);
        for threads in [2, 3, 8, 0] {
            let agg = run(threads);
            assert_eq!(agg.total_weight().to_bits(), reference.total_weight().to_bits());
            for c in 0..7u32 {
                assert_eq!(agg.neighbors(c), reference.neighbors(c), "community {c}");
                assert_eq!(agg.self_loop(c).to_bits(), reference.self_loop(c).to_bits());
            }
        }
    }

    #[test]
    fn aggregate_bit_matches_pre_parallel_reference() {
        // The old aggregate was a sequential add_edge loop in ascending-
        // node order; the bucketed parallel version must reproduce its
        // exact bits — including the f64 accumulation order — on
        // non-integer weights (PrivGraph's noisy super-graphs).
        let mut w = WeightedGraph::new(30);
        for u in 0..30u32 {
            for v in (u + 1)..30 {
                if (u * 13 + v * 7) % 4 == 0 {
                    w.add_edge(u, v, 0.05 + (v as f64 + 0.11) / (u as f64 + 2.9));
                }
            }
        }
        w.add_edge(5, 5, 1.0 / 3.0);
        let labels: Vec<u32> = (0..30u32).map(|u| (u * u) % 5).collect();
        let (k, agg) = (5, w.aggregate(&labels, 5));
        let mut reference = WeightedGraph::new(k);
        for u in 0..30u32 {
            let cu = labels[u as usize];
            if w.self_loop(u) > 0.0 {
                reference.add_edge(cu, cu, w.self_loop(u));
            }
            for &(v, weight) in w.neighbors(u) {
                if v > u {
                    let cv = labels[v as usize];
                    reference.add_edge(cu, if cu == cv { cu } else { cv }, weight);
                }
            }
        }
        assert_eq!(agg.total_weight().to_bits(), reference.total_weight().to_bits());
        for c in 0..k as u32 {
            assert_eq!(agg.neighbors(c), reference.neighbors(c), "community {c}");
            assert_eq!(agg.self_loop(c).to_bits(), reference.self_loop(c).to_bits());
        }
    }

    /// Non-integer weights and self-loops in strictly increasing upper
    /// order, some of them zero.
    fn upper_edges() -> Vec<(NodeId, NodeId, f64)> {
        let mut edges = Vec::new();
        for u in 0..25u32 {
            for v in u..25 {
                if (u * 11 + v * 5) % 3 == 0 {
                    let weight =
                        if (u + v) % 7 == 0 { 0.0 } else { 0.3 + (v as f64) / (u as f64 + 1.9) };
                    edges.push((u, v, weight));
                }
            }
        }
        edges
    }

    #[test]
    fn from_upper_edges_bit_matches_add_edge() {
        let edges = upper_edges();
        assert!(edges.iter().any(|&(u, v, _)| u == v), "the fixture must hold self-loops");
        let fast = WeightedGraph::from_upper_edges(25, edges.iter().copied());
        let mut slow = WeightedGraph::new(25);
        for &(u, v, weight) in &edges {
            slow.add_edge(u, v, weight);
        }
        assert_eq!(fast.total_weight().to_bits(), slow.total_weight().to_bits());
        for u in 0..25u32 {
            assert_eq!(fast.neighbors(u), slow.neighbors(u), "node {u}");
            assert_eq!(fast.self_loop(u).to_bits(), slow.self_loop(u).to_bits(), "node {u}");
        }
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_upper_edges_rejects_a_repeated_pair() {
        WeightedGraph::from_upper_edges(3, [(0, 1, 1.0), (0, 1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_upper_edges_rejects_an_out_of_order_pair() {
        WeightedGraph::from_upper_edges(3, [(0, 2, 1.0), (0, 1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_upper_edges_rejects_a_lower_pair() {
        WeightedGraph::from_upper_edges(3, [(1, 0, 1.0)]);
    }

    #[test]
    fn from_graph_matches_incremental_construction() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]).unwrap();
        let fast = WeightedGraph::from_graph(&g);
        let mut slow = WeightedGraph::new(6);
        for (u, v) in g.edges() {
            slow.add_edge(u, v, 1.0);
        }
        assert_eq!(fast.total_weight(), slow.total_weight());
        for u in 0..6u32 {
            assert_eq!(fast.neighbors(u), slow.neighbors(u), "node {u}");
        }
    }
}

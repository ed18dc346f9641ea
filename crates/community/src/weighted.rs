//! A compact weighted undirected graph used by Louvain's aggregation
//! phase and by PrivGraph's noisy super-graph.
//!
//! Lifting an unweighted [`Graph`] ([`WeightedGraph::from_graph`]) is
//! chunked over nodes and runs on the ambient
//! [`pgb_par::current_parallelism`] budget. Community coarsening
//! ([`WeightedGraph::aggregate`]) counting-sorts every contribution into
//! one flat buffer in a single sequential pass in ascending node order,
//! then folds the communities' rows in chunks on the same budget. No float
//! is summed across a chunk boundary and every weight sum happens in a
//! fixed order, so the resulting graph is bit-identical at any thread
//! count.
//!
//! Coarsening reads its input through the crate-private `Adjacency`
//! trait, so Louvain coarsens its level-0 [`Graph`] without lifting it.

use pgb_graph::{Graph, NodeId};
use std::ops::AddAssign;

/// Nodes per chunk for the parallel scans.
const NODE_CHUNK: usize = 16_384;

/// What Louvain's local moving and aggregation read of a graph. Level 0
/// reads the unweighted CSR [`Graph`] directly (unit weights, no
/// self-loops); every later level reads an aggregated [`WeightedGraph`].
/// A `Graph` gives the same values, in the same order, as its
/// [`WeightedGraph::from_graph`] lift: unit weights sum exactly, so its
/// weighted degree is `deg as f64` and its total weight `2m`.
pub(crate) trait Adjacency: Sync {
    /// An edge weight as local moving sums it per community: `u32` unit
    /// counts on the CSR, `f64` on a [`WeightedGraph`]. Every stored weight
    /// is strictly positive, so a sum equal to the default (zero) is an
    /// untouched community. A count below 2^32 converts to `f64` exactly,
    /// so both give the same gains.
    type Weight: Copy + Default + PartialEq + AddAssign + Into<f64>;
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Total weight `2m`.
    fn total_weight(&self) -> f64;
    /// Incident edge weights plus twice the self-loop weight.
    fn weighted_degree(&self, u: NodeId) -> f64;
    /// Number of stored neighbours of `u`, self-loops excluded.
    fn neighbor_count(&self, u: NodeId) -> usize;
    /// Self-loop weight at `u`.
    fn self_loop(&self, u: NodeId) -> f64;
    /// Neighbours of `u` with their (strictly positive) edge weights, in
    /// stored order; self-loops excluded.
    fn weighted_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Self::Weight)> + '_;
}

impl Adjacency for Graph {
    type Weight = u32;

    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn total_weight(&self) -> f64 {
        2.0 * self.edge_count() as f64
    }

    fn weighted_degree(&self, u: NodeId) -> f64 {
        self.degree(u) as f64
    }

    fn neighbor_count(&self, u: NodeId) -> usize {
        self.degree(u)
    }

    fn self_loop(&self, _u: NodeId) -> f64 {
        0.0
    }

    fn weighted_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.neighbors(u).iter().map(|&v| (v, 1))
    }
}

impl Adjacency for WeightedGraph {
    type Weight = f64;

    fn node_count(&self) -> usize {
        WeightedGraph::node_count(self)
    }

    fn total_weight(&self) -> f64 {
        WeightedGraph::total_weight(self)
    }

    fn weighted_degree(&self, u: NodeId) -> f64 {
        WeightedGraph::weighted_degree(self, u)
    }

    fn neighbor_count(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
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
    /// Two phases, both thread-count-invariant:
    ///
    /// 1. **Counting sort** — one sequential pass over the nodes in
    ///    ascending order scatters each contribution `(c₂, w)` (or `(c, w)`
    ///    for intra-community / self-loop weight) into its community's
    ///    segment of one flat buffer, so every community sees its
    ///    contributions in ascending-node order — the order the old
    ///    sequential `add_edge` loop produced. A community receives at
    ///    most one contribution per neighbour entry of its nodes, plus one
    ///    per self-loop, so the segments are sized from a count pass over
    ///    the degrees and a prefix sum, without reading the adjacency
    ///    twice.
    /// 2. **Row folding** — community chunks fold their segments into the
    ///    weighted rows on the ambient [`pgb_par::current_parallelism`]
    ///    budget: neighbour entries keep first-occurrence order and
    ///    accumulate in contribution order, exactly like repeated
    ///    `add_edge` calls. Each chunk finds a neighbour's entry through a
    ///    dense `k`-slot position index rather than a scan of the row,
    ///    and clears only the slots its row set.
    ///
    /// The total weight accumulates during the scatter in ascending-node
    /// order — the *chronological* order the old per-edge `add_edge` loop
    /// used — so even with non-integer weights (PrivGraph's noisy
    /// super-graphs) every output field is bit-identical to that loop, at
    /// any thread count.
    pub fn aggregate(&self, labels: &[u32], k: usize) -> WeightedGraph {
        aggregate(self, labels, k)
    }
}

/// [`WeightedGraph::aggregate`] over any [`Adjacency`]: Louvain coarsens
/// its level-0 [`Graph`] through this without lifting it first.
pub(crate) fn aggregate<G: Adjacency>(g: &G, labels: &[u32], k: usize) -> WeightedGraph {
    let n = g.node_count();
    assert_eq!(labels.len(), n, "label vector length mismatch");
    // Community c's segment is `contrib[start[c]..end[c]]`, with room for
    // one contribution per neighbour entry of its nodes and one self-loop
    // each.
    let mut start = vec![0usize; k + 1];
    for (u, &c) in labels.iter().enumerate() {
        start[c as usize + 1] += g.neighbor_count(u as NodeId) + 1;
    }
    for c in 0..k {
        start[c + 1] += start[c];
    }
    let mut end = start[..k].to_vec();
    let mut contrib = vec![(0u32, 0.0f64); start[k]];
    let mut push = |c: u32, entry: (u32, f64)| {
        contrib[end[c as usize]] = entry;
        end[c as usize] += 1;
    };
    // `total` in chronological (ascending-node) contribution order:
    // exactly the `total += 2.0 * w` sequence of the old sequential
    // `add_edge` loop, so float weights reproduce its bits.
    let mut total = 0.0;
    for (u, &cu) in labels.iter().enumerate() {
        let self_w = g.self_loop(u as NodeId);
        if self_w > 0.0 {
            push(cu, (cu, self_w));
            total += 2.0 * self_w;
        }
        for (v, w) in g.weighted_neighbors(u as NodeId) {
            if v as usize > u {
                let w: f64 = w.into();
                let cv = labels[v as usize];
                push(cu, (cv, w));
                if cu != cv {
                    push(cv, (cu, w));
                }
                total += 2.0 * w;
            }
        }
    }
    let rows: Vec<(Vec<(NodeId, f64)>, f64)> =
        pgb_par::par_map_chunks(k, NODE_CHUNK, |range, out| {
            // `pos[c2]` is c2's index in the row being folded, u32::MAX
            // when absent; reset from the row after each community.
            let mut pos = vec![u32::MAX; k];
            for c in range {
                let mut list: Vec<(NodeId, f64)> = Vec::new();
                let mut self_w = 0.0f64;
                for &(c2, w) in &contrib[start[c]..end[c]] {
                    if c2 as usize == c {
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
        // Non-integer weights on purpose: the row fold must keep f64
        // accumulation in a fixed order regardless of threads.
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
        // node order; the counting-sorted version must reproduce its
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

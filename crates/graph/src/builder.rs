//! Incremental edge accumulation with a single counting-sort pass at build
//! time.

use crate::{Graph, NodeId, Result};

/// Accumulates edges cheaply (no per-insertion ordering work) and produces a
/// [`Graph`] with one counting-sort pass.
///
/// [`Graph`] itself is an immutable CSR structure, so a constructor that
/// discovers edges one at a time (the synthetic-graph models) pushes them
/// here and finalises once through [`Graph::from_edges`], a counting sort
/// in `O(n + E)` that ends in the two flat CSR allocations. Callers that
/// already hold an edge list pass it to [`Graph::from_edges`] directly.
///
/// ```
/// use pgb_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.push(0, 1);
/// b.push(1, 0); // duplicate, collapsed at build
/// b.push(2, 2); // self-loop, dropped at build
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// A builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(m) }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Records the edge `{u, v}`. Range checking is deferred to
    /// [`GraphBuilder::build`]; self-loops and duplicates are dropped there.
    #[inline]
    pub fn push(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Extends from an edge iterator.
    pub fn extend<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        self.edges.extend(iter);
    }

    /// Finalises the accumulated edges into a [`Graph`].
    pub fn build(self) -> Result<Graph> {
        Graph::from_edges(self.n, self.edges)
    }

    /// Streaming construction: counting-sorts an edge stream directly into
    /// the CSR arrays without ever materialising the unsorted edge list.
    ///
    /// `emit` is invoked exactly twice and must produce the *identical*
    /// edge sequence on both calls (the first pass counts endpoint
    /// occurrences, the second fills the neighbour segments); generators
    /// replay by cloning their RNG before the first pass. A divergent
    /// second pass panics. Self-loops and duplicate edges are dropped, as
    /// in [`GraphBuilder::build`], and the final graph is byte-identical to
    /// the one `build` would produce from the same stream.
    ///
    /// Peak heap is one `2m`-entry neighbour array plus an `n`-entry count
    /// array — roughly half of the accumulate-then-sort path, which holds
    /// the pushed edge list and the CSR arrays simultaneously. Edge counts
    /// that would overflow the `u32` offset array are reported as
    /// [`crate::GraphError::TooManyEdges`] before the big allocation, so
    /// generators that know their edge count can probe cheaply.
    pub fn build_streaming<F>(n: usize, emit: F) -> Result<Graph>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        Graph::from_edge_stream(n, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_collapses_duplicates() {
        let mut b = GraphBuilder::with_capacity(4, 6);
        b.extend([(0, 1), (1, 0), (1, 2), (2, 3), (2, 3), (3, 3)]);
        assert_eq!(b.edges.len(), 6);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 3);
        assert!(g.check_invariants());
    }

    #[test]
    fn build_propagates_range_errors() {
        let mut b = GraphBuilder::new(2);
        b.push(0, 9);
        assert!(b.build().is_err());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(5).build().unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn build_streaming_matches_build() {
        let edges = [(0u32, 1u32), (1, 0), (1, 2), (2, 3), (2, 3), (3, 3), (0, 3)];
        let mut b = GraphBuilder::new(4);
        b.extend(edges);
        let built = b.build().unwrap();
        let streamed = GraphBuilder::build_streaming(4, |sink| {
            for &(u, v) in &edges {
                sink(u, v);
            }
        })
        .unwrap();
        assert_eq!(streamed.csr(), built.csr());
        assert_eq!(streamed.edge_count(), 4);
        assert!(streamed.check_invariants());
    }

    #[test]
    fn build_streaming_empty_stream() {
        let g = GraphBuilder::build_streaming(3, |_sink| {}).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.check_invariants());
    }
}

//! The central [`Graph`] type: an undirected simple graph in compressed
//! sparse row (CSR) layout with sorted neighbour segments.

use crate::{GraphError, Result};

/// Node identifier. PGB graphs have at most a few hundred thousand nodes, so
/// `u32` halves the memory footprint of adjacency storage relative to `usize`.
pub type NodeId = u32;

/// An undirected simple graph (no self-loops, no parallel edges).
///
/// Nodes are the contiguous range `0..node_count()`. Storage is compressed
/// sparse row: one flat `offsets` array (length `n + 1`) indexing into one
/// flat `neighbors` array (length `2m`), so the whole adjacency structure is
/// two allocations regardless of node count, neighbour slices of consecutive
/// nodes are contiguous in memory, and a full adjacency scan is a single
/// linear pass over one buffer. Each node's segment is kept sorted, which
/// makes [`Graph::has_edge`] a binary search and lets triangle counting and
/// set intersections run over sorted slices.
///
/// A `Graph` is immutable once constructed: build it with
/// [`Graph::from_edges`] or accumulate edges incrementally through
/// [`crate::GraphBuilder`], which finalises into CSR with one counting-sort
/// pass. (The pre-CSR `add_edge`/`remove_edge` entry points were removed —
/// per-edge mutation of a flat layout would be `O(m)` per call, and no
/// benchmark component mutates a graph after construction.)
#[derive(Clone)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` is node `u`'s segment in `neighbors`.
    /// Always `n + 1` entries; `offsets[n] == 2m`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour segments, `2m` entries.
    neighbors: Vec<NodeId>,
    m: usize,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl Graph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph { offsets: vec![0; n + 1], neighbors: Vec::new(), m: 0 }
    }

    /// Builds a graph from an edge iterator.
    ///
    /// Self-loops are dropped and duplicate edges collapsed, mirroring the
    /// preprocessing PGB applies to every dataset (the paper evaluates simple
    /// undirected graphs only). Returns an error for the first endpoint
    /// `>= n` in input order (`u` checked before `v`), and
    /// [`GraphError::TooManyEdges`] if the deduplicated edges overflow the
    /// `u32` CSR offsets or more than `u32::MAX` out-of-order pairs must be
    /// sorted.
    ///
    /// `O(n + E)`: the pairs are normalised to `u < v` in input order and,
    /// unless they already arrived in order (grids, re-read
    /// [`Graph::edges`]), put in order by two stable counting passes, by
    /// `v` and then by `u`. One symmetric fill of the deduplicated pairs
    /// then writes the CSR arrays.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let edges = edges.into_iter();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.size_hint().0);
        let mut in_order = true;
        for (u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                continue;
            }
            let pair = if u < v { (u, v) } else { (v, u) };
            in_order &= pairs.last().is_none_or(|&last| last <= pair);
            pairs.push(pair);
        }
        if !in_order {
            if pairs.len() > u32::MAX as usize {
                return Err(GraphError::TooManyEdges { edges: pairs.len() });
            }
            // `by_u[u]` and `by_v[v]` become each key's first slot.
            let (mut by_u, mut by_v) = (vec![0u32; n + 1], vec![0u32; n + 1]);
            for &(u, v) in &pairs {
                by_u[u as usize + 1] += 1;
                by_v[v as usize + 1] += 1;
            }
            for i in 0..n {
                by_u[i + 1] += by_u[i];
                by_v[i + 1] += by_v[i];
            }
            let mut by_larger = vec![(0, 0); pairs.len()];
            for &pair in &pairs {
                by_larger[by_v[pair.1 as usize] as usize] = pair;
                by_v[pair.1 as usize] += 1;
            }
            for &pair in &by_larger {
                pairs[by_u[pair.0 as usize] as usize] = pair;
                by_u[pair.0 as usize] += 1;
            }
        }
        pairs.dedup();
        Self::from_sorted_unique_pairs(n, &pairs)
    }

    /// Checks that `m` edges fit the `u32` CSR offset array (`2m` entries
    /// must be indexable by `u32`). Factored out so the boundary is unit
    /// testable without allocating a multi-gigabyte edge list.
    pub(crate) fn csr_capacity_check(m: usize) -> Result<()> {
        // `m <= u32::MAX / 2` ⇔ `2m <= u32::MAX` (2m is even), phrased
        // without the doubled multiplication so the check itself cannot
        // overflow `usize`.
        if m > (u32::MAX / 2) as usize {
            Err(GraphError::TooManyEdges { edges: m })
        } else {
            Ok(())
        }
    }

    /// Constructs the CSR arrays directly from a replayable edge stream,
    /// never materialising the unsorted edge list. See
    /// [`crate::GraphBuilder::build_streaming`] for the public entry point
    /// and the replay contract.
    pub(crate) fn from_edge_stream<F>(n: usize, mut emit: F) -> Result<Self>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        // Pass 1: count each endpoint's occurrences (self-loops dropped,
        // duplicates still counted — they are removed after the per-segment
        // sort below). The running total is checked against the CSR offset
        // capacity *before* degree counters can saturate: while the total
        // stays within `u32::MAX / 2` pushed edges, no endpoint count can
        // exceed `u32::MAX`.
        let mut counts = vec![0u32; n];
        let mut total: u64 = 0;
        let mut err: Option<GraphError> = None;
        emit(&mut |u, v| {
            if err.is_some() {
                return;
            }
            if u as usize >= n {
                err = Some(GraphError::NodeOutOfRange { node: u, n });
                return;
            }
            if v as usize >= n {
                err = Some(GraphError::NodeOutOfRange { node: v, n });
                return;
            }
            if u == v {
                return;
            }
            total += 1;
            if total > (u32::MAX / 2) as u64 {
                err = Some(GraphError::TooManyEdges { edges: total as usize });
                return;
            }
            counts[u as usize] += 1;
            counts[v as usize] += 1;
        });
        if let Some(e) = err {
            return Err(e);
        }

        // Offsets over the *pre-dedup* counts; the fill below lands every
        // endpoint, and the compaction pass re-derives the final offsets.
        let mut offsets = vec![0u32; n + 1];
        for (i, &c) in counts.iter().enumerate() {
            offsets[i + 1] = offsets[i] + c;
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as NodeId; 2 * total as usize];

        // Pass 2: replay the stream into the segments. The replay contract
        // (identical sequence both calls) is enforced by re-counting.
        let mut seen: u64 = 0;
        emit(&mut |u, v| {
            if u == v || u as usize >= n || v as usize >= n {
                return;
            }
            seen += 1;
            if seen > total {
                return; // diverged; caught by the assert below
            }
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        });
        assert_eq!(
            seen, total,
            "build_streaming edge source must emit the identical sequence on both passes"
        );

        // Pass 3: sort each segment, drop duplicates, and compact the
        // neighbour array in place — the result is exactly the CSR that
        // `from_edges` produces for the same stream.
        let mut write = 0usize;
        let mut final_offsets = vec![0u32; n + 1];
        for u in 0..n {
            let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
            neighbors[start..end].sort_unstable();
            let seg_write = write;
            for i in start..end {
                let v = neighbors[i];
                if write == seg_write || neighbors[write - 1] != v {
                    neighbors[write] = v;
                    write += 1;
                }
            }
            final_offsets[u + 1] = write as u32;
        }
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        debug_assert_eq!(write % 2, 0);
        Ok(Graph { offsets: final_offsets, neighbors, m: write / 2 })
    }

    /// The symmetric CSR fill. `pairs` must be normalised (`u < v`),
    /// lexicographically sorted, and deduplicated — then each node's segment
    /// comes out sorted without a per-segment sort: for node w, every
    /// back-edge write (from a pair `(u, w)`, `u < w`) happens before every
    /// forward write (from a pair `(w, v)`, `v > w`), and both write
    /// subsequences are increasing.
    fn from_sorted_unique_pairs(n: usize, pairs: &[(NodeId, NodeId)]) -> Result<Self> {
        let m = pairs.len();
        Self::csr_capacity_check(m)?;
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in pairs {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as NodeId; 2 * m];
        for &(u, v) in pairs {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        Ok(Graph { offsets, neighbors, m })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Heap footprint of the CSR arrays in bytes (allocated capacity, not
    /// just occupied length), so the benchmark runner can report the peak
    /// graph memory per cell.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.neighbors.capacity()) * std::mem::size_of::<u32>()
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Sorted neighbour slice of node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// The raw CSR arrays `(offsets, neighbors)`: `offsets` has `n + 1`
    /// entries and node `u`'s sorted neighbour segment is
    /// `neighbors[offsets[u] as usize..offsets[u + 1] as usize]`.
    ///
    /// Zero-copy view for consumers that walk the whole structure (kernels,
    /// serialisation) without per-node slicing.
    #[inline]
    pub fn csr(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.neighbors)
    }

    /// Whether the edge `{u, v}` is present. Self-queries return `false`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over all edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(|u| {
            let nbrs = self.neighbors(u);
            // Each neighbour segment is sorted, so the `v > u` suffix starts
            // at the partition point; this yields every undirected edge once.
            let start = nbrs.partition_point(|&v| v <= u);
            nbrs[start..].iter().map(move |&v| (u, v))
        })
    }

    /// Collects the edges into a vector (`u < v` per pair, sorted).
    pub fn edge_vec(&self) -> Vec<(NodeId, NodeId)> {
        self.edges().collect()
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }

    /// Iterates over all node degrees in node-id order — one pass over the
    /// offsets array, no per-node indexing.
    pub fn degrees(&self) -> impl Iterator<Item = u32> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0) as usize
    }

    /// Average degree `2m / n` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.m as f64 / self.node_count() as f64
        }
    }

    /// Edge density `2m / (n (n - 1))` (0.0 for graphs with < 2 nodes).
    pub fn density(&self) -> f64 {
        let n = self.node_count() as f64;
        if n < 2.0 {
            0.0
        } else {
            2.0 * self.m as f64 / (n * (n - 1.0))
        }
    }

    /// Consistency check used by tests and `debug_assert!`s: well-formed
    /// CSR (monotone offsets closing at `neighbors.len()`), sorted and
    /// deduplicated segments, symmetric adjacency with no self-loops, and
    /// `m` matching the stored structure.
    pub fn check_invariants(&self) -> bool {
        let n = self.node_count();
        if self.offsets[0] != 0
            || self.offsets[n] as usize != self.neighbors.len()
            || self.offsets.windows(2).any(|w| w[0] > w[1])
        {
            return false;
        }
        for u in self.nodes() {
            let nbrs = self.neighbors(u);
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return false; // unsorted or duplicate
            }
            for &v in nbrs {
                if v == u || v as usize >= n {
                    return false;
                }
                if self.neighbors(v).binary_search(&u).is_err() {
                    return false; // asymmetric
                }
            }
        }
        self.neighbors.len() == 2 * self.m
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn from_edges_dedups_and_drops_self_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 0), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.check_invariants());
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    // The three `from_edge_vec_*` tests feed `from_edges` an owned edge
    // `Vec`, the input every sampler hands it.

    #[test]
    fn from_edge_vec_matches_from_edges() {
        // Deterministic pseudo-random edge soup with duplicates, reversed
        // pairs and self-loops, past 2^15 pairs: the bucketing path must
        // land on the same CSR arrays as the in-order path fed the
        // normalised, sorted, deduplicated list.
        let n = 500u32;
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut edges = Vec::with_capacity(40_000);
        for _ in 0..40_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(((x % n as u64) as u32, ((x >> 32) % n as u64) as u32));
        }
        let mut sorted: Vec<(u32, u32)> =
            edges.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let shuffled = Graph::from_edges(n as usize, edges).unwrap();
        let in_order = Graph::from_edges(n as usize, sorted.clone()).unwrap();
        assert_eq!(shuffled.csr(), in_order.csr());
        assert_eq!(shuffled.edge_count(), sorted.len());
        assert!(shuffled.check_invariants());
    }

    #[test]
    fn from_edge_vec_reports_first_error_in_input_order() {
        let mut edges: Vec<(u32, u32)> = (0..40_000u32).map(|i| (i % 50, (i + 1) % 50)).collect();
        edges[777] = (3, 99); // first bad edge
        edges[30_000] = (98, 0); // later bad edge, smaller bad endpoint
        let err = Graph::from_edges(50, edges).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 99, n: 50 }), "{err:?}");
    }

    #[test]
    fn from_edge_vec_small_input_takes_serial_path() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 0), (2, 2), (2, 3)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.csr(), (&[0u32, 1, 2, 3, 4][..], &[1u32, 0, 3, 2][..]));
        assert!(g.check_invariants());
    }

    #[test]
    fn degree_and_neighbors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn csr_layout_is_flat_and_sorted() {
        let g = triangle_plus_pendant();
        let (offsets, neighbors) = g.csr();
        assert_eq!(offsets, &[0, 2, 4, 7, 8]);
        assert_eq!(neighbors, &[1, 2, 0, 2, 0, 1, 3, 2]);
        assert_eq!(offsets.len(), g.node_count() + 1);
        assert_eq!(neighbors.len(), 2 * g.edge_count());
    }

    #[test]
    fn segments_sorted_without_per_segment_sort() {
        // Edges deliberately out of order: the counting-sort fill must
        // still leave every segment strictly increasing.
        let g = Graph::from_edges(6, [(5, 0), (3, 1), (0, 4), (2, 0), (1, 0), (4, 3)]).unwrap();
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "node {u}: {nbrs:?}");
        }
        assert!(g.check_invariants());
    }

    #[test]
    fn has_edge_both_orders() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn degrees_iterator_matches_degree() {
        let g = triangle_plus_pendant();
        let via_iter: Vec<u32> = g.degrees().collect();
        let via_calls: Vec<u32> = g.nodes().map(|u| g.degree(u) as u32).collect();
        assert_eq!(via_iter, via_calls);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle_plus_pendant();
        let edges = g.edge_vec();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn density_and_average_degree() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
        assert!((g.density() - 2.0 * 2.0 / 12.0).abs() < 1e-12);
        assert_eq!(Graph::new(0).average_degree(), 0.0);
        assert_eq!(Graph::new(1).density(), 0.0);
    }

    #[test]
    fn empty_graph_is_consistent() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.check_invariants());
        let d = Graph::default();
        assert_eq!(d.node_count(), 0);
        assert!(d.check_invariants());
    }

    #[test]
    fn csr_capacity_boundary() {
        // `2m` must fit in u32: m = 0x7FFF_FFFF is the last representable
        // edge count, m = 0x8000_0000 the first rejected one. Exercised on
        // the check itself — building a 2^31-edge list needs ~16 GiB.
        assert!(Graph::csr_capacity_check(0x7FFF_FFFF).is_ok());
        let err = Graph::csr_capacity_check(0x8000_0000).unwrap_err();
        assert!(matches!(err, GraphError::TooManyEdges { edges: 0x8000_0000 }), "{err:?}");
    }

    #[test]
    fn heap_bytes_counts_both_csr_arrays() {
        let g = triangle_plus_pendant();
        // offsets: 5 entries, neighbors: 8 entries, 4 bytes each; capacity
        // may exceed length, so this is a lower bound.
        assert!(g.heap_bytes() >= (5 + 8) * 4, "{}", g.heap_bytes());
        assert_eq!(Graph::new(0).heap_bytes() % 4, 0);
    }

    #[test]
    fn from_edge_stream_matches_from_edges() {
        // A deterministic edge soup with duplicates, reversed pairs and
        // self-loops: the streaming path must land on byte-identical CSR
        // arrays.
        let n = 500u32;
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut edges = Vec::with_capacity(40_000);
        for _ in 0..40_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(((x % n as u64) as u32, ((x >> 32) % n as u64) as u32));
        }
        let serial = Graph::from_edges(n as usize, edges.clone()).unwrap();
        let streamed = Graph::from_edge_stream(n as usize, |sink| {
            for &(u, v) in &edges {
                sink(u, v);
            }
        })
        .unwrap();
        assert_eq!(streamed.csr(), serial.csr());
        assert!(streamed.check_invariants());
    }

    #[test]
    fn from_edge_stream_rejects_out_of_range() {
        let err = Graph::from_edge_stream(3, |sink| {
            sink(0, 1);
            sink(2, 7);
            sink(1, 2);
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 7, n: 3 }), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "identical sequence on both passes")]
    fn from_edge_stream_detects_divergent_replay() {
        let mut calls = 0;
        let _ = Graph::from_edge_stream(3, |sink| {
            calls += 1;
            sink(0, 1);
            if calls == 1 {
                sink(1, 2); // present in pass 1 only
            }
        });
    }

    #[test]
    fn max_degree_on_star() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(g.max_degree(), 4);
    }
}

//! Counting queries: triangles (Q3) and wedge counts (shared with the
//! clustering queries).
//!
//! All triangle work goes through one [`ForwardOrientation`]: the
//! degree-ordered forward orientation of the graph, built **once** and
//! shared by [`triangle_count`] and [`triangles_per_node`] (the suite
//! evaluator additionally derives the total from the per-node pass, so the
//! full 15-query suite orients and counts exactly once per graph).
//!
//! Triangles are found per pivot node `u` with a marker array: mark the
//! forward list `F(u)`, scan each `F(v)` for `v ∈ F(u)` against the marks,
//! unmark. The pivots are chunked and run on the ambient
//! [`pgb_par::current_parallelism`] budget; every chunk carries its own
//! marker and credit arrays, and the credit arrays are merged in chunk
//! order. Every count is an exact integer, so the result is bit-identical
//! to a sequential pass at any thread count — the same discipline the
//! generators follow in `pgb-core`. The sequential reference lives with
//! the equivalence tests (`tests/parallel.rs`).

use pgb_graph::{Graph, NodeId};

/// Pivot nodes per chunk for the parallel triangle pass. Coarse on
/// purpose: every chunk produces a full `n`-length credit array (8 bytes
/// a node) and an `n`-length marker array (1 byte a node) that live until
/// the chunk-order merge, so the chunk count (at most
/// `TRIANGLE_CHUNK_DIVISOR`, the divisor of `n` that sets the chunk
/// size) bounds transient memory at
/// `(TRIANGLE_CHUNK_DIVISOR + 1) × n × 9` bytes (≈ 15.3 MB at n = 10⁵)
/// while still leaving an 8-way budget enough chunks to load-balance
/// skewed pivots. Depends only on `n` — never on the thread count.
const TRIANGLE_CHUNK_DIVISOR: usize = 16;

/// Floor for the triangle chunk size: below this many pivots the pass is
/// too cheap to be worth splitting.
const TRIANGLE_CHUNK_MIN: usize = 1024;

fn triangle_chunk(n: usize) -> usize {
    n.div_ceil(TRIANGLE_CHUNK_DIVISOR).max(TRIANGLE_CHUNK_MIN)
}

/// Nodes per chunk for linear scans (orientation build, wedge counting).
const NODE_CHUNK: usize = 16_384;

/// The degree-ordered forward orientation of a graph: each undirected edge
/// `{u, v}` is kept only at its lower-ranked endpoint, where node rank is
/// the lexicographic pair `(degree, id)`.
///
/// Orienting towards higher degree bounds every forward list by roughly
/// `O(√m)` on skewed (power-law) graphs — the standard
/// forward/“compact-forward” trick. A pivot `u` marks `F(u)` in an
/// `n`-slot marker array once and then tests every `w ∈ F(v)`,
/// `v ∈ F(u)`, with one lookup, so the whole pass costs
/// `Σ_{u→v} |F(v)| = O(m√m)` lookups. Forward lists keep the CSR id-sort.
///
/// Counts are orientation-independent graph properties, so everything
/// derived here is bit-identical to an id-ordered sequential pass.
pub struct ForwardOrientation {
    /// `offsets[u]..offsets[u + 1]` is node `u`'s forward segment in
    /// `targets`; `n + 1` entries, `offsets[n] == m`.
    offsets: Vec<u32>,
    /// Concatenated forward lists, id-sorted within each segment.
    targets: Vec<NodeId>,
}

impl ForwardOrientation {
    /// Builds the orientation in one chunked parallel pass over the CSR
    /// adjacency (per-node forward lists concatenate in node order, so the
    /// arrays are identical at any thread count).
    pub fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let (counts, targets) = pgb_par::par_fold_chunks(
            n,
            NODE_CHUNK,
            || (Vec::new(), Vec::new()),
            |(counts, targets): &mut (Vec<u32>, Vec<NodeId>), range| {
                for u in range {
                    let u = u as NodeId;
                    let du = g.degree(u);
                    let before = targets.len();
                    for &v in g.neighbors(u) {
                        if (g.degree(v), v) > (du, u) {
                            targets.push(v);
                        }
                    }
                    counts.push((targets.len() - before) as u32);
                }
            },
            |acc, mut other| {
                acc.0.append(&mut other.0);
                acc.1.append(&mut other.1);
            },
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut running = 0u32;
        offsets.push(0);
        for c in counts {
            running += c;
            offsets.push(running);
        }
        ForwardOrientation { offsets, targets }
    }

    /// Number of nodes of the underlying graph.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The forward (higher-ranked) neighbours of `u`, id-sorted.
    fn forward(&self, u: usize) -> &[NodeId] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Finds every triangle whose minimum-rank corner is `u` and calls
    /// `found(v, w)` once for each, with `v ∈ F(u)` and `w ∈ F(u) ∩ F(v)`.
    /// Marks `F(u)` in `mark`, scans each `F(v)` against the marks, then
    /// unmarks: `mark` is all-false on entry and on return.
    fn pivot(&self, u: usize, mark: &mut [bool], mut found: impl FnMut(NodeId, NodeId)) {
        let fu = self.forward(u);
        if fu.len() < 2 {
            return; // a triangle needs two forward neighbours of `u`
        }
        for &v in fu {
            mark[v as usize] = true;
        }
        for &v in fu {
            for &w in self.forward(v as usize) {
                if mark[w as usize] {
                    found(v, w);
                }
            }
        }
        for &v in fu {
            mark[v as usize] = false;
        }
    }

    /// Exact triangle count: each triangle is found exactly once, at its
    /// minimum-rank corner. Each chunk carries its own marker array.
    pub fn triangle_count(&self) -> u64 {
        let n = self.node_count();
        pgb_par::par_fold_chunks(
            n,
            triangle_chunk(n),
            || (0u64, vec![false; n]),
            |(count, mark), range| {
                for u in range {
                    self.pivot(u, mark, |_, _| *count += 1);
                }
            },
            |acc, other| acc.0 += other.0,
        )
        .0
    }

    /// Per-node triangle participation: `t[u]` = number of triangles
    /// through `u`. Each chunk of pivots credits all three corners into
    /// its own array, next to its own marker array; chunk arrays merge in
    /// chunk order (exact `u64` adds, so the merge grouping cannot change
    /// the bits).
    pub fn triangles_per_node(&self) -> Vec<u64> {
        let n = self.node_count();
        pgb_par::par_fold_chunks(
            n,
            triangle_chunk(n),
            || (vec![0u64; n], vec![false; n]),
            |(t, mark), range| {
                for u in range {
                    self.pivot(u, mark, |v, w| {
                        t[u] += 1;
                        t[v as usize] += 1;
                        t[w as usize] += 1;
                    });
                }
            },
            |acc, other| {
                for (a, b) in acc.0.iter_mut().zip(other.0) {
                    *a += b;
                }
            },
        )
        .0
    }
}

/// Exact triangle count via the degree-ordered forward orientation; see
/// [`ForwardOrientation`]. Callers that also need per-node counts should
/// build the orientation once and call both methods on it.
pub fn triangle_count(g: &Graph) -> u64 {
    ForwardOrientation::new(g).triangle_count()
}

/// Per-node triangle participation: `t[u]` = number of triangles through
/// `u`. Used by the local clustering coefficients. Builds a fresh
/// [`ForwardOrientation`]; share one across calls where possible.
pub fn triangles_per_node(g: &Graph) -> Vec<u64> {
    ForwardOrientation::new(g).triangles_per_node()
}

/// Number of wedges (paths of length 2): `Σ_u C(dᵤ, 2)`. Chunked over
/// nodes; exact `u64` partial sums merge in chunk order.
pub fn wedge_count(g: &Graph) -> u64 {
    pgb_par::par_fold_chunks(
        g.node_count(),
        NODE_CHUNK,
        || 0u64,
        |sum, range| {
            for u in range {
                let d = g.degree(u as NodeId) as u64;
                *sum += d * d.saturating_sub(1) / 2;
            }
        },
        |sum, other| *sum += other,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::Graph;

    #[test]
    fn triangle_counts_on_known_graphs() {
        let tri = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(triangle_count(&tri), 1);
        let k4 = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(triangle_count(&k4), 4);
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(triangle_count(&path), 0);
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(triangle_count(&star), 0);
    }

    #[test]
    fn k5_has_ten_triangles() {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        assert_eq!(triangle_count(&g), 10);
    }

    #[test]
    fn wedge_counts() {
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(wedge_count(&star), 6); // C(4,2)
        let tri = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(wedge_count(&tri), 3);
        assert_eq!(wedge_count(&Graph::new(5)), 0);
    }

    #[test]
    fn per_node_triangles_sum_to_three_times_total() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5)]).unwrap();
        let per = triangles_per_node(&g);
        let total: u64 = per.iter().sum();
        assert_eq!(total, 3 * triangle_count(&g));
        assert_eq!(per[5], 0);
        assert_eq!(per[2], 2); // node 2 is in both triangles
    }

    #[test]
    fn shared_orientation_feeds_both_counts() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let fwd = ForwardOrientation::new(&g);
        assert_eq!(fwd.node_count(), 4);
        assert_eq!(fwd.triangle_count(), 4);
        assert_eq!(fwd.triangles_per_node().iter().sum::<u64>(), 12);
    }

    #[test]
    fn orientation_keeps_every_edge_once() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5)]).unwrap();
        let fwd = ForwardOrientation::new(&g);
        let kept: usize = (0..6).map(|u| fwd.forward(u).len()).collect::<Vec<_>>().iter().sum();
        assert_eq!(kept, g.edge_count());
        // Forward lists are id-sorted and only hold higher-ranked nodes.
        for u in 0..6usize {
            let f = fwd.forward(u);
            assert!(f.windows(2).all(|w| w[0] < w[1]), "unsorted forward list at {u}");
            for &v in f {
                assert!(
                    (g.degree(v), v) > (g.degree(u as u32), u as u32),
                    "edge ({u},{v}) oriented against the degree order"
                );
            }
        }
    }

    #[test]
    fn agrees_with_bruteforce_on_random_graph() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(300);
        let g = pgb_models::erdos_renyi_gnp(80, 0.15, &mut rng);
        let mut brute = 0u64;
        for u in 0..80u32 {
            for v in (u + 1)..80 {
                for w in (v + 1)..80 {
                    if g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(triangle_count(&g), brute);
    }
}

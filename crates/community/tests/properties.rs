//! Property tests over Louvain's two entry points and over community
//! aggregation.

use pgb_community::WeightedGraph;
use pgb_community::{louvain, louvain_weighted, modularity, modularity_weighted, LouvainParams};
use pgb_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The budgets every aggregation is checked at: inline, parallel,
/// oversubscribed, and the ambient default.
const BUDGETS: [usize; 4] = [1, 2, 8, 0];

/// Nodes per chunk of the oracle's bucketing scan, as in `weighted.rs`.
const NODE_CHUNK: usize = 16_384;

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

/// A `rows × cols` grid plus `extra` random edges drawn from `seed`:
/// road-like, so Louvain coarsens it over several levels (level 2 and
/// beyond from about 8 × 8 on).
fn grid(rows: u32, cols: u32, extra: usize, seed: u64) -> Graph {
    let n = rows * cols;
    let mut edges = Vec::new();
    for u in 0..n {
        if u % cols + 1 < cols {
            edges.push((u, u + 1));
        }
        if u + cols < n {
            edges.push((u, u + cols));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..extra {
        edges.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    Graph::from_edges(n as usize, edges).unwrap()
}

/// `g` with one more node joined to every other node: a hub of degree
/// n − 1, whose neighbour list is the longest a graph on n nodes can have.
fn with_hub(g: &Graph) -> Graph {
    let hub = g.node_count() as u32;
    let spokes = (0..hub).map(|v| (hub, v));
    Graph::from_edges(g.node_count() + 1, g.edges().chain(spokes)).unwrap()
}

/// Random graphs, grids that reach level 2 and beyond, and either kind
/// with a hub joined to every node.
fn louvain_inputs() -> impl Strategy<Value = Graph> {
    let base = (0u8..2).prop_flat_map(|is_grid| {
        if is_grid == 1 {
            (8u32..16, 8u32..16, 0usize..10, 0u64..1 << 32)
                .prop_map(|(rows, cols, extra, seed)| grid(rows, cols, extra, seed))
                .boxed()
        } else {
            graphs().boxed()
        }
    });
    (base, 0u8..2).prop_map(|(g, hub)| if hub == 1 { with_hub(&g) } else { g })
}

/// Random weighted graphs with non-integer weights and self-loops, and
/// labels into `0..k`. One case in eight has more than `NODE_CHUNK`
/// nodes, so the chunked passes split at budgets above 1.
fn weighted_cases() -> impl Strategy<Value = (WeightedGraph, Vec<u32>, usize)> {
    let n = (0u8..8).prop_flat_map(|large| {
        if large == 0 {
            (NODE_CHUNK + 1..NODE_CHUNK + 4_000).boxed()
        } else {
            (0usize..80).boxed()
        }
    });
    (n, 0usize..7, 0u32..4, 0u64..1 << 32).prop_map(|(n, avg_degree, loop_every, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = WeightedGraph::new(n);
        if n > 0 {
            for _ in 0..n * avg_degree / 2 {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                w.add_edge(u, v, rng.gen_range(0.01..10.0));
            }
            if loop_every > 0 {
                for u in (0..n as u32).step_by(loop_every as usize) {
                    w.add_edge(u, u, rng.gen_range(0.01..3.0));
                }
            }
        }
        let k = if n == 0 { 0 } else { rng.gen_range(1..=n) };
        let labels = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
        (w, labels, k)
    })
}

/// What an aggregation produces: rows, self-loops and total weight.
type Aggregated = (Vec<Vec<(NodeId, f64)>>, Vec<f64>, f64);

/// The bucketed aggregation that `WeightedGraph::aggregate` replaced,
/// kept as its oracle. Node chunks append each contribution to the
/// affected communities' buckets, and chunk buckets append-merge in chunk
/// order; each community's row then folds its bucket through a `k`-slot
/// position index, and `total` re-accumulates in ascending-node order.
fn bucket_aggregate(g: &WeightedGraph, labels: &[u32], k: usize) -> Aggregated {
    let n = g.node_count();
    let buckets: Vec<Vec<(u32, f64)>> = pgb_par::par_fold_chunks(
        n,
        NODE_CHUNK,
        || vec![Vec::new(); k],
        |buckets: &mut Vec<Vec<(u32, f64)>>, range| {
            for u in range {
                let cu = labels[u];
                let self_w = g.self_loop(u as NodeId);
                if self_w > 0.0 {
                    buckets[cu as usize].push((cu, self_w));
                }
                for &(v, w) in g.neighbors(u as NodeId) {
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
    let mut pos = vec![u32::MAX; k];
    let (mut rows, mut self_loops) = (Vec::new(), Vec::new());
    for (c, bucket) in buckets.iter().enumerate() {
        let mut list: Vec<(NodeId, f64)> = Vec::new();
        let mut self_w = 0.0f64;
        for &(c2, w) in bucket {
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
        rows.push(list);
        self_loops.push(self_w);
    }
    let mut total = 0.0;
    for u in 0..n as NodeId {
        if g.self_loop(u) > 0.0 {
            total += 2.0 * g.self_loop(u);
        }
        for &(v, w) in g.neighbors(u) {
            if v > u {
                total += 2.0 * w;
            }
        }
    }
    (rows, self_loops, total)
}

/// Rows with their weights as bits, so `-0.0`/`0.0` or a last-ulp drift
/// cannot compare equal.
fn row_bits(row: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    row.iter().map(|&(c, w)| (c, w.to_bits())).collect()
}

proptest! {
    #[test]
    fn unweighted_and_lifted_entry_points_agree(g in louvain_inputs(), seed in 0u64..1 << 32) {
        // `louvain` reads the CSR at level 0 with u32 counts;
        // `louvain_weighted` reads the unit-weight lift with f64 sums.
        // Same labels, and the same modularity bits from either modularity
        // function.
        let params = LouvainParams::default();
        let p = louvain(&g, &params, &mut StdRng::seed_from_u64(seed));
        let w = WeightedGraph::from_graph(&g);
        let pw = louvain_weighted(&w, &params, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(p.labels(), pw.labels());
        let q = modularity(&g, &p);
        prop_assert_eq!(q.to_bits(), modularity_weighted(&w, pw.labels()).to_bits());
    }

    #[test]
    fn aggregate_matches_the_bucket_oracle((w, labels, k) in weighted_cases()) {
        let (rows, self_loops, total) =
            pgb_par::with_parallelism(1, || bucket_aggregate(&w, &labels, k));
        for threads in BUDGETS {
            let agg = pgb_par::with_parallelism(threads, || w.aggregate(&labels, k));
            prop_assert_eq!(agg.node_count(), k);
            prop_assert_eq!(agg.total_weight().to_bits(), total.to_bits());
            for c in 0..k {
                let got = row_bits(agg.neighbors(c as NodeId));
                prop_assert_eq!(got, row_bits(&rows[c]), "row {} at budget {}", c, threads);
                prop_assert_eq!(agg.self_loop(c as NodeId).to_bits(), self_loops[c].to_bits());
            }
        }
    }
}

#[test]
fn grids_reach_level_two() {
    // `louvain_inputs` is meant to drive Louvain past its second level:
    // capping it at two levels must change the labels of most grids.
    let capped = LouvainParams { max_levels: 2, ..LouvainParams::default() };
    let mut deeper = 0;
    for seed in 0..20u64 {
        let g = grid(8 + (seed % 8) as u32, 8 + (seed * 3 % 8) as u32, (seed % 10) as usize, seed);
        let full = louvain(&g, &LouvainParams::default(), &mut StdRng::seed_from_u64(seed));
        let two = louvain(&g, &capped, &mut StdRng::seed_from_u64(seed));
        deeper += usize::from(full.labels() != two.labels());
    }
    assert!(deeper >= 15, "only {deeper} of 20 grids reached level 2");
}

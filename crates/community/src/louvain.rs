//! The Louvain method (Blondel et al., 2008): greedy modularity
//! optimisation with local moving and graph aggregation.
//!
//! PGB uses Louvain twice: as the benchmark's community-detection query
//! (Q12, on unweighted graphs) and inside PrivGraph's phase 1, which runs
//! it on a *noisy weighted super-graph* — hence the weighted entry point.
//!
//! Level 0 does no lift: local moving and the first coarsening read the
//! input graph through a small private adjacency trait, the unweighted
//! CSR [`Graph`] at unit weights or the caller's [`WeightedGraph`] as it
//! is (never cloned). Unit weights sum exactly, so [`louvain`] gives the
//! same bytes as [`louvain_weighted`] on the unit-weight lift
//! [`WeightedGraph::from_graph`]. Every later level runs on the
//! aggregated [`WeightedGraph`].
//!
//! ## One node visit
//!
//! A visit sums the moving node's edge weight to each neighbouring
//! community in a dense n-slot accumulator. On the CSR the accumulator
//! holds `u32` neighbour counts, which become `f64` only where a gain is
//! formed; every later level sums `f64` weights. Counts below 2^32 are
//! exact in `f64`, so both give the same gains, ties and labels. The
//! touched communities are kept in first-touch order without a branch:
//! every neighbour writes its community at the end of a buffer sized to
//! the level's largest neighbour list, and the length advances only when
//! the community's slot was empty. The visit then clears exactly the
//! slots it touched.
//!
//! ## What is parallel, what is not
//!
//! The per-level weighted-degree vector and aggregation's row fold
//! ([`WeightedGraph::aggregate`]) run in chunks on the ambient
//! [`pgb_par::current_parallelism`] budget, bit-identical at any thread
//! count; aggregation's counting-sort scatter is one sequential pass in
//! ascending node order. The **local-moving sweep itself stays
//! sequential by design**:
//! each move reads the community totals left by every previous move, so a
//! deterministic parallel variant would need a fundamentally different
//! algorithm (graph colouring or delta-screening with a fixed merge
//! order), not a chunked port — recorded as a ROADMAP follow-up.

use crate::weighted::{aggregate, Adjacency};
use crate::{Partition, WeightedGraph};
use pgb_graph::Graph;
use rand::Rng;

/// Louvain tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct LouvainParams {
    /// Minimum modularity gain per full sweep to keep iterating a level.
    pub min_gain: f64,
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Maximum aggregation levels.
    pub max_levels: usize,
}

impl Default for LouvainParams {
    fn default() -> Self {
        LouvainParams { min_gain: 1e-7, max_sweeps: 32, max_levels: 32 }
    }
}

/// Runs Louvain on an unweighted graph; returns the partition of the
/// original nodes. Level 0 reads the CSR directly at unit weights.
pub fn louvain<R: Rng + ?Sized>(g: &Graph, params: &LouvainParams, rng: &mut R) -> Partition {
    louvain_levels(g, params, rng)
}

/// Runs Louvain on a weighted graph; returns the partition of the original
/// nodes.
pub fn louvain_weighted<R: Rng + ?Sized>(
    g: &WeightedGraph,
    params: &LouvainParams,
    rng: &mut R,
) -> Partition {
    louvain_levels(g, params, rng)
}

/// The level loop, starting from the level-0 graph `g`; every later level
/// runs on the graph aggregated from the one before.
fn louvain_levels<G: Adjacency, R: Rng + ?Sized>(
    g: &G,
    params: &LouvainParams,
    rng: &mut R,
) -> Partition {
    let n = g.node_count();
    if n == 0 {
        return Partition::from_labels(Vec::new());
    }
    // node → community at the *current* level, starting as identity; the
    // mapping chain is composed across levels.
    let mut mapping: Vec<u32> = (0..n as u32).collect();
    // `None` before level 0 has run; afterwards the loop stops as soon as a
    // level returns no coarser graph.
    let mut coarse: Option<WeightedGraph> = None;
    for _level in 0..params.max_levels {
        coarse = match &coarse {
            None => level(g, &mut mapping, params, rng),
            Some(w) => level(w, &mut mapping, params, rng),
        };
        if coarse.is_none() {
            break;
        }
    }
    let mut p = Partition::from_labels(mapping);
    p.normalize();
    p
}

/// Runs local moving on `g` and composes the compacted labels into
/// `mapping`. Returns the aggregated graph for the next level, or `None`
/// when no node moved or no communities merged.
fn level<G: Adjacency, R: Rng + ?Sized>(
    g: &G,
    mapping: &mut [u32],
    params: &LouvainParams,
    rng: &mut R,
) -> Option<WeightedGraph> {
    let (labels, improved) = local_moving(g, params, rng);
    if !improved {
        return None;
    }
    let mut compact = Partition::from_labels(labels);
    let k = compact.normalize();
    for m in mapping.iter_mut() {
        *m = compact.label(*m);
    }
    if k == g.node_count() {
        return None; // no aggregation happened
    }
    Some(aggregate(g, compact.labels(), k))
}

/// One level of local moving. Returns the level's labels and whether any
/// node changed community.
fn local_moving<G: Adjacency, R: Rng + ?Sized>(
    g: &G,
    params: &LouvainParams,
    rng: &mut R,
) -> (Vec<u32>, bool) {
    let n = g.node_count();
    let two_m = g.total_weight();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    if two_m <= 0.0 {
        return (labels, false);
    }
    // Each entry sums its own adjacency list, so the chunked scan is
    // bit-identical to the sequential one at any thread budget.
    let degree: Vec<f64> = pgb_par::par_map_chunks(n, 16_384, |range, out| {
        for u in range {
            out.push(g.weighted_degree(u as u32));
        }
    });
    // Σ of weighted degrees per community.
    let mut comm_total: Vec<f64> = degree.clone();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut improved_any = false;
    // Scratch for the whole level: the weight from the moving node to each
    // community, and the communities it touched in first-touch order. Edge
    // weights are strictly positive, so a zero slot is an untouched one. A
    // visit touches at most one community per neighbour, so the buffer
    // never overflows.
    let zero = G::Weight::default();
    let mut weight_to: Vec<G::Weight> = vec![zero; n];
    let max_degree = (0..n as u32).map(|u| g.neighbor_count(u)).max().unwrap_or(0);
    let mut touched_buf: Vec<u32> = vec![0; max_degree];
    for _sweep in 0..params.max_sweeps {
        let mut gain_this_sweep = 0.0;
        for &u in &order {
            let cu = labels[u as usize];
            // Branch-free first touch: write every community, keep it only
            // if its slot was empty.
            let mut len = 0;
            for (v, w) in g.weighted_neighbors(u) {
                let c = labels[v as usize];
                let slot = &mut weight_to[c as usize];
                touched_buf[len] = c;
                len += usize::from(*slot == zero);
                *slot += w;
            }
            let touched = &touched_buf[..len];
            let ku = degree[u as usize];
            comm_total[cu as usize] -= ku;
            let base = weight_to[cu as usize].into() - ku * comm_total[cu as usize] / two_m;
            let (mut best_comm, mut best_gain) = (cu, 0.0f64);
            for &c in touched {
                if c == cu {
                    continue;
                }
                // ΔQ of moving u into c (constant factors dropped).
                // Candidates come in first-touch order; ties break towards
                // the smaller community id.
                let gain =
                    weight_to[c as usize].into() - ku * comm_total[c as usize] / two_m - base;
                if gain > best_gain + 1e-12
                    || (gain > best_gain - 1e-12 && best_comm != cu && c < best_comm)
                {
                    best_gain = gain.max(best_gain);
                    best_comm = c;
                }
            }
            for &c in touched {
                // A community kept twice would find its slot already zeroed.
                debug_assert!(weight_to[c as usize] != zero, "community {c} touched twice");
                weight_to[c as usize] = zero;
            }
            comm_total[best_comm as usize] += ku;
            if best_comm != cu {
                labels[u as usize] = best_comm;
                improved_any = true;
                gain_this_sweep += best_gain;
            }
        }
        if gain_this_sweep < params.min_gain * two_m {
            break;
        }
    }
    (labels, improved_any)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use pgb_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planted_two_communities(rng: &mut StdRng) -> Graph {
        // Two dense 20-node blobs with a couple of bridges.
        let mut edges = Vec::new();
        for base in [0u32, 20u32] {
            for i in 0..20 {
                for j in (i + 1)..20 {
                    if rng.gen_bool(0.4) {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        edges.push((0, 20));
        edges.push((5, 25));
        Graph::from_edges(40, edges).unwrap()
    }

    #[test]
    fn recovers_planted_partition() {
        let mut rng = StdRng::seed_from_u64(200);
        let g = planted_two_communities(&mut rng);
        let p = louvain(&g, &LouvainParams::default(), &mut rng);
        // Strong planted structure: nodes 0..20 vs 20..40 should separate
        // (allowing Louvain to find either exactly 2 or a few communities
        // nested inside the two blobs).
        let q = modularity(&g, &p);
        assert!(q > 0.3, "modularity {q}");
        // Check the two blobs are not merged.
        let left = p.label(3);
        let right = p.label(23);
        assert_ne!(left, right);
    }

    #[test]
    fn two_triangles_exact() {
        let mut rng = StdRng::seed_from_u64(201);
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap();
        let p = louvain(&g, &LouvainParams::default(), &mut rng);
        assert_eq!(p.community_count(), 2);
        assert_eq!(p.label(0), p.label(1));
        assert_eq!(p.label(0), p.label(2));
        assert_eq!(p.label(3), p.label(4));
        assert_ne!(p.label(0), p.label(3));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let mut rng = StdRng::seed_from_u64(202);
        let p = louvain(&Graph::new(0), &LouvainParams::default(), &mut rng);
        assert!(p.is_empty());
        let p = louvain(&Graph::new(5), &LouvainParams::default(), &mut rng);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn weighted_louvain_respects_weights() {
        let mut rng = StdRng::seed_from_u64(203);
        // A 4-cycle where two opposite edges are heavy: the heavy pairs
        // should end up together.
        let mut w = WeightedGraph::new(4);
        w.add_edge(0, 1, 10.0);
        w.add_edge(2, 3, 10.0);
        w.add_edge(1, 2, 0.1);
        w.add_edge(3, 0, 0.1);
        let p = louvain_weighted(&w, &LouvainParams::default(), &mut rng);
        assert_eq!(p.label(0), p.label(1));
        assert_eq!(p.label(2), p.label(3));
        assert_ne!(p.label(0), p.label(2));
    }

    #[test]
    fn louvain_nondegenerate_on_er() {
        let mut rng = StdRng::seed_from_u64(204);
        let g = pgb_models::erdos_renyi_gnp(300, 0.05, &mut rng);
        let p = louvain(&g, &LouvainParams::default(), &mut rng);
        let k = p.community_count();
        assert!(k > 1 && k < 300, "communities {k}");
        // Louvain should beat the trivial partitions on any graph.
        let q = modularity(&g, &p);
        assert!(q > 0.0, "modularity {q}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            louvain(&g, &LouvainParams::default(), &mut rng)
        };
        assert_eq!(run(7).labels(), run(7).labels());
    }
}

//! Degree-based summaries: sequences, histograms, and the joint degree
//! distribution (dK-2 series).
//!
//! These are the *representations* used by DP-dK and DGG (degree information,
//! Fig. 1 of the paper) and the inputs to the degree queries Q4–Q6.

use crate::Graph;
use std::collections::HashMap;

/// The degree of every node, indexed by node id.
pub fn degree_sequence(g: &Graph) -> Vec<u32> {
    g.degrees().collect()
}

/// Nodes per chunk for the parallel degree scan: coarse enough that a
/// graph below 16,384 nodes is one chunk, folded on the calling thread
/// with no worker spawned, fine enough that an 8-way budget load-balances
/// a 10⁵-node graph.
const DEGREE_CHUNK: usize = 16_384;

/// Degree histogram: `hist[d]` = number of nodes with degree `d`.
/// The vector has length `max_degree + 1` (or length 1 for an empty graph).
///
/// The scan is chunked over nodes and runs on the ambient
/// [`pgb_par::current_parallelism`] budget: per-chunk histograms are merged
/// in chunk order, and because the counts are exact integers the result is
/// bit-identical to a sequential pass at any thread count.
pub fn degree_histogram(g: &Graph) -> Vec<u64> {
    let len = g.max_degree() + 1;
    let (offsets, _) = g.csr();
    pgb_par::par_fold_chunks(
        g.node_count(),
        DEGREE_CHUNK,
        || vec![0u64; len],
        |hist, range| {
            // Degrees straight off the CSR offsets: one subtraction per
            // node, no per-call bounds churn in the hot loop.
            for w in offsets[range.start..range.end + 1].windows(2) {
                hist[(w[1] - w[0]) as usize] += 1;
            }
        },
        |hist, other| {
            for (h, o) in hist.iter_mut().zip(other) {
                *h += o;
            }
        },
    )
}

/// Normalised degree distribution derived from a [`degree_histogram`]:
/// `p[d] = hist[d] / n`. Returns an empty vector when `n == 0`.
///
/// [`degree_distribution`] and the suite evaluator in `pgb-queries`
/// (Q5/Q6, from one shared degree pass) all reduce a histogram through
/// this pair of `*_from_histogram` helpers, so they produce bit-identical
/// values.
pub fn distribution_from_histogram(hist: &[u64], n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    hist.iter().map(|&c| c as f64 / n as f64).collect()
}

/// Population degree variance `E[d²] − E[d]²` derived from a
/// [`degree_histogram`]. 0.0 when `n == 0`.
pub fn variance_from_histogram(hist: &[u64], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let inv_n = 1.0 / n as f64;
    let (mut mean, mut sq) = (0.0f64, 0.0f64);
    for (d, &c) in hist.iter().enumerate() {
        mean += d as f64 * c as f64;
        sq += (d as f64) * (d as f64) * c as f64;
    }
    sq * inv_n - (mean * inv_n) * (mean * inv_n)
}

/// Normalised degree distribution: `p[d]` = fraction of nodes with degree
/// `d`. Returns an empty vector for the empty graph.
pub fn degree_distribution(g: &Graph) -> Vec<f64> {
    distribution_from_histogram(&degree_histogram(g), g.node_count())
}

/// The dK-2 series (joint degree distribution): for every edge `{u, v}`
/// the unordered degree pair `(min(dᵤ, dᵥ), max(dᵤ, dᵥ))` is counted once.
///
/// The total count over all keys equals `edge_count()`.
pub type JointDegreeDistribution = HashMap<(u32, u32), u64>;

/// Computes the joint degree distribution of `g`.
pub fn joint_degree_distribution(g: &Graph) -> JointDegreeDistribution {
    let deg = degree_sequence(g);
    let mut jdd = HashMap::new();
    for (u, v) in g.edges() {
        let (a, b) = (deg[u as usize], deg[v as usize]);
        let key = if a <= b { (a, b) } else { (b, a) };
        *jdd.entry(key).or_insert(0) += 1;
    }
    jdd
}

/// Recovers a degree histogram from a joint degree distribution.
///
/// Each JDD entry `((k1, k2), c)` contributes `c` edge-endpoints at degree
/// `k1` and `c` at degree `k2`; a node of degree `k` owns `k` endpoints, so
/// `hist[k] = endpoints[k] / k` (rounded). This is the reconstruction step
/// DP-dK uses after perturbing the dK-2 series.
pub fn histogram_from_jdd(jdd: &JointDegreeDistribution) -> Vec<u64> {
    let max_k = jdd.keys().map(|&(_, b)| b).max().unwrap_or(0) as usize;
    let mut endpoints = vec![0u64; max_k + 1];
    for (&(k1, k2), &c) in jdd {
        endpoints[k1 as usize] += c;
        endpoints[k2 as usize] += c;
    }
    let mut hist = vec![0u64; max_k + 1];
    for k in 1..=max_k {
        // Round to the nearest integer node count.
        hist[k] = (endpoints[k] + k as u64 / 2) / k as u64;
    }
    hist
}

/// Expands a degree histogram into a degree sequence (ascending degrees).
pub fn sequence_from_histogram(hist: &[u64]) -> Vec<u32> {
    let mut seq = Vec::new();
    for (d, &count) in hist.iter().enumerate() {
        for _ in 0..count {
            seq.push(d as u32);
        }
    }
    seq
}

/// Degree (Pearson) assortativity coefficient: the correlation of the
/// degrees at the two endpoints of a uniformly random edge (query Q14).
///
/// Returns `None` when the graph has no edges or zero degree variance over
/// edge endpoints (e.g. regular graphs), where the coefficient is undefined.
pub fn assortativity(g: &Graph) -> Option<f64> {
    let m = g.edge_count();
    if m == 0 {
        return None;
    }
    let deg = degree_sequence(g);
    // Standard formulation over the 2m ordered endpoint pairs.
    let (mut s_xy, mut s_x, mut s_x2) = (0.0f64, 0.0f64, 0.0f64);
    for (u, v) in g.edges() {
        let (du, dv) = (deg[u as usize] as f64, deg[v as usize] as f64);
        s_xy += 2.0 * du * dv;
        s_x += du + dv;
        s_x2 += du * du + dv * dv;
    }
    let inv_2m = 1.0 / (2.0 * m as f64);
    let num = inv_2m * s_xy - (inv_2m * s_x).powi(2);
    let den = inv_2m * s_x2 - (inv_2m * s_x).powi(2);
    if den.abs() < 1e-12 {
        None
    } else {
        Some(num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn star5() -> Graph {
        Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap()
    }

    #[test]
    fn histogram_of_star() {
        let hist = degree_histogram(&star5());
        assert_eq!(hist, vec![0, 4, 0, 0, 1]);
    }

    #[test]
    fn distribution_sums_to_one() {
        let p = degree_distribution(&star5());
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_of_empty_graph() {
        assert!(degree_distribution(&Graph::new(0)).is_empty());
    }

    #[test]
    fn variance_of_regular_graph_is_zero() {
        let cycle = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(variance_from_histogram(&degree_histogram(&cycle), 4).abs() < 1e-12);
    }

    #[test]
    fn variance_of_star() {
        // degrees 4,1,1,1,1: mean 1.6, E[d^2] = (16+4)/5 = 4 -> var = 1.44
        assert!((variance_from_histogram(&degree_histogram(&star5()), 5) - 1.44).abs() < 1e-12);
    }

    #[test]
    fn jdd_total_equals_edge_count() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
        let jdd = joint_degree_distribution(&g);
        let total: u64 = jdd.values().sum();
        assert_eq!(total, g.edge_count() as u64);
    }

    #[test]
    fn jdd_of_star() {
        let jdd = joint_degree_distribution(&star5());
        assert_eq!(jdd.len(), 1);
        assert_eq!(jdd[&(1, 4)], 4);
    }

    #[test]
    fn histogram_roundtrip_through_jdd() {
        let g = star5();
        let jdd = joint_degree_distribution(&g);
        let hist = histogram_from_jdd(&jdd);
        assert_eq!(hist[1], 4);
        assert_eq!(hist[4], 1);
    }

    #[test]
    fn sequence_from_histogram_expands() {
        let seq = sequence_from_histogram(&[0, 2, 1]);
        assert_eq!(seq, vec![1, 1, 2]);
    }

    #[test]
    fn assortativity_of_star_is_negative() {
        let r = assortativity(&star5()).unwrap();
        assert!(r < 0.0, "stars are maximally disassortative, got {r}");
    }

    #[test]
    fn assortativity_undefined_for_regular_and_empty() {
        let cycle = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(assortativity(&cycle).is_none());
        assert!(assortativity(&Graph::new(3)).is_none());
    }

    #[test]
    fn assortativity_in_valid_range() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap();
        let r = assortativity(&g).unwrap();
        assert!((-1.0..=1.0).contains(&r));
    }
}

//! The Chung–Lu expected-degree model — PrivGraph's intra-community
//! constructor.
//!
//! Given target weights `w` (usually a noisy degree sequence), each pair
//! `{u, v}` is an edge independently with probability
//! `min(1, wᵤ wᵥ / Σw)`, so expected degrees approximate the targets.
//! Implemented with the Miller–Hagberg (2011) sorted skip-sampling
//! algorithm, which runs in `O(n + m)` expected time instead of `O(n²)`.
//!
//! [`chung_lu`] builds no graph of its own: it hands each edge to the
//! caller, which adds the pairs to a larger edge list (PrivGraph's
//! communities, BTER's excess-degree phase) and builds once.

use pgb_graph::NodeId;
use rand::Rng;

/// Draws a Chung–Lu graph over nodes `0..weights.len()`, passing each edge
/// to `emit` exactly once (never a self-loop). Node `u`'s expected degree
/// approximates `weights[u]` (exactly when all `wᵤ wᵥ < Σw`). Non-finite or
/// negative weights are treated as zero.
pub fn chung_lu<R: Rng + ?Sized>(
    weights: &[f64],
    rng: &mut R,
    mut emit: impl FnMut(NodeId, NodeId),
) {
    let n = weights.len();
    let mut clean: Vec<f64> =
        weights.iter().map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 }).collect();
    let total: f64 = clean.iter().sum();
    if n < 2 || total <= 0.0 {
        return;
    }
    // Sort nodes by weight descending; remember original ids.
    let mut order: Vec<NodeId> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        clean[b as usize].partial_cmp(&clean[a as usize]).expect("weights are finite")
    });
    clean.sort_unstable_by(|a, b| b.partial_cmp(a).expect("weights are finite"));

    for i in 0..n - 1 {
        if clean[i] <= 0.0 {
            break; // all remaining weights are zero
        }
        let mut j = i + 1;
        let mut p = (clean[i] * clean[j] / total).min(1.0);
        while j < n && p > 0.0 {
            if p < 1.0 {
                let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let skip = (r.ln() / (1.0 - p).ln()).floor() as usize;
                j = j.saturating_add(skip);
            }
            if j >= n {
                break;
            }
            let q = (clean[i] * clean[j] / total).min(1.0);
            // Accept with q/p: combined with the skip this realises an
            // exact Bernoulli(q) for position j (weights descend, q ≤ p).
            if rng.gen_range(0.0f64..1.0) < q / p {
                emit(order[i], order[j]);
            }
            p = q;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::{Graph, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The Chung–Lu graph `chung_lu` emits, built.
    fn chung_lu_graph(weights: &[f64], rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(weights.len());
        chung_lu(weights, rng, |u, v| b.push(u, v));
        b.build().unwrap()
    }

    #[test]
    fn zero_weights_give_empty_graph() {
        let mut rng = StdRng::seed_from_u64(80);
        let g = chung_lu_graph(&[0.0, 0.0, 0.0], &mut rng);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn negative_and_nan_weights_sanitised() {
        let mut rng = StdRng::seed_from_u64(81);
        let g = chung_lu_graph(&[-3.0, f64::NAN, 2.0, 2.0], &mut rng);
        assert!(g.check_invariants());
        for u in [0u32, 1u32] {
            assert_eq!(g.degree(u), 0);
        }
    }

    #[test]
    fn expected_degrees_approximated() {
        let mut rng = StdRng::seed_from_u64(82);
        let n = 1_000usize;
        let weights: Vec<f64> = (0..n).map(|i| if i < 100 { 20.0 } else { 5.0 }).collect();
        // Average over repetitions.
        let reps = 30;
        let mut deg_sum = vec![0.0f64; n];
        for _ in 0..reps {
            let g = chung_lu_graph(&weights, &mut rng);
            for u in g.nodes() {
                deg_sum[u as usize] += g.degree(u) as f64;
            }
        }
        let hi_avg: f64 = deg_sum[..100].iter().sum::<f64>() / (100.0 * reps as f64);
        let lo_avg: f64 = deg_sum[100..].iter().sum::<f64>() / (900.0 * reps as f64);
        assert!((hi_avg - 20.0).abs() < 1.0, "high-weight avg degree {hi_avg}");
        assert!((lo_avg - 5.0).abs() < 0.5, "low-weight avg degree {lo_avg}");
    }

    #[test]
    fn total_edges_close_to_half_weight_sum() {
        let mut rng = StdRng::seed_from_u64(83);
        let weights = vec![8.0; 600];
        let g = chung_lu_graph(&weights, &mut rng);
        let m = g.edge_count() as f64;
        let expected = 8.0 * 600.0 / 2.0;
        assert!((m - expected).abs() < 5.0 * expected.sqrt(), "m {m} vs {expected}");
    }

    #[test]
    fn handles_oversized_weights() {
        let mut rng = StdRng::seed_from_u64(84);
        // w_u w_v / S > 1 clamps to certain edges; must not panic or loop.
        let g = chung_lu_graph(&[100.0, 100.0, 1.0], &mut rng);
        assert!(g.has_edge(0, 1));
        assert!(g.check_invariants());
    }

    #[test]
    fn single_node_graph() {
        let mut rng = StdRng::seed_from_u64(85);
        let g = chung_lu_graph(&[5.0], &mut rng);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}

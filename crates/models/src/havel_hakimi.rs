//! Graphicality testing (Erdős–Gallai) and Havel–Hakimi realisation.
//!
//! DP-dK's dK-1 constructor: after perturbing the degree histogram, the
//! noisy sequence is realised with Havel–Hakimi (the construction the PGB
//! verification appendix names explicitly). Noisy sequences are usually
//! *not* graphical, so [`havel_hakimi`] is best-effort: it realises as many
//! target degrees as possible and silently drops the remainder, matching
//! the reference implementation's behaviour.

use pgb_graph::NodeId;

/// Erdős–Gallai test: is `degrees` realisable as a simple undirected graph?
/// The input need not be sorted. An empty sequence is graphical.
pub fn is_graphical(degrees: &[u32]) -> bool {
    let n = degrees.len();
    let mut d: Vec<u64> = degrees.iter().map(|&x| x as u64).collect();
    d.sort_unstable_by(|a, b| b.cmp(a));
    if d.first().copied().unwrap_or(0) as usize >= n && n > 0 {
        return false; // degree exceeds n − 1
    }
    let total: u64 = d.iter().sum();
    if !total.is_multiple_of(2) {
        return false;
    }
    // Σ_{i≤k} dᵢ ≤ k(k−1) + Σ_{i>k} min(dᵢ, k) for every k.
    let mut prefix = 0u64;
    for k in 1..=n {
        prefix += d[k - 1];
        let mut rhs = (k as u64) * (k as u64 - 1);
        for &di in &d[k..] {
            rhs += di.min(k as u64);
        }
        if prefix > rhs {
            return false;
        }
    }
    true
}

/// Best-effort Havel–Hakimi realisation of a target degree sequence.
///
/// Repeatedly takes the node with the largest remaining target degree `d`
/// and connects it to the `d` next-largest nodes. If the sequence is
/// graphical the result realises it exactly; otherwise the impossible
/// remainder is dropped. Returns the realised edges over nodes
/// `0..degrees.len()` (node `u` targets `degrees[u]`), each once and none a
/// self-loop.
pub fn havel_hakimi(degrees: &[u32]) -> Vec<(NodeId, NodeId)> {
    let n = degrees.len();
    if n == 0 {
        return Vec::new();
    }
    let mut remaining: Vec<(u32, u32)> = degrees
        .iter()
        .enumerate()
        .map(|(u, &d)| (d.min(n.saturating_sub(1) as u32), u as u32))
        .collect();
    let mut edges = Vec::with_capacity(degrees.iter().map(|&d| d as usize).sum::<usize>() / 2);
    // Sort descending by remaining degree; re-sorting each round is
    // O(n log n) per round but rounds shrink fast; fine at benchmark scale.
    loop {
        remaining.sort_unstable_by(|a, b| b.cmp(a));
        let (d, u) = remaining[0];
        if d == 0 {
            break;
        }
        let take = (d as usize).min(remaining.len() - 1);
        remaining[0].0 = 0;
        for item in remaining.iter_mut().skip(1).take(take) {
            if item.0 > 0 {
                item.0 -= 1;
                edges.push((u, item.1));
            } else {
                // Fewer positive-degree partners than requested: the
                // surplus is unrealisable and dropped.
                break;
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::degree::degree_sequence;
    use pgb_graph::Graph;

    /// The graph `havel_hakimi` realises, built.
    fn hh_graph(degrees: &[u32]) -> Graph {
        Graph::from_edges(degrees.len(), havel_hakimi(degrees)).unwrap()
    }

    #[test]
    fn erdos_gallai_known_cases() {
        assert!(is_graphical(&[]));
        assert!(is_graphical(&[0, 0]));
        assert!(is_graphical(&[1, 1]));
        assert!(is_graphical(&[2, 2, 2])); // triangle
        assert!(is_graphical(&[3, 3, 3, 3])); // K4
        assert!(is_graphical(&[4, 1, 1, 1, 1])); // star
        assert!(!is_graphical(&[1])); // odd sum
        assert!(!is_graphical(&[3, 1, 1])); // degree ≥ n−1 violation
        assert!(!is_graphical(&[2, 2, 1])); // odd sum
        assert!(!is_graphical(&[4, 4, 4, 1, 1])); // EG inequality fails at k=3
    }

    #[test]
    fn hh_realises_graphical_sequences_exactly() {
        for seq in [
            vec![2u32, 2, 2],
            vec![3, 3, 3, 3],
            vec![4, 1, 1, 1, 1],
            vec![3, 2, 2, 2, 1],
            vec![2, 2, 2, 2, 2, 2],
        ] {
            assert!(is_graphical(&seq), "{seq:?} should be graphical");
            let g = hh_graph(&seq);
            assert_eq!(degree_sequence(&g), seq, "sequence {seq:?}");
            assert!(g.check_invariants());
        }
    }

    #[test]
    fn hh_best_effort_on_nongraphical() {
        // Odd sum: one endpoint must be dropped.
        let g = hh_graph(&[2, 2, 1]);
        assert!(g.check_invariants());
        let realised: u32 = degree_sequence(&g).iter().sum();
        assert!(realised >= 4, "realised {realised}");
        // Oversized degree clamps to n − 1.
        let g = hh_graph(&[100, 1, 1]);
        assert!(g.degree(0) <= 2);
    }

    #[test]
    fn hh_empty_and_zero() {
        assert_eq!(hh_graph(&[]).node_count(), 0);
        let g = hh_graph(&[0, 0, 0]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn hh_large_power_law_sequence() {
        // A large graphical-ish sequence: realised degrees must never
        // exceed targets.
        let seq: Vec<u32> = (1..=400u32).map(|i| (800 / i).min(80)).collect();
        let g = hh_graph(&seq);
        assert!(g.check_invariants());
        let out = degree_sequence(&g);
        for (u, (&got, &want)) in out.iter().zip(&seq).enumerate() {
            assert!(got <= want, "node {u}: {got} > {want}");
        }
        // And the bulk should be realised.
        let total_want: u32 = seq.iter().sum();
        let total_got: u32 = out.iter().sum();
        assert!(total_got as f64 > 0.95 * total_want as f64, "{total_got}/{total_want}");
    }
}

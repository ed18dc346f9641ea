//! Block Two-level Erdős–Rényi (Seshadhri, Kolda & Pinar, Phys. Rev. E
//! 2012) — DGG / LDPGen's constructor.
//!
//! BTER matches a target degree sequence *and* a target per-degree
//! clustering profile by
//! 1. grouping nodes of similar degree into *affinity blocks* of size
//!    `d + 1` (phase 1), each an Erdős–Rényi block dense enough to supply
//!    the desired triangles, and
//! 2. wiring the leftover ("excess") degree with a Chung–Lu pass
//!    (phase 2).

use crate::chung_lu::chung_lu;
use crate::sampling::sample_binomial;
use pgb_graph::{Graph, GraphBuilder, NodeId};
use rand::Rng;

/// How the per-degree clustering-coefficient target `c_d` is specified.
#[derive(Clone, Debug)]
pub enum CcdSpec {
    /// The same target for every degree.
    Constant(f64),
    /// `c_d = c_max / (1 + (d − 1))^decay` — the empirically motivated
    /// decaying profile of the BTER paper (higher-degree nodes cluster
    /// less). `c_max` is the target for degree-2 nodes.
    Decaying {
        /// Clustering target for the lowest clustering-capable degree.
        c_max: f64,
        /// Power-law decay exponent (0.5 in the original paper's fits).
        decay: f64,
    },
    /// Explicit per-degree targets; degrees beyond the table use the last
    /// entry.
    PerDegree(Vec<f64>),
}

impl CcdSpec {
    /// The clustering target for degree `d`, clamped into `[0, 1]`.
    pub fn target(&self, d: u32) -> f64 {
        let raw = match self {
            CcdSpec::Constant(c) => *c,
            CcdSpec::Decaying { c_max, decay } => {
                if d < 2 {
                    0.0
                } else {
                    c_max / (d as f64 - 1.0).powf(*decay)
                }
            }
            CcdSpec::PerDegree(table) => {
                if table.is_empty() {
                    0.0
                } else {
                    table[(d as usize).min(table.len() - 1)]
                }
            }
        };
        raw.clamp(0.0, 1.0)
    }
}

/// BTER parameters.
#[derive(Clone, Debug)]
pub struct BterParams {
    /// Per-degree clustering-coefficient targets.
    pub ccd: CcdSpec,
}

impl Default for BterParams {
    fn default() -> Self {
        // The decaying profile with c_max = 0.95 reproduces social-network
        // clustering shapes; DGG uses this default when only degrees are
        // known.
        BterParams { ccd: CcdSpec::Decaying { c_max: 0.95, decay: 0.75 } }
    }
}

/// Generates a BTER graph realising (approximately) the target `degrees`
/// with the clustering profile of `params`.
///
/// Degree-1 nodes skip phase 1 (a 2-block cannot contain a triangle) and
/// are wired entirely by the Chung–Lu phase, as in the original algorithm.
pub fn bter<R: Rng + ?Sized>(degrees: &[u32], params: &BterParams, rng: &mut R) -> Graph {
    let n = degrees.len();
    if n < 2 {
        return Graph::new(n);
    }
    // Nodes sorted by target degree ascending; blocks take consecutive runs.
    let mut order: Vec<NodeId> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&u| degrees[u as usize]);
    let first_d2 = order.partition_point(|&u| degrees[u as usize] < 2);

    let mut b =
        GraphBuilder::with_capacity(n, degrees.iter().map(|&d| d as usize).sum::<usize>() / 2);
    let mut excess: Vec<f64> = degrees.iter().map(|&d| d as f64).collect();

    // ---- Phase 1: affinity blocks over nodes of degree ≥ 2 ----
    let mut i = first_d2;
    while i < order.len() {
        let d_min = degrees[order[i] as usize];
        let block_size = ((d_min as usize) + 1).min(order.len() - i);
        if block_size < 3 {
            // A 2-block cannot add clustering; leave to phase 2.
            i += block_size.max(1);
            continue;
        }
        let block = &order[i..i + block_size];
        // Connection probability: local clustering inside an ER block of
        // density ρ is ρ³-proportional, so ρ = c^(1/3) targets c.
        let rho = params.ccd.target(d_min).powf(1.0 / 3.0);
        if rho > 0.0 {
            let pairs = (block_size * (block_size - 1) / 2) as u64;
            let count = sample_binomial(pairs, rho, rng);
            let sampled = crate::sampling::sample_distinct_pairs(block_size, count as usize, rng);
            for (a, c) in sampled {
                b.push(block[a as usize], block[c as usize]);
            }
            // Expected within-block degree consumed per node.
            let consumed = rho * (block_size as f64 - 1.0);
            for &u in block {
                excess[u as usize] = (excess[u as usize] - consumed).max(0.0);
            }
        }
        i += block_size;
    }

    // ---- Phase 2: Chung–Lu on the excess degrees ----
    chung_lu(&excess, rng, |u, v| b.push(u, v));
    b.build().expect("ids bounded by n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::degree::degree_sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Average clustering coefficient (local definition) — small helper to
    /// avoid a dev-dependency on pgb-queries.
    fn acc(g: &Graph) -> f64 {
        let n = g.node_count();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            let d = nbrs.len();
            if d < 2 {
                continue;
            }
            let mut links = 0usize;
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    if g.has_edge(a, b) {
                        links += 1;
                    }
                }
            }
            total += 2.0 * links as f64 / (d as f64 * (d as f64 - 1.0));
        }
        total / n as f64
    }

    #[test]
    fn ccd_spec_forms() {
        assert_eq!(CcdSpec::Constant(0.5).target(10), 0.5);
        assert_eq!(CcdSpec::Constant(3.0).target(10), 1.0); // clamped
        let dec = CcdSpec::Decaying { c_max: 0.8, decay: 1.0 };
        assert_eq!(dec.target(1), 0.0);
        assert!((dec.target(2) - 0.8).abs() < 1e-12);
        assert!((dec.target(5) - 0.2).abs() < 1e-12);
        let tab = CcdSpec::PerDegree(vec![0.0, 0.1, 0.2]);
        assert_eq!(tab.target(1), 0.1);
        assert_eq!(tab.target(9), 0.2); // saturates at the last entry
        assert_eq!(CcdSpec::PerDegree(vec![]).target(3), 0.0);
    }

    #[test]
    fn degrees_roughly_realised() {
        let mut rng = StdRng::seed_from_u64(110);
        let targets: Vec<u32> = (0..800).map(|i| 2 + (i % 10) as u32).collect();
        let g = bter(&targets, &BterParams::default(), &mut rng);
        let got: u32 = degree_sequence(&g).iter().sum();
        let want: u32 = targets.iter().sum();
        let ratio = got as f64 / want as f64;
        assert!((0.75..=1.25).contains(&ratio), "degree mass ratio {ratio}");
    }

    #[test]
    fn high_ccd_produces_clustering() {
        let mut rng = StdRng::seed_from_u64(111);
        let targets = vec![8u32; 600];
        let clustered = bter(&targets, &BterParams { ccd: CcdSpec::Constant(0.6) }, &mut rng);
        let flat = bter(&targets, &BterParams { ccd: CcdSpec::Constant(0.0) }, &mut rng);
        let (c_hi, c_lo) = (acc(&clustered), acc(&flat));
        assert!(c_hi > 0.25, "clustered ACC {c_hi}");
        assert!(c_lo < 0.1, "flat ACC {c_lo}");
        assert!(c_hi > 3.0 * c_lo, "ACC {c_hi} vs {c_lo}");
    }

    #[test]
    fn ccd_target_tracks_observed_acc() {
        let mut rng = StdRng::seed_from_u64(112);
        let targets = vec![10u32; 500];
        let g = bter(&targets, &BterParams { ccd: CcdSpec::Constant(0.5) }, &mut rng);
        let observed = acc(&g);
        // Phase-2 edges dilute clustering; expect the right order of
        // magnitude rather than exact calibration.
        assert!((0.15..=0.75).contains(&observed), "ACC {observed}");
    }

    #[test]
    fn degree_one_nodes_handled() {
        let mut rng = StdRng::seed_from_u64(113);
        let targets = vec![1u32; 100];
        let g = bter(&targets, &BterParams::default(), &mut rng);
        assert!(g.check_invariants());
        // Degree-1 nodes are wired only by the Chung–Lu phase: the mean
        // realised degree should track the target, with Poisson-like
        // per-node variation.
        let mean = g.average_degree();
        assert!((0.5..=1.5).contains(&mean), "mean degree {mean}");
        assert!(g.max_degree() <= 8, "max degree {}", g.max_degree());
    }

    #[test]
    fn tiny_inputs() {
        let mut rng = StdRng::seed_from_u64(114);
        assert_eq!(bter(&[], &BterParams::default(), &mut rng).node_count(), 0);
        assert_eq!(bter(&[3], &BterParams::default(), &mut rng).edge_count(), 0);
    }
}

//! PrivHRG (Xiao, Chen & Tan, KDD 2014): network release via structural
//! inference over hierarchical random graphs.
//!
//! Representation: a dendrogram (HRG). Perturbation: the dendrogram is
//! sampled by an MCMC whose stationary distribution is the **exponential
//! mechanism** over dendrograms with the log-likelihood as quality
//! (budget ε₁), then each internal node's edge count is perturbed with
//! the Laplace mechanism (budget ε₂; toggling one edge changes exactly
//! one `E_r` by 1, so the vector's L1 sensitivity is 1). Construction:
//! edges are drawn from the noisy connection probabilities.

use crate::generator::{vec_heap_bytes, GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_dp::laplace::sample_laplace;
use pgb_dp::BudgetAccountant;
use pgb_graph::Graph;
use pgb_models::hrg::Dendrogram;
use rand::RngCore;

/// The PrivHRG generator.
#[derive(Clone, Debug)]
pub struct PrivHrg {
    /// Fraction of ε spent on dendrogram sampling (ε₁); the paper's
    /// implementation splits evenly.
    pub structure_budget_fraction: f64,
    /// MCMC steps per node (total steps = `steps_per_node · n`, capped).
    pub steps_per_node: usize,
    /// Hard cap on total MCMC steps, so the benchmark's largest graphs
    /// stay tractable.
    pub max_steps: usize,
}

impl Default for PrivHrg {
    fn default() -> Self {
        PrivHrg { structure_budget_fraction: 0.5, steps_per_node: 200, max_steps: 2_000_000 }
    }
}

/// PrivHRG's private intermediate: the MCMC-sampled dendrogram together
/// with its Laplace-noised connection probabilities. Edge realisation
/// reads only these, so re-sampling is ε-free.
#[derive(Clone, Debug)]
pub struct HrgSynthesis {
    n: usize,
    dendrogram: Option<Dendrogram>,
    probs: Vec<f64>,
    epsilon: f64,
}

impl PrivateSynthesis for HrgSynthesis {
    fn name(&self) -> &'static str {
        "PrivHRG"
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        self.dendrogram.as_ref().map_or(0, |d| d.heap_bytes()) + vec_heap_bytes(&self.probs)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        match &self.dendrogram {
            Some(d) => d.sample_graph_with(&self.probs, rng),
            None => Graph::new(self.n),
        }
    }
}

impl GraphGenerator for PrivHrg {
    fn name(&self) -> &'static str {
        "PrivHRG"
    }

    fn measure(
        &self,
        graph: &Graph,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        let mut acc = BudgetAccountant::new(epsilon)?;
        let n = graph.node_count();
        if n < 2 {
            return Ok(Box::new(HrgSynthesis { n, dendrogram: None, probs: Vec::new(), epsilon }));
        }
        let eps1 = acc
            .spend("dendrogram MCMC", epsilon * self.structure_budget_fraction.clamp(0.05, 0.95))?;
        let eps2 = acc.spend_remaining("connection probabilities");

        // Δ logL under edge neighbouring: one edge toggle moves one E_r by
        // 1; the per-node likelihood term changes by at most ln(L·R) ≤
        // 2 ln n (the bound Xiao et al. calibrate with).
        let delta_log_l = 2.0 * (n as f64).ln().max(1.0);
        let factor = eps1 / (2.0 * delta_log_l);

        let mut dendrogram = Dendrogram::from_graph(graph, rng);
        let steps = self.steps_per_node.saturating_mul(n).min(self.max_steps);
        for _ in 0..steps {
            dendrogram.mcmc_step(graph, factor, rng);
        }

        // Noisy connection probabilities: Ẽ_r = E_r + Lap(1/ε₂), clamped
        // into the feasible probability range by the sampler.
        let probs: Vec<f64> = (0..dendrogram.internal_count() as u32)
            .map(|r| {
                let pairs = dendrogram.pairs_at(r).max(1) as f64;
                let noisy = dendrogram.edges_at(r) as f64 + sample_laplace(1.0 / eps2, rng);
                noisy / pairs
            })
            .collect();
        Ok(Box::new(HrgSynthesis { n, dendrogram: Some(dendrogram), probs, epsilon: acc.total() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn community_graph(rng: &mut StdRng) -> Graph {
        // Two dense 30-node blobs plus a bridge.
        let mut edges = Vec::new();
        for base in [0u32, 30u32] {
            for i in 0..30 {
                for j in (i + 1)..30 {
                    if (i + j) % 3 != 0 {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        edges.push((0, 30));
        let _ = rng;
        Graph::from_edges(60, edges).unwrap()
    }

    #[test]
    fn output_valid_and_same_node_count() {
        let mut rng = StdRng::seed_from_u64(440);
        let g = community_graph(&mut rng);
        let out = PrivHrg::default().generate(&g, 2.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 60);
        assert!(out.check_invariants());
    }

    #[test]
    fn high_epsilon_tracks_edge_count() {
        let mut rng = StdRng::seed_from_u64(441);
        let g = community_graph(&mut rng);
        let out = PrivHrg::default().generate(&g, 50.0, &mut rng).unwrap();
        let (m0, m1) = (g.edge_count() as f64, out.edge_count() as f64);
        assert!((m1 - m0).abs() / m0 < 0.3, "m0 {m0} m1 {m1}");
    }

    #[test]
    fn preserves_community_density_at_high_epsilon() {
        let mut rng = StdRng::seed_from_u64(442);
        let g = community_graph(&mut rng);
        let out = PrivHrg::default().generate(&g, 50.0, &mut rng).unwrap();
        // Edges inside the two blobs should dominate, as in the input.
        let intra = out.edges().filter(|&(u, v)| (u < 30) == (v < 30)).count() as f64;
        let total = out.edge_count().max(1) as f64;
        assert!(intra / total > 0.7, "intra fraction {}", intra / total);
    }

    #[test]
    fn low_epsilon_still_valid() {
        let mut rng = StdRng::seed_from_u64(443);
        let g = community_graph(&mut rng);
        let out = PrivHrg::default().generate(&g, 0.1, &mut rng).unwrap();
        assert!(out.check_invariants());
    }

    #[test]
    fn tiny_graphs_ok() {
        let mut rng = StdRng::seed_from_u64(444);
        assert_eq!(
            PrivHrg::default().generate(&Graph::new(1), 1.0, &mut rng).unwrap().node_count(),
            1
        );
        let out = PrivHrg::default().generate(&Graph::new(2), 1.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 2);
    }

    #[test]
    fn step_cap_respected() {
        // A generator with a tiny cap must still terminate fast and work.
        let mut rng = StdRng::seed_from_u64(445);
        let g = community_graph(&mut rng);
        let gen =
            PrivHrg { steps_per_node: usize::MAX / 1_000, max_steps: 100, ..Default::default() };
        let out = gen.generate(&g, 1.0, &mut rng).unwrap();
        assert!(out.check_invariants());
    }
}

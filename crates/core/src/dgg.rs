//! DGG (Qin et al., CCS 2017, re-centralised): the benchmark's baseline.
//!
//! Representation: the degree sequence. Perturbation: the Laplace
//! mechanism (toggling one edge changes two degrees by 1 each, so the
//! vector's L1 sensitivity is 2). Construction: BTER, which clusters
//! similar-degree nodes — the reason DGG shines on high-ACC graphs
//! (paper §VI-A).
//!
//! The original DGG/LDPGen is an Edge-LDP protocol; PGB re-implements it
//! under the central model so it is comparable with the rest of the suite
//! (§V-A2), which is exactly what this module does.

use crate::generator::{vec_heap_bytes, GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_dp::laplace::laplace_mechanism;
use pgb_dp::BudgetAccountant;
use pgb_graph::Graph;
use pgb_models::{bter, BterParams};
use rand::RngCore;

/// The DGG baseline generator.
#[derive(Clone, Debug, Default)]
pub struct Dgg {
    /// BTER construction parameters (clustering profile).
    pub bter: BterParams,
}

/// L1 sensitivity of the degree sequence under edge neighbouring.
const DEGREE_SENSITIVITY: f64 = 2.0;

/// DGG's private intermediate: the Laplace-noised degree sequence. BTER
/// construction reads only this, so re-sampling is ε-free.
#[derive(Clone, Debug)]
pub struct DggSynthesis {
    noisy_degrees: Vec<u32>,
    bter: BterParams,
    epsilon: f64,
}

impl PrivateSynthesis for DggSynthesis {
    fn name(&self) -> &'static str {
        "DGG"
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.noisy_degrees)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        bter(&self.noisy_degrees, &self.bter, rng)
    }
}

impl GraphGenerator for Dgg {
    fn name(&self) -> &'static str {
        "DGG"
    }

    fn measure(
        &self,
        graph: &Graph,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        let mut acc = BudgetAccountant::new(epsilon)?;
        let eps_deg = acc.spend_remaining("degree sequence");
        let n = graph.node_count();
        let max_degree = n.saturating_sub(1) as f64;
        let noisy_degrees: Vec<u32> = graph
            .nodes()
            .map(|u| {
                let noisy =
                    laplace_mechanism(graph.degree(u) as f64, DEGREE_SENSITIVITY, eps_deg, rng);
                noisy.round().clamp(0.0, max_degree) as u32
            })
            .collect();
        Ok(Box::new(DggSynthesis { noisy_degrees, bter: self.bter.clone(), epsilon: acc.total() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph(rng: &mut StdRng) -> Graph {
        pgb_models::erdos_renyi_gnp(300, 0.05, rng)
    }

    #[test]
    fn output_is_valid_graph_with_same_nodes() {
        let mut rng = StdRng::seed_from_u64(400);
        let g = toy_graph(&mut rng);
        let out = Dgg::default().generate(&g, 1.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), g.node_count());
        assert!(out.check_invariants());
    }

    #[test]
    fn high_epsilon_preserves_degree_mass() {
        let mut rng = StdRng::seed_from_u64(401);
        let g = toy_graph(&mut rng);
        let out = Dgg::default().generate(&g, 100.0, &mut rng).unwrap();
        let (m0, m1) = (g.edge_count() as f64, out.edge_count() as f64);
        assert!((m1 - m0).abs() / m0 < 0.25, "m0 {m0} m1 {m1}");
    }

    #[test]
    fn low_epsilon_still_valid() {
        let mut rng = StdRng::seed_from_u64(402);
        let g = toy_graph(&mut rng);
        let out = Dgg::default().generate(&g, 0.01, &mut rng).unwrap();
        assert!(out.check_invariants());
        assert_eq!(out.node_count(), 300);
    }

    #[test]
    fn rejects_bad_epsilon() {
        let mut rng = StdRng::seed_from_u64(403);
        let g = Graph::new(5);
        assert!(matches!(
            Dgg::default().generate(&g, 0.0, &mut rng),
            Err(GenerateError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn handles_empty_graph() {
        let mut rng = StdRng::seed_from_u64(404);
        let out = Dgg::default().generate(&Graph::new(0), 1.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 0);
    }

    #[test]
    fn deterministic_with_seed() {
        let mut r1 = StdRng::seed_from_u64(405);
        let g = toy_graph(&mut r1);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let out_a = Dgg::default().generate(&g, 1.0, &mut a).unwrap();
        let out_b = Dgg::default().generate(&g, 1.0, &mut b).unwrap();
        assert_eq!(out_a.edge_vec(), out_b.edge_vec());
    }
}

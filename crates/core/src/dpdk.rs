//! DP-dK (Wang & Wu, Transactions on Data Privacy 2013): degree-correlation
//! based generation.
//!
//! * **dK-1**: the degree histogram is perturbed with the Laplace
//!   mechanism (toggling an edge moves two nodes between histogram bins —
//!   L1 sensitivity 4) and realised with Havel–Hakimi, the construction
//!   the paper's verification appendix names.
//! * **dK-2**: the joint degree distribution is perturbed with noise
//!   calibrated to **smooth sensitivity** (the paper: "noise is calibrated
//!   based on smooth sensitivity rather than global sensitivity, resulting
//!   in noise of a smaller magnitude"), giving (ε, δ)-DP with δ = 0.01,
//!   and realised with the dK-2 stub-wiring constructor.

use crate::generator::{
    vec_heap_bytes, GenerateError, GraphGenerator, NodeSubsample, PrivateSynthesis,
};
use pgb_dp::laplace::sample_laplace;
use pgb_dp::sensitivity::{dk2_local_sensitivity_at, smooth_sensitivity, SmoothParams};
use pgb_dp::BudgetAccountant;
use pgb_graph::degree::{degree_histogram, joint_degree_distribution, JointDegreeDistribution};
use pgb_graph::Graph;
use pgb_models::dk::{dk1_construct, dk2_construct, Realisation};
use rand::RngCore;

/// Which dK series DP-dK targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DkVariant {
    /// Degree histogram (Laplace, pure ε-DP).
    Dk1,
    /// Joint degree distribution (smooth sensitivity, (ε, δ)-DP).
    Dk2,
}

/// The DP-dK generator.
#[derive(Clone, Debug)]
pub struct DpDk {
    /// Series variant (the paper's headline configuration is dK-2).
    pub variant: DkVariant,
    /// δ of the smooth-sensitivity guarantee (dK-2 only); 0.01 in §V-C.
    pub delta: f64,
}

impl Default for DpDk {
    fn default() -> Self {
        DpDk { variant: DkVariant::Dk2, delta: 0.01 }
    }
}

/// L1 sensitivity of the degree histogram under edge neighbouring: two
/// nodes each move one unit of mass between two bins.
const DK1_SENSITIVITY: f64 = 4.0;

/// DP-dK's private intermediate: the noisy dK series — a rescaled degree
/// histogram for dK-1, a renormalised joint degree distribution for dK-2.
/// The stub-wiring constructors and the node-count projection read only
/// this series, so re-sampling is ε-free.
#[derive(Clone, Debug)]
pub struct DkSynthesis {
    series: DkSeries,
    n: usize,
    epsilon: f64,
}

#[derive(Clone, Debug)]
enum DkSeries {
    Dk1(Vec<u64>),
    Dk2(JointDegreeDistribution),
}

impl PrivateSynthesis for DkSynthesis {
    fn name(&self) -> &'static str {
        match self.series {
            DkSeries::Dk1(_) => "DP-1K",
            DkSeries::Dk2(_) => "DP-dK",
        }
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        match &self.series {
            DkSeries::Dk1(hist) => vec_heap_bytes(hist),
            // HashMap buckets hold (key, value) plus control bytes.
            DkSeries::Dk2(jdd) => jdd.capacity() * (std::mem::size_of::<((u32, u32), u64)>() + 1),
        }
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        let realised = match &self.series {
            DkSeries::Dk1(hist) => dk1_construct(hist),
            DkSeries::Dk2(jdd) => dk2_construct(jdd, rng),
        };
        conform_node_count(realised, self.n, rng)
    }
}

impl DpDk {
    fn measure_dk1(&self, graph: &Graph, epsilon: f64, rng: &mut dyn RngCore) -> DkSeries {
        let hist = degree_histogram(graph);
        let n = graph.node_count() as f64;
        let mut noisy: Vec<u64> = hist
            .iter()
            .map(|&c| {
                let v = c as f64 + sample_laplace(DK1_SENSITIVITY / epsilon, rng);
                v.round().max(0.0) as u64
            })
            .collect();
        // Post-processing: rescale the histogram mass back to n nodes so
        // the construction has the right order (the reference code does
        // the same normalisation).
        let total: u64 = noisy.iter().sum();
        if total > 0 {
            let scale = n / total as f64;
            for c in &mut noisy {
                *c = ((*c as f64) * scale).round() as u64;
            }
        }
        DkSeries::Dk1(noisy)
    }

    fn measure_dk2(
        &self,
        graph: &Graph,
        eps_count: f64,
        eps_jdd: f64,
        rng: &mut dyn RngCore,
    ) -> DkSeries {
        // Budget split: a small share estimates the edge total (global
        // sensitivity 1); the rest perturbs the dK-2 *distribution*. The
        // noisy distribution is renormalised to the noisy total — DP-2K
        // treats the dK-2 series as a distribution over degree pairs, and
        // without the renormalisation the positive halves of thousands of
        // Laplace draws at hub-degree smooth sensitivity would inflate the
        // edge mass by orders of magnitude (the paper's Table XI shows
        // ~1.7× inflation at ε = 0.2, not 300×).
        let m_tilde =
            (graph.edge_count() as f64 + sample_laplace(1.0 / eps_count, rng)).round().max(0.0);

        let jdd = joint_degree_distribution(graph);
        let d_max = graph.max_degree();
        let params = SmoothParams::for_laplace(eps_jdd, self.delta);
        let s = smooth_sensitivity(
            |k| dk2_local_sensitivity_at(d_max, k),
            params.beta,
            graph.node_count().max(1),
        );
        let scale = 2.0 * s / eps_jdd;
        // Perturb in sorted key order: HashMap iteration order varies
        // between instances, and the noise stream must be reproducible.
        let mut sorted: Vec<(&(u32, u32), &u64)> = jdd.iter().collect();
        sorted.sort_unstable_by_key(|(k, _)| **k);
        let mut noisy: Vec<((u32, u32), f64)> = sorted
            .into_iter()
            .map(|(&key, &count)| (key, (count as f64 + sample_laplace(scale, rng)).max(0.0)))
            .collect();
        let total: f64 = noisy.iter().map(|&(_, v)| v).sum();
        let mut target = JointDegreeDistribution::new();
        if total > 0.0 && m_tilde > 0.0 {
            let rescale = m_tilde / total;
            for (key, v) in &mut noisy {
                let count = (*v * rescale).round() as u64;
                if count > 0 {
                    target.insert(*key, count);
                }
            }
        }
        DkSeries::Dk2(target)
    }
}

impl GraphGenerator for DpDk {
    fn name(&self) -> &'static str {
        match self.variant {
            DkVariant::Dk1 => "DP-1K",
            DkVariant::Dk2 => "DP-dK",
        }
    }

    fn delta(&self) -> f64 {
        match self.variant {
            DkVariant::Dk1 => 0.0,
            DkVariant::Dk2 => self.delta,
        }
    }

    fn measure(
        &self,
        graph: &Graph,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        let mut acc = BudgetAccountant::new(epsilon)?;
        let series = match self.variant {
            DkVariant::Dk1 => {
                let eps = acc.spend_remaining("degree histogram");
                self.measure_dk1(graph, eps, rng)
            }
            DkVariant::Dk2 => {
                // Budget split as in `measure_dk2`'s header comment: a small
                // share estimates the edge total, the rest perturbs the JDD.
                let eps_count = acc.spend("edge count", 0.1 * epsilon)?;
                let eps_jdd = acc.spend_remaining("joint degree distribution");
                self.measure_dk2(graph, eps_count, eps_jdd, rng)
            }
        };
        Ok(Box::new(DkSynthesis { series, n: graph.node_count(), epsilon: acc.total() }))
    }
}

/// Builds a dK realisation on exactly `n` nodes — the benchmark's pipeline
/// invariant (the node set is public under Edge CDP, so this is free
/// post-processing). The dK constructors size their output from the
/// *noisy* series: isolated nodes vanish from a JDD and noisy histogram
/// mass rounds away from `n`, so the realisation can come back smaller or
/// larger. A deficit needs nothing (building on `n` nodes pads with
/// isolated ones); a surplus is removed by a uniform induced subsample of
/// the edge list — the same projection PrivSKG applies after Kronecker
/// sampling. Either way the sample is built once.
fn conform_node_count(
    (realised_n, mut edges): Realisation,
    n: usize,
    rng: &mut dyn RngCore,
) -> Graph {
    if realised_n > n {
        NodeSubsample::uniform(realised_n, n, rng).relabel(&mut edges);
    }
    Graph::from_edges(n, edges).expect("ids conformed below n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_metrics::kl_divergence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph(rng: &mut StdRng) -> Graph {
        pgb_models::barabasi_albert(400, 4, rng)
    }

    #[test]
    fn dk1_output_valid() {
        let mut rng = StdRng::seed_from_u64(420);
        let g = toy_graph(&mut rng);
        let gen = DpDk { variant: DkVariant::Dk1, delta: 0.0 };
        let out = gen.generate(&g, 1.0, &mut rng).unwrap();
        assert!(out.check_invariants());
        assert!(out.node_count() > 0);
    }

    #[test]
    fn dk2_output_valid() {
        let mut rng = StdRng::seed_from_u64(421);
        let g = toy_graph(&mut rng);
        let out = DpDk::default().generate(&g, 2.0, &mut rng).unwrap();
        assert!(out.check_invariants());
    }

    #[test]
    fn dk1_high_epsilon_preserves_degree_distribution() {
        let mut rng = StdRng::seed_from_u64(422);
        let g = toy_graph(&mut rng);
        let gen = DpDk { variant: DkVariant::Dk1, delta: 0.0 };
        let out = gen.generate(&g, 100.0, &mut rng).unwrap();
        let kl = kl_divergence(
            &pgb_graph::degree::degree_distribution(&g),
            &pgb_graph::degree::degree_distribution(&out),
        );
        assert!(kl < 0.05, "KL {kl}");
    }

    #[test]
    fn dk2_high_epsilon_preserves_edges() {
        let mut rng = StdRng::seed_from_u64(423);
        let g = toy_graph(&mut rng);
        // The paper's own observation: DP-dK needs a *large* ε before its
        // smooth-sensitivity noise becomes negligible.
        let out = DpDk::default().generate(&g, 2000.0, &mut rng).unwrap();
        let (m0, m1) = (g.edge_count() as f64, out.edge_count() as f64);
        assert!((m1 - m0).abs() / m0 < 0.35, "m0 {m0} m1 {m1}");
    }

    #[test]
    fn dk2_low_epsilon_inflates_or_deflates_gracefully() {
        let mut rng = StdRng::seed_from_u64(424);
        let g = toy_graph(&mut rng);
        let out = DpDk::default().generate(&g, 0.1, &mut rng).unwrap();
        assert!(out.check_invariants());
    }

    #[test]
    fn deltas_reported_correctly() {
        assert_eq!(DpDk::default().delta(), 0.01);
        assert_eq!(DpDk { variant: DkVariant::Dk1, delta: 0.01 }.delta(), 0.0);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(DpDk::default().name(), "DP-dK");
        assert_eq!(DpDk { variant: DkVariant::Dk1, delta: 0.0 }.name(), "DP-1K");
    }

    #[test]
    fn empty_graph_ok() {
        let mut rng = StdRng::seed_from_u64(425);
        let out = DpDk::default().generate(&Graph::new(0), 1.0, &mut rng).unwrap();
        assert_eq!(out.edge_count(), 0);
        assert_eq!(out.node_count(), 0);
    }

    #[test]
    fn both_variants_preserve_node_count() {
        // The noisy dK series can realise to more or fewer nodes than the
        // input; the projection back to n is part of the generator
        // contract (the runner's pipeline invariant).
        let mut rng = StdRng::seed_from_u64(426);
        let g = toy_graph(&mut rng);
        for variant in [DkVariant::Dk1, DkVariant::Dk2] {
            for eps in [0.1, 1.0, 100.0] {
                let gen = DpDk { variant, delta: 0.01 };
                let out = gen.generate(&g, eps, &mut rng).unwrap();
                assert_eq!(out.node_count(), g.node_count(), "{} at ε={eps}", gen.name());
                assert!(out.check_invariants());
            }
        }
    }
}

//! PrivSKG (Mir & Wright, EDBT/ICDT PAIS 2012): a differentially private
//! estimator for the stochastic Kronecker graph model.
//!
//! Representation: a symmetric 2×2 Kronecker initiator. Perturbation:
//! noisy graph *moments* — edge count (Laplace, global sensitivity 1),
//! wedge and triangle counts (Laplace calibrated to smooth sensitivity,
//! (ε, δ)-DP) — followed by a moment-matching fit of the initiator.
//! Construction: Kronecker ball-drop sampling over `2^k` nodes, then a
//! uniform induced subsample back to the input's node count (the moment
//! targets are pre-scaled by the matching subsampling factors, so the
//! subsample's expected moments hit the noisy targets).

use crate::generator::{GenerateError, GraphGenerator, NodeSubsample, PrivateSynthesis};
use pgb_dp::laplace::sample_laplace;
use pgb_dp::sensitivity::{
    smooth_sensitivity, triangle_local_sensitivity_at, wedge_local_sensitivity_at, SmoothParams,
};
use pgb_dp::BudgetAccountant;
use pgb_graph::Graph;
use pgb_models::{Initiator, KroneckerModel};
use pgb_queries::counting::{triangle_count, wedge_count};
use rand::RngCore;

/// The PrivSKG generator.
#[derive(Clone, Debug)]
pub struct PrivSkg {
    /// δ of the smooth-sensitivity guarantee; 0.01 in §V-C.
    pub delta: f64,
    /// Moment-fit grid resolution (entries per axis in the coarse pass).
    pub grid_steps: usize,
}

impl Default for PrivSkg {
    fn default() -> Self {
        PrivSkg { delta: 0.01, grid_steps: 14 }
    }
}

/// The noisy moment targets the initiator is fitted against.
#[derive(Clone, Copy, Debug)]
struct MomentTargets {
    edges: f64,
    wedges: f64,
    triangles: f64,
}

/// Squared-log-error loss between a model's moments and the targets.
fn moment_loss(model: &KroneckerModel, t: &MomentTargets) -> f64 {
    let le = |x: f64| (x.max(0.0) + 1.0).ln();
    (le(model.expected_edges()) - le(t.edges)).powi(2)
        + (le(model.expected_wedges()) - le(t.wedges)).powi(2)
        + (le(model.expected_triangles()) - le(t.triangles)).powi(2)
}

/// Coarse grid search followed by coordinate descent with shrinking steps.
fn fit_initiator(k: u32, targets: &MomentTargets, grid_steps: usize) -> Initiator {
    let steps = grid_steps.max(4);
    let grid: Vec<f64> = (1..=steps).map(|i| i as f64 / (steps as f64 + 1.0)).collect();
    let mut best = Initiator::new(0.5, 0.5, 0.5);
    let mut best_loss = f64::INFINITY;
    for &a in &grid {
        for &b in &grid {
            for &c in &grid {
                if c > a {
                    continue; // symmetry: relabeling bits swaps a and c
                }
                let m = KroneckerModel { initiator: Initiator::new(a, b, c), k };
                let loss = moment_loss(&m, targets);
                if loss < best_loss {
                    best_loss = loss;
                    best = m.initiator;
                }
            }
        }
    }
    // Coordinate descent refinement.
    let mut step = 1.0 / (steps as f64 + 1.0);
    let mut current = best;
    for _ in 0..40 {
        let mut improved = false;
        for axis in 0..3 {
            for dir in [-1.0, 1.0] {
                let mut cand = current;
                let field = match axis {
                    0 => &mut cand.a,
                    1 => &mut cand.b,
                    _ => &mut cand.c,
                };
                *field = (*field + dir * step).clamp(1e-4, 1.0 - 1e-4);
                let m = KroneckerModel { initiator: cand, k };
                let loss = moment_loss(&m, targets);
                if loss < best_loss {
                    best_loss = loss;
                    current = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-5 {
                break;
            }
        }
    }
    current
}

/// PrivSKG's private intermediate: the moment-matched Kronecker initiator
/// (fitted against the noisy edge/wedge/triangle targets). Ball-drop
/// sampling and the induced subsample read only the model, so re-sampling
/// is ε-free.
#[derive(Clone, Copy, Debug)]
pub struct SkgSynthesis {
    n: usize,
    model: Option<KroneckerModel>,
    epsilon: f64,
}

impl PrivateSynthesis for SkgSynthesis {
    fn name(&self) -> &'static str {
        "PrivSKG"
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        0 // the initiator is a few inline floats; nothing heap-allocated
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        let model = match self.model {
            Some(m) => m,
            None => return Graph::new(self.n),
        };
        let n = self.n;
        // Kronecker region edge sampling: ball drops are i.i.d., so the
        // drop total splits into fixed chunks with independent derived
        // streams — same distribution as one serial pass, byte-identical
        // at any thread count.
        let drops = model.sample_drop_count(rng);
        let mut pairs: Vec<(u32, u32)> =
            pgb_par::par_collect(drops as usize, pgb_par::DEFAULT_CHUNK, rng, |range, rng, out| {
                model.sample_drops(range.len() as u64, rng, out);
            });
        // Uniform induced subsample down to n nodes, applied to the drops
        // before anything is built: the CSR is canonical, so building the
        // relabelled surviving pairs gives the induced subgraph of the
        // 2^k-node graph without ever building that graph.
        if model.node_count() != n {
            NodeSubsample::uniform(model.node_count(), n, rng).relabel(&mut pairs);
        }
        Graph::from_edges(n, pairs).expect("ids bounded by n")
    }
}

impl GraphGenerator for PrivSkg {
    fn name(&self) -> &'static str {
        "PrivSKG"
    }

    fn delta(&self) -> f64 {
        self.delta
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
            return Ok(Box::new(SkgSynthesis { n, model: None, epsilon }));
        }
        let shares =
            acc.split(&[("edge count", 1.0), ("wedge count", 1.0), ("triangle count", 1.0)])?;
        let (eps_m, eps_w, eps_t) = (shares[0], shares[1], shares[2]);
        let d_max = graph.max_degree();

        // Noisy moments. Edge count: global sensitivity 1 (pure DP share).
        let noisy_edges = (graph.edge_count() as f64 + sample_laplace(1.0 / eps_m, rng)).max(1.0);
        // Wedges and triangles: smooth sensitivity, (ε, δ) shares.
        let wedge_params = SmoothParams::for_laplace(eps_w, self.delta);
        let s_w =
            smooth_sensitivity(|k| wedge_local_sensitivity_at(d_max, k), wedge_params.beta, n);
        let noisy_wedges =
            (wedge_count(graph) as f64 + sample_laplace(2.0 * s_w / eps_w, rng)).max(1.0);
        let tri_params = SmoothParams::for_laplace(eps_t, self.delta);
        let s_t =
            smooth_sensitivity(|k| triangle_local_sensitivity_at(d_max, k), tri_params.beta, n);
        let noisy_triangles =
            (triangle_count(graph) as f64 + sample_laplace(2.0 * s_t / eps_t, rng)).max(0.0);

        // Fit over 2^k ≥ n nodes; pre-scale the targets for the final
        // induced subsample (edges shrink by f², wedges/triangles by f³).
        let k = (n as f64).log2().ceil() as u32;
        let f = n as f64 / (1usize << k) as f64;
        let targets = MomentTargets {
            edges: noisy_edges / (f * f),
            wedges: noisy_wedges / (f * f * f),
            triangles: noisy_triangles / (f * f * f),
        };
        let initiator = fit_initiator(k, &targets, self.grid_steps);
        let model = KroneckerModel { initiator, k };
        Ok(Box::new(SkgSynthesis { n, model: Some(model), epsilon: acc.total() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fit_recovers_self_consistent_moments() {
        // Targets generated from a known initiator must be re-fitted to
        // moments close to those targets.
        let truth = KroneckerModel { initiator: Initiator::new(0.85, 0.45, 0.25), k: 10 };
        let targets = MomentTargets {
            edges: truth.expected_edges(),
            wedges: truth.expected_wedges(),
            triangles: truth.expected_triangles(),
        };
        let fitted = fit_initiator(10, &targets, 14);
        let m = KroneckerModel { initiator: fitted, k: 10 };
        assert!(
            (m.expected_edges() - targets.edges).abs() / targets.edges < 0.1,
            "edges {} vs {}",
            m.expected_edges(),
            targets.edges
        );
        assert!(
            (m.expected_wedges() - targets.wedges).abs() / targets.wedges < 0.3,
            "wedges {} vs {}",
            m.expected_wedges(),
            targets.wedges
        );
    }

    /// The construction `sample` replaced, kept as its oracle: build the
    /// whole 2^k-node graph, then take the subgraph induced by a uniform
    /// n-subset, relabelled in id order.
    fn build_then_induce(model: &KroneckerModel, n: usize, rng: &mut dyn RngCore) -> Graph {
        use rand::Rng;
        let drops = model.sample_drop_count(rng);
        let pairs: Vec<(u32, u32)> =
            pgb_par::par_collect(drops as usize, pgb_par::DEFAULT_CHUNK, rng, |range, rng, out| {
                model.sample_drops(range.len() as u64, rng, out);
            });
        let big = Graph::from_edges(model.node_count(), pairs).unwrap();
        if big.node_count() == n {
            return big;
        }
        let mut ids: Vec<u32> = (0..big.node_count() as u32).collect();
        for i in 0..n {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        ids.truncate(n);
        ids.sort_unstable();
        let mut new_id = vec![u32::MAX; big.node_count()];
        for (i, &u) in ids.iter().enumerate() {
            new_id[u as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for &u in &ids {
            for &v in big.neighbors(u) {
                if new_id[v as usize] != u32::MAX && u < v {
                    edges.push((new_id[u as usize], new_id[v as usize]));
                }
            }
        }
        Graph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn sample_equals_build_then_induce() {
        // n < 2^k (subsampled; at n = 6,000 with more than 2^15 surviving
        // pairs) and n = 2^k (built directly), at every thread budget.
        let initiator = Initiator::new(0.99, 0.6, 0.4);
        for (n, k) in [(6_000, 13), (300, 9), (1_024, 10)] {
            let model = KroneckerModel { initiator, k };
            let synthesis = SkgSynthesis { n, model: Some(model), epsilon: 1.0 };
            for threads in [1usize, 2, 8, 0] {
                let run = || {
                    let (mut a, mut b) = (StdRng::seed_from_u64(435), StdRng::seed_from_u64(435));
                    let got = synthesis.sample(&mut a);
                    let want = build_then_induce(&model, n, &mut b);
                    (
                        (got.node_count(), got.edge_vec()),
                        (want.node_count(), want.edge_vec()),
                        a.next_u64(),
                        b.next_u64(),
                    )
                };
                let (got, want, cursor_a, cursor_b) =
                    if threads == 0 { run() } else { pgb_par::with_parallelism(threads, run) };
                assert!(want.1.len() > 100, "n={n}: too few edges to compare");
                assert_eq!(got, want, "n={n}, threads={threads}");
                assert_eq!(cursor_a, cursor_b, "n={n}, threads={threads}: RNG cursors diverged");
            }
        }
    }

    #[test]
    fn output_node_count_matches_input() {
        let mut rng = StdRng::seed_from_u64(430);
        let g = pgb_models::erdos_renyi_gnp(300, 0.04, &mut rng);
        let out = PrivSkg::default().generate(&g, 2.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 300);
        assert!(out.check_invariants());
    }

    #[test]
    fn high_epsilon_tracks_edge_count() {
        let mut rng = StdRng::seed_from_u64(431);
        let g = pgb_models::erdos_renyi_gnp(256, 0.05, &mut rng);
        let out = PrivSkg::default().generate(&g, 50.0, &mut rng).unwrap();
        let (m0, m1) = (g.edge_count() as f64, out.edge_count() as f64);
        assert!((m1 - m0).abs() / m0 < 0.45, "m0 {m0} m1 {m1}");
    }

    #[test]
    fn power_of_two_input_skips_subsampling() {
        let mut rng = StdRng::seed_from_u64(432);
        let g = pgb_models::erdos_renyi_gnp(256, 0.05, &mut rng);
        let out = PrivSkg::default().generate(&g, 5.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 256);
    }

    #[test]
    fn tiny_graph_ok() {
        let mut rng = StdRng::seed_from_u64(433);
        let out = PrivSkg::default().generate(&Graph::new(1), 1.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 1);
    }

    #[test]
    fn low_epsilon_valid() {
        let mut rng = StdRng::seed_from_u64(434);
        let g = pgb_models::barabasi_albert(200, 3, &mut rng);
        let out = PrivSkg::default().generate(&g, 0.1, &mut rng).unwrap();
        assert!(out.check_invariants());
        assert_eq!(out.node_count(), 200);
    }
}

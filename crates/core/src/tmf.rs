//! TmF — Top-m Filter (Nguyen, Imine & Rusinowitch, ASONAM 2015).
//!
//! Representation: the adjacency matrix. Perturbation: Laplace noise on
//! every cell plus a noisy edge count m̃. Construction: keep the m̃ cells
//! whose noisy value clears a *high-pass threshold* θ.
//!
//! The defining trick — and why the paper credits TmF with "linear cost"
//! (Remark after Table VIII) — is that the noisy matrix is never
//! materialised. Because all N₀ zero-cells are i.i.d., the number that
//! clears θ is a Binomial draw, and the surviving 1-cells are a Binomial
//! subsample of the true edges. This implementation realises exactly that
//! distribution in `O(m + m̃)`.

use crate::generator::{vec_heap_bytes, GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_dp::laplace::sample_laplace;
use pgb_dp::BudgetAccountant;
use pgb_graph::Graph;
use pgb_models::sampling::{sample_binomial, PairSet};
use rand::{Rng, RngCore};

/// The TmF generator.
#[derive(Clone, Debug)]
pub struct TmF {
    /// Fraction of ε spent on the cell noise (ε₁); the remainder (ε₂)
    /// protects the edge count. The TmF paper's default is an even split
    /// weighted towards the cells.
    pub cell_budget_fraction: f64,
}

impl Default for TmF {
    fn default() -> Self {
        TmF { cell_budget_fraction: 0.9 }
    }
}

/// `P(Lap(1/ε) > t)` — upper tail of the Laplace distribution.
fn laplace_tail(t: f64, epsilon: f64) -> f64 {
    if t >= 0.0 {
        0.5 * (-t * epsilon).exp()
    } else {
        1.0 - 0.5 * (t * epsilon).exp()
    }
}

impl TmF {
    /// Solves for the high-pass threshold θ such that the expected number
    /// of passing cells equals the noisy target m̃:
    /// `m · P(1 + Lap > θ) + N₀ · P(Lap > θ) = m̃`.
    /// The left side is strictly decreasing in θ, so bisection converges.
    fn solve_threshold(m: f64, zeros: f64, m_tilde: f64, eps1: f64) -> f64 {
        let expected =
            |theta: f64| m * laplace_tail(theta - 1.0, eps1) + zeros * laplace_tail(theta, eps1);
        let (mut lo, mut hi) = (-2.0, 1.0 + 60.0 / eps1);
        if expected(lo) < m_tilde {
            return lo; // target larger than everything can pass
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if expected(mid) > m_tilde {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// TmF's private intermediate: the perturbed edge set — surviving true
/// edges and flipped-in false positives — plus the noisy cap m̃. Sampling
/// only applies the top-m̃ trim and builds the CSR, so it is ε-free.
#[derive(Clone, Debug)]
pub struct TmfSynthesis {
    n: usize,
    m_tilde: u64,
    kept_true: Vec<(u32, u32)>,
    false_pos: Vec<(u32, u32)>,
    epsilon: f64,
}

impl PrivateSynthesis for TmfSynthesis {
    fn name(&self) -> &'static str {
        "TmF"
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.kept_true) + vec_heap_bytes(&self.false_pos)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        if self.n < 2 || self.m_tilde == 0 {
            return Graph::new(self.n);
        }
        // The filter passes ≈ m̃ cells in expectation; enforce the top-m̃
        // cap by trimming false positives first (their noisy values are
        // stochastically smaller), then true survivors. Each trimmed list
        // must stay a *uniform* subset — the lists are in chunk order, so a
        // plain prefix would bias survivors toward low node ids; a partial
        // Fisher–Yates on a derived stream keeps the subset uniform and the
        // trim decision (and the caller's RNG position) thread-invariant.
        // Only a trim copies the lists; otherwise they are built as stored.
        let m_tilde = self.m_tilde as usize;
        if self.kept_true.len() + self.false_pos.len() <= m_tilde {
            let pairs = self.kept_true.iter().chain(&self.false_pos).copied();
            return Graph::from_edges(self.n, pairs).expect("ids bounded by n");
        }
        let keep_true = self.kept_true.len().min(m_tilde);
        let mut trim_rng = pgb_par::derive_stream(rng.next_u64(), 0);
        let mut trim = |list: &[(u32, u32)], keep: usize| {
            let mut list = list.to_vec();
            if keep < list.len() {
                for i in 0..keep {
                    let j = trim_rng.gen_range(i..list.len());
                    list.swap(i, j);
                }
                list.truncate(keep);
            }
            list
        };
        let kept_true = trim(&self.kept_true, keep_true);
        let false_pos = trim(&self.false_pos, m_tilde - keep_true);
        Graph::from_edges(self.n, kept_true.into_iter().chain(false_pos)).expect("ids bounded by n")
    }
}

impl TmfSynthesis {
    /// The degenerate intermediate for graphs the filter cannot act on
    /// (n < 2, or a noisy edge count of zero): samples to an empty graph
    /// without drawing from the RNG.
    fn empty(n: usize, epsilon: f64) -> Self {
        TmfSynthesis { n, m_tilde: 0, kept_true: Vec::new(), false_pos: Vec::new(), epsilon }
    }
}

impl GraphGenerator for TmF {
    fn name(&self) -> &'static str {
        "TmF"
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
            return Ok(Box::new(TmfSynthesis::empty(n, epsilon)));
        }
        let eps1 =
            acc.spend("adjacency cells", epsilon * self.cell_budget_fraction.clamp(0.05, 0.95))?;
        let eps2 = acc.spend_remaining("edge count");

        let m = graph.edge_count();
        let cells = n as u64 * (n as u64 - 1) / 2;
        let zeros = cells - m as u64;

        // Noisy edge count (sensitivity 1 under edge neighbouring).
        let m_tilde =
            (m as f64 + sample_laplace(1.0 / eps2, rng)).round().clamp(0.0, cells as f64) as u64;
        if m_tilde == 0 {
            return Ok(Box::new(TmfSynthesis::empty(n, acc.total())));
        }

        let theta = Self::solve_threshold(m as f64, zeros as f64, m_tilde as f64, eps1);
        let p1 = laplace_tail(theta - 1.0, eps1);
        let p0 = laplace_tail(theta, eps1);

        let (p1, p0) = (p1.clamp(0.0, 1.0), p0.clamp(0.0, 1.0));

        // Surviving true edges: keeping each true edge independently with
        // probability p1 realises the Binomial(m, p1) survivor law — and is
        // embarrassingly parallel over fixed edge-list chunks, each on its
        // own derived stream, so the output is thread-count-invariant.
        let edges = graph.edge_vec();
        let kept_true: Vec<(u32, u32)> =
            pgb_par::par_collect(edges.len(), pgb_par::DEFAULT_CHUNK, rng, |range, rng, out| {
                for &(u, v) in &edges[range] {
                    if rng.gen_bool(p1) {
                        out.push((u, v));
                    }
                }
            });

        // False positives: each of the N₀ zero-cells clears θ independently
        // with probability p0. Rows of the upper triangle are chunked; a
        // chunk counts its own zero-cells exactly, draws its Binomial share
        // (independent Binomials over a partition sum to Binomial(N₀, p0)),
        // and rejection-samples that many distinct non-edge cells within its
        // rows. Disjoint row ranges keep cells distinct across chunks.
        const ROW_CHUNK: usize = 1024;
        let false_pos: Vec<(u32, u32)> =
            pgb_par::par_collect(n.saturating_sub(1), ROW_CHUNK, rng, |rows, rng, out| {
                // Per-row upper-triangle cell counts, prefix-summed so a
                // uniform cell index maps back to (row, column).
                let mut prefix: Vec<u64> = Vec::with_capacity(rows.len() + 1);
                prefix.push(0);
                let mut zeros_chunk = 0u64;
                for i in rows.clone() {
                    let row_cells = (n - 1 - i) as u64;
                    let nbrs = graph.neighbors(i as u32);
                    let row_ones = (nbrs.len() - nbrs.partition_point(|&v| v <= i as u32)) as u64;
                    zeros_chunk += row_cells - row_ones;
                    prefix.push(prefix.last().unwrap() + row_cells);
                }
                let cells_chunk = *prefix.last().unwrap();
                let target = sample_binomial(zeros_chunk, p0, rng);
                if target == 0 || cells_chunk == 0 {
                    return;
                }
                let mut seen = PairSet::with_capacity(target as usize * 2);
                let mut placed = 0u64;
                let mut attempts = 0u64;
                let max_attempts = target.saturating_mul(20) + 1000;
                while placed < target && attempts < max_attempts {
                    attempts += 1;
                    let t = rng.gen_range(0..cells_chunk);
                    let li = prefix.partition_point(|&p| p <= t) - 1;
                    let i = (rows.start + li) as u32;
                    let j = i + 1 + (t - prefix[li]) as u32;
                    if !graph.has_edge(i, j) && seen.insert(i, j) {
                        out.push((i, j));
                        placed += 1;
                    }
                }
            });

        Ok(Box::new(TmfSynthesis { n, m_tilde, kept_true, false_pos, epsilon: acc.total() }))
    }
}

#[cfg(test)]
#[path = "../../../tests/support/pinned.rs"]
mod pinned;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph(rng: &mut StdRng) -> Graph {
        pgb_models::erdos_renyi_gnp(400, 0.03, rng)
    }

    #[test]
    fn threshold_solves_expectation() {
        let (m, zeros, m_tilde, eps1) = (1000.0, 99_000.0, 1000.0, 1.0);
        let theta = TmF::solve_threshold(m, zeros, m_tilde, eps1);
        let expected = m * laplace_tail(theta - 1.0, eps1) + zeros * laplace_tail(theta, eps1);
        assert!((expected - m_tilde).abs() < 1.0, "expected {expected}");
        assert!(theta > 0.0 && theta < 1.0 + 60.0);
    }

    #[test]
    fn output_edge_count_tracks_m_tilde() {
        let mut rng = StdRng::seed_from_u64(410);
        let g = toy_graph(&mut rng);
        let out = TmF::default().generate(&g, 2.0, &mut rng).unwrap();
        let (m0, m1) = (g.edge_count() as f64, out.edge_count() as f64);
        // m̃ is m ± Lap(1/0.2ε); the filter then holds |E| near m̃.
        assert!((m1 - m0).abs() / m0 < 0.1, "m0 {m0} m1 {m1}");
        assert!(out.check_invariants());
    }

    #[test]
    fn high_epsilon_recovers_most_true_edges() {
        let mut rng = StdRng::seed_from_u64(411);
        let g = toy_graph(&mut rng);
        let out = TmF::default().generate(&g, 20.0, &mut rng).unwrap();
        let common = out.edges().filter(|&(u, v)| g.has_edge(u, v)).count();
        let recall = common as f64 / g.edge_count() as f64;
        assert!(recall > 0.85, "recall {recall}");
    }

    #[test]
    fn low_epsilon_loses_most_true_edges() {
        let mut rng = StdRng::seed_from_u64(412);
        let g = toy_graph(&mut rng);
        let out = TmF::default().generate(&g, 0.1, &mut rng).unwrap();
        let common = out.edges().filter(|&(u, v)| g.has_edge(u, v)).count();
        let recall = common as f64 / g.edge_count() as f64;
        // The paper's critique: "most of the true edges cannot be retained
        // ... especially when ε is small".
        assert!(recall < 0.5, "recall {recall}");
    }

    #[test]
    fn trimmed_sample_bytes_are_pinned() {
        // Every end-to-end TmF pin in two_phase.rs samples fewer pairs
        // than m̃, so none reaches the top-m̃ trim; these pin it directly,
        // once cutting false positives only and once cutting both lists.
        let mut rng = StdRng::seed_from_u64(415);
        let g = toy_graph(&mut rng);
        let kept_true = g.edge_vec();
        let mut false_pos: Vec<(u32, u32)> = (0..399u32)
            .flat_map(|i| [(i / 2, 399 - i / 3), (i, i + 1)])
            .filter(|&(u, v)| u < v && !g.has_edge(u, v))
            .collect();
        false_pos.sort_unstable();
        false_pos.dedup();
        let total = kept_true.len() + false_pos.len();
        let mut got = Vec::new();
        for (name, m_tilde) in [("cut-300", total - 300), ("half-true", kept_true.len() / 2)] {
            let synth = TmfSynthesis {
                n: g.node_count(),
                m_tilde: m_tilde as u64,
                kept_true: kept_true.clone(),
                false_pos: false_pos.clone(),
                epsilon: 1.0,
            };
            let out = synth.sample(&mut StdRng::seed_from_u64(416));
            assert_eq!(out.edge_count(), m_tilde, "every kept pair is distinct");
            let (offsets, neighbors) = out.csr();
            let bytes: Vec<u8> =
                offsets.iter().chain(neighbors).flat_map(|w| w.to_le_bytes()).collect();
            got.push((name.to_string(), pgb_par::fnv1a(&bytes)));
        }
        pinned::assert_pinned("trimmed_sample_bytes_are_pinned", &got);
    }

    #[test]
    fn tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(413);
        assert_eq!(TmF::default().generate(&Graph::new(0), 1.0, &mut rng).unwrap().node_count(), 0);
        let out = TmF::default().generate(&Graph::new(1), 1.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 1);
    }

    #[test]
    fn rejects_bad_epsilon() {
        let mut rng = StdRng::seed_from_u64(414);
        assert!(TmF::default().generate(&Graph::new(5), f64::NAN, &mut rng).is_err());
    }
}

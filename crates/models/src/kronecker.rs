//! Stochastic Kronecker graphs (SKG) — PrivSKG's model.
//!
//! A symmetric 2×2 initiator `[[a, b], [b, c]]` Kronecker-powered `k` times
//! defines edge probabilities over `n = 2^k` nodes:
//! `P[u, v] = Π_level θ[bit_level(u), bit_level(v)]`.
//!
//! Besides the ball-dropping sampler's two kernels, this module exposes
//! the closed-form *moments* (expected edges, wedges, triangles) that
//! PrivSKG's private estimator matches against noisy graph statistics.

use crate::sampling::sample_binomial;
use rand::Rng;

/// A symmetric 2×2 Kronecker initiator with entries in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Initiator {
    /// θ\[0\]\[0\].
    pub a: f64,
    /// θ\[0\]\[1\] = θ\[1\]\[0\].
    pub b: f64,
    /// θ\[1\]\[1\].
    pub c: f64,
}

impl Initiator {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics unless all entries lie in `[0, 1]`.
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        for (name, v) in [("a", a), ("b", b), ("c", c)] {
            assert!((0.0..=1.0).contains(&v), "initiator {name} must be in [0,1], got {v}");
        }
        Initiator { a, b, c }
    }

    /// Sum of all four initiator entries `a + 2b + c`.
    pub fn total(&self) -> f64 {
        self.a + 2.0 * self.b + self.c
    }
}

/// A stochastic Kronecker graph model: initiator plus the number of
/// Kronecker levels `k` (so `n = 2^k`).
#[derive(Clone, Copy, Debug)]
pub struct KroneckerModel {
    /// The 2×2 symmetric initiator.
    pub initiator: Initiator,
    /// Number of Kronecker levels.
    pub k: u32,
}

impl KroneckerModel {
    /// Number of nodes `2^k`.
    pub fn node_count(&self) -> usize {
        1usize << self.k
    }

    /// Exact edge probability for the ordered pair `(u, v)`.
    pub fn edge_probability(&self, u: usize, v: usize) -> f64 {
        let Initiator { a, b, c } = self.initiator;
        let mut p = 1.0;
        for level in 0..self.k {
            let (bu, bv) = ((u >> level) & 1, (v >> level) & 1);
            p *= match (bu, bv) {
                (0, 0) => a,
                (1, 1) => c,
                _ => b,
            };
        }
        p
    }

    /// Expected number of **undirected** edges:
    /// `((a + 2b + c)^k − (a + c)^k) / 2` — total ordered mass minus the
    /// diagonal, halved.
    pub fn expected_edges(&self) -> f64 {
        let Initiator { a, b, c } = self.initiator;
        let kf = self.k as i32;
        ((a + 2.0 * b + c).powi(kf) - (a + c).powi(kf)) / 2.0
    }

    /// Expected number of wedges (unordered paths of length 2), exactly:
    ///
    /// `Σ_u [(R_u − P_uu)² − (Q_u − P_uu²)] / 2`, where `R_u` is the row
    /// sum and `Q_u` the row sum of squares. All four pieces have Kronecker
    /// closed forms:
    /// `Σ R_u² = ((a+b)² + (b+c)²)^k`, `Σ Q_u = (a² + 2b² + c²)^k`,
    /// `Σ R_u P_uu = (a(a+b) + c(b+c))^k`, `Σ P_uu² = (a² + c²)^k`.
    pub fn expected_wedges(&self) -> f64 {
        let Initiator { a, b, c } = self.initiator;
        let kf = self.k as i32;
        let row_sq = ((a + b).powi(2) + (b + c).powi(2)).powi(kf);
        let q = (a * a + 2.0 * b * b + c * c).powi(kf);
        let row_diag = (a * (a + b) + c * (b + c)).powi(kf);
        let diag_sq = (a * a + c * c).powi(kf);
        ((row_sq - q - 2.0 * row_diag + 2.0 * diag_sq) / 2.0).max(0.0)
    }

    /// Expected number of triangles, exactly: inclusion–exclusion over the
    /// ordered triple sum
    /// `T = (a³ + 3ab² + 3b²c + c³)^k` (all triples),
    /// `S_pair = (a³ + ab² + b²c + c³)^k` (two indices equal),
    /// `S_all = (a³ + c³)^k` (all equal):
    /// `E[△] = (T − 3 S_pair + 2 S_all) / 6`.
    pub fn expected_triangles(&self) -> f64 {
        let Initiator { a, b, c } = self.initiator;
        let kf = self.k as i32;
        let t = (a.powi(3) + 3.0 * a * b * b + 3.0 * b * b * c + c.powi(3)).powi(kf);
        let s_pair = (a.powi(3) + a * b * b + b * b * c + c.powi(3)).powi(kf);
        let s_all = (a.powi(3) + c.powi(3)).powi(kf);
        ((t - 3.0 * s_pair + 2.0 * s_all) / 6.0).max(0.0)
    }

    /// Draws the number of ball drops for one "ball-dropping" realisation
    /// (as in graph500 / Leskovec's generator, which PrivSKG builds on):
    /// Binomial-dithered around the expected undirected edge count. Each
    /// drop becomes one undirected edge candidate routed by
    /// [`KroneckerModel::sample_drops`]; duplicates collapse later in the
    /// builder, so the realised edge count sits slightly below
    /// [`KroneckerModel::expected_edges`].
    pub fn sample_drop_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let n = self.node_count();
        let cells = (n as u64).saturating_mul(n as u64 - 1) / 2;
        let p_cell = (self.expected_edges() / cells.max(1) as f64).min(1.0);
        sample_binomial(cells, p_cell, rng)
    }

    /// Routes `count` ball drops down the Kronecker hierarchy quadrant by
    /// quadrant, pushing each non-diagonal landing as a raw node pair.
    ///
    /// This is the independent per-drop kernel of ball dropping: callers
    /// split the [`KroneckerModel::sample_drop_count`] total into chunks
    /// with independent RNG streams (PrivSKG's parallel construction
    /// phase). The pushed pairs still need the builder's dedup pass.
    pub fn sample_drops<R: Rng + ?Sized>(
        &self,
        count: u64,
        rng: &mut R,
        out: &mut Vec<(u32, u32)>,
    ) {
        let Initiator { a, b, c: _ } = self.initiator;
        let total = self.initiator.total();
        if total <= 0.0 {
            return;
        }
        let (pa, pb) = (a / total, b / total);
        // Quadrant boundaries: r < t0 picks (0,0), r < t1 picks (0,1),
        // r < t2 picks (1,0), else (1,1). pb ≥ 0 and f64 addition is
        // monotone, so t0 ≤ t1 ≤ t2, and the row bit is one comparison
        // and the column bit the parity of all three — no branch the CPU
        // has to guess per level.
        let (t0, t1, t2) = (pa, pa + pb, pa + 2.0 * pb);
        for _ in 0..count {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..self.k {
                let r: f64 = rng.gen_range(0.0f64..1.0);
                let bu = r >= t1;
                let bv = (r >= t0) ^ bu ^ (r >= t2);
                u = (u << 1) | bu as usize;
                v = (v << 1) | bv as usize;
            }
            if u != v {
                out.push((u as u32, v as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::{Graph, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> KroneckerModel {
        KroneckerModel { initiator: Initiator::new(0.9, 0.5, 0.2), k: 8 }
    }

    /// Samples by exact per-pair Bernoulli trials — `O(n²)`, the oracle
    /// for the closed-form moments.
    fn sample_exact<R: Rng + ?Sized>(m: &KroneckerModel, rng: &mut R) -> Graph {
        let n = m.node_count();
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_range(0.0f64..1.0) < m.edge_probability(u, v) {
                    b.push(u as u32, v as u32);
                }
            }
        }
        b.build().expect("ids bounded by n")
    }

    /// One ball-dropping realisation on a single stream: the drop count,
    /// then every drop, then the builder's dedup.
    fn sample_fast<R: Rng + ?Sized>(m: &KroneckerModel, rng: &mut R) -> Graph {
        let n = m.node_count();
        if m.initiator.total() <= 0.0 {
            return Graph::new(n);
        }
        let drops = m.sample_drop_count(rng);
        let mut pairs = Vec::with_capacity(drops as usize);
        m.sample_drops(drops, rng, &mut pairs);
        let mut builder = GraphBuilder::with_capacity(n, pairs.len());
        builder.extend(pairs);
        builder.build().expect("ids bounded by n")
    }

    #[test]
    fn edge_probability_is_product() {
        let m = KroneckerModel { initiator: Initiator::new(0.9, 0.5, 0.2), k: 2 };
        // u = 0b01, v = 0b11: levels give (1,1) → c and (0,1) → b.
        assert!((m.edge_probability(0b01, 0b11) - 0.2 * 0.5).abs() < 1e-12);
        // Diagonal: (0,0),(0,0) → a².
        assert!((m.edge_probability(0, 0) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn expected_edges_matches_bruteforce() {
        let m = KroneckerModel { initiator: Initiator::new(0.8, 0.4, 0.3), k: 6 };
        let n = m.node_count();
        let mut sum = 0.0;
        for u in 0..n {
            for v in (u + 1)..n {
                sum += m.edge_probability(u, v);
            }
        }
        let closed = m.expected_edges();
        assert!((sum - closed).abs() / sum < 1e-9, "brute {sum} closed {closed}");
    }

    #[test]
    fn expected_wedges_matches_bruteforce() {
        let m = KroneckerModel { initiator: Initiator::new(0.8, 0.4, 0.3), k: 5 };
        let n = m.node_count();
        // Brute-force expected wedges: Σ_u Σ_{v<w, v≠u≠w} P(u,v) P(u,w).
        let mut sum = 0.0;
        for u in 0..n {
            for v in 0..n {
                if v == u {
                    continue;
                }
                for w in (v + 1)..n {
                    if w == u {
                        continue;
                    }
                    sum += m.edge_probability(u, v) * m.edge_probability(u, w);
                }
            }
        }
        let closed = m.expected_wedges();
        assert!((sum - closed).abs() / sum < 1e-9, "brute {sum} closed {closed}");
    }

    #[test]
    fn expected_triangles_matches_bruteforce() {
        let m = KroneckerModel { initiator: Initiator::new(0.8, 0.4, 0.3), k: 5 };
        let n = m.node_count();
        let mut sum = 0.0;
        for u in 0..n {
            for v in (u + 1)..n {
                for w in (v + 1)..n {
                    sum += m.edge_probability(u, v)
                        * m.edge_probability(v, w)
                        * m.edge_probability(u, w);
                }
            }
        }
        let closed = m.expected_triangles();
        assert!((sum - closed).abs() / sum < 1e-9, "brute {sum} closed {closed}");
    }

    #[test]
    fn exact_sampler_concentrates() {
        let mut rng = StdRng::seed_from_u64(120);
        let m = model();
        let reps = 5;
        let mean: f64 =
            (0..reps).map(|_| sample_exact(&m, &mut rng).edge_count() as f64).sum::<f64>()
                / reps as f64;
        let expected = m.expected_edges();
        assert!((mean - expected).abs() / expected < 0.1, "mean {mean} expected {expected}");
    }

    #[test]
    fn kronecker_moment_consistency_across_parameters() {
        // The exact sampler's mean edge count matches the closed form
        // across a grid of initiators.
        for &(a, b, c) in &[(0.9, 0.5, 0.1), (0.7, 0.3, 0.6), (0.99, 0.4, 0.2), (0.5, 0.5, 0.5)] {
            let m = KroneckerModel { initiator: Initiator::new(a, b, c), k: 7 };
            let mut rng = StdRng::seed_from_u64(7);
            let reps = 8;
            let mean =
                (0..reps).map(|_| sample_exact(&m, &mut rng).edge_count() as f64).sum::<f64>()
                    / reps as f64;
            let expected = m.expected_edges();
            assert!(
                (mean - expected).abs() / expected.max(1.0) < 0.15,
                "({a},{b},{c}): mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn fast_sampler_close_to_exact() {
        let mut rng = StdRng::seed_from_u64(121);
        let m = model();
        let g = sample_fast(&m, &mut rng);
        let expected = m.expected_edges();
        let got = g.edge_count() as f64;
        // Duplicates cost a few percent.
        assert!(got > 0.75 * expected && got < 1.1 * expected, "got {got} expected {expected}");
        assert!(g.check_invariants());
    }

    #[test]
    fn fast_sampler_scales() {
        let mut rng = StdRng::seed_from_u64(122);
        let m = KroneckerModel { initiator: Initiator::new(0.9, 0.4, 0.25), k: 13 };
        let g = sample_fast(&m, &mut rng);
        assert_eq!(g.node_count(), 8192);
        assert!(g.edge_count() > 1000);
    }

    #[test]
    fn zero_initiator_gives_empty_graph() {
        let mut rng = StdRng::seed_from_u64(123);
        let m = KroneckerModel { initiator: Initiator::new(0.0, 0.0, 0.0), k: 4 };
        assert_eq!(sample_fast(&m, &mut rng).edge_count(), 0);
        assert_eq!(sample_exact(&m, &mut rng).edge_count(), 0);
    }

    /// The quadrant `if`/`else` chain `sample_drops` replaced, kept as its
    /// oracle.
    fn sample_drops_chain(
        m: &KroneckerModel,
        count: u64,
        rng: &mut StdRng,
        out: &mut Vec<(u32, u32)>,
    ) {
        let Initiator { a, b, c: _ } = m.initiator;
        let total = m.initiator.total();
        if total <= 0.0 {
            return;
        }
        let (pa, pb) = (a / total, b / total);
        for _ in 0..count {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..m.k {
                let r: f64 = rng.gen_range(0.0f64..1.0);
                let (bu, bv) = if r < pa {
                    (0, 0)
                } else if r < pa + pb {
                    (0, 1)
                } else if r < pa + 2.0 * pb {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | bu;
                v = (v << 1) | bv;
            }
            if u != v {
                out.push((u as u32, v as u32));
            }
        }
    }

    /// Both kernels on one seed: the pushed pairs and the RNG cursor.
    fn drops_both_ways(m: &KroneckerModel, count: u64, seed: u64) -> [(Vec<(u32, u32)>, u64); 2] {
        let (mut fast, mut chain) = (Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(seed);
        m.sample_drops(count, &mut rng, &mut fast);
        let fast_next = rng.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(seed);
        sample_drops_chain(m, count, &mut rng, &mut chain);
        [(fast, fast_next), (chain, rng.gen::<u64>())]
    }

    #[test]
    fn sample_drops_matches_the_quadrant_chain() {
        // b = 0 collapses three thresholds into one; a = c and the
        // (1, 0, 0) corner pin the ends of the range.
        for (a, b, c) in [
            (0.9, 0.5, 0.2),
            (0.7, 0.0, 0.3),
            (0.6, 0.3, 0.6),
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
        ] {
            let m = KroneckerModel { initiator: Initiator::new(a, b, c), k: 12 };
            let [fast, chain] = drops_both_ways(&m, 5_000, 124);
            assert_eq!(fast, chain, "initiator ({a}, {b}, {c})");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn sample_drops_matches_the_quadrant_chain_on_any_initiator(
            a in 0.0f64..=1.0,
            b in 0.0f64..=1.0,
            c in 0.0f64..=1.0,
            k in 1u32..16,
            seed in 0u64..1_000,
        ) {
            let m = KroneckerModel { initiator: Initiator::new(a, b, c), k };
            let [fast, chain] = drops_both_ways(&m, 500, seed);
            proptest::prop_assert_eq!(fast, chain);
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_initiator_panics() {
        Initiator::new(1.2, 0.0, 0.0);
    }
}

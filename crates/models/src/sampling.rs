//! Shared sampling primitives for the graph constructors.

use pgb_graph::NodeId;
use rand::Rng;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Samples from Binomial(n, p).
///
/// Three regimes keep this fast across the benchmark's extremes (ER blocks
/// with millions of trials, HRG internal nodes with a handful):
/// * tiny `n`: direct Bernoulli summation;
/// * small mean: geometric waiting-time counting (`O(np)` expected);
/// * large variance: normal approximation, clamped and rounded.
pub fn sample_binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // Work with q = min(p, 1-p) and mirror at the end.
    let mirrored = p > 0.5;
    let q = if mirrored { 1.0 - p } else { p };
    let mean = n as f64 * q;
    let var = mean * (1.0 - q);
    let successes = if n <= 64 {
        (0..n).filter(|_| rng.gen_bool(q)).count() as u64
    } else if var > 900.0 {
        // Normal approximation: relative error is negligible once the
        // standard deviation exceeds 30.
        let z = sample_standard_normal(rng);
        let s = (mean + z * var.sqrt()).round();
        s.clamp(0.0, n as f64) as u64
    } else {
        // Count successes via geometric jumps between them.
        let log1q = (1.0 - q).ln();
        let mut count = 0u64;
        let mut i = 0u64;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = (u.ln() / log1q).floor() as u64;
            i = i.saturating_add(skip).saturating_add(1);
            if i > n {
                break;
            }
            count += 1;
        }
        count
    };
    if mirrored {
        n - successes
    } else {
        successes
    }
}

/// One standard-normal sample (Box–Muller; one value per call keeps the
/// interface stateless).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0f64..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The set of pairs a rejection sampler has already drawn.
///
/// Every sampler that dedups by rejection (DP-dK's 2K construction, the
/// BTER/DGG pair sampler, TmF's false positives, DER's sparse cells and
/// HRG's sparse internal nodes) asks this set only whether a draw is new,
/// and none iterates it, so the hash function cannot move an output byte.
/// A pair is packed into one `u64` and hashed by one fixed multiply-rotate
/// step rather than by SipHash under a per-process random key: the keys
/// are the sampler's own draws, not input an adversary picks, so flooding
/// resistance buys nothing here. On the Table VI graphs the cheaper hash
/// takes about a third off DP-dK's sampling time.
#[derive(Debug)]
pub struct PairSet(HashSet<u64, BuildHasherDefault<PairHasher>>);

impl PairSet {
    /// An empty set with room for `capacity` pairs.
    pub fn with_capacity(capacity: usize) -> Self {
        PairSet(HashSet::with_capacity_and_hasher(capacity, Default::default()))
    }

    /// Adds `(a, b)` (an ordered pair); returns whether it was new.
    #[inline]
    pub fn insert(&mut self, a: u32, b: u32) -> bool {
        self.0.insert(u64::from(a) << 32 | u64::from(b))
    }
}

/// [`PairSet`]'s hasher: the key times an odd constant, rotated so that
/// the product's well-mixed high bits land in the low bits the table
/// indexes by.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Samples a uniformly random unordered pair of distinct nodes from `0..n`.
///
/// # Panics
/// Panics if `n < 2`.
pub fn random_pair<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (NodeId, NodeId) {
    assert!(n >= 2, "need at least two nodes, got {n}");
    let u = rng.gen_range(0..n as u32);
    let mut v = rng.gen_range(0..(n - 1) as u32);
    if v >= u {
        v += 1;
    }
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Samples `k` distinct unordered node pairs from `0..n` uniformly (the
/// `G(n, m)` primitive). Rejection sampling is fine for the sparse graphs
/// PGB works with; the call panics if `k` exceeds the number of pairs.
pub fn sample_distinct_pairs<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Vec<(NodeId, NodeId)> {
    let total = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(k <= total, "cannot sample {k} distinct pairs from {total}");
    let mut seen = PairSet::with_capacity(k * 2);
    let mut out = Vec::with_capacity(k);
    // Beyond half the pair universe, rejection stalls: enumerate instead.
    if k * 2 > total {
        let mut all: Vec<(NodeId, NodeId)> = Vec::with_capacity(total);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                all.push((u, v));
            }
        }
        for i in 0..k {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        all.truncate(k);
        return all;
    }
    while out.len() < k {
        let pair = random_pair(n, rng);
        if seen.insert(pair.0, pair.1) {
            out.push(pair);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(50);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(10, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(10, 1.0, &mut rng), 10);
    }

    #[test]
    fn binomial_mean_small_regime() {
        let mut rng = StdRng::seed_from_u64(51);
        let (n, p) = (1000u64, 0.003);
        let trials = 20_000;
        let mean = (0..trials).map(|_| sample_binomial(n, p, &mut rng) as f64).sum::<f64>()
            / trials as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn binomial_mean_normal_regime() {
        let mut rng = StdRng::seed_from_u64(52);
        let (n, p) = (1_000_000u64, 0.01);
        let trials = 300;
        let mean = (0..trials).map(|_| sample_binomial(n, p, &mut rng) as f64).sum::<f64>()
            / trials as f64;
        assert!((mean - 10_000.0).abs() < 100.0, "mean {mean}");
    }

    #[test]
    fn binomial_mirrored_high_p() {
        let mut rng = StdRng::seed_from_u64(53);
        let (n, p) = (10_000u64, 0.999);
        let trials = 200;
        let mean = (0..trials).map(|_| sample_binomial(n, p, &mut rng) as f64).sum::<f64>()
            / trials as f64;
        assert!((mean - 9_990.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut rng = StdRng::seed_from_u64(54);
        for _ in 0..2000 {
            assert!(sample_binomial(100, 0.97, &mut rng) <= 100);
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(55);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn random_pair_valid_and_uniformish() {
        let mut rng = StdRng::seed_from_u64(56);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let (u, v) = random_pair(4, &mut rng);
            assert!(u < v && v < 4);
            *counts.entry((u, v)).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 6);
        for &c in counts.values() {
            assert!((c as f64 - 5_000.0).abs() < 400.0, "counts {counts:?}");
        }
    }

    #[test]
    fn distinct_pairs_are_distinct() {
        let mut rng = StdRng::seed_from_u64(57);
        let pairs = sample_distinct_pairs(50, 500, &mut rng);
        assert_eq!(pairs.len(), 500);
        let set: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn distinct_pairs_dense_request() {
        let mut rng = StdRng::seed_from_u64(58);
        // All pairs of 5 nodes.
        let pairs = sample_distinct_pairs(5, 10, &mut rng);
        assert_eq!(pairs.len(), 10);
        let set: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn too_many_pairs_panics() {
        let mut rng = StdRng::seed_from_u64(59);
        sample_distinct_pairs(3, 4, &mut rng);
    }
}

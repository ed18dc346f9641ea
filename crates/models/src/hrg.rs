//! Hierarchical random graphs (Clauset, Moore & Newman, Nature 2008) —
//! PrivHRG's model.
//!
//! A *dendrogram* is a rooted binary tree whose leaves are the graph's
//! nodes. Each internal node `r` carries a connection probability
//! `p_r = E_r / (L_r · R_r)`, where `E_r` counts graph edges whose lowest
//! common ancestor is `r` and `L_r`, `R_r` are the leaf counts of its two
//! subtrees. The likelihood of a graph given a dendrogram factorises over
//! internal nodes, and dendrogram space is explored with the standard
//! subtree-swap Markov chain.
//!
//! [`Dendrogram::mcmc_step`] takes a scaling `factor` applied to the
//! log-likelihood difference: `1.0` gives the classic likelihood sampler,
//! while PrivHRG passes `ε₁ / (2 Δ logL)` to target the exponential
//! mechanism's distribution over dendrograms.

use crate::sampling::{sample_binomial, PairSet};
use pgb_graph::{Graph, GraphBuilder, NodeId};
use rand::Rng;

/// A child pointer in the dendrogram: either a graph node (leaf) or
/// another internal node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Child {
    /// A leaf, identified by graph node id.
    Leaf(u32),
    /// An internal dendrogram node.
    Internal(u32),
}

/// Sentinel parent id for the root.
const NO_PARENT: u32 = u32::MAX;

/// A binary dendrogram over `n` graph nodes with per-internal-node edge
/// counts maintained incrementally across MCMC moves.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    n: usize,
    left: Vec<Child>,
    right: Vec<Child>,
    /// Parent internal node of each internal node (NO_PARENT for root).
    parent: Vec<u32>,
    /// Parent internal node of each leaf.
    leaf_parent: Vec<u32>,
    /// Number of leaves under each internal node.
    leaves: Vec<u32>,
    /// Edges of the source graph whose LCA is this internal node.
    e: Vec<u64>,
    root: u32,
    /// Timestamped scratch marks on internal nodes, for LCA queries and
    /// subtree membership.
    mark: Vec<u64>,
    stamp: u64,
    /// Scratch leaf list reused by [`Dendrogram::edges_between`].
    scratch: Vec<u32>,
}

impl Dendrogram {
    /// Builds a random balanced dendrogram over `n` leaves (a uniformly
    /// random leaf permutation split recursively in half) with all edge
    /// counts zero.
    ///
    /// # Panics
    /// Panics if `n < 2` — a dendrogram needs at least one internal node.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n >= 2, "dendrogram needs at least 2 leaves, got {n}");
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let internal = n - 1;
        let mut d = Dendrogram {
            n,
            left: vec![Child::Leaf(0); internal],
            right: vec![Child::Leaf(0); internal],
            parent: vec![NO_PARENT; internal],
            leaf_parent: vec![NO_PARENT; n],
            leaves: vec![0; internal],
            e: vec![0; internal],
            root: 0,
            mark: vec![0; internal],
            stamp: 0,
            scratch: Vec::new(),
        };
        let mut next = 0u32;
        let root = d.build_balanced(&perm, &mut next);
        match root {
            Child::Internal(r) => d.root = r,
            Child::Leaf(_) => unreachable!("n >= 2 always yields an internal root"),
        }
        d
    }

    fn build_balanced(&mut self, leaves: &[u32], next: &mut u32) -> Child {
        if leaves.len() == 1 {
            return Child::Leaf(leaves[0]);
        }
        let id = *next;
        *next += 1;
        let mid = leaves.len() / 2;
        let l = self.build_balanced(&leaves[..mid], next);
        let r = self.build_balanced(&leaves[mid..], next);
        self.left[id as usize] = l;
        self.right[id as usize] = r;
        for child in [l, r] {
            match child {
                Child::Leaf(u) => self.leaf_parent[u as usize] = id,
                Child::Internal(c) => self.parent[c as usize] = id,
            }
        }
        self.leaves[id as usize] = leaves.len() as u32;
        Child::Internal(id)
    }

    /// Builds a random dendrogram and initialises the edge counts from `g`.
    pub fn from_graph<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Self {
        let mut d = Dendrogram::random(g.node_count(), rng);
        d.recompute_edge_counts(g);
        d
    }

    /// Number of internal nodes (`n − 1`).
    pub fn internal_count(&self) -> usize {
        self.n - 1
    }

    /// Approximate heap footprint of the dendrogram's owned buffers in
    /// bytes (capacity, not length), for cache accounting.
    pub fn heap_bytes(&self) -> usize {
        fn vb<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        vb(&self.left)
            + vb(&self.right)
            + vb(&self.parent)
            + vb(&self.leaf_parent)
            + vb(&self.leaves)
            + vb(&self.e)
            + vb(&self.mark)
            + vb(&self.scratch)
    }

    /// Edge count `E_r` at internal node `r`.
    pub fn edges_at(&self, r: u32) -> u64 {
        self.e[r as usize]
    }

    /// The number of leaf pairs `L_r · R_r` split by internal node `r`.
    pub fn pairs_at(&self, r: u32) -> u64 {
        let (l, rr) = self.child_leaf_counts(r);
        l as u64 * rr as u64
    }

    fn child_leaves(&self, c: Child) -> u32 {
        match c {
            Child::Leaf(_) => 1,
            Child::Internal(i) => self.leaves[i as usize],
        }
    }

    fn child_leaf_counts(&self, r: u32) -> (u32, u32) {
        (self.child_leaves(self.left[r as usize]), self.child_leaves(self.right[r as usize]))
    }

    /// Lowest common ancestor (an internal node) of two distinct leaves.
    pub fn lca(&mut self, u: NodeId, v: NodeId) -> u32 {
        debug_assert_ne!(u, v, "LCA of identical leaves is undefined");
        self.stamp += 1;
        let stamp = self.stamp;
        let mut cur = self.leaf_parent[u as usize];
        while cur != NO_PARENT {
            self.mark[cur as usize] = stamp;
            cur = self.parent[cur as usize];
        }
        let mut cur = self.leaf_parent[v as usize];
        loop {
            if self.mark[cur as usize] == stamp {
                return cur;
            }
            cur = self.parent[cur as usize];
            debug_assert_ne!(cur, NO_PARENT, "leaves must share the root");
        }
    }

    /// Recomputes every `E_r` from scratch against `g`.
    pub fn recompute_edge_counts(&mut self, g: &Graph) {
        assert_eq!(g.node_count(), self.n, "graph/dendrogram size mismatch");
        self.e.iter_mut().for_each(|x| *x = 0);
        for (u, v) in g.edges() {
            let r = self.lca(u, v);
            self.e[r as usize] += 1;
        }
    }

    /// Per-internal-node log-likelihood term
    /// `E ln p + (T − E) ln(1 − p)` with `p = E/T` and `0 ln 0 = 0`.
    fn term(e: u64, t: u64) -> f64 {
        if t == 0 || e == 0 || e >= t {
            return 0.0;
        }
        let p = e as f64 / t as f64;
        e as f64 * p.ln() + (t - e) as f64 * (1.0 - p).ln()
    }

    /// Collects the graph-node ids of all leaves under `child`.
    fn collect_leaves(&self, child: Child, out: &mut Vec<u32>) {
        match child {
            Child::Leaf(u) => out.push(u),
            Child::Internal(i) => {
                let mut stack = vec![i];
                while let Some(r) = stack.pop() {
                    for c in [self.left[r as usize], self.right[r as usize]] {
                        match c {
                            Child::Leaf(u) => out.push(u),
                            Child::Internal(j) => stack.push(j),
                        }
                    }
                }
            }
        }
    }

    /// The two children `(left, right)` of internal node `r`.
    pub fn children(&self, r: u32) -> (Child, Child) {
        (self.left[r as usize], self.right[r as usize])
    }

    /// Number of graph edges between the leaf sets of two disjoint
    /// subtrees `x` and `y`.
    ///
    /// Only the smaller side's leaves are collected. Each of their
    /// neighbours is tested for membership in the larger side `t` by
    /// walking parent pointers up while the current node has fewer leaves
    /// than `t`: every proper descendant of `t` has strictly fewer leaves
    /// than `t`, so the walk reaches `t` exactly when the neighbour lies
    /// under it. Once the walks have visited as many nodes as `t` has
    /// leaves (the cost of stamping `t`'s internal nodes instead), the
    /// count restarts against such stamps, so a step on a dense graph or
    /// a deep dendrogram never costs much more than visiting both sides.
    ///
    /// [`mcmc_step`](Self::mcmc_step) hands it the smaller of `r`'s two
    /// children as `x` and `r`'s sibling as `y`, so a step costs about the
    /// neighbourhood of the smallest of the three subtrees it moves.
    pub fn edges_between(&mut self, g: &Graph, x: Child, y: Child) -> u64 {
        let (s, t) = if self.child_leaves(x) <= self.child_leaves(y) { (x, y) } else { (y, x) };
        let mut leaves = std::mem::take(&mut self.scratch);
        leaves.clear();
        self.collect_leaves(s, &mut leaves);
        let neighbours = || leaves.iter().flat_map(|&u| g.neighbors(u));
        let count = match t {
            Child::Leaf(w) => neighbours().filter(|&&v| v == w).count(),
            Child::Internal(t) => {
                let size = self.leaves[t as usize];
                let mut budget = size as usize;
                let walked = neighbours().try_fold(0, |count, &v| {
                    budget = budget.checked_sub(1)?;
                    let mut cur = self.leaf_parent[v as usize];
                    while cur != t && self.leaves[cur as usize] < size {
                        cur = self.parent[cur as usize];
                        budget = budget.checked_sub(1)?;
                    }
                    Some(count + usize::from(cur == t))
                });
                walked.unwrap_or_else(|| {
                    let stamp = self.stamp_subtree(t);
                    neighbours()
                        .filter(|&&v| self.mark[self.leaf_parent[v as usize] as usize] == stamp)
                        .count()
                })
            }
        };
        self.scratch = leaves;
        count as u64
    }

    /// Stamps every internal node of the subtree rooted at `t` in `mark`
    /// and returns the stamp: a leaf lies under `t` iff its parent bears it.
    fn stamp_subtree(&mut self, t: u32) -> u64 {
        self.stamp += 1;
        let mut stack = vec![t];
        while let Some(r) = stack.pop() {
            self.mark[r as usize] = self.stamp;
            for c in [self.left[r as usize], self.right[r as usize]] {
                if let Child::Internal(j) = c {
                    stack.push(j);
                }
            }
        }
        self.stamp
    }

    /// One step of the Clauset–Moore–Newman subtree-swap Markov chain with
    /// Metropolis acceptance `min(1, exp(factor · Δ logL))`. Returns
    /// whether the move was accepted.
    ///
    /// `factor = 1` samples dendrograms ∝ likelihood; PrivHRG passes
    /// `ε₁ / (2 Δ logL)` to target the exponential mechanism instead.
    ///
    /// The move picks a non-root `r` with children `a`, `b` and sibling
    /// `c` under its parent `q`, and needs the edge counts `e_ac` and
    /// `e_bc` between those subtrees. Every edge with LCA `q` joins `c` to
    /// `a` or `b`, so `e_ac + e_bc = E_q`: when `E_q = 0` both are zero and
    /// nothing is counted; otherwise only the smaller of `a` and `b` (`a`
    /// on a tie) is counted against `c` with
    /// [`edges_between`](Self::edges_between), and the other count is
    /// `E_q` minus it. Either way the counts, and so every RNG draw, are
    /// exact and independent of which pair was counted.
    pub fn mcmc_step<R: Rng + ?Sized>(&mut self, g: &Graph, factor: f64, rng: &mut R) -> bool {
        if self.internal_count() < 2 {
            return false; // no non-root internal node to move
        }
        // Choose a non-root internal node r.
        let r = loop {
            let cand = rng.gen_range(0..self.internal_count() as u32);
            if cand != self.root {
                break cand;
            }
        };
        let q = self.parent[r as usize];
        let a = self.left[r as usize];
        let b = self.right[r as usize];
        // c = r's sibling under q.
        let r_is_left = self.left[q as usize] == Child::Internal(r);
        let c = if r_is_left { self.right[q as usize] } else { self.left[q as usize] };

        let (la, lb) = (self.child_leaves(a) as u64, self.child_leaves(b) as u64);
        let lc = self.child_leaves(c) as u64;
        let e_ab = self.e[r as usize];
        let e_q = self.e[q as usize];
        // E_q = e_ac + e_bc, so one count gives both, and none is needed
        // when q has no edges. Count the smaller of a and b against c.
        let (e_ac, e_bc) = if e_q == 0 {
            (0, 0)
        } else {
            let a_smaller = la <= lb;
            let counted = self.edges_between(g, if a_smaller { a } else { b }, c);
            if a_smaller {
                (counted, e_q - counted)
            } else {
                (e_q - counted, counted)
            }
        };

        let old = Self::term(e_ab, la * lb) + Self::term(e_q, (la + lb) * lc);
        // The two alternative configurations.
        let swap_with_b = rng.gen_bool(0.5);
        let (new_r_children, new_er, new_eq, new_pairs_r, new_pairs_q, moved_out) = if swap_with_b {
            // r = (A, C), q = (r, B)
            ((a, c), e_ac, e_ab + e_bc, la * lc, (la + lc) * lb, b)
        } else {
            // r = (B, C), q = (r, A)
            ((b, c), e_bc, e_ab + e_ac, lb * lc, (lb + lc) * la, a)
        };
        let new = Self::term(new_er, new_pairs_r) + Self::term(new_eq, new_pairs_q);
        let delta = new - old;
        if delta < 0.0 {
            let accept_p = (factor * delta).exp();
            if !rng.gen_bool(accept_p.clamp(0.0, 1.0)) {
                return false;
            }
        }
        // Apply the restructure: r adopts (x, c); q adopts (r, moved_out).
        self.left[r as usize] = new_r_children.0;
        self.right[r as usize] = new_r_children.1;
        if r_is_left {
            self.left[q as usize] = Child::Internal(r);
            self.right[q as usize] = moved_out;
        } else {
            self.right[q as usize] = Child::Internal(r);
            self.left[q as usize] = moved_out;
        }
        for child in [new_r_children.0, new_r_children.1] {
            match child {
                Child::Leaf(u) => self.leaf_parent[u as usize] = r,
                Child::Internal(i) => self.parent[i as usize] = r,
            }
        }
        match moved_out {
            Child::Leaf(u) => self.leaf_parent[u as usize] = q,
            Child::Internal(i) => self.parent[i as usize] = q,
        }
        self.leaves[r as usize] =
            self.child_leaves(new_r_children.0) + self.child_leaves(new_r_children.1);
        self.e[r as usize] = new_er;
        self.e[q as usize] = new_eq;
        true
    }

    /// Samples a graph using caller-supplied per-internal-node connection
    /// probabilities (PrivHRG passes noisy ones). Probabilities are clamped
    /// into `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `probs.len() != internal_count()`.
    pub fn sample_graph_with<R: Rng + ?Sized>(&self, probs: &[f64], rng: &mut R) -> Graph {
        assert_eq!(probs.len(), self.internal_count(), "probability vector length mismatch");
        let mut b = GraphBuilder::new(self.n);
        let mut lx = Vec::new();
        let mut ly = Vec::new();
        for r in 0..self.internal_count() as u32 {
            let p = probs[r as usize].clamp(0.0, 1.0);
            if p <= 0.0 {
                continue;
            }
            lx.clear();
            ly.clear();
            self.collect_leaves(self.left[r as usize], &mut lx);
            self.collect_leaves(self.right[r as usize], &mut ly);
            let pairs = lx.len() as u64 * ly.len() as u64;
            let count = sample_binomial(pairs, p, rng);
            if count * 3 >= pairs {
                // Dense regime: Bernoulli per pair avoids rejection stalls.
                for &u in &lx {
                    for &v in &ly {
                        if rng.gen_range(0.0f64..1.0) < p {
                            b.push(u, v);
                        }
                    }
                }
            } else {
                let mut seen = PairSet::with_capacity(count as usize * 2);
                let mut placed = 0;
                while placed < count {
                    let i = rng.gen_range(0..lx.len());
                    let j = rng.gen_range(0..ly.len());
                    if seen.insert(i as u32, j as u32) {
                        b.push(lx[i], ly[j]);
                        placed += 1;
                    }
                }
            }
        }
        b.build().expect("leaf ids bounded by n")
    }

    /// Structural sanity check used by tests: parent/child pointers are
    /// mutually consistent, leaf counts add up, and every leaf is reachable
    /// exactly once.
    pub fn check_invariants(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![self.root];
        let mut visited_internal = 0usize;
        while let Some(r) = stack.pop() {
            visited_internal += 1;
            let mut count = 0u32;
            for c in [self.left[r as usize], self.right[r as usize]] {
                match c {
                    Child::Leaf(u) => {
                        if seen[u as usize] || self.leaf_parent[u as usize] != r {
                            return false;
                        }
                        seen[u as usize] = true;
                        count += 1;
                    }
                    Child::Internal(i) => {
                        if self.parent[i as usize] != r {
                            return false;
                        }
                        stack.push(i);
                        count += self.leaves[i as usize];
                    }
                }
            }
            if count != self.leaves[r as usize] {
                return false;
            }
        }
        visited_internal == self.internal_count() && seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The dendrogram log-likelihood `Σ_r E_r ln p_r + (T_r − E_r) ln(1 − p_r)`.
    fn log_likelihood(d: &Dendrogram) -> f64 {
        (0..d.internal_count() as u32)
            .map(|r| Dendrogram::term(d.e[r as usize], d.pairs_at(r)))
            .sum()
    }

    /// Samples a graph from `d` at the maximum-likelihood probabilities
    /// `p_r = E_r / T_r`.
    fn sample_ml_graph<R: Rng + ?Sized>(d: &Dendrogram, rng: &mut R) -> Graph {
        let probs: Vec<f64> = (0..d.internal_count() as u32)
            .map(|r| match d.pairs_at(r) {
                0 => 0.0,
                t => d.e[r as usize] as f64 / t as f64,
            })
            .collect();
        d.sample_graph_with(&probs, rng)
    }

    fn two_cliques(bridge: bool) -> Graph {
        // Two K4s, optionally bridged.
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        if bridge {
            edges.push((0, 4));
        }
        Graph::from_edges(8, edges).unwrap()
    }

    #[test]
    fn random_dendrogram_invariants() {
        let mut rng = StdRng::seed_from_u64(130);
        for n in [2usize, 3, 5, 16, 33] {
            let d = Dendrogram::random(n, &mut rng);
            assert!(d.check_invariants(), "n = {n}");
            assert_eq!(d.internal_count(), n - 1);
        }
    }

    #[test]
    fn edge_counts_sum_to_m() {
        let mut rng = StdRng::seed_from_u64(131);
        let g = two_cliques(true);
        let d = Dendrogram::from_graph(&g, &mut rng);
        let total: u64 = (0..d.internal_count() as u32).map(|r| d.edges_at(r)).sum();
        assert_eq!(total, g.edge_count() as u64);
    }

    #[test]
    fn lca_of_siblings() {
        let mut rng = StdRng::seed_from_u64(132);
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut d = Dendrogram::from_graph(&g, &mut rng);
        // The LCA must be symmetric and a valid internal node.
        for (u, v) in [(0u32, 1u32), (1, 3), (0, 3)] {
            let a = d.lca(u, v);
            let b = d.lca(v, u);
            assert_eq!(a, b);
            assert!((a as usize) < d.internal_count());
        }
    }

    #[test]
    fn mcmc_preserves_invariants_and_counts() {
        let mut rng = StdRng::seed_from_u64(133);
        let g = two_cliques(true);
        let mut d = Dendrogram::from_graph(&g, &mut rng);
        for step in 0..500 {
            d.mcmc_step(&g, 1.0, &mut rng);
            assert!(d.check_invariants(), "step {step}");
            // Incremental counts must equal a fresh recompute.
            let mut fresh = d.clone();
            fresh.recompute_edge_counts(&g);
            for r in 0..d.internal_count() as u32 {
                assert_eq!(d.edges_at(r), fresh.edges_at(r), "node {r} at step {step}");
            }
        }
    }

    #[test]
    fn mcmc_improves_likelihood_on_structured_graph() {
        let mut rng = StdRng::seed_from_u64(134);
        let g = two_cliques(false);
        let mut d = Dendrogram::from_graph(&g, &mut rng);
        let start = log_likelihood(&d);
        for _ in 0..3_000 {
            d.mcmc_step(&g, 1.0, &mut rng);
        }
        let end = log_likelihood(&d);
        assert!(end >= start, "likelihood went from {start} to {end}");
        // Two separate cliques are perfectly explained: optimal logL ≈ 0.
        assert!(end > -8.0, "end likelihood {end}");
    }

    #[test]
    fn sample_graph_respects_probabilities() {
        let mut rng = StdRng::seed_from_u64(135);
        let g = two_cliques(true);
        let mut d = Dendrogram::from_graph(&g, &mut rng);
        for _ in 0..2_000 {
            d.mcmc_step(&g, 1.0, &mut rng);
        }
        // ML sampling reproduces the edge count in expectation.
        let reps = 30;
        let mean: f64 =
            (0..reps).map(|_| sample_ml_graph(&d, &mut rng).edge_count() as f64).sum::<f64>()
                / reps as f64;
        let m = g.edge_count() as f64;
        assert!((mean - m).abs() < 0.35 * m, "mean {mean} vs m {m}");
    }

    #[test]
    fn sample_graph_with_extreme_probs() {
        let mut rng = StdRng::seed_from_u64(136);
        let g = two_cliques(false);
        let d = Dendrogram::from_graph(&g, &mut rng);
        let zeros = vec![0.0; d.internal_count()];
        assert_eq!(d.sample_graph_with(&zeros, &mut rng).edge_count(), 0);
        let ones = vec![1.0; d.internal_count()];
        // All-ones probabilities yield the complete graph.
        assert_eq!(d.sample_graph_with(&ones, &mut rng).edge_count(), 8 * 7 / 2);
        // Out-of-range values are clamped, not propagated.
        let wild = vec![7.5; d.internal_count()];
        assert_eq!(d.sample_graph_with(&wild, &mut rng).edge_count(), 8 * 7 / 2);
    }

    #[test]
    #[should_panic(expected = "at least 2 leaves")]
    fn tiny_dendrogram_panics() {
        let mut rng = StdRng::seed_from_u64(137);
        Dendrogram::random(1, &mut rng);
    }
}

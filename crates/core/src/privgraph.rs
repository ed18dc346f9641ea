//! PrivGraph (Yuan et al., USENIX Security 2023): graph publication by
//! exploiting community information.
//!
//! Three phases, with the budget split ε = ε₁ + ε₂ + ε₃:
//!
//! 1. **Community initialisation (ε₁)** — nodes are grouped randomly into
//!    super-nodes; the super-graph's edge weights are perturbed with the
//!    Laplace mechanism; weighted Louvain partitions the noisy
//!    super-graph; finally each node is re-assigned individually with the
//!    **exponential mechanism** (quality = its true edge count into each
//!    candidate community; per-node budget ε₂ — see below).
//! 2. **Information extraction (ε₃ᵃ/ε₃ᵇ)** — intra-community degree
//!    sequences and inter-community edge counts get Laplace noise.
//! 3. **Reconstruction** — Chung–Lu inside each community from the noisy
//!    degrees; noisy edge counts placed uniformly between communities.
//!
//! Budget accounting: toggling one edge changes one super-edge weight by
//! 1 (phase 1: sensitivity 1); it appears in exactly two nodes' quality
//! vectors with Δq = 1 (refinement: each node's selection runs at ε₂/2,
//! so the two affected selections compose to ε₂); it changes the
//! degree-sequence/inter-count release by at most L1 = 2 (phase 2:
//! sensitivity 2). Total: ε₁ + ε₂ + ε₃ = ε.
//!
//! The measure/sample cut falls exactly on the paper's phase boundary:
//! `measure` runs phases 1 and 2 (partition + noisy block statistics) and
//! `sample` runs phase 3 (Chung–Lu wiring + uniform inter placement),
//! which reads only the noisy statistics — PrivGraph is the suite's
//! clearest example of the measure-then-realise split.

use crate::generator::{vec_heap_bytes, GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_community::{louvain_weighted, LouvainParams, Partition, WeightedGraph};
use pgb_dp::exponential::exponential_mechanism_sparse;
use pgb_dp::laplace::sample_laplace;
use pgb_dp::BudgetAccountant;
use pgb_graph::{Graph, NodeId};
use pgb_models::chung_lu;
use rand::{Rng, RngCore};

/// The PrivGraph generator.
#[derive(Clone, Debug)]
pub struct PrivGraph {
    /// Budget weights for (community initialisation, exponential-mechanism
    /// refinement, information extraction). The reference implementation
    /// defaults to an even three-way split.
    pub budget_weights: [f64; 3],
    /// Nodes per random super-node in phase 1 (capped at `n/10` so small
    /// graphs still get a usable super-graph).
    pub supernode_size: usize,
    /// Community-adjustment rounds: each round reassigns every node with
    /// the exponential mechanism against the current labels (0 disables
    /// refinement; its budget then flows into information extraction).
    pub refine_rounds: usize,
}

impl Default for PrivGraph {
    fn default() -> Self {
        PrivGraph { budget_weights: [1.0, 1.0, 1.0], supernode_size: 20, refine_rounds: 1 }
    }
}

/// PrivGraph's private intermediate: the community partition plus the
/// noisy block statistics — per-community noisy intra-degree vectors and
/// capped noisy inter-community edge counts. Phase-3 reconstruction reads
/// only these, so re-sampling is ε-free.
#[derive(Clone, Debug)]
pub struct PrivGraphSynthesis {
    n: usize,
    /// Member lists of each community (the partition).
    communities: Vec<Vec<NodeId>>,
    /// Noisy intra-community degree of each member, parallel to
    /// `communities` (empty for communities too small to wire).
    noisy_degrees: Vec<Vec<f64>>,
    /// Surviving noisy inter-community counts `(a, c, count)`, already
    /// clamped to each pair's cell capacity.
    inter: Vec<(u32, u32, usize)>,
    epsilon: f64,
}

impl PrivateSynthesis for PrivGraphSynthesis {
    fn name(&self) -> &'static str {
        "PrivGraph"
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        let members: usize = self.communities.iter().map(vec_heap_bytes).sum();
        let degrees: usize = self.noisy_degrees.iter().map(vec_heap_bytes).sum();
        vec_heap_bytes(&self.communities)
            + members
            + vec_heap_bytes(&self.noisy_degrees)
            + degrees
            + vec_heap_bytes(&self.inter)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        if self.n < 2 {
            return Graph::new(self.n);
        }
        let communities = &self.communities;
        let noisy_degrees = &self.noisy_degrees;
        // ---- Phase 3: reconstruction ----
        // Intra: Chung–Lu per community on the stored noisy degrees.
        // Communities are independent wiring problems, so each is a work
        // item on its own derived stream; one item per chunk lets the
        // worker cursor balance the very uneven community sizes.
        let intra_pairs: Vec<(NodeId, NodeId)> =
            pgb_par::par_collect(communities.len(), 1, rng, |range, rng, out| {
                for ci in range {
                    let members = &communities[ci];
                    if members.len() < 2 {
                        continue;
                    }
                    chung_lu(&noisy_degrees[ci], rng, |a, c| {
                        out.push((members[a as usize], members[c as usize]));
                    });
                }
            });
        // Inter: each surviving noisy count is placed uniformly between
        // its community pair; entries are independent and uneven, so one
        // item per chunk again.
        let inter = &self.inter;
        let inter_pairs: Vec<(NodeId, NodeId)> =
            pgb_par::par_collect(inter.len(), 1, rng, |range, rng, out| {
                for &(a, c, count) in &inter[range] {
                    let (ma, mc) = (&communities[a as usize], &communities[c as usize]);
                    for _ in 0..count {
                        let u = ma[rng.gen_range(0..ma.len())];
                        let v = mc[rng.gen_range(0..mc.len())];
                        out.push((u, v));
                    }
                }
            });
        Graph::from_edges(self.n, intra_pairs.into_iter().chain(inter_pairs))
            .expect("ids bounded by n")
    }
}

impl GraphGenerator for PrivGraph {
    fn name(&self) -> &'static str {
        "PrivGraph"
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
            return Ok(Box::new(PrivGraphSynthesis {
                n,
                communities: Vec::new(),
                noisy_degrees: Vec::new(),
                inter: Vec::new(),
                epsilon,
            }));
        }
        let refine = self.refine_rounds > 0;
        let (eps1, eps2, eps3) = if refine {
            let shares = acc.split(&[
                ("community initialisation", self.budget_weights[0]),
                ("exponential-mechanism refinement", self.budget_weights[1]),
                ("information extraction", self.budget_weights[2]),
            ])?;
            (shares[0], Some(shares[1]), shares[2])
        } else {
            let shares = acc.split(&[
                ("community initialisation", self.budget_weights[0]),
                ("information extraction", self.budget_weights[1] + self.budget_weights[2]),
            ])?;
            (shares[0], None, shares[1])
        };

        // ---- Phase 1: noisy super-graph + weighted Louvain ----
        let t = self.supernode_size.clamp(2, (n / 10).max(2));
        let s = n.div_ceil(t);
        let mut shuffled: Vec<NodeId> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }
        let mut super_of = vec![0u32; n];
        for (idx, &u) in shuffled.iter().enumerate() {
            super_of[u as usize] = (idx / t) as u32;
        }
        // True super-edge weights (intra super-node mass goes to loops).
        let super_pairs = PairRows::new(s, || {
            graph.edges().map(|(u, v)| (super_of[u as usize], super_of[v as usize]))
        });
        // Laplace on every super-pair (including empty ones — required for
        // DP; sensitivity 1). The s²/2 draws are independent, so rows are
        // chunked over derived streams; surviving super-edges come back in
        // deterministic row order.
        const SUPER_ROW_CHUNK: usize = 64;
        let surviving: Vec<(u32, u32, f64)> =
            pgb_par::par_collect(s, SUPER_ROW_CHUNK, rng, |rows, rng, out| {
                let mut counts = vec![0.0; s];
                for a in rows {
                    super_pairs.with_row(a, &mut counts, |counts| {
                        for (b, &true_w) in counts.iter().enumerate().skip(a) {
                            let w = true_w + sample_laplace(1.0 / eps1, rng);
                            if w > 0.5 {
                                out.push((a as u32, b as u32, w.round()));
                            }
                        }
                    });
                }
            });
        let noisy_super = WeightedGraph::from_upper_edges(s, surviving);
        let super_partition = louvain_weighted(&noisy_super, &LouvainParams::default(), rng);
        let mut labels: Vec<u32> =
            (0..n as u32).map(|u| super_partition.label(super_of[u as usize])).collect();
        {
            let mut comm = Partition::from_labels(labels);
            // The adjustment rounds below can merge communities but never
            // split them, so a coarse partition must start fine-grained
            // enough to contain the real structure. When the noisy
            // super-graph Louvain collapses to a handful of (blob-mixed)
            // communities, restart from singletons and let the rounds
            // self-organise, label-propagation style.
            if comm.normalize() < (n / 8).max(2) {
                comm = Partition::singletons(n);
            }
            labels = comm.labels().to_vec();
        }

        // ---- Community adjustment: exponential-mechanism rounds ----
        // Each round reassigns every node to the community holding most of
        // its neighbours, selected with the (sparse) exponential mechanism.
        // One edge appears in exactly two nodes' score vectors per round,
        // so `rounds` rounds at per-node budget ε₂/(2·rounds) compose to
        // ε₂ overall.
        if let Some(eps2) = eps2 {
            let rounds = self.refine_rounds;
            let per_node_eps = eps2 / (2.0 * rounds as f64);
            // Each node's edge count into every community it touches, and
            // those communities; a zero score is an untouched community.
            let mut scores: Vec<f64> = vec![0.0; n];
            let mut touched: Vec<u32> = Vec::new();
            let mut sparse: Vec<(usize, f64)> = Vec::new();
            for _ in 0..rounds {
                let mut comm = Partition::from_labels(labels.clone());
                let k = comm.normalize();
                labels = comm.labels().to_vec();
                if k < 2 {
                    break;
                }
                // Asynchronous updates (each node sees its predecessors'
                // fresh labels) converge in far fewer rounds than
                // synchronous sweeps and avoid label oscillation.
                for u in 0..n as u32 {
                    for &v in graph.neighbors(u) {
                        let c = labels[v as usize];
                        if scores[c as usize] == 0.0 {
                            touched.push(c);
                        }
                        scores[c as usize] += 1.0;
                    }
                    touched.sort_unstable(); // determinism
                    sparse.clear();
                    sparse.extend(
                        touched
                            .drain(..)
                            .map(|c| (c as usize, std::mem::take(&mut scores[c as usize]))),
                    );
                    let choice = exponential_mechanism_sparse(&sparse, k, 1.0, per_node_eps, rng);
                    labels[u as usize] = choice as u32;
                }
            }
        }
        // Cap the community count (label-only post-processing, so no
        // budget cost): on weak-community graphs the adjustment can leave
        // thousands of micro-communities, which would make the
        // inter-community phase quadratic in k. The reference pipeline's
        // Louvain-scale community counts are what the k² loop is sized
        // for, so merge the tail round-robin into a bounded bucket set.
        let k_max = (n / 100).max(8);
        let mut comm = Partition::from_labels(labels);
        let k = comm.normalize();
        if k > k_max {
            let mut sizes: Vec<(usize, u32)> = vec![(0, 0); k];
            for (c, slot) in sizes.iter_mut().enumerate() {
                slot.1 = c as u32;
            }
            for u in 0..n {
                sizes[comm.label(u as u32) as usize].0 += 1;
            }
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            let keep = k_max / 2;
            let buckets = (k_max - keep).max(1);
            let mut remap = vec![0u32; k];
            for (rank, &(_, c)) in sizes.iter().enumerate() {
                remap[c as usize] =
                    if rank < keep { rank as u32 } else { (keep + (rank - keep) % buckets) as u32 };
            }
            let merged: Vec<u32> = (0..n).map(|u| remap[comm.label(u as u32) as usize]).collect();
            comm = Partition::from_labels(merged);
            comm.normalize();
        }
        let k = comm.community_count();
        let labels = comm.labels().to_vec();
        let communities = comm.communities();

        // ---- Phase 2: noisy intra degrees + inter counts (Δ1 = 2) ----
        let noise_scale = 2.0 / eps3;
        // Intra-community degree of each node.
        let mut intra_degree = vec![0.0f64; n];
        for (u, v) in graph.edges() {
            if labels[u as usize] == labels[v as usize] {
                intra_degree[u as usize] += 1.0;
                intra_degree[v as usize] += 1.0;
            }
        }
        let inter_pairs = PairRows::new(k, || {
            graph
                .edges()
                .map(|(u, v)| (labels[u as usize], labels[v as usize]))
                .filter(|(cu, cv)| cu != cv)
        });

        // Noise pass over the extracted statistics — the tail of phase 2.
        // Intra: Laplace on every member's intra degree, one community per
        // work item on its own derived stream (communities are independent
        // noise problems just as they are independent wiring problems).
        let noisy_degrees: Vec<Vec<f64>> =
            pgb_par::par_collect(communities.len(), 1, rng, |range, rng, out| {
                for ci in range {
                    let members = &communities[ci];
                    if members.len() < 2 {
                        out.push(Vec::new());
                        continue;
                    }
                    out.push(
                        members
                            .iter()
                            .map(|&u| {
                                (intra_degree[u as usize] + sample_laplace(noise_scale, rng))
                                    .max(0.0)
                            })
                            .collect(),
                    );
                }
            });
        // Inter: Laplace on every community pair (including empty ones —
        // required for DP). The k²/2 pairs are independent; chunk over
        // rows of the pair triangle. Only surviving counts are stored,
        // clamped to the pair's cell capacity.
        const INTER_ROW_CHUNK: usize = 16;
        let inter: Vec<(u32, u32, usize)> =
            pgb_par::par_collect(k, INTER_ROW_CHUNK, rng, |rows, rng, out| {
                let mut counts = vec![0.0; k];
                for a in rows {
                    inter_pairs.with_row(a, &mut counts, |counts| {
                        for (c, &true_w) in counts.iter().enumerate().skip(a + 1) {
                            let w = (true_w + sample_laplace(noise_scale, rng)).round();
                            if w <= 0.0 {
                                continue;
                            }
                            let cap = (communities[a].len() * communities[c].len()) as f64;
                            out.push((a as u32, c as u32, w.min(cap) as usize));
                        }
                    });
                }
            });
        Ok(Box::new(PrivGraphSynthesis {
            n,
            communities,
            noisy_degrees,
            inter,
            epsilon: acc.total(),
        }))
    }
}

/// Unordered pairs `{a, b}` over `0..rows`, bucketed by their smaller
/// end with one counting sort: row `a` lists the larger end of each of its
/// pairs. PrivGraph noises the pair triangle row by row, and reads each
/// row's true counts through a dense buffer instead of a hash map probe
/// per cell.
struct PairRows {
    offsets: Vec<usize>,
    ends: Vec<u32>,
}

impl PairRows {
    /// Buckets the pairs `pairs()` yields; it is called twice (count,
    /// then fill) and must yield the same pairs both times.
    fn new<I: Iterator<Item = (u32, u32)>>(rows: usize, pairs: impl Fn() -> I) -> Self {
        let mut offsets = vec![0usize; rows + 1];
        for (a, b) in pairs() {
            offsets[a.min(b) as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor = offsets[..rows].to_vec();
        let mut ends = vec![0u32; offsets[rows]];
        for (a, b) in pairs() {
            let r = a.min(b) as usize;
            ends[cursor[r]] = a.max(b);
            cursor[r] += 1;
        }
        PairRows { offsets, ends }
    }

    /// Runs `f` on row `a`'s pair counts, indexed by the larger end. The
    /// counts are written into `counts`, which must be all zero and is
    /// left all zero again. Each count is a sum of 1.0s, an exact integer,
    /// so the order the pairs arrive in cannot change it.
    fn with_row<T>(&self, a: usize, counts: &mut [f64], f: impl FnOnce(&[f64]) -> T) -> T {
        let row = &self.ends[self.offsets[a]..self.offsets[a + 1]];
        for &b in row {
            counts[b as usize] += 1.0;
        }
        let out = f(counts);
        for &b in row {
            counts[b as usize] = 0.0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn community_graph(rng: &mut StdRng) -> Graph {
        let mut edges = Vec::new();
        for base in [0u32, 40u32, 80u32] {
            for i in 0..40 {
                for j in (i + 1)..40 {
                    if rng.gen_bool(0.3) {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        for _ in 0..20 {
            let u = rng.gen_range(0..120u32);
            let v = rng.gen_range(0..120u32);
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        }
        Graph::from_edges(120, edges).unwrap()
    }

    #[test]
    fn output_valid_same_nodes() {
        let mut rng = StdRng::seed_from_u64(450);
        let g = community_graph(&mut rng);
        let out = PrivGraph::default().generate(&g, 2.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 120);
        assert!(out.check_invariants());
    }

    #[test]
    fn high_epsilon_tracks_edge_count() {
        let mut rng = StdRng::seed_from_u64(451);
        let g = community_graph(&mut rng);
        let out = PrivGraph::default().generate(&g, 100.0, &mut rng).unwrap();
        let (m0, m1) = (g.edge_count() as f64, out.edge_count() as f64);
        assert!((m1 - m0).abs() / m0 < 0.3, "m0 {m0} m1 {m1}");
    }

    #[test]
    fn preserves_community_structure_at_high_epsilon() {
        let mut rng = StdRng::seed_from_u64(452);
        let g = community_graph(&mut rng);
        let out = PrivGraph::default().generate(&g, 50.0, &mut rng).unwrap();
        // Blob-intra edges should dominate in the synthetic graph too.
        let intra = out.edges().filter(|&(u, v)| u / 40 == v / 40).count() as f64;
        let frac = intra / out.edge_count().max(1) as f64;
        assert!(frac > 0.7, "intra fraction {frac}");
    }

    #[test]
    fn refinement_off_still_works() {
        let mut rng = StdRng::seed_from_u64(453);
        let g = community_graph(&mut rng);
        let gen = PrivGraph { refine_rounds: 0, ..Default::default() };
        let out = gen.generate(&g, 2.0, &mut rng).unwrap();
        assert!(out.check_invariants());
    }

    #[test]
    fn low_epsilon_valid() {
        let mut rng = StdRng::seed_from_u64(454);
        let g = community_graph(&mut rng);
        let out = PrivGraph::default().generate(&g, 0.1, &mut rng).unwrap();
        assert!(out.check_invariants());
    }

    #[test]
    fn small_graphs_ok() {
        let mut rng = StdRng::seed_from_u64(455);
        let out = PrivGraph::default().generate(&Graph::new(1), 1.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 1);
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let out = PrivGraph::default().generate(&g, 1.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 3);
    }
}

//! DER — Density-based Exploration and Reconstruction (Chen, Fung, Yu &
//! Desai, VLDB Journal 2014).
//!
//! Included for the appendix-C comparison (Fig. 7): DER is the baseline
//! the paper contrasts against TmF and PrivGraph. It explores the
//! adjacency matrix with a quadtree — each region's 1-count is perturbed
//! with Laplace noise (regions at one level partition the matrix, so a
//! level costs one ε share by parallel composition; levels compose
//! sequentially) — and reconstructs by spreading each leaf's noisy count
//! uniformly over its cells.

use crate::generator::{vec_heap_bytes, GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_dp::laplace::sample_laplace;
use pgb_dp::BudgetAccountant;
use pgb_graph::Graph;
use pgb_models::sampling::PairSet;
use rand::{Rng, RngCore};

/// The DER generator.
#[derive(Clone, Debug)]
pub struct Der {
    /// Regions stop splitting once they hold at most this many cells.
    pub leaf_cells: u64,
    /// Maximum quadtree depth (also the number of sequential ε shares).
    pub max_depth: usize,
}

impl Default for Der {
    fn default() -> Self {
        Der { leaf_cells: 256, max_depth: 10 }
    }
}

/// A rectangular region of the upper-triangle adjacency matrix.
#[derive(Clone, Copy, Debug)]
struct Region {
    r0: u32,
    r1: u32,
    c0: u32,
    c1: u32,
}

impl Region {
    /// Number of upper-triangle cells (i < j) inside the region.
    fn cells(&self) -> u64 {
        let mut total = 0u64;
        for i in self.r0..self.r1 {
            let lo = self.c0.max(i + 1);
            if lo < self.c1 {
                total += (self.c1 - lo) as u64;
            }
        }
        total
    }
}

/// Count of true edges inside a region (upper-triangle cells only).
fn region_ones(g: &Graph, region: &Region) -> u64 {
    let mut count = 0u64;
    for i in region.r0..region.r1 {
        let nbrs = g.neighbors(i);
        let lo = region.c0.max(i + 1);
        if lo >= region.c1 {
            continue;
        }
        let start = nbrs.partition_point(|&v| v < lo);
        let end = nbrs.partition_point(|&v| v < region.c1);
        count += (end - start) as u64;
    }
    count
}

/// DER's private intermediate: the noisy quadtree, flattened to its
/// leaves as `(region, noisy count, cells)`. Reconstruction spreads each
/// leaf's count uniformly over its cells, reading nothing else from the
/// input graph, so re-sampling is ε-free.
#[derive(Clone, Debug)]
pub struct DerSynthesis {
    n: usize,
    leaves: Vec<(Region, u64, u64)>,
    epsilon: f64,
}

impl PrivateSynthesis for DerSynthesis {
    fn name(&self) -> &'static str {
        "DER"
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.leaves)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        if self.n < 2 {
            return Graph::new(self.n);
        }
        // Reconstruction: every leaf's cells are sampled on its own derived
        // stream — leaves are coarse, uneven work items, so one item per
        // chunk lets the worker cursor load-balance them.
        let leaves = &self.leaves;
        let pairs: Vec<(u32, u32)> =
            pgb_par::par_collect(leaves.len(), 1, rng, |range, rng, out| {
                for &(region, count, cells) in &leaves[range] {
                    sample_region_cells(&region, count, cells, rng, out);
                }
            });
        Graph::from_edges(self.n, pairs).expect("ids bounded by n")
    }
}

impl GraphGenerator for Der {
    fn name(&self) -> &'static str {
        "DER"
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
            return Ok(Box::new(DerSynthesis { n, leaves: Vec::new(), epsilon }));
        }
        let depth_needed =
            ((n as f64 * n as f64 / self.leaf_cells as f64).log(4.0).ceil() as usize).max(1);
        let depth = depth_needed.min(self.max_depth.max(1));
        // The depth levels compose sequentially (regions within a level are
        // disjoint, so a level is one parallel-composition share).
        let eps_explore = acc.spend_remaining("quadtree region counts");
        let eps_level = eps_explore / depth as f64;

        // Level-synchronous quadtree exploration. The serial version walked
        // a DFS stack, perturbing each region as it was pushed; here every
        // level's children are counted and perturbed in parallel chunks
        // (regions at one level are disjoint, so their Laplace draws are
        // independent), with per-chunk derived streams keeping the noisy
        // counts — and therefore the tree shape — identical at any thread
        // count. Leaves are collected in deterministic frontier order.
        const REGION_CHUNK: usize = 8;
        let root = Region { r0: 0, r1: n as u32, c0: 0, c1: n as u32 };
        let root_count =
            (region_ones(graph, &root) as f64 + sample_laplace(1.0 / eps_level, rng)).max(0.0);
        let mut frontier = vec![(root, depth.saturating_sub(1), root_count)];
        let mut leaves: Vec<(Region, u64, u64)> = Vec::new(); // (region, count, cells)
        while !frontier.is_empty() {
            let mut children: Vec<(Region, usize)> = Vec::new();
            for (region, levels_left, noisy) in frontier.drain(..) {
                let cells = region.cells();
                if cells == 0 || noisy < 0.5 {
                    continue;
                }
                let full = noisy >= cells as f64 * 0.98;
                if levels_left == 0 || cells <= self.leaf_cells || full {
                    // Leaf: spread the (clamped) count uniformly.
                    let count = (noisy.round() as u64).min(cells);
                    leaves.push((region, count, cells));
                    continue;
                }
                // Split into quadrants; each child gets a fresh noisy count
                // at the next level's budget.
                let rm = (region.r0 + region.r1) / 2;
                let cm = (region.c0 + region.c1) / 2;
                for (r0, r1, c0, c1) in [
                    (region.r0, rm, region.c0, cm),
                    (region.r0, rm, cm, region.c1),
                    (rm, region.r1, region.c0, cm),
                    (rm, region.r1, cm, region.c1),
                ] {
                    if r0 >= r1 || c0 >= c1 {
                        continue;
                    }
                    let child = Region { r0, r1, c0, c1 };
                    if child.cells() == 0 {
                        continue;
                    }
                    children.push((child, levels_left - 1));
                }
            }
            frontier =
                pgb_par::par_collect(children.len(), REGION_CHUNK, rng, |range, rng, out| {
                    for &(child, levels_left) in &children[range] {
                        let child_noisy = (region_ones(graph, &child) as f64
                            + sample_laplace(1.0 / eps_level, rng))
                        .max(0.0);
                        out.push((child, levels_left, child_noisy));
                    }
                });
        }

        Ok(Box::new(DerSynthesis { n, leaves, epsilon: acc.total() }))
    }
}

/// Samples `count` distinct upper-triangle cells of `region` uniformly and
/// pushes them as edge pairs.
fn sample_region_cells(
    region: &Region,
    count: u64,
    cells: u64,
    rng: &mut dyn RngCore,
    out: &mut Vec<(u32, u32)>,
) {
    if count == 0 {
        return;
    }
    if count * 2 >= cells {
        // Dense: enumerate and subsample.
        let mut all: Vec<(u32, u32)> = Vec::with_capacity(cells as usize);
        for i in region.r0..region.r1 {
            let lo = region.c0.max(i + 1);
            for j in lo..region.c1 {
                all.push((i, j));
            }
        }
        for idx in 0..(count as usize).min(all.len()) {
            let j = rng.gen_range(idx..all.len());
            all.swap(idx, j);
            out.push(all[idx]);
        }
        return;
    }
    // Sparse: rejection-sample distinct cells.
    let mut seen = PairSet::with_capacity(count as usize * 2);
    let mut placed = 0u64;
    let mut attempts = 0u64;
    let max_attempts = count * 30 + 200;
    while placed < count && attempts < max_attempts {
        attempts += 1;
        let i = rng.gen_range(region.r0..region.r1);
        let lo = region.c0.max(i + 1);
        if lo >= region.c1 {
            continue;
        }
        let j = rng.gen_range(lo..region.c1);
        if seen.insert(i, j) {
            out.push((i, j));
            placed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn region_cell_arithmetic() {
        // Full 4×4 upper triangle: 6 cells.
        let r = Region { r0: 0, r1: 4, c0: 0, c1: 4 };
        assert_eq!(r.cells(), 6);
        // Off-diagonal block rows 0..2 × cols 2..4: all 4 cells (i < j).
        let r = Region { r0: 0, r1: 2, c0: 2, c1: 4 };
        assert_eq!(r.cells(), 4);
        // Below-diagonal block has no upper-triangle cells.
        let r = Region { r0: 2, r1: 4, c0: 0, c1: 2 };
        assert_eq!(r.cells(), 0);
    }

    #[test]
    fn region_ones_counts_edges() {
        let g = Graph::from_edges(4, [(0, 1), (0, 3), (2, 3)]).unwrap();
        let all = Region { r0: 0, r1: 4, c0: 0, c1: 4 };
        assert_eq!(region_ones(&g, &all), 3);
        let top_right = Region { r0: 0, r1: 2, c0: 2, c1: 4 };
        assert_eq!(region_ones(&g, &top_right), 1); // (0,3)
    }

    #[test]
    fn output_valid_and_edge_count_reasonable() {
        let mut rng = StdRng::seed_from_u64(460);
        let g = pgb_models::erdos_renyi_gnp(200, 0.05, &mut rng);
        let out = Der::default().generate(&g, 5.0, &mut rng).unwrap();
        assert_eq!(out.node_count(), 200);
        assert!(out.check_invariants());
        let (m0, m1) = (g.edge_count() as f64, out.edge_count() as f64);
        assert!((m1 - m0).abs() / m0 < 0.5, "m0 {m0} m1 {m1}");
    }

    #[test]
    fn dense_region_reconstruction() {
        let mut rng = StdRng::seed_from_u64(461);
        // A near-complete small graph: DER should keep it dense.
        let mut edges = Vec::new();
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(20, edges).unwrap();
        let out = Der::default().generate(&g, 10.0, &mut rng).unwrap();
        assert!(out.edge_count() as f64 > 0.8 * g.edge_count() as f64);
    }

    #[test]
    fn low_epsilon_valid() {
        let mut rng = StdRng::seed_from_u64(462);
        let g = pgb_models::erdos_renyi_gnp(100, 0.05, &mut rng);
        let out = Der::default().generate(&g, 0.1, &mut rng).unwrap();
        assert!(out.check_invariants());
    }

    #[test]
    fn tiny_graphs_ok() {
        let mut rng = StdRng::seed_from_u64(463);
        assert_eq!(Der::default().generate(&Graph::new(0), 1.0, &mut rng).unwrap().node_count(), 0);
        assert_eq!(Der::default().generate(&Graph::new(1), 1.0, &mut rng).unwrap().node_count(), 1);
    }
}

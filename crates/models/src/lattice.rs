//! Grid (lattice) graphs — the backbone of road-network stand-ins
//! (Table VI's Minnesota dataset: planar, near-constant degree, almost no
//! triangles).

use pgb_graph::{Graph, GraphBuilder};
use rand::Rng;

/// A `rows × cols` 4-neighbour grid graph. Node `(r, c)` has id
/// `r * cols + c`.
pub fn grid_graph(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let u = (r * cols + c) as u32;
            if c + 1 < cols {
                b.push(u, u + 1);
            }
            if r + 1 < rows {
                b.push(u, u + cols as u32);
            }
        }
    }
    b.build().expect("ids bounded by n")
}

/// A grid with irregularities, mimicking real road networks: a fraction
/// `drop` of grid edges is removed and `diagonals` random diagonal
/// shortcuts (which create the occasional triangle) are added. A grid
/// with a single row or column has no diagonal to add.
pub fn irregular_grid<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    drop: f64,
    diagonals: usize,
    rng: &mut R,
) -> Graph {
    assert!((0.0..=1.0).contains(&drop), "drop must be in [0,1], got {drop}");
    let base = grid_graph(rows, cols);
    let n = base.node_count();
    let mut b = GraphBuilder::with_capacity(n, base.edge_count() + diagonals);
    for (u, v) in base.edges() {
        if rng.gen_range(0.0f64..1.0) >= drop {
            b.push(u, v);
        }
    }
    // A south-east diagonal needs a next row and a next column.
    if rows >= 2 && cols >= 2 {
        for _ in 0..diagonals {
            let r = rng.gen_range(0..rows - 1);
            let c = rng.gen_range(0..cols - 1);
            let u = (r * cols + c) as u32;
            b.push(u, u + cols as u32 + 1);
        }
    }
    b.build().expect("ids bounded by n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_counts() {
        let g = grid_graph(3, 4);
        assert_eq!(g.node_count(), 12);
        // Horizontal: 3 rows × 3, vertical: 2 × 4.
        assert_eq!(g.edge_count(), 9 + 8);
        assert!(pgb_graph::traversal::is_connected(&g));
    }

    #[test]
    fn grid_degrees_bounded_by_four() {
        let g = grid_graph(5, 5);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.degree(0), 2); // corner
    }

    #[test]
    fn grid_has_no_triangles() {
        let g = grid_graph(6, 6);
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    assert!(!g.has_edge(a, b), "triangle at {u}");
                }
            }
        }
    }

    #[test]
    fn degenerate_grids() {
        assert_eq!(grid_graph(0, 5).node_count(), 0);
        let line = grid_graph(1, 7);
        assert_eq!(line.edge_count(), 6);
    }

    #[test]
    fn irregular_grid_drops_and_adds() {
        let mut rng = StdRng::seed_from_u64(140);
        let g = irregular_grid(20, 20, 0.2, 50, &mut rng);
        let base_edges = grid_graph(20, 20).edge_count();
        assert!(g.edge_count() < base_edges + 50);
        assert!(g.edge_count() > base_edges / 2);
        assert!(g.check_invariants());
    }

    #[test]
    fn thin_irregular_grids_get_no_diagonals() {
        let mut rng = StdRng::seed_from_u64(142);
        for (rows, cols) in [(1, 7), (7, 1), (1, 1), (0, 4), (4, 0)] {
            let g = irregular_grid(rows, cols, 0.0, 5, &mut rng);
            assert_eq!(g.node_count(), rows * cols);
            assert_eq!(g.edge_count(), grid_graph(rows, cols).edge_count(), "{rows}×{cols}");
        }
    }

    #[test]
    fn diagonals_create_triangles() {
        let mut rng = StdRng::seed_from_u64(141);
        let g = irregular_grid(10, 10, 0.0, 40, &mut rng);
        let mut triangles = 0usize;
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    if g.has_edge(a, b) {
                        triangles += 1;
                    }
                }
            }
        }
        assert!(triangles > 0, "expected some triangles from diagonals");
    }
}

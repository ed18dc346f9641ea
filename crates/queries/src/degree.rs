//! Degree queries (Q4–Q6). The heavy lifting lives in
//! [`pgb_graph::degree`]; this module re-exports the pieces the query
//! enum dispatches to and adds the log-binned view used for plotting
//! power-law distributions (Fig. 5 of the paper).

pub use pgb_graph::degree::degree_distribution;

/// Log₂-binned degree histogram: bin `i` counts nodes with degree in
/// `[2^i, 2^(i+1))`; degree-0 nodes land in a leading bin of their own.
/// Log binning is what makes power-law degree plots readable (Fig. 5).
pub fn log_binned_degree_histogram(g: &pgb_graph::Graph) -> Vec<u64> {
    let hist = pgb_graph::degree::degree_histogram(g);
    if hist.is_empty() {
        return vec![0];
    }
    let max_d = hist.len() - 1;
    let bins = if max_d == 0 { 1 } else { (max_d as f64).log2() as usize + 2 };
    let mut out = vec![0u64; bins + 1];
    for (d, &c) in hist.iter().enumerate() {
        let bin = if d == 0 { 0 } else { (d as f64).log2() as usize + 1 };
        out[bin] += c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::Graph;

    #[test]
    fn log_binning_boundaries() {
        // Degrees: 0, 1, 2, 3, 4 → bins 0, 1, 2, 2, 3.
        let g =
            Graph::from_edges(8, [(1, 2), (2, 3), (3, 4), (3, 1), (4, 5), (4, 6), (4, 7), (4, 1)])
                .unwrap();
        let binned = log_binned_degree_histogram(&g);
        let total: u64 = binned.iter().sum();
        assert_eq!(total, 8);
        assert_eq!(binned[0], 1); // node 0 has degree 0
    }

    #[test]
    fn empty_graph_binning() {
        assert_eq!(log_binned_degree_histogram(&Graph::new(0)), vec![0, 0]);
    }
}

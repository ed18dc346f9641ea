//! The partition-similarity metric for the community-detection query
//! (Q12): normalized mutual information (NMI).
//!
//! Partitions are label vectors over the same node set; label values are
//! arbitrary (they are compacted internally).

use std::collections::HashMap;

/// Contingency table between two label vectors, plus marginals.
struct Contingency {
    /// `cells[(i, j)]` = number of items with row-label i and col-label j.
    cells: HashMap<(u32, u32), u64>,
    row_sums: Vec<u64>,
    col_sums: Vec<u64>,
    n: u64,
}

fn compact(labels: &[u32]) -> (Vec<u32>, usize) {
    let mut map = HashMap::new();
    let compacted = labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect();
    (compacted, map.len())
}

fn contingency(a: &[u32], b: &[u32]) -> Contingency {
    assert_eq!(a.len(), b.len(), "partitions must label the same node set");
    assert!(!a.is_empty(), "partitions must be non-empty");
    let (ra, ka) = compact(a);
    let (rb, kb) = compact(b);
    let mut cells: HashMap<(u32, u32), u64> = HashMap::new();
    let mut row_sums = vec![0u64; ka];
    let mut col_sums = vec![0u64; kb];
    for (&i, &j) in ra.iter().zip(&rb) {
        *cells.entry((i, j)).or_insert(0) += 1;
        row_sums[i as usize] += 1;
        col_sums[j as usize] += 1;
    }
    Contingency { cells, row_sums, col_sums, n: a.len() as u64 }
}

fn entropy(sums: &[u64], n: u64) -> f64 {
    sums.iter()
        .filter(|&&s| s > 0)
        .map(|&s| {
            let p = s as f64 / n as f64;
            -p * p.ln()
        })
        .sum()
}

/// The contingency cells in row-major order. Float sums over cells must
/// reduce in this fixed order — addition is not associative, and HashMap
/// iteration order varies between instances, which would make metric
/// values differ in their last bits between otherwise identical runs.
fn sorted_cells(c: &Contingency) -> Vec<((u32, u32), u64)> {
    let mut cells: Vec<((u32, u32), u64)> = c.cells.iter().map(|(&k, &v)| (k, v)).collect();
    cells.sort_unstable_by_key(|&(k, _)| k);
    cells
}

fn mutual_information(c: &Contingency) -> f64 {
    let n = c.n as f64;
    sorted_cells(c)
        .into_iter()
        .map(|((i, j), nij)| {
            let pij = nij as f64 / n;
            let pi = c.row_sums[i as usize] as f64 / n;
            let pj = c.col_sums[j as usize] as f64 / n;
            pij * (pij / (pi * pj)).ln()
        })
        .sum()
}

/// Normalized mutual information `I(A; B) / ((H(A) + H(B)) / 2)`
/// (arithmetic-mean normalisation, the scikit-learn default the PGB
/// reference code relies on). Returns 1.0 when both partitions are the
/// trivial single cluster (zero entropy on both sides).
pub fn normalized_mutual_information(a: &[u32], b: &[u32]) -> f64 {
    let c = contingency(a, b);
    let (ha, hb) = (entropy(&c.row_sums, c.n), entropy(&c.col_sums, c.n));
    let denom = (ha + hb) / 2.0;
    if denom < 1e-15 {
        return 1.0; // both partitions trivial and identical in structure
    }
    (mutual_information(&c) / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [u32; 6] = [0, 0, 0, 1, 1, 1];

    #[test]
    fn identical_partitions_score_one() {
        assert!((normalized_mutual_information(&A, &A) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeled_partitions_score_one() {
        let b = [7, 7, 7, 3, 3, 3];
        assert!((normalized_mutual_information(&A, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_partitions_score_low() {
        // Perfectly crossed partitions.
        let a = [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2];
        let b = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        assert!(normalized_mutual_information(&a, &b) < 0.05);
    }

    #[test]
    fn nmi_known_value() {
        // Hand computation (matches sklearn's arithmetic-mean default):
        // MI = ln 2, H(A) = ln 2, H(B) = 1.5 ln 2 ⇒ NMI = 1/1.25 = 0.8.
        let got = normalized_mutual_information(&[0, 0, 1, 1], &[0, 0, 1, 2]);
        assert!((got - 0.8).abs() < 1e-9, "{got}");
    }

    #[test]
    fn trivial_partitions() {
        let ones = [0, 0, 0, 0];
        assert!((normalized_mutual_information(&ones, &ones) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_symmetric() {
        let a = [0, 0, 1, 1, 2, 2];
        let b = [0, 1, 1, 2, 2, 2];
        assert!(
            (normalized_mutual_information(&a, &b) - normalized_mutual_information(&b, &a)).abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "same node set")]
    fn mismatched_lengths_panic() {
        normalized_mutual_information(&[0, 1], &[0]);
    }
}

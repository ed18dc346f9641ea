//! # pgb-datasets
//!
//! The benchmark's graph datasets (element G of the 4-tuple; Table VI of
//! the paper) plus CA-GrQc from the verification appendix.
//!
//! The original PGB pulls six graphs from SNAP / Network Repository, which
//! are not available offline. The substitution policy: each real graph is
//! replaced by a **deterministic synthetic stand-in generated to match the
//! axes the paper's analysis attributes algorithm behaviour to**: node count, edge count, average clustering
//! coefficient, and type-specific structure (community strength, degree
//! tail, planarity). The two synthetic datasets (ER, BA) are generated
//! exactly as in the paper.
//!
//! ```
//! use pgb_datasets::Dataset;
//!
//! let g = Dataset::Facebook.generate(0);
//! let t = Dataset::Facebook.target();
//! assert_eq!(g.node_count(), t.nodes);
//! ```

pub mod collab;
pub mod financial;
pub mod p2p;
pub mod roadnet;
pub mod social;
pub mod temporal;

use pgb_graph::Graph;
use pgb_models::{barabasi_albert, erdos_renyi_gnp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The graph-type taxonomy of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphType {
    /// T1 — people and relationships.
    Social,
    /// T2 — webpages and hyperlinks.
    Web,
    /// T3 — researchers and collaborations.
    Academic,
    /// T4 — intersections and roads.
    Traffic,
    /// T5 — products and links.
    Financial,
    /// T6 — apps and relationships.
    Technology,
    /// T7 — model-generated graphs.
    Synthetic,
}

/// Target statistics for a dataset (the `|V|`, `|E|`, ACC, Type columns of
/// Table VI).
#[derive(Clone, Copy, Debug)]
pub struct TargetStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges (approximate for the stand-ins; the tolerance each
    /// stand-in is tested to is in its module).
    pub edges: usize,
    /// Average clustering coefficient.
    pub acc: f64,
    /// Domain of the original graph.
    pub graph_type: GraphType,
}

/// The benchmark datasets: the 8 rows of Table VI plus CA-GrQc (appendix
/// A verification experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Minnesota road network (traffic).
    Minnesota,
    /// Facebook ego networks (social).
    Facebook,
    /// Wikipedia adminship votes (web).
    WikiVote,
    /// arXiv HEP-PH collaborations (academic).
    CaHepPh,
    /// econ-poli-large (financial).
    PoliLarge,
    /// Gnutella P2P snapshot (technology).
    Gnutella,
    /// Erdős–Rényi G(10000, p) (synthetic, binomial degrees).
    ErGraph,
    /// Barabási–Albert n=10000, m=5 (synthetic, power-law degrees).
    BaGraph,
    /// arXiv GR-QC collaborations (verification appendix, Table XI).
    CaGrQc,
}

impl Dataset {
    /// The 8 benchmark datasets of Table VI, in table order.
    pub const TABLE_VI: [Dataset; 8] = [
        Dataset::Minnesota,
        Dataset::Facebook,
        Dataset::WikiVote,
        Dataset::CaHepPh,
        Dataset::PoliLarge,
        Dataset::Gnutella,
        Dataset::ErGraph,
        Dataset::BaGraph,
    ];

    /// All datasets, including the verification graph.
    pub const ALL: [Dataset; 9] = [
        Dataset::Minnesota,
        Dataset::Facebook,
        Dataset::WikiVote,
        Dataset::CaHepPh,
        Dataset::PoliLarge,
        Dataset::Gnutella,
        Dataset::ErGraph,
        Dataset::BaGraph,
        Dataset::CaGrQc,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Minnesota => "Minnesota",
            Dataset::Facebook => "Facebook",
            Dataset::WikiVote => "Wiki-Vote",
            Dataset::CaHepPh => "ca-HepPh",
            Dataset::PoliLarge => "poli-large",
            Dataset::Gnutella => "Gnutella",
            Dataset::ErGraph => "ER graph",
            Dataset::BaGraph => "BA graph",
            Dataset::CaGrQc => "CA-GrQc",
        }
    }

    /// The Table VI target statistics (CA-GrQc's from the SNAP page /
    /// Table XI ground truth).
    pub fn target(&self) -> TargetStats {
        match self {
            Dataset::Minnesota => TargetStats {
                nodes: 2_600,
                edges: 3_300,
                acc: 0.0160,
                graph_type: GraphType::Traffic,
            },
            Dataset::Facebook => TargetStats {
                nodes: 4_039,
                edges: 88_234,
                acc: 0.6055,
                graph_type: GraphType::Social,
            },
            Dataset::WikiVote => TargetStats {
                nodes: 7_115,
                edges: 103_689,
                acc: 0.1409,
                graph_type: GraphType::Web,
            },
            Dataset::CaHepPh => TargetStats {
                nodes: 12_008,
                edges: 118_521,
                acc: 0.6115,
                graph_type: GraphType::Academic,
            },
            Dataset::PoliLarge => TargetStats {
                nodes: 15_600,
                edges: 17_500,
                acc: 0.3967,
                graph_type: GraphType::Financial,
            },
            Dataset::Gnutella => TargetStats {
                nodes: 22_687,
                edges: 54_705,
                acc: 0.0053,
                graph_type: GraphType::Technology,
            },
            Dataset::ErGraph => TargetStats {
                nodes: 10_000,
                edges: 250_278,
                acc: 0.0050,
                graph_type: GraphType::Synthetic,
            },
            Dataset::BaGraph => TargetStats {
                nodes: 10_000,
                edges: 49_975,
                acc: 0.0074,
                graph_type: GraphType::Synthetic,
            },
            Dataset::CaGrQc => TargetStats {
                nodes: 5_241,
                edges: 14_484,
                acc: 0.529,
                graph_type: GraphType::Academic,
            },
        }
    }

    /// Generates the dataset deterministically from `seed` (the same seed
    /// always yields the same graph; different datasets decorrelate their
    /// streams internally).
    pub fn generate(&self, seed: u64) -> Graph {
        // Mix the dataset identity into the seed so that e.g. ER and BA
        // with the same user seed are independent.
        let tag = *self as u64 + 1;
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tag));
        match self {
            Dataset::Minnesota => roadnet::minnesota_like(&mut rng),
            Dataset::Facebook => social::facebook_like(&mut rng),
            Dataset::WikiVote => social::wiki_vote_like(&mut rng),
            Dataset::CaHepPh => collab::hep_ph_like(&mut rng),
            Dataset::PoliLarge => financial::poli_large_like(&mut rng),
            Dataset::Gnutella => p2p::gnutella_like(&mut rng),
            Dataset::ErGraph => {
                let t = self.target();
                let pairs = t.nodes as f64 * (t.nodes as f64 - 1.0) / 2.0;
                erdos_renyi_gnp(t.nodes, t.edges as f64 / pairs, &mut rng)
            }
            Dataset::BaGraph => barabasi_albert(10_000, 5, &mut rng),
            Dataset::CaGrQc => collab::gr_qc_like(&mut rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), Dataset::ALL.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Minnesota.generate(42);
        let b = Dataset::Minnesota.generate(42);
        assert_eq!(a.edge_vec(), b.edge_vec());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::ErGraph.generate(1);
        let b = Dataset::ErGraph.generate(2);
        assert_ne!(a.edge_vec(), b.edge_vec());
    }

    #[test]
    fn node_counts_exact() {
        for d in Dataset::ALL {
            let g = d.generate(0);
            assert_eq!(g.node_count(), d.target().nodes, "{}", d.name());
            assert!(g.check_invariants(), "{}", d.name());
        }
    }

    #[test]
    fn er_and_ba_match_paper_exactly() {
        let ba = Dataset::BaGraph.generate(0);
        assert_eq!(ba.edge_count(), 49_975);
        let er = Dataset::ErGraph.generate(0);
        let m = er.edge_count() as f64;
        assert!((m - 250_278.0).abs() < 3_000.0, "ER edges {m}");
    }
}

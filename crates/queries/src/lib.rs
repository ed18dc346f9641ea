//! # pgb-queries
//!
//! The 15 graph queries of the PGB benchmark (element U of the 4-tuple;
//! Tables III/IV of the paper), grouped exactly as in the paper:
//!
//! | group | queries |
//! |-------|---------|
//! | counting  | Q1 `\|V\|`, Q2 `\|E\|`, Q3 `△` (triangles) |
//! | degree    | Q4 `d̄` (average degree), Q5 `dσ` (degree variance), Q6 `d` (degree distribution) |
//! | path      | Q7 `lmax` (diameter), Q8 `l̄` (average shortest path), Q9 `l` (distance distribution) |
//! | topology  | Q10 GCC, Q11 ACC, Q12 CD (community detection), Q13 Mod, Q14 Ass |
//! | centrality| Q15 EVC (eigenvector centrality) |
//!
//! [`QuerySuite::evaluate_all`] evaluates a query subset exactly in one
//! pass, computing each shared intermediate (degree histogram, BFS sweep,
//! triangle pass, Louvain run) at most once — see the [`suite`] module for
//! the sharing plan and the RNG-stream discipline that keeps results
//! independent of the requested subset. [`Query::evaluate`] is its
//! one-query case. The error-metric pairing of Table IV lives in
//! `pgb-core`, which compares true-vs-synthetic values.

pub mod centrality;
pub mod clustering;
pub mod counting;
pub mod degree;
pub mod path;
pub mod suite;
pub mod temporal;
pub mod topology;

pub use suite::{QuerySuite, SuiteStats};
pub use temporal::{suite_drift, suite_drift_sequence, SuiteDrift};

use pgb_graph::Graph;
use rand::Rng;

/// How the path queries (Q7–Q9) traverse the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathMode {
    /// BFS from every node — exact. Past 64 sources the sweep advances 256
    /// sources per bit-parallel traversal ([`path`]), so the cost is
    /// `O(n · m)` edge reads only on graphs whose diameter reaches 256; on
    /// small-world graphs it is about `diameter / 256` of that.
    Exact,
    /// BFS from a uniform sample of sources — the estimator the harness
    /// uses on graphs above 5,000 nodes, where exact all-pairs BFS would
    /// dominate every repetition.
    Sampled {
        /// Number of BFS sources.
        sources: usize,
    },
}

/// Evaluation parameters shared by all queries.
#[derive(Clone, Copy, Debug)]
pub struct QueryParams {
    /// Path-query traversal mode.
    pub path_mode: PathMode,
    /// Power-iteration cap for eigenvector centrality.
    pub evc_max_iters: usize,
    /// Convergence threshold (L1 change) for eigenvector centrality.
    pub evc_tolerance: f64,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams { path_mode: PathMode::Exact, evc_max_iters: 200, evc_tolerance: 1e-9 }
    }
}

/// The 15 benchmark queries (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// Q1: number of nodes.
    NodeCount,
    /// Q2: number of edges.
    EdgeCount,
    /// Q3: triangle count.
    Triangles,
    /// Q4: average degree.
    AverageDegree,
    /// Q5: degree variance.
    DegreeVariance,
    /// Q6: degree distribution.
    DegreeDistribution,
    /// Q7: diameter — the largest finite distance from any source the BFS
    /// sweep covers, over all components (a lower bound under
    /// [`PathMode::Sampled`]).
    Diameter,
    /// Q8: average of all shortest paths.
    AveragePathLength,
    /// Q9: distance distribution.
    DistanceDistribution,
    /// Q10: global clustering coefficient.
    GlobalClustering,
    /// Q11: average clustering coefficient.
    AverageClustering,
    /// Q12: community detection (Louvain labels).
    CommunityDetection,
    /// Q13: modularity of the detected communities.
    Modularity,
    /// Q14: degree assortativity coefficient.
    Assortativity,
    /// Q15: eigenvector centrality.
    EigenvectorCentrality,
}

impl Query {
    /// All 15 queries in paper order.
    pub const ALL: [Query; 15] = [
        Query::NodeCount,
        Query::EdgeCount,
        Query::Triangles,
        Query::AverageDegree,
        Query::DegreeVariance,
        Query::DegreeDistribution,
        Query::Diameter,
        Query::AveragePathLength,
        Query::DistanceDistribution,
        Query::GlobalClustering,
        Query::AverageClustering,
        Query::CommunityDetection,
        Query::Modularity,
        Query::Assortativity,
        Query::EigenvectorCentrality,
    ];

    /// The paper's query id (1-based, Table III).
    pub fn id(&self) -> usize {
        Query::ALL.iter().position(|q| q == self).expect("query listed in ALL") + 1
    }

    /// The paper's symbol for this query (Table IV).
    pub fn symbol(&self) -> &'static str {
        match self {
            Query::NodeCount => "|V|",
            Query::EdgeCount => "|E|",
            Query::Triangles => "tri",
            Query::AverageDegree => "d_avg",
            Query::DegreeVariance => "d_var",
            Query::DegreeDistribution => "d_dist",
            Query::Diameter => "l_max",
            Query::AveragePathLength => "l_avg",
            Query::DistanceDistribution => "l_dist",
            Query::GlobalClustering => "GCC",
            Query::AverageClustering => "ACC",
            Query::CommunityDetection => "CD",
            Query::Modularity => "Mod",
            Query::Assortativity => "Ass",
            Query::EigenvectorCentrality => "EVC",
        }
    }

    /// Evaluates this query on `g`: a one-query
    /// [`QuerySuite::evaluate_all`], so the value is the one the full
    /// suite computes for it at the same caller seed.
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        params: &QueryParams,
        rng: &mut R,
    ) -> QueryValue {
        let mut values = QuerySuite::evaluate_all(g, std::slice::from_ref(self), params, rng);
        values.pop().expect("one value per query")
    }
}

/// The result of a query: the benchmark compares values of matching shape
/// with the metric Table IV assigns to the query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryValue {
    /// A single number (counts, coefficients).
    Scalar(f64),
    /// A discrete distribution (degree or distance histogram, normalised).
    Distribution(Vec<f64>),
    /// Community labels per node.
    Partition(Vec<u32>),
    /// A per-node score vector (centrality).
    Vector(Vec<f64>),
}

impl QueryValue {
    /// The scalar payload, if this is a scalar value.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            QueryValue::Scalar(x) => Some(*x),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ids_and_symbols_cover_all_queries() {
        for (i, q) in Query::ALL.iter().enumerate() {
            assert_eq!(q.id(), i + 1);
            assert!(!q.symbol().is_empty());
        }
        let symbols: std::collections::HashSet<_> = Query::ALL.iter().map(|q| q.symbol()).collect();
        assert_eq!(symbols.len(), 15, "symbols must be unique");
    }

    #[test]
    fn evaluate_all_on_small_graph() {
        let g = pgb_graph::Graph::from_edges(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap();
        let params = QueryParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        for q in Query::ALL {
            let v = q.evaluate(&g, &params, &mut rng);
            match v {
                QueryValue::Scalar(x) => assert!(x.is_finite(), "{q:?} -> {x}"),
                QueryValue::Distribution(d) => {
                    assert!(!d.is_empty(), "{q:?} empty");
                    let sum: f64 = d.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-9, "{q:?} sums to {sum}");
                }
                QueryValue::Partition(p) => assert_eq!(p.len(), 6, "{q:?}"),
                QueryValue::Vector(v) => assert_eq!(v.len(), 6, "{q:?}"),
            }
        }
    }

    #[test]
    fn scalar_values_on_triangle() {
        let g = pgb_graph::Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let params = QueryParams::default();
        let mut rng = StdRng::seed_from_u64(2);
        let check = |q: Query, expected: f64, rng: &mut StdRng| {
            let got = q.evaluate(&g, &params, rng).as_scalar().unwrap();
            assert!((got - expected).abs() < 1e-9, "{q:?}: {got} vs {expected}");
        };
        check(Query::NodeCount, 3.0, &mut rng);
        check(Query::EdgeCount, 3.0, &mut rng);
        check(Query::Triangles, 1.0, &mut rng);
        check(Query::AverageDegree, 2.0, &mut rng);
        check(Query::DegreeVariance, 0.0, &mut rng);
        check(Query::Diameter, 1.0, &mut rng);
        check(Query::AveragePathLength, 1.0, &mut rng);
        check(Query::GlobalClustering, 1.0, &mut rng);
        check(Query::AverageClustering, 1.0, &mut rng);
    }
}

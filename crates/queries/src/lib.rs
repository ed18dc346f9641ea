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
//! [`Query::evaluate`] computes any single query against a graph, returning
//! a [`QueryValue`]. [`QuerySuite::evaluate_all`] evaluates a whole query
//! subset in one pass, computing each shared intermediate (degree histogram,
//! BFS sweep, triangle pass, Louvain run) at most once — see the [`suite`]
//! module for the sharing plan and the RNG-stream discipline that keeps
//! results independent of the requested subset. The error-metric pairing of
//! Table IV lives in `pgb-core`, which compares true-vs-synthetic values.

pub mod approx;
pub mod centrality;
pub mod clustering;
pub mod counting;
pub mod degree;
pub mod path;
pub mod suite;
pub mod temporal;
pub mod topology;

pub use suite::{ApproxReport, QuerySuite, SuiteStats};
pub use temporal::{suite_drift, suite_drift_sequence, SuiteDrift};

use pgb_graph::Graph;
use rand::Rng;

/// How the path queries (Q7–Q9) traverse the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathMode {
    /// BFS from every node — exact. The sweep advances 128 sources per
    /// bit-parallel traversal ([`path`]), so the cost is `O(n · m)` edge
    /// reads only on graphs whose diameter reaches 128; on small-world
    /// graphs it is about `diameter / 128` of that.
    Exact,
    /// BFS from a uniform sample of sources — the estimator the harness
    /// uses on graphs above 5,000 nodes, where exact all-pairs BFS would
    /// dominate every repetition.
    Sampled {
        /// Number of BFS sources.
        sources: usize,
    },
}

/// Sketch parameters for [`EvalMode::Approx`]. See [`approx`] for the
/// estimators each knob feeds and the error bounds they report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxConfig {
    /// HyperLogLog precision `p` for the HyperANF path sweep: `2^p`
    /// one-byte registers per node (clamped to `4..=16`). Relative error
    /// scales as `1.04 / sqrt(2^p)`; memory as `2 · n · 2^p` bytes.
    pub hll_precision: u8,
    /// Cap on HyperANF sweep iterations (i.e. on the distance levels
    /// explored). The sweep normally stops at its register fixpoint well
    /// before this.
    pub max_sweep_iters: usize,
    /// Wedge samples per sampling pass for the triangle sketch (Q3/Q10)
    /// and the local-clustering sketch (Q11).
    pub wedge_samples: usize,
    /// Node-degree samples for the sampled degree histogram (Q5/Q6).
    pub histogram_samples: usize,
    /// Confidence level the reported error bounds hold at (e.g. `0.99`).
    pub confidence: f64,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            hll_precision: 4,
            max_sweep_iters: 64,
            wedge_samples: 1 << 16,
            histogram_samples: 1 << 16,
            confidence: 0.99,
        }
    }
}

/// How [`QuerySuite::evaluate_all`] computes the super-linear shared
/// intermediates.
///
/// This is a *suite-level* axis: [`Query::evaluate`] (the single-query
/// path) always evaluates exactly, and the deterministic queries
/// (Q1/Q2/Q4, Q12–Q15) are identical under both modes. Approximate
/// evaluation draws its randomness from dedicated derived streams, so
/// switching modes never perturbs the exact path's RNG cursor (the
/// golden CSVs only exercise `Exact`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum EvalMode {
    /// Every shared intermediate computed exactly (BFS sweep, forward
    /// intersection, full degree histogram). The default.
    #[default]
    Exact,
    /// Sketch-backed intermediates with reported error bounds: a
    /// HyperANF register sweep for Q7–Q9, wedge sampling for Q3/Q10/Q11,
    /// and a sampled degree histogram for Q5/Q6. See [`approx`].
    Approx(ApproxConfig),
}

impl EvalMode {
    /// Harness-facing name (the `--eval` flag value).
    pub fn name(&self) -> &'static str {
        match self {
            EvalMode::Exact => "exact",
            EvalMode::Approx(_) => "approx",
        }
    }
}

impl std::str::FromStr for EvalMode {
    type Err = String;

    /// Parses the harness `--eval` flag: `exact`, or `approx` (with the
    /// default [`ApproxConfig`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(EvalMode::Exact),
            "approx" => Ok(EvalMode::Approx(ApproxConfig::default())),
            other => Err(format!("unknown eval mode {other:?} (expected exact|approx)")),
        }
    }
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
    /// Exact or sketch-backed evaluation of the suite's shared
    /// intermediates (honoured by [`QuerySuite`]; ignored by the
    /// single-query [`Query::evaluate`] path, which is always exact).
    pub eval: EvalMode,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            path_mode: PathMode::Exact,
            evc_max_iters: 200,
            evc_tolerance: 1e-9,
            eval: EvalMode::Exact,
        }
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
    /// Q7: diameter (largest eccentricity in the largest component).
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

    /// Evaluates this query on `g`.
    ///
    /// `rng` powers the randomised components (Louvain's node order, BFS
    /// source sampling); scalar queries ignore it.
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        params: &QueryParams,
        rng: &mut R,
    ) -> QueryValue {
        match self {
            Query::NodeCount => QueryValue::Scalar(g.node_count() as f64),
            Query::EdgeCount => QueryValue::Scalar(g.edge_count() as f64),
            Query::Triangles => QueryValue::Scalar(counting::triangle_count(g) as f64),
            Query::AverageDegree => QueryValue::Scalar(g.average_degree()),
            Query::DegreeVariance => QueryValue::Scalar(pgb_graph::degree::degree_variance(g)),
            Query::DegreeDistribution => {
                QueryValue::Distribution(pgb_graph::degree::degree_distribution(g))
            }
            Query::Diameter => {
                QueryValue::Scalar(path::path_stats(g, params.path_mode, rng).diameter as f64)
            }
            Query::AveragePathLength => {
                QueryValue::Scalar(path::path_stats(g, params.path_mode, rng).average_length)
            }
            Query::DistanceDistribution => QueryValue::Distribution(
                path::path_stats(g, params.path_mode, rng).distance_distribution,
            ),
            Query::GlobalClustering => QueryValue::Scalar(clustering::global_clustering(g)),
            Query::AverageClustering => QueryValue::Scalar(clustering::average_clustering(g)),
            Query::CommunityDetection => {
                QueryValue::Partition(topology::detect_communities(g, rng))
            }
            Query::Modularity => QueryValue::Scalar(topology::detected_modularity(g, rng)),
            Query::Assortativity => {
                QueryValue::Scalar(pgb_graph::degree::assortativity(g).unwrap_or(0.0))
            }
            Query::EigenvectorCentrality => QueryValue::Vector(centrality::eigenvector_centrality(
                g,
                params.evc_max_iters,
                params.evc_tolerance,
            )),
        }
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

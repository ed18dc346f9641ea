//! The [`GraphGenerator`] trait every PGB mechanism implements, and the
//! error type shared by them.

use pgb_dp::BudgetError;
use pgb_graph::{Graph, NodeId};
use rand::{Rng, RngCore};
use std::fmt;

/// Errors a generation run can produce.
#[derive(Debug)]
pub enum GenerateError {
    /// The privacy budget was non-positive or non-finite.
    InvalidEpsilon(f64),
    /// The input graph is too small for the mechanism's representation
    /// (e.g. PrivHRG needs at least 2 nodes for a dendrogram).
    GraphTooSmall {
        /// Nodes required by the mechanism.
        required: usize,
        /// Nodes in the input.
        actual: usize,
    },
    /// Budget accounting failed: a bug in the mechanism's split, or
    /// temporal window weights of the wrong count or not positive and
    /// finite ([`BudgetError::InvalidSplit`]).
    Budget(BudgetError),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::InvalidEpsilon(e) => write!(f, "invalid privacy budget ε = {e}"),
            GenerateError::GraphTooSmall { required, actual } => {
                write!(f, "input graph has {actual} nodes, mechanism requires {required}")
            }
            GenerateError::Budget(e) => write!(f, "budget accounting error: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {}

/// An invalid ε from the accountant is the caller's invalid budget, so
/// `BudgetAccountant::new(epsilon)?` is every mechanism's ε check; any
/// other accounting error is a mechanism bug.
impl From<BudgetError> for GenerateError {
    fn from(e: BudgetError) -> Self {
        match e {
            BudgetError::InvalidEpsilon(eps) => GenerateError::InvalidEpsilon(eps),
            other => GenerateError::Budget(other),
        }
    }
}

/// A private intermediate: the output of a mechanism's *measure* phase.
///
/// This is the paper's representation + perturbation product — a noisy dK
/// series, a perturbed dendrogram, a noisy quadtree, … — after which the
/// raw graph is no longer needed. Because it is a function of the input
/// only through an ε-DP mechanism, anything computed from it is DP by
/// post-processing invariance: [`PrivateSynthesis::sample`] takes no ε and
/// may be called arbitrarily often without further privacy cost. That is
/// the measurement-reuse pattern the runner's per-cell mode amortises on.
pub trait PrivateSynthesis: Send + Sync {
    /// Name of the mechanism that produced this intermediate.
    fn name(&self) -> &'static str;

    /// The ε actually consumed producing this intermediate. For every PGB
    /// mechanism this equals the ε requested from `measure`.
    fn epsilon_spent(&self) -> f64;

    /// Approximate heap footprint of the cached intermediate in bytes,
    /// for future cache accounting. Excludes the `size_of::<Self>()`
    /// inline part; counts owned buffers.
    fn heap_bytes(&self) -> usize;

    /// Constructs one synthetic graph from the intermediate. Pure
    /// post-processing: consumes randomness from `rng` but no privacy
    /// budget, and never fails on an intermediate `measure` returned.
    fn sample(&self, rng: &mut dyn RngCore) -> Graph;
}

/// A differentially private synthetic-graph generation algorithm.
///
/// Implementations follow the paper's common framework (Fig. 1) as two
/// explicit phases: [`GraphGenerator::measure`] performs *representation*
/// and *perturbation* under the given ε (Edge CDP) and is the only place
/// budget is spent; the returned [`PrivateSynthesis`] performs
/// *construction*, ε-free. [`GraphGenerator::generate`] is a provided
/// one-shot convenience (measure, then one sample) whose output — RNG
/// draw order included — is identical to the pre-split pipeline. The
/// trait is object-safe so the benchmark can hold a heterogeneous suite.
pub trait GraphGenerator: Send + Sync {
    /// Short display name, matching the paper's tables.
    fn name(&self) -> &'static str;

    /// The δ of the guarantee: 0 for pure ε-Edge-CDP mechanisms, 0.01 for
    /// the smooth-sensitivity mechanisms (DP-dK, PrivSKG), as in §V-C.
    fn delta(&self) -> f64 {
        0.0
    }

    /// Measures `graph` under `epsilon`-Edge CDP (or (`epsilon`,
    /// [`GraphGenerator::delta`])-Edge CDP), returning the private
    /// intermediate that [`PrivateSynthesis::sample`] constructs synthetic
    /// graphs from. All privacy budget is spent here.
    fn measure(
        &self,
        graph: &Graph,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError>;

    /// Generates one synthetic graph: `measure` followed by a single
    /// `sample` on the same RNG.
    fn generate(
        &self,
        graph: &Graph,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Graph, GenerateError> {
        Ok(self.measure(graph, epsilon, rng)?.sample(rng))
    }
}

/// Bytes owned by a `Vec`'s heap buffer (capacity, not length — that is
/// what the allocator is actually holding).
pub(crate) fn vec_heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// A uniform `n`-node subsample of `0..total` as a relabelling table: a
/// kept node maps to its rank among the kept nodes, a dropped one to
/// `NodeId::MAX`. It is the projection PrivSKG and DP-dK apply when a
/// realisation has more nodes than the input. Relabelling a realisation's
/// edges with [`NodeSubsample::relabel`] and building the `n`-node graph
/// gives the subgraph induced by the kept nodes, relabelled in id order.
pub(crate) struct NodeSubsample {
    new_id: Vec<NodeId>,
}

impl NodeSubsample {
    /// Draws the kept nodes with a partial Fisher–Yates shuffle of the
    /// first `n` slots (`n` draws, `n ≤ total`).
    pub(crate) fn uniform(total: usize, n: usize, rng: &mut dyn RngCore) -> Self {
        let mut ids: Vec<NodeId> = (0..total as NodeId).collect();
        for i in 0..n {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        let mut new_id = vec![NodeId::MAX; total];
        for &u in &ids[..n] {
            new_id[u as usize] = 0;
        }
        for (rank, slot) in new_id.iter_mut().filter(|slot| **slot != NodeId::MAX).enumerate() {
            *slot = rank as NodeId;
        }
        NodeSubsample { new_id }
    }

    /// The relabelled edge `{u, v}`, or `None` if an end was dropped.
    #[inline]
    pub(crate) fn edge(&self, (u, v): (NodeId, NodeId)) -> Option<(NodeId, NodeId)> {
        let (a, b) = (self.new_id[u as usize], self.new_id[v as usize]);
        (a != NodeId::MAX && b != NodeId::MAX).then_some((a, b))
    }

    /// Relabels `pairs` in place, dropping each pair with a dropped end.
    pub(crate) fn relabel(&self, pairs: &mut Vec<(NodeId, NodeId)>) {
        pairs.retain_mut(|pair| match self.edge(*pair) {
            Some(kept) => {
                *pair = kept;
                true
            }
            None => false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_dp::BudgetAccountant;

    #[test]
    fn node_subsample_keeps_n_nodes_ranked_in_id_order() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sub = NodeSubsample::uniform(50, 20, &mut rng);
        let kept: Vec<NodeId> = (0..50).filter(|&u| sub.edge((u, u)).is_some()).collect();
        assert_eq!(kept.len(), 20);
        for (rank, &u) in kept.iter().enumerate() {
            assert_eq!(sub.edge((u, u)), Some((rank as NodeId, rank as NodeId)));
        }
        assert_eq!(sub.edge((kept[19], kept[0])), Some((19, 0)));
        let dropped = (0..50).find(|u| !kept.contains(u)).unwrap();
        assert_eq!(sub.edge((kept[0], dropped)), None);
    }

    #[test]
    fn epsilon_validation() {
        // The accountant's ε check surfaces as the caller's invalid budget.
        assert!(BudgetAccountant::new(0.5).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = GenerateError::from(BudgetAccountant::new(bad).unwrap_err());
            assert!(
                matches!(err, GenerateError::InvalidEpsilon(e) if e.to_bits() == bad.to_bits()),
                "ε = {bad}: {err}"
            );
        }
        let exhausted = BudgetError::Exhausted { requested: 1.0, remaining: 0.0 };
        assert!(matches!(GenerateError::from(exhausted), GenerateError::Budget(_)));
    }

    #[test]
    fn error_display() {
        let e = GenerateError::GraphTooSmall { required: 2, actual: 0 };
        assert!(e.to_string().contains("requires 2"));
        let e = GenerateError::InvalidEpsilon(-1.0);
        assert!(e.to_string().contains("-1"));
    }
}

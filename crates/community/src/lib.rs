//! # pgb-community
//!
//! Community detection for the PGB benchmark:
//!
//! * [`partition`] — the [`Partition`] type (node → community labels).
//! * [`modularity`](mod@modularity) — Newman modularity for unweighted and weighted graphs.
//! * [`louvain`](mod@louvain) — the Louvain method over weighted graphs. PrivGraph runs
//!   it on a noisy super-graph (phase 1), and the benchmark's
//!   community-detection query (Q12) runs it on both the true and the
//!   synthetic graph.
//! * [`weighted`] — the small weighted-graph structure Louvain aggregates
//!   into.

pub mod louvain;
pub mod modularity;
pub mod partition;
pub mod weighted;

pub use louvain::{louvain, louvain_weighted, LouvainParams};
pub use modularity::{modularity, modularity_weighted};
pub use partition::Partition;
pub use weighted::WeightedGraph;

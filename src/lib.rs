//! # PGB — Private Graph Benchmark
//!
//! A Rust reproduction of *"PGB: Benchmarking Differentially Private
//! Synthetic Graph Generation Algorithms"* (ICDE 2025). This meta-crate
//! re-exports the whole workspace so applications can depend on a single
//! crate:
//!
//! * [`par`] — the deterministic parallelism foundation (fixed chunking,
//!   derived RNG streams, scoped thread budgets, the fixed-share worker
//!   pool).
//! * [`graph`] — undirected simple-graph substrate.
//! * [`dp`] — differential-privacy mechanisms and sensitivity machinery.
//! * [`models`] — classic random-graph constructors (ER, BA, Chung–Lu,
//!   BTER, dK-series, Kronecker, HRG, …).
//! * [`community`] — Louvain community detection and modularity.
//! * [`queries`] — the 15 graph queries of the benchmark (Table III/IV).
//! * [`metrics`] — the 11 error metrics (RE, KL, NMI, …).
//! * [`datasets`] — the 8 benchmark graphs of Table VI.
//! * [`core`] — the six DP generation algorithms plus the benchmark
//!   framework itself (the paper's contribution).
//! * [`serve`] — generation as a service: concurrent per-tenant budget
//!   accounting, the single-flight measurement cache, and deterministic
//!   request-log replay.

pub use pgb_community as community;
pub use pgb_core as core;
pub use pgb_datasets as datasets;
pub use pgb_dp as dp;
pub use pgb_graph as graph;
pub use pgb_metrics as metrics;
pub use pgb_models as models;
pub use pgb_par as par;
pub use pgb_queries as queries;
pub use pgb_serve as serve;

/// Convenience prelude pulling in the types most applications need.
pub mod prelude {
    pub use pgb_core::prelude::*;
    pub use pgb_datasets::Dataset;
    pub use pgb_graph::{Graph, GraphBuilder};
}

//! # pgb-core
//!
//! The heart of the PGB benchmark: faithful Rust re-implementations of the
//! six differentially private synthetic-graph generation algorithms the
//! paper evaluates, plus DER from the appendix, and the benchmark
//! framework (the 4-tuple (M, G, P, U), the runner, and the Definition 5 /
//! Definition 6 scoring) that compares them.
//!
//! All algorithms satisfy **ε-Edge CDP** on unattributed graphs — the
//! common privacy definition PGB fixes for fair comparison (principle M1).
//! DP-dK's dK-2 variant and PrivSKG use smooth sensitivity and therefore
//! provide (ε, δ)-Edge CDP with δ = 0.01, exactly as in the paper.
//!
//! | algorithm | representation | perturbation | construction |
//! |-----------|----------------|--------------|--------------|
//! | [`DpDk`] | degree histogram / joint degree distribution | Laplace / smooth-sensitivity Laplace | Havel–Hakimi / dK-2 wiring |
//! | [`TmF`] | adjacency matrix | Laplace + high-pass filter | top-m̃ cells |
//! | [`PrivSkg`] | Kronecker initiator | smooth-sensitivity Laplace on moments | Kronecker sampling |
//! | [`PrivHrg`] | HRG dendrogram | exponential-mechanism MCMC + Laplace | dendrogram sampling |
//! | [`PrivGraph`] | community structure | Laplace + exponential mechanism | Chung–Lu |
//! | [`Dgg`] | degree sequence | Laplace | BTER |
//! | [`Der`] | adjacency quadtree | Laplace | uniform region fill |
//!
//! ## Quick start
//!
//! ```
//! use pgb_core::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = pgb_models::erdos_renyi_gnp(200, 0.05, &mut rng);
//! let synthetic = TmF::default().generate(&g, 2.0, &mut rng).unwrap();
//! assert_eq!(synthetic.node_count(), g.node_count());
//! ```

pub mod benchmark;
pub mod der;
pub mod dgg;
pub mod dpdk;
pub mod generator;
pub mod privgraph;
pub mod privhrg;
pub mod privskg;
pub mod temporal;
pub mod tmf;

/// Seeded fault injection. It lives in `pgb-par`, whose run context arms
/// a plan; this path is kept for existing callers.
pub use pgb_par::fault;

pub use der::{Der, DerSynthesis};
pub use dgg::{Dgg, DggSynthesis};
pub use dpdk::{DkSynthesis, DkVariant, DpDk};
pub use generator::{GenerateError, GraphGenerator, PrivateSynthesis};
pub use privgraph::{PrivGraph, PrivGraphSynthesis};
pub use privhrg::{HrgSynthesis, PrivHrg};
pub use privskg::{PrivSkg, SkgSynthesis};
pub use temporal::{temporal_suite, TemporalGenerator, TemporalSynthesis};
pub use tmf::{TmF, TmfSynthesis};

/// The standard PGB algorithm suite: the six mechanisms of Table V, boxed
/// and ready for the benchmark runner.
pub fn standard_suite() -> Vec<Box<dyn GraphGenerator>> {
    vec![
        Box::new(DpDk::default()),
        Box::new(TmF::default()),
        Box::new(PrivSkg::default()),
        Box::new(PrivHrg::default()),
        Box::new(PrivGraph::default()),
        Box::new(Dgg::default()),
    ]
}

/// Convenience prelude.
pub mod prelude {
    pub use crate::benchmark::{
        BenchmarkConfig, BenchmarkResults, ErrorMetric, ExperimentOutcome, MeasureReuse,
    };
    pub use crate::{
        standard_suite, Der, Dgg, DkVariant, DpDk, GenerateError, GraphGenerator, PrivGraph,
        PrivHrg, PrivSkg, PrivateSynthesis, TmF,
    };
}

//! # pgb-models
//!
//! The random-graph constructors of the PGB benchmark — the *construction*
//! stage of the common framework (Fig. 1 of the paper) plus the generative
//! models behind the synthetic datasets:
//!
//! * [`er`] — Erdős–Rényi `G(n, p)` and `G(n, m)` (synthetic dataset T7).
//! * [`ba`] — Barabási–Albert preferential attachment (synthetic dataset).
//! * [`chung_lu`](mod@chung_lu) — the Chung–Lu expected-degree model (PrivGraph's
//!   constructor).
//! * [`bter`](mod@bter) — Block Two-level Erdős–Rényi (DGG / LDPGen's constructor).
//! * [`config_model`] — the configuration model.
//! * [`havel_hakimi`](mod@havel_hakimi) — graphicality testing and Havel–Hakimi realisation
//!   (DP-dK's dK-1 constructor).
//! * [`dk`] — dK-series constructors (dK-1, dK-2) for DP-dK.
//! * [`kronecker`] — stochastic Kronecker graphs and their closed-form
//!   moments (PrivSKG's model).
//! * [`hrg`] — hierarchical random graphs: dendrograms, likelihood, MCMC
//!   (PrivHRG's model).
//! * [`lattice`] — grid graphs (road-network stand-ins).
//! * [`cliques`] — overlapping-clique covers (collaboration-network
//!   stand-ins).
//! * [`sampling`] — shared sampling primitives (binomial, distinct pairs).
//!
//! Every generator takes an explicit [`rand::Rng`] so benchmark runs are
//! reproducible from a seed.

pub mod ba;
pub mod bter;
pub mod chung_lu;
pub mod cliques;
pub mod config_model;
pub mod dk;
pub mod er;
pub mod havel_hakimi;
pub mod hrg;
pub mod kronecker;
pub mod lattice;
pub mod sampling;

pub use ba::{barabasi_albert, barabasi_albert_streaming};
pub use bter::{bter, BterParams, CcdSpec};
pub use chung_lu::chung_lu;
pub use config_model::configuration_model;
pub use er::{erdos_renyi_gnm, erdos_renyi_gnp};
pub use havel_hakimi::{havel_hakimi, is_graphical};
pub use kronecker::{Initiator, KroneckerModel};
pub use lattice::grid_graph;

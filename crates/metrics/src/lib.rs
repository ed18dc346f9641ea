//! # pgb-metrics
//!
//! The utility-error metrics of the PGB benchmark (element U of the
//! 4-tuple): the four that §V-D pairs with the query suite, through
//! `pgb_core::benchmark::metric::metric_for`.
//!
//! | id | metric | queries | module |
//! |----|--------|---------|--------|
//! | E1 | relative error (RE) | the scalar queries | [`error`] |
//! | E3 | Kullback–Leibler divergence (KL) | degree and distance distributions | [`distribution`] |
//! | E7 | mean absolute error (MAE) | eigenvector centrality | [`error`] |
//! | E11 | normalized mutual information (NMI) | community detection | [`clustering`] |
//!
//! KL operates on non-negative weight vectors and normalises internally;
//! NMI operates on label vectors.

pub mod clustering;
pub mod distribution;
pub mod error;

pub use clustering::normalized_mutual_information;
pub use distribution::kl_divergence;
pub use error::{mean_absolute_error, relative_error};

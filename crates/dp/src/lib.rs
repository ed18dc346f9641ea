//! # pgb-dp
//!
//! Differential-privacy machinery for the PGB benchmark: the randomized
//! mechanisms of the *perturbation* stage (Fig. 1 of the paper) and the
//! sensitivity / budget bookkeeping they are calibrated with.
//!
//! * [`laplace`] — the Laplace mechanism for numeric queries (ε-DP).
//! * [`exponential`] — the exponential mechanism for categorical selection.
//! * [`randomized_response`](mod@randomized_response) — Warner's randomized response for bits.
//! * [`sensitivity`] — global / local / smooth sensitivity, and the
//!   smooth-sensitivity calibration of Laplace noise that gives (ε, δ)-DP
//!   (used by DP-dK and PrivSKG).
//! * [`budget`] — the labelled [`BudgetAccountant`]: sequential-composition
//!   ε accounting that mechanisms' measure phases register their splits
//!   against.
//! * [`window`] — sliding-window composition for temporal releases: a
//!   per-window ε split ([`WindowComposition`]) whose spends are checked
//!   against both the window share and the overall grant.
//! * [`testing`] — statistical assertion helpers (moment checks with
//!   standard-error tolerances, Pearson χ²) the mechanism tests verify
//!   their closed forms with.
//!
//! All sampling is generic over [`rand::Rng`] so benchmark runs are
//! reproducible from a seed.
//!
//! ```
//! use pgb_dp::budget::BudgetAccountant;
//! use pgb_dp::laplace::laplace_mechanism;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut acc = BudgetAccountant::new(1.0).unwrap();
//! let eps = acc.spend("count", 1.0).unwrap();
//! // A counting query has global sensitivity 1.
//! let noisy = laplace_mechanism(42.0, 1.0, eps, &mut rng);
//! assert!((noisy - 42.0).abs() < 50.0); // Lap(1) noise, loose sanity bound
//! ```

pub mod budget;
pub mod exponential;
pub mod laplace;
pub mod randomized_response;
pub mod sensitivity;
pub mod testing;
pub mod window;

pub use budget::{BudgetAccountant, BudgetError};
pub use exponential::exponential_mechanism;
pub use laplace::{laplace_mechanism, sample_laplace};
pub use randomized_response::{randomized_response, rr_flip_probability, rr_keep_probability};
pub use sensitivity::{smooth_sensitivity, SmoothParams};
pub use window::WindowComposition;

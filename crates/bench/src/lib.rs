//! # pgb-bench
//!
//! The PGB experiment harness: one binary per table / figure of the paper
//! (see `src/bin/`), the suite-scaling measurement, and shared measurement
//! utilities.
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `table6` | Table VI — dataset statistics |
//! | `table7` | Table VII — Definition 5 best-performance counts |
//! | `table8` | Table VIII — complexity summary |
//! | `table9_time` | Table IX — wall-clock generation time |
//! | `table10_memory` | Table X — peak heap per generation |
//! | `table11_dpdk_verify` | Table XI — DP-dK verification on CA-GrQc |
//! | `table12` | Table XII — Definition 6 per-query best counts |
//! | `fig2` | Fig. 2 — five error curves on four datasets |
//! | `fig3_fig4_tmf_verify` | Figs. 3/4 — TmF verification on Facebook |
//! | `fig5_fig6_privskg_verify` | Figs. 5/6 — PrivSKG verification on CA-GrQc |
//! | `fig7_der` | Fig. 7 — DER vs TmF vs PrivGraph |
//! | `temporal_grid` | temporal scenario axis — per-window errors + drift |
//! | `suite_scaling` | exact suite evaluation on a 10⁶-node BA graph, 10⁷ at `--scale paper` (`BENCH_SUITE_SCALING.json`) |
//! | `run_all` | everything above (except `temporal_grid` and `suite_scaling`), in sequence |
//!
//! Every binary accepts `--scale small|medium|paper` (default `small`),
//! `--reps N`, `--seed N` and `--threads N` (the emitted numbers are
//! byte-identical at any thread count). `small` runs the full
//! experiment *grid* at reduced repetitions and with sampled path queries
//! so the whole suite finishes in minutes on a laptop; `paper` matches the
//! paper's protocol (10 repetitions, all datasets).

pub mod alloc_counter;
pub mod cli;
pub mod setup;
pub mod timing;

pub use alloc_counter::CountingAllocator;
pub use cli::{HarnessArgs, Scale};
pub use setup::{
    benchmark_config, load_datasets, load_temporal_datasets, suite, temporal_suite_for,
};
pub use timing::time_once;

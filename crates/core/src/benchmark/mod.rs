//! The PGB benchmark framework: the 4-tuple (M, G, P, U) turned into a
//! runnable experiment grid.
//!
//! * [`metric`] — the query → error-metric pairing of Table IV / §V-D.
//! * [`runner`] — executes algorithms × datasets × ε × repetitions and
//!   averages errors (the paper averages 10 runs per cell).
//! * [`temporal`] — the windowed variant of the grid: snapshot sequences ×
//!   algorithms × ε, one row per window plus a drift row per query.
//! * [`scoring`] — the best-performance counts of Definition 5 (Table VII)
//!   and Definition 6 (Table XII).
//! * [`report`] — plain-text table / CSV rendering used by the harness
//!   binaries.

pub mod metric;
pub mod report;
pub mod runner;
pub mod scoring;
pub mod temporal;

pub use metric::{compute_error, metric_for, ErrorMetric};
pub use report::TextTable;
pub use runner::{
    run_benchmark, BenchmarkConfig, BenchmarkResults, ExperimentOutcome, MeasureReuse,
};
pub use scoring::{best_counts_per_case, best_counts_per_query};
pub use temporal::{run_temporal_benchmark, TemporalBenchmarkResults, TemporalOutcome};

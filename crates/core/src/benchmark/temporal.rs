//! The temporal benchmark grid: [`TemporalGenerator`]s × snapshot
//! sequences × ε, with a **window** dimension the static grid never had.
//!
//! Each repetition generates one synthetic snapshot sequence
//! ([`TemporalGenerator::generate`] — per-window budget shares, per-window
//! derived streams) and evaluates the query suite on every window through
//! [`pgb_queries::temporal::suite_drift`], so the shared-intermediate
//! reuse of `evaluate_all` applies per snapshot. Per query the grid then
//! emits:
//!
//! * one row per window — the usual true-vs-synthetic error on that
//!   window's snapshot pair;
//! * one `drift` row — how faithfully the synthetic sequence reproduces
//!   the *evolution* of the true sequence: with `t_w`/`s_w` the true and
//!   synthetic values on window `w` and `d(·,·)` the query's Table-IV
//!   metric, the drift error is `mean_w |d(t_w, t_{w+1}) − d(s_w,
//!   s_{w+1})|` over adjacent windows (0 for single-window grids).
//!
//! Execution is the static grid's driver (`run_grid`): the same derived
//! RNG family keyed by (dataset, algorithm, ε, rep), whole-cell tasks,
//! measurement reuse, and the complete-grid `runs = 0` guarantee. The CSV
//! is byte-identical across thread budgets.

use crate::benchmark::metric::{compute_error, metric_for, ErrorMetric};
use crate::benchmark::runner::{run_grid, BenchmarkConfig, Cell, Grid};
use crate::temporal::{TemporalGenerator, TemporalSynthesis};
use pgb_graph::temporal::SnapshotSequence;
use pgb_queries::{suite_drift, suite_drift_sequence, Query, QueryValue};
use rand::rngs::StdRng;

/// One averaged temporal-benchmark cell: an (algorithm, dataset, ε,
/// window, query) tuple. `window == None` is the query's drift row.
#[derive(Clone, Debug)]
pub struct TemporalOutcome {
    /// Algorithm display name.
    pub algorithm: String,
    /// Dataset display name.
    pub dataset: String,
    /// Privacy budget ε (the *total* grant; windows split it).
    pub epsilon: f64,
    /// Window index, or `None` for the drift row.
    pub window: Option<usize>,
    /// The evaluated query.
    pub query: Query,
    /// The metric the error is expressed in (lower is better). Drift rows
    /// report the mean absolute difference of that metric across adjacent
    /// windows.
    pub metric: ErrorMetric,
    /// Mean error over the repetitions; `NaN` when every repetition's
    /// generation failed (`runs == 0`).
    pub mean_error: f64,
    /// Number of repetitions averaged.
    pub runs: usize,
}

/// All outcomes of a temporal benchmark run, in a fixed complete-grid
/// layout: dataset-major, then algorithm, then ε, then window (`0..W`
/// followed by the drift pseudo-window), then query.
#[derive(Clone, Debug, Default)]
pub struct TemporalBenchmarkResults {
    /// One entry per (dataset, algorithm, ε, window | drift, query).
    pub outcomes: Vec<TemporalOutcome>,
    /// Algorithm names in suite order.
    pub algorithms: Vec<String>,
    /// Dataset names in input order.
    pub datasets: Vec<String>,
    /// Per-dataset window counts (datasets may differ).
    pub window_counts: Vec<usize>,
    /// The swept ε values.
    pub epsilons: Vec<f64>,
    /// The evaluated queries.
    pub queries: Vec<Query>,
}

impl TemporalBenchmarkResults {
    /// Renders all outcomes as CSV
    /// (`algorithm,dataset,epsilon,window,query,metric,mean_error,runs`);
    /// drift rows carry `drift` in the window column.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("algorithm,dataset,epsilon,window,query,metric,mean_error,runs\n");
        for o in &self.outcomes {
            let window = match o.window {
                Some(w) => w.to_string(),
                None => "drift".to_string(),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.6e},{}\n",
                o.algorithm,
                o.dataset,
                o.epsilon,
                window,
                o.query.symbol(),
                o.metric.name(),
                o.mean_error,
                o.runs
            ));
        }
        out
    }
}

/// The true per-window suite values and true drift series of one dataset.
struct TrueSequence {
    /// `per_window[w][qi]`.
    per_window: Vec<Vec<QueryValue>>,
    /// `drift[qi][pair]` = `d(t_pair, t_pair+1)` for adjacent windows.
    drift: Vec<Vec<f64>>,
}

/// Adjacent-window metric series of a value sequence:
/// `out[qi][w] = d(values[w][qi], values[w+1][qi])`.
fn drift_series(queries: &[Query], values: &[Vec<QueryValue>]) -> Vec<Vec<f64>> {
    queries
        .iter()
        .enumerate()
        .map(|(qi, &q)| {
            values.windows(2).map(|pair| compute_error(q, &pair[0][qi], &pair[1][qi])).collect()
        })
        .collect()
}

/// The temporal grid: [`TemporalGenerator`]s × snapshot sequences × ε,
/// `(W + 1) × Q` rows per cell — window-major, then the drift rows.
struct TemporalGrid<'a> {
    algorithms: &'a [TemporalGenerator],
    datasets: &'a [(String, SnapshotSequence)],
    config: &'a BenchmarkConfig,
}

impl Grid for TemporalGrid<'_> {
    type Truth = TrueSequence;
    type Measured = TemporalSynthesis;
    type Row = TemporalOutcome;

    fn truth(&self, di: usize, rng: &mut StdRng) -> TrueSequence {
        let c = self.config;
        let sweep = suite_drift_sequence(&self.datasets[di].1, &c.queries, &c.query_params, rng);
        let drift = drift_series(&c.queries, &sweep.per_window);
        TrueSequence { per_window: sweep.per_window, drift }
    }

    fn measure(&self, (di, ai, ei): Cell, rng: &mut StdRng) -> Option<TemporalSynthesis> {
        self.algorithms[ai].measure(&self.datasets[di].1, self.config.epsilons[ei], rng).ok()
    }

    /// Samples the synthetic sequence, evaluates every window through the
    /// drift sweep, and returns the window errors (`W × Q`, window-major)
    /// followed by the `Q` drift errors.
    fn run_rep(
        &self,
        truth: &TrueSequence,
        measured: &TemporalSynthesis,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let queries = &self.config.queries;
        let graphs = measured.sample(rng);
        let synth = suite_drift(&graphs, queries, &self.config.query_params, rng);
        let mut errors = Vec::with_capacity((graphs.len() + 1) * queries.len());
        for (wv, tv) in synth.per_window.iter().zip(&truth.per_window) {
            for (qi, &query) in queries.iter().enumerate() {
                errors.push(compute_error(query, &tv[qi], &wv[qi]));
            }
        }
        let synth_drift = drift_series(queries, &synth.per_window);
        for (series, pairs) in synth_drift.iter().zip(&truth.drift) {
            let e = if pairs.is_empty() {
                0.0
            } else {
                pairs.iter().zip(series).map(|(t, s)| (t - s).abs()).sum::<f64>()
                    / pairs.len() as f64
            };
            errors.push(e);
        }
        errors
    }

    fn reduce(&self, (di, ai, ei): Cell, means: &[f64], runs: usize) -> Vec<TemporalOutcome> {
        let queries = &self.config.queries;
        let (dataset, seq) = &self.datasets[di];
        let windows = seq.window_count();
        (0..(windows + 1) * queries.len())
            .map(|row| {
                let (slot, query) = (row / queries.len(), queries[row % queries.len()]);
                TemporalOutcome {
                    algorithm: self.algorithms[ai].name().to_string(),
                    dataset: dataset.clone(),
                    epsilon: self.config.epsilons[ei],
                    window: (slot < windows).then_some(slot),
                    query,
                    metric: metric_for(query),
                    mean_error: means.get(row).copied().unwrap_or(f64::NAN),
                    runs,
                }
            })
            .collect()
    }
}

/// Runs the temporal benchmark grid: every algorithm × snapshot sequence ×
/// ε, `config.repetitions` synthetic sequences per cell, one outcome row
/// per window plus a drift row per query. It runs on the static grid's
/// driver, so derived per-cell streams, repetition-order reduction,
/// per-cell measurement reuse and the complete-grid `runs = 0` guarantee
/// all carry over, and the CSV is byte-identical across thread budgets.
pub fn run_temporal_benchmark(
    algorithms: &[TemporalGenerator],
    datasets: &[(String, SnapshotSequence)],
    config: &BenchmarkConfig,
) -> TemporalBenchmarkResults {
    let grid = TemporalGrid { algorithms, datasets, config };
    TemporalBenchmarkResults {
        outcomes: run_grid(&grid, datasets.len(), algorithms.len(), config),
        algorithms: algorithms.iter().map(|a| a.name().to_string()).collect(),
        datasets: datasets.iter().map(|(n, _)| n.clone()).collect(),
        window_counts: datasets.iter().map(|(_, s)| s.window_count()).collect(),
        epsilons: config.epsilons.clone(),
        queries: config.queries.clone(),
    }
}

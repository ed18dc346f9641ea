//! Shared experiment setup: datasets, the algorithm suite, and the
//! benchmark configuration derived from the CLI arguments.

use crate::cli::HarnessArgs;
use pgb_core::benchmark::BenchmarkConfig;
use pgb_core::temporal::TemporalGenerator;
use pgb_core::GraphGenerator;
use pgb_datasets::temporal::TemporalDataset;
use pgb_datasets::Dataset;
use pgb_graph::temporal::SnapshotSequence;
use pgb_graph::Graph;
use pgb_queries::{PathMode, QueryParams};

/// Loads the 8 Table VI datasets, generated deterministically from the
/// harness seed.
pub fn load_datasets(seed: u64) -> Vec<(String, Graph)> {
    Dataset::TABLE_VI.iter().map(|d| (d.name().to_string(), d.generate(seed))).collect()
}

/// Loads the temporal event logs, windowed into `windows` snapshots each.
pub fn load_temporal_datasets(seed: u64, windows: usize) -> Vec<(String, SnapshotSequence)> {
    TemporalDataset::ALL
        .iter()
        .map(|d| {
            let seq = d
                .events(seed)
                .snapshots(windows)
                .expect("temporal stand-ins have valid node ranges");
            (d.name().to_string(), seq)
        })
        .collect()
}

/// The paper's six-algorithm suite (Table V).
pub fn suite() -> Vec<Box<dyn GraphGenerator>> {
    pgb_core::standard_suite()
}

/// The temporal mechanism suite, with the harness's `--window-eps`
/// weights applied (empty ⇒ even split).
pub fn temporal_suite_for(args: &HarnessArgs) -> Vec<TemporalGenerator> {
    pgb_core::temporal_suite()
        .into_iter()
        .map(|g| {
            if args.window_eps.is_empty() {
                g
            } else {
                g.with_window_weights(args.window_eps.clone())
            }
        })
        .collect()
}

/// Node count above which path queries switch to sampled BFS: exact
/// all-pairs BFS costs `O(n · m)` per evaluation, which the larger
/// stand-ins of `pgb_datasets` would pay on every repetition.
const EXACT_BFS_LIMIT: usize = 5_000;

/// Query parameters for a dataset of `n` nodes.
pub fn query_params_for(n: usize) -> QueryParams {
    QueryParams {
        path_mode: if n <= EXACT_BFS_LIMIT {
            PathMode::Exact
        } else {
            PathMode::Sampled { sources: 64 }
        },
        ..QueryParams::default()
    }
}

/// A benchmark configuration following the paper's protocol (ε grid
/// {0.1, 0.5, 1, 2, 5, 10}, all 15 queries), scaled by the harness
/// arguments. `max_nodes` is the largest dataset in play, deciding the
/// BFS mode.
pub fn benchmark_config(args: &HarnessArgs, max_nodes: usize) -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
        repetitions: args.repetitions(),
        query_params: query_params_for(max_nodes),
        seed: args.seed,
        threads: args.threads,
        reuse: args.reuse,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_load_all_eight() {
        let ds = load_datasets(0);
        assert_eq!(ds.len(), 8);
        assert_eq!(ds[0].0, "Minnesota");
        assert!(ds.iter().all(|(_, g)| g.node_count() > 0));
    }

    #[test]
    fn suite_has_six_algorithms() {
        let s = suite();
        assert_eq!(s.len(), 6);
        let names: Vec<&str> = s.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["DP-dK", "TmF", "PrivSKG", "PrivHRG", "PrivGraph", "DGG"]);
    }

    #[test]
    fn query_params_switch_to_sampling() {
        assert_eq!(query_params_for(100).path_mode, PathMode::Exact);
        assert!(matches!(query_params_for(20_000).path_mode, PathMode::Sampled { .. }));
    }

    #[test]
    fn config_follows_args() {
        let args = HarnessArgs { seed: 7, ..Default::default() };
        let c = benchmark_config(&args, 100);
        assert_eq!(c.epsilons, vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0]);
        assert_eq!(c.repetitions, 2);
        assert_eq!(c.seed, 7);
        assert_eq!(c.queries.len(), 15);
    }

    #[test]
    fn temporal_datasets_load_and_window() {
        let ds = load_temporal_datasets(0, 4);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].0, "BA-growth");
        assert!(ds.iter().all(|(_, seq)| seq.window_count() == 4));
        // Deterministic in the harness seed.
        let again = load_temporal_datasets(0, 4);
        assert_eq!(ds[0].1.snapshot(0).csr(), again[0].1.snapshot(0).csr());
    }

    #[test]
    fn temporal_suite_applies_window_weights() {
        let args = HarnessArgs::default();
        let names: Vec<&str> = temporal_suite_for(&args).iter().map(|g| g.name()).collect();
        assert_eq!(names, ["TmF", "DGG"]);
        // Weighted suites still build (the weight/window match is checked
        // at measure time against the actual sequence).
        let args = HarnessArgs { windows: 2, window_eps: vec![3.0, 1.0], ..Default::default() };
        assert_eq!(temporal_suite_for(&args).len(), 2);
    }

    #[test]
    fn config_propagates_measure_reuse() {
        use pgb_core::benchmark::MeasureReuse;
        let args = HarnessArgs { reuse: MeasureReuse::PerCell, ..Default::default() };
        assert_eq!(benchmark_config(&args, 100).reuse, MeasureReuse::PerCell);
        assert_eq!(benchmark_config(&HarnessArgs::default(), 100).reuse, MeasureReuse::PerRep);
    }
}

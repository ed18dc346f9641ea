//! The grid driver's contract, from the outside in:
//!
//! * a tail-heavy grid (`available_parallelism() + 2` cells, so the queue
//!   drains below the worker count at the tail) produces byte-identical
//!   CSV at thread budgets {1, 2, 8, 0},
//! * per-cell measurement reuse measures once per cell, and
//! * the worker pool under the driver runs every task once, in any order,
//!   on `min(budget, tasks)` workers whose fixed shares split the budget
//!   evenly.

use pgb_core::benchmark::{run_benchmark, BenchmarkConfig, MeasureReuse};
use pgb_core::generator::GenerateError;
use pgb_core::{GraphGenerator, PrivateSynthesis, TmF};
use pgb_graph::Graph;
use pgb_par::{available_parallelism, run_pool_collect};
use pgb_queries::Query;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

#[test]
fn csv_byte_identical_across_threads_on_tail_heavy_grid() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = pgb_models::erdos_renyi_gnp(60, 0.12, &mut rng);
    let datasets = vec![("er".to_string(), g)];
    let algorithms: Vec<Box<dyn GraphGenerator>> = vec![Box::new(TmF::default())];
    // One ε per cell: the grid is `cores + 2` cells of one (dataset,
    // algorithm) pair, so with `threads = cores` the queue drains below
    // the worker count right at the tail.
    let cells = available_parallelism() + 2;
    let epsilons: Vec<f64> = (0..cells).map(|i| 0.5 + 0.25 * i as f64).collect();
    let mut config = BenchmarkConfig {
        epsilons,
        repetitions: 3,
        queries: vec![Query::EdgeCount, Query::Triangles, Query::DegreeDistribution],
        seed: 11,
        threads: 1,
        ..Default::default()
    };
    let reference = run_benchmark(&algorithms, &datasets, &config).to_csv();
    assert_eq!(reference.lines().count(), cells * 3 + 1);
    for threads in [2, 8, 0] {
        config.threads = threads;
        let csv = run_benchmark(&algorithms, &datasets, &config).to_csv();
        assert_eq!(csv, reference, "CSV drifted at threads = {threads}");
    }
}

/// A generator that counts measure/sample calls, so the [`MeasureReuse`]
/// contract is observable from the outside.
#[derive(Default)]
struct Recording {
    measures: Arc<AtomicUsize>,
    samples: Arc<AtomicUsize>,
}

/// The identity intermediate of [`Recording`]: sampling hands back the
/// measured graph and bumps the shared sample counter.
struct RecordingSynthesis {
    graph: Graph,
    epsilon: f64,
    samples: Arc<AtomicUsize>,
}

impl PrivateSynthesis for RecordingSynthesis {
    fn name(&self) -> &'static str {
        "recorded graph"
    }

    fn epsilon_spent(&self) -> f64 {
        self.epsilon
    }

    fn heap_bytes(&self) -> usize {
        0
    }

    fn sample(&self, _rng: &mut dyn rand::RngCore) -> Graph {
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.graph.clone()
    }
}

impl GraphGenerator for Recording {
    fn name(&self) -> &'static str {
        "Rec"
    }

    fn measure(
        &self,
        graph: &Graph,
        epsilon: f64,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        self.measures.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(RecordingSynthesis {
            graph: graph.clone(),
            epsilon,
            samples: Arc::clone(&self.samples),
        }))
    }
}

#[test]
fn per_cell_reuse_measures_once_per_cell_at_every_budget() {
    // The amortisation contract, observed through call counts: under
    // `--reuse rep` every repetition pays a measurement; under
    // `--reuse cell` the measurement runs once per (dataset, algorithm, ε)
    // cell and repetitions only re-sample — at every thread budget.
    let mut rng = StdRng::seed_from_u64(33);
    let datasets = vec![("er".to_string(), pgb_models::erdos_renyi_gnp(40, 0.15, &mut rng))];
    let reps = 3;
    let cells = 2; // 1 dataset × 1 algorithm × 2 ε
    for threads in [1, 4] {
        for (reuse, expect_measures) in
            [(MeasureReuse::PerRep, cells * reps), (MeasureReuse::PerCell, cells)]
        {
            let rec = Recording::default();
            let (measures, samples) = (Arc::clone(&rec.measures), Arc::clone(&rec.samples));
            let algorithms: Vec<Box<dyn GraphGenerator>> = vec![Box::new(rec)];
            let config = BenchmarkConfig {
                epsilons: vec![0.5, 2.0],
                repetitions: reps,
                queries: vec![Query::EdgeCount],
                seed: 9,
                threads,
                reuse,
                ..Default::default()
            };
            let results = run_benchmark(&algorithms, &datasets, &config);
            assert!(results.outcomes.iter().all(|o| o.runs == reps));
            let ctx = format!("threads={threads} {reuse:?}");
            assert_eq!(measures.load(Ordering::Relaxed), expect_measures, "{ctx}");
            assert_eq!(samples.load(Ordering::Relaxed), cells * reps, "{ctx}");
        }
    }
}

proptest! {
    /// The pool's contract over budgets {0, 1..=16} × tasks 0..=40: every
    /// task runs once, outputs come back in index order, `min(budget,
    /// tasks)` workers start, and each task sees its worker's share, where
    /// the shares differ by at most 1 and sum to the budget. The first
    /// `workers` tasks wait for one another, so each worker must claim one
    /// of them: if fewer workers started, the wait times out and the
    /// worker count below comes up short.
    #[test]
    fn pool_splits_its_budget_into_fixed_shares(budget in 0usize..=16, tasks in 0usize..=40) {
        let total = if budget == 0 { available_parallelism() } else { budget };
        let workers = total.min(tasks);
        let arrived = AtomicUsize::new(0);
        let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
        let seen = run_pool_collect(budget, tasks, |task| {
            runs[task].fetch_add(1, Ordering::Relaxed);
            if task < workers {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < workers && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            (task, std::thread::current().id(), pgb_par::current_parallelism())
        });
        prop_assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "a task ran twice or never");
        prop_assert!(seen.iter().enumerate().all(|(i, &(task, _, _))| task == i), "outputs out of order");
        let mut shares: HashMap<ThreadId, usize> = HashMap::new();
        for &(task, worker, share) in &seen {
            let first = *shares.entry(worker).or_insert(share);
            prop_assert_eq!(first, share, "task {}'s worker changed its share", task);
        }
        prop_assert_eq!(shares.len(), workers, "worker count");
        if workers > 0 {
            let (lo, hi) = (shares.values().min().unwrap(), shares.values().max().unwrap());
            prop_assert!(hi - lo <= 1, "shares {:?} differ by more than 1", shares.values());
            prop_assert_eq!(shares.values().sum::<usize>(), total, "shares do not sum to the budget");
        }
    }
}

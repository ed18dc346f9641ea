//! The grid driver's contract, from the outside in:
//!
//! * a tail-heavy grid (`available_parallelism() + 2` cells, so the queue
//!   drains below the worker count at the tail, where elastic grants hand
//!   finished workers' threads to the running cells) produces
//!   byte-identical CSV at thread budgets {1, 2, 8, 0},
//! * per-cell measurement reuse measures once per cell, and
//! * [`BudgetLedger`] invariants survive arbitrary claim/release
//!   interleavings: outstanding grants never exceed the oversubscription
//!   bound `budget + workers − 1`, pooled accounting is exact
//!   (`available + Σ outstanding pooled ≡ budget`), released threads are
//!   re-grantable, and the ledger drains back to exactly `budget`.

use pgb_core::benchmark::{run_benchmark, BenchmarkConfig, MeasureReuse};
use pgb_core::generator::GenerateError;
use pgb_core::{GraphGenerator, PrivateSynthesis, TmF};
use pgb_graph::Graph;
use pgb_par::{available_parallelism, BudgetLedger, Grant};
use pgb_queries::Query;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    /// Arbitrary interleavings of claims (while under the worker cap),
    /// releases (of arbitrary outstanding grants), and mid-task
    /// *re-grants* of arbitrary outstanding grants — after *every* step
    /// the oversubscription bound and the pooled-accounting identity
    /// hold, grants only ever grow, and the ledger drains to exactly
    /// `budget` once the queue and all grants are gone.
    #[test]
    fn ledger_invariants_under_arbitrary_interleavings(
        budget in 1usize..9,
        workers in 1usize..6,
        tasks in 0usize..24,
        ops in proptest::collection::vec(0usize..1000, 0..64),
    ) {
        let ledger = BudgetLedger::new(budget, workers, tasks);
        let mut outstanding: Vec<Grant> = Vec::new();
        let mut claimed = 0usize;
        for op in ops {
            match op % 3 {
                0 if outstanding.len() < ledger.workers() => {
                    if let Some((t, g)) = ledger.claim() {
                        prop_assert_eq!(t, claimed, "tasks hand out in order");
                        claimed += 1;
                        prop_assert!(g.threads() >= 1, "a grant is never empty");
                        prop_assert!(g.pooled() <= g.threads());
                        outstanding.push(g);
                    }
                }
                2 if !outstanding.is_empty() => {
                    let victim = (op / 3) % outstanding.len();
                    let g = &mut outstanding[victim];
                    let before = g.threads();
                    ledger.regrant(g);
                    prop_assert!(g.threads() >= before, "regrant must be grow-only");
                    prop_assert!(g.pooled() <= g.threads());
                }
                _ if !outstanding.is_empty() => {
                    let victim = (op / 3) % outstanding.len();
                    ledger.release(outstanding.swap_remove(victim));
                }
                _ => {}
            }
            let granted: usize = outstanding.iter().map(Grant::threads).sum();
            // The bound is `budget + workers − 1`, written `<` to keep
            // the arithmetic in usize-safe form.
            prop_assert!(
                granted < ledger.budget() + ledger.workers(),
                "oversubscription bound violated: {} granted, budget {}, workers {}",
                granted, ledger.budget(), ledger.workers(),
            );
            let pooled: usize = outstanding.iter().map(Grant::pooled).sum();
            prop_assert_eq!(
                pooled + ledger.available(), ledger.budget(),
                "pooled threads leaked or double-counted"
            );
        }
        for g in outstanding.drain(..) {
            ledger.release(g);
        }
        while let Some((_, g)) = ledger.claim() {
            claimed += 1;
            ledger.release(g);
        }
        prop_assert_eq!(claimed, tasks, "every task is claimable exactly once");
        prop_assert_eq!(ledger.available(), ledger.budget(), "ledger must drain to the full budget");
    }

    /// Every released thread is re-grantable: after a head-of-queue burst
    /// returns its grants, the pool is whole again, and the final task's
    /// claimant (remaining = 1, nothing outstanding) is granted the entire
    /// budget.
    #[test]
    fn released_threads_flow_to_the_tail(
        budget in 1usize..16,
        workers in 1usize..8,
        tasks in 2usize..32,
    ) {
        let ledger = BudgetLedger::new(budget, workers, tasks);
        // A head-of-queue burst of up to `workers` concurrent grants,
        // stopping short of the final task so the tail claim below exists.
        let head: Vec<Grant> = (0..workers.min(tasks - 1))
            .filter_map(|_| ledger.claim().map(|(_, g)| g))
            .collect();
        for g in head {
            ledger.release(g);
        }
        prop_assert_eq!(ledger.available(), ledger.budget());
        let mut last_grant = 0usize;
        while let Some((t, g)) = ledger.claim() {
            let threads = g.threads();
            ledger.release(g);
            if t == tasks - 1 {
                last_grant = threads;
            }
        }
        prop_assert_eq!(
            last_grant, ledger.budget(),
            "the tail claim must inherit every released thread"
        );
    }
}

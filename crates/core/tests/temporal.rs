//! The temporal pipeline's contracts, from the outside in:
//!
//! * per-snapshot CSR bytes out of [`TemporalGenerator::generate`] are
//!   identical under any intra-cell thread budget (proptest over seeds and
//!   window counts, budgets {1, 2, 8, 0});
//! * the temporal-grid CSV is byte-identical across thread budgets
//!   {1, 2, 8, 0} in both measurement-reuse modes;
//! * degenerate windows flow through: a burst event log (empty trailing
//!   windows) still generates and evaluates, and a single-window temporal
//!   run reproduces the static mechanism bit-for-bit at the full ε;
//! * the complete-grid `runs = 0` guarantee holds for failing mechanisms;
//! * each window is charged, bit for bit, the share of a clamped drain of
//!   the grant (proptest over weights and ε against a reference drain).

use pgb_core::benchmark::{run_temporal_benchmark, BenchmarkConfig, MeasureReuse};
use pgb_core::generator::GenerateError;
use pgb_core::temporal::TemporalGenerator;
use pgb_core::{GraphGenerator, PrivateSynthesis, TmF};
use pgb_graph::temporal::SnapshotSequence;
use pgb_graph::Graph;
use pgb_par::{derive_stream, with_parallelism};
use pgb_queries::Query;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic event log: a sliding ring of interactions whose
/// timestamps spread arrivals over the horizon, so every window count
/// produces non-trivially different snapshots.
fn ring_events(n: u32, seed: u64) -> Vec<(u32, u32, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..3 * n)
        .map(|i| {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if v == u {
                v = (v + 1) % n;
            }
            (u, v, i as u64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-snapshot CSR bytes must not depend on the thread budget — the
    /// temporal analogue of the static thread-invariance contract, across
    /// budgets {1, 2, 8, 0} (0 ⇒ available parallelism).
    #[test]
    fn temporal_generate_thread_invariant(
        seed in 0u64..50,
        windows in 1usize..5,
    ) {
        let seq = SnapshotSequence::build(40, &ring_events(40, seed), windows).unwrap();
        let tgen = TemporalGenerator::new(Box::new(TmF::default()));
        let run = |threads: usize| {
            with_parallelism(threads, || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
                tgen.generate(&seq, 1.0, &mut rng).expect("valid inputs")
            })
        };
        let reference = run(1);
        prop_assert_eq!(reference.len(), windows);
        for budget in [2, 8, 0] {
            let other = run(budget);
            for (w, (a, b)) in reference.iter().zip(&other).enumerate() {
                prop_assert_eq!(
                    a.csr(), b.csr(),
                    "window {} differs between budgets 1 and {}", w, budget
                );
            }
        }
    }
}

proptest! {
    /// `measure` charges window `w` the share `ε · w / Σw`, clamped to what
    /// is left of the grant, in window order; every share is positive and
    /// the shares drain the grant.
    #[test]
    fn window_shares_match_a_clamped_drain(
        epsilon in 0.01f64..10.0,
        weights in proptest::collection::vec(0.1f64..10.0, 1..8),
    ) {
        let windows = weights.len();
        let seq = SnapshotSequence::build(40, &ring_events(40, 1), windows).unwrap();
        let tgen =
            TemporalGenerator::new(Box::new(TmF::default())).with_window_weights(weights.clone());
        let syn = tgen.measure(&seq, epsilon, &mut StdRng::seed_from_u64(2)).unwrap();

        let sum: f64 = weights.iter().sum();
        let mut spent = 0.0f64;
        for (w, weight) in weights.iter().enumerate() {
            let expected = (epsilon * weight / sum).min((epsilon - spent).max(0.0));
            spent += expected;
            let charged = syn.window(w).epsilon_spent();
            prop_assert_eq!(charged.to_bits(), expected.to_bits(), "window {}", w);
            prop_assert!(charged > 0.0);
        }
        prop_assert!((spent - epsilon).abs() < 1e-9, "drained {} of {}", spent, epsilon);
        prop_assert!(spent <= epsilon * (1.0 + 1e-9));
    }
}

fn temporal_setup() -> (Vec<TemporalGenerator>, Vec<(String, SnapshotSequence)>, BenchmarkConfig) {
    let datasets = vec![
        ("ring-a".to_string(), SnapshotSequence::build(40, &ring_events(40, 3), 3).unwrap()),
        ("ring-b".to_string(), SnapshotSequence::build(30, &ring_events(30, 4), 2).unwrap()),
    ];
    let config = BenchmarkConfig {
        epsilons: vec![0.5, 5.0],
        repetitions: 2,
        queries: vec![Query::EdgeCount, Query::Triangles, Query::DegreeDistribution],
        seed: 17,
        threads: 1,
        ..Default::default()
    };
    (pgb_core::temporal_suite(), datasets, config)
}

#[test]
fn temporal_csv_byte_identical_across_threads() {
    // The acceptance criterion: the temporal-grid CSV (window rows and
    // drift rows alike) is byte-identical across thread budgets
    // {1, 2, 8, 0}, in both measurement-reuse modes.
    let (algorithms, datasets, mut config) = temporal_setup();
    for reuse in [MeasureReuse::PerRep, MeasureReuse::PerCell] {
        config.reuse = reuse;
        config.threads = 1;
        let reference = run_temporal_benchmark(&algorithms, &datasets, &config).to_csv();
        // 2 algos × (ring-a: (3+1)·3 + ring-b: (2+1)·3) rows × 2 ε + header.
        assert_eq!(reference.lines().count(), 2 * 2 * (12 + 9) + 1, "{reuse:?}");
        for threads in [2, 8, 0] {
            config.threads = threads;
            let csv = run_temporal_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(csv, reference, "temporal CSV drifted at threads = {threads}, {reuse:?}");
        }
    }
}

#[test]
fn temporal_grid_layout_is_complete_with_drift_rows() {
    let (algorithms, datasets, config) = temporal_setup();
    let results = run_temporal_benchmark(&algorithms, &datasets, &config);
    assert_eq!(results.window_counts, vec![3, 2]);
    // Fixed layout: dataset-major, algorithm, ε, window 0..W then drift,
    // then query — every row present with runs == repetitions.
    let mut expected = Vec::new();
    for (di, name) in results.datasets.iter().enumerate() {
        for algo in &results.algorithms {
            for &eps in &results.epsilons {
                let w = results.window_counts[di];
                for slot in 0..=w {
                    for &q in &results.queries {
                        expected.push((
                            algo.clone(),
                            name.clone(),
                            eps,
                            (slot < w).then_some(slot),
                            q,
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(results.outcomes.len(), expected.len());
    for (o, (algo, ds, eps, window, q)) in results.outcomes.iter().zip(&expected) {
        assert_eq!((&o.algorithm, &o.dataset, &o.query), (algo, ds, q));
        assert!((o.epsilon - eps).abs() < 1e-12);
        assert_eq!(o.window, *window, "{o:?}");
        assert_eq!(o.runs, 2, "{o:?}");
        assert!(o.mean_error.is_finite(), "{o:?}");
    }
    let csv = results.to_csv();
    assert!(csv.starts_with("algorithm,dataset,epsilon,window,query,metric,mean_error,runs\n"));
    assert!(csv.contains(",drift,"), "drift rows must be labelled: {csv}");
}

#[test]
fn burst_log_with_empty_windows_flows_through() {
    // All events in one instant: windows 1..3 are empty snapshots. The
    // per-window mechanism must still measure (at its share), sample, and
    // evaluate every window, and drift rows must stay finite.
    let events: Vec<(u32, u32, u64)> = (0..30u32).map(|i| (i, (i + 1) % 30, 7)).collect();
    let seq = SnapshotSequence::build(30, &events, 3).unwrap();
    assert_eq!(seq.snapshot(1).edge_count(), 0);
    assert_eq!(seq.snapshot(2).edge_count(), 0);
    let tgen = TemporalGenerator::new(Box::new(TmF::default()));
    let mut rng = StdRng::seed_from_u64(23);
    let syn = tgen.measure(&seq, 1.5, &mut rng).unwrap();
    assert!((syn.epsilon_spent() - 1.5).abs() < 1e-9, "empty windows still pay their share");
    let graphs = syn.sample(&mut rng);
    assert_eq!(graphs.len(), 3);

    let datasets = vec![("burst".to_string(), seq)];
    let config = BenchmarkConfig {
        epsilons: vec![1.0],
        repetitions: 2,
        queries: vec![Query::EdgeCount, Query::AverageDegree],
        seed: 29,
        threads: 2,
        ..Default::default()
    };
    let results = run_temporal_benchmark(&[tgen], &datasets, &config);
    assert_eq!(results.outcomes.len(), (3 + 1) * 2);
    for o in &results.outcomes {
        assert_eq!(o.runs, 2, "{o:?}");
        assert!(o.mean_error.is_finite(), "{o:?}");
    }
}

#[test]
fn single_window_reproduces_the_static_mechanism_exactly() {
    // W = 1: the composition hands the full grant to the one window
    // (ε · 1/1 is exact in IEEE arithmetic), and the per-window streams
    // are pure functions of the caller draws — so the temporal pipeline
    // must equal the static mechanism run by hand on matched streams.
    let events = ring_events(40, 9);
    let seq = SnapshotSequence::build(40, &events, 1).unwrap();
    let tgen = TemporalGenerator::new(Box::new(TmF::default()));
    for eps in [0.3, 1.0, 7.0] {
        let mut rng = StdRng::seed_from_u64(31);
        let measured = tgen.measure(&seq, eps, &mut rng).unwrap();
        assert_eq!(measured.epsilon_spent().to_bits(), eps.to_bits(), "exact grant at W = 1");
        let temporal = measured.sample(&mut rng);

        let mut mirror = StdRng::seed_from_u64(31);
        let static_syn = TmF::default()
            .measure(seq.snapshot(0), eps, &mut derive_stream(mirror.next_u64(), 0))
            .unwrap();
        let static_graph = static_syn.sample(&mut derive_stream(mirror.next_u64(), 0));
        assert_eq!(temporal[0].csr(), static_graph.csr(), "ε = {eps}");
    }

    // And its drift rows are exactly zero: no adjacent windows exist.
    let datasets = vec![("single".to_string(), seq)];
    let config = BenchmarkConfig {
        epsilons: vec![1.0],
        repetitions: 1,
        queries: vec![Query::EdgeCount],
        seed: 37,
        threads: 1,
        ..Default::default()
    };
    let results = run_temporal_benchmark(&[tgen], &datasets, &config);
    let drift = results.outcomes.iter().find(|o| o.window.is_none()).unwrap();
    assert_eq!(drift.mean_error, 0.0);
}

/// A mechanism whose every measure fails — the temporal mirror of the
/// static complete-grid guarantee.
struct AlwaysFails;

impl GraphGenerator for AlwaysFails {
    fn name(&self) -> &'static str {
        "Fails"
    }

    fn measure(
        &self,
        _graph: &Graph,
        _epsilon: f64,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        Err(GenerateError::GraphTooSmall { required: usize::MAX, actual: 0 })
    }
}

#[test]
fn failing_mechanism_still_emits_complete_temporal_grid() {
    let (_, datasets, mut config) = temporal_setup();
    let algorithms = vec![TemporalGenerator::new(Box::new(AlwaysFails))];
    for reuse in [MeasureReuse::PerRep, MeasureReuse::PerCell] {
        config.reuse = reuse;
        let results = run_temporal_benchmark(&algorithms, &datasets, &config);
        // (3+1)·3 + (2+1)·3 rows per ε, 2 ε, 1 algorithm.
        assert_eq!(results.outcomes.len(), 2 * (12 + 9), "{reuse:?}");
        for o in &results.outcomes {
            assert_eq!(o.runs, 0, "{reuse:?}: {o:?}");
            assert!(o.mean_error.is_nan(), "{reuse:?}: {o:?}");
        }
    }
}

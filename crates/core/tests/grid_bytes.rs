//! Pinned bytes of both benchmark grids.
//!
//! `tests/golden_csv.rs` at the workspace root pins only the static grid
//! under per-repetition measurement. This test pins the rest of the CSV
//! contract as 64-bit FNV-1a digests: the static (`run_benchmark`) and
//! temporal (`run_temporal_benchmark`) grids, under both
//! [`MeasureReuse`] modes, at 3 repetitions per cell, each digest checked
//! at thread budgets {1, 2, 8, 0}. A change to how the grid is scheduled
//! must leave every digest where it is. The digests live in
//! `tests/golden/pins/grid_bytes_are_pinned.txt` at the workspace root.

#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use pgb_core::benchmark::{run_benchmark, run_temporal_benchmark, BenchmarkConfig, MeasureReuse};
use pgb_core::{Der, Dgg, DpDk, GraphGenerator, PrivGraph, TmF};
use pgb_graph::temporal::SnapshotSequence;
use pgb_par::fnv1a;
use pgb_queries::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config(reuse: MeasureReuse, threads: usize) -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![0.5, 2.0],
        repetitions: 3,
        queries: vec![
            Query::EdgeCount,
            Query::Triangles,
            Query::DegreeDistribution,
            Query::GlobalClustering,
            Query::Modularity,
        ],
        seed: 2024,
        threads,
        reuse,
        ..Default::default()
    }
}

fn static_csv(reuse: MeasureReuse, threads: usize) -> String {
    let mut rng = StdRng::seed_from_u64(15);
    let datasets = vec![
        ("er".to_string(), pgb_models::erdos_renyi_gnp(45, 0.12, &mut rng)),
        ("ba".to_string(), pgb_models::barabasi_albert(50, 2, &mut rng)),
    ];
    let algorithms: Vec<Box<dyn GraphGenerator>> = vec![
        Box::new(DpDk::default()),
        Box::new(TmF::default()),
        Box::new(PrivGraph::default()),
        Box::new(Dgg::default()),
        Box::new(Der::default()),
    ];
    run_benchmark(&algorithms, &datasets, &config(reuse, threads)).to_csv()
}

/// A seeded interaction log whose timestamps spread over the horizon.
fn events(n: u32, seed: u64) -> Vec<(u32, u32, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..4 * n)
        .map(|i| {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            (u, v, i as u64)
        })
        .collect()
}

fn temporal_csv(reuse: MeasureReuse, threads: usize) -> String {
    let datasets = vec![
        ("log-a".to_string(), SnapshotSequence::build(40, &events(40, 5), 3).unwrap()),
        ("log-b".to_string(), SnapshotSequence::build(35, &events(35, 6), 2).unwrap()),
    ];
    run_temporal_benchmark(&pgb_core::temporal_suite(), &datasets, &config(reuse, threads)).to_csv()
}

#[test]
fn grid_bytes_are_pinned() {
    type Grid = fn(MeasureReuse, usize) -> String;
    let grids: [(&str, Grid, MeasureReuse); 4] = [
        ("static", static_csv, MeasureReuse::PerRep),
        ("static", static_csv, MeasureReuse::PerCell),
        ("temporal", temporal_csv, MeasureReuse::PerRep),
        ("temporal", temporal_csv, MeasureReuse::PerCell),
    ];
    let mut got = Vec::new();
    for (grid, csv, reuse) in grids {
        for threads in [1, 2, 8, 0] {
            let csv = csv(reuse, threads);
            assert!(csv.lines().skip(1).all(|row| row.ends_with(",3")), "a repetition failed");
            got.push((format!("{grid}/{reuse:?}"), fnv1a(csv.as_bytes())));
        }
    }
    pinned::assert_pinned("grid_bytes_are_pinned", &got);
}

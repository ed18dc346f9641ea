//! Golden-file regression over the full pipeline: a small fixed-seed
//! benchmark grid rendered with `BenchmarkResults::to_csv()` must match
//! the committed CSV byte-for-byte. Anything that shifts the numbers —
//! generator RNG-stream drift, query/scoring changes, CSV formatting —
//! fails loudly here instead of silently moving the benchmark's results.
//!
//! The grid deliberately runs under `threads: 0` (auto parallelism): the
//! bytes must be reproducible on any machine at any core count, which is
//! exactly the derived-stream guarantee the runner and `pgb_par`
//! make. To regenerate after an *intentional* change, re-bless it together
//! with every pinned digest under `tests/golden/pins/` with:
//!
//! ```sh
//! PGB_BLESS=1 cargo test
//! ```
//!
//! and review the diff of `tests/golden` like any other code change.

use pgb::prelude::*;
use pgb_core::benchmark::run_benchmark;
use pgb_queries::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/small_grid.csv");

fn golden_grid_csv() -> String {
    let mut rng = StdRng::seed_from_u64(42);
    let datasets = vec![
        ("er".to_string(), pgb_models::erdos_renyi_gnp(50, 0.1, &mut rng)),
        ("ba".to_string(), pgb_models::barabasi_albert(50, 2, &mut rng)),
    ];
    // Two parallelised generators (TmF, DER) and one serial baseline
    // (DGG): the golden bytes pin the intra-cell derived-stream discipline
    // as well as the runner's own.
    let algorithms: Vec<Box<dyn GraphGenerator>> =
        vec![Box::new(TmF::default()), Box::new(Der::default()), Box::new(Dgg::default())];
    let config = BenchmarkConfig {
        epsilons: vec![0.5, 5.0],
        repetitions: 2,
        queries: vec![
            Query::EdgeCount,
            Query::Triangles,
            Query::DegreeDistribution,
            Query::GlobalClustering,
        ],
        seed: 42,
        threads: 0, // auto: the bytes must not depend on the machine
        ..Default::default()
    };
    run_benchmark(&algorithms, &datasets, &config).to_csv()
}

#[test]
fn benchmark_csv_matches_golden_file() {
    let csv = golden_grid_csv();
    if std::env::var_os("PGB_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &csv).expect("write golden file");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — regenerate with PGB_BLESS=1 cargo test");
    // 2 datasets × 3 algorithms × 2 ε × 4 queries + header.
    assert_eq!(golden.lines().count(), 49, "golden file has unexpected shape");
    assert_eq!(
        csv, golden,
        "benchmark CSV drifted from tests/golden/small_grid.csv; if the change is intentional, \
         re-bless with PGB_BLESS=1 and review the diff"
    );
}

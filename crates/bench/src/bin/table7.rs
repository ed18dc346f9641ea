//! Regenerates **Table VII**: the Definition 5 best-performance counts —
//! for every (dataset, ε) pair, how often each algorithm achieves the
//! lowest error across the 15 queries. The same grid also yields
//! **Table XII** (Definition 6), which is printed afterwards so the
//! expensive experiment runs once.
//!
//! This is the paper's headline experiment (6 algorithms × 8 datasets ×
//! 6 ε × 15 queries). `--scale paper` reproduces the full 10-repetition
//! protocol; the default `small` scale runs the identical grid at 2
//! repetitions.

use pgb_bench::{benchmark_config, load_datasets, suite, HarnessArgs};
use pgb_core::benchmark::report::{render_table12, render_table7};
use pgb_core::benchmark::run_benchmark;

fn main() {
    let args = HarnessArgs::from_env();
    let datasets = load_datasets(args.seed);
    let max_nodes = datasets.iter().map(|(_, g)| g.node_count()).max().unwrap_or(0);
    let config = benchmark_config(&args, max_nodes);
    let algorithms = suite();
    eprintln!(
        "running {} algorithms x {} datasets x {} budgets x {} reps ...",
        algorithms.len(),
        datasets.len(),
        config.epsilons.len(),
        config.repetitions
    );
    let start = std::time::Instant::now();
    let results = run_benchmark(&algorithms, &datasets, &config);
    eprintln!("completed in {:.1}s\n", start.elapsed().as_secs_f64());
    println!("Table VII — best-performance counts C_A(G, ε) over 15 queries\n");
    println!("{}", render_table7(&results));
    println!("Table XII — best-performance counts C_A(Q) over 8 datasets x 6 budgets\n");
    println!("{}", render_table12(&results));
    // Raw per-cell errors for downstream analysis. A failed write is a
    // failed run: CI consumes this CSV, so it must not vanish silently.
    let csv_path = std::path::Path::new("target").join("table7_raw.csv");
    match std::fs::write(&csv_path, results.to_csv()) {
        Ok(()) => eprintln!("raw errors written to {}", csv_path.display()),
        Err(e) => {
            eprintln!("table7: writing {}: {e}", csv_path.display());
            std::process::exit(1);
        }
    }
}

//! Runs the **temporal scenario axis**: the windowed benchmark grid —
//! temporal mechanisms × BA-growth event logs × ε — reporting one error
//! row per (window, query) plus a drift row per query (how well the
//! synthetic sequence tracks the true sequence's window-to-window
//! change).
//!
//! `--windows N` picks the snapshot count (default 4), `--window-eps
//! w1,…,wN` skews the per-window budget split away from even. Output is
//! byte-identical across `--threads` settings; the raw CSV lands in
//! `target/temporal_grid_raw.csv`.

use pgb_bench::{benchmark_config, load_temporal_datasets, temporal_suite_for, HarnessArgs};
use pgb_core::benchmark::run_temporal_benchmark;
use pgb_datasets::temporal::TemporalDataset;
use pgb_queries::temporal::inter_event_time_histogram;

fn main() {
    let args = HarnessArgs::from_env();
    let datasets = load_temporal_datasets(args.seed, args.windows);
    let algorithms = temporal_suite_for(&args);
    let max_nodes = datasets.iter().map(|(_, s)| s.node_count()).max().unwrap_or(0);
    let config = benchmark_config(&args, max_nodes);

    println!("Temporal grid — {} windows per sequence\n", args.windows);
    for d in TemporalDataset::ALL {
        let events = d.events(args.seed);
        let times: Vec<u64> = events.events.iter().map(|&(_, _, t)| t).collect();
        let hist = inter_event_time_histogram(&times);
        let head: Vec<String> = hist.iter().take(6).map(|c| c.to_string()).collect();
        println!(
            "{:<16} {:>5} nodes, {:>6} events; inter-event-time histogram head: [{}]",
            d.name(),
            d.nodes(),
            events.events.len(),
            head.join(", ")
        );
    }

    eprintln!(
        "\nrunning {} mechanisms x {} sequences x {} budgets x {} reps ...",
        algorithms.len(),
        datasets.len(),
        config.epsilons.len(),
        config.repetitions,
    );
    let start = std::time::Instant::now();
    let results = run_temporal_benchmark(&algorithms, &datasets, &config);
    eprintln!("completed in {:.1}s\n", start.elapsed().as_secs_f64());

    // Per-mechanism summary: mean error over window rows, mean drift.
    println!(
        "\n{:<10} {:<16} {:>8} {:>14} {:>14}",
        "mechanism", "sequence", "eps", "mean window", "mean drift"
    );
    for ds in &results.datasets {
        for algo in &results.algorithms {
            for &eps in &results.epsilons {
                let rows: Vec<_> = results
                    .outcomes
                    .iter()
                    .filter(|o| {
                        &o.algorithm == algo
                            && &o.dataset == ds
                            && (o.epsilon - eps).abs() < 1e-12
                            && o.runs > 0
                            && o.mean_error.is_finite()
                    })
                    .collect();
                let mean = |window: bool| {
                    let vals: Vec<f64> = rows
                        .iter()
                        .filter(|o| o.window.is_some() == window)
                        .map(|o| o.mean_error)
                        .collect();
                    if vals.is_empty() {
                        f64::NAN
                    } else {
                        vals.iter().sum::<f64>() / vals.len() as f64
                    }
                };
                println!(
                    "{:<10} {:<16} {:>8.2} {:>14.4e} {:>14.4e}",
                    algo,
                    ds,
                    eps,
                    mean(true),
                    mean(false)
                );
            }
        }
    }

    let csv_path = std::path::Path::new("target").join("temporal_grid_raw.csv");
    match std::fs::write(&csv_path, results.to_csv()) {
        Ok(()) => eprintln!("\nraw errors written to {}", csv_path.display()),
        Err(e) => {
            eprintln!("temporal_grid: writing {}: {e}", csv_path.display());
            std::process::exit(1);
        }
    }
}

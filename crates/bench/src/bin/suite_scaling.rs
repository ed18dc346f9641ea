//! Exact suite evaluation of Q3 and Q5–Q11 on a 10⁶-node Barabási–Albert
//! graph at a 1-thread budget. Those eight are served by the triangle pass
//! and the BFS sweep, the passes whose cost grows super-linearly, plus the
//! degree histogram; Louvain and EVC (Q12–Q15) are timed by perfbench.
//!
//! The graph is built with `barabasi_albert_streaming` (no unsorted edge
//! list), and its CSR `heap_bytes` is printed next to the timings. The path
//! queries use `PathMode::Sampled { sources: 64 }`, as the harness does
//! above 5,000 nodes. `--scale paper` adds a 10⁷-node cell.
//!
//! Each graph is evaluated `--reps` times (default: the scale's
//! repetitions). The graph and evaluation seeds are fixed so entries
//! compare across commits; `--seed` and `--threads` are ignored. Progress
//! goes to stderr; stdout is one JSON line listing every run, the format of
//! `BENCH_SUITE_SCALING.json`.

use pgb_bench::{HarnessArgs, Scale};
use pgb_graph::Graph;
use pgb_models::barabasi_albert_streaming;
use pgb_queries::{PathMode, Query, QueryParams, QuerySuite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Q3 (triangles), Q5/Q6 (degree histogram), Q7–Q9 (distance sweep),
/// Q10/Q11 (clustering).
const QUERIES: [Query; 8] = [
    Query::Triangles,
    Query::DegreeVariance,
    Query::DegreeDistribution,
    Query::Diameter,
    Query::AveragePathLength,
    Query::DistanceDistribution,
    Query::GlobalClustering,
    Query::AverageClustering,
];

/// Builds an `n`-node BA graph (m = 4) and returns it with its JSON
/// description.
fn ba_graph(name: &str, n: usize, seed: u64) -> (Graph, String) {
    let g = barabasi_albert_streaming(n, 4, &mut StdRng::seed_from_u64(seed));
    let heap = g.heap_bytes();
    eprintln!(
        "{name}: {n} nodes, {} edges, CSR heap_bytes = {heap} ({:.1} MB)",
        g.edge_count(),
        heap as f64 / (1024.0 * 1024.0)
    );
    let json = format!(
        r#""name": "{name}", "nodes": {n}, "edges": {}, "csr_heap_bytes": {heap}"#,
        g.edge_count()
    );
    (g, json)
}

/// Times `reps` 1-thread `evaluate_all` runs over [`QUERIES`] and returns
/// them as a JSON field `"exact_t1_s": [...]`.
fn time_suite(g: &Graph, params: &QueryParams, reps: usize) -> String {
    let runs: Vec<String> = (0..reps)
        .map(|rep| {
            let start = Instant::now();
            let values = pgb_par::with_parallelism(1, || {
                QuerySuite::evaluate_all(g, &QUERIES, params, &mut StdRng::seed_from_u64(5))
            });
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(values);
            eprintln!("  rep {rep}: {secs:.3} s");
            format!("{secs:.3}")
        })
        .collect();
    format!(r#""exact_t1_s": [{}]"#, runs.join(", "))
}

fn main() {
    let args = HarnessArgs::from_env();
    let reps = args.reps.unwrap_or(args.scale.repetitions());
    let params =
        QueryParams { path_mode: PathMode::Sampled { sources: 64 }, ..QueryParams::default() };

    let mut cells = vec![("ba_1m", 1_000_000, 17)];
    if args.scale == Scale::Paper {
        cells.push(("ba_10m", 10_000_000, 18));
    }
    let graphs: Vec<String> = cells
        .into_iter()
        .map(|(name, n, seed)| {
            let (g, desc) = ba_graph(name, n, seed);
            format!("{{{desc}, {}}}", time_suite(&g, &params, reps))
        })
        .collect();
    println!(r#"{{"bench": "suite_scaling", "reps": {reps}, "graphs": [{}]}}"#, graphs.join(", "));
}

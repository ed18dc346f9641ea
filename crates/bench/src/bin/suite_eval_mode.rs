//! Exact vs Approx ([`EvalMode`]) evaluation of the eight sketch-backed
//! queries (Q3, Q5–Q11) on a 10⁶-node Barabási–Albert graph at a 1-thread
//! budget: the sketch layer's acceptance measurement (its target when it
//! landed was Approx ≥ 5× faster). The mode-independent queries Q12–Q15
//! do identical work under both modes, so including them would measure
//! the shared baseline, not the axis.
//!
//! The graph is built with `barabasi_albert_streaming` (no unsorted edge
//! list), and its CSR `heap_bytes` is printed next to the timings.
//! `--scale paper` adds a 10⁷-node Approx-only cell: at the default HLL
//! precision (p = 4) the sweep's two register arrays stay at 2 × 160 MB,
//! and there is no Exact comparison at that scale by design.
//!
//! Each mode runs `--reps` times (default: the scale's repetitions). The
//! graph and evaluation seeds are fixed so entries compare across
//! commits; `--seed` and `--threads` are ignored. Progress goes to
//! stderr; stdout is one JSON line listing every run, the format of
//! `BENCH_SUITE_SCALING.json`.

use pgb_bench::{HarnessArgs, Scale};
use pgb_graph::Graph;
use pgb_models::barabasi_albert_streaming;
use pgb_queries::{ApproxConfig, EvalMode, PathMode, Query, QueryParams, QuerySuite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The queries whose shared intermediates the `EvalMode` axis replaces:
/// Q3 (triangles), Q5/Q6 (degree histogram), Q7–Q9 (distance sweep),
/// Q10/Q11 (clustering).
const SKETCH_QUERIES: [Query; 8] = [
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

/// Times `reps` 1-thread `evaluate_all` runs over [`SKETCH_QUERIES`] and
/// returns them as a JSON field `"<label>_t1_s": [...]`.
fn time_mode(g: &Graph, label: &str, params: &QueryParams, reps: usize) -> String {
    let runs: Vec<String> = (0..reps)
        .map(|rep| {
            let start = Instant::now();
            let values = pgb_par::with_parallelism(1, || {
                QuerySuite::evaluate_all(g, &SKETCH_QUERIES, params, &mut StdRng::seed_from_u64(5))
            });
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(values);
            eprintln!("  {label} rep {rep}: {secs:.3} s");
            format!("{secs:.3}")
        })
        .collect();
    format!(r#""{label}_t1_s": [{}]"#, runs.join(", "))
}

fn main() {
    let args = HarnessArgs::from_env();
    let reps = args.reps.unwrap_or(args.scale.repetitions());
    let exact =
        QueryParams { path_mode: PathMode::Sampled { sources: 64 }, ..QueryParams::default() };
    let approx = QueryParams { eval: EvalMode::Approx(ApproxConfig::default()), ..exact };

    let mut graphs = Vec::new();
    let (g, desc) = ba_graph("ba_1m", 1_000_000, 17);
    let exact_runs = time_mode(&g, "exact", &exact, reps);
    let approx_runs = time_mode(&g, "approx", &approx, reps);
    graphs.push(format!("{{{desc}, {exact_runs}, {approx_runs}}}"));
    drop(g);

    if args.scale == Scale::Paper {
        let (g, desc) = ba_graph("ba_10m", 10_000_000, 18);
        let approx_runs = time_mode(&g, "approx", &approx, reps);
        graphs.push(format!("{{{desc}, {approx_runs}}}"));
    }
    println!(
        r#"{{"bench": "suite_eval_mode", "reps": {reps}, "graphs": [{}]}}"#,
        graphs.join(", ")
    );
}

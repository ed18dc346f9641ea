//! Intra-cell parallelism speedup on generation-phase-dominated workloads
//! (the paper's Table IX cost profile): the TmF-class generators on a
//! 10⁵-node graph, swept over `pgb_par` thread budgets.
//!
//! Run with `cargo bench --bench generate_100k`. Output is byte-identical
//! across the thread sweep (the derived-stream chunking discipline); the
//! interesting number is the wall-clock ratio between `threads=1` and
//! `threads=8` on a multi-core machine — TmF's perturbation/construction
//! phase is embarrassingly parallel, so it should approach the core count.
//! PrivSKG, PrivGraph, and DER run on smaller inputs to keep total bench
//! time sane (DER's quadtree descent is the quadratic outlier, exactly as
//! in the paper's cost discussion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgb_core::{Der, GraphGenerator, PrivGraph, PrivSkg, TmF};
use pgb_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread budgets the generators are swept over.
const THREADS: [usize; 3] = [1, 2, 8];

fn sweep(group: &mut criterion::BenchmarkGroup<'_>, algo: &dyn GraphGenerator, g: &Graph) {
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new(algo.name(), format!("threads={threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    pgb_par::with_parallelism(threads, || {
                        let mut rng = StdRng::seed_from_u64(1);
                        algo.generate(g, 2.0, &mut rng).expect("valid inputs")
                    })
                })
            },
        );
    }
}

fn bench_generate_100k(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(100);
    // 10⁵ nodes, ~5·10⁵ edges: the scale where TmF's O(m + m̃) scan and
    // the builder's sort/dedup dominate a benchmark cell.
    let big = pgb_models::barabasi_albert(100_000, 5, &mut rng);
    let mut group = c.benchmark_group("generate_100k");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(800));
    sweep(&mut group, &TmF::default(), &big);
    group.finish();

    let privskg_input = pgb_models::barabasi_albert(32_768, 5, &mut rng);
    let privgraph_input = pgb_models::barabasi_albert(20_000, 5, &mut rng);
    let der_input = pgb_models::barabasi_albert(10_000, 5, &mut rng);
    let mut group = c.benchmark_group("generate_mid");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(800));
    sweep(&mut group, &PrivSkg::default(), &privskg_input);
    sweep(&mut group, &PrivGraph::default(), &privgraph_input);
    sweep(&mut group, &Der::default(), &der_input);
    group.finish();
}

criterion_group!(benches, bench_generate_100k);
criterion_main!(benches);

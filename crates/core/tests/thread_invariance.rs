//! The thread-invariance contract of the parallelised generators: for a
//! fixed seed, `generate` must return the *same graph* — same CSR arrays,
//! not just the same distribution — under any intra-cell thread budget.
//! This is what makes `BenchmarkConfig::threads` a pure scheduling knob.

use pgb_core::{Der, GraphGenerator, PrivGraph, PrivSkg, TmF};
use pgb_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn community_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for base in [0u32, 60, 120] {
        for i in 0..60 {
            for j in (i + 1)..60 {
                if rand::Rng::gen_bool(&mut rng, 0.15) {
                    edges.push((base + i, base + j));
                }
            }
        }
    }
    for _ in 0..60 {
        let u = rand::Rng::gen_range(&mut rng, 0..180u32);
        let v = rand::Rng::gen_range(&mut rng, 0..180u32);
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    Graph::from_edges(180, edges).unwrap()
}

fn assert_thread_invariant(algo: &dyn GraphGenerator, g: &Graph, epsilon: f64) {
    let run = |threads: usize| {
        pgb_par::with_parallelism(threads, || {
            let mut rng = StdRng::seed_from_u64(4242);
            algo.generate(g, epsilon, &mut rng).expect("valid inputs")
        })
    };
    let reference = run(1);
    assert!(reference.check_invariants());
    for threads in [2, 3, 8] {
        let out = run(threads);
        assert_eq!(
            out.csr(),
            reference.csr(),
            "{} at ε={epsilon} differs between 1 and {threads} threads",
            algo.name()
        );
    }
}

#[test]
fn tmf_output_is_thread_invariant() {
    let g = community_graph(1);
    for eps in [0.5, 5.0] {
        assert_thread_invariant(&TmF::default(), &g, eps);
    }
}

#[test]
fn der_output_is_thread_invariant() {
    let g = community_graph(2);
    for eps in [0.5, 5.0] {
        assert_thread_invariant(&Der::default(), &g, eps);
    }
}

#[test]
fn privskg_output_is_thread_invariant() {
    let g = community_graph(3);
    for eps in [0.5, 5.0] {
        assert_thread_invariant(&PrivSkg::default(), &g, eps);
    }
}

#[test]
fn privgraph_output_is_thread_invariant() {
    let g = community_graph(4);
    for eps in [0.5, 5.0] {
        assert_thread_invariant(&PrivGraph::default(), &g, eps);
    }
}

#[test]
fn caller_rng_position_is_thread_invariant() {
    // Beyond equal outputs, the generators must leave the caller's RNG at
    // the same position regardless of the thread budget — the runner
    // evaluates the query suite with the same RNG right after generation.
    let g = community_graph(5);
    let algos: Vec<Box<dyn GraphGenerator>> = vec![
        Box::new(TmF::default()),
        Box::new(Der::default()),
        Box::new(PrivSkg::default()),
        Box::new(PrivGraph::default()),
    ];
    for algo in &algos {
        let next_draw = |threads: usize| {
            pgb_par::with_parallelism(threads, || {
                let mut rng = StdRng::seed_from_u64(77);
                algo.generate(&g, 1.0, &mut rng).expect("valid inputs");
                rand::RngCore::next_u64(&mut rng)
            })
        };
        assert_eq!(next_draw(1), next_draw(8), "{} moved the caller RNG", algo.name());
    }
}

//! The two-phase pipeline contract, for every mechanism in the suite:
//!
//! * `generate()` ≡ `measure()` followed by one `sample()` on the same
//!   RNG — CSR-byte-identical output and identical RNG cursor — at every
//!   thread budget in {1, 2, 8, 0};
//! * `sample()` is ε-free post-processing: it never touches the
//!   measure-phase RNG (re-sampling leaves the measuring stream's cursor
//!   exactly where `measure` left it), and two samples on identically
//!   seeded fresh streams are identical while different streams may
//!   legitimately differ;
//! * the measure phase is the *only* budget spender: `epsilon_spent()`
//!   reports exactly the requested ε, invalid ε is rejected with the
//!   offending bit pattern, and `sample` cannot fail — on any graph the
//!   intermediate was measured from, including degenerate ones.
//!
//! Every mechanism's measure → sample bytes are also pinned as digests in
//! `tests/golden/pins/` at the workspace root.

#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use pgb_core::{
    standard_suite, Der, Dgg, DkVariant, DpDk, GenerateError, GraphGenerator, PrivGraph, PrivHrg,
    PrivSkg, TmF,
};
use pgb_graph::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// All 7 generators, with PrivHRG's MCMC shortened so the property sweep
/// stays fast — the phase-split contract is independent of chain length.
fn all_generators_fast() -> Vec<Box<dyn GraphGenerator>> {
    let mut algos: Vec<Box<dyn GraphGenerator>> =
        standard_suite().into_iter().filter(|a| a.name() != "PrivHRG").collect();
    algos.push(Box::new(PrivHrg { steps_per_node: 5, ..PrivHrg::default() }));
    algos.push(Box::new(Der::default()));
    algos
}

/// A graph's canonical CSR content: node count plus the sorted-deduped
/// edge list CSR is built from. Equal fingerprints ⇔ byte-equal CSR.
fn fingerprint(g: &Graph) -> (usize, Vec<(u32, u32)>) {
    (g.node_count(), g.edge_vec())
}

fn raw_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..100))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole equivalence: the provided `generate` and an explicit
    /// `measure` + `sample` on one RNG produce byte-identical CSR *and*
    /// leave the RNG at the same cursor, for every mechanism, at every
    /// thread budget (0 ⇒ ambient parallelism).
    #[test]
    fn generate_is_measure_then_sample(
        (n, edges) in raw_edges(),
        eps_exp in -2i32..4,
        seed in 0u64..1000,
    ) {
        let g = Graph::from_edges(n, edges).unwrap();
        let epsilon = 10f64.powi(eps_exp) * 2.0;
        for algo in all_generators_fast() {
            for threads in [1usize, 2, 8, 0] {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let body = |rng_a: &mut StdRng, rng_b: &mut StdRng| {
                    let one = algo
                        .generate(&g, epsilon, rng_a)
                        .unwrap_or_else(|e| panic!("{} generate: {e}", algo.name()));
                    let m = algo
                        .measure(&g, epsilon, rng_b)
                        .unwrap_or_else(|e| panic!("{} measure: {e}", algo.name()));
                    let two = m.sample(rng_b);
                    (fingerprint(&one), fingerprint(&two))
                };
                let (one, two) = at_budget(threads, || body(&mut rng_a, &mut rng_b));
                prop_assert_eq!(
                    one,
                    two,
                    "{} at ε={}, threads={}: generate ≠ measure∘sample",
                    algo.name(), epsilon, threads
                );
                // Both pipelines consumed exactly the same number of draws:
                // the next value of each stream coincides.
                prop_assert_eq!(
                    rng_a.next_u64(),
                    rng_b.next_u64(),
                    "{} at ε={}, threads={}: RNG cursors diverged",
                    algo.name(), epsilon, threads
                );
            }
        }
    }

    /// Re-sampling is free: after `measure`, the measuring RNG's cursor is
    /// never advanced by `sample` calls, and identically seeded sample
    /// streams reproduce the same graph.
    #[test]
    fn sample_never_draws_from_the_measure_rng(
        (n, edges) in raw_edges(),
        seed in 0u64..1000,
    ) {
        let g = Graph::from_edges(n, edges).unwrap();
        for algo in all_generators_fast() {
            let mut measure_rng = StdRng::seed_from_u64(seed);
            let m = algo.measure(&g, 1.0, &mut measure_rng).unwrap();
            // Snapshot the measure stream's cursor, then sample twice.
            let mut cursor_probe = measure_rng.clone();
            let expected_next = cursor_probe.next_u64();
            let s1 = m.sample(&mut StdRng::seed_from_u64(seed ^ 0xDEAD));
            let s2 = m.sample(&mut StdRng::seed_from_u64(seed ^ 0xBEEF));
            prop_assert_eq!(
                measure_rng.next_u64(), expected_next,
                "{}: sample() advanced the measure-phase RNG", algo.name()
            );
            // Same sample stream ⇒ same graph (sampling is a pure function
            // of the intermediate and the construction RNG).
            let s1_again = m.sample(&mut StdRng::seed_from_u64(seed ^ 0xDEAD));
            prop_assert_eq!(fingerprint(&s1), fingerprint(&s1_again), "{}", algo.name());
            prop_assert_eq!(s1.node_count(), n, "{}", algo.name());
            prop_assert_eq!(s2.node_count(), n, "{}", algo.name());
            prop_assert!(s1.check_invariants() && s2.check_invariants(), "{}", algo.name());
        }
    }
}

#[test]
fn epsilon_spent_reports_the_requested_budget() {
    let mut rng = StdRng::seed_from_u64(1234);
    let g = pgb_models::erdos_renyi_gnp(30, 0.2, &mut rng);
    for algo in all_generators_fast() {
        for eps in [0.1, 1.0, 2.5, 10.0] {
            let mut rng = StdRng::seed_from_u64(77);
            let m = algo.measure(&g, eps, &mut rng).unwrap();
            assert_eq!(
                m.epsilon_spent(),
                eps,
                "{} ({}) must spend exactly the requested ε",
                algo.name(),
                m.name()
            );
            assert!(!m.name().is_empty(), "{}", algo.name());
        }
    }
}

#[test]
fn measure_rejects_invalid_epsilon_with_the_offending_bits() {
    let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
    for algo in all_generators_fast() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut rng = StdRng::seed_from_u64(9000);
            match algo.measure(&g, bad, &mut rng) {
                Err(GenerateError::InvalidEpsilon(e)) => {
                    assert_eq!(e.to_bits(), bad.to_bits(), "{} at ε={bad}", algo.name());
                }
                other => panic!(
                    "{} measure must reject ε = {bad} with InvalidEpsilon, got {:?}",
                    algo.name(),
                    other.map(|m| m.name())
                ),
            }
        }
    }
}

#[test]
fn sample_cannot_fail_on_degenerate_graphs() {
    // `sample` returns a `Graph`, not a `Result` — the type promises
    // construction never errors. Exercise the promise on the inputs where
    // mechanisms degrade: empty, single-node, and edgeless graphs.
    for n in [0usize, 1, 2, 5] {
        let g = Graph::new(n);
        for algo in all_generators_fast() {
            let mut rng = StdRng::seed_from_u64(4000 + n as u64);
            match algo.measure(&g, 1.0, &mut rng) {
                Ok(m) => {
                    for s in 0..3u64 {
                        let out = m.sample(&mut StdRng::seed_from_u64(s));
                        assert_eq!(out.node_count(), n, "{} n={n}", algo.name());
                        assert!(out.check_invariants(), "{} n={n}", algo.name());
                    }
                    assert_eq!(m.epsilon_spent(), 1.0, "{} n={n}", algo.name());
                }
                Err(GenerateError::GraphTooSmall { required, actual }) => {
                    assert_eq!(actual, n, "{}", algo.name());
                    assert!(required > n, "{}", algo.name());
                }
                Err(other) => panic!("{} failed on n={n}: {other:?}", algo.name()),
            }
        }
    }
}

/// 64-bit FNV-1a over a graph's canonical CSR bytes (the `u64` LE offsets
/// length, the `u32` LE offsets, then the `u32` LE neighbor lists) — the
/// same digest the serving transcript pins per sample.
fn csr_digest(g: &Graph) -> u64 {
    let (offsets, neighbors) = g.csr();
    let words = offsets.iter().chain(neighbors).flat_map(|w| w.to_le_bytes());
    let bytes: Vec<u8> = (offsets.len() as u64).to_le_bytes().into_iter().chain(words).collect();
    pgb_par::fnv1a(&bytes)
}

/// Runs `f` at thread budget `threads` (0 ⇒ the ambient budget).
fn at_budget<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    if threads == 0 {
        f()
    } else {
        pgb_par::with_parallelism(threads, f)
    }
}

/// `algo`'s measure → sample digest on each named graph at ε 0.5 and 2,
/// at each thread budget, named `graph@ε`. Every budget must give the
/// same digest, which the pin helper checks.
fn digests(
    algo: &dyn GraphGenerator,
    graphs: &[(&str, &Graph)],
    budgets: &[usize],
) -> Vec<(String, u64)> {
    let mut got = Vec::new();
    for &(name, g) in graphs {
        for epsilon in [0.5, 2.0] {
            for &threads in budgets {
                let digest = at_budget(threads, || {
                    let mut rng = StdRng::seed_from_u64(7);
                    let m = algo.measure(g, epsilon, &mut rng).unwrap();
                    csr_digest(&m.sample(&mut rng))
                });
                got.push((format!("{name}@{epsilon}"), digest));
            }
        }
    }
    got
}

/// The thread budgets the parallel mechanisms' pins are checked at.
const BUDGETS: [usize; 4] = [1, 2, 8, 0];

#[test]
fn privhrg_output_bytes_are_pinned() {
    // The golden CSV covers TmF, DER and DGG only; this pins PrivHRG's
    // full measure → sample path (MCMC, Laplace noise, edge realisation)
    // at its default chain length, so any drift in its bytes fails here.
    // A BA graph, a road-like grid (most moves have no edge at the
    // parent's level, as on Minnesota) and a denser ER graph.
    let ba = pgb_models::barabasi_albert(300, 3, &mut StdRng::seed_from_u64(2024));
    let grid =
        pgb_models::lattice::irregular_grid(20, 20, 0.1, 20, &mut StdRng::seed_from_u64(2029));
    let er = pgb_models::erdos_renyi_gnp(300, 0.05, &mut StdRng::seed_from_u64(2027));
    let graphs = [("ba300", &ba), ("grid20x20", &grid), ("er300", &er)];
    let got = digests(&PrivHrg::default(), &graphs, &[0]);
    pinned::assert_pinned("privhrg_output_bytes_are_pinned", &got);
}

#[test]
fn privgraph_output_bytes_are_pinned() {
    // PrivGraph's measure → sample path end to end: the noisy super-graph,
    // its weighted Louvain, the exponential-mechanism adjustment round and
    // the Chung–Lu reconstruction. A small and a mid-sized BA graph, two
    // budgets each.
    let small = pgb_models::barabasi_albert(300, 3, &mut StdRng::seed_from_u64(2024));
    let mid = pgb_models::barabasi_albert(3_000, 4, &mut StdRng::seed_from_u64(2025));
    let got = digests(&PrivGraph::default(), &[("ba300", &small), ("ba3000", &mid)], &[0]);
    pinned::assert_pinned("privgraph_output_bytes_are_pinned", &got);
}

#[test]
fn privskg_output_bytes_are_pinned() {
    // PrivSKG's measure → sample path: noisy moments, the initiator fit,
    // the chunked ball drops and the uniform subsample back to n. One
    // graph with n < 2^k (subsampled) and one with n = 2^k (built
    // directly), two budgets each, at every thread budget.
    let subsampled = pgb_models::barabasi_albert(3_000, 4, &mut StdRng::seed_from_u64(2025));
    let direct = pgb_models::barabasi_albert(1_024, 4, &mut StdRng::seed_from_u64(2026));
    let graphs = [("ba3000", &subsampled), ("ba1024", &direct)];
    let got = digests(&PrivSkg::default(), &graphs, &BUDGETS);
    pinned::assert_pinned("privskg_output_bytes_are_pinned", &got);
}

#[test]
fn dpdk_output_bytes_are_pinned() {
    // DP-dK's realisation conforms its node count to the input's; each
    // case below realises a surplus, which a uniform induced subsample
    // removes. Both variants, two budgets each, at every thread budget.
    let ba = pgb_models::barabasi_albert(1_000, 3, &mut StdRng::seed_from_u64(2027));
    let er = pgb_models::erdos_renyi_gnp(500, 0.02, &mut StdRng::seed_from_u64(2027));
    let dk = |variant| DpDk { variant, ..DpDk::default() };
    let mut got = digests(&dk(DkVariant::Dk1), &[("dk1/ba1000", &ba)], &BUDGETS);
    got.extend(digests(&dk(DkVariant::Dk2), &[("dk2/er500", &er)], &BUDGETS));
    pinned::assert_pinned("dpdk_output_bytes_are_pinned", &got);
}

#[test]
fn tmf_output_bytes_are_pinned() {
    // TmF's measure → sample path: the noisy edge count, the threshold,
    // the chunked survivor and false-positive draws, and the top-m̃ trim.
    // The BA graph has more than 2^15 kept pairs at both budgets.
    let ba = pgb_models::barabasi_albert(9_000, 4, &mut StdRng::seed_from_u64(2028));
    let er = pgb_models::erdos_renyi_gnp(500, 0.02, &mut StdRng::seed_from_u64(2027));
    let got = digests(&TmF::default(), &[("ba9000", &ba), ("er500", &er)], &BUDGETS);
    pinned::assert_pinned("tmf_output_bytes_are_pinned", &got);
}

#[test]
fn dgg_output_bytes_are_pinned() {
    // DGG's measure → sample path: the noisy degree sequence and BTER's
    // affinity blocks plus its Chung–Lu phase.
    let ba = pgb_models::barabasi_albert(3_000, 4, &mut StdRng::seed_from_u64(2025));
    let er = pgb_models::erdos_renyi_gnp(500, 0.02, &mut StdRng::seed_from_u64(2027));
    let got = digests(&Dgg::default(), &[("ba3000", &ba), ("er500", &er)], &BUDGETS);
    pinned::assert_pinned("dgg_output_bytes_are_pinned", &got);
}

#[test]
fn der_output_bytes_are_pinned() {
    // DER's measure → sample path: the noisy quadtree and the per-leaf
    // uniform reconstruction.
    let ba = pgb_models::barabasi_albert(3_000, 4, &mut StdRng::seed_from_u64(2025));
    let er = pgb_models::erdos_renyi_gnp(500, 0.02, &mut StdRng::seed_from_u64(2027));
    let got = digests(&Der::default(), &[("ba3000", &ba), ("er500", &er)], &BUDGETS);
    pinned::assert_pinned("der_output_bytes_are_pinned", &got);
}

#[test]
fn heap_bytes_reflects_the_intermediate_footprint() {
    // heap_bytes is an estimate, but it must be sane: zero-allocation
    // intermediates (empty graphs) report 0 or near-0, and a real
    // measurement on a non-trivial graph reports a non-zero footprint for
    // the mechanisms whose intermediates own buffers.
    let mut rng = StdRng::seed_from_u64(555);
    let g = pgb_models::barabasi_albert(200, 3, &mut rng);
    for algo in all_generators_fast() {
        let mut rng = StdRng::seed_from_u64(556);
        let m = algo.measure(&g, 1.0, &mut rng).unwrap();
        // PrivSKG's intermediate is a 2×2 initiator — legitimately 0 heap.
        if algo.name() != "PrivSKG" {
            assert!(m.heap_bytes() > 0, "{} ({}) reports no heap", algo.name(), m.name());
        }
    }
}

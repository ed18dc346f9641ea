//! Louvain's byte contract: labels and modularity bits pinned on the
//! benchmark's graphs, so any change to the local-moving sweep or to
//! aggregation that moves a single bit fails here. The digests live in
//! `tests/golden/pins/louvain_bytes_are_pinned.txt` at the workspace root.

#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use pgb_community::{louvain, louvain_weighted, modularity, modularity_weighted, LouvainParams};
use pgb_community::{Partition, WeightedGraph};
use pgb_datasets::Dataset;
use pgb_par::FNV_BASIS;
use pinned::fnv1a_std;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The budgets every digest is checked at: inline, parallel,
/// oversubscribed, and the ambient default.
const BUDGETS: [usize; 4] = [1, 2, 8, 0];

/// Digest of a partition's labels (`u32` LE) followed by its modularity
/// bits (`u64` LE).
fn digest(h: u64, p: &Partition, q: f64) -> u64 {
    let h = p.labels().iter().fold(h, |h, l| fnv1a_std(h, &l.to_le_bytes()));
    fnv1a_std(h, &q.to_bits().to_le_bytes())
}

/// A noisy super-graph stand-in: non-integer weights on a BA skeleton plus
/// a self-loop on every seventh node, with more nodes than one scan chunk
/// so the chunked passes split at budgets above 1.
fn noisy_weighted_graph() -> WeightedGraph {
    let skeleton = pgb_models::barabasi_albert(20_000, 3, &mut StdRng::seed_from_u64(11));
    let mut w = WeightedGraph::new(skeleton.node_count());
    for (u, v) in skeleton.edges() {
        w.add_edge(u, v, 0.25 + ((u * 31 + v * 17) % 97) as f64 / 13.0);
    }
    for u in (0..skeleton.node_count() as u32).step_by(7) {
        w.add_edge(u, u, 0.5 + (u % 11) as f64 / 3.0);
    }
    w
}

#[test]
fn louvain_bytes_are_pinned() {
    // One digest per Table VI graph (dataset seed 0), chaining Louvain
    // runs at RNG seeds 0, 1 and 2; the same at every thread budget.
    let mut got = Vec::new();
    for dataset in Dataset::TABLE_VI {
        let g = dataset.generate(0);
        for threads in BUDGETS {
            let h = pgb_par::with_parallelism(threads, || {
                let mut h = FNV_BASIS;
                for seed in 0..3 {
                    let p =
                        louvain(&g, &LouvainParams::default(), &mut StdRng::seed_from_u64(seed));
                    h = digest(h, &p, modularity(&g, &p));
                }
                h
            });
            got.push((format!("{dataset:?}"), h));
        }
    }

    // The weighted entry point on a noisy super-graph stand-in, which must
    // give the same bytes at every thread budget.
    let w = noisy_weighted_graph();
    for threads in BUDGETS {
        let h = pgb_par::with_parallelism(threads, || {
            let p = louvain_weighted(&w, &LouvainParams::default(), &mut StdRng::seed_from_u64(5));
            digest(FNV_BASIS, &p, modularity_weighted(&w, p.labels()))
        });
        got.push(("weighted".to_string(), h));
    }
    pinned::assert_pinned("louvain_bytes_are_pinned", &got);
}

//! Louvain's byte contract: labels and modularity bits pinned on the
//! benchmark's graphs, so any change to the local-moving sweep or to
//! aggregation that moves a single bit fails here.

use pgb_community::{louvain, louvain_weighted, modularity, modularity_weighted, LouvainParams};
use pgb_community::{Partition, WeightedGraph};
use pgb_datasets::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The budgets every digest is checked at: inline, parallel,
/// oversubscribed, and the ambient default.
const BUDGETS: [usize; 4] = [1, 2, 8, 0];

/// 64-bit FNV-1a with the standard prime 2^40 + 0x1b3, continuing from
/// `h`. Not `pgb_par::fnv1a`, whose multiplier differs: the digests below
/// were pinned with this one.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Digest of a partition's labels (`u32` LE) followed by its modularity
/// bits (`u64` LE).
fn digest(h: u64, p: &Partition, q: f64) -> u64 {
    let h = p.labels().iter().fold(h, |h, l| fnv1a(h, &l.to_le_bytes()));
    fnv1a(h, &q.to_bits().to_le_bytes())
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
    let pinned: [(Dataset, u64); 8] = [
        (Dataset::Minnesota, 0xb88c_c2a6_b4b0_89c3),
        (Dataset::Facebook, 0x935c_fb62_8004_3f44),
        (Dataset::WikiVote, 0x6c98_1e09_e2c9_de0d),
        (Dataset::CaHepPh, 0x59ce_3802_92e9_fe61),
        (Dataset::PoliLarge, 0x9dda_4c4d_8dd4_5524),
        (Dataset::Gnutella, 0x33d6_c035_523c_8009),
        (Dataset::ErGraph, 0x4b23_7a4d_e551_2715),
        (Dataset::BaGraph, 0x61a8_093b_c5bf_bea2),
    ];
    assert_eq!(pinned.map(|(d, _)| d), Dataset::TABLE_VI);
    let mut drifted = Vec::new();
    for (dataset, want) in pinned {
        let g = dataset.generate(0);
        for threads in BUDGETS {
            let h = pgb_par::with_parallelism(threads, || {
                let mut h = 0xCBF2_9CE4_8422_2325;
                for seed in 0..3 {
                    let p =
                        louvain(&g, &LouvainParams::default(), &mut StdRng::seed_from_u64(seed));
                    h = digest(h, &p, modularity(&g, &p));
                }
                h
            });
            if h != want {
                drifted.push(format!("{} at budget {threads}: {h:#018x}", dataset.name()));
            }
        }
    }

    // The weighted entry point on a noisy super-graph stand-in, which must
    // give the same bytes at every thread budget.
    const WEIGHTED: u64 = 0x1d15_063f_6973_4a60;
    let w = noisy_weighted_graph();
    for threads in BUDGETS {
        let h = pgb_par::with_parallelism(threads, || {
            let p = louvain_weighted(&w, &LouvainParams::default(), &mut StdRng::seed_from_u64(5));
            digest(0xCBF2_9CE4_8422_2325, &p, modularity_weighted(&w, p.labels()))
        });
        if h != WEIGHTED {
            drifted.push(format!("weighted at budget {threads}: {h:#018x}"));
        }
    }
    assert!(drifted.is_empty(), "Louvain digests drifted: {drifted:?}");
}

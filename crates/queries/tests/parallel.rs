//! Parallel ≡ sequential equivalence for the query-suite hot passes.
//!
//! The chunked passes (triangle counting via the degree-ordered forward
//! orientation, the BFS sweep, the degree histogram) must return *exactly*
//! the sequential reference's values — same integers, same float bits — at
//! every thread budget, including 1 (inline), oversubscribed (8 on any
//! machine), and 0 (reset to the ambient available-parallelism default).
//! This is the evaluation-side mirror of `pgb-core`'s generator
//! thread-invariance suite.
//!
//! The references live here, not in the production crates: [`seq`] for
//! the triangle and wedge counts, [`degree_histogram_seq`], and
//! [`path_stats_oracle`] for the path sweep, one plain BFS per source. The
//! sweep's oracle cases include graphs whose levels switch between its
//! top-down and bottom-up steps, and leaf-heavy graphs (stars, paths,
//! forests, `K2` components, isolated nodes) where it folds degree-1
//! sources into their neighbours. Its output bytes on a fixed set of
//! graphs are also pinned as digests, so a change to it cannot move Q7–Q9
//! unseen; the digests live in
//! `tests/golden/pins/path_stats_bytes_are_pinned.txt` at the workspace
//! root.

#[path = "../../../tests/support/pinned.rs"]
mod pinned;

use pgb_graph::degree::degree_histogram;
use pgb_graph::traversal::{bfs_distances_into, UNREACHABLE};
use pgb_graph::Graph;
use pgb_par::{with_parallelism, FNV_BASIS};
use pgb_queries::counting::{triangle_count, triangles_per_node, wedge_count};
use pgb_queries::path::{path_stats, PathStats};
use pgb_queries::{PathMode, Query, QueryParams, QuerySuite};
use pinned::fnv1a_std;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The budgets every pass is swept over: inline, parallel, oversubscribed,
/// and the ambient default.
const BUDGETS: [usize; 4] = [1, 2, 8, 0];

fn random_graph(n: usize, p_mille: u64, seed: u64) -> Graph {
    // Dense-ish ER graph built from a hash so the proptest case fully
    // determines it: edge {u, v} exists iff the mixed pair hash lands
    // below `p_mille`/1000.
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let mut h = seed ^ ((u as u64) << 32 | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 32;
            if h % 1000 < p_mille {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).unwrap()
}

/// A forest on `n` nodes followed by `isolated` isolated nodes, built from
/// a hash so the proptest case fully determines it: node `v > 0` starts a
/// new tree iff its hash lands below `root_mille`/1000, and otherwise
/// hangs off an earlier node picked by the same hash. Trees interleave in
/// id order, and lone roots and one-child roots leave isolated nodes and
/// `K2` components among them.
fn random_forest(n: usize, root_mille: u64, isolated: usize, seed: u64) -> Graph {
    let mut edges = Vec::new();
    for v in 1..n as u64 {
        let mut h = seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        if h % 1000 >= root_mille {
            edges.push(((h >> 10) % v, v));
        }
    }
    Graph::from_edges(n + isolated, edges.into_iter().map(|(u, v)| (u as u32, v as u32))).unwrap()
}

/// Sequential references for the triangle pass: id-ordered forward lists,
/// one thread, no chunking — the algorithm the chunked, degree-ordered
/// pass replaced.
mod seq {
    use pgb_graph::{Graph, NodeId};

    /// Calls `credit(u, v, w)` once per triangle, with `u < v < w`.
    fn for_each_triangle(g: &Graph, mut credit: impl FnMut(usize, usize, usize)) {
        // forward[u] = sorted neighbours of u that are > u.
        let forward: Vec<&[NodeId]> = g
            .nodes()
            .map(|u| {
                let nbrs = g.neighbors(u);
                &nbrs[nbrs.partition_point(|&v| v <= u)..]
            })
            .collect();
        for (u, fu) in forward.iter().enumerate() {
            for &v in *fu {
                let fv = forward[v as usize];
                let (mut i, mut j) = (0, 0);
                while i < fu.len() && j < fv.len() {
                    match fu[i].cmp(&fv[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            credit(u, v as usize, fu[i] as usize);
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
    }

    pub fn triangle_count(g: &Graph) -> u64 {
        let mut count = 0;
        for_each_triangle(g, |_, _, _| count += 1);
        count
    }

    pub fn triangles_per_node(g: &Graph) -> Vec<u64> {
        let mut t = vec![0u64; g.node_count()];
        for_each_triangle(g, |u, v, w| {
            t[u] += 1;
            t[v] += 1;
            t[w] += 1;
        });
        t
    }

    pub fn wedge_count(g: &Graph) -> u64 {
        g.nodes()
            .map(|u| {
                let d = g.degree(u) as u64;
                d * d.saturating_sub(1) / 2
            })
            .sum()
    }
}

/// Sequential reference for the degree histogram: one left-to-right pass
/// over the degree sequence.
fn degree_histogram_seq(g: &Graph) -> Vec<u64> {
    let mut hist = vec![0u64; g.max_degree() + 1];
    for d in g.degrees() {
        hist[d as usize] += 1;
    }
    hist
}

#[test]
fn matches_seq_reference_on_known_graphs() {
    for (n, edges) in [
        (6, vec![(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5)]),
        (5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]),
        (4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ] {
        let g = Graph::from_edges(n, edges).unwrap();
        assert_eq!(triangle_count(&g), seq::triangle_count(&g));
        assert_eq!(triangles_per_node(&g), seq::triangles_per_node(&g));
        assert_eq!(wedge_count(&g), seq::wedge_count(&g));
    }
}

#[test]
fn multi_chunk_triangle_pass_matches_seq_at_all_budgets() {
    // The proptest below draws graphs that fit in one pivot chunk (at
    // least 1024 pivots each). At n = 5000 the pass splits into 5 chunks,
    // so per-chunk marker and credit arrays and their chunk-order merge
    // are exercised. A hub adjacent to every third node and a 40-clique
    // add skewed forward lists and dense triangles on top of a sparse
    // random background.
    let n = 5000u32;
    let mut rng = StdRng::seed_from_u64(5000);
    let mut edges = Vec::new();
    for u in 0..n {
        for _ in 0..3 {
            edges.push((u, rng.gen_range(0..n)));
        }
    }
    edges.extend((3..n).step_by(3).map(|v| (0, v)));
    for u in 4000..4040 {
        edges.extend((u + 1..4040).map(|v| (u, v)));
    }
    let g = Graph::from_edges(n as usize, edges).unwrap();
    let seq_per_node = seq::triangles_per_node(&g);
    let seq_total = seq::triangle_count(&g);
    assert!(seq_total >= 9880, "the 40-clique alone has C(40, 3) triangles");
    for threads in BUDGETS {
        let (per_node, total) =
            with_parallelism(threads, || (triangles_per_node(&g), triangle_count(&g)));
        assert_eq!(per_node, seq_per_node, "per-node, threads = {threads}");
        assert_eq!(total, seq_total, "total, threads = {threads}");
    }
}

proptest! {
    #[test]
    fn triangle_pass_matches_seq_at_all_budgets(
        n in 2usize..120,
        p in 0u64..400,
        seed in 0u64..1 << 32,
    ) {
        let g = random_graph(n, p, seed);
        let seq_per_node = seq::triangles_per_node(&g);
        let seq_total = seq::triangle_count(&g);
        let seq_wedges = seq::wedge_count(&g);
        for threads in BUDGETS {
            let (per_node, total, wedges) = with_parallelism(threads, || {
                (triangles_per_node(&g), triangle_count(&g), wedge_count(&g))
            });
            prop_assert_eq!(&per_node, &seq_per_node, "per-node, threads = {}", threads);
            prop_assert_eq!(total, seq_total, "total, threads = {}", threads);
            prop_assert_eq!(wedges, seq_wedges, "wedges, threads = {}", threads);
        }
    }

    #[test]
    fn bfs_sweep_matches_seq_at_all_budgets(
        n in 2usize..300,
        p in 0u64..120,
        seed in 0u64..1 << 32,
        sources in 1usize..300,
    ) {
        // n and the sample size both range across several 64- and
        // 128-source batches.
        let g = random_graph(n, p, seed);
        for mode in [PathMode::Exact, PathMode::Sampled { sources }] {
            let reference = path_stats_oracle(&g, mode, &mut StdRng::seed_from_u64(seed));
            for threads in BUDGETS {
                let stats = with_parallelism(threads, || {
                    path_stats(&g, mode, &mut StdRng::seed_from_u64(seed))
                });
                prop_assert_eq!(&stats, &reference, "{:?}, threads = {}", mode, threads);
            }
        }
    }

    #[test]
    fn bfs_sweep_with_hub_and_tail_matches_seq_at_all_budgets(
        n in 2usize..200,
        p in 0u64..60,
        seed in 0u64..1 << 32,
        hub_mille in 100u64..1000,
        tail in 0u32..150,
        sources in 1usize..300,
    ) {
        // A hub adjacent to a share of the random graph makes level 1 of
        // its sources a bottom-up level; a path hanging off the hub keeps
        // later levels top-down for as long as the tail.
        let base = random_graph(n, p, seed);
        let hub = n as u32;
        let mut edges: Vec<(u32, u32)> = base.edges().collect();
        let spoke = |v: u32| ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed) % 1000 < hub_mille;
        edges.extend((0..hub).filter(|&v| spoke(v)).map(|v| (v, hub)));
        edges.extend((hub..hub + tail).map(|u| (u, u + 1)));
        let g = Graph::from_edges(n + 1 + tail as usize, edges).unwrap();
        for mode in [PathMode::Exact, PathMode::Sampled { sources }] {
            let reference = path_stats_oracle(&g, mode, &mut StdRng::seed_from_u64(seed));
            for threads in BUDGETS {
                let stats = with_parallelism(threads, || {
                    path_stats(&g, mode, &mut StdRng::seed_from_u64(seed))
                });
                prop_assert_eq!(&stats, &reference, "{:?}, threads = {}", mode, threads);
            }
        }
    }

    #[test]
    fn bfs_sweep_on_forests_matches_seq_at_all_budgets(
        n in 1usize..300,
        root_mille in 0u64..400,
        isolated in 0usize..40,
        seed in 0u64..1 << 32,
        sources in 1usize..340,
    ) {
        // Mostly degree-1 nodes: the sweep folds every leaf whose
        // neighbour is a source of degree at least 2, and drops isolated
        // sources.
        let g = random_forest(n, root_mille, isolated, seed);
        for mode in [PathMode::Exact, PathMode::Sampled { sources }] {
            let reference = path_stats_oracle(&g, mode, &mut StdRng::seed_from_u64(seed));
            for threads in BUDGETS {
                let stats = with_parallelism(threads, || {
                    path_stats(&g, mode, &mut StdRng::seed_from_u64(seed))
                });
                prop_assert_eq!(&stats, &reference, "{:?}, threads = {}", mode, threads);
            }
        }
    }

    #[test]
    fn degree_histogram_matches_seq_at_all_budgets(
        n in 1usize..200,
        p in 0u64..300,
        seed in 0u64..1 << 32,
    ) {
        let g = random_graph(n, p, seed);
        let reference = degree_histogram_seq(&g);
        for threads in BUDGETS {
            let hist = with_parallelism(threads, || degree_histogram(&g));
            prop_assert_eq!(&hist, &reference, "threads = {}", threads);
        }
    }

    #[test]
    fn evaluate_all_bit_identical_at_all_budgets(
        n in 2usize..80,
        p in 0u64..250,
        seed in 0u64..1 << 32,
    ) {
        // End-to-end over the full 15-query suite (sampled BFS so the
        // PATH stream is exercised): every QueryValue — scalars, float
        // distributions, Louvain partitions — must be identical bits at
        // every budget.
        let g = random_graph(n, p, seed);
        let params = QueryParams {
            path_mode: PathMode::Sampled { sources: 8 },
            ..QueryParams::default()
        };
        let run = |threads: usize| {
            with_parallelism(threads, || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
                let values = QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut rng);
                (values, rng.gen::<u64>())
            })
        };
        let reference = run(1);
        for threads in [2, 8, 0] {
            let got = run(threads);
            prop_assert_eq!(&got.0, &reference.0, "values drifted at threads = {}", threads);
            prop_assert_eq!(got.1, reference.1, "caller RNG position, threads = {}", threads);
        }
    }
}

/// The BFS sources for `mode` on `n` nodes, drawn as the sweep draws them:
/// all nodes, or a partial Fisher–Yates sample of `k` ids.
fn draw_sources(n: usize, mode: PathMode, rng: &mut StdRng) -> Vec<u32> {
    let mut sources: Vec<u32> = (0..n as u32).collect();
    if let PathMode::Sampled { sources: k } = mode {
        let k = k.clamp(1, n);
        for i in 0..k {
            let j = rng.gen_range(i..n);
            sources.swap(i, j);
        }
        sources.truncate(k);
    }
    sources
}

/// The reference for [`path_stats`]: one queue BFS per source into a
/// reused distance buffer, histogramming every finite non-zero distance.
/// Sources are drawn exactly as the sweep draws them (all nodes, or a
/// partial Fisher–Yates sample of `k` ids), so both consume the same RNG
/// draws.
fn path_stats_oracle(g: &Graph, mode: PathMode, rng: &mut StdRng) -> PathStats {
    let n = g.node_count();
    let empty = PathStats { diameter: 0, average_length: 0.0, distance_distribution: vec![0.0] };
    if n == 0 {
        return empty;
    }
    let sources = draw_sources(n, mode, rng);
    let mut hist: Vec<u64> = Vec::new();
    let mut dist = Vec::new();
    for &s in &sources {
        bfs_distances_into(g, s, &mut dist);
        for &d in &dist {
            if d == UNREACHABLE || d == 0 {
                continue;
            }
            if d as usize >= hist.len() {
                hist.resize(d as usize + 1, 0);
            }
            hist[d as usize] += 1;
        }
    }
    let pairs: u64 = hist.iter().sum();
    if pairs == 0 {
        return empty;
    }
    let total: u128 = hist.iter().enumerate().map(|(d, &c)| d as u128 * c as u128).sum();
    PathStats {
        diameter: hist.len() as u32 - 1,
        average_length: total as f64 / pairs as f64,
        distance_distribution: hist.iter().map(|&c| c as f64 / pairs as f64).collect(),
    }
}

/// Asserts the sweep equals [`path_stats_oracle`] on `g` in `mode`, at
/// every budget, including the caller RNG position afterwards.
fn assert_sweep_matches_oracle(g: &Graph, mode: PathMode, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = (path_stats_oracle(g, mode, &mut rng), rng.gen::<u64>());
    for threads in BUDGETS {
        let got = with_parallelism(threads, || {
            let mut rng = StdRng::seed_from_u64(seed);
            (path_stats(g, mode, &mut rng), rng.gen::<u64>())
        });
        assert_eq!(got, reference, "n = {}, {mode:?}, threads = {threads}", g.node_count());
    }
}

/// A path on `n` nodes (diameter `n - 1`).
fn path_graph(n: usize) -> Graph {
    pgb_models::grid_graph(1, n)
}

#[test]
fn sweep_matches_oracle_across_lane_boundaries() {
    // Source counts on either side of 64, 128 and 256 (one and two
    // batches of 64 or 128 lanes), both as Exact sweeps over exactly that
    // many nodes and as sampled sweeps over a larger graph.
    let mut rng = StdRng::seed_from_u64(313);
    let big = pgb_models::erdos_renyi_gnp(400, 0.01, &mut rng);
    for k in [63usize, 64, 65, 127, 128, 129, 255, 256, 257] {
        let g = pgb_models::erdos_renyi_gnp(k, 0.04, &mut rng);
        assert_sweep_matches_oracle(&g, PathMode::Exact, k as u64);
        assert_sweep_matches_oracle(&big, PathMode::Sampled { sources: k }, k as u64);
    }
    let g = pgb_models::erdos_renyi_gnp(150, 0.04, &mut rng);
    for mode in [PathMode::Exact, PathMode::Sampled { sources: 17 }] {
        assert_sweep_matches_oracle(&g, mode, 9);
    }
}

#[test]
fn sweep_matches_oracle_when_diameter_exceeds_lanes() {
    // Levels outnumber the lanes of a batch, so the sweep runs many more
    // levels than it has sources in flight.
    for n in [129usize, 300] {
        let g = path_graph(n);
        assert_sweep_matches_oracle(&g, PathMode::Exact, 1);
        assert_sweep_matches_oracle(&g, PathMode::Sampled { sources: 3 }, 2);
    }
    let ring = Graph::from_edges(257, (0..257u32).map(|u| (u, (u + 1) % 257))).unwrap();
    assert_sweep_matches_oracle(&ring, PathMode::Exact, 3);
}

#[test]
fn sweep_matches_oracle_on_graphs_smaller_than_a_batch() {
    for n in [1usize, 2, 5, 31] {
        let g = path_graph(n);
        assert_sweep_matches_oracle(&g, PathMode::Exact, 4);
        assert_sweep_matches_oracle(&g, PathMode::Sampled { sources: 64 }, 5);
    }
    let star = Graph::from_edges(9, (1..9u32).map(|v| (0, v))).unwrap();
    assert_sweep_matches_oracle(&star, PathMode::Exact, 6);
    assert_sweep_matches_oracle(&Graph::new(7), PathMode::Exact, 7);
}

/// A `k`-clique on nodes `0..k` with a path of `tail` more nodes hanging
/// off node `k - 1`.
fn clique_with_tail(k: u32, tail: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..k).flat_map(|u| (u + 1..k).map(move |v| (u, v))).collect();
    edges.extend((k - 1..k - 1 + tail).map(|u| (u, u + 1)));
    Graph::from_edges((k + tail) as usize, edges).unwrap()
}

#[test]
fn sweep_matches_oracle_when_levels_switch_direction() {
    // Sources in the clique see a frontier that holds most of the edges
    // at level 1 (a bottom-up level), then a one-node frontier for the
    // length of the tail (top-down again).
    let g = clique_with_tail(60, 200);
    assert_sweep_matches_oracle(&g, PathMode::Exact, 10);
    for k in [1usize, 127, 128, 129] {
        assert_sweep_matches_oracle(&g, PathMode::Sampled { sources: k }, k as u64);
    }
}

#[test]
fn sweep_matches_oracle_when_lanes_never_fill() {
    // Two components and isolated nodes: no batch lane ever reaches every
    // node, so bottom-up levels keep scanning nodes that stay unfinished.
    let mut rng = StdRng::seed_from_u64(315);
    let a = pgb_models::barabasi_albert(150, 4, &mut rng);
    let b = clique_with_tail(25, 40);
    // Nodes 0..150 are the BA graph, 150..215 the clique and its tail,
    // 215..225 isolated.
    let mut edges: Vec<(u32, u32)> = a.edges().collect();
    edges.extend(b.edges().map(|(u, v)| (u + 150, v + 150)));
    let g = Graph::from_edges(225, edges).unwrap();
    assert_sweep_matches_oracle(&g, PathMode::Exact, 11);
    for k in [1usize, 127, 128, 129] {
        assert_sweep_matches_oracle(&g, PathMode::Sampled { sources: k }, k as u64);
    }
}

/// Disjoint union of `parts`, relabelled one after another.
fn disjoint_union(parts: &[Graph]) -> Graph {
    let mut edges = Vec::new();
    let mut offset = 0;
    for g in parts {
        edges.extend(g.edges().map(|(u, v)| (u + offset, v + offset)));
        offset += g.node_count() as u32;
    }
    Graph::from_edges(offset as usize, edges).unwrap()
}

/// Whether `sample` holds a degree-1 node whose neighbour has degree at
/// least 2 and is (`with`) or is not (`!with`) in `sample` too.
fn samples_leaf_with_neighbour(g: &Graph, sample: &[u32], with: bool) -> bool {
    sample.iter().any(|&v| {
        g.degree(v) == 1 && {
            let u = g.neighbors(v)[0];
            g.degree(u) >= 2 && sample.contains(&u) == with
        }
    })
}

#[test]
fn sweep_matches_oracle_on_leafy_graphs() {
    // Isolated nodes (empty rows); K2 components, whose two degree-1 ends
    // must not fold into each other; a star with 300 leaves, whose centre
    // carries a fold count of 300 in 9 weight planes; paths, where a
    // leaf's neighbour has degree 2; and a forest of small trees.
    let k2s = Graph::from_edges(13, (0..5u32).map(|i| (2 * i, 2 * i + 1))).unwrap();
    let star = Graph::from_edges(301, (1..301u32).map(|v| (0, v))).unwrap();
    let paths = disjoint_union(&[path_graph(3), path_graph(4), path_graph(10)]);
    let forest = random_forest(200, 150, 0, 27);
    let all =
        disjoint_union(&[Graph::new(4), k2s.clone(), star.clone(), paths.clone(), forest.clone()]);
    let graphs = [
        ("isolated", Graph::new(6)),
        ("k2s", k2s),
        ("star", star),
        ("paths", paths),
        ("forest", forest),
        ("all", all),
    ];
    for (name, g) in &graphs {
        let n = g.node_count();
        assert_sweep_matches_oracle(g, PathMode::Exact, 12);
        // Sampled: a leaf sampled with its neighbour (it folds) and
        // without it (it keeps its lane), where the graph has such leaves.
        let mode = PathMode::Sampled { sources: n.div_ceil(2) };
        if !g.nodes().any(|v| g.degree(v) == 1 && g.degree(g.neighbors(v)[0]) >= 2) {
            assert_sweep_matches_oracle(g, mode, 13);
            continue;
        }
        for with in [true, false] {
            let seed = (0..200u64).find(|&seed| {
                let sample = draw_sources(n, mode, &mut StdRng::seed_from_u64(seed));
                samples_leaf_with_neighbour(g, &sample, with)
            });
            let seed =
                seed.unwrap_or_else(|| panic!("{name}: no seed samples a leaf with = {with}"));
            assert_sweep_matches_oracle(g, mode, seed);
        }
    }
}

/// Digest of the three path statistics' bits plus the caller RNG's next
/// draw (which pins how many draws source sampling consumed).
fn path_digest(s: &PathStats, next_draw: u64) -> u64 {
    let mut h = fnv1a_std(FNV_BASIS, &s.diameter.to_le_bytes());
    h = fnv1a_std(h, &s.average_length.to_bits().to_le_bytes());
    for p in &s.distance_distribution {
        h = fnv1a_std(h, &p.to_bits().to_le_bytes());
    }
    fnv1a_std(h, &next_draw.to_le_bytes())
}

/// The graphs whose Q7–Q9 bytes are pinned: a BA graph, a sparse ER graph
/// (several components), a 300-node path, and a disjoint union of
/// isolated nodes, a BA graph and a path.
fn pinned_graphs() -> [(&'static str, Graph); 4] {
    let ba = pgb_models::barabasi_albert(400, 3, &mut StdRng::seed_from_u64(1));
    let er = pgb_models::erdos_renyi_gnp(300, 0.008, &mut StdRng::seed_from_u64(2));
    let small_ba = pgb_models::barabasi_albert(120, 2, &mut StdRng::seed_from_u64(3));
    // Nodes 0..15 are isolated, 15..135 the BA graph, 135..185 a path.
    let mut edges: Vec<(u32, u32)> = small_ba.edges().map(|(u, v)| (u + 15, v + 15)).collect();
    edges.extend((135..184u32).map(|u| (u, u + 1)));
    let union = Graph::from_edges(185, edges).unwrap();
    [("ba400", ba), ("er300", er), ("path300", path_graph(300)), ("union185", union)]
}

const PINNED_MODES: [PathMode; 5] = [
    PathMode::Exact,
    PathMode::Sampled { sources: 1 },
    PathMode::Sampled { sources: 64 },
    PathMode::Sampled { sources: 65 },
    PathMode::Sampled { sources: 200 },
];

/// A pin name's label for `mode`.
fn mode_label(mode: PathMode) -> String {
    match mode {
        PathMode::Exact => "exact".to_string(),
        PathMode::Sampled { sources } => format!("sampled{sources}"),
    }
}

/// Digests of [`path_stats`] on [`pinned_graphs`] × [`PINNED_MODES`] at
/// every budget. The pins were taken from the per-source sweep this crate
/// shipped before the bit-parallel one; they must never move.
#[test]
fn path_stats_bytes_are_pinned() {
    let mut got = Vec::new();
    for (name, g) in pinned_graphs() {
        for mode in PINNED_MODES {
            for threads in BUDGETS {
                let d = with_parallelism(threads, || {
                    let mut rng = StdRng::seed_from_u64(2408);
                    let s = path_stats(&g, mode, &mut rng);
                    path_digest(&s, rng.gen::<u64>())
                });
                got.push((format!("{name}/{}", mode_label(mode)), d));
            }
        }
    }
    pinned::assert_pinned("path_stats_bytes_are_pinned", &got);
}

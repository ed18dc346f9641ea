//! dK-series constructors (Mahadevan et al., SIGCOMM 2006) — DP-dK's
//! construction stage.
//!
//! * dK-1 targets a degree *histogram* and realises it with Havel–Hakimi.
//! * dK-2 targets a *joint degree distribution* (JDD): the number of edges
//!   between nodes of degree `k1` and degree `k2`. The constructor places
//!   stub-endpoints per degree class and wires JDD entries with collision
//!   retries; realisation is approximate for noisy (inconsistent) targets,
//!   like the reference generator's.
//!
//! Both constructors return the realisation as a node count and an edge
//! list rather than a graph: the noisy target fixes the node count, which
//! DP-dK then conforms to the input's before it builds the one graph.

use crate::havel_hakimi::havel_hakimi;
use crate::sampling::PairSet;
use pgb_graph::degree::{histogram_from_jdd, sequence_from_histogram, JointDegreeDistribution};
use pgb_graph::NodeId;
use rand::Rng;

/// A realised dK target: its node count and its edges (each once, none a
/// self-loop, every id below the count).
pub type Realisation = (usize, Vec<(NodeId, NodeId)>);

/// Realises a dK-1 target (degree histogram) with Havel–Hakimi. Histogram
/// entry `hist[d]` is the number of nodes wanting degree `d`.
pub fn dk1_construct(hist: &[u64]) -> Realisation {
    let seq = sequence_from_histogram(hist);
    (seq.len(), havel_hakimi(&seq))
}

/// Maximum wiring attempts per requested edge before it is abandoned.
const DK2_RETRIES: usize = 12;

/// Realises a dK-2 target (joint degree distribution).
///
/// Node counts per degree class come from [`histogram_from_jdd`]; each JDD
/// entry `((k1, k2), c)` then draws `c` edges between stub-bearing nodes of
/// the two classes, rejecting self-loops, duplicate edges, and exhausted
/// stubs. Inconsistent (noisy) targets realise partially.
pub fn dk2_construct<R: Rng + ?Sized>(jdd: &JointDegreeDistribution, rng: &mut R) -> Realisation {
    let hist = histogram_from_jdd(jdd);
    let n: u64 = hist.iter().sum();
    if n == 0 {
        return (0, Vec::new());
    }
    // Assign node ids to degree classes in ascending-degree order.
    let mut class_members: Vec<Vec<NodeId>> = vec![Vec::new(); hist.len()];
    let mut remaining_stubs: Vec<u32> = vec![0; n as usize];
    let mut next_id: NodeId = 0;
    for (d, &count) in hist.iter().enumerate() {
        for _ in 0..count {
            class_members[d].push(next_id);
            remaining_stubs[next_id as usize] = d as u32;
            next_id += 1;
        }
    }
    // Wire larger degree pairs first: they are the hardest to place.
    let mut entries: Vec<(&(u32, u32), &u64)> = jdd.iter().collect();
    entries.sort_unstable_by(|a, b| {
        (b.0 .0 as u64 + b.0 .1 as u64).cmp(&(a.0 .0 as u64 + a.0 .1 as u64)).then(a.0.cmp(b.0))
    });

    let total_edges: u64 = jdd.values().sum();
    let mut edges = Vec::with_capacity(total_edges as usize);
    let mut placed = PairSet::with_capacity(total_edges as usize * 2);
    // cursor[c] — no member of class c before this index has stubs left.
    // Stubs only decrease, so the fallback scan resumes there.
    let mut cursor: Vec<usize> = vec![0; class_members.len()];
    let pick = |c: usize, cursor: &mut [usize], stubs: &[u32], rng: &mut R| -> Option<NodeId> {
        // A few uniform probes; then a linear scan fallback.
        let class = &class_members[c];
        for _ in 0..DK2_RETRIES {
            let u = class[rng.gen_range(0..class.len())];
            if stubs[u as usize] > 0 {
                return Some(u);
            }
        }
        let skip = class[cursor[c]..].iter().take_while(|&&u| stubs[u as usize] == 0).count();
        cursor[c] += skip;
        class.get(cursor[c]).copied()
    };
    for (&(k1, k2), &count) in entries {
        let (c1, c2) = (k1 as usize, k2 as usize);
        if c1 >= class_members.len() || c2 >= class_members.len() {
            continue;
        }
        if class_members[c1].is_empty() || class_members[c2].is_empty() {
            continue;
        }
        for _ in 0..count {
            let mut wired = false;
            for _ in 0..DK2_RETRIES {
                let Some(u) = pick(c1, &mut cursor, &remaining_stubs, rng) else { break };
                let Some(v) = pick(c2, &mut cursor, &remaining_stubs, rng) else { break };
                if u == v {
                    if class_members[c1].len() == 1 && c1 == c2 {
                        break; // a single node cannot host an intra-class edge
                    }
                    continue;
                }
                let key = if u < v { (u, v) } else { (v, u) };
                if placed.insert(key.0, key.1) {
                    remaining_stubs[u as usize] -= 1;
                    remaining_stubs[v as usize] -= 1;
                    edges.push(key);
                    wired = true;
                    break;
                }
            }
            if !wired {
                // Out of stubs or saturated class pair: abandon the rest of
                // this entry (further attempts would also fail).
                break;
            }
        }
    }
    (n as usize, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::degree::{degree_histogram, joint_degree_distribution};
    use pgb_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A realisation, built.
    fn built((n, edges): Realisation) -> Graph {
        Graph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn dk1_realises_histogram() {
        // 4 nodes of degree 1, 2 of degree 2: e.g. two paths of 3 nodes.
        let g = built(dk1_construct(&[0, 4, 2]));
        let hist = degree_histogram(&g);
        assert_eq!(hist, vec![0, 4, 2]);
    }

    #[test]
    fn dk2_roundtrip_on_regular_graph() {
        let mut rng = StdRng::seed_from_u64(100);
        // A 6-cycle: JDD is {(2,2): 6}.
        let mut jdd = JointDegreeDistribution::new();
        jdd.insert((2, 2), 6);
        let g = built(dk2_construct(&jdd, &mut rng));
        assert_eq!(g.node_count(), 6);
        // Every realised edge joins degree-≤2 nodes; most of the 6 edges place.
        assert!(g.edge_count() >= 5, "placed {}", g.edge_count());
        assert!(g.check_invariants());
    }

    #[test]
    fn dk2_roundtrip_on_star() {
        let mut rng = StdRng::seed_from_u64(101);
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let jdd = joint_degree_distribution(&star);
        let g = built(dk2_construct(&jdd, &mut rng));
        let out = joint_degree_distribution(&g);
        assert_eq!(out.get(&(1, 4)).copied().unwrap_or(0), 4, "JDD {out:?}");
    }

    #[test]
    fn dk2_approximates_mixed_graph() {
        let mut rng = StdRng::seed_from_u64(102);
        let g0 = crate::er::erdos_renyi_gnp(200, 0.05, &mut rng);
        let jdd = joint_degree_distribution(&g0);
        let g1 = built(dk2_construct(&jdd, &mut rng));
        // Node and edge totals are approximately preserved.
        let m0 = g0.edge_count() as f64;
        let m1 = g1.edge_count() as f64;
        assert!((m1 - m0).abs() / m0 < 0.15, "m0 {m0} m1 {m1}");
        assert!((g1.node_count() as f64 - 200.0).abs() < 30.0, "n1 {}", g1.node_count());
    }

    #[test]
    fn dk2_empty_target() {
        let mut rng = StdRng::seed_from_u64(103);
        let g = built(dk2_construct(&JointDegreeDistribution::new(), &mut rng));
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn dk2_inconsistent_target_degrades_gracefully() {
        let mut rng = StdRng::seed_from_u64(104);
        // One edge between degree-5 nodes implies 2/5 of a node per class —
        // the rounded histogram has no degree-5 nodes at all, so the entry
        // must be skipped rather than looping or panicking.
        let mut jdd = JointDegreeDistribution::new();
        jdd.insert((5, 5), 1);
        let g = built(dk2_construct(&jdd, &mut rng));
        assert!(g.check_invariants());
        assert_eq!(g.edge_count(), 0);

        // A perfect matching target realises fully: 100 degree-1 nodes.
        let mut jdd = JointDegreeDistribution::new();
        jdd.insert((1, 1), 50);
        let g = built(dk2_construct(&jdd, &mut rng));
        assert_eq!(g.node_count(), 100);
        assert!(g.edge_count() >= 49, "placed {}", g.edge_count());
    }
}

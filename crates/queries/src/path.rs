//! Path-condition queries: diameter (Q7), average shortest path (Q8), and
//! the distance distribution (Q9), computed in one BFS sweep.
//!
//! The sweep is a bit-parallel multi-source BFS (MS-BFS; Then et al., "The
//! More the Merrier", PVLDB 8(4), 2014). Sources are taken in batches of
//! one lane word's width, and bit `i` of a lane word stands for the
//! batch's `i`-th source, so one pass over a level advances every BFS of
//! the batch at once. The word is sized by the number of sources given
//! lanes:
//!
//! * 64 or fewer: a `u64` word. The 64-source samples of graphs above the
//!   harness's exact limit need no wider one, and at 10⁷ nodes each of the
//!   batch's three lane arrays costs 8 B a node.
//! * More: a 256-lane `[u64; 4]` word. An Exact sweep (at most 5,000 nodes
//!   in the harness, so its arrays stay small) then runs half as many
//!   batches as with 128-lane words, and so half as many passes over each
//!   level's edges.
//!
//! A batch keeps three dense lane arrays:
//!
//! * `seen[v]` — the sources that have reached `v`;
//! * `visit[v]` — the sources that first reached `v` at level `d`, and
//!   the frontier list of the nodes whose `visit` word is not zero;
//! * `next[v]` — the sources that first reach `v` at level `d + 1`.
//!
//! Each level is direction-optimising (Beamer, Asanović & Patterson,
//! "Direction-Optimizing Breadth-First Search", SC 2012). A top-down step
//! pushes each frontier node's `visit` word to its neighbours, so it reads
//! only the frontier's edges. A bottom-up step has every node that still
//! misses a lane OR its neighbours' `visit` words, stopping once it has
//! found every missing lane, so it wins once the frontier holds most of
//! the edges left to read. The level goes bottom-up once the frontier's
//! edge volume times `ALPHA` exceeds the edge volume of the nodes still
//! missing a lane. Both steps leave the same `next` words, and level `d`
//! adds the popcount of its newly seen bits to `hist[d]`. The histogram is
//! the sweep's only result: the pair count, the distance total and the
//! diameter all derive from it.
//!
//! Lanes go only to sources whose rows (distance counts) the sweep cannot
//! derive:
//!
//! * When the sources fill more than one batch, components are labelled
//!   once per call (a `u32` per node), and the sources are ordered by
//!   component and, within one, in the order the labelling BFS met them,
//!   so a batch's sources lie close together. A node "misses" a lane only
//!   if the lane's source shares its component: the batch keeps one mask
//!   per component it covers, and nodes outside all of them start
//!   finished, so bottom-up levels skip them and the switch rule does not
//!   count their volume. A single batch (as in the 64-source sample, or an
//!   Exact sweep of at most 256 lanes) skips the labelling BFS, which would
//!   cost it more than the masks save.
//! * Isolated sources are dropped: their rows are empty.
//! * A degree-1 source `v` whose neighbour `u` is a source of degree ≥ 2
//!   is folded into `u` (Sariyüce et al., "Graph Manipulations for Fast
//!   Centrality Computation", ACM TKDD 2017). Every path from `v` runs
//!   through `u`, so `row(v)[d + 1] = row(u)[d]` for all `d ≥ 0`, less
//!   the one count at distance 2 that is `v` itself. A batch holds each
//!   anchor's fold count as bit-plane lane masks, and level `d` adds
//!   `Σ_j 2^j · popcount(new & plane_j)` to `hist[d + 1]`.
//!
//! The source list is sampled first (the BFS itself is deterministic, so
//! no per-source randomness exists), and batches are the chunks of one
//! [`pgb_par::par_fold_chunks`] call, their histograms merged in source
//! order. Every merged quantity is an exact integer, so [`path_stats`] is
//! bit-identical at any [`pgb_par::current_parallelism`] budget, in either
//! direction and whichever sources are folded or batched together; the
//! two ratios (`average_length`, the normalised distribution) are computed
//! once from the merged histogram. A batch's lane arrays (`3 · n` words)
//! and node lists live only while the batch runs: the accumulator parked
//! for the merge is the histogram alone.

use crate::PathMode;
use pgb_graph::Graph;
use rand::Rng;

/// A node's lane word: bit `i` belongs to the `i`-th source of a batch.
/// The sweep needs only these few operations of it.
trait Lanes: Copy + Eq + Send + Sync {
    /// Sources per batch, and so per `par_fold_chunks` chunk.
    const WIDTH: usize;
    /// The word with no lane set.
    const ZERO: Self;
    /// The word with only lane `i` set.
    fn bit(i: usize) -> Self;
    fn and(self, other: Self) -> Self;
    fn or(self, other: Self) -> Self;
    fn not(self) -> Self;
    fn count_ones(self) -> u32;
}

impl Lanes for u64 {
    const WIDTH: usize = u64::BITS as usize;
    const ZERO: Self = 0;
    fn bit(i: usize) -> Self {
        1 << i
    }
    fn and(self, other: Self) -> Self {
        self & other
    }
    fn or(self, other: Self) -> Self {
        self | other
    }
    fn not(self) -> Self {
        !self
    }
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
}

impl Lanes for [u64; 4] {
    const WIDTH: usize = 256;
    const ZERO: Self = [0; 4];
    fn bit(i: usize) -> Self {
        let mut w = [0; 4];
        w[i / 64] = 1 << (i % 64);
        w
    }
    fn and(self, other: Self) -> Self {
        std::array::from_fn(|k| self[k] & other[k])
    }
    fn or(self, other: Self) -> Self {
        std::array::from_fn(|k| self[k] | other[k])
    }
    fn not(self) -> Self {
        self.map(|x| !x)
    }
    fn count_ones(self) -> u32 {
        self.iter().map(|x| x.count_ones()).sum()
    }
}

/// A level runs bottom-up once its frontier's edge volume times `ALPHA`
/// exceeds the edge volume of the nodes still missing a lane.
const ALPHA: u64 = 2;

/// The component label of a node no source's BFS reaches: an isolated
/// node, or one in a component without a source.
const UNLABELLED: u32 = u32::MAX;

/// The three path statistics, bundled because they share the BFS sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStats {
    /// Largest finite distance observed (diameter of the covered pairs).
    pub diameter: u32,
    /// Mean distance over reachable (ordered) pairs.
    pub average_length: f64,
    /// Normalised histogram of pairwise distances, indexed by distance
    /// (entry 0 is always 0 — a node is at distance 0 only from itself,
    /// which is excluded).
    pub distance_distribution: Vec<f64>,
}

/// Computes the path statistics of `g`.
///
/// * [`PathMode::Exact`] sweeps every source: exact values from at most
///   `⌈n / 256⌉` batches, each reading a node's edges at most once per
///   level — `O(m · diameter)` word operations per batch, against
///   `O(256 · m)` for one BFS per source, and far fewer where bottom-up
///   levels stop early or leaves fold into their neighbours.
/// * [`PathMode::Sampled`] sweeps a uniform source sample: each BFS still
///   reaches all nodes, so the estimators are unbiased for the average and
///   the distribution, and the diameter is a lower bound (the standard
///   trade-off the harness documents for its large graphs). A leaf folds
///   only when its neighbour was sampled too.
pub fn path_stats<R: Rng + ?Sized>(g: &Graph, mode: PathMode, rng: &mut R) -> PathStats {
    let n = g.node_count();
    if n == 0 {
        return PathStats { diameter: 0, average_length: 0.0, distance_distribution: vec![0.0] };
    }
    let mut sources = sample_sources(n, mode, rng);
    sources.sort_unstable();
    let swept: Vec<u32> =
        sources.iter().copied().filter(|&v| g.degree(v) > 0 && !folds(g, &sources, v)).collect();
    let mut hist = if swept.len() <= u64::WIDTH {
        sweep::<u64>(g, &sources, swept)
    } else {
        sweep::<[u64; 4]>(g, &sources, swept)
    };
    while hist.last() == Some(&0) {
        hist.pop();
    }
    finalize(&hist)
}

/// The distance histogram of the sources in `swept` (the non-isolated,
/// unfolded members of the sorted `sources`), batched `W::WIDTH` at a
/// time.
fn sweep<W: Lanes>(g: &Graph, sources: &[u32], mut swept: Vec<u32>) -> Vec<u64> {
    let label = if swept.len() <= W::WIDTH {
        // One batch: its masks would only spare bottom-up levels the nodes
        // outside its sources' components, which saves less than the
        // labelling BFS costs. Every node takes all of the batch's lanes.
        vec![0; g.node_count()]
    } else {
        // The labelling BFS meets only non-isolated sources.
        let (label, met) = label_components(g, sources);
        swept = met.into_iter().filter(|&v| !folds(g, sources, v)).collect();
        label
    };
    pgb_par::par_fold_chunks(
        swept.len(),
        W::WIDTH,
        Vec::new,
        |hist, range| add_batch::<W>(g, &label, sources, &swept[range], hist),
        |hist, other| {
            if other.len() > hist.len() {
                hist.resize(other.len(), 0);
            }
            for (h, o) in hist.iter_mut().zip(other) {
                *h += o;
            }
        },
    )
}

/// Whether `v` is a source folded into its neighbour: `v` has degree 1,
/// and both it and its neighbour, of degree at least 2, are sources
/// (`sources` is sorted). The two degree-1 ends of a `K2` component never
/// fold into each other.
fn folds(g: &Graph, sources: &[u32], v: u32) -> bool {
    if g.degree(v) != 1 {
        return false;
    }
    let u = g.neighbors(v)[0];
    g.degree(u) >= 2 && sources.binary_search(&u).is_ok() && sources.binary_search(&v).is_ok()
}

/// Labels `0, 1, …` the components that hold a non-isolated source, in
/// the order of their smallest source (`sources` is sorted); every other
/// node stays [`UNLABELLED`]. Also returns the non-isolated sources in the
/// order the labelling BFS met them: grouped by component, in label order,
/// so a batch's sources lie close together and its nodes find all their
/// lanes in fewer levels.
fn label_components(g: &Graph, sources: &[u32]) -> (Vec<u32>, Vec<u32>) {
    // Unvisited sources carry SOURCE until the BFS labels them.
    const SOURCE: u32 = UNLABELLED - 1;
    let mut label = vec![UNLABELLED; g.node_count()];
    for &s in sources {
        if g.degree(s) > 0 {
            label[s as usize] = SOURCE;
        }
    }
    let mut met = Vec::new();
    let mut queue: Vec<u32> = Vec::new();
    let mut next = 0;
    for &s in sources {
        if label[s as usize] != SOURCE {
            continue; // isolated, or labelled from an earlier source
        }
        label[s as usize] = next;
        met.push(s);
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in g.neighbors(u) {
                let l = &mut label[v as usize];
                if *l >= SOURCE {
                    if *l == SOURCE {
                        met.push(v);
                    }
                    *l = next;
                    queue.push(v);
                }
            }
        }
        next += 1;
    }
    (label, met)
}

/// The lanes of a batch that can reach each node: a node misses exactly
/// the lanes whose sources share its component.
struct ComponentMasks<'a, W> {
    label: &'a [u32],
    /// The label of the batch's first component.
    first: u32,
    /// `masks[c]` — the lanes whose source is in component `first + c`.
    masks: Vec<W>,
}

impl<'a, W: Lanes> ComponentMasks<'a, W> {
    /// The masks of `batch`, whose sources are ordered by component, so
    /// it covers a run of consecutive labels.
    fn new(label: &'a [u32], batch: &[u32]) -> Self {
        let first = label[batch[0] as usize];
        let last = label[batch[batch.len() - 1] as usize];
        let mut masks = vec![W::ZERO; (last - first) as usize + 1];
        for (lane, &s) in batch.iter().enumerate() {
            let m = &mut masks[(label[s as usize] - first) as usize];
            *m = m.or(W::bit(lane));
        }
        ComponentMasks { label, first, masks }
    }

    /// The lanes of component `c`, or none outside the batch.
    fn of_label(&self, c: u32) -> W {
        self.masks.get(c.wrapping_sub(self.first) as usize).copied().unwrap_or(W::ZERO)
    }

    /// The lanes that reach `v` by the end of the batch.
    fn full(&self, v: u32) -> W {
        self.of_label(self.label[v as usize])
    }
}

/// Runs one MS-BFS from `batch` (at most `W::WIDTH` distinct sources,
/// ordered by component) and adds to `hist[d]`, for every `d ≥ 1`, the
/// number of (source, node) pairs at distance `d`, including the pairs of
/// the sources folded into the batch's (`sources` is the sorted source
/// list).
///
/// Each level takes whichever step reads fewer edges: [`top_down`] while
/// the frontier's edge volume times [`ALPHA`] is at most the volume of
/// the nodes still missing a lane, [`bottom_up`] past that. Both leave the
/// same `next` words, so the histogram does not depend on the choice.
///
/// `par_fold_chunks` calls its fold from two places (its one-worker loop
/// and its workers). Inlined into both, the two copies compiled
/// differently, and the one-worker copy of the 256-lane batch ran about
/// 2.5 times slower than the workers' on a baseline x86-64 build (Xeon).
/// Out of line, the batch and its two steps compile once per word.
#[inline(never)]
fn add_batch<W: Lanes>(
    g: &Graph,
    label: &[u32],
    sources: &[u32],
    batch: &[u32],
    hist: &mut Vec<u64>,
) {
    debug_assert!(!batch.is_empty() && batch.len() <= W::WIDTH);
    let n = g.node_count();
    let masks = ComponentMasks::<W>::new(label, batch);
    let degree = |v: u32| g.degree(v) as u64;
    // planes[j] — the lanes whose source has bit j set in its fold count.
    let mut planes: Vec<W> = Vec::new();
    let mut folded = 0;
    for (lane, &s) in batch.iter().enumerate() {
        let w = g.neighbors(s).iter().filter(|&&v| folds(g, sources, v)).count();
        folded += w as u64;
        let bits = (usize::BITS - w.leading_zeros()) as usize;
        if planes.len() < bits {
            planes.resize(bits, W::ZERO);
        }
        for (j, plane) in planes.iter_mut().enumerate() {
            if w >> j & 1 == 1 {
                *plane = plane.or(W::bit(lane));
            }
        }
    }
    let mut seen = vec![W::ZERO; n];
    let mut visit = vec![W::ZERO; n];
    let mut next = vec![W::ZERO; n];
    let mut frontier: Vec<u32> = Vec::with_capacity(batch.len());
    let mut reached: Vec<u32> = Vec::new();
    let mut frontier_volume = 0;
    let mut unfinished_volume: u64 =
        (0..n as u32).filter(|&v| masks.full(v) != W::ZERO).map(degree).sum();
    for (lane, &s) in batch.iter().enumerate() {
        seen[s as usize] = W::bit(lane);
        visit[s as usize] = W::bit(lane);
        frontier.push(s);
        frontier_volume += degree(s);
        if seen[s as usize] == masks.full(s) {
            unfinished_volume -= degree(s);
        }
    }
    // A folded source is at distance 1 from its anchor.
    add(hist, 1, folded);
    // No node lies past distance n - 1, so neither does any level.
    for d in 1..n {
        if frontier_volume * ALPHA > unfinished_volume {
            bottom_up(g, &masks, &seen, &visit, &mut next, &mut reached);
        } else {
            top_down(g, &frontier, &seen, &visit, &mut next, &mut reached);
        }
        if reached.is_empty() {
            break;
        }
        // Clear this level's words, so that after the swap `next` is all
        // zero and `visit` holds exactly the new frontier's words.
        for &u in &frontier {
            visit[u as usize] = W::ZERO;
        }
        std::mem::swap(&mut visit, &mut next);
        std::mem::swap(&mut frontier, &mut reached);
        reached.clear();
        let mut count = 0;
        let mut shifted = 0;
        frontier_volume = 0;
        for &v in &frontier {
            let new = visit[v as usize];
            let s = &mut seen[v as usize];
            *s = s.or(new);
            if *s == masks.full(v) {
                unfinished_volume -= degree(v);
            }
            frontier_volume += degree(v);
            count += u64::from(new.count_ones());
            for (j, &plane) in planes.iter().enumerate() {
                shifted += u64::from(new.and(plane).count_ones()) << j;
            }
        }
        add(hist, d, count);
        add(hist, d + 1, shifted);
    }
    // Each folded source met itself at distance 2, through its anchor.
    if folded > 0 {
        hist[2] -= folded;
    }
}

/// Adds `count` to `hist[d]`, growing `hist` as needed.
fn add(hist: &mut Vec<u64>, d: usize, count: u64) {
    if hist.len() <= d {
        hist.resize(d + 1, 0);
    }
    hist[d] += count;
}

/// One top-down level: every frontier node `u` pushes its `visit` word to
/// its neighbours, keeping the lanes a neighbour has not seen. Each node
/// that gains its first `next` bit is appended to `reached`.
#[inline(never)]
fn top_down<W: Lanes>(
    g: &Graph,
    frontier: &[u32],
    seen: &[W],
    visit: &[W],
    next: &mut [W],
    reached: &mut Vec<u32>,
) {
    for &u in frontier {
        let bits = visit[u as usize];
        for &v in g.neighbors(u) {
            let new = bits.and(seen[v as usize].not());
            if new != W::ZERO {
                let w = &mut next[v as usize];
                if *w == W::ZERO {
                    reached.push(v);
                }
                *w = w.or(new);
            }
        }
    }
}

/// One bottom-up level: every node missing some of its component's lanes
/// ORs its neighbours' `visit` words, stopping as soon as it has found
/// every missing lane, and keeps the missing ones. Nodes that find a lane
/// are appended to `reached` in id order.
#[inline(never)]
fn bottom_up<W: Lanes>(
    g: &Graph,
    masks: &ComponentMasks<W>,
    seen: &[W],
    visit: &[W],
    next: &mut [W],
    reached: &mut Vec<u32>,
) {
    for (v, (&c, &s)) in masks.label.iter().zip(seen).enumerate() {
        let missing = masks.of_label(c).and(s.not());
        if missing == W::ZERO {
            continue;
        }
        let mut found = W::ZERO;
        for &u in g.neighbors(v as u32) {
            found = found.or(visit[u as usize]);
            if found.and(missing) == missing {
                break;
            }
        }
        let new = found.and(missing);
        if new != W::ZERO {
            next[v] = new;
            reached.push(v as u32);
        }
    }
}

/// The BFS source list for `mode` — all nodes, or a uniform sample without
/// replacement (partial Fisher–Yates) drawn from `rng`.
fn sample_sources<R: Rng + ?Sized>(n: usize, mode: PathMode, rng: &mut R) -> Vec<u32> {
    match mode {
        PathMode::Exact => (0..n as u32).collect(),
        PathMode::Sampled { sources } => {
            let k = sources.clamp(1, n);
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                ids.swap(i, j);
            }
            ids.truncate(k);
            // Free the n-slot buffer the sweep would otherwise hold.
            ids.shrink_to_fit();
            ids
        }
    }
}

/// Turns the merged distance histogram into the reported statistics.
fn finalize(hist: &[u64]) -> PathStats {
    let pairs: u64 = hist.iter().sum();
    if pairs == 0 {
        return PathStats { diameter: 0, average_length: 0.0, distance_distribution: vec![0.0] };
    }
    let total: u128 = hist.iter().enumerate().map(|(d, &c)| d as u128 * c as u128).sum();
    PathStats {
        diameter: hist.len() as u32 - 1,
        average_length: total as f64 / pairs as f64,
        distance_distribution: hist.iter().map(|&c| c as f64 / pairs as f64).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact(g: &Graph) -> PathStats {
        let mut rng = StdRng::seed_from_u64(0);
        path_stats(g, PathMode::Exact, &mut rng)
    }

    /// Runs a BFS from `batch` level by level and, at every level, runs
    /// both steps from the same `(seen, visit)` state: their `next` words
    /// and (as sets) their reached nodes must agree. Returns the number
    /// of levels that reached a node.
    fn assert_steps_agree<W: Lanes + std::fmt::Debug>(
        g: &Graph,
        batch: &[u32],
        label: &[u32],
    ) -> usize {
        let n = g.node_count();
        let masks = ComponentMasks::<W>::new(label, batch);
        let mut seen = vec![W::ZERO; n];
        let mut visit = vec![W::ZERO; n];
        for (lane, &s) in batch.iter().enumerate() {
            seen[s as usize] = W::bit(lane);
            visit[s as usize] = W::bit(lane);
        }
        let mut frontier = batch.to_vec();
        let mut levels = 0;
        loop {
            let (mut down, mut down_reached) = (vec![W::ZERO; n], Vec::new());
            top_down(g, &frontier, &seen, &visit, &mut down, &mut down_reached);
            let (mut up, mut up_reached) = (vec![W::ZERO; n], Vec::new());
            bottom_up(g, &masks, &seen, &visit, &mut up, &mut up_reached);
            assert_eq!(down, up, "next words at level {}", levels + 1);
            down_reached.sort_unstable();
            assert_eq!(down_reached, up_reached, "reached nodes at level {}", levels + 1);
            if down_reached.is_empty() {
                return levels;
            }
            for &v in &down_reached {
                seen[v as usize] = seen[v as usize].or(down[v as usize]);
            }
            visit = down;
            frontier = down_reached;
            levels += 1;
        }
    }

    #[test]
    fn top_down_and_bottom_up_steps_agree() {
        let mut rng = StdRng::seed_from_u64(314);
        let er = pgb_models::erdos_renyi_gnp(300, 0.015, &mut rng);
        // A 30-clique with a 100-node path hanging off node 29, then two
        // isolated nodes: dense levels, sparse levels, lanes that never
        // fill.
        let mut edges: Vec<(u32, u32)> =
            (0..30u32).flat_map(|u| (u + 1..30).map(move |v| (u, v))).collect();
        edges.extend((29..129u32).map(|u| (u, u + 1)));
        let clique_path = Graph::from_edges(132, edges).unwrap();
        for g in [&er, &clique_path] {
            let n = g.node_count() as u32;
            let (label, _) = label_components(g, &(0..n).collect::<Vec<_>>());
            // Full batches at either end of the ids, at both widths: on
            // the 300-node graph one of 256 sources.
            for width in [u64::WIDTH, <[u64; 4]>::WIDTH] {
                let w = width.min(n as usize) as u32;
                for batch in [vec![0], vec![5, 17, 130], (0..w).collect(), (n - w..n).collect()] {
                    // As the sweep batches them: no isolated sources,
                    // ordered by component.
                    let mut batch: Vec<u32> =
                        batch.into_iter().filter(|&s| label[s as usize] != UNLABELLED).collect();
                    batch.sort_by_key(|&s| label[s as usize]);
                    let levels = if width == u64::WIDTH {
                        assert_steps_agree::<u64>(g, &batch, &label)
                    } else {
                        assert_steps_agree::<[u64; 4]>(g, &batch, &label)
                    };
                    assert!(levels > 0);
                }
            }
        }
    }

    #[test]
    fn lanes_skip_isolated_and_folded_sources() {
        // 0 isolated; 1-2 a K2; a star on 3 with leaves 4, 5, 6; a path
        // 7-8-9; and a K2 10-11.
        let g = Graph::from_edges(12, [(1, 2), (3, 4), (3, 5), (3, 6), (7, 8), (8, 9), (10, 11)])
            .unwrap();
        let all: Vec<u32> = (0..12).collect();
        let (label, met) = label_components(&g, &all);
        assert_eq!(label, [UNLABELLED, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3]);
        assert_eq!(met, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        // The K2 ends have no neighbour of degree 2 or more to fold into.
        let folded: Vec<u32> = all.iter().copied().filter(|&v| folds(&g, &all, v)).collect();
        assert_eq!(folded, [4, 5, 6, 7, 9]);

        // Each node misses only the lanes of its own component; nodes
        // outside the batch's components miss none.
        let masks = ComponentMasks::<u64>::new(&label, &[1, 2, 3, 8, 10, 11]);
        let full: Vec<u64> = (0..12).map(|v| masks.full(v)).collect();
        assert_eq!(
            full,
            [
                0, 0b11, 0b11, 0b100, 0b100, 0b100, 0b100, 0b1000, 0b1000, 0b1000, 0b11_0000,
                0b11_0000
            ]
        );
        let masks = ComponentMasks::<u64>::new(&label, &[3, 8]);
        let full: Vec<u64> = (0..12).map(|v| masks.full(v)).collect();
        assert_eq!(full, [0, 0, 0, 0b1, 0b1, 0b1, 0b1, 0b10, 0b10, 0b10, 0, 0]);

        // Sampled: a source component is labelled from its smallest
        // source; 4 keeps its lane (its neighbour was not sampled), 9
        // folds into 8.
        let sample = [0, 4, 8, 9];
        let (label, met) = label_components(&g, &sample);
        let u = UNLABELLED;
        assert_eq!(label, [u, u, u, 0, 0, 0, 0, 1, 1, 1, u, u]);
        assert_eq!(met, [4, 8, 9]);
        let folded: Vec<u32> = sample.iter().copied().filter(|&v| folds(&g, &sample, v)).collect();
        assert_eq!(folded, [9]);
    }

    #[test]
    fn path_graph_statistics() {
        // Path 0-1-2-3: distances 1,2,3,1,2,1 (unordered pairs).
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let s = exact(&g);
        assert_eq!(s.diameter, 3);
        // Mean over ordered pairs equals mean over unordered: 10/6.
        assert!((s.average_length - 10.0 / 6.0).abs() < 1e-12);
        // Distribution: d=1 ×3, d=2 ×2, d=3 ×1 (of 6 unordered pairs).
        assert!((s.distance_distribution[1] - 0.5).abs() < 1e-12);
        assert!((s.distance_distribution[2] - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.distance_distribution[3] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(6, edges).unwrap();
        let s = exact(&g);
        assert_eq!(s.diameter, 1);
        assert!((s.average_length - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pairs_excluded() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let s = exact(&g);
        assert_eq!(s.diameter, 1);
        assert!((s.average_length - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edgeless_graph_zeroes() {
        let s = exact(&Graph::new(4));
        assert_eq!(s.diameter, 0);
        assert_eq!(s.average_length, 0.0);
        assert_eq!(s.distance_distribution, vec![0.0]);
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(310);
        let g = pgb_models::erdos_renyi_gnp(200, 0.03, &mut rng);
        let s = exact(&g);
        let sum: f64 = s.distance_distribution.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn sampled_estimates_track_exact() {
        let mut rng = StdRng::seed_from_u64(311);
        let g = pgb_models::erdos_renyi_gnp(400, 0.02, &mut rng);
        let ex = exact(&g);
        let sam = path_stats(&g, PathMode::Sampled { sources: 64 }, &mut rng);
        assert!(
            (sam.average_length - ex.average_length).abs() / ex.average_length < 0.08,
            "sampled {} exact {}",
            sam.average_length,
            ex.average_length
        );
        assert!(sam.diameter <= ex.diameter);
        assert!(sam.diameter + 1 >= ex.diameter, "sampled diameter too small");
    }

    #[test]
    fn sampled_with_more_sources_than_nodes() {
        let mut rng = StdRng::seed_from_u64(312);
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let s = path_stats(&g, PathMode::Sampled { sources: 100 }, &mut rng);
        assert_eq!(s.diameter, 2);
    }
}

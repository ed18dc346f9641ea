//! Breadth-first traversal and connected components: single-source BFS
//! distances, component labelling and a connectivity check. The path
//! queries (Q7–Q9) do not use them; `pgb_queries::path` runs its own
//! bit-parallel multi-source BFS.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance value for unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances; unreachable nodes get [`UNREACHABLE`].
///
/// `dist` is a caller-owned scratch buffer so repeated calls (all-pairs
/// sweeps) do not reallocate; it is resized and reset internally.
pub fn bfs_distances_into(g: &Graph, src: NodeId, dist: &mut Vec<u32>) {
    dist.clear();
    dist.resize(g.node_count(), UNREACHABLE);
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
}

/// Convenience wrapper around [`bfs_distances_into`] that allocates the
/// output buffer.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = Vec::new();
    bfs_distances_into(g, src, &mut dist);
    dist
}

/// Connected-component labelling.
#[derive(Clone, Debug)]
pub struct Components {
    /// `label[u]` is the component index of node `u` (0-based, in order of
    /// discovery by increasing node id).
    pub label: Vec<u32>,
    /// Number of nodes per component, indexed by label.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }
}

/// Computes connected components with iterative BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut label = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        let comp = sizes.len() as u32;
        let mut size = 0usize;
        label[start] = comp;
        queue.push_back(start as NodeId);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = comp;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { label, sizes }
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.node_count() == 0 || connected_components(g).count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn two_components() -> Graph {
        // path 0-1-2 and edge 3-4, node 5 isolated
        Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap()
    }

    #[test]
    fn bfs_path_distances() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = two_components();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[3], UNREACHABLE);
        assert_eq!(d[5], UNREACHABLE);
        assert_eq!(d[2], 2);
    }

    #[test]
    fn bfs_into_reuses_buffer() {
        let g = two_components();
        let mut buf = vec![9; 1];
        bfs_distances_into(&g, 3, &mut buf);
        assert_eq!(buf.len(), 6);
        assert_eq!(buf[4], 1);
    }

    #[test]
    fn components_counts_and_sizes() {
        let c = connected_components(&two_components());
        assert_eq!(c.count(), 3);
        assert_eq!(c.sizes, vec![3, 2, 1]);
        assert_eq!(c.label, vec![0, 0, 0, 1, 1, 2]);
    }

    #[test]
    fn is_connected_cases() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::from_edges(2, [(0, 1)]).unwrap()));
        assert!(!is_connected(&two_components()));
        assert!(!is_connected(&Graph::new(2)));
    }
}

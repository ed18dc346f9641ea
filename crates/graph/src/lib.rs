//! # pgb-graph
//!
//! Graph substrate for the PGB benchmark: a compact undirected simple-graph
//! type plus the traversal, degree-extraction, and I/O routines every other
//! PGB crate builds on.
//!
//! The representation is compressed sparse row (CSR): one flat `offsets`
//! array (`n + 1` entries of `u32`) indexing into one flat `neighbors` array
//! (`2m` entries), with each node's segment sorted. The layout is chosen for
//! the benchmark's workload profile — graphs of 10³–10⁵ nodes that are built
//! once and then queried many times: the whole adjacency structure is two
//! allocations, full-graph scans (BFS sweeps, triangle passes, degree
//! extraction) walk contiguous memory, and membership tests are binary
//! searches over sorted neighbour slices. Graphs are immutable after
//! construction; incremental accumulation goes through [`GraphBuilder`],
//! which finalises into CSR with a single sort/dedup pass.
//!
//! ## Quick start
//!
//! ```
//! use pgb_graph::Graph;
//!
//! // A triangle plus a pendant vertex.
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.degree(2), 3);
//! assert!(g.has_edge(0, 1));
//! assert!(!g.has_edge(0, 3));
//! ```

pub mod builder;
pub mod degree;
pub mod error;
pub mod graph;
pub mod io;
pub mod temporal;
pub mod traversal;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Graph, NodeId};
pub use temporal::{SnapshotSequence, TemporalEdge, Timestamp};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

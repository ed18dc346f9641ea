//! Plain-text edge-list reading and writing.
//!
//! The format matches the SNAP / Network Repository conventions the paper's
//! datasets ship in: one `u v` pair per line, `#` or `%` comment lines,
//! arbitrary whitespace separators. Node ids need not be contiguous — they
//! are compacted on read.

use crate::{Graph, GraphError, NodeId, Result};
use std::collections::HashMap;
use std::io::{BufRead, BufWriter, Write};

/// Parses an edge list from a reader.
///
/// Node labels are arbitrary `u64`s in the input and are remapped to dense
/// ids in first-appearance order; the mapping is returned alongside the
/// graph. Directed inputs collapse to undirected simple graphs (duplicate
/// and reverse pairs merge), matching PGB's preprocessing.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<(Graph, Vec<u64>)> {
    let mut ids: HashMap<u64, NodeId> = HashMap::new();
    let mut labels: Vec<u64> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let intern = |label: u64, ids: &mut HashMap<u64, NodeId>, labels: &mut Vec<u64>| {
        *ids.entry(label).or_insert_with(|| {
            labels.push(label);
            (labels.len() - 1) as NodeId
        })
    };
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (a, b) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(GraphError::Parse { line: line_no + 1, content: trimmed.into() });
            }
        };
        let parse = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| GraphError::Parse { line: line_no + 1, content: trimmed.into() })
        };
        let (a, b) = (parse(a)?, parse(b)?);
        let u = intern(a, &mut ids, &mut labels);
        let v = intern(b, &mut ids, &mut labels);
        edges.push((u, v));
    }
    let g = Graph::from_edges(labels.len(), edges)?;
    Ok((g, labels))
}

/// Writes `g` as a plain edge list (`u v` per line, dense ids, `u < v`).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.node_count(), g.edge_count())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_edge_list_str(s: &str) -> Result<(Graph, Vec<u64>)> {
        read_edge_list(s.as_bytes())
    }

    #[test]
    fn reads_comments_and_whitespace() {
        let text = "# a comment\n% another\n10 20\n20\t30\n\n30 10\n";
        let (g, labels) = read_edge_list_str(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(labels, vec![10, 20, 30]);
    }

    #[test]
    fn collapses_directed_duplicates() {
        let (g, _) = read_edge_list_str("1 2\n2 1\n1 2\n").unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn drops_self_loops() {
        let (g, _) = read_edge_list_str("5 5\n5 6\n").unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = read_edge_list_str("1 2\nnot numbers\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        let err = read_edge_list_str("42\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn roundtrip_through_writer() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_vec(), g.edge_vec());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pgb_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = Graph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let (g2, _) = read_edge_list(std::io::BufReader::new(file)).unwrap();
        assert_eq!(g2.edge_count(), 2);
        std::fs::remove_file(&path).ok();
    }
}

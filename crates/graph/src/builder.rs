//! Mutable edge-list builder producing [`CsrGraph`]s.

use std::collections::BTreeSet;

use crate::csr::CsrGraph;
use crate::types::{canonical_edge, Edge, NodeId};

/// Incrementally collects undirected edges and produces a [`CsrGraph`].
///
/// Self-loops are ignored and parallel edges are merged, so the resulting
/// graph is always simple.
///
/// # Examples
///
/// ```
/// use sparse_graph::GraphBuilder;
///
/// let mut builder = GraphBuilder::new(4);
/// builder.add_edge(0, 1);
/// builder.add_edge(1, 0); // duplicate, merged
/// builder.add_edge(2, 2); // self-loop, ignored
/// builder.add_edge(2, 3);
/// let graph = builder.build();
/// assert_eq!(graph.num_edges(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: BTreeSet<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on the node set `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: BTreeSet::new(),
        }
    }

    /// Number of nodes of the graph under construction.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of distinct undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Self-loops are ignored; duplicates are merged. Returns `true` if the
    /// edge was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not a valid node id (`>= n`).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "edge ({u}, {v}) references a node outside 0..{}",
            self.num_nodes
        );
        if u == v {
            return false;
        }
        self.edges.insert(canonical_edge(u, v))
    }

    /// Returns `true` if the undirected edge `{u, v}` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains(&canonical_edge(u, v))
    }

    /// Adds all edges from an iterator. See [`GraphBuilder::add_edge`].
    pub fn extend_edges<I: IntoIterator<Item = Edge>>(&mut self, edges: I) {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Grows the node set to `n` nodes if `n` is larger than the current size.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.num_nodes = self.num_nodes.max(n);
    }

    /// Finalizes the builder into an immutable [`CsrGraph`].
    pub fn build(self) -> CsrGraph {
        CsrGraph::from_edge_vec(self.num_nodes, self.edges.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_and_ignores_self_loops() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(0, 1));
        assert!(!b.add_edge(1, 0));
        assert!(!b.add_edge(1, 1));
        assert_eq!(b.num_edges(), 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    #[should_panic(expected = "references a node outside")]
    fn rejects_out_of_range_nodes() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn ensure_nodes_grows_but_never_shrinks() {
        let mut b = GraphBuilder::new(2);
        b.ensure_nodes(10);
        assert_eq!(b.num_nodes(), 10);
        b.ensure_nodes(4);
        assert_eq!(b.num_nodes(), 10);
        b.add_edge(9, 0);
        assert_eq!(b.build().num_nodes(), 10);
    }

    #[test]
    fn extend_edges_and_has_edge() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1), (1, 2), (2, 3)]);
        assert!(b.has_edge(2, 1));
        assert!(!b.has_edge(0, 3));
        assert_eq!(b.num_edges(), 3);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(4, 2), (2, 0), (2, 3), (1, 2)]);
        let g = b.build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }
}

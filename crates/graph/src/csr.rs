//! Immutable compressed-sparse-row (CSR) graph representation.

use serde::{Deserialize, Serialize};

use crate::types::{canonical_edge, Edge, NodeId};

/// An immutable, undirected, simple graph stored in compressed sparse row
/// (CSR) form.
///
/// * Nodes are the integers `0..n`.
/// * The adjacency list of every node is sorted by neighbor id.
/// * Self-loops and parallel edges are removed at construction time.
///
/// The representation is the "input graph stored in the first distributed
/// data store `D_0`" of the AMPC model (Section 3.1 of the paper): the
/// algorithm crates only access it through degree and neighbor queries, which
/// is exactly the key-value interface that `D_0` exposes.
///
/// # Examples
///
/// ```
/// use sparse_graph::CsrGraph;
///
/// // A triangle plus a pendant vertex.
/// let graph = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(graph.num_nodes(), 4);
/// assert_eq!(graph.num_edges(), 4);
/// assert_eq!(graph.degree(2), 3);
/// assert_eq!(graph.neighbors(3), &[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` is the slice of `targets` holding `v`'s
    /// neighbors.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted adjacency lists.
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Creates an empty graph with `n` isolated nodes.
    ///
    /// ```
    /// let graph = sparse_graph::CsrGraph::empty(5);
    /// assert_eq!(graph.num_nodes(), 5);
    /// assert_eq!(graph.num_edges(), 0);
    /// ```
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// Self-loops are dropped and parallel edges are merged.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = Edge>,
    {
        CsrGraph::from_edge_vec(n, edges.into_iter().collect())
    }

    /// Builds a graph with `n` nodes from an owned list of undirected
    /// edges, reusing the list as sort space: every edge is put in
    /// canonical `(u, v)` form with `u < v` (self-loops dropped), the list
    /// is sorted and deduplicated, degrees are counted into the offsets,
    /// and the targets are filled at exact capacity. Peak memory is the
    /// edge list plus the finished graph.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n`.
    ///
    /// ```
    /// let graph = sparse_graph::CsrGraph::from_edge_vec(4, vec![(2, 0), (0, 2), (1, 1), (3, 2)]);
    /// assert_eq!(graph.num_edges(), 2);
    /// assert_eq!(graph.neighbors(2), &[0, 3]);
    /// ```
    pub fn from_edge_vec(n: usize, mut edges: Vec<Edge>) -> Self {
        edges.retain_mut(|edge| {
            let (u, v) = *edge;
            assert!(
                u < n && v < n,
                "edge ({u}, {v}) references a node outside 0..{n}"
            );
            *edge = canonical_edge(u, v);
            u != v
        });
        edges.sort_unstable();
        edges.dedup();
        // Count degrees so that `offsets[v]` ends up as the end of `v`'s
        // row, then place targets back to front: each decrement moves a
        // row's cursor down, leaving `offsets[v]` at the row's start.
        // Walking the sorted edges backwards fills every row in ascending
        // order — a node's smaller neighbors come from edges earlier in the
        // list than its larger ones.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u] += 1;
            offsets[v] += 1;
        }
        let mut total = 0;
        for offset in &mut offsets {
            total += *offset;
            *offset = total;
        }
        let mut targets = vec![0; total];
        for &(u, v) in edges.iter().rev() {
            offsets[v] -= 1;
            targets[offsets[v]] = u;
            offsets[u] -= 1;
            targets[offsets[u]] = v;
        }
        CsrGraph { offsets, targets }
    }

    /// Internal constructor from prebuilt CSR arrays; used by the
    /// induced-subgraph machinery, which emits already-sorted,
    /// already-deduplicated rows.
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, targets: Vec<NodeId>) -> Self {
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(targets.len()));
        debug_assert!(offsets.windows(2).all(|pair| pair[0] <= pair[1]));
        CsrGraph { offsets, targets }
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_nodes()`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted adjacency list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_nodes()`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `i`-th neighbor (0-based) of node `v`, as exposed by the LCA
    /// adjacency-list oracle of [RTVX11].
    ///
    /// Returns `None` if `i >= self.degree(v)`.
    pub fn neighbor(&self, v: NodeId, i: usize) -> Option<NodeId> {
        self.neighbors(v).get(i).copied()
    }

    /// Returns `true` if the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.num_nodes() || v >= self.num_nodes() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all nodes `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes()
    }

    /// Iterator over all undirected edges in canonical `(u, v)` form with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree `∆` of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            (2 * self.num_edges()) as f64 / self.num_nodes() as f64
        }
    }

    /// Histogram of degrees: entry `d` counts nodes of degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut histogram = vec![0usize; self.max_degree() + 1];
        for v in self.nodes() {
            histogram[self.degree(v)] += 1;
        }
        histogram
    }

    /// Number of connected components.
    pub fn num_connected_components(&self) -> usize {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }

    /// Returns `true` if the graph contains no cycle (i.e. it is a forest).
    pub fn is_forest(&self) -> bool {
        // A graph is a forest iff m = n - (#components).
        self.num_edges() + self.num_connected_components() == self.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = CsrGraph::empty(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.num_connected_components(), 3);
        assert!(g.is_forest());
    }

    #[test]
    fn from_edges_builds_sorted_adjacency() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
    }

    #[test]
    fn from_edges_removes_duplicates_and_self_loops() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn flat_build_matches_a_btreeset_reference() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        // Reference: the set of canonical non-loop edges, expanded into
        // one sorted row per node.
        let reference = |n: usize, edges: &[Edge]| -> CsrGraph {
            let set: BTreeSet<Edge> = edges
                .iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| canonical_edge(u, v))
                .collect();
            let mut rows = vec![Vec::new(); n];
            for &(u, v) in &set {
                rows[u].push(v);
                rows[v].push(u);
            }
            let mut offsets = vec![0];
            let mut targets = Vec::new();
            for row in &mut rows {
                row.sort_unstable();
                targets.extend_from_slice(row);
                offsets.push(targets.len());
            }
            CsrGraph::from_csr_parts(offsets, targets)
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for case in 0..600 {
            let n = match case % 6 {
                0 => 0,
                1 => 1,
                2 => 2,
                _ => rng.gen_range(3usize..60),
            };
            let mut edges = Vec::new();
            if n > 0 {
                // Ids drawn from the lower part only, so trailing nodes are
                // often isolated; a small id range forces duplicates and
                // self-loops.
                let id_range = 1 + rng.gen_range(0..n);
                for _ in 0..rng.gen_range(0..4 * n) {
                    edges.push((rng.gen_range(0..id_range), rng.gen_range(0..id_range)));
                }
            }
            let expected = reference(n, &edges);
            let built = CsrGraph::from_edge_vec(n, edges.clone());
            assert_eq!(built, expected, "case {case}: n = {n}, edges {edges:?}");
            assert_eq!(built.targets.capacity(), built.targets.len());
        }
    }

    #[test]
    #[should_panic(expected = "references a node outside")]
    fn flat_build_rejects_out_of_range_nodes() {
        CsrGraph::from_edge_vec(3, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn has_edge_and_neighbor_lookup() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 17));
        assert_eq!(g.neighbor(2, 0), Some(0));
        assert_eq!(g.neighbor(2, 2), Some(3));
        assert_eq!(g.neighbor(2, 3), None);
    }

    #[test]
    fn edges_iterator_is_canonical_and_complete() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_statistics() {
        let g = triangle_plus_pendant();
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 2.0).abs() < 1e-9);
        assert_eq!(g.degree_histogram(), vec![0, 1, 2, 1]);
    }

    #[test]
    fn connectivity_and_forest_detection() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_connected_components(), 1);
        assert!(!g.is_forest());

        let path = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(path.is_forest());

        let two_components = CsrGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(two_components.num_connected_components(), 2);
        assert!(two_components.is_forest());
    }

    #[test]
    fn clone_and_equality() {
        let g = triangle_plus_pendant();
        assert_eq!(g.clone(), g);
        assert_ne!(g, CsrGraph::empty(4));
    }
}

//! Edge orientations: acyclicity, out-degrees and construction helpers.

use serde::{Deserialize, Serialize};

use crate::csr::CsrGraph;
use crate::types::{Edge, NodeId};

/// An orientation of (a subset of) the edges of an undirected graph.
///
/// Orientations are the bridge between β-partitions and colorings (paper
/// Contribution 2): orienting every edge from lower to higher layer of a
/// β-partition, and arbitrarily inside a layer, yields an acyclic orientation
/// of out-degree at most β, and coloring then proceeds "from the sinks".
///
/// The out-neighbor lists are stored flat, as one CSR (`offsets` plus
/// `targets`) like [`CsrGraph`]'s, so building an orientation costs two
/// allocations whatever the node count; the per-layer coloring builds one
/// for every layer.
///
/// # Examples
///
/// ```
/// use sparse_graph::{CsrGraph, Orientation};
///
/// let g = CsrGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// // Orient the triangle acyclically by node id.
/// let orientation = Orientation::from_total_order(&g, |v| v);
/// assert!(orientation.is_acyclic());
/// assert_eq!(orientation.max_out_degree(), 2);
/// assert!(orientation.covers_graph(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Orientation {
    /// `offsets[v]..offsets[v + 1]` is the slice of `targets` holding `v`'s
    /// out-neighbors.
    offsets: Vec<usize>,
    /// Concatenated out-neighbor lists.
    targets: Vec<NodeId>,
}

impl Orientation {
    /// Creates an orientation with no oriented edges on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Orientation {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds an orientation from explicit per-node out-neighbor lists.
    pub fn from_out_neighbors(out_neighbors: Vec<Vec<NodeId>>) -> Self {
        let mut offsets = Vec::with_capacity(out_neighbors.len() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(out_neighbors.iter().map(Vec::len).sum());
        for list in &out_neighbors {
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        Orientation { offsets, targets }
    }

    /// Orients every edge of `graph` from the endpoint with the smaller key
    /// to the endpoint with the larger key, breaking ties towards the larger
    /// node id. The resulting orientation is always acyclic, and every
    /// out-neighbor list is sorted.
    ///
    /// With `key = degeneracy position` this produces the classic
    /// `out-degree ≤ degeneracy` orientation; with `key = β-partition layer`
    /// it produces the orientation of paper Contribution 2.
    pub fn from_total_order<F>(graph: &CsrGraph, key: F) -> Self
    where
        F: Fn(NodeId) -> usize,
    {
        // Row `u` keeps the neighbors `v` with `(key(u), u) < (key(v), v)`,
        // so every edge lands in exactly one row, and filtering `u`'s
        // sorted adjacency list keeps the row sorted.
        let mut offsets = Vec::with_capacity(graph.num_nodes() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(graph.num_edges());
        for u in graph.nodes() {
            let rank = (key(u), u);
            targets.extend(
                graph
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| rank < (key(v), v)),
            );
            offsets.push(targets.len());
        }
        Orientation { offsets, targets }
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of oriented edges.
    pub fn num_oriented_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of node `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum out-degree over all nodes.
    pub fn max_out_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|row| row[1] - row[0])
            .max()
            .unwrap_or(0)
    }

    /// Iterator over the oriented edges as `(from, to)` pairs.
    pub fn oriented_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes()).flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Checks that every undirected edge of `graph` is oriented exactly once
    /// (in exactly one direction) and that no oriented edge is absent from
    /// `graph`.
    pub fn covers_graph(&self, graph: &CsrGraph) -> bool {
        if self.num_nodes() != graph.num_nodes() {
            return false;
        }
        if self.num_oriented_edges() != graph.num_edges() {
            return false;
        }
        // Duplicate detection via a bitmap over the graph's adjacency
        // slots (each canonical edge {a ≤ b} owns the slot of `b` inside
        // `neighbors(a)`): three O(n + m) allocations for the whole check
        // instead of a B-tree node per few edges — this runs in front of
        // every Arb-Linial invocation, so its allocation cost is measured
        // by the intra bench's allocation gate.
        let n = graph.num_nodes();
        let mut slot_offsets = Vec::with_capacity(n + 1);
        slot_offsets.push(0usize);
        for v in graph.nodes() {
            slot_offsets.push(slot_offsets[v] + graph.degree(v));
        }
        let mut seen = vec![false; slot_offsets[n]];
        for (u, v) in self.oriented_edges() {
            let (a, b) = crate::types::canonical_edge(u, v);
            // The binary search doubles as the `has_edge` membership test
            // (neighbor lists are sorted); `a < n` because the node counts
            // matched above and `u` enumerates `0..n`.
            let Ok(position) = graph.neighbors(a).binary_search(&b) else {
                return false;
            };
            let slot = slot_offsets[a] + position;
            if seen[slot] {
                // Edge oriented twice (in both or the same direction).
                return false;
            }
            seen[slot] = true;
        }
        true
    }

    /// Returns `true` if the oriented graph contains no directed cycle
    /// (Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// A topological order of the oriented graph (sources first), or `None`
    /// if the orientation contains a directed cycle.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.num_nodes();
        let mut in_degree = vec![0usize; n];
        for (_, v) in self.oriented_edges() {
            in_degree[v] += 1;
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&v| in_degree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &w in self.out_neighbors(v) {
                in_degree[w] -= 1;
                if in_degree[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// A *reverse* topological order (sinks first), convenient for coloring
    /// "starting from sinks" as described in the paper's introduction.
    pub fn reverse_topological_order(&self) -> Option<Vec<NodeId>> {
        self.topological_order().map(|mut order| {
            order.reverse();
            order
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cycle(n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn order_based_orientation_is_acyclic_and_covers() {
        let g = cycle(6);
        let o = Orientation::from_total_order(&g, |v| v);
        assert!(o.is_acyclic());
        assert!(o.covers_graph(&g));
        assert_eq!(o.num_oriented_edges(), 6);
    }

    #[test]
    fn cyclic_orientation_is_detected() {
        let o = Orientation::from_out_neighbors(vec![vec![1], vec![2], vec![0]]);
        assert!(!o.is_acyclic());
        assert!(o.topological_order().is_none());
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = CsrGraph::from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4), (1, 4)]);
        let o = Orientation::from_total_order(&g, |v| v);
        let order = o.topological_order().expect("acyclic");
        let mut position = [0; 5];
        for (i, &v) in order.iter().enumerate() {
            position[v] = i;
        }
        for (u, v) in o.oriented_edges() {
            assert!(
                position[u] < position[v],
                "edge ({u},{v}) violates topo order"
            );
        }
    }

    #[test]
    fn covers_graph_detects_missing_and_foreign_edges() {
        let g = cycle(4);
        // Missing one edge.
        let o = Orientation::from_out_neighbors(vec![vec![1], vec![2], vec![3], vec![]]);
        assert!(!o.covers_graph(&g));
        // Edge not present in the graph.
        let o = Orientation::from_out_neighbors(vec![vec![1, 2], vec![2], vec![3], vec![0]]);
        assert!(!o.covers_graph(&g));
        // Edge oriented in both directions.
        let o = Orientation::from_out_neighbors(vec![vec![1], vec![0, 2], vec![3], vec![0]]);
        assert!(!o.covers_graph(&g));
    }

    #[test]
    fn out_degree_statistics() {
        let star = CsrGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        // Orient towards the center: leaves have key 0, the center key 1.
        let o = Orientation::from_total_order(&star, |v| if v == 0 { 1 } else { 0 });
        assert_eq!(o.out_degree(1), 1);
        assert_eq!(o.out_degree(0), 0);
        assert_eq!(o.max_out_degree(), 1);
        // Orient away from the center.
        let o = Orientation::from_total_order(&star, |v| if v == 0 { 0 } else { 1 });
        assert_eq!(o.out_degree(0), 4);
        assert_eq!(o.max_out_degree(), 4);
        assert_eq!(Orientation::empty(0).max_out_degree(), 0);
    }

    /// The per-node construction the flat one replaced: push each edge
    /// `{u, v}` onto the row of the endpoint with the smaller `(key, id)`,
    /// then sort every row.
    fn per_node_rows(graph: &CsrGraph, key: impl Fn(NodeId) -> usize) -> Vec<Vec<NodeId>> {
        let mut rows = vec![Vec::new(); graph.num_nodes()];
        for (u, v) in graph.edges() {
            let (from, to) = if (key(u), u) < (key(v), v) {
                (u, v)
            } else {
                (v, u)
            };
            rows[from].push(to);
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        rows
    }

    #[test]
    fn flat_orientation_matches_the_per_node_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for case in 0..24 {
            // Random graphs with isolated nodes: edges only among the first
            // `used` of `n` nodes, plus some nodes with no edge inside it.
            let n = rng.gen_range(1..400usize);
            let used = rng.gen_range(1..n + 1);
            let m = rng.gen_range(0..4 * used);
            let edges: Vec<Edge> = (0..m)
                .map(|_| (rng.gen_range(0..used), rng.gen_range(0..used)))
                .collect();
            let graph = CsrGraph::from_edges(n, edges);
            let layers: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4usize)).collect();
            let keys: [(&str, &dyn Fn(NodeId) -> usize); 4] = [
                ("id order", &|v| v),
                ("reverse id order", &|v| n - v),
                ("ties", &|v| v % 3),
                ("layers", &|v| layers[v]),
            ];
            for (name, key) in keys {
                let context = format!("case {case}, {name}, n {n}");
                let oriented = Orientation::from_total_order(&graph, key);
                let oracle = per_node_rows(&graph, key);
                assert_eq!(oriented.num_nodes(), n, "{context}");
                for (v, row) in oracle.iter().enumerate() {
                    assert_eq!(oriented.out_neighbors(v), &row[..], "{context}, node {v}");
                    assert_eq!(oriented.out_degree(v), row.len(), "{context}, node {v}");
                }
                assert_eq!(
                    oriented.num_oriented_edges(),
                    oracle.iter().map(Vec::len).sum::<usize>(),
                    "{context}"
                );
                assert_eq!(
                    oriented.max_out_degree(),
                    oracle.iter().map(Vec::len).max().unwrap_or(0),
                    "{context}"
                );
                assert!(oriented.covers_graph(&graph), "{context}");
                let order = oriented.topological_order().expect("acyclic");
                let mut position = vec![usize::MAX; n];
                for (index, &v) in order.iter().enumerate() {
                    position[v] = index;
                }
                assert!(position.iter().all(|&p| p < n), "{context}: a permutation");
                for (u, row) in oracle.iter().enumerate() {
                    assert!(row.iter().all(|&v| position[u] < position[v]), "{context}");
                }
                // Round trips through explicit lists, both ways. Explicit
                // lists keep their order: reversed rows come back reversed.
                assert_eq!(Orientation::from_out_neighbors(oracle.clone()), oriented);
                let rows: Vec<Vec<NodeId>> =
                    (0..n).map(|v| oriented.out_neighbors(v).to_vec()).collect();
                assert_eq!(rows, oracle, "{context}");
                let reversed: Vec<Vec<NodeId>> = oracle
                    .iter()
                    .map(|row| row.iter().rev().copied().collect())
                    .collect();
                let explicit = Orientation::from_out_neighbors(reversed.clone());
                for (v, row) in reversed.iter().enumerate() {
                    assert_eq!(explicit.out_neighbors(v), &row[..], "{context}, node {v}");
                }
            }
            let empty = Orientation::empty(n);
            assert_eq!((empty.num_oriented_edges(), empty.max_out_degree()), (0, 0));
            assert_eq!(Orientation::from_out_neighbors(vec![Vec::new(); n]), empty);
        }
    }

    #[test]
    fn reverse_topological_order_sinks_first() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2)]);
        let o = Orientation::from_total_order(&g, |v| v);
        let rev = o.reverse_topological_order().unwrap();
        assert_eq!(*rev.first().unwrap(), 2);
        assert_eq!(*rev.last().unwrap(), 0);
    }
}

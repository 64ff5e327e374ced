//! Node-induced subgraphs with mappings back to the parent graph.

use crate::csr::CsrGraph;
use crate::types::NodeId;

/// A node-induced subgraph `G[S]` rebuilt as a standalone [`CsrGraph`]
/// together with the mapping between the local node ids `0..|S|` and the
/// original node ids.
///
/// The paper repeatedly passes induced subgraphs to recursive invocations
/// (e.g. the AMPC partitioner of Theorem 1.2 recurses on the subgraph induced
/// by the nodes whose layer is still `∞`). This type packages the recursion
/// plumbing so that layer assignments computed on the subgraph can be
/// translated back to the original vertex set.
///
/// # Examples
///
/// ```
/// use sparse_graph::{CsrGraph, InducedSubgraph};
///
/// let g = CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
/// let sub = InducedSubgraph::new(&g, &[0, 1, 2]);
/// assert_eq!(sub.graph().num_nodes(), 3);
/// assert_eq!(sub.graph().num_edges(), 2); // edges (0,1) and (1,2)
/// assert_eq!(sub.to_original(0), 0);
/// assert_eq!(sub.to_local(2), Some(2));
/// assert_eq!(sub.to_local(4), None);
/// ```
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    graph: CsrGraph,
    /// `local_to_original[local] = original`.
    local_to_original: Vec<NodeId>,
    /// `original_to_local[original] = local` for retained nodes, [`ABSENT`]
    /// for the rest: one word per parent node, not an `Option`'s two.
    original_to_local: Vec<NodeId>,
}

/// The `original_to_local` entry of a node outside the subgraph; no local id
/// reaches it, since local ids stay below the parent's node count.
const ABSENT: NodeId = NodeId::MAX;

impl InducedSubgraph {
    /// Builds the subgraph of `parent` induced by `nodes`.
    ///
    /// Duplicate entries in `nodes` are ignored; the local ids follow the
    /// order of first occurrence in `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` references a node outside the parent graph.
    pub fn new(parent: &CsrGraph, nodes: &[NodeId]) -> Self {
        let n = parent.num_nodes();
        let mut original_to_local = vec![ABSENT; n];
        let mut local_to_original = Vec::with_capacity(nodes.len());
        for &v in nodes {
            assert!(v < n, "node {v} outside parent graph of size {n}");
            if original_to_local[v] == ABSENT {
                original_to_local[v] = local_to_original.len();
                local_to_original.push(v);
            }
        }

        // The CSR arrays are filled row by row in local-id order; a row
        // lists the retained neighbors, sorted in place.
        let mut offsets = Vec::with_capacity(local_to_original.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for &orig_u in &local_to_original {
            let start = targets.len();
            targets.extend(
                parent
                    .neighbors(orig_u)
                    .iter()
                    .map(|&orig_w| original_to_local[orig_w])
                    .filter(|&local_w| local_w != ABSENT),
            );
            targets[start..].sort_unstable();
            offsets.push(targets.len());
        }

        InducedSubgraph {
            graph: CsrGraph::from_csr_parts(offsets, targets),
            local_to_original,
            original_to_local,
        }
    }

    /// The induced subgraph as a standalone [`CsrGraph`] on nodes
    /// `0..self.num_nodes()`.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of nodes retained in the subgraph.
    pub fn num_nodes(&self) -> usize {
        self.local_to_original.len()
    }

    /// Maps a local node id back to the original node id.
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a valid local node id.
    pub fn to_original(&self, local: NodeId) -> NodeId {
        self.local_to_original[local]
    }

    /// Maps an original node id to its local id, or `None` if the node was
    /// not retained.
    pub fn to_local(&self, original: NodeId) -> Option<NodeId> {
        self.original_to_local
            .get(original)
            .copied()
            .filter(|&local| local != ABSENT)
    }

    /// The original node ids retained in the subgraph, indexed by local id.
    pub fn original_nodes(&self) -> &[NodeId] {
        &self.local_to_original
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle5() -> CsrGraph {
        CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    }

    #[test]
    fn induces_correct_edge_set() {
        let g = cycle5();
        let sub = InducedSubgraph::new(&g, &[1, 2, 3]);
        assert_eq!(sub.graph().num_nodes(), 3);
        assert_eq!(sub.graph().num_edges(), 2);
        // Local ids follow order of appearance: 1 -> 0, 2 -> 1, 3 -> 2.
        assert!(sub.graph().has_edge(0, 1));
        assert!(sub.graph().has_edge(1, 2));
        assert!(!sub.graph().has_edge(0, 2));
    }

    #[test]
    fn mapping_round_trips() {
        let g = cycle5();
        let sub = InducedSubgraph::new(&g, &[4, 0, 2]);
        for local in 0..sub.num_nodes() {
            let original = sub.to_original(local);
            assert_eq!(sub.to_local(original), Some(local));
        }
        assert_eq!(sub.to_local(1), None);
        assert_eq!(sub.original_nodes(), &[4, 0, 2]);
    }

    #[test]
    fn duplicate_nodes_are_ignored() {
        let g = cycle5();
        let sub = InducedSubgraph::new(&g, &[3, 3, 3, 2]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.graph().num_edges(), 1);
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = cycle5();
        let sub = InducedSubgraph::new(&g, &[]);
        assert_eq!(sub.num_nodes(), 0);
        assert_eq!(sub.graph().num_edges(), 0);
    }

    #[test]
    fn flat_build_matches_the_per_node_build_on_a_shuffled_selection() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let parent = crate::generators::preferential_attachment(600, 3, &mut rng);
        let ascending: Vec<NodeId> = parent.nodes().filter(|v| v % 3 != 1).collect();
        let mut shuffled = ascending.clone();
        shuffled.shuffle(&mut rng);
        let repeated: Vec<NodeId> = ascending
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, if v % 4 == 3 { 2 } else { 1 }))
            .collect();
        assert!(repeated.len() > ascending.len());
        for (name, nodes) in [
            ("shuffled", &shuffled),
            ("ascending", &ascending),
            ("ascending with duplicates", &repeated),
        ] {
            let sub = InducedSubgraph::new(&parent, nodes);
            // Reference: one sorted adjacency list per retained node, in
            // first-occurrence order.
            let mut distinct: Vec<NodeId> = Vec::new();
            for &v in nodes {
                if !distinct.contains(&v) {
                    distinct.push(v);
                }
            }
            let adjacency: Vec<Vec<NodeId>> = distinct
                .iter()
                .map(|&u| {
                    let mut row: Vec<NodeId> = parent
                        .neighbors(u)
                        .iter()
                        .filter_map(|&w| distinct.iter().position(|&x| x == w))
                        .collect();
                    row.sort_unstable();
                    row
                })
                .collect();
            let mut offsets = vec![0];
            let mut targets = Vec::new();
            for row in &adjacency {
                targets.extend_from_slice(row);
                offsets.push(targets.len());
            }
            assert_eq!(
                sub.graph(),
                &CsrGraph::from_csr_parts(offsets, targets),
                "{name}"
            );
            assert_eq!(sub.original_nodes(), &distinct[..], "{name}");
            for v in parent.nodes() {
                assert_eq!(
                    sub.to_local(v),
                    distinct.iter().position(|&x| x == v),
                    "{name}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside parent graph")]
    fn rejects_out_of_range_nodes() {
        let g = cycle5();
        InducedSubgraph::new(&g, &[7]);
    }
}

//! Cache-aware node relabeling: permute, color, un-permute.
//!
//! CSR neighbor scans are memory-latency-bound on graphs whose ids are
//! scattered relative to the traversal order: every `targets[w]` lookup
//! lands on a cold cache line. Relabeling nodes so that neighbors sit
//! close together in id space turns those scans into mostly-sequential
//! walks. This module provides the two standard deterministic policies —
//!
//! * [`RelabelPolicy::DegreeSorted`]: nodes in descending degree order
//!   (ties by ascending old id). Hubs and their shared color/degree state
//!   cluster at the low end of every array, the layout that helps skewed
//!   (power-law, hub-and-spoke) instances most.
//! * [`RelabelPolicy::Rcm`]: reverse Cuthill–McKee — per connected
//!   component, a BFS from a minimum-`(degree, id)` start expanding
//!   neighbors in ascending `(degree, id)` order, with the final order
//!   reversed. The classic bandwidth-minimizing layout: neighbors end up
//!   with nearby ids, so adjacency scans touch few distinct cache lines.
//!
//! — and the [`NodePermutation`] machinery for the **bit-identity story**
//! the workspace's determinism contract requires: callers permute the
//! graph (and any orientation computed on the *original* ids), run a
//! simulator on the relabeled instance, and un-permute the resulting
//! coloring. For every simulator in `arbo-coloring` the un-permuted
//! coloring is byte-for-byte identical to the coloring computed without
//! relabeling (pinned by `tests/backend_equivalence.rs`):
//!
//! * the per-node decisions of Arb-Linial, Kuhn–Wattenhofer and the
//!   recoloring waves are *set*-valued (mark neighbor colors, take the
//!   first/last free one) — they never depend on what a neighbor's id
//!   *is*, only on which colors appear;
//! * the derandomized coloring is the one simulator whose decisions *read*
//!   node ids — its GF(2) queries encode them — so its relabeled entry
//!   point encodes each node's **original** id
//!   ([`NodePermutation::old_ids`]). With that, the seed search sees the
//!   same multiset of queries. Relabeling reorders the edges, but the
//!   search scores each candidate seed as an integer count of queries per
//!   bucket (scaled collision probabilities), and integer sums do not
//!   depend on the order of their terms.
//!
//! Orientations must be computed on the original graph and pushed through
//! [`NodePermutation::permute_orientation`]: recomputing a degeneracy
//! order on the relabeled graph would break ties by *new* ids and produce
//! a different (equally valid, but not bit-identical) orientation.

use std::collections::VecDeque;

use crate::coloring::Coloring;
use crate::csr::CsrGraph;
use crate::orientation::Orientation;
use crate::types::NodeId;

/// Which node-relabeling permutation to apply at graph build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelabelPolicy {
    /// Keep the original ids (the identity permutation).
    #[default]
    Off,
    /// Descending degree, ties by ascending old id.
    DegreeSorted,
    /// Reverse Cuthill–McKee (bandwidth-minimizing BFS layout).
    Rcm,
}

impl RelabelPolicy {
    /// All policies, in the order benches sweep them.
    pub const ALL: [RelabelPolicy; 3] = [
        RelabelPolicy::Off,
        RelabelPolicy::DegreeSorted,
        RelabelPolicy::Rcm,
    ];

    /// Stable CLI/bench-table label.
    pub fn label(self) -> &'static str {
        match self {
            RelabelPolicy::Off => "off",
            RelabelPolicy::DegreeSorted => "degree-sorted",
            RelabelPolicy::Rcm => "rcm",
        }
    }

    /// Parses a [`RelabelPolicy::label`] spelling.
    pub fn parse(text: &str) -> Option<RelabelPolicy> {
        match text.trim() {
            "off" => Some(RelabelPolicy::Off),
            "degree-sorted" | "degree" => Some(RelabelPolicy::DegreeSorted),
            "rcm" => Some(RelabelPolicy::Rcm),
            _ => None,
        }
    }
}

/// A bijection between *old* node ids (the caller's graph) and *new* node
/// ids (the relabeled graph), with helpers to push graphs, orientations
/// and colorings across it in either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePermutation {
    /// `to_new[old]` = the relabeled id of old node `old`.
    to_new: Vec<NodeId>,
    /// `to_old[new]` = the original id of relabeled node `new`.
    to_old: Vec<NodeId>,
}

impl NodePermutation {
    /// The identity permutation on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<NodeId> = (0..n).collect();
        NodePermutation {
            to_new: ids.clone(),
            to_old: ids,
        }
    }

    /// Builds the permutation whose *new* order is `to_old` (i.e.
    /// `to_old[new]` is the old id placed at new id `new`).
    ///
    /// # Panics
    ///
    /// Panics if `to_old` is not a permutation of `0..to_old.len()`.
    fn from_new_order(to_old: Vec<NodeId>) -> Self {
        let n = to_old.len();
        let mut to_new = vec![usize::MAX; n];
        for (new, &old) in to_old.iter().enumerate() {
            assert!(old < n, "order entry {old} out of range for {n} nodes");
            assert_eq!(to_new[old], usize::MAX, "order places old node {old} twice");
            to_new[old] = new;
        }
        NodePermutation { to_new, to_old }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.to_new.len()
    }

    /// Whether the permutation is empty (zero nodes).
    pub fn is_empty(&self) -> bool {
        self.to_new.is_empty()
    }

    /// `true` when every node keeps its id (the [`RelabelPolicy::Off`]
    /// result, and occasionally a nontrivial policy's fixed point).
    pub fn is_identity(&self) -> bool {
        self.to_new.iter().enumerate().all(|(old, &new)| old == new)
    }

    /// The relabeled id of old node `old`.
    #[inline]
    pub fn to_new(&self, old: NodeId) -> NodeId {
        self.to_new[old]
    }

    /// The original id of relabeled node `new`.
    #[inline]
    pub fn to_old(&self, new: NodeId) -> NodeId {
        self.to_old[new]
    }

    /// The full new-id-indexed original-id table (`old_ids()[new]` =
    /// original id) — what id-reading simulators use to keep their
    /// decisions anchored to the original labels.
    pub fn old_ids(&self) -> &[NodeId] {
        &self.to_old
    }

    /// The graph with every node renamed to its relabeled id (adjacency
    /// re-sorted per row, as [`CsrGraph`] requires).
    pub fn permute_graph(&self, graph: &CsrGraph) -> CsrGraph {
        let n = graph.num_nodes();
        assert_eq!(n, self.len(), "permutation/graph size mismatch");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.num_edges());
        offsets.push(0);
        for new in 0..n {
            let start = targets.len();
            targets.extend(
                graph
                    .neighbors(self.to_old[new])
                    .iter()
                    .map(|&w| self.to_new[w]),
            );
            targets[start..].sort_unstable();
            offsets.push(targets.len());
        }
        CsrGraph::from_csr_parts(offsets, targets)
    }

    /// An orientation over relabeled ids: edge `u → w` becomes
    /// `to_new(u) → to_new(w)`, out-lists re-sorted by new id. Compute the
    /// orientation on the *original* graph and push it through this — see
    /// the module docs for why recomputing on the relabeled graph breaks
    /// bit-identity.
    pub fn permute_orientation(&self, orientation: &Orientation) -> Orientation {
        let n = orientation.num_nodes();
        assert_eq!(n, self.len(), "permutation/orientation size mismatch");
        let mut out_neighbors: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        for new in 0..n {
            let mut list: Vec<NodeId> = orientation
                .out_neighbors(self.to_old[new])
                .iter()
                .map(|&w| self.to_new[w])
                .collect();
            list.sort_unstable();
            out_neighbors.push(list);
        }
        Orientation::from_out_neighbors(out_neighbors)
    }

    /// Reindexes an old-id-indexed color array to relabeled ids.
    pub fn permute_colors(&self, colors: &[usize]) -> Vec<usize> {
        assert_eq!(colors.len(), self.len(), "permutation/colors size mismatch");
        self.to_old.iter().map(|&old| colors[old]).collect()
    }

    /// Reindexes a relabeled-id-indexed color array back to old ids — the
    /// "un-permute" leg of permute → color → un-permute.
    pub fn unpermute_colors(&self, colors: &[usize]) -> Vec<usize> {
        assert_eq!(colors.len(), self.len(), "permutation/colors size mismatch");
        self.to_new.iter().map(|&new| colors[new]).collect()
    }

    /// [`NodePermutation::unpermute_colors`] over a [`Coloring`].
    pub fn unpermute_coloring(&self, coloring: &Coloring) -> Coloring {
        Coloring::new(self.unpermute_colors(coloring.colors()))
    }
}

/// Computes `policy`'s permutation for `graph` and applies it, returning
/// the relabeled graph together with the [`NodePermutation`] that maps
/// results back. [`RelabelPolicy::Off`] returns a clone of the input and
/// the identity.
pub fn relabel(graph: &CsrGraph, policy: RelabelPolicy) -> (CsrGraph, NodePermutation) {
    let permutation = match policy {
        RelabelPolicy::Off => NodePermutation::identity(graph.num_nodes()),
        RelabelPolicy::DegreeSorted => NodePermutation::from_new_order(degree_sorted_order(graph)),
        RelabelPolicy::Rcm => NodePermutation::from_new_order(rcm_order(graph)),
    };
    if permutation.is_identity() {
        return (graph.clone(), permutation);
    }
    let relabeled = permutation.permute_graph(graph);
    (relabeled, permutation)
}

/// Old ids in descending-degree order, ties by ascending id — fully
/// deterministic for a fixed graph.
fn degree_sorted_order(graph: &CsrGraph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    order
}

/// Old ids in reverse Cuthill–McKee order. Deterministic: components are
/// entered at their minimum-`(degree, id)` node and BFS frontiers expand
/// neighbors in ascending `(degree, id)` order; isolated nodes form their
/// own (trivial) components.
fn rcm_order(graph: &CsrGraph) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut starts: Vec<NodeId> = graph.nodes().collect();
    starts.sort_by_key(|&v| (graph.degree(v), v));
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    for &start in &starts {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            frontier.clear();
            frontier.extend(graph.neighbors(v).iter().copied().filter(|&w| !visited[w]));
            frontier.sort_by_key(|&w| (graph.degree(w), w));
            for &w in &frontier {
                visited[w] = true;
                queue.push_back(w);
            }
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::greedy_by_id_order;

    /// Two components, an isolated node, and duplicate degrees everywhere:
    /// the tie-break edge cases both policies must stay deterministic on.
    fn awkward_graph() -> CsrGraph {
        // 0-1-2-3 path, 4 isolated, 5-6 and 7-8 disjoint edges (all four
        // of 5,6,7,8 share degree 1 with the path endpoints 0 and 3).
        CsrGraph::from_edges(9, [(0, 1), (1, 2), (2, 3), (5, 6), (7, 8)])
    }

    #[test]
    fn off_policy_is_the_identity() {
        let graph = awkward_graph();
        let (relabeled, permutation) = relabel(&graph, RelabelPolicy::Off);
        assert_eq!(relabeled, graph);
        assert!(permutation.is_identity());
        assert_eq!(permutation.len(), 9);
    }

    #[test]
    fn permutations_are_bijections_preserving_structure() {
        let graph = awkward_graph();
        for policy in [RelabelPolicy::DegreeSorted, RelabelPolicy::Rcm] {
            let (relabeled, permutation) = relabel(&graph, policy);
            assert_eq!(relabeled.num_nodes(), graph.num_nodes());
            assert_eq!(relabeled.num_edges(), graph.num_edges());
            for old in graph.nodes() {
                let new = permutation.to_new(old);
                assert_eq!(permutation.to_old(new), old, "{policy:?} round trip");
                assert_eq!(
                    relabeled.degree(new),
                    graph.degree(old),
                    "{policy:?} degree of old node {old}"
                );
            }
            for (u, v) in graph.edges() {
                assert!(
                    relabeled.has_edge(permutation.to_new(u), permutation.to_new(v)),
                    "{policy:?} lost edge ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn degree_sorted_order_is_descending_with_id_ties() {
        let graph = awkward_graph();
        let (relabeled, permutation) = relabel(&graph, RelabelPolicy::DegreeSorted);
        let degrees: Vec<usize> = relabeled.nodes().map(|v| relabeled.degree(v)).collect();
        let mut sorted = degrees.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(degrees, sorted, "degrees must be non-increasing in new id");
        // Ties break by ascending old id: degree-1 nodes are 0,3,5,6,7,8
        // in old-id order, after the two degree-2 nodes 1,2.
        let tie_block: Vec<NodeId> = (2..8).map(|new| permutation.to_old(new)).collect();
        assert_eq!(tie_block, vec![0, 3, 5, 6, 7, 8]);
        // The isolated node lands last.
        assert_eq!(permutation.to_old(8), 4);
    }

    #[test]
    fn rcm_brings_path_neighbors_together() {
        // A path inserted in scrambled id order has bandwidth ~n with the
        // original ids; RCM must relabel it to bandwidth 1.
        let path = CsrGraph::from_edges(7, [(3, 5), (5, 0), (0, 6), (6, 2), (2, 4), (4, 1)]);
        let (relabeled, permutation) = relabel(&path, RelabelPolicy::Rcm);
        let bandwidth = relabeled.edges().map(|(u, v)| v - u).max().unwrap();
        assert_eq!(bandwidth, 1, "RCM must linearize a path");
        assert!(!permutation.is_identity());
    }

    #[test]
    fn colorings_round_trip_through_the_permutation() {
        let graph = awkward_graph();
        for policy in [RelabelPolicy::DegreeSorted, RelabelPolicy::Rcm] {
            let (relabeled, permutation) = relabel(&graph, policy);
            // A proper coloring of the relabeled graph un-permutes to a
            // proper coloring of the original.
            let colored = greedy_by_id_order(&relabeled);
            assert!(colored.is_proper(&relabeled));
            let unpermuted = permutation.unpermute_coloring(&colored);
            assert!(
                unpermuted.is_proper(&graph),
                "{policy:?} unpermute broke propriety"
            );
            // permute ∘ unpermute is the identity on color arrays.
            assert_eq!(
                permutation.permute_colors(unpermuted.colors()),
                colored.colors(),
                "{policy:?} permute/unpermute must invert each other"
            );
        }
    }

    #[test]
    fn orientations_push_forward_and_keep_covering() {
        let graph = awkward_graph();
        let orientation = Orientation::from_total_order(&graph, |v| v);
        for policy in [RelabelPolicy::DegreeSorted, RelabelPolicy::Rcm] {
            let (relabeled, permutation) = relabel(&graph, policy);
            let pushed = permutation.permute_orientation(&orientation);
            assert!(
                pushed.covers_graph(&relabeled),
                "{policy:?} pushed orientation must cover the relabeled graph"
            );
            assert_eq!(
                pushed.num_oriented_edges(),
                orientation.num_oriented_edges()
            );
            assert_eq!(pushed.max_out_degree(), orientation.max_out_degree());
        }
    }

    #[test]
    fn policy_labels_round_trip() {
        for policy in RelabelPolicy::ALL {
            assert_eq!(RelabelPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(
            RelabelPolicy::parse("degree"),
            Some(RelabelPolicy::DegreeSorted)
        );
        assert_eq!(RelabelPolicy::parse("nope"), None);
    }

    #[test]
    fn empty_and_singleton_graphs_are_fine() {
        for policy in RelabelPolicy::ALL {
            let (empty, permutation) = relabel(&CsrGraph::empty(0), policy);
            assert_eq!(empty.num_nodes(), 0);
            assert!(permutation.is_empty());
            let (one, permutation) = relabel(&CsrGraph::empty(1), policy);
            assert_eq!(one.num_nodes(), 1);
            assert!(permutation.is_identity());
        }
    }
}

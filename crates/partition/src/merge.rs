//! Min-merging partial β-partitions (Lemma 4.10).

use sparse_graph::NodeId;

use crate::beta::BetaPartition;
use crate::layer::Layer;

/// Merges a collection of partial β-partitions, each given as a sparse
/// slice of `(node, finite layer)` pairs (nodes missing from a slice are at
/// `∞`), into a single partial β-partition via the node-wise minimum
/// `λ(v) = min_u ℓ_u(v)`.
///
/// By Lemma 4.10 the result is again a partial β-partition, and a node is
/// finite in the result as soon as *any* input assigns it a finite layer.
/// This is exactly how the AMPC algorithm of Theorem 1.2 combines the
/// per-node proofs produced by the LCA of Remark 4.8.
///
/// # Examples
///
/// ```
/// use beta_partition::{merge_min, Layer};
///
/// let a = [(0, 3), (1, 5)];
/// let b = [(1, 2), (2, 4)];
/// let merged = merge_min(4, 7, [&a[..], &b[..]]);
/// assert_eq!(merged.layer(0), Layer::Finite(3));
/// assert_eq!(merged.layer(1), Layer::Finite(2));
/// assert_eq!(merged.layer(2), Layer::Finite(4));
/// assert_eq!(merged.layer(3), Layer::Infinite);
/// ```
pub fn merge_min<I>(num_nodes: usize, beta: usize, partitions: I) -> BetaPartition
where
    I: IntoIterator,
    I::Item: AsRef<[(NodeId, usize)]>,
{
    let mut merged = BetaPartition::all_infinite(num_nodes, beta);
    for partition in partitions {
        for &(node, layer) in partition.as_ref() {
            debug_assert!(node < num_nodes, "node {node} out of range");
            let candidate = Layer::Finite(layer);
            if candidate < merged.layer(node) {
                merged.set_layer(node, candidate);
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induced::induced_partition;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    #[test]
    fn empty_merge_is_all_infinite() {
        let merged = merge_min(3, 2, std::iter::empty::<&[(NodeId, usize)]>());
        assert!(merged.is_partial());
        assert_eq!(merged.infinite_nodes().len(), 3);
    }

    #[test]
    fn merging_induced_partitions_stays_valid() {
        // Lemma 4.10 applied to sigma_{S_i} for random subsets S_i: the
        // node-wise minimum must remain a valid partial beta-partition.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let graph = generators::forest_union(200, 2, &mut rng);
        let beta = 5;
        let nodes: Vec<NodeId> = graph.nodes().collect();

        let mut sparse_partitions: Vec<Vec<(NodeId, usize)>> = Vec::new();
        for _ in 0..6 {
            let mut shuffled = nodes.clone();
            shuffled.shuffle(&mut rng);
            let subset = &shuffled[..100];
            let mut in_s = vec![false; graph.num_nodes()];
            for &v in subset {
                in_s[v] = true;
            }
            let sigma = induced_partition(&graph, &in_s, beta);
            let sparse: Vec<(NodeId, usize)> = graph
                .nodes()
                .filter_map(|v| sigma.layer(v).finite().map(|l| (v, l)))
                .collect();
            sparse_partitions.push(sparse);
        }

        let merged = merge_min(graph.num_nodes(), beta, sparse_partitions.iter());
        assert!(merged.validate(&graph).is_ok());
        // A node is finite in the merge iff it is finite in some input.
        for v in graph.nodes() {
            let finite_somewhere = sparse_partitions
                .iter()
                .any(|p| p.iter().any(|&(node, _)| node == v));
            assert_eq!(merged.layer(v).is_finite(), finite_somewhere);
        }
    }

    #[test]
    fn merge_takes_pointwise_minimum() {
        let a = vec![(0, 9), (2, 1)];
        let b = vec![(0, 4)];
        let c = vec![(0, 6), (1, 0)];
        let merged = merge_min(3, 3, [&a, &b, &c]);
        assert_eq!(merged.layer(0), Layer::Finite(4));
        assert_eq!(merged.layer(1), Layer::Finite(0));
        assert_eq!(merged.layer(2), Layer::Finite(1));
    }
}

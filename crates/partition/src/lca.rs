//! The sublinear deterministic LCA for partial β-partitions
//! (Lemma 4.7 / Remark 4.8).
//!
//! The proof is the game's final `σ` cut at the layer cap. The AMPC
//! driver streams it from the game's scratch straight into a machine's
//! writes ([`partial_partition_lca_with`]); [`partial_partition_lca`]
//! collects it into a sorted vector for callers that keep it.

use ampc_model::{LcaOracle, ModelError};
use sparse_graph::{CsrGraph, NodeId};

use crate::coin_game::{CoinGame, CoinGameConfig, CoinGameScratch, CoinGameSummary};
use crate::layer::Layer;

/// Output of one LCA invocation for a queried node (Remark 4.8).
///
/// Besides its own layer, the LCA outputs a *proof*: a partial β-partition
/// `ℓ_u` on the subgraph it explored, restricted to layers at most
/// [`LcaPartitionOutput::layer_cap`]. Merging the proofs of many nodes with
/// the global minimum function (Lemma 4.10) yields a globally consistent
/// partial β-partition — this is exactly what the AMPC algorithm of
/// Theorem 1.2 does with these outputs.
#[derive(Debug, Clone)]
pub struct LcaPartitionOutput {
    /// The queried node.
    pub root: NodeId,
    /// Layers strictly above this cap are reported as `∞`
    /// (`⌊log_{β+1} x⌋` by default, Lemma 4.7).
    pub layer_cap: usize,
    /// The proof partition `ℓ_u` as `(node, layer)` pairs sorted by node:
    /// finite layers (≤ cap) for explored nodes; every absent node is at
    /// `∞`.
    pub proof: Vec<(NodeId, usize)>,
    /// The queried node's own (capped) layer.
    pub root_layer: Layer,
    /// Number of LCA queries issued.
    pub queries: usize,
    /// Number of nodes explored (`|S_v|`).
    pub explored: usize,
    /// Number of super-iterations the coin game executed.
    pub super_iterations: usize,
}

/// Runs the deterministic LCA of Lemma 4.7 / Remark 4.8 for a single node.
///
/// The LCA plays the `(x, β, F)`-coin dropping game from `root`, computes
/// the `S_v`-induced β-partition of the explored subgraph and reports every
/// explored node whose layer is at most `⌊log_{β+1} x⌋` (the cap from the
/// lemma; configurable through [`CoinGameConfig::with_layer_cap`]).
///
/// # Errors
///
/// Propagates [`ModelError::QueryBudgetExceeded`] if `oracle` enforces a
/// budget that the exploration exhausts.
///
/// # Examples
///
/// ```
/// use ampc_model::LcaOracle;
/// use beta_partition::{partial_partition_lca, CoinGameConfig, Layer};
/// use sparse_graph::generators;
///
/// let graph = generators::star(30);
/// let oracle = LcaOracle::new(&graph);
/// let output = partial_partition_lca(&oracle, 7, &CoinGameConfig::new(8, 3))?;
/// assert_eq!(output.root_layer, Layer::Finite(0)); // a leaf sits on layer 0
/// assert!(output.proof.contains(&(7, 0)));
/// # Ok::<(), ampc_model::ModelError>(())
/// ```
pub fn partial_partition_lca(
    oracle: &LcaOracle<'_>,
    root: NodeId,
    config: &CoinGameConfig,
) -> Result<LcaPartitionOutput, ModelError> {
    let mut proof = Vec::new();
    let summary = partial_partition_lca_with(
        oracle,
        root,
        config,
        &mut CoinGameScratch::default(),
        |node, layer| {
            proof.push((node, layer));
            Ok(())
        },
    )?;
    proof.sort_unstable();
    let layer_cap = config.effective_layer_cap();
    Ok(LcaPartitionOutput {
        root,
        layer_cap,
        proof,
        root_layer: match summary.sigma_root {
            Layer::Finite(layer) if layer <= layer_cap => Layer::Finite(layer),
            _ => Layer::Infinite,
        },
        queries: summary.queries,
        explored: summary.explored,
        super_iterations: summary.super_iterations_run,
    })
}

/// [`partial_partition_lca`] inside a reusable scratch: `emit` receives
/// each proof entry `(node, layer)` (layer ≤ cap) in the order the nodes
/// were explored, and nothing is collected. This is the machine body of a
/// partition round, which writes the proof straight into its context.
///
/// # Errors
///
/// Propagates query-budget violations from the game and the first error
/// `emit` returns.
pub(crate) fn partial_partition_lca_with(
    oracle: &LcaOracle<'_>,
    root: NodeId,
    config: &CoinGameConfig,
    scratch: &mut CoinGameScratch,
    mut emit: impl FnMut(NodeId, usize) -> Result<(), ModelError>,
) -> Result<CoinGameSummary, ModelError> {
    let summary = CoinGame::new(oracle, *config).play(root, scratch)?;
    let layer_cap = config.effective_layer_cap();
    for (node, layer) in scratch.sigma() {
        if layer <= layer_cap {
            emit(node, layer)?;
        }
    }
    Ok(summary)
}

/// Convenience driver running the LCA for *every* node of a graph and
/// reporting aggregate statistics — the measurement behind experiment E1
/// (the fraction of nodes the LCA manages to layer, and its query cost).
///
/// Returns the per-node outputs in node order.
///
/// # Errors
///
/// Propagates the first query-budget violation.
pub fn lca_for_all_nodes(
    graph: &CsrGraph,
    config: &CoinGameConfig,
) -> Result<Vec<LcaPartitionOutput>, ModelError> {
    let oracle = LcaOracle::new(graph);
    graph
        .nodes()
        .map(|v| partial_partition_lca(&oracle, v, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induced::natural_partition;
    use crate::merge::merge_min;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    #[test]
    fn proof_layers_respect_the_cap() {
        let graph = generators::complete_kary_tree(4, 3);
        let oracle = LcaOracle::new(&graph);
        let config = CoinGameConfig::new(16, 3); // cap = 2 < natural depth 3
        let output = partial_partition_lca(&oracle, 0, &config).unwrap();
        assert_eq!(output.layer_cap, 2);
        assert!(output.proof.iter().all(|&(_, l)| l <= 2));
        // The root's natural layer is 3 > cap, so it must report ∞.
        assert_eq!(output.root_layer, Layer::Infinite);
    }

    #[test]
    fn merged_proofs_form_a_valid_partial_partition() {
        // Remark 4.8: min-merging all per-node proofs is a valid partial
        // beta-partition of the whole graph.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let graph = generators::forest_union(120, 2, &mut rng);
        let beta = 5;
        let config = CoinGameConfig::new(6, beta);
        let outputs = lca_for_all_nodes(&graph, &config).unwrap();
        let merged = merge_min(graph.num_nodes(), beta, outputs.iter().map(|o| &o.proof));
        assert!(merged.validate(&graph).is_ok());
        // Every node that reported a finite layer for itself is finite in the
        // merge (Lemma 4.10, "moreover" part).
        for output in &outputs {
            if output.root_layer.is_finite() {
                assert!(merged.layer(output.root).is_finite());
            }
        }
    }

    #[test]
    fn most_nodes_receive_a_layer_on_bounded_arboricity_graphs() {
        // The quantitative content of Lemma 4.7: a large fraction of nodes is
        // layered. On a 2-forest with beta = 5 and x = 8 the overwhelming
        // majority of nodes has a small dependency graph and a small natural
        // layer, so well over half must succeed.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let graph = generators::forest_union(240, 2, &mut rng);
        let config = CoinGameConfig::new(6, 5);
        let outputs = lca_for_all_nodes(&graph, &config).unwrap();
        let layered = outputs.iter().filter(|o| o.root_layer.is_finite()).count();
        assert!(
            layered * 2 > graph.num_nodes(),
            "only {layered}/{} nodes layered",
            graph.num_nodes()
        );
    }

    #[test]
    fn lca_layer_never_beats_the_natural_layer() {
        // Lemma 3.13 carried through the LCA: a reported finite layer is at
        // least the node's natural layer (and equals it when Lemma 4.4's
        // preconditions hold).
        let graph = generators::complete_kary_tree(3, 3);
        let beta = 2;
        let natural = natural_partition(&graph, beta);
        let config = CoinGameConfig::new(27, beta); // cap = log_3(27) = 3
        let outputs = lca_for_all_nodes(&graph, &config).unwrap();
        for output in &outputs {
            if let Layer::Finite(reported) = output.root_layer {
                let Layer::Finite(natural_layer) = natural.layer(output.root) else {
                    panic!("natural partition of a tree is complete");
                };
                assert!(reported >= natural_layer);
            }
        }
        // The root has dependency graph of size 40 <= x^2 and natural layer
        // 3 <= cap, so by Lemma 4.4 it must be layered exactly.
        assert_eq!(outputs[0].root_layer, natural.layer(0));
    }

    #[test]
    fn query_complexity_stays_sublinear_per_node() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let graph = generators::forest_union(1_500, 2, &mut rng);
        let config = CoinGameConfig::new(4, 5);
        let outputs = lca_for_all_nodes(&graph, &config).unwrap();
        let max_queries = outputs.iter().map(|o| o.queries).max().unwrap();
        // x = 4 explores at most x new nodes per super-iteration over x^2
        // super-iterations (at most 65 nodes), so the per-node query count
        // stays far below n = 1500.
        assert!(
            max_queries < graph.num_nodes() / 2,
            "max queries {max_queries} not sublinear"
        );
    }
}

//! The AMPC β-partitioning algorithm (Theorem 1.2).
//!
//! Each AMPC round, every remaining node's machine runs the sublinear LCA of
//! Remark 4.8 on the subgraph induced by the still-unlayered nodes, writes
//! the resulting proof partition into the next data store, and the proofs are
//! min-merged (Lemma 4.10) into a globally consistent partial β-partition.
//! Nodes that received a finite layer are appended to the output (with a
//! per-round offset) and the algorithm recurses on the rest. When the LCA
//! cannot make progress (or when the caller disables it, as in the
//! large-arboricity regime), a Barenboim–Elkin peeling round is used
//! instead, which always peels a constant fraction of nodes as long as
//! `β ≥ 2α` (Lemma 3.4).

use std::fmt;
use std::sync::Arc;

use ampc_model::{
    AmpcConfig, AmpcMetrics, Key, LcaOracle, ModelError, RoundReport, RoundRuntimeStats, Value,
};
use ampc_runtime::trace::{span_on, TraceContext};
use ampc_runtime::{RuntimeConfig, ScratchPool};
use sparse_graph::{CsrGraph, InducedSubgraph, NodeId};

use crate::beta::BetaPartition;
use crate::coin_game::{CoinGameConfig, CoinGameScratch};
use crate::layer::Layer;
use crate::lca::partial_partition_lca_with;

/// Errors reported by the AMPC partitioning drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// No progress was possible: every remaining node has degree above `β`
    /// in the residual graph, which means `β < 2α(G)` (Lemma 3.4).
    Stalled {
        /// Number of nodes that could not be layered.
        remaining: usize,
    },
    /// The round limit was exhausted before every node was layered.
    RoundLimitExceeded {
        /// The limit that was in force.
        limit: usize,
        /// Number of nodes still unlayered.
        remaining: usize,
    },
    /// A model-resource violation (query or space budget) occurred.
    Model(ModelError),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Stalled { remaining } => write!(
                f,
                "partitioning stalled with {remaining} nodes left: beta is below twice the \
                 arboricity of the residual graph"
            ),
            PartitionError::RoundLimitExceeded { limit, remaining } => write!(
                f,
                "round limit {limit} exhausted with {remaining} nodes unlayered"
            ),
            PartitionError::Model(err) => write!(f, "model violation: {err}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<ModelError> for PartitionError {
    fn from(err: ModelError) -> Self {
        PartitionError::Model(err)
    }
}

/// Parameters of the AMPC β-partitioning algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionParams {
    /// The out-degree parameter `β` (must satisfy `β ≥ (2 + ε)α` for the
    /// guarantees to apply).
    pub beta: usize,
    /// Local-space exponent `δ` used for resource accounting.
    pub delta: f64,
    /// The coin-game budget `x`. `None` derives `x = max(4, ⌈n^{δ/6}⌉)` from
    /// the graph, mirroring the choice `x = n^{δ/c}`, `c > 6` in the proof of
    /// Theorem 1.2.
    pub x: Option<usize>,
    /// Optional override of the per-round reported-layer cap
    /// (default `⌊log_{β+1} x⌋`).
    pub layer_cap: Option<usize>,
    /// Optional override of the coin game's super-iteration count
    /// (default `x²`). Lower values trade AMPC rounds for simulation speed
    /// without affecting correctness.
    pub super_iterations: Option<usize>,
    /// Optional override of the coin game's flow iterations.
    pub flow_iterations: Option<usize>,
    /// Hard limit on AMPC rounds (safety net; the theory predicts
    /// `O(log_{β/(2α)} β)` rounds).
    pub max_rounds: usize,
    /// If `false`, skip the LCA entirely and peel one Barenboim–Elkin layer
    /// per round — the algorithm used in the large-arboricity regime
    /// (`α ≥ n^{Ω(δ²)}`) of Theorem 1.2.
    pub use_lca: bool,
    /// How many threads run the AMPC rounds. Does not affect the result:
    /// every thread count computes the same partition and metrics.
    pub runtime: RuntimeConfig,
}

impl PartitionParams {
    /// Parameters with the paper's defaults for a given `β`.
    pub fn new(beta: usize) -> Self {
        PartitionParams {
            beta,
            delta: 0.5,
            x: None,
            layer_cap: None,
            super_iterations: None,
            flow_iterations: None,
            max_rounds: 256,
            use_lca: true,
            runtime: RuntimeConfig::default(),
        }
    }

    /// Overrides the coin budget `x`.
    pub fn with_x(mut self, x: usize) -> Self {
        self.x = Some(x);
        self
    }

    /// Overrides the local-space exponent `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Overrides the reported-layer cap per round.
    pub fn with_layer_cap(mut self, cap: usize) -> Self {
        self.layer_cap = Some(cap);
        self
    }

    /// Overrides the coin game's super-iteration count.
    pub fn with_super_iterations(mut self, super_iterations: usize) -> Self {
        self.super_iterations = Some(super_iterations);
        self
    }

    /// Overrides the round limit.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Disables the LCA (pure Barenboim–Elkin peeling, one layer per round).
    pub fn without_lca(mut self) -> Self {
        self.use_lca = false;
        self
    }

    /// Selects the thread count for the AMPC rounds.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// The effective coin budget for an `n`-node residual graph.
    pub fn effective_x(&self, n: usize) -> usize {
        self.x.unwrap_or_else(|| {
            let derived = (n.max(2) as f64).powf(self.delta / 6.0).ceil() as usize;
            derived.max(4)
        })
    }

    fn coin_game_config(&self, n: usize) -> CoinGameConfig {
        let mut config = CoinGameConfig::new(self.effective_x(n), self.beta);
        config.layer_cap = self.layer_cap;
        config.super_iterations = self.super_iterations;
        config.flow_iterations = self.flow_iterations;
        config
    }
}

/// Result of the AMPC β-partitioning algorithm.
#[derive(Debug, Clone)]
pub struct AmpcPartitionResult {
    /// The computed (complete) β-partition.
    pub partition: BetaPartition,
    /// Number of AMPC rounds used.
    pub rounds: usize,
    /// Per-round resource accounting (machines = remaining nodes, reads =
    /// LCA queries, writes = proof sizes).
    pub metrics: AmpcMetrics,
    /// Number of still-unlayered nodes *before* each round (index 0 = `n`).
    pub remaining_per_round: Vec<usize>,
    /// Largest per-node LCA query count observed in any round.
    pub max_queries_per_node: usize,
    /// Number of rounds that fell back to (or deliberately used)
    /// Barenboim–Elkin peeling instead of the LCA.
    pub peeling_rounds: usize,
}

impl AmpcPartitionResult {
    /// The number of distinct layers of the output partition.
    pub fn partition_size(&self) -> usize {
        self.partition.size()
    }
}

/// Resource configuration for the partition rounds.
///
/// Budgets follow the model's `S = slack · N^δ`, with the slack chosen so
/// the per-machine write budget covers the largest possible LCA proof (the
/// coin game explores at most `x · super_iterations + 1` nodes) — the
/// "scaling the constant in front of `N^δ`" the paper's algorithms rely on
/// (Lemma 5.1). Read accounting for the LCA goes through
/// [`ampc_model::MachineContext::note_reads`], which counts the oracle's
/// queries without enforcing the read budget.
fn partition_round_config(graph: &CsrGraph, params: &PartitionParams) -> AmpcConfig {
    let input_size = graph.num_nodes() + graph.num_edges();
    let x = params.effective_x(graph.num_nodes());
    let super_iterations = params.super_iterations.unwrap_or(x.saturating_mul(x));
    let needed = x
        .saturating_mul(super_iterations)
        .saturating_add(x)
        .saturating_add(4);
    let config = AmpcConfig::for_input_size(input_size, params.delta);
    let slack = (needed as f64 / config.local_space() as f64).max(1.0);
    config.with_space_slack(slack)
}

/// Folds the reports of an LCA attempt and its peeling fallback (run as two
/// engine rounds) into the one logical AMPC round they constitute.
fn combine_reports(lca: &RoundReport, peel: &RoundReport) -> RoundReport {
    RoundReport::from_measurements(
        lca.round,
        lca.machines.max(peel.machines),
        lca.max_reads.max(peel.max_reads),
        lca.max_writes.max(peel.max_writes),
        lca.total_reads + peel.total_reads,
        lca.total_writes + peel.total_writes,
        peel.store_words,
    )
}

/// Copies the engine's per-round runtime measurements into the result
/// metrics, folding them per logical round: `spans[i]` engine rounds
/// contributed to logical round `i` (2 when an LCA attempt fell through to
/// peeling), so `runtime_stats()[i]` describes `rounds()[i]`.
fn absorb_runtime_stats(metrics: &mut AmpcMetrics, stats: &[RoundRuntimeStats], spans: &[usize]) {
    let mut next = 0usize;
    for &span in spans {
        let folded = stats[next..next + span]
            .iter()
            .fold(RoundRuntimeStats::default(), |acc, stat| acc.combine(stat));
        metrics.record_runtime(folded);
        next += span;
    }
    debug_assert_eq!(
        next,
        stats.len(),
        "every engine round belongs to a logical round"
    );
}

/// Computes a complete β-partition of `graph` in the AMPC model
/// (Theorem 1.2).
///
/// # Errors
///
/// * [`PartitionError::Stalled`] if `β` is smaller than twice the arboricity
///   of some residual graph (no node has degree ≤ β), in which case no
///   β-partition of the requested `β` exists that this algorithm can find.
/// * [`PartitionError::RoundLimitExceeded`] if `params.max_rounds` is too
///   small.
/// * [`PartitionError::Model`] if a query budget is violated.
///
/// # Examples
///
/// ```
/// use beta_partition::{ampc_beta_partition, PartitionParams};
/// use sparse_graph::generators;
///
/// let graph = generators::grid(20, 20); // planar, arboricity <= 2
/// let params = PartitionParams::new(5).with_x(4);
/// let result = ampc_beta_partition(&graph, &params).unwrap();
/// assert!(!result.partition.is_partial());
/// assert!(result.partition.validate(&graph).is_ok());
/// ```
pub fn ampc_beta_partition(
    graph: &CsrGraph,
    params: &PartitionParams,
) -> Result<AmpcPartitionResult, PartitionError> {
    ampc_beta_partition_traced(graph, params, None)
}

/// [`ampc_beta_partition`] with an optional span recorder attached: the
/// engine emits round/execute/merge spans into `trace` and the driver adds
/// one `partition.round` span per logical round. Tracing is
/// measurement-only — the partition (and the model-level metrics) are
/// bit-identical with and without it.
///
/// # Errors
///
/// See [`ampc_beta_partition`].
pub fn ampc_beta_partition_traced(
    graph: &CsrGraph,
    params: &PartitionParams,
    trace: Option<Arc<TraceContext>>,
) -> Result<AmpcPartitionResult, PartitionError> {
    let n = graph.num_nodes();
    let mut partition = BetaPartition::all_infinite(n, params.beta);
    let mut remaining: Vec<NodeId> = graph.nodes().collect();
    let mut still_remaining: Vec<NodeId> = Vec::new();
    let mut offset = 0usize;
    let mut metrics = AmpcMetrics::default();
    let mut remaining_per_round = Vec::new();
    let mut max_queries_per_node = 0usize;
    let mut peeling_rounds = 0usize;
    let mut rounds = 0usize;
    // Engine rounds per logical round (2 when LCA fell through to peeling).
    let mut round_spans: Vec<usize> = Vec::new();

    // One engine drives every round: the machines of a round (one per
    // still-unlayered node) write their LCA proofs into the next data store,
    // which keeps the minimum layer per node — the merge of Lemma 4.10.
    let mut engine = params
        .runtime
        .engine(partition_round_config(graph, params))
        .with_trace(trace.clone());
    // One game scratch per chunk of machines, warm across rounds.
    let scratch = ScratchPool::<CoinGameScratch>::new();

    while !remaining.is_empty() {
        if rounds >= params.max_rounds {
            return Err(PartitionError::RoundLimitExceeded {
                limit: params.max_rounds,
                remaining: remaining.len(),
            });
        }
        remaining_per_round.push(remaining.len());
        rounds += 1;
        let _round_span = span_on(trace.as_deref(), "partition.round", "driver")
            .with_arg("round", rounds as u64)
            .with_arg("remaining", remaining.len() as u64);

        // Round 1 runs on the input graph itself; later rounds on the
        // subgraph induced by the still-unlayered nodes.
        let subgraph = (remaining.len() < n).then(|| InducedSubgraph::new(graph, &remaining));
        let sub = subgraph.as_ref().map_or(graph, InducedSubgraph::graph);
        let sub_n = sub.num_nodes();

        // Try the LCA-based round first (unless disabled): machine `v` runs
        // the sublinear LCA of Remark 4.8 and writes its proof partition
        // (one `(node) -> layer` entry per explored node) into the next
        // store; the min-merge folds all proofs into a globally consistent
        // partial β-partition (Lemma 4.10).
        let lca_report = if params.use_lca {
            let config = params.coin_game_config(sub_n);
            Some(engine.round(sub_n, || {
                // Every machine of the chunk plays its game on the chunk's
                // scratch; each game resets it before it starts.
                let mut lease = scratch.lease();
                move |machine, ctx| {
                    // A fresh oracle view per machine: queries are counted
                    // per machine, exactly the per-node accounting of
                    // Lemma 4.7.
                    let oracle = LcaOracle::new(sub);
                    let summary = partial_partition_lca_with(
                        &oracle,
                        machine,
                        &config,
                        &mut lease,
                        |node, layer| {
                            ctx.write(Key::single(node as u64), Value::single(layer as u64))
                        },
                    )?;
                    ctx.note_reads(summary.queries);
                    Ok(())
                }
            })?)
        } else {
            None
        };

        // Fallback (and the deliberate large-arboricity path): one
        // Barenboim–Elkin peeling layer — every node of residual degree <= β
        // writes layer 0 for itself. A round's store holds exactly the
        // nodes it layered, so an empty store means the LCA layered none.
        let peel_report = if lca_report.is_none() || engine.layered() == 0 {
            peeling_rounds += 1;
            let mut report = engine.round(sub_n, || {
                |machine, ctx| {
                    ctx.note_reads(1);
                    if sub.degree(machine) <= params.beta {
                        ctx.write(Key::single(machine as u64), Value::single(0))?;
                    }
                    Ok(())
                }
            })?;
            // A machine inspects up to β + 1 adjacency entries to certify
            // its low degree; mirror the seed's accounting.
            report.max_reads = report.max_reads.max(params.beta + 1);
            Some(report)
        } else {
            None
        };

        if engine.layered() == 0 {
            return Err(PartitionError::Stalled {
                remaining: remaining.len(),
            });
        }

        // One pass over the residual graph: a layered node takes its layer
        // (shifted by the per-round offset), the rest recurse.
        let mut round_max_layer = 0usize;
        still_remaining.clear();
        for v in sub.nodes() {
            let original = subgraph.as_ref().map_or(v, |s| s.to_original(v));
            match engine.layer(v) {
                Some(layer) => {
                    let layer = layer as usize;
                    round_max_layer = round_max_layer.max(layer);
                    partition.set_layer(original, Layer::Finite(offset + layer));
                }
                None => still_remaining.push(original),
            }
        }
        offset += round_max_layer + 1;

        // One logical AMPC round per loop iteration: when the LCA attempt
        // fell through to peeling, both engine rounds fold into one report.
        let mut report = match (lca_report, peel_report) {
            (Some(lca), Some(peel)) => {
                round_spans.push(2);
                combine_reports(&lca, &peel)
            }
            (Some(report), None) | (None, Some(report)) => {
                round_spans.push(1);
                report
            }
            (None, None) => unreachable!("at least one engine round ran"),
        };
        // Model-level space accounting as in the original driver: the
        // round's DDS conceptually holds the residual graph plus one layer
        // entry per remaining node (the adjacency is served through the
        // LcaOracle side channel, so the engine store only contains the
        // written layer entries).
        report.store_words = 2 * sub.num_edges() + sub_n;
        max_queries_per_node = max_queries_per_node.max(report.max_reads);
        metrics.record(report);

        std::mem::swap(&mut remaining, &mut still_remaining);
    }

    // Surface the engine's runtime measurements (wall clock, pool use,
    // conflict merges) through the result metrics.
    absorb_runtime_stats(&mut metrics, engine.metrics().runtime_stats(), &round_spans);

    debug_assert!(partition.validate(graph).is_ok());

    Ok(AmpcPartitionResult {
        partition,
        rounds,
        metrics,
        remaining_per_round,
        max_queries_per_node,
        peeling_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn partitions_forest_unions_completely() {
        for k in [1usize, 2, 3] {
            let graph = generators::forest_union(250, k, &mut rng(100 + k as u64));
            let beta = 2 * k + 2;
            let params = PartitionParams::new(beta).with_x(4);
            let result = ampc_beta_partition(&graph, &params).unwrap();
            assert!(!result.partition.is_partial(), "k = {k}");
            assert!(result.partition.validate(&graph).is_ok(), "k = {k}");
            assert_eq!(result.remaining_per_round[0], 250);
            assert!(result.rounds >= 1);
            assert_eq!(result.metrics.num_rounds(), result.rounds);
        }
    }

    #[test]
    fn orientation_from_result_has_bounded_out_degree() {
        let graph = generators::preferential_attachment(300, 3, &mut rng(7));
        let beta = 8;
        let params = PartitionParams::new(beta).with_x(4);
        let result = ampc_beta_partition(&graph, &params).unwrap();
        let orientation = result.partition.orientation(&graph).unwrap();
        assert!(orientation.is_acyclic());
        assert!(orientation.max_out_degree() <= beta);
    }

    #[test]
    fn pure_peeling_mode_matches_h_partition_round_count() {
        let graph = generators::forest_union(400, 2, &mut rng(8));
        let beta = 6;
        let params = PartitionParams::new(beta).without_lca();
        let result = ampc_beta_partition(&graph, &params).unwrap();
        let peeled = crate::h_partition::h_partition(&graph, beta);
        assert_eq!(result.rounds, peeled.rounds);
        assert_eq!(result.peeling_rounds, result.rounds);
        assert!(!result.partition.is_partial());
        assert!(result.partition.validate(&graph).is_ok());
    }

    #[test]
    fn lca_mode_uses_fewer_rounds_than_peeling_on_deep_instances() {
        // On a (beta + 1)-ary tree the peeling needs one round per level,
        // while the LCA collapses several levels (up to its layer cap) into
        // one AMPC round.
        let beta = 3;
        let graph = generators::complete_kary_tree(beta + 1, 5);
        let peeling =
            ampc_beta_partition(&graph, &PartitionParams::new(beta).without_lca()).unwrap();
        assert_eq!(peeling.rounds, 6);
        let lca = ampc_beta_partition(
            &graph,
            &PartitionParams::new(beta).with_x(16).with_layer_cap(2),
        )
        .unwrap();
        assert!(
            lca.rounds < peeling.rounds,
            "LCA rounds {} not below peeling rounds {}",
            lca.rounds,
            peeling.rounds
        );
        assert!(lca.partition.validate(&graph).is_ok());
        assert!(!lca.partition.is_partial());
    }

    #[test]
    fn stalls_when_beta_is_too_small() {
        let graph = generators::complete(8); // arboricity 4, degeneracy 7
        let params = PartitionParams::new(3);
        let err = ampc_beta_partition(&graph, &params).unwrap_err();
        assert!(matches!(err, PartitionError::Stalled { remaining: 8 }));
        assert!(err.to_string().contains("stalled"));
    }

    #[test]
    fn round_limit_is_enforced() {
        let graph = generators::complete_kary_tree(4, 4);
        let params = PartitionParams::new(3).without_lca().with_max_rounds(2);
        let err = ampc_beta_partition(&graph, &params).unwrap_err();
        assert!(matches!(
            err,
            PartitionError::RoundLimitExceeded { limit: 2, .. }
        ));
    }

    #[test]
    fn empty_graph_is_trivially_partitioned() {
        let graph = sparse_graph::CsrGraph::empty(0);
        let result = ampc_beta_partition(&graph, &PartitionParams::new(3)).unwrap();
        assert_eq!(result.rounds, 0);
        assert_eq!(result.partition.num_nodes(), 0);
    }

    #[test]
    fn effective_x_derivation() {
        let params = PartitionParams::new(5).with_delta(0.6);
        // n^{0.1} for n = 10^5 is 10^{0.5} ~ 3.16 -> ceil 4 -> max(4, 4).
        assert_eq!(params.effective_x(100_000), 4);
        // Explicit x wins.
        assert_eq!(params.with_x(9).effective_x(100_000), 9);
        // Tiny graphs still get the minimum budget.
        assert_eq!(PartitionParams::new(5).effective_x(1), 4);
    }

    #[test]
    fn metrics_report_queries_and_writes() {
        let graph = generators::forest_union(200, 2, &mut rng(9));
        let params = PartitionParams::new(6).with_x(4);
        let result = ampc_beta_partition(&graph, &params).unwrap();
        assert!(result.max_queries_per_node > 0);
        assert!(result.metrics.max_reads_per_machine() >= result.max_queries_per_node);
        assert!(result.metrics.total_communication() > 0);
        // The per-round remaining counts are strictly decreasing.
        for window in result.remaining_per_round.windows(2) {
            assert!(window[1] < window[0]);
        }
    }
}

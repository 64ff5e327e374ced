//! End-to-end AMPC coloring drivers (Theorem 1.3 and Section 6.4).
//!
//! Every driver follows the paper's two-step recipe: first compute a
//! β-partition with Theorem 1.2 (crate `beta-partition`), then simulate a
//! LOCAL/MPC coloring routine on top of the orientation or the layers the
//! partition provides. The drivers return both the coloring and the round
//! accounting of the two phases.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use ampc_runtime::trace::{span_on, TraceContext};
use ampc_runtime::{parallel_map_weighted, RoundPrimitives, RuntimeConfig};
use beta_partition::{
    ampc_beta_partition_traced, AmpcPartitionResult, BetaPartition, Layer, PartitionError,
    PartitionParams,
};
use sparse_graph::{Coloring, CsrGraph, InducedSubgraph, NodeId, Orientation};

use crate::arb_linial::{arb_linial_coloring_with_runtime, ArbLinialError};
use crate::derand::{derandomized_coloring_with_runtime, DerandParams};
use crate::kuhn_wattenhofer::kw_color_reduction_with_runtime;
use crate::recolor::{recolor_layers_with_runtime, RecolorOrder};

/// Errors reported by the coloring drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColoringError {
    /// The β-partition phase failed (e.g. `β < 2α`).
    Partition(PartitionError),
    /// A coloring subroutine reported an inconsistency.
    Internal(String),
    /// An AMPC round kept failing — panicking or overrunning its deadline —
    /// after the runtime's bounded retries were exhausted. Unlike
    /// [`ColoringError::Partition`] / [`ColoringError::Internal`] this is
    /// an *availability* failure, not a logic error: the job may succeed
    /// if resubmitted (the service's job-level retry does exactly that).
    RoundFailure {
        /// Round index (0-based within the failing phase).
        round: usize,
        /// What kept happening: the panic payload or the blown deadline.
        reason: String,
    },
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::Partition(err) => write!(f, "beta-partition phase failed: {err}"),
            ColoringError::Internal(message) => write!(f, "coloring phase failed: {message}"),
            ColoringError::RoundFailure { round, reason } => {
                write!(f, "round {round} failed permanently: {reason}")
            }
        }
    }
}

impl std::error::Error for ColoringError {}

impl From<PartitionError> for ColoringError {
    fn from(err: PartitionError) -> Self {
        // Retry-exhaustion failures are surfaced structurally so callers
        // (the service's job supervisor) can tell a transient round
        // failure from a deterministic partition error.
        if let PartitionError::Model(model) = &err {
            if let Some(failure) = ColoringError::from_round_failure(model) {
                return failure;
            }
        }
        ColoringError::Partition(err)
    }
}

impl ColoringError {
    /// The structured form of the runtime's retry-exhaustion errors, or
    /// `None` for ordinary (deterministic) model errors.
    fn from_round_failure(error: &ampc_model::ModelError) -> Option<ColoringError> {
        match error {
            ampc_model::ModelError::RoundPanicked { round, detail } => {
                Some(ColoringError::RoundFailure {
                    round: *round,
                    reason: format!("panicked: {detail}"),
                })
            }
            ampc_model::ModelError::RoundDeadlineExceeded {
                round,
                deadline_ms,
                attempts,
            } => Some(ColoringError::RoundFailure {
                round: *round,
                reason: format!(
                    "exceeded its {deadline_ms} ms deadline on all {attempts} attempts"
                ),
            }),
            _ => None,
        }
    }

    /// Whether this failure is transient (a whole-job retry may succeed).
    pub fn is_transient(&self) -> bool {
        matches!(self, ColoringError::RoundFailure { .. })
    }
}

impl From<String> for ColoringError {
    fn from(message: String) -> Self {
        ColoringError::Internal(message)
    }
}

impl From<ArbLinialError> for ColoringError {
    fn from(error: ArbLinialError) -> Self {
        ColoringError::Internal(error.to_string())
    }
}

impl From<crate::RecolorError> for ColoringError {
    fn from(error: crate::RecolorError) -> Self {
        ColoringError::Internal(error.to_string())
    }
}

/// Parameters shared by all Theorem 1.3 drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpcColoringParams {
    /// The constant `ε > 0` appearing in the color/round trade-offs.
    pub epsilon: f64,
    /// Local-space exponent `δ`.
    pub delta: f64,
    /// Coin budget for the partition phase's LCA (`None` derives it from the
    /// graph size as in Theorem 1.2).
    pub x: Option<usize>,
    /// Optional cap on the coin game's super-iterations (simulation-speed
    /// knob; does not affect correctness).
    pub partition_super_iterations: Option<usize>,
    /// Round limit for the partition phase.
    pub max_partition_rounds: usize,
    /// How many worker threads the AMPC rounds and the per-layer coloring
    /// phase may use. Does not affect the result: every thread count is
    /// bit-identical for a fixed input.
    pub runtime: RuntimeConfig,
}

impl Default for AmpcColoringParams {
    fn default() -> Self {
        AmpcColoringParams {
            epsilon: 0.5,
            delta: 0.5,
            x: Some(4),
            partition_super_iterations: None,
            max_partition_rounds: 256,
            runtime: RuntimeConfig::default(),
        }
    }
}

impl AmpcColoringParams {
    /// Overrides `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the partition coin budget `x`.
    pub fn with_x(mut self, x: usize) -> Self {
        self.x = Some(x);
        self
    }

    /// Selects the thread count for the AMPC rounds and the coloring phase.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    fn partition_params(&self, beta: usize) -> PartitionParams {
        let mut params = PartitionParams::new(beta)
            .with_delta(self.delta)
            .with_max_rounds(self.max_partition_rounds)
            .with_runtime(self.runtime);
        if let Some(x) = self.x {
            params = params.with_x(x);
        }
        if let Some(iterations) = self.partition_super_iterations {
            params = params.with_super_iterations(iterations);
        }
        params
    }
}

/// Result of an AMPC coloring driver.
#[derive(Debug, Clone)]
pub struct AmpcColoringResult {
    /// Short name of the algorithm variant (for the experiment tables).
    pub algorithm: &'static str,
    /// The proper coloring produced.
    pub coloring: Coloring,
    /// Number of distinct colors used.
    pub colors_used: usize,
    /// The β used for the partition phase.
    pub beta: usize,
    /// AMPC rounds spent computing the β-partition.
    pub partition_rounds: usize,
    /// Number of layers of the β-partition.
    pub partition_size: usize,
    /// AMPC rounds charged for the coloring phase (per the simulation
    /// arguments of Section 6).
    pub coloring_rounds: usize,
    /// `partition_rounds + coloring_rounds`.
    pub total_rounds: usize,
    /// Resource accounting of the partition phase's AMPC rounds (round
    /// reports plus runtime measurements), for callers that surface
    /// metrics — e.g. the `ampc-service` job API.
    pub metrics: ampc_model::AmpcMetrics,
}

impl AmpcColoringResult {
    fn new(
        algorithm: &'static str,
        coloring: Coloring,
        beta: usize,
        partition: &AmpcPartitionResult,
        coloring_rounds: usize,
        primitives: &RoundPrimitives,
        coloring_wall_nanos: u64,
    ) -> Self {
        let colors_used = coloring.num_colors();
        let mut metrics = partition.metrics.clone();
        // The coloring phase's intra-layer parallelism, folded in as one
        // runtime record. Like the pool stats it is measurement data only:
        // excluded from metric equality, so sequential and parallel runs
        // still report equal metrics. `wall_clock_nanos` is the driver's
        // honest phase wall clock — measured once around the whole coloring
        // phase, so it is the max over concurrently running layers —
        // whereas `intra_wall_nanos` sums per-primitive elapsed time across
        // those layers and may exceed it by up to the thread count
        // (occupancy, not wall time).
        if primitives.tasks_executed() > 0 {
            let mut stats = primitives.runtime_stats();
            stats.wall_clock_nanos = coloring_wall_nanos;
            metrics.record_runtime(stats);
        }
        AmpcColoringResult {
            algorithm,
            coloring,
            colors_used,
            beta,
            partition_rounds: partition.rounds,
            partition_size: partition.partition_size(),
            coloring_rounds,
            total_rounds: partition.rounds + coloring_rounds,
            metrics,
        }
    }
}

/// Iterated logarithm (base 2), used by the simulation-round accounting.
#[cfg_attr(not(test), allow(dead_code))]
fn log_star(n: usize) -> usize {
    let mut value = n as f64;
    let mut count = 0usize;
    while value > 2.0 {
        value = value.log2();
        count += 1;
    }
    count.max(1)
}

/// AMPC rounds charged for simulating `local_rounds` rounds of a one-sided
/// LOCAL algorithm over an orientation of out-degree `beta`: if the
/// `beta^{local_rounds}`-sized out-ball fits into `n^δ` local space the whole
/// simulation costs one adaptive round, otherwise one AMPC round per LOCAL
/// round (Sections 6.1–6.2).
fn simulation_rounds(n: usize, beta: usize, local_rounds: usize, delta: f64) -> usize {
    if n <= 1 || local_rounds == 0 {
        return 1;
    }
    let ball = (beta.max(2) as f64).powi(local_rounds as i32);
    let space = (n as f64).powf(delta);
    if ball <= space {
        1
    } else {
        local_rounds
    }
}

fn beta_for(alpha: usize, factor: f64) -> usize {
    ((alpha.max(1) as f64) * factor).ceil() as usize
}

/// Theorem 1.3 (1): an `O(α^{2+ε})`-coloring in `O(1/ε)` AMPC rounds.
///
/// Uses `β = α^{1+ε}` so the partition phase takes `O(1/ε)` rounds, then one
/// adaptive round of Arb-Linial simulation gives `O(β²) = O(α^{2+2ε})`
/// colors.
///
/// # Errors
///
/// See [`ColoringError`]; in particular the partition phase fails if `alpha`
/// underestimates the arboricity so much that `β < 2α(G)`.
pub fn color_alpha_power(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
) -> Result<AmpcColoringResult, ColoringError> {
    color_alpha_power_traced(graph, alpha, params, None)
}

/// [`color_alpha_power`] with an optional span recorder attached (see
/// [`color_two_alpha_plus_one_traced`] for the tracing contract).
///
/// # Errors
///
/// See [`color_alpha_power`].
pub fn color_alpha_power_traced(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
    trace: Option<Arc<TraceContext>>,
) -> Result<AmpcColoringResult, ColoringError> {
    let beta = ((alpha.max(2) as f64).powf(1.0 + params.epsilon).ceil() as usize).max(2);
    arb_linial_driver(graph, beta, params, "alpha^(2+eps)", trace)
}

/// Theorem 1.3 (2): an `O(α²)`-coloring in `O(log α)` AMPC rounds.
///
/// Uses `β = (2 + ε)α` (so the partition phase takes `O(log α)` rounds) and
/// the same Arb-Linial simulation, giving `O(β²) = O(α²)` colors.
///
/// # Errors
///
/// See [`ColoringError`].
pub fn color_alpha_squared(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
) -> Result<AmpcColoringResult, ColoringError> {
    color_alpha_squared_traced(graph, alpha, params, None)
}

/// [`color_alpha_squared`] with an optional span recorder attached (see
/// [`color_two_alpha_plus_one_traced`] for the tracing contract).
///
/// # Errors
///
/// See [`color_alpha_squared`].
pub fn color_alpha_squared_traced(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
    trace: Option<Arc<TraceContext>>,
) -> Result<AmpcColoringResult, ColoringError> {
    let beta = beta_for(alpha, 2.0 + params.epsilon);
    arb_linial_driver(graph, beta, params, "alpha^2", trace)
}

fn arb_linial_driver(
    graph: &CsrGraph,
    beta: usize,
    params: &AmpcColoringParams,
    algorithm: &'static str,
    trace: Option<Arc<TraceContext>>,
) -> Result<AmpcColoringResult, ColoringError> {
    let partition = {
        let _span =
            span_on(trace.as_deref(), "phase.partition", "driver").with_arg("beta", beta as u64);
        ampc_beta_partition_traced(graph, &params.partition_params(beta), trace.clone())?
    };
    let coloring_started = Instant::now();
    let phase_span =
        span_on(trace.as_deref(), "phase.coloring", "driver").with_arg("beta", beta as u64);
    let orientation = partition.partition.orientation(graph)?;
    let primitives = RoundPrimitives::from_config(&params.runtime).with_trace(trace.clone());
    // Hardware counters bracket the phase exactly like the span above;
    // the delta lands in the primitives' sink and surfaces through the
    // runtime stats folded into the result's metrics.
    let perf_scope = primitives.perf_span();
    let result = arb_linial_coloring_with_runtime(graph, &orientation, None, &primitives)?;
    let coloring_rounds = simulation_rounds(
        graph.num_nodes(),
        orientation.max_out_degree(),
        result.rounds,
        params.delta,
    );
    drop(perf_scope);
    drop(phase_span);
    Ok(AmpcColoringResult::new(
        algorithm,
        result.coloring,
        beta,
        &partition,
        coloring_rounds,
        &primitives,
        coloring_started.elapsed().as_nanos() as u64,
    ))
}

/// Theorem 1.3 (3) / Corollary 1.4: a `((2 + ε)α + 1)`-coloring in
/// `Õ(α/ε)` AMPC rounds (constant rounds for constant `α`).
///
/// Computes a β-partition with `β = (2 + ε)α`, colors every layer's induced
/// subgraph independently with `β + 1` colors (Arb-Linial to `O(β²)`, then
/// Kuhn–Wattenhofer down to `β + 1`), and repairs the cross-layer conflicts
/// with the greedy layered recoloring.
///
/// # Errors
///
/// See [`ColoringError`].
pub fn color_two_alpha_plus_one(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
) -> Result<AmpcColoringResult, ColoringError> {
    color_two_alpha_plus_one_traced(graph, alpha, params, None)
}

/// [`color_two_alpha_plus_one`] with an optional span recorder attached:
/// the partition's round engine, the per-layer simulators (Arb-Linial rounds, KW
/// sweeps) and the recoloring waves all emit spans into `trace`, tagged
/// with layer ids and counters. Tracing is measurement-only — the coloring
/// (and the model-level metrics) are bit-identical with and without it.
///
/// # Errors
///
/// See [`color_two_alpha_plus_one`].
pub fn color_two_alpha_plus_one_traced(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
    trace: Option<Arc<TraceContext>>,
) -> Result<AmpcColoringResult, ColoringError> {
    let beta = beta_for(alpha, 2.0 + params.epsilon);
    let partition = {
        let _span =
            span_on(trace.as_deref(), "phase.partition", "driver").with_arg("beta", beta as u64);
        ampc_beta_partition_traced(graph, &params.partition_params(beta), trace.clone())?
    };
    let n = graph.num_nodes();
    let coloring_started = Instant::now();
    let phase_span =
        span_on(trace.as_deref(), "phase.coloring", "driver").with_arg("beta", beta as u64);
    let primitives = RoundPrimitives::from_config(&params.runtime).with_trace(trace.clone());
    // Counter sampling brackets phases 2 + 3 like the span above.
    let perf_scope = primitives.perf_span();

    // Phase 2: color every layer independently with beta + 1 colors. The
    // layers are disjoint induced subgraphs, so they are colored in
    // parallel (the model runs them on separate machine groups anyway) and
    // the per-layer results are folded back in layer order — deterministic
    // for any thread count. Inside each layer the simulators' per-node
    // rounds run on the same pool through the shared primitives context
    // (nested submission is supported), so one huge layer no longer
    // serializes the phase.
    struct LayerColors {
        colors: Vec<(NodeId, usize)>,
        linial_rounds: usize,
        kw_rounds: usize,
    }
    let layers = layer_members(graph, &partition.partition);
    // Layer costs are skewed too (the bottom layer of a power-law graph
    // holds most nodes and edges): weighting each layer by its total
    // degree plus size splits the layer list into cost-balanced, stealable
    // chunks instead of equal-count ranges.
    let outcomes = parallel_map_weighted(
        &layers,
        params.runtime.effective_threads(),
        |_, members| layer_cost(graph, members),
        |layer, members| -> Result<LayerColors, ColoringError> {
            let _layer_span = primitives
                .span("layer.color", "driver")
                .with_arg("layer", layer as u64)
                .with_arg("nodes", members.len() as u64);
            let sub = InducedSubgraph::new(graph, members);
            let local_graph = sub.graph();
            // Any orientation of a subgraph with max degree <= beta has
            // out-degree <= beta; node order works fine.
            let orientation = Orientation::from_total_order(local_graph, |v| v);
            let linial =
                arb_linial_coloring_with_runtime(local_graph, &orientation, None, &primitives)?;
            let reduced =
                kw_color_reduction_with_runtime(local_graph, &linial.coloring, beta, &primitives)?;
            let colors = sub
                .original_nodes()
                .iter()
                .enumerate()
                .map(|(local, &original)| (original, reduced.coloring.color(local)))
                .collect();
            Ok(LayerColors {
                colors,
                linial_rounds: linial.rounds,
                kw_rounds: reduced.rounds,
            })
        },
    )?;
    let mut initial = vec![0usize; n];
    let mut kw_rounds_max = 0usize;
    let mut linial_rounds_max = 0usize;
    for outcome in &outcomes {
        linial_rounds_max = linial_rounds_max.max(outcome.linial_rounds);
        kw_rounds_max = kw_rounds_max.max(outcome.kw_rounds);
        for &(original, color) in &outcome.colors {
            initial[original] = color;
        }
    }

    // Phase 3: fix cross-layer conflicts.
    let initial = Coloring::new(initial);
    let recolored = {
        let _span = primitives
            .span("phase.recolor", "driver")
            .with_arg("layers", partition.partition_size() as u64);
        recolor_layers_with_runtime(
            graph,
            &partition.partition,
            &initial,
            RecolorOrder::HighestAvailable,
            &primitives,
        )?
    };

    // Round accounting (Section 6.3): the per-layer coloring costs the
    // simulated Linial rounds plus the KW reduction rounds (layers run in
    // parallel); the recoloring processes layers in batches, each batch one
    // AMPC round.
    let linial_sim = simulation_rounds(n, beta, linial_rounds_max, params.delta);
    let batch_size = recolor_batch_size(n, beta, params.delta);
    let recolor_rounds = partition.partition_size().div_ceil(batch_size).max(1);
    let coloring_rounds = linial_sim + kw_rounds_max + recolor_rounds;

    drop(perf_scope);
    drop(phase_span);
    Ok(AmpcColoringResult::new(
        "(2+eps)alpha+1",
        recolored.coloring,
        beta,
        &partition,
        coloring_rounds,
        &primitives,
        coloring_started.elapsed().as_nanos() as u64,
    ))
}

/// Section 6.4: an `O(α^{1+ε})`-coloring in `O(1/ε)` rounds for graphs whose
/// arboricity is too large for the LOCAL simulations (`α > n^{δ/(1+ε)}`),
/// built on the deterministic MPC coloring of Theorem 1.5 applied to every
/// layer with a fresh palette.
///
/// # Errors
///
/// See [`ColoringError`].
pub fn color_large_arboricity(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
) -> Result<AmpcColoringResult, ColoringError> {
    color_large_arboricity_traced(graph, alpha, params, None)
}

/// [`color_large_arboricity`] with an optional span recorder attached (see
/// [`color_two_alpha_plus_one_traced`] for the tracing contract).
///
/// # Errors
///
/// See [`color_large_arboricity`].
pub fn color_large_arboricity_traced(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
    trace: Option<Arc<TraceContext>>,
) -> Result<AmpcColoringResult, ColoringError> {
    let beta = ((alpha.max(2) as f64).powf(1.0 + params.epsilon).ceil() as usize).max(2);
    let partition = {
        let _span =
            span_on(trace.as_deref(), "phase.partition", "driver").with_arg("beta", beta as u64);
        ampc_beta_partition_traced(graph, &params.partition_params(beta), trace.clone())?
    };
    let n = graph.num_nodes();
    let coloring_started = Instant::now();
    let phase_span =
        span_on(trace.as_deref(), "phase.coloring", "driver").with_arg("beta", beta as u64);

    let x = ((alpha.max(2) as f64).powf(params.epsilon).round() as usize).max(2);
    let derand_params = DerandParams {
        x,
        delta: params.delta,
        ..Default::default()
    };

    // Every layer is colored independently (in parallel, see
    // `color_two_alpha_plus_one`); the disjoint palette offsets are applied
    // in layer order afterwards, so the result is identical for any thread
    // count. The derandomization's per-edge expectation sweeps also run on
    // the shared primitives context inside each layer.
    let primitives = RoundPrimitives::from_config(&params.runtime).with_trace(trace.clone());
    // Counter sampling brackets the per-layer coloring like the span above.
    let perf_scope = primitives.perf_span();
    struct LayerPalette {
        colors: Vec<(NodeId, usize)>,
        palette: usize,
        mpc_rounds: usize,
    }
    let layers = layer_members(graph, &partition.partition);
    let outcomes = parallel_map_weighted(
        &layers,
        params.runtime.effective_threads(),
        |_, members| layer_cost(graph, members),
        |layer, members| -> Result<LayerPalette, ColoringError> {
            let _layer_span = primitives
                .span("layer.color", "driver")
                .with_arg("layer", layer as u64)
                .with_arg("nodes", members.len() as u64);
            let sub = InducedSubgraph::new(graph, members);
            let result =
                derandomized_coloring_with_runtime(sub.graph(), &derand_params, &primitives);
            let colors = sub
                .original_nodes()
                .iter()
                .enumerate()
                .map(|(local, &original)| (original, result.coloring.color(local)))
                .collect();
            Ok(LayerPalette {
                colors,
                palette: result.palette,
                mpc_rounds: result.mpc_rounds,
            })
        },
    )?;
    let mut colors = vec![0usize; n];
    let mut palette_offset = 0usize;
    let mut mpc_rounds_max = 0usize;
    for outcome in &outcomes {
        mpc_rounds_max = mpc_rounds_max.max(outcome.mpc_rounds);
        for &(original, color) in &outcome.colors {
            colors[original] = palette_offset + color;
        }
        palette_offset += outcome.palette;
    }

    let coloring = Coloring::new(colors);
    if !coloring.is_proper(graph) {
        return Err(ColoringError::Internal(
            "per-layer palettes are disjoint, so the combined coloring must be proper".to_string(),
        ));
    }

    drop(perf_scope);
    drop(phase_span);
    Ok(AmpcColoringResult::new(
        "alpha^(1+eps) (Thm 1.5 per layer)",
        coloring,
        beta,
        &partition,
        mpc_rounds_max.max(1),
        &primitives,
        coloring_started.elapsed().as_nanos() as u64,
    ))
}

/// Batch size used by the recoloring round accounting: `(δ/β)·log_β n`
/// layers per batch (at least one).
fn recolor_batch_size(n: usize, beta: usize, delta: f64) -> usize {
    if n <= 2 {
        return 1;
    }
    let log_beta_n = (n as f64).ln() / (beta.max(2) as f64).ln();
    ((delta / beta.max(1) as f64) * log_beta_n).floor().max(1.0) as usize
}

/// The scheduling cost estimate of coloring one layer: its size plus its
/// members' total degree (the induced-subgraph construction and every
/// simulator round scan the members' adjacency lists).
fn layer_cost(graph: &CsrGraph, members: &[NodeId]) -> usize {
    members.len() + members.iter().map(|&v| graph.degree(v)).sum::<usize>()
}

/// The member lists of all non-empty layers, in increasing layer order.
fn layer_members(graph: &CsrGraph, partition: &BetaPartition) -> Vec<Vec<NodeId>> {
    let Some(max_layer) = partition.max_finite_layer() else {
        return Vec::new();
    };
    let mut layers: Vec<Vec<NodeId>> = vec![Vec::new(); max_layer + 1];
    for v in graph.nodes() {
        if let Layer::Finite(layer) = partition.layer(v) {
            layers[layer].push(v);
        }
    }
    layers.retain(|members| !members.is_empty());
    layers
}

/// Runs all applicable Theorem 1.3 variants and the baselines on one graph —
/// the row generator behind the trade-off experiment (E8).
///
/// Returns the successful variants (a variant may fail if `alpha` is a
/// too-aggressive underestimate for it).
pub fn all_variants(
    graph: &CsrGraph,
    alpha: usize,
    params: &AmpcColoringParams,
) -> Vec<AmpcColoringResult> {
    [
        color_alpha_power(graph, alpha, params),
        color_alpha_squared(graph, alpha, params),
        color_two_alpha_plus_one(graph, alpha, params),
        color_large_arboricity(graph, alpha, params),
    ]
    .into_iter()
    .filter_map(Result::ok)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    fn params() -> AmpcColoringParams {
        AmpcColoringParams::default().with_x(4)
    }

    #[test]
    fn alpha_squared_variant_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(201);
        for alpha in [1usize, 2, 3] {
            let graph = generators::forest_union(300, alpha, &mut rng);
            let result = color_alpha_squared(&graph, alpha, &params()).unwrap();
            assert!(result.coloring.is_proper(&graph), "alpha = {alpha}");
            let beta = result.beta;
            assert!(
                result.colors_used <= 4 * (beta + 2) * (beta + 2),
                "alpha = {alpha}: {} colors",
                result.colors_used
            );
            assert_eq!(
                result.total_rounds,
                result.partition_rounds + result.coloring_rounds
            );
        }
    }

    #[test]
    fn two_alpha_variant_achieves_linear_in_alpha_colors() {
        let mut rng = ChaCha8Rng::seed_from_u64(203);
        for alpha in [1usize, 2, 4] {
            let graph = generators::forest_union(300, alpha, &mut rng);
            let result = color_two_alpha_plus_one(&graph, alpha, &params()).unwrap();
            assert!(result.coloring.is_proper(&graph), "alpha = {alpha}");
            assert!(
                result.colors_used <= result.beta + 1,
                "alpha = {alpha}: {} colors > beta + 1 = {}",
                result.colors_used,
                result.beta + 1
            );
        }
    }

    #[test]
    fn corollary_1_4_constant_alpha_gives_few_colors_and_rounds() {
        // Planar-like instance: arboricity <= 3, so (2 + 0.5) * 3 + 1 = 9
        // colors should comfortably suffice (we assert <= 9).
        let graph = generators::triangulated_grid(18, 18);
        let result = color_two_alpha_plus_one(&graph, 3, &params()).unwrap();
        assert!(result.coloring.is_proper(&graph));
        assert!(result.colors_used <= 9, "{} colors", result.colors_used);
    }

    #[test]
    fn alpha_power_variant_uses_fewer_partition_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(207);
        let graph = generators::forest_union(400, 4, &mut rng);
        let loose = color_alpha_power(&graph, 4, &params().with_epsilon(1.0)).unwrap();
        let tight = color_alpha_squared(&graph, 4, &params().with_epsilon(0.25)).unwrap();
        assert!(loose.coloring.is_proper(&graph));
        assert!(tight.coloring.is_proper(&graph));
        // The looser beta gives at most as many partition rounds.
        assert!(loose.partition_rounds <= tight.partition_rounds);
        // ... but may use more colors.
        assert!(loose.beta >= tight.beta);
    }

    #[test]
    fn large_arboricity_variant_colors_dense_graphs() {
        let graph = generators::complete_bipartite(20, 20);
        // alpha(K_{20,20}) = ceil(400 / 39) = 11.
        let result = color_large_arboricity(&graph, 11, &params()).unwrap();
        assert!(result.coloring.is_proper(&graph));
        assert!(result.colors_used >= 2);
        assert!(result.coloring_rounds >= 1);
    }

    #[test]
    fn underestimating_alpha_fails_cleanly() {
        let graph = generators::complete(10); // arboricity 5
        let err = color_alpha_squared(&graph, 1, &params().with_epsilon(0.1)).unwrap_err();
        assert!(matches!(err, ColoringError::Partition(_)));
        assert!(err.to_string().contains("beta-partition"));
    }

    #[test]
    fn all_variants_reports_only_successes() {
        let mut rng = ChaCha8Rng::seed_from_u64(211);
        let graph = generators::forest_union(200, 2, &mut rng);
        let results = all_variants(&graph, 2, &params());
        assert!(results.len() >= 3);
        for result in &results {
            assert!(result.coloring.is_proper(&graph), "{}", result.algorithm);
            assert!(result.colors_used >= 2);
        }
    }

    #[test]
    fn log_star_and_simulation_round_helpers() {
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(16), 2);
        assert!(log_star(1_000_000) <= 5);
        // Small out-ball: a single adaptive round suffices.
        assert_eq!(simulation_rounds(1_000_000, 3, 4, 0.5), 1);
        // Huge out-ball: one AMPC round per LOCAL round.
        assert_eq!(simulation_rounds(100, 50, 6, 0.5), 6);
        let _ = log_star(0);
    }
}

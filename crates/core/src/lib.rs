//! # ampc-coloring
//!
//! High-level public API for the reproduction of *Adaptive Massively
//! Parallel Coloring in Sparse Graphs* (Latypov, Maus, Pai, Uitto —
//! PODC 2024).
//!
//! The paper gives deterministic low-space **AMPC** algorithms that color a
//! graph of arboricity `α` with a number of colors that depends on `α`
//! (rather than on the potentially much larger maximum degree `∆`), in very
//! few adaptive rounds. This crate exposes those algorithms behind a single
//! builder-style entry point, [`SparseColoring`], and re-exports the
//! underlying layers for users who need finer control:
//!
//! * [`graph`] — graph substrate (CSR graphs, generators, arboricity).
//! * [`model`] — AMPC / MPC / LCA / LOCAL simulation runtime.
//! * [`partition`] — β-partitions, the coin-dropping LCA and Theorem 1.2.
//! * [`coloring`] — Arb-Linial, Kuhn–Wattenhofer, recoloring, Theorem 1.5
//!   and the Theorem 1.3 drivers.
//!
//! # Quickstart
//!
//! ```
//! use ampc_coloring::{Algorithm, SparseColoring};
//! use ampc_coloring::graph::generators;
//! use rand::SeedableRng;
//!
//! // A sparse graph: union of two random spanning trees (arboricity <= 2).
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let graph = generators::forest_union(1_000, 2, &mut rng);
//!
//! // Color it with (2 + eps) * alpha + 1 colors in the AMPC model.
//! let outcome = SparseColoring::new()
//!     .algorithm(Algorithm::TwoAlphaPlusOne)
//!     .alpha(2)     // arboricity bound; omit it to estimate from the graph
//!     .epsilon(0.5)
//!     .color(&graph)?;
//!
//! assert!(outcome.coloring.is_proper(&graph));
//! assert!(outcome.colors_used <= 6); // (2 + 0.5) * 2 + 1
//! println!(
//!     "{} colors in {} AMPC rounds ({})",
//!     outcome.colors_used, outcome.total_rounds, outcome.algorithm
//! );
//! # Ok::<(), ampc_coloring::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

/// Graph substrate re-export (crate `sparse-graph`).
pub use sparse_graph as graph;

/// Model-simulation re-export (crate `ampc-model`).
pub use ampc_model as model;

/// β-partition re-export (crate `beta-partition`).
pub use beta_partition as partition;

/// Coloring-algorithm re-export (crate `arbo-coloring`).
pub use arbo_coloring as coloring;

/// Parallel-runtime re-export (crate `ampc-runtime`).
pub use ampc_runtime as runtime;

pub use ampc_runtime::RuntimeConfig;

use ampc_runtime::trace::TraceContext;
use arbo_coloring::ampc::{
    color_alpha_power_traced, color_alpha_squared_traced, color_large_arboricity_traced,
    color_two_alpha_plus_one_traced, AmpcColoringParams, AmpcColoringResult, ColoringError,
};
use beta_partition::{
    ampc_beta_partition, ampc_beta_partition_unknown_arboricity, AmpcPartitionResult,
    PartitionParams,
};
use sparse_graph::{arboricity_upper_bound, Coloring, CsrGraph};

/// Errors returned by the high-level API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The underlying coloring driver failed (partition stall, resource
    /// violation, …).
    Coloring(ColoringError),
    /// The underlying partition driver failed.
    Partition(beta_partition::PartitionError),
    /// The request itself was invalid (e.g. `epsilon <= 0`).
    InvalidRequest(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Coloring(err) => write!(f, "{err}"),
            Error::Partition(err) => write!(f, "{err}"),
            Error::InvalidRequest(message) => write!(f, "invalid request: {message}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ColoringError> for Error {
    fn from(err: ColoringError) -> Self {
        Error::Coloring(err)
    }
}

impl From<beta_partition::PartitionError> for Error {
    fn from(err: beta_partition::PartitionError) -> Self {
        Error::Partition(err)
    }
}

/// The algorithm variants of Theorem 1.3 (plus automatic selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Pick a variant automatically from the (estimated) arboricity:
    /// `TwoAlphaPlusOne` for small `α`, `LargeArboricity` when `α` is so
    /// large that the LOCAL simulations would not fit into local space.
    #[default]
    Auto,
    /// Theorem 1.3 (1): `O(α^{2+ε})` colors in `O(1/ε)` rounds.
    AlphaPower,
    /// Theorem 1.3 (2): `O(α²)` colors in `O(log α)` rounds.
    AlphaSquared,
    /// Theorem 1.3 (3) / Corollary 1.4: `((2+ε)α + 1)` colors in `Õ(α/ε)`
    /// rounds.
    TwoAlphaPlusOne,
    /// Section 6.4: `O(α^{1+ε})` colors via the derandomized MPC coloring of
    /// Theorem 1.5 applied per layer (the large-arboricity regime).
    LargeArboricity,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Algorithm::Auto => "auto",
            Algorithm::AlphaPower => "O(alpha^(2+eps)) / O(1/eps) rounds",
            Algorithm::AlphaSquared => "O(alpha^2) / O(log alpha) rounds",
            Algorithm::TwoAlphaPlusOne => "((2+eps)alpha+1) / ~O(alpha/eps) rounds",
            Algorithm::LargeArboricity => "O(alpha^(1+eps)) via Theorem 1.5",
        };
        write!(f, "{name}")
    }
}

/// Outcome of a high-level coloring run.
#[derive(Debug, Clone)]
pub struct ColoringOutcome {
    /// Human-readable name of the variant that ran.
    pub algorithm: String,
    /// The proper coloring.
    pub coloring: Coloring,
    /// Number of distinct colors used.
    pub colors_used: usize,
    /// The arboricity bound the algorithm worked with (given or estimated).
    pub alpha: usize,
    /// The β parameter of the underlying partition.
    pub beta: usize,
    /// AMPC rounds of the partition phase.
    pub partition_rounds: usize,
    /// Layers of the β-partition.
    pub partition_size: usize,
    /// AMPC rounds charged to the coloring phase.
    pub coloring_rounds: usize,
    /// Total AMPC rounds.
    pub total_rounds: usize,
    /// Resource accounting of the partition phase (round reports plus
    /// runtime measurements such as per-round wall clock, shard loads and
    /// pool-reuse deltas).
    pub metrics: ampc_model::AmpcMetrics,
}

impl ColoringOutcome {
    fn from_result(result: AmpcColoringResult, alpha: usize) -> Self {
        ColoringOutcome {
            algorithm: result.algorithm.to_string(),
            colors_used: result.colors_used,
            alpha,
            beta: result.beta,
            partition_rounds: result.partition_rounds,
            partition_size: result.partition_size,
            coloring_rounds: result.coloring_rounds,
            total_rounds: result.total_rounds,
            metrics: result.metrics,
            coloring: result.coloring,
        }
    }
}

/// A fully explicit, validatable coloring request — the wire-facing
/// counterpart of the [`SparseColoring`] builder, used by the serving
/// subsystem (`ampc-service`) and anyone constructing runs from untrusted
/// input. [`SparseColoring::color_request`] validates every field and
/// returns [`Error::InvalidRequest`] instead of panicking or silently
/// clamping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColorRequest {
    /// Algorithm variant to run.
    pub algorithm: Algorithm,
    /// Optional a-priori arboricity bound (must be ≥ 1 when given).
    pub alpha: Option<usize>,
    /// Trade-off constant `ε` (must be finite and positive).
    pub epsilon: f64,
    /// Local-space exponent `δ` (must be finite, in `(0, 1]`).
    pub delta: f64,
    /// Round limit for the partition phase (must be ≥ 1).
    pub max_partition_rounds: usize,
    /// Thread-count selection.
    pub runtime: RuntimeConfig,
}

impl Default for ColorRequest {
    fn default() -> Self {
        let defaults = SparseColoring::default();
        ColorRequest {
            algorithm: defaults.algorithm,
            alpha: defaults.alpha,
            epsilon: defaults.epsilon,
            delta: defaults.delta,
            max_partition_rounds: defaults.max_partition_rounds,
            runtime: defaults.runtime,
        }
    }
}

/// Builder-style entry point for the paper's coloring algorithms.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseColoring {
    algorithm: Algorithm,
    alpha: Option<usize>,
    epsilon: f64,
    delta: f64,
    x: Option<usize>,
    max_partition_rounds: usize,
    runtime: RuntimeConfig,
}

impl Default for SparseColoring {
    fn default() -> Self {
        SparseColoring {
            algorithm: Algorithm::Auto,
            alpha: None,
            epsilon: 0.5,
            delta: 0.5,
            x: Some(4),
            max_partition_rounds: 256,
            runtime: RuntimeConfig::default(),
        }
    }
}

impl SparseColoring {
    /// Creates a builder with default parameters (`Auto` algorithm,
    /// `ε = 0.5`, `δ = 0.5`, arboricity estimated from the graph).
    pub fn new() -> Self {
        SparseColoring::default()
    }

    /// Selects the algorithm variant.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Supplies a known upper bound on the arboricity. Without it the
    /// builder uses the degeneracy (a 2-approximation, computable from the
    /// graph) as the bound.
    pub fn alpha(mut self, alpha: usize) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Sets the trade-off constant `ε > 0`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the local-space exponent `δ ∈ (0, 1]` used for resource
    /// accounting.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Overrides the coin budget `x` of the partition phase's LCA.
    pub fn exploration_budget(mut self, x: usize) -> Self {
        self.x = Some(x);
        self
    }

    /// Overrides the round limit of the partition phase.
    pub fn max_partition_rounds(mut self, rounds: usize) -> Self {
        self.max_partition_rounds = rounds;
        self
    }

    /// Selects how many threads run the AMPC rounds and the coloring
    /// phase — one (the default) or the parallel runtime
    /// ([`RuntimeConfig::parallel`]). Every thread count is bit-identical
    /// for a fixed input, so this only affects wall-clock time.
    pub fn runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    fn validate(&self) -> Result<(), Error> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(Error::InvalidRequest(
                "epsilon must be finite and positive".to_string(),
            ));
        }
        if !self.delta.is_finite() || !(0.0..=1.0).contains(&self.delta) || self.delta == 0.0 {
            return Err(Error::InvalidRequest(
                "delta must lie in (0, 1]".to_string(),
            ));
        }
        if self.max_partition_rounds == 0 {
            return Err(Error::InvalidRequest(
                "max_partition_rounds must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    fn coloring_params(&self) -> AmpcColoringParams {
        AmpcColoringParams {
            epsilon: self.epsilon,
            delta: self.delta,
            x: self.x,
            partition_super_iterations: None,
            max_partition_rounds: self.max_partition_rounds,
            runtime: self.runtime,
        }
    }

    /// Builds a validated builder from a wire-level [`ColorRequest`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for any out-of-domain field
    /// (non-finite or non-positive `epsilon`, `delta` outside `(0, 1]`,
    /// `alpha == 0`, `max_partition_rounds == 0`) — the checks that keep
    /// the downstream drivers panic-free on untrusted input.
    pub fn from_request(request: &ColorRequest) -> Result<Self, Error> {
        if request.alpha == Some(0) {
            return Err(Error::InvalidRequest(
                "alpha must be at least 1 when given".to_string(),
            ));
        }
        let builder = SparseColoring {
            algorithm: request.algorithm,
            alpha: request.alpha,
            epsilon: request.epsilon,
            delta: request.delta,
            x: SparseColoring::default().x,
            max_partition_rounds: request.max_partition_rounds,
            runtime: request.runtime,
        };
        builder.validate()?;
        Ok(builder)
    }

    /// Validates `request` and colors `graph` with it: the panic-free,
    /// structured-error entry point the serving subsystem calls for every
    /// job.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRequest`] for out-of-domain parameters (see
    /// [`SparseColoring::from_request`]), otherwise the same errors as
    /// [`SparseColoring::color`].
    pub fn color_request(
        graph: &CsrGraph,
        request: &ColorRequest,
    ) -> Result<ColoringOutcome, Error> {
        SparseColoring::from_request(request)?.color(graph)
    }

    /// [`SparseColoring::color_request`] with an optional [`TraceContext`]
    /// attached: every AMPC round, LOCAL-simulation phase and round
    /// merge records a span into `trace` while the run executes. Passing
    /// `None` is exactly `color_request` — no clock reads, no buffers.
    ///
    /// # Errors
    ///
    /// Same as [`SparseColoring::color_request`].
    pub fn color_request_traced(
        graph: &CsrGraph,
        request: &ColorRequest,
        trace: Option<Arc<TraceContext>>,
    ) -> Result<ColoringOutcome, Error> {
        SparseColoring::from_request(request)?.color_traced(graph, trace)
    }

    /// The arboricity bound used for `graph`: the explicit one if given,
    /// otherwise the degeneracy (which satisfies `α ≤ degeneracy ≤ 2α − 1`).
    pub fn resolve_alpha(&self, graph: &CsrGraph) -> usize {
        self.alpha
            .unwrap_or_else(|| arboricity_upper_bound(graph))
            .max(1)
    }

    /// Runs the selected coloring algorithm on `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for invalid parameters and
    /// propagates failures of the underlying drivers (e.g. when an explicit
    /// `alpha` underestimates the true arboricity so much that no
    /// β-partition exists).
    pub fn color(&self, graph: &CsrGraph) -> Result<ColoringOutcome, Error> {
        self.color_traced(graph, None)
    }

    /// [`SparseColoring::color`] with an optional [`TraceContext`] threaded
    /// through the partition and coloring phases. Tracing never changes the
    /// coloring or the model-level metrics — only runtime observability.
    ///
    /// # Errors
    ///
    /// Same as [`SparseColoring::color`].
    pub fn color_traced(
        &self,
        graph: &CsrGraph,
        trace: Option<Arc<TraceContext>>,
    ) -> Result<ColoringOutcome, Error> {
        self.validate()?;
        let alpha = self.resolve_alpha(graph);
        let params = self.coloring_params();

        let algorithm = match self.algorithm {
            Algorithm::Auto => {
                // The LOCAL simulations need beta <= n^{delta/(1+eps)}; fall
                // back to the Theorem 1.5 route above that threshold.
                let threshold =
                    (graph.num_nodes().max(2) as f64).powf(self.delta / (1.0 + self.epsilon));
                if (alpha as f64) <= threshold {
                    Algorithm::TwoAlphaPlusOne
                } else {
                    Algorithm::LargeArboricity
                }
            }
            other => other,
        };

        let result = match algorithm {
            Algorithm::AlphaPower => color_alpha_power_traced(graph, alpha, &params, trace)?,
            Algorithm::AlphaSquared => color_alpha_squared_traced(graph, alpha, &params, trace)?,
            Algorithm::TwoAlphaPlusOne => {
                color_two_alpha_plus_one_traced(graph, alpha, &params, trace)?
            }
            Algorithm::LargeArboricity => {
                color_large_arboricity_traced(graph, alpha, &params, trace)?
            }
            Algorithm::Auto => unreachable!("Auto resolved above"),
        };
        Ok(ColoringOutcome::from_result(result, alpha))
    }

    /// Computes only the β-partition (Theorem 1.2) with `β = (2 + ε)·α`.
    ///
    /// # Errors
    ///
    /// Same as [`SparseColoring::color`].
    pub fn beta_partition(&self, graph: &CsrGraph) -> Result<AmpcPartitionResult, Error> {
        self.validate()?;
        let alpha = self.resolve_alpha(graph);
        let beta = (((2.0 + self.epsilon) * alpha as f64).ceil() as usize).max(1);
        let mut params = PartitionParams::new(beta)
            .with_delta(self.delta)
            .with_max_rounds(self.max_partition_rounds)
            .with_runtime(self.runtime);
        if let Some(x) = self.x {
            params = params.with_x(x);
        }
        Ok(ampc_beta_partition(graph, &params)?)
    }

    /// Computes a β-partition without any arboricity knowledge, using the
    /// guessing scheme of Lemma 5.1.
    ///
    /// # Errors
    ///
    /// Same as [`SparseColoring::color`].
    pub fn beta_partition_unknown_alpha(
        &self,
        graph: &CsrGraph,
    ) -> Result<beta_partition::GuessingResult, Error> {
        self.validate()?;
        let mut template = PartitionParams::new(0)
            .with_delta(self.delta)
            .with_max_rounds(self.max_partition_rounds)
            .with_runtime(self.runtime);
        if let Some(x) = self.x {
            template = template.with_x(x);
        }
        Ok(ampc_beta_partition_unknown_arboricity(
            graph,
            self.epsilon,
            &template,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    fn two_forest(n: usize, seed: u64) -> CsrGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::forest_union(n, 2, &mut rng)
    }

    #[test]
    fn default_auto_colors_sparse_graphs_with_few_colors() {
        let graph = two_forest(500, 1);
        let outcome = SparseColoring::new().color(&graph).unwrap();
        assert!(outcome.coloring.is_proper(&graph));
        // Auto resolves alpha from the degeneracy (<= 2 * 2 - 1 = 3), so the
        // ((2 + eps) alpha + 1) variant uses at most 2.5 * 3 + 1 = 9 colors.
        assert!(outcome.colors_used <= 9, "{} colors", outcome.colors_used);
        assert!(outcome.total_rounds >= 1);
        assert!(outcome.algorithm.contains("alpha"));
    }

    #[test]
    fn explicit_alpha_tightens_the_palette() {
        let graph = two_forest(400, 2);
        let outcome = SparseColoring::new()
            .algorithm(Algorithm::TwoAlphaPlusOne)
            .alpha(2)
            .epsilon(0.5)
            .color(&graph)
            .unwrap();
        assert!(outcome.coloring.is_proper(&graph));
        assert!(outcome.colors_used <= 6);
        assert_eq!(outcome.alpha, 2);
        assert_eq!(outcome.beta, 5);
    }

    #[test]
    fn every_explicit_variant_runs() {
        let graph = two_forest(300, 3);
        for algorithm in [
            Algorithm::AlphaPower,
            Algorithm::AlphaSquared,
            Algorithm::TwoAlphaPlusOne,
            Algorithm::LargeArboricity,
        ] {
            let outcome = SparseColoring::new()
                .algorithm(algorithm)
                .alpha(2)
                .color(&graph)
                .unwrap();
            assert!(outcome.coloring.is_proper(&graph), "{algorithm}");
            assert!(outcome.partition_rounds >= 1, "{algorithm}");
        }
    }

    #[test]
    fn beta_partition_entry_point() {
        let graph = two_forest(400, 4);
        let result = SparseColoring::new()
            .alpha(2)
            .beta_partition(&graph)
            .unwrap();
        assert!(!result.partition.is_partial());
        assert!(result.partition.validate(&graph).is_ok());
    }

    #[test]
    fn unknown_alpha_entry_point() {
        let graph = two_forest(300, 5);
        let result = SparseColoring::new()
            .beta_partition_unknown_alpha(&graph)
            .unwrap();
        assert!(result.result.partition.validate(&graph).is_ok());
        assert!(result.chosen_alpha >= 1);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let graph = two_forest(50, 6);
        let err = SparseColoring::new()
            .epsilon(0.0)
            .color(&graph)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
        let err = SparseColoring::new().delta(0.0).color(&graph).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
        assert!(err.to_string().contains("delta"));
    }

    #[test]
    fn underestimated_alpha_surfaces_partition_errors() {
        let graph = generators::complete(12);
        let err = SparseColoring::new()
            .algorithm(Algorithm::AlphaSquared)
            .alpha(1)
            .epsilon(0.1)
            .color(&graph)
            .unwrap_err();
        assert!(matches!(err, Error::Coloring(_)));
    }

    #[test]
    fn color_request_validates_and_colors() {
        let graph = two_forest(300, 7);
        let request = ColorRequest {
            algorithm: Algorithm::TwoAlphaPlusOne,
            alpha: Some(2),
            ..ColorRequest::default()
        };
        let outcome = SparseColoring::color_request(&graph, &request).unwrap();
        assert!(outcome.coloring.is_proper(&graph));
        assert!(outcome.colors_used <= 6);
        assert!(outcome.metrics.num_rounds() >= 1, "metrics ride along");

        // Every invalid field is a structured error, not a panic.
        let bad: Vec<ColorRequest> = vec![
            ColorRequest {
                epsilon: f64::NAN,
                ..ColorRequest::default()
            },
            ColorRequest {
                epsilon: -1.0,
                ..ColorRequest::default()
            },
            ColorRequest {
                delta: f64::INFINITY,
                ..ColorRequest::default()
            },
            ColorRequest {
                delta: 0.0,
                ..ColorRequest::default()
            },
            ColorRequest {
                alpha: Some(0),
                ..ColorRequest::default()
            },
            ColorRequest {
                max_partition_rounds: 0,
                ..ColorRequest::default()
            },
        ];
        for request in bad {
            let err = SparseColoring::color_request(&graph, &request).unwrap_err();
            assert!(matches!(err, Error::InvalidRequest(_)), "{request:?}");
        }
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::Auto.to_string(), "auto");
        assert!(Algorithm::TwoAlphaPlusOne.to_string().contains("alpha"));
        assert_eq!(Algorithm::default(), Algorithm::Auto);
    }
}

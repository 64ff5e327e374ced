//! # arbo-coloring
//!
//! Arboricity-dependent graph coloring algorithms, reproducing Section 6 of
//! *Adaptive Massively Parallel Coloring in Sparse Graphs* (PODC 2024) plus
//! the building blocks it simulates.
//!
//! The crate is organised as the paper is:
//!
//! * [`arb_linial_coloring`] — the one-sided Arb-Linial algorithm: starting
//!   from any proper coloring it repeatedly applies a polynomial-based
//!   cover-free color reduction that only inspects *out*-neighbors of an
//!   acyclic low out-degree orientation, converging to an `O(β²)` palette in
//!   `O(log* n)` LOCAL rounds (Sections 6.1 and 6.2).
//! * [`kw_color_reduction`] — the Kuhn–Wattenhofer iterative color reduction
//!   turning an `m`-coloring into a `(∆ + 1)`-coloring in `O(∆ log(m / ∆))`
//!   rounds (Section 6.3).
//! * [`recolor_layers`] — the layered greedy conflict-fixing pass that
//!   merges independent per-layer colorings into a global `(β + 1)`-coloring
//!   (Section 6.3).
//! * [`derandomized_coloring`] — the deterministic low-space MPC
//!   `2x∆`-coloring of Theorem 1.5: a pairwise-independent random trial
//!   derandomized with the method of conditional expectations (Section 6.4).
//! * [`ampc`] — the end-to-end AMPC drivers of Theorem 1.3: the
//!   `O(α^{2+ε})`, `O(α²)`, `((2+ε)α+1)` and large-arboricity `O(α^{1+ε})`
//!   colorings, all built on the β-partitions of the `beta-partition` crate.
//! * [`baselines`] — sequential baselines the experiment tables compare
//!   against.
//!
//! ```
//! use arbo_coloring::ampc::{color_alpha_squared, AmpcColoringParams};
//! use sparse_graph::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let graph = generators::forest_union(400, 2, &mut rng); // alpha <= 2
//! let result = color_alpha_squared(&graph, 2, &AmpcColoringParams::default()).unwrap();
//! assert!(result.coloring.is_proper(&graph));
//! assert!(result.colors_used <= 4 * (2 + 1) * (2 + 1) * 4); // O(alpha^2)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arb_linial;
mod color_word;
mod derand;
mod kuhn_wattenhofer;
mod primes;
mod recolor;

pub mod ampc;
pub mod baselines;

pub use arb_linial::{
    arb_linial_coloring, arb_linial_coloring_with_runtime, ArbLinialError, ArbLinialResult,
};
pub use derand::{
    derandomized_coloring, derandomized_coloring_with_runtime, DerandColoringResult, DerandParams,
};
pub use kuhn_wattenhofer::{
    kw_color_reduction, kw_color_reduction_with_runtime, KwReductionResult,
};
pub use primes::{is_prime, next_prime};
pub use recolor::{
    recolor_layers, recolor_layers_with_runtime, RecolorError, RecolorOrder, RecolorResult,
};

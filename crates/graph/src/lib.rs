//! # sparse-graph
//!
//! Graph substrate for the reproduction of *Adaptive Massively Parallel
//! Coloring in Sparse Graphs* (PODC 2024).
//!
//! The crate provides everything the higher-level algorithmic crates need
//! from a graph library:
//!
//! * a compact, immutable [`CsrGraph`] representation together with a
//!   mutable [`GraphBuilder`],
//! * seeded random **generators** for the sparse graph families the paper
//!   targets (forests, unions of forests, planar grids, power-law graphs,
//!   Erdős–Rényi graphs and the adversarial "skewed" instances of Figure 2b),
//! * **arboricity** machinery: the density lower bound of Definition 3.1,
//!   degeneracy/core decomposition (a 2-approximation of arboricity) and
//!   Nash–Williams-style forest decompositions derived from acyclic low
//!   out-degree orientations,
//! * edge [`Orientation`]s with acyclicity checks and out-degree statistics,
//! * proper vertex [`Coloring`]s with validation helpers and greedy
//!   reference algorithms.
//!
//! # Quick example
//!
//! ```
//! use sparse_graph::{generators, Coloring, greedy_by_degeneracy_order};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! // A union of 3 random forests has arboricity at most 3.
//! let graph = generators::forest_union(1_000, 3, &mut rng);
//! let coloring = greedy_by_degeneracy_order(&graph);
//! assert!(coloring.is_proper(&graph));
//! // Degeneracy-order greedy uses at most degeneracy+1 <= 2*arboricity colors.
//! assert!(coloring.num_colors() <= 2 * 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arboricity;
mod builder;
mod coloring;
mod csr;
mod degeneracy;
mod forest;
mod io;
mod orientation;
mod subgraph;
mod types;

pub mod generators;

pub use arboricity::{arboricity_density_lower_bound, arboricity_upper_bound, ArboricityEstimate};
pub use builder::GraphBuilder;
pub use coloring::{
    greedy_by_degeneracy_order, greedy_by_id_order, greedy_by_order, greedy_from_orientation,
    Coloring, PartialColoring,
};
pub use csr::CsrGraph;
pub use degeneracy::{core_numbers, degeneracy, degeneracy_ordering, DegeneracyDecomposition};
pub use forest::{forest_decomposition, ForestDecomposition};
pub use io::{
    parse_edge_list, read_edge_list, read_edge_list_bounded, write_edge_list, ParseEdgeListError,
};
pub use orientation::Orientation;
pub use subgraph::InducedSubgraph;
pub use types::{canonical_edge, Edge, NodeId};

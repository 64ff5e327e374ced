//! Synthetic workloads used by the experiment harness and the Criterion
//! benches (mirrors the workload helpers of the repository root crate, kept
//! local so the bench crate has no dependency on it).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sparse_graph::{generators, CsrGraph};

/// A named synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Union of `k` random forests on `n` nodes (arboricity ≤ `k`).
    ForestUnion {
        /// Number of nodes.
        n: usize,
        /// Number of forests.
        k: usize,
    },
    /// Preferential-attachment graph (`∆ ≫ α`).
    PowerLaw {
        /// Number of nodes.
        n: usize,
        /// Edges per new node (arboricity bound).
        edges_per_node: usize,
    },
    /// Triangulated grid (planar, arboricity ≤ 3).
    PlanarGrid {
        /// Side length.
        side: usize,
    },
    /// Complete `arity`-ary tree of the given depth (deep natural partition).
    DeepTree {
        /// Arity.
        arity: usize,
        /// Depth.
        depth: usize,
    },
    /// Erdős–Rényi graph with the given average degree.
    Gnm {
        /// Number of nodes.
        n: usize,
        /// Average degree (so `m = n · avg / 2`).
        average_degree: usize,
    },
}

impl Workload {
    /// Builds the workload deterministically.
    pub fn build(self, seed: u64) -> CsrGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match self {
            Workload::ForestUnion { n, k } => generators::forest_union(n, k, &mut rng),
            Workload::PowerLaw { n, edges_per_node } => {
                generators::preferential_attachment(n, edges_per_node, &mut rng)
            }
            Workload::PlanarGrid { side } => generators::triangulated_grid(side, side),
            Workload::DeepTree { arity, depth } => generators::complete_kary_tree(arity, depth),
            Workload::Gnm { n, average_degree } => {
                generators::gnm(n, n * average_degree / 2, &mut rng)
            }
        }
    }

    /// A short label for table rows.
    pub fn label(self) -> String {
        match self {
            Workload::ForestUnion { n, k } => format!("forest-union(n={n},k={k})"),
            Workload::PowerLaw { n, edges_per_node } => {
                format!("power-law(n={n},m0={edges_per_node})")
            }
            Workload::PlanarGrid { side } => format!("grid({side}x{side})"),
            Workload::DeepTree { arity, depth } => format!("tree(arity={arity},depth={depth})"),
            Workload::Gnm { n, average_degree } => format!("gnm(n={n},avg={average_degree})"),
        }
    }

    /// The a-priori arboricity bound fed to the algorithms.
    pub fn alpha_bound(self) -> usize {
        match self {
            Workload::ForestUnion { k, .. } => k.max(1),
            Workload::PowerLaw { edges_per_node, .. } => edges_per_node.max(1),
            Workload::PlanarGrid { .. } => 3,
            Workload::DeepTree { .. } => 1,
            Workload::Gnm { average_degree, .. } => average_degree.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_labelled() {
        let w = Workload::ForestUnion { n: 100, k: 2 };
        assert_eq!(w.build(3), w.build(3));
        assert!(w.label().contains("forest-union"));
        assert_eq!(
            Workload::Gnm {
                n: 50,
                average_degree: 4
            }
            .build(1)
            .num_edges(),
            100
        );
        assert_eq!(Workload::PlanarGrid { side: 5 }.alpha_bound(), 3);
    }
}

//! Property-based tests of the core invariants, driven by randomly generated
//! sparse graphs.
//!
//! The generators are hand-rolled over the seeded ChaCha8 shim (the build
//! environment has no registry access for the `proptest` crate): each
//! property runs against a family of graphs derived deterministically from a
//! fixed base seed, so failures are reproducible by seed.

use beta_partition::{
    dependency_set, h_partition, induced_partition, merge_min, natural_partition, Layer,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sparse_graph::{
    degeneracy, forest_decomposition, greedy_by_degeneracy_order, greedy_from_orientation,
    ArboricityEstimate, CsrGraph, GraphBuilder, Orientation,
};

const ARBITRARY_CASES: u64 = 64;
const EXPENSIVE_CASES: u64 = 16;

/// A random graph with `n` in `[2, 60)` and a bounded number of random
/// edges — small enough for exhaustive checking, diverse enough to hit
/// corner cases (self-loops and duplicates are handled by the builder).
fn arbitrary_graph(seed: u64) -> CsrGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA5B1_0000 ^ seed);
    let n = rng.gen_range(2usize..60);
    let edges = rng.gen_range(0usize..(3 * n));
    let mut builder = GraphBuilder::new(n);
    for _ in 0..edges {
        let u = rng.gen_range(0usize..n);
        let v = rng.gen_range(0usize..n);
        if u != v {
            builder.add_edge(u, v);
        }
    }
    builder.build()
}

/// A sparse graph built as the union of `k <= 3` random forests — the
/// bounded-arboricity family the paper targets.
fn bounded_arboricity_graph(seed: u64) -> (CsrGraph, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0A7_0000 ^ seed);
    let n = rng.gen_range(2usize..80);
    let k = rng.gen_range(1usize..4);
    (sparse_graph::generators::forest_union(n, k, &mut rng), k)
}

#[test]
fn degeneracy_brackets_density_bound() {
    for seed in 0..ARBITRARY_CASES {
        let graph = arbitrary_graph(seed);
        let estimate = ArboricityEstimate::of(&graph);
        // density lower bound <= alpha <= degeneracy <= 2 alpha - 1.
        assert!(
            estimate.lower <= estimate.upper.max(estimate.lower),
            "seed {seed}"
        );
        if estimate.upper > 0 {
            assert!(estimate.lower >= 1, "seed {seed}");
            assert!(
                estimate.upper < 2 * estimate.lower.max(1) * 2,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn degeneracy_greedy_uses_at_most_degeneracy_plus_one() {
    for seed in 0..ARBITRARY_CASES {
        let graph = arbitrary_graph(seed);
        let coloring = greedy_by_degeneracy_order(&graph);
        assert!(coloring.is_proper(&graph), "seed {seed}");
        assert!(
            coloring.num_colors() <= degeneracy(&graph) + 1,
            "seed {seed}"
        );
    }
}

#[test]
fn natural_partition_is_valid_and_complete_for_large_beta() {
    for seed in 0..ARBITRARY_CASES {
        let graph = arbitrary_graph(seed);
        let beta = 2 * degeneracy(&graph) + 1; // >= 2 alpha, guarantees completeness
        let partition = natural_partition(&graph, beta);
        assert!(partition.validate(&graph).is_ok(), "seed {seed}");
        assert!(!partition.is_partial(), "seed {seed}");
        // Orientation derived from the partition respects the beta bound.
        let orientation = partition.orientation(&graph).unwrap();
        assert!(orientation.is_acyclic(), "seed {seed}");
        assert!(orientation.max_out_degree() <= beta, "seed {seed}");
    }
}

#[test]
fn induced_partition_is_monotone_and_dominates_natural() {
    for seed in 0..ARBITRARY_CASES {
        let (graph, _k) = bounded_arboricity_graph(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(0x5B5E_0000 ^ seed);
        let beta = 5;
        let n = graph.num_nodes();
        let in_s: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let induced = induced_partition(&graph, &in_s, beta);
        let natural = natural_partition(&graph, beta);
        assert!(induced.validate(&graph).is_ok(), "seed {seed}");
        for (v, &in_subset) in in_s.iter().enumerate() {
            // Lemma 3.13: sigma_S >= natural layer, pointwise.
            assert!(
                induced.layer(v) >= natural.layer(v),
                "seed {seed}, node {v}"
            );
            // Nodes outside S stay infinite.
            if !in_subset {
                assert!(induced.layer(v).is_infinite(), "seed {seed}, node {v}");
            }
        }
    }
}

#[test]
fn dependency_graphs_are_nested_and_bounded() {
    for seed in 0..ARBITRARY_CASES {
        let (graph, _k) = bounded_arboricity_graph(seed);
        let beta = 5;
        let sigma = natural_partition(&graph, beta);
        for v in 0..graph.num_nodes().min(12) {
            let dv = dependency_set(&graph, &sigma, v);
            if let Layer::Finite(_) = sigma.layer(v) {
                // Lemma 3.11: few neighbors outside the dependency graph.
                let outside = graph
                    .neighbors(v)
                    .iter()
                    .filter(|w| !dv.contains(w))
                    .count();
                assert!(outside <= beta, "seed {seed}, node {v}");
                // Observation 3.10: nested.
                for &w in dv.iter().take(5) {
                    let dw = dependency_set(&graph, &sigma, w);
                    assert!(dw.iter().all(|x| dv.contains(x)), "seed {seed}, node {v}");
                }
            } else {
                assert!(dv.is_empty(), "seed {seed}, node {v}");
            }
        }
    }
}

#[test]
fn merged_sparse_partitions_stay_valid() {
    for seed in 0..ARBITRARY_CASES {
        let (graph, _k) = bounded_arboricity_graph(seed);
        let beta = 5;
        let n = graph.num_nodes();
        // Build three induced partitions on thirds of the vertex set and
        // min-merge them (Lemma 4.10).
        let mut proofs: Vec<Vec<(usize, usize)>> = Vec::new();
        for part in 0..3usize {
            let in_s: Vec<bool> = (0..n).map(|v| v % 3 == part).collect();
            let sigma = induced_partition(&graph, &in_s, beta);
            proofs.push(
                (0..n)
                    .filter_map(|v| sigma.layer(v).finite().map(|l| (v, l)))
                    .collect(),
            );
        }
        let merged = merge_min(n, beta, proofs.iter());
        assert!(merged.validate(&graph).is_ok(), "seed {seed}");
    }
}

#[test]
fn h_partition_size_is_logarithmic() {
    for seed in 0..ARBITRARY_CASES {
        let (graph, k) = bounded_arboricity_graph(seed);
        let beta = 3 * k; // (2 + 1) * alpha
        let result = h_partition(&graph, beta);
        assert!(result.partition.validate(&graph).is_ok(), "seed {seed}");
        assert!(!result.partition.is_partial(), "seed {seed}");
        let n = graph.num_nodes() as f64;
        let bound = (n.ln() / 1.5f64.ln()).ceil() as usize + 2;
        assert!(result.rounds <= bound, "seed {seed}");
    }
}

#[test]
fn forest_decomposition_from_degeneracy_orientation() {
    for seed in 0..ARBITRARY_CASES {
        let graph = arbitrary_graph(seed);
        let decomposition = sparse_graph::degeneracy_ordering(&graph);
        let mut position = vec![0usize; graph.num_nodes()];
        for (i, &v) in decomposition.ordering.iter().enumerate() {
            position[v] = i;
        }
        let orientation = Orientation::from_total_order(&graph, |v| position[v]);
        assert!(
            orientation.max_out_degree() <= decomposition.degeneracy,
            "seed {seed}"
        );
        let forests = forest_decomposition(&graph, &orientation).unwrap();
        assert!(forests.all_classes_are_forests(), "seed {seed}");
        assert_eq!(forests.num_edges(), graph.num_edges(), "seed {seed}");
        // Coloring from the orientation needs out-degree + 1 colors.
        let coloring = greedy_from_orientation(&graph, &orientation).unwrap();
        assert!(coloring.is_proper(&graph), "seed {seed}");
        assert!(
            coloring.num_colors() <= orientation.max_out_degree() + 1,
            "seed {seed}"
        );
    }
}

#[test]
fn coin_game_lca_outputs_valid_proofs() {
    use ampc_model::LcaOracle;
    use beta_partition::{partial_partition_lca, CoinGameConfig};
    for seed in 0..ARBITRARY_CASES {
        let (graph, _k) = bounded_arboricity_graph(seed);
        let beta = 5;
        let oracle = LcaOracle::new(&graph);
        let config = CoinGameConfig::new(4, beta);
        let mut proofs = Vec::new();
        for v in 0..graph.num_nodes().min(10) {
            let output = partial_partition_lca(&oracle, v, &config).unwrap();
            assert!(
                output.proof.iter().all(|&(_, l)| l <= output.layer_cap),
                "seed {seed}, node {v}"
            );
            proofs.push(output.proof);
        }
        let merged = merge_min(graph.num_nodes(), beta, proofs.iter());
        assert!(merged.validate(&graph).is_ok(), "seed {seed}");
    }
}

// Coloring end-to-end properties are more expensive: fewer cases.

#[test]
fn theorem_13_colorings_are_proper_and_bounded() {
    use arbo_coloring::ampc::{color_two_alpha_plus_one, AmpcColoringParams};
    for seed in 0..EXPENSIVE_CASES {
        let (graph, k) = bounded_arboricity_graph(seed);
        let params = AmpcColoringParams::default().with_x(4);
        let result = color_two_alpha_plus_one(&graph, k, &params).unwrap();
        assert!(result.coloring.is_proper(&graph), "seed {seed}");
        assert!(result.colors_used <= result.beta + 1, "seed {seed}");
    }
}

#[test]
fn derandomized_coloring_is_proper() {
    use arbo_coloring::{derandomized_coloring, DerandParams};
    for seed in 0..EXPENSIVE_CASES {
        let graph = arbitrary_graph(seed);
        let result = derandomized_coloring(&graph, &DerandParams::with_x(2));
        assert!(result.coloring.is_proper(&graph), "seed {seed}");
        assert!(
            result.coloring.palette_size() <= result.palette,
            "seed {seed}"
        );
    }
}

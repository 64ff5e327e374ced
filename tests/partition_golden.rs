//! Golden digests of the coin-dropping game and the AMPC β-partition.
//!
//! The digests pin today's exact behaviour — every root's σ, σ(root),
//! query count, super-iteration count, explored set and discovered edges,
//! and the layers plus per-round machine/read/write accounting of whole
//! partitions on both in-process backends — so a rewrite of the game or
//! the round engine can be checked byte for byte against the version it
//! replaces. A digest mismatch means observable behaviour changed.

use ampc_coloring_repro::Workload;
use ampc_model::LcaOracle;
use beta_partition::{ampc_beta_partition, CoinGame, CoinGameConfig, PartitionParams};
use sparse_graph::{generators, CsrGraph};

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, value: usize) {
        self.word(value as u64);
    }
}

/// Digest of one full game per root of `graph`.
fn game_digest(graph: &CsrGraph, config: CoinGameConfig) -> u64 {
    let mut digest = Digest::new();
    let oracle = LcaOracle::new(graph);
    for root in graph.nodes() {
        let result = CoinGame::new(&oracle, config).run(root).unwrap();
        let mut sigma: Vec<(usize, usize)> = result.sigma.into_iter().collect();
        sigma.sort_unstable();
        digest.usize(sigma.len());
        for (node, layer) in sigma {
            digest.usize(node);
            digest.usize(layer);
        }
        digest.usize(result.sigma_root.finite().map_or(usize::MAX, |l| l));
        digest.usize(result.queries);
        digest.usize(result.super_iterations_run);
        digest.usize(result.explored.len());
        for node in result.explored {
            digest.usize(node);
        }
        digest.usize(result.discovered_edges);
    }
    digest.0
}

/// Digest of a whole partition: the layers plus each round's accounting.
fn partition_digest(graph: &CsrGraph, params: &PartitionParams) -> u64 {
    let result = ampc_beta_partition(graph, params).unwrap();
    let mut digest = Digest::new();
    for v in graph.nodes() {
        digest.usize(result.partition.layer(v).finite().unwrap());
    }
    digest.usize(result.rounds);
    digest.usize(result.peeling_rounds);
    digest.usize(result.max_queries_per_node);
    for &remaining in &result.remaining_per_round {
        digest.usize(remaining);
    }
    for round in result.metrics.rounds() {
        digest.usize(round.machines);
        digest.usize(round.max_reads);
        digest.usize(round.total_reads);
        digest.usize(round.max_writes);
        digest.usize(round.total_writes);
        digest.usize(round.store_words);
    }
    digest.0
}

#[test]
fn coin_game_digests_match_the_reference() {
    let forest = Workload::ForestUnion { n: 2_000, k: 2 }.build(42);
    let power_law = Workload::PowerLaw {
        n: 2_000,
        edges_per_node: 3,
    }
    .build(42);
    let tree = generators::complete_kary_tree(4, 3);
    let cases = [
        (
            "forest-union",
            &forest,
            CoinGameConfig::new(4, 5),
            0x7c2b_4508_b06e_3563_u64,
        ),
        (
            "power-law",
            &power_law,
            CoinGameConfig::new(4, 8),
            0x7134_3e6e_0d4f_73b7,
        ),
        (
            "kary-tree",
            &tree,
            CoinGameConfig::new(16, 3),
            0x499a_58dc_6e59_0042,
        ),
        // Games stopped by the super-iteration cap rather than by a
        // super-iteration that explores nothing: σ must be recomputed
        // over the nodes the last super-iteration added.
        (
            "forest-union-capped",
            &forest,
            CoinGameConfig::new(4, 5).with_super_iterations(1),
            0x5367_8ebe_cd02_12f2,
        ),
        (
            "power-law-capped",
            &power_law,
            CoinGameConfig::new(4, 8).with_super_iterations(1),
            0x191b_f319_359c_6a70,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, graph, config, expected) in cases {
        let actual = game_digest(graph, config);
        if actual != expected {
            mismatches.push(format!(
                "{name}: {actual:#018x} (expected {expected:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn partition_digests_match_the_reference_on_both_backends() {
    let forest = Workload::ForestUnion { n: 20_000, k: 2 }.build(7);
    let power_law = Workload::PowerLaw {
        n: 20_000,
        edges_per_node: 3,
    }
    .build(7);
    // The servebench `powerlaw25k-m8-derand` partition shape.
    let dense_power_law = Workload::PowerLaw {
        n: 20_000,
        edges_per_node: 8,
    }
    .build(7);
    let cases = [
        (
            "forest-union",
            &forest,
            PartitionParams::new(5).with_x(4),
            0x36dc_985c_1013_1326_u64,
        ),
        (
            "power-law",
            &power_law,
            PartitionParams::new(8).with_x(4),
            0x8be4_dd82_7d77_fe9f,
        ),
        (
            "power-law-m8",
            &dense_power_law,
            PartitionParams::new(23).with_x(4),
            0xfadf_5e6a_9afa_908d,
        ),
        (
            "forest-union-peeling",
            &forest,
            PartitionParams::new(5).without_lca(),
            0xb319_034a_5f90_5ab2,
        ),
    ];
    let runtimes = [
        ampc_runtime::RuntimeConfig::Sequential,
        ampc_runtime::RuntimeConfig::parallel().with_threads(2),
        ampc_runtime::RuntimeConfig::parallel().with_threads(4),
    ];
    let mut mismatches = Vec::new();
    for (name, graph, params, expected) in cases {
        for runtime in runtimes {
            let params = params.with_runtime(runtime);
            let actual = partition_digest(graph, &params);
            if actual != expected {
                mismatches.push(format!(
                    "{name} on {}: {actual:#018x} (expected {expected:#018x})",
                    runtime.label()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

//! Golden digests of the Theorem 1.3 colorings.
//!
//! The digests pin the exact output of the `(2+ε)α+1`, `α²` and
//! `α^(2+ε)` variants — every node's colour, `colors_used`,
//! `coloring_rounds` and `total_rounds` — on a forest union and a
//! power-law graph, under the sequential runtime and the parallel runtime
//! at 2 and 4 threads. Every runtime must reproduce the same recorded
//! digest, so a change that moved all runtimes the same way (which the
//! thread-count comparisons of `backend_equivalence` cannot see) fails
//! here. A digest mismatch means observable coloring behaviour changed.

use ampc_coloring_repro::{Algorithm, RuntimeConfig, SparseColoring, Workload};
use sparse_graph::CsrGraph;

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

/// Digest of one coloring run.
fn coloring_digest(
    graph: &CsrGraph,
    algorithm: Algorithm,
    alpha: usize,
    runtime: RuntimeConfig,
) -> u64 {
    let outcome = SparseColoring::new()
        .algorithm(algorithm)
        .alpha(alpha)
        .runtime(runtime)
        .color(graph)
        .unwrap_or_else(|error| panic!("{algorithm:?} under {runtime:?}: {error}"));
    assert!(outcome.coloring.is_proper(graph));
    let mut digest = Digest::new();
    for v in graph.nodes() {
        digest.usize(outcome.coloring.color(v));
    }
    digest.usize(outcome.colors_used);
    digest.usize(outcome.coloring_rounds);
    digest.usize(outcome.total_rounds);
    digest.0
}

#[test]
fn coloring_digests_match_the_reference_on_every_runtime() {
    let forest = Workload::ForestUnion { n: 12_000, k: 2 };
    let power_law = Workload::PowerLaw {
        n: 12_000,
        edges_per_node: 3,
    };
    // One digest per variant, in the order of `variants` below.
    let cases: [(Workload, [u64; 3]); 2] = [
        (
            forest,
            [
                0x0e05_c6f0_5e0b_d161,
                0xcf87_d115_0a05_9824,
                0xc0b8_0dfc_03fc_54d7,
            ],
        ),
        (
            power_law,
            [
                0x2b5a_8474_b9a8_0074,
                0xa96b_9839_4732_0575,
                0xbe36_2f3f_c589_9436,
            ],
        ),
    ];
    let variants = [
        Algorithm::TwoAlphaPlusOne,
        Algorithm::AlphaSquared,
        Algorithm::AlphaPower,
    ];
    let runtimes = [
        RuntimeConfig::Sequential,
        RuntimeConfig::parallel().with_threads(2),
        RuntimeConfig::parallel().with_threads(4),
    ];
    let mut mismatches = Vec::new();
    for (workload, expected) in cases {
        let graph = workload.build(23);
        for (algorithm, expected) in variants.into_iter().zip(expected) {
            for runtime in runtimes {
                let actual = coloring_digest(&graph, algorithm, workload.alpha_bound(), runtime);
                if actual != expected {
                    mismatches.push(format!(
                        "{} {algorithm:?} {}: {actual:#018x} (expected {expected:#018x})",
                        workload.label(),
                        runtime.label(),
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

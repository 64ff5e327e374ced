//! Golden digests of the derandomized MPC coloring of Theorem 1.5.
//!
//! The digests pin the exact behaviour of the conditional-expectation seed
//! search — the colouring, the uncolored count after every phase, the
//! phase count and the charged MPC rounds — over `gnm` and power-law
//! graphs, several trade-off parameters `x`, seed batch widths (including
//! batches that straddle two seed rows and batches wider than a row) and
//! both thread counts, so a rewrite of the seed search can be checked byte
//! for byte against the version it replaces. A digest mismatch means
//! observable behaviour changed.

use ampc_coloring_repro::Workload;
use ampc_runtime::RoundPrimitives;
use arbo_coloring::{derandomized_coloring_with_runtime, DerandParams};
use rand::SeedableRng;
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

/// Seed batch widths: 1 and 4 divide nothing in particular, 3 and 7 leave
/// batches straddling two rows, and 7 exceeds a whole row on the smallest
/// graph.
const BATCH_BITS: [usize; 4] = [1, 3, 4, 7];

/// Digest of one run per batch width for trade-off parameter `x`.
fn derand_digest(graph: &CsrGraph, x: usize, primitives: &RoundPrimitives) -> u64 {
    let mut digest = Digest::new();
    for batch_bits in BATCH_BITS {
        let params = DerandParams {
            batch_bits,
            ..DerandParams::with_x(x)
        };
        let result = derandomized_coloring_with_runtime(graph, &params, primitives);
        assert!(result.coloring.is_proper(graph));
        for v in graph.nodes() {
            digest.usize(result.coloring.color(v));
        }
        digest.usize(result.palette);
        digest.usize(result.phases);
        digest.usize(result.uncolored_history.len());
        for &remaining in &result.uncolored_history {
            digest.usize(remaining);
        }
        digest.usize(result.mpc_rounds);
    }
    digest.0
}

#[test]
fn derand_digests_match_the_reference_on_both_thread_counts() {
    let gnm_tiny = generators::gnm(24, 60, &mut rand_chacha::ChaCha8Rng::seed_from_u64(3));
    let gnm = generators::gnm(1_500, 3_600, &mut rand_chacha::ChaCha8Rng::seed_from_u64(5));
    let power_law = Workload::PowerLaw {
        n: 1_200,
        edges_per_node: 3,
    }
    .build(11);
    let dense_power_law = Workload::PowerLaw {
        n: 400,
        edges_per_node: 8,
    }
    .build(13);
    let cases: [(&str, &CsrGraph, [u64; 3]); 4] = [
        (
            "gnm-tiny",
            &gnm_tiny,
            [
                0x5639_faaf_5708_8c48,
                0x713c_0a71_fc68_6fe2,
                0x800c_45ea_c72a_7880,
            ],
        ),
        (
            "gnm",
            &gnm,
            [
                0x3c26_d00f_fc3b_9e84,
                0x30d8_1f44_b7f7_e192,
                0x7ce6_af37_5667_9f91,
            ],
        ),
        (
            "power-law",
            &power_law,
            [
                0xcb50_a90a_279b_0d32,
                0xcb50_a90a_279b_0d32,
                0xd6e8_0d88_f28d_ebcb,
            ],
        ),
        (
            "power-law-m8",
            &dense_power_law,
            [
                0x0388_dee3_cb5c_d2ae,
                0x0388_dee3_cb5c_d2ae,
                0x0838_7ee3_19bd_c792,
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, graph, expected) in cases {
        for (x, expected) in [2usize, 3, 8].into_iter().zip(expected) {
            for threads in [1usize, 2] {
                let actual = derand_digest(graph, x, &RoundPrimitives::new(threads));
                if actual != expected {
                    mismatches.push(format!(
                        "{name} x={x} threads={threads}: {actual:#018x} \
                         (expected {expected:#018x})"
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

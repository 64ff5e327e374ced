//! Benches for the parallel runtime: the AMPC β-partition on the round
//! engine across thread counts, and the intra-layer simulators on the
//! round primitives.
//!
//! Run with `cargo bench -p ampc-coloring-bench --bench runtime_benches`
//! (set `AMPC_BENCH_SAMPLES=3` for a smoke run). Speedups require a
//! multi-core host; on a single core the parallel runs degrade gracefully
//! to near-sequential cost plus scheduling overhead.

use ampc_coloring_bench::Workload;
use ampc_runtime::{RoundPrimitives, RuntimeConfig};
use arbo_coloring::{arb_linial_coloring_with_runtime, kw_color_reduction_with_runtime};
use beta_partition::{ampc_beta_partition, PartitionParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_graph::{Coloring, Orientation};
use std::hint::black_box;

fn bench_partition_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ampc_beta_partition_runtime");
    group.sample_size(10);
    for (label, workload) in [
        (
            "forest_union_100k",
            Workload::ForestUnion { n: 100_000, k: 2 },
        ),
        (
            "power_law_100k",
            Workload::PowerLaw {
                n: 100_000,
                edges_per_node: 3,
            },
        ),
    ] {
        let graph = workload.build(52);
        let beta = 2 * workload.alpha_bound() + 2;
        for threads in [1usize, 2, 4] {
            let params = PartitionParams::new(beta)
                .with_x(4)
                .with_runtime(RuntimeConfig::parallel().with_threads(threads));
            group.bench_with_input(
                BenchmarkId::new(label, format!("t{threads}")),
                &graph,
                |b, graph| {
                    b.iter(|| black_box(ampc_beta_partition(graph, &params).unwrap()));
                },
            );
        }
    }
    group.finish();
}

/// The intra-layer matrix: the LOCAL simulators themselves (whole graph =
/// one layer) across thread counts, on 100k-node workloads. Sequential is
/// `threads = 1` through the same round primitives; results are
/// bit-identical across the matrix (`tests/backend_equivalence.rs` pins
/// that), so only the wall clock varies.
fn bench_intra_layer_simulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("intra_layer_simulators");
    group.sample_size(10);
    let workload = Workload::ForestUnion { n: 100_000, k: 2 };
    let graph = workload.build(53);
    let decomposition = sparse_graph::degeneracy_ordering(&graph);
    let mut position = vec![0usize; graph.num_nodes()];
    for (i, &v) in decomposition.ordering.iter().enumerate() {
        position[v] = i;
    }
    let orientation = Orientation::from_total_order(&graph, |v| position[v]);
    let trivial = Coloring::new((0..graph.num_nodes()).collect());
    let degree_bound = graph.max_degree();

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("arb_linial", format!("t{threads}")),
            &graph,
            |b, graph| {
                b.iter(|| {
                    let primitives = RoundPrimitives::new(threads);
                    black_box(
                        arb_linial_coloring_with_runtime(graph, &orientation, None, &primitives)
                            .expect("Arb-Linial succeeds"),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("kuhn_wattenhofer", format!("t{threads}")),
            &graph,
            |b, graph| {
                b.iter(|| {
                    let primitives = RoundPrimitives::new(threads);
                    black_box(
                        kw_color_reduction_with_runtime(graph, &trivial, degree_bound, &primitives)
                            .expect("KW succeeds"),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_backends,
    bench_intra_layer_simulators
);
criterion_main!(benches);

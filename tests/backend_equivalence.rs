//! The determinism contract of the `ampc-runtime` subsystem: the round
//! engine stores exactly what the sequential `AmpcExecutor` under
//! `ConflictPolicy::KeepMin` stores, and partitions and colorings are
//! bit-identical across thread counts — on every `Workload` — with budget
//! violations surfacing as the same errors.

use ampc_coloring_repro::{Algorithm, RuntimeConfig, SparseColoring, Workload};
use ampc_model::{
    AmpcConfig, AmpcExecutor, ConflictPolicy, DataStore, Key, MachineContext, ModelError, Value,
};
use ampc_runtime::{RoundEngine, RoundPrimitives};
use arbo_coloring::{
    arb_linial_coloring_with_runtime, derandomized_coloring_relabeled,
    derandomized_coloring_with_runtime, kw_color_reduction_with_runtime,
    recolor_layers_with_runtime, DerandParams, RecolorOrder,
};
use beta_partition::{ampc_beta_partition, natural_partition, PartitionParams};
use sparse_graph::{relabel, Coloring, Orientation, RelabelPolicy};

const ALL_WORKLOADS: [Workload; 5] = [
    Workload::ForestUnion { n: 400, k: 2 },
    Workload::PowerLaw {
        n: 400,
        edges_per_node: 3,
    },
    Workload::PlanarGrid { side: 14 },
    Workload::DeepTree { arity: 4, depth: 4 },
    // The high-skew shape the work-stealing scheduler targets: a few hubs
    // carry almost every edge.
    Workload::HubAndSpoke {
        n: 400,
        communities: 8,
    },
];

fn parallel_matrix() -> Vec<RuntimeConfig> {
    vec![
        RuntimeConfig::parallel().with_threads(2),
        RuntimeConfig::parallel().with_threads(4),
        RuntimeConfig::parallel().with_threads(7),
    ]
}

/// A store as `node -> layer` over `0..n`.
fn layers_of(store: &DataStore, n: usize) -> Vec<Option<u32>> {
    (0..n)
        .map(|v| {
            store
                .get(Key::single(v as u64))
                .map(|value| value.words()[0] as u32)
        })
        .collect()
}

/// The round engine against its oracle, `AmpcExecutor` under
/// `ConflictPolicy::KeepMin`. The body has the partition's shape: machine
/// `v` reads its own layer from the previous round, proposes a small layer
/// for every neighbour (so many machines hit the same node) and records its
/// degree as side-channel reads. Two rounds run clean; in a third, every
/// machine ≡ 3 (mod 4) overruns its write budget.
#[test]
fn engine_matches_the_keep_min_executor_on_every_workload() {
    for workload in ALL_WORKLOADS {
        let graph = workload.build(97);
        let n = graph.num_nodes();
        // The write budget covers the largest neighbourhood.
        let base = AmpcConfig::for_input_size(n + graph.num_edges(), 0.5);
        let slack = (graph.max_degree() + 1) as f64 / base.local_space() as f64;
        let config = base.with_space_slack(slack.max(1.0));
        let budget = config.write_budget();
        let graph = &graph;
        let propose = |machine: usize, ctx: &mut MachineContext<'_>| -> Result<(), ModelError> {
            let own = ctx
                .read(Key::single(machine as u64))?
                .map_or(0, |v| v.words()[0]);
            ctx.note_reads(graph.degree(machine));
            for &w in graph.neighbors(machine) {
                let layer = (own + 3 * machine as u64 + w as u64) % 7;
                ctx.write(Key::single(w as u64), Value::single(layer))?;
            }
            Ok(())
        };
        let overrun = |machine: usize, ctx: &mut MachineContext<'_>| -> Result<(), ModelError> {
            if machine % 4 != 3 {
                return propose(machine, ctx);
            }
            for i in 0..=budget {
                ctx.write(Key::single(((machine + i) % n) as u64), Value::single(1))?;
            }
            Ok(())
        };

        let mut executor = AmpcExecutor::new(config, DataStore::new());
        let mut oracle = Vec::new();
        for _ in 0..2 {
            executor
                .round(n, ConflictPolicy::KeepMin, propose)
                .expect("the oracle round fits its budgets");
            oracle.push((layers_of(executor.store(), n), executor.store().len()));
        }
        let oracle_error = executor
            .round(n, ConflictPolicy::KeepMin, overrun)
            .unwrap_err();
        assert_eq!(
            oracle_error,
            ModelError::WriteBudgetExceeded { machine: 3, budget }
        );

        for threads in [1, 2, 4, 7] {
            let label = format!("workload {workload:?}, threads {threads}");
            let mut engine = RoundEngine::new(config, threads);
            for (layers, len) in &oracle {
                engine
                    .round(n, || propose)
                    .unwrap_or_else(|error| panic!("{label}: {error}"));
                let actual: Vec<Option<u32>> = (0..n).map(|v| engine.layer(v)).collect();
                assert_eq!(&actual, layers, "{label}");
                assert_eq!(engine.layered(), *len, "{label}");
            }
            // Equal round reports (machines, reads, writes, store words)
            // and equal conflict-merge counts.
            assert_eq!(engine.metrics(), executor.metrics(), "{label}");
            let merges = |metrics: &ampc_model::AmpcMetrics| -> Vec<usize> {
                metrics
                    .runtime_stats()
                    .iter()
                    .map(|stats| stats.conflict_merges)
                    .collect()
            };
            assert_eq!(
                merges(engine.metrics()),
                merges(executor.metrics()),
                "{label}"
            );

            let before: Vec<Option<u32>> = (0..n).map(|v| engine.layer(v)).collect();
            let metrics_before = engine.metrics().clone();
            assert_eq!(
                engine.round(n, || overrun).unwrap_err(),
                oracle_error,
                "{label}"
            );
            let after: Vec<Option<u32>> = (0..n).map(|v| engine.layer(v)).collect();
            assert_eq!(before, after, "a failed round left a trace ({label})");
            assert_eq!(engine.metrics(), &metrics_before, "{label}");
            assert_eq!(
                engine.metrics().runtime_stats(),
                metrics_before.runtime_stats(),
                "{label}"
            );
        }
    }
}

#[test]
fn partitions_and_colorings_agree_on_every_workload() {
    for workload in ALL_WORKLOADS {
        let graph = workload.build(98);
        let alpha = workload.alpha_bound();
        let beta = 2 * alpha + 2;

        let sequential_partition =
            ampc_beta_partition(&graph, &PartitionParams::new(beta).with_x(4))
                .expect("partition succeeds");
        let parallel_partition = ampc_beta_partition(
            &graph,
            &PartitionParams::new(beta)
                .with_x(4)
                .with_runtime(RuntimeConfig::parallel().with_threads(4)),
        )
        .expect("partition succeeds");
        assert_eq!(
            sequential_partition.partition, parallel_partition.partition,
            "workload {workload:?}"
        );
        assert_eq!(sequential_partition.rounds, parallel_partition.rounds);
        assert_eq!(sequential_partition.metrics, parallel_partition.metrics);
        assert_eq!(
            sequential_partition.remaining_per_round,
            parallel_partition.remaining_per_round
        );
        // The parallel run recorded runtime measurements for its rounds.
        assert_eq!(
            parallel_partition.metrics.runtime_stats().len(),
            parallel_partition.rounds,
            "workload {workload:?}"
        );

        let color = |runtime: RuntimeConfig| {
            SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(alpha)
                .runtime(runtime)
                .color(&graph)
                .expect("coloring succeeds")
        };
        let sequential = color(RuntimeConfig::Sequential);
        let parallel = color(RuntimeConfig::parallel().with_threads(4));
        assert_eq!(
            sequential.coloring, parallel.coloring,
            "workload {workload:?}"
        );
        assert_eq!(sequential.colors_used, parallel.colors_used);
        assert_eq!(sequential.total_rounds, parallel.total_rounds);
        assert!(sequential.coloring.is_proper(&graph));
    }
}

/// The intra-layer determinism matrix: the LOCAL simulators themselves
/// (Arb-Linial rounds, Kuhn–Wattenhofer sweeps) produce bit-identical
/// colorings, palette trajectories and round counts on the round
/// primitives — now with cost-weighted chunking and the work-stealing
/// deques engaged — for every workload and thread count, including the
/// skewed hub-and-spoke workload whose by-id orientation piles most of the
/// per-node cost onto a few hubs.
#[test]
fn intra_layer_simulators_are_bit_identical_across_thread_counts() {
    for workload in ALL_WORKLOADS {
        let graph = workload.build(101);
        let orientation = Orientation::from_total_order(&graph, |v| v);
        let initial = Coloring::new((0..graph.num_nodes()).collect());
        let delta = graph.max_degree();

        let linial_reference = arb_linial_coloring_with_runtime(
            &graph,
            &orientation,
            None,
            &RoundPrimitives::sequential(),
        )
        .expect("sequential Arb-Linial succeeds");
        let kw_reference = kw_color_reduction_with_runtime(
            &graph,
            &initial,
            delta,
            &RoundPrimitives::sequential(),
        )
        .expect("sequential KW succeeds");

        for threads in [1usize, 2, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let linial = arb_linial_coloring_with_runtime(&graph, &orientation, None, &primitives)
                .expect("parallel Arb-Linial succeeds");
            assert_eq!(
                linial_reference.coloring, linial.coloring,
                "workload {workload:?}, threads {threads}"
            );
            assert_eq!(
                linial_reference.palette_trajectory,
                linial.palette_trajectory
            );
            assert_eq!(linial_reference.rounds, linial.rounds);

            let kw = kw_color_reduction_with_runtime(&graph, &initial, delta, &primitives)
                .expect("parallel KW succeeds");
            assert_eq!(
                kw_reference.coloring, kw.coloring,
                "workload {workload:?}, threads {threads}"
            );
            assert_eq!(kw_reference.palette_trajectory, kw.palette_trajectory);
            assert_eq!(kw_reference.rounds, kw.rounds);
            assert!(primitives.tasks_executed() > 0, "primitives actually ran");
        }
    }
}

/// The scheduler A/B is output-invisible: on the skewed workloads (by-id
/// orientations, hub out-degrees = hub degrees) the cost-weighted grid +
/// stealing and the PR 3 contiguous grid produce bit-identical colorings,
/// palette trajectories and round counts — both equal to the sequential
/// reference — for every thread count. Only the wall clock may differ.
#[test]
fn weighted_and_contiguous_schedulers_agree_on_skewed_workloads() {
    for workload in [
        Workload::HubAndSpoke {
            n: 600,
            communities: 4,
        },
        Workload::PowerLaw {
            n: 600,
            edges_per_node: 3,
        },
    ] {
        let graph = workload.build(104);
        let orientation = Orientation::from_total_order(&graph, |v| v);
        let reference = arb_linial_coloring_with_runtime(
            &graph,
            &orientation,
            None,
            &RoundPrimitives::sequential(),
        )
        .expect("sequential Arb-Linial succeeds");
        for threads in [1usize, 2, 4, 7] {
            for contiguous in [false, true] {
                let primitives = if contiguous {
                    RoundPrimitives::new(threads).contiguous()
                } else {
                    RoundPrimitives::new(threads)
                };
                let run = arb_linial_coloring_with_runtime(&graph, &orientation, None, &primitives)
                    .expect("Arb-Linial succeeds");
                assert_eq!(
                    reference.coloring, run.coloring,
                    "workload {workload:?}, threads {threads}, contiguous {contiguous}"
                );
                assert_eq!(reference.palette_trajectory, run.palette_trajectory);
                assert_eq!(reference.rounds, run.rounds);
            }
        }
    }
}

/// The recoloring waves and the derandomized MPC sweeps agree across
/// thread counts too (the remaining intra-layer code paths).
#[test]
fn recolor_and_derand_sweeps_are_bit_identical_across_thread_counts() {
    for workload in ALL_WORKLOADS {
        let graph = workload.build(102);
        let beta = 2 * workload.alpha_bound() + 2;
        let partition = natural_partition(&graph, beta);
        // The trivial id-coloring is proper everywhere, hence within every
        // layer — a valid recoloring input with plenty of waves.
        let initial = Coloring::new((0..graph.num_nodes()).collect());
        let recolor_reference = recolor_layers_with_runtime(
            &graph,
            &partition,
            &initial,
            RecolorOrder::HighestAvailable,
            &RoundPrimitives::sequential(),
        )
        .expect("sequential recolor succeeds");
        let derand_reference = derandomized_coloring_with_runtime(
            &graph,
            &DerandParams::with_x(2),
            &RoundPrimitives::sequential(),
        );
        for threads in [2usize, 5] {
            let primitives = RoundPrimitives::new(threads);
            let recolored = recolor_layers_with_runtime(
                &graph,
                &partition,
                &initial,
                RecolorOrder::HighestAvailable,
                &primitives,
            )
            .expect("parallel recolor succeeds");
            assert_eq!(
                recolor_reference.coloring, recolored.coloring,
                "workload {workload:?}, threads {threads}"
            );
            assert_eq!(
                recolor_reference.repaired_conflicts,
                recolored.repaired_conflicts
            );
            let derand =
                derandomized_coloring_with_runtime(&graph, &DerandParams::with_x(2), &primitives);
            assert_eq!(
                derand_reference.coloring, derand.coloring,
                "workload {workload:?}, threads {threads}"
            );
            assert_eq!(derand_reference.uncolored_history, derand.uncolored_history);
            assert_eq!(derand_reference.mpc_rounds, derand.mpc_rounds);
        }
    }
}

/// The relabel × thread matrix of the memory-layout pass: every simulator,
/// run on a cache-aware relabeled instance (permute → color → un-permute),
/// reproduces the unrelabeled sequential reference byte for byte, for
/// every workload, relabel policy and thread count.
///
/// The ingredients of the contract (pinned here, argued in
/// `sparse_graph::relabel`'s module docs): orientations are computed on
/// the *original* graph and pushed through the permutation; initial
/// colorings are permuted alongside the graph; the derandomized coloring —
/// whose GF(2) queries read node ids — encodes *original* ids via
/// [`derandomized_coloring_relabeled`].
#[test]
fn relabeled_runs_unpermute_to_the_unrelabeled_reference() {
    for workload in ALL_WORKLOADS {
        let graph = workload.build(108);
        let n = graph.num_nodes();
        let orientation = Orientation::from_total_order(&graph, |v| v);
        let initial = Coloring::new((0..n).collect());
        let delta = graph.max_degree();
        let beta = 2 * workload.alpha_bound() + 2;
        let derand_params = DerandParams::with_x(2);

        let sequential = RoundPrimitives::sequential();
        let linial_reference =
            arb_linial_coloring_with_runtime(&graph, &orientation, Some(&initial), &sequential)
                .expect("reference Arb-Linial succeeds");
        let kw_reference = kw_color_reduction_with_runtime(&graph, &initial, delta, &sequential)
            .expect("reference KW succeeds");
        let recolor_reference = recolor_layers_with_runtime(
            &graph,
            &natural_partition(&graph, beta),
            &initial,
            RecolorOrder::HighestAvailable,
            &sequential,
        )
        .expect("reference recolor succeeds");
        let derand_reference =
            derandomized_coloring_with_runtime(&graph, &derand_params, &sequential);

        for policy in RelabelPolicy::ALL {
            let (relabeled, permutation) = relabel(&graph, policy);
            // Push the *original* instance through the permutation: the
            // orientation keeps its original tie-breaks, the initial colors
            // follow their nodes.
            let pushed_orientation = permutation.permute_orientation(&orientation);
            let pushed_initial = Coloring::new(permutation.permute_colors(initial.colors()));
            // The natural partition peels whole threshold sets at a time,
            // so its layers are label-independent and can be recomputed on
            // the relabeled graph directly.
            let pushed_partition = natural_partition(&relabeled, beta);

            for threads in [1usize, 4] {
                let primitives = RoundPrimitives::new(threads);
                let label = format!(
                    "workload {workload:?}, {}, threads {threads}",
                    policy.label()
                );

                let linial = arb_linial_coloring_with_runtime(
                    &relabeled,
                    &pushed_orientation,
                    Some(&pushed_initial),
                    &primitives,
                )
                .expect("relabeled Arb-Linial succeeds");
                assert_eq!(
                    permutation.unpermute_coloring(&linial.coloring),
                    linial_reference.coloring,
                    "arb-linial: {label}"
                );
                assert_eq!(
                    linial_reference.palette_trajectory, linial.palette_trajectory,
                    "arb-linial trajectory: {label}"
                );

                let kw = kw_color_reduction_with_runtime(
                    &relabeled,
                    &pushed_initial,
                    delta,
                    &primitives,
                )
                .expect("relabeled KW succeeds");
                assert_eq!(
                    permutation.unpermute_coloring(&kw.coloring),
                    kw_reference.coloring,
                    "kw: {label}"
                );
                assert_eq!(
                    kw_reference.palette_trajectory, kw.palette_trajectory,
                    "kw trajectory: {label}"
                );

                let recolored = recolor_layers_with_runtime(
                    &relabeled,
                    &pushed_partition,
                    &pushed_initial,
                    RecolorOrder::HighestAvailable,
                    &primitives,
                )
                .expect("relabeled recolor succeeds");
                assert_eq!(
                    permutation.unpermute_coloring(&recolored.coloring),
                    recolor_reference.coloring,
                    "recolor: {label}"
                );
                assert_eq!(
                    recolor_reference.repaired_conflicts, recolored.repaired_conflicts,
                    "recolor conflicts: {label}"
                );

                let derand = derandomized_coloring_relabeled(
                    &relabeled,
                    &derand_params,
                    &permutation,
                    &primitives,
                );
                assert_eq!(
                    permutation.unpermute_coloring(&derand.coloring),
                    derand_reference.coloring,
                    "derand: {label}"
                );
                assert_eq!(
                    derand_reference.uncolored_history, derand.uncolored_history,
                    "derand history: {label}"
                );
                assert_eq!(derand_reference.mpc_rounds, derand.mpc_rounds);
            }
        }
    }
}

/// End-to-end: the full drivers stay bit-identical across a thread matrix
/// now that the intra-layer loops are parallel too, and parallel runs
/// record intra-layer task counts (excluded from metric equality).
#[test]
fn drivers_agree_across_thread_matrix_and_record_intra_stats() {
    for workload in ALL_WORKLOADS {
        let graph = workload.build(103);
        let alpha = workload.alpha_bound();
        let color = |runtime: RuntimeConfig| {
            SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(alpha)
                .runtime(runtime)
                .color(&graph)
                .expect("coloring succeeds")
        };
        let sequential = color(RuntimeConfig::Sequential);
        for threads in [1usize, 2, 4, 7] {
            let parallel = color(RuntimeConfig::parallel().with_threads(threads));
            assert_eq!(
                sequential.coloring, parallel.coloring,
                "workload {workload:?}, threads {threads}"
            );
            assert_eq!(sequential.colors_used, parallel.colors_used);
            assert_eq!(sequential.total_rounds, parallel.total_rounds);
            assert_eq!(sequential.metrics, parallel.metrics, "model-level only");
            assert!(
                parallel
                    .metrics
                    .runtime_stats()
                    .iter()
                    .any(|stats| stats.intra_tasks > 0),
                "parallel runs record intra-layer stats"
            );
        }
    }
}

/// The allocation-discipline regression test: one shared `RoundPrimitives`
/// context — and therefore one shared set of scratch pools, marker sets
/// and recycled reduce grids — runs *different* workloads back-to-back
/// through every simulator, twice (the second pass leases only warm,
/// previously-dirty buffers). Results must be bit-identical to
/// fresh-context runs; a stale epoch, an unreset marker, or a dirty
/// recycled buffer leaking values between workloads would diverge here.
#[test]
fn shared_scratch_across_workloads_stays_bit_identical() {
    // Deliberately different shapes and palette sizes so recycled buffers
    // change logical dimensions between leases.
    let workloads = [
        Workload::HubAndSpoke {
            n: 700,
            communities: 5,
        },
        Workload::ForestUnion { n: 500, k: 3 },
        Workload::PowerLaw {
            n: 600,
            edges_per_node: 4,
        },
    ];
    let shared = RoundPrimitives::new(4);
    for pass in 0..2 {
        for workload in workloads {
            let graph = workload.build(105);
            let orientation = Orientation::from_total_order(&graph, |v| v);
            let initial = Coloring::new((0..graph.num_nodes()).collect());
            let delta = graph.max_degree();
            let beta = 2 * workload.alpha_bound() + 2;
            let partition = natural_partition(&graph, beta);

            let fresh = RoundPrimitives::new(4);
            let linial_fresh = arb_linial_coloring_with_runtime(&graph, &orientation, None, &fresh)
                .expect("fresh Arb-Linial succeeds");
            let linial_shared =
                arb_linial_coloring_with_runtime(&graph, &orientation, None, &shared)
                    .expect("shared Arb-Linial succeeds");
            assert_eq!(
                linial_fresh.coloring, linial_shared.coloring,
                "pass {pass}, workload {workload:?}: arb-linial diverged on shared scratch"
            );
            assert_eq!(
                linial_fresh.palette_trajectory,
                linial_shared.palette_trajectory
            );

            let kw_fresh = kw_color_reduction_with_runtime(&graph, &initial, delta, &fresh)
                .expect("fresh KW succeeds");
            let kw_shared = kw_color_reduction_with_runtime(&graph, &initial, delta, &shared)
                .expect("shared KW succeeds");
            assert_eq!(
                kw_fresh.coloring, kw_shared.coloring,
                "pass {pass}, workload {workload:?}: KW diverged on shared scratch"
            );
            assert_eq!(kw_fresh.palette_trajectory, kw_shared.palette_trajectory);

            let recolor_fresh = recolor_layers_with_runtime(
                &graph,
                &partition,
                &initial,
                RecolorOrder::HighestAvailable,
                &fresh,
            )
            .expect("fresh recolor succeeds");
            let recolor_shared = recolor_layers_with_runtime(
                &graph,
                &partition,
                &initial,
                RecolorOrder::HighestAvailable,
                &shared,
            )
            .expect("shared recolor succeeds");
            assert_eq!(
                recolor_fresh.coloring, recolor_shared.coloring,
                "pass {pass}, workload {workload:?}: recolor diverged on shared scratch"
            );

            let derand_fresh =
                derandomized_coloring_with_runtime(&graph, &DerandParams::with_x(2), &fresh);
            let derand_shared =
                derandomized_coloring_with_runtime(&graph, &DerandParams::with_x(2), &shared);
            assert_eq!(
                derand_fresh.coloring, derand_shared.coloring,
                "pass {pass}, workload {workload:?}: derand diverged on shared scratch"
            );
            assert_eq!(
                derand_fresh.uncolored_history,
                derand_shared.uncolored_history
            );
        }
    }
    // The shared context actually recycled buffers (the point of the test),
    // and the reuse counters surface through its runtime stats record.
    let stats = shared.runtime_stats();
    assert!(
        stats.scratch_reuses > 0,
        "the second pass must lease warm buffers: {stats:?}"
    );
    assert!(stats.scratch_allocs > 0, "cold leases are counted too");
}

/// Hardware-counter sampling is measurement-only: a run with the
/// primitives' perf sink disabled must produce byte-for-byte the same
/// coloring, palette trajectory and task counts as the default sampling
/// run. (Whether counters are actually live depends on the host —
/// `perf::available()` — but the enabled/disabled code paths diverge
/// either way, which is what this pins.)
#[test]
fn perf_sampling_on_and_off_are_bit_identical() {
    for workload in [
        Workload::ForestUnion { n: 400, k: 2 },
        Workload::HubAndSpoke {
            n: 400,
            communities: 8,
        },
    ] {
        let graph = workload.build(109);
        let decomposition = sparse_graph::degeneracy_ordering(&graph);
        let mut position = vec![0usize; graph.num_nodes()];
        for (i, &v) in decomposition.ordering.iter().enumerate() {
            position[v] = i;
        }
        let orientation = Orientation::from_total_order(&graph, |v| position[v]);
        for threads in [1, 4] {
            let sampled = RoundPrimitives::new(threads);
            let with_perf = {
                let scope = sampled.perf_span();
                let result = arb_linial_coloring_with_runtime(&graph, &orientation, None, &sampled)
                    .expect("sampled run succeeds");
                drop(scope);
                result
            };
            let unsampled = RoundPrimitives::new(threads).without_perf();
            let without_perf = {
                // The span is inert on a perf-disabled context: no
                // syscalls, nothing recorded.
                let scope = unsampled.perf_span();
                let result =
                    arb_linial_coloring_with_runtime(&graph, &orientation, None, &unsampled)
                        .expect("unsampled run succeeds");
                drop(scope);
                result
            };
            assert_eq!(
                with_perf.coloring, without_perf.coloring,
                "workload {workload:?}, threads {threads}"
            );
            assert_eq!(
                with_perf.palette_trajectory,
                without_perf.palette_trajectory
            );
            assert_eq!(with_perf.rounds, without_perf.rounds);
            // The disabled sink really recorded nothing.
            assert!(
                unsampled.perf_counters().is_zero(),
                "disabled sink must stay zero"
            );
            // And the sampled run's counters honor availability: all-zero
            // when perf is unavailable on this host.
            if !ampc_runtime::perf::available() {
                assert!(sampled.perf_counters().is_zero());
            }
        }
    }
}

/// The tracing subsystem's bit-identity guard: attaching a `TraceContext`
/// to a run is output-invisible. Colorings, color counts, round counts and
/// the model-level metrics are identical with tracing on and off, on both
/// backends — recording a span is a clock read plus a buffer push, never
/// a scheduling or merge decision.
#[test]
fn tracing_on_and_off_are_bit_identical() {
    use ampc_runtime::trace::TraceContext;
    use std::sync::Arc;
    for workload in [
        Workload::ForestUnion { n: 400, k: 2 },
        Workload::HubAndSpoke {
            n: 400,
            communities: 8,
        },
    ] {
        let graph = workload.build(106);
        let alpha = workload.alpha_bound();
        for runtime in [
            RuntimeConfig::Sequential,
            RuntimeConfig::parallel().with_threads(4),
        ] {
            let builder = SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(alpha)
                .runtime(runtime);
            let untraced = builder.color(&graph).expect("untraced run succeeds");
            let trace = Arc::new(TraceContext::new());
            let traced = builder
                .color_traced(&graph, Some(Arc::clone(&trace)))
                .expect("traced run succeeds");
            let label = runtime.label();
            assert_eq!(
                untraced.coloring, traced.coloring,
                "workload {workload:?}, runtime {label}"
            );
            assert_eq!(untraced.colors_used, traced.colors_used);
            assert_eq!(untraced.total_rounds, traced.total_rounds);
            assert_eq!(
                untraced.metrics, traced.metrics,
                "model-level metrics must not see the trace ({label})"
            );
            // The traced run actually recorded the pipeline's phases.
            assert!(trace.recorded() > 0, "spans recorded ({label})");
            let timeline = trace.finish();
            for name in ["phase.partition", "phase.coloring", "partition.round"] {
                assert!(
                    timeline.events.iter().any(|event| event.name == name),
                    "span `{name}` missing from the {label} timeline"
                );
            }
        }
    }
}

#[test]
fn large_arboricity_variant_agrees_too() {
    // The Theorem 1.5 per-layer driver takes a different code path
    // (parallel per-layer palettes with sequential offset folding).
    let workload = Workload::ForestUnion { n: 300, k: 4 };
    let graph = workload.build(99);
    let color = |runtime: RuntimeConfig| {
        SparseColoring::new()
            .algorithm(Algorithm::LargeArboricity)
            .alpha(4)
            .runtime(runtime)
            .color(&graph)
            .expect("coloring succeeds")
    };
    let sequential = color(RuntimeConfig::Sequential);
    let parallel = color(RuntimeConfig::parallel().with_threads(3));
    assert_eq!(sequential.coloring, parallel.coloring);
    assert_eq!(sequential.colors_used, parallel.colors_used);
}

/// The error every runtime reports for one failing round, the sequential
/// executor's first.
fn round_errors<F>(config: AmpcConfig, machines: usize, body: F) -> Vec<ModelError>
where
    F: Fn(usize, &mut MachineContext<'_>) -> Result<(), ModelError> + Sync + Copy,
{
    let mut executor = AmpcExecutor::new(config, DataStore::new());
    let mut errors = vec![executor
        .round(machines, ConflictPolicy::KeepMin, body)
        .unwrap_err()];
    for runtime in [RuntimeConfig::Sequential]
        .into_iter()
        .chain(parallel_matrix())
    {
        errors.push(runtime.engine(config).round(machines, || body).unwrap_err());
    }
    errors
}

#[test]
fn budget_violation_errors_are_identical() {
    // Tight budgets: input size 16 at delta 0.5 gives 4 reads / 4 writes.
    let config = AmpcConfig::for_input_size(16, 0.5);
    let over_read = |machine: usize, ctx: &mut MachineContext<'_>| -> Result<(), ModelError> {
        let reads = if machine >= 5 { 64 } else { 1 };
        for i in 0..reads {
            ctx.read(Key::single(i))?;
        }
        Ok(())
    };
    let over_write = |machine: usize, ctx: &mut MachineContext<'_>| -> Result<(), ModelError> {
        let writes = if machine >= 11 { 64 } else { 1 };
        for i in 0..writes {
            ctx.write(Key::single(machine as u64), Value::single(i))?;
        }
        Ok(())
    };
    for error in round_errors(config, 16, over_read) {
        assert_eq!(
            error,
            ModelError::ReadBudgetExceeded {
                machine: 5,
                budget: 4
            }
        );
    }
    for error in round_errors(config, 16, over_write) {
        assert_eq!(
            error,
            ModelError::WriteBudgetExceeded {
                machine: 11,
                budget: 4
            }
        );
    }
}

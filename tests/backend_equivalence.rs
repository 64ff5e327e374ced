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
    arb_linial_coloring_with_runtime, derandomized_coloring_with_runtime,
    kw_color_reduction_with_runtime, recolor_layers_with_runtime, DerandParams, RecolorOrder,
};
use beta_partition::{ampc_beta_partition, natural_partition, PartitionParams};
use sparse_graph::{greedy_by_degeneracy_order, Coloring, CsrGraph, Orientation};

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
/// primitives for every workload and thread count, including the skewed
/// hub-and-spoke workload whose by-id orientation piles most of the
/// per-node cost onto a few hubs. These graphs are small enough that every
/// primitive runs inline; `primitives_past_their_inline_thresholds_agree`
/// covers the pool.
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

/// Orients every edge along the degeneracy order (out-degree ≈ degeneracy),
/// the low out-degree orientation a β-partition provides.
fn degeneracy_orientation(graph: &CsrGraph) -> Orientation {
    let decomposition = sparse_graph::degeneracy_ordering(graph);
    let mut position = vec![0usize; graph.num_nodes()];
    for (i, &v) in decomposition.ordering.iter().enumerate() {
        position[v] = i;
    }
    Orientation::from_total_order(graph, |v| position[v])
}

/// The size of the largest group of nodes sharing `key`.
fn largest_group<K: Ord>(keys: impl Iterator<Item = K>) -> usize {
    let mut counts = std::collections::BTreeMap::new();
    for key in keys {
        *counts.entry(key).or_insert(0usize) += 1;
    }
    counts.into_values().max().unwrap_or(0)
}

/// Every kept round primitive on inputs past its inline threshold (4,096
/// items for a map or color-class sweep, 16,384 for the reduce and the
/// index collect), so each one runs on the worker pool at threads
/// {2, 4, 7} and must reproduce its threads = 1 result:
///
/// * Kuhn–Wattenhofer on a 20k-node forest union collects color classes
///   over all nodes, compacts all colors, and sweeps classes of more than
///   4,096 members (a 4-ish-color greedy coloring shifted above the
///   target palette, so whole greedy classes are eliminated at once).
/// * Recoloring on the same graph reduces over all nodes and maps waves of
///   more than 4,096 members. Its initial coloring is a greedy coloring of
///   each layer on its own: proper inside every layer, with cross-layer
///   conflicts for the waves to repair.
/// * Arb-Linial and the derandomized coloring on a 20k-node power-law
///   graph, Arb-Linial with a degeneracy orientation so its rounds do node
///   work.
#[test]
fn primitives_past_their_inline_thresholds_agree() {
    let forest = Workload::ForestUnion { n: 20_000, k: 2 }.build(110);
    let n = forest.num_nodes();
    let delta = forest.max_degree();
    let greedy = greedy_by_degeneracy_order(&forest);
    let kw_initial = Coloring::new(greedy.colors().iter().map(|&c| c + delta + 1).collect());
    assert!(largest_group(greedy.colors().iter()) > 4_096);

    let partition = natural_partition(&forest, 2 * 2 + 2);
    let mut layered = vec![0usize; n];
    for v in 0..n {
        let used: Vec<usize> = forest
            .neighbors(v)
            .iter()
            .filter(|&&w| w < v && partition.layer(w) == partition.layer(v))
            .map(|&w| layered[w])
            .collect();
        layered[v] = (0..).find(|c| !used.contains(c)).expect("a free color");
    }
    assert!(largest_group((0..n).map(|v| (partition.layer(v), layered[v]))) > 4_096);
    let recolor_initial = Coloring::new(layered);

    let power_law = Workload::PowerLaw {
        n: 20_000,
        edges_per_node: 3,
    }
    .build(111);
    let orientation = degeneracy_orientation(&power_law);
    let params = DerandParams::with_x(2);

    let run = |threads: usize| {
        let primitives = RoundPrimitives::new(threads);
        let kw = kw_color_reduction_with_runtime(&forest, &kw_initial, delta, &primitives)
            .expect("KW succeeds");
        let recolored = recolor_layers_with_runtime(
            &forest,
            &partition,
            &recolor_initial,
            RecolorOrder::HighestAvailable,
            &primitives,
        )
        .expect("recolor succeeds");
        let linial = arb_linial_coloring_with_runtime(&power_law, &orientation, None, &primitives)
            .expect("Arb-Linial succeeds");
        let derand = derandomized_coloring_with_runtime(&power_law, &params, &primitives);
        (
            (kw.coloring, kw.palette_trajectory, kw.rounds),
            (recolored.coloring, recolored.repaired_conflicts),
            (linial.coloring, linial.palette_trajectory, linial.rounds),
            (derand.coloring, derand.uncolored_history, derand.mpc_rounds),
        )
    };
    let reference = run(1);
    assert!(reference.0 .2 > 0, "KW ran elimination rounds");
    assert!(reference.1 .1 > 0, "recolor repaired cross-layer conflicts");
    assert!(reference.2 .2 > 0, "Arb-Linial ran rounds");
    for threads in [2usize, 4, 7] {
        let parallel = run(threads);
        // `assert!`, not `assert_eq!`: a mismatch would print 20k colors.
        assert!(parallel.0 == reference.0, "KW, threads {threads}");
        assert!(parallel.1 == reference.1, "recolor, threads {threads}");
        assert!(parallel.2 == reference.2, "Arb-Linial, threads {threads}");
        assert!(parallel.3 == reference.3, "derand, threads {threads}");
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
/// context — and therefore one shared set of scratch pools and marker
/// sets — runs *different* workloads back-to-back
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

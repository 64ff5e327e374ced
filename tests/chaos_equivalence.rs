//! The chaos equivalence matrix: with a deterministic fault plan injecting
//! panics, stalls, merge failures, allocation pressure and worker aborts
//! into the AMPC round engine — and bounded retry replaying failed rounds
//! — every workload, at every thread count, still produces
//! byte-identical colorings, partition trajectories, round counts and
//! model-level metrics to the fault-free sequential reference.
//!
//! The fault plane is process-global (one plan, one set of counters), so
//! the whole matrix lives in a single `#[test]`: references are computed
//! before the plan is installed, everything after runs under fire. This
//! file is its own test binary, which keeps the global plan from leaking
//! into any other suite.

use ampc_coloring_repro::{Algorithm, RuntimeConfig, SparseColoring, Workload};
use ampc_runtime::faults::{self, FaultPlan};
use ampc_runtime::WorkerPool;
use beta_partition::{ampc_beta_partition, PartitionParams};

const WORKLOADS: [Workload; 5] = [
    Workload::ForestUnion { n: 400, k: 2 },
    Workload::PowerLaw {
        n: 400,
        edges_per_node: 3,
    },
    Workload::PlanarGrid { side: 14 },
    Workload::DeepTree { arity: 4, depth: 4 },
    Workload::HubAndSpoke {
        n: 400,
        communities: 8,
    },
];

fn runtime_matrix() -> Vec<RuntimeConfig> {
    vec![
        RuntimeConfig::Sequential,
        RuntimeConfig::parallel().with_threads(2),
        RuntimeConfig::parallel().with_threads(4),
        RuntimeConfig::parallel().with_threads(7),
    ]
}

#[test]
fn chaos_matrix_is_bit_identical_to_the_fault_free_reference() {
    // -- Phase 1: fault-free sequential references, computed before any
    // plan is installed.
    let references: Vec<_> = WORKLOADS
        .iter()
        .map(|workload| {
            let graph = workload.build(97);
            let alpha = workload.alpha_bound();
            let beta = 2 * alpha + 2;
            let partition = ampc_beta_partition(&graph, &PartitionParams::new(beta).with_x(4))
                .expect("fault-free partition succeeds");
            let outcome = SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(alpha)
                .runtime(RuntimeConfig::Sequential)
                .color(&graph)
                .expect("fault-free coloring succeeds");
            (graph, alpha, beta, partition, outcome)
        })
        .collect();

    // -- Phase 2: install an aggressive plan. Rates are tuned to fire a
    // handful of faults per 400-machine round (so most rounds are retried
    // at least once) without drowning the test in stall sleep time. The
    // retry budget is generous because faults only fire on attempt 0 —
    // every retried attempt is clean by construction.
    // merge=1/5 because merge cells are keyed per *round* (machine slot
    // u64::MAX), and each engine instance restarts its round numbering at
    // 0 after only a handful of rounds — for this seed the first firing
    // merge cell is round 1, well within every program.
    let plan = FaultPlan::parse(
        "seed=11,panic=1/211,stall=1/191,stall_ms=1,merge=1/5,alloc=1/97,abort=1/307",
    )
    .expect("plan parses");
    let restarts_before = WorkerPool::global().stats().worker_restarts;
    let counters_before = faults::counters();
    faults::install(Some(plan));
    faults::set_max_round_retries(6);

    // -- Phase 3: the matrix. Partition trajectories (per-round remaining
    // counts), colorings, color counts, round counts and model-level
    // metrics must all be byte-identical to the reference.
    for (workload, (graph, alpha, beta, partition_ref, outcome_ref)) in
        WORKLOADS.iter().zip(&references)
    {
        for runtime in runtime_matrix() {
            let label = format!("workload {workload:?}, runtime {}", runtime.label());

            let partition = ampc_beta_partition(
                graph,
                &PartitionParams::new(*beta).with_x(4).with_runtime(runtime),
            )
            .unwrap_or_else(|error| panic!("partition under faults failed ({label}): {error}"));
            assert_eq!(
                partition_ref.partition, partition.partition,
                "partition diverged under faults ({label})"
            );
            assert_eq!(partition_ref.rounds, partition.rounds, "{label}");
            assert_eq!(
                partition_ref.remaining_per_round, partition.remaining_per_round,
                "per-round trajectory diverged under faults ({label})"
            );
            assert_eq!(partition_ref.metrics, partition.metrics, "{label}");

            let outcome = SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(*alpha)
                .runtime(runtime)
                .color(graph)
                .unwrap_or_else(|error| panic!("coloring under faults failed ({label}): {error}"));
            assert_eq!(
                outcome_ref.coloring, outcome.coloring,
                "coloring diverged under faults ({label})"
            );
            assert_eq!(outcome_ref.colors_used, outcome.colors_used, "{label}");
            assert_eq!(outcome_ref.total_rounds, outcome.total_rounds, "{label}");
            assert_eq!(
                outcome_ref.metrics, outcome.metrics,
                "model-level metrics diverged under faults ({label})"
            );
            assert!(outcome.coloring.is_proper(graph), "{label}");
        }
    }

    // -- Phase 4: the round deadline. A plan of pure stalls (40 ms each,
    // roughly one cell per round) trips a 20 ms deadline on attempt 0;
    // the clean retry finishes far under it. An overrunning attempt is
    // dropped before it commits at every thread count (threads = 1
    // included), so no runtime needs a rollback path.
    faults::install(Some(
        FaultPlan::parse("seed=5,stall=1/40,stall_ms=40").expect("stall plan parses"),
    ));
    faults::set_round_deadline_ms(20);
    {
        let workload = Workload::ForestUnion { n: 40, k: 2 };
        let graph = workload.build(97);
        let alpha = workload.alpha_bound();
        let reference_outcome = {
            // Reference for this smaller instance: suspend the plan (and
            // deadline) rather than re-entering phase 1 machinery.
            faults::set_round_deadline_ms(0);
            faults::install(None);
            let outcome = SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(alpha)
                .runtime(RuntimeConfig::Sequential)
                .color(&graph)
                .expect("deadline-leg reference succeeds");
            faults::install(Some(
                FaultPlan::parse("seed=5,stall=1/40,stall_ms=40").expect("stall plan parses"),
            ));
            faults::set_round_deadline_ms(20);
            outcome
        };
        for runtime in [
            RuntimeConfig::Sequential,
            RuntimeConfig::parallel().with_threads(4),
        ] {
            let outcome = SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(alpha)
                .runtime(runtime)
                .color(&graph)
                .expect("coloring under deadline succeeds");
            assert_eq!(
                reference_outcome.coloring,
                outcome.coloring,
                "deadline retries changed the coloring ({})",
                runtime.label()
            );
            assert_eq!(reference_outcome.total_rounds, outcome.total_rounds);
            assert_eq!(reference_outcome.metrics, outcome.metrics);
        }
    }
    faults::set_round_deadline_ms(0);
    faults::install(None);
    faults::set_max_round_retries(0);

    // -- Phase 5: the chaos was real. At least one panic was injected, at
    // least one round was replayed, at least one pool worker was poisoned
    // and respawned, and the deadline actually tripped.
    let counters = faults::counters();
    let injected_panics = counters.injected_panics - counters_before.injected_panics;
    let rounds_retried = counters.rounds_retried - counters_before.rounds_retried;
    let deadline_trips = counters.deadline_trips - counters_before.deadline_trips;
    let merge_failures = counters.injected_merge_failures - counters_before.injected_merge_failures;
    let worker_restarts = WorkerPool::global().stats().worker_restarts - restarts_before;
    assert!(injected_panics > 0, "no panics injected: {counters:?}");
    assert!(rounds_retried > 0, "no rounds retried: {counters:?}");
    assert!(
        merge_failures > 0,
        "no merge failures injected: {counters:?}"
    );
    assert!(
        deadline_trips > 0,
        "the deadline never tripped: {counters:?}"
    );
    assert!(
        worker_restarts > 0,
        "no pool worker was poisoned and respawned: {counters:?}"
    );

    // One greppable line for the CI chaos leg's job summary.
    println!(
        "CHAOS_COUNTERS injected_panics={injected_panics} injected_stalls={} \
         injected_merge_failures={merge_failures} injected_allocs={} worker_poisons={} \
         rounds_retried={rounds_retried} deadline_trips={deadline_trips} \
         worker_restarts={worker_restarts}",
        counters.injected_stalls - counters_before.injected_stalls,
        counters.injected_allocs - counters_before.injected_allocs,
        counters.worker_poisons - counters_before.worker_poisons,
    );
}

//! Both degradation switches at once: hardware perf sampling forced off
//! (`AMPC_PERF=0`) AND a deterministic fault plan injecting
//! panics/stalls/merge failures with bounded retry — simultaneously. Each
//! mechanism is proven output-invisible on its own elsewhere (the
//! `perf_disabled` binary, the `chaos_equivalence` matrix); this binary
//! pins that they *compose*: a degraded, faulted run is still
//! byte-identical to the pristine reference.
//!
//! Its own test binary on purpose, twice over: the perf probe is cached
//! in a per-process `OnceLock` (the env var must be set before anything
//! touches the runtime), and the fault plan is process-global.

use ampc_coloring_repro::{Algorithm, RuntimeConfig, SparseColoring, Workload};
use ampc_runtime::faults::{self, FaultPlan};

#[test]
fn no_perf_and_faults_compose_bit_identically() {
    // Must precede every runtime touch: the probe is once-per-process.
    std::env::set_var("AMPC_PERF", "0");
    assert!(
        !ampc_runtime::perf::available(),
        "AMPC_PERF=0 must disable sampling"
    );

    let workloads = [
        Workload::ForestUnion { n: 300, k: 2 },
        Workload::HubAndSpoke {
            n: 300,
            communities: 6,
        },
        Workload::PlanarGrid { side: 12 },
    ];

    // Pristine references first: no perf, but not yet faulted.
    let references: Vec<_> = workloads
        .iter()
        .map(|workload| {
            let graph = workload.build(53);
            let outcome = SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(workload.alpha_bound())
                .runtime(RuntimeConfig::Sequential)
                .color(&graph)
                .expect("reference coloring succeeds");
            (graph, outcome)
        })
        .collect();

    // Now light the second switch. Same seed rationale as the chaos
    // matrix: merge cells are per-round, so the rate must fire within the
    // few rounds each engine instance actually runs.
    let counters_before = faults::counters();
    faults::install(Some(
        FaultPlan::parse("seed=11,panic=1/173,stall=1/151,stall_ms=1,merge=1/5,alloc=1/89")
            .expect("plan parses"),
    ));
    faults::set_max_round_retries(6);

    for (workload, (graph, reference)) in workloads.iter().zip(&references) {
        for runtime in [
            RuntimeConfig::Sequential,
            RuntimeConfig::parallel().with_threads(4),
            RuntimeConfig::parallel().with_threads(3),
        ] {
            let outcome = SparseColoring::new()
                .algorithm(Algorithm::TwoAlphaPlusOne)
                .alpha(workload.alpha_bound())
                .runtime(runtime)
                .color(graph)
                .unwrap_or_else(|error| {
                    panic!(
                        "degraded run failed (workload {workload:?}, runtime {}): {error}",
                        runtime.label()
                    )
                });
            let label = format!("workload {workload:?}, runtime {}", runtime.label());
            assert_eq!(reference.coloring, outcome.coloring, "{label}");
            assert_eq!(reference.colors_used, outcome.colors_used, "{label}");
            assert_eq!(reference.total_rounds, outcome.total_rounds, "{label}");
            assert_eq!(reference.metrics, outcome.metrics, "{label}");
            // The perf degradation held throughout: no round ever sampled.
            assert!(
                outcome
                    .metrics
                    .runtime_stats()
                    .iter()
                    .all(|stats| stats.cycles == 0 && stats.instructions == 0),
                "{label}: perf counters must stay zero under AMPC_PERF=0"
            );
        }
    }
    faults::install(None);
    faults::set_max_round_retries(0);

    // The faults were live while the identities above held.
    let counters = faults::counters();
    assert!(
        counters.injected_panics > counters_before.injected_panics,
        "no panics injected: {counters:?}"
    );
    assert!(
        counters.rounds_retried > counters_before.rounds_retried,
        "no rounds retried: {counters:?}"
    );
    assert!(
        counters.injected_merge_failures > counters_before.injected_merge_failures,
        "no merge failures injected: {counters:?}"
    );
}

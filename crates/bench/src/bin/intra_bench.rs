//! Intra-layer seq-vs-parallel wall-clock matrix for the LOCAL simulators
//! and the AMPC β-partition.
//!
//! The round primitives (`ampc_runtime::RoundPrimitives`) parallelize the
//! per-node loops *inside* the simulators — this bin measures what that
//! buys on single-layer-dominated 100k-node workloads, where the whole
//! graph is effectively one layer and PR 1's across-layer parallelism
//! cannot help. Every parallel run is checked bit-identical to the
//! sequential reference before its timing is reported.
//!
//! Four sections:
//!
//! * **balanced** — degeneracy-oriented forest-union / power-law graphs
//!   (near-uniform per-node cost), the PR 3 matrix, plus the derand
//!   simulator's bit-packed GF(2) kernels on the same graphs.
//! * **skewed** — power-law and hub-and-spoke graphs oriented **by node
//!   id**, which piles most of the Arb-Linial work onto a few hub nodes
//!   clustered in index space. Here every thread count runs twice: once
//!   with the PR 3 `contiguous` equal-width chunk grid and once with the
//!   cost-`weighted` grid + work-stealing deques, so the scheduler A/B is
//!   recorded directly in `BENCH_intra.json`.
//! * **relabel** — the cache-aware CSR relabeling A/B at threads = 1:
//!   each policy (`off` / `degree-sorted` / `rcm`) permutes the graph,
//!   colors it on the permuted layout, and un-permutes the result, which
//!   is verified byte-identical to the `off` reference before its timing
//!   is reported. The speedup column of a relabeled row is therefore the
//!   pure memory-layout win.
//! * **partition** — the AMPC β-partition (x = 4) on forest-union (β = 5)
//!   and power-law m = 8 (β = 23) graphs at threads 1 (sequential
//!   backend) and 2 (parallel backend), checked identical in partition and
//!   model metrics. Its `allocs_per_round` counts allocations per AMPC
//!   round of `n` machines, so the alloc gate holds every machine of a
//!   partition round to allocation-free execution.
//!
//! ```text
//! # smoke: small graphs, assert bit-identity, exit non-zero on mismatch
//! cargo run -p ampc-coloring-bench --bin intra_bench --release -- --smoke
//!
//! # matrix: 100k-node workloads, emit BENCH_intra.json
//! cargo run -p ampc-coloring-bench --bin intra_bench --release -- --json=BENCH_intra.json
//! ```
//!
//! Flags: `--n=NODES` (default 100000), `--reps=R` (default 3; best-of-R
//! wall clock per cell), `--threads=a,b,c` (default `1,2,4,8`),
//! `--relabel=a,b,c` (relabel policies for the A/B section, default
//! `off,degree-sorted,rcm`; unknown labels are rejected),
//! `--json=PATH`, `--smoke` (n=5000, reps=1), `--alloc-budget=N` (fail if
//! any cell's steady-state `allocs_per_round` exceeds `N`; also read from
//! the `AMPC_ALLOC_BUDGET` env var; requires the `alloc-count` feature),
//! `--trace` (attach one pre-allocated `TraceContext` to every cell's
//! primitives so each simulator round records a span — the buffers are
//! created before any cell runs, so the alloc gate holds with tracing on).
//!
//! Built with `--features alloc-count`, the bin installs a counting global
//! allocator and the `allocs_per_round` column carries real heap-allocation
//! counts per simulated LOCAL round — the allocation-discipline gate CI
//! enforces. Without the feature the column reads 0 and the gate refuses
//! to run (so a mis-built CI step fails loudly instead of passing vacuously).

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether the counting allocator is compiled in (the `alloc-count`
/// feature): the `allocs_per_round` column is real iff this is true.
#[cfg(feature = "alloc-count")]
const ALLOC_COUNT_ENABLED: bool = true;
#[cfg(not(feature = "alloc-count"))]
const ALLOC_COUNT_ENABLED: bool = false;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING_ALLOCATOR: ampc_runtime::alloc_count::CountingAllocator =
    ampc_runtime::alloc_count::CountingAllocator;

/// Heap allocations so far (0 when counting is not compiled in).
fn allocations_now() -> u64 {
    #[cfg(feature = "alloc-count")]
    {
        ampc_runtime::alloc_count::allocations()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        0
    }
}

use ampc_coloring_bench::args::{has_flag, parse_flag};
use ampc_coloring_bench::{Table, Workload};
use ampc_runtime::trace::TraceContext;
use ampc_runtime::RuntimeConfig;
use ampc_runtime::{perf, simd, PerfCounters, RoundPrimitives};
use arbo_coloring::{
    arb_linial_coloring_with_runtime, derandomized_coloring_relabeled,
    derandomized_coloring_with_runtime, kw_color_reduction_with_runtime, ArbLinialResult,
    DerandColoringResult, DerandParams, KwReductionResult,
};
use beta_partition::{ampc_beta_partition, AmpcPartitionResult, PartitionParams};
use sparse_graph::{relabel, Coloring, CsrGraph, Orientation, RelabelPolicy};

/// Orients every edge along the degeneracy order — the low out-degree
/// orientation a β-partition provides (out-degree ≈ degeneracy ≤ 2α − 1).
fn degeneracy_orientation(graph: &CsrGraph) -> Orientation {
    let decomposition = sparse_graph::degeneracy_ordering(graph);
    let mut position = vec![0usize; graph.num_nodes()];
    for (i, &v) in decomposition.ordering.iter().enumerate() {
        position[v] = i;
    }
    Orientation::from_total_order(graph, |v| position[v])
}

/// Best-of-`reps` wall clock of `run`, with the best rep's heap-allocation
/// delta (each rep builds a fresh primitives context, so every rep pays
/// the same cold-scratch warm-up and the deltas are comparable) and its
/// hardware-counter delta (process-wide snapshot over the main thread and
/// every registered pool worker; all-zero when perf is unavailable).
fn best_of<R>(reps: usize, mut run: impl FnMut() -> R) -> (Duration, u64, PerfCounters, R) {
    let mut best: Option<(Duration, u64, PerfCounters, R)> = None;
    for _ in 0..reps.max(1) {
        let allocs_before = allocations_now();
        let perf_before = perf::snapshot();
        let started = Instant::now();
        let result = run();
        let elapsed = started.elapsed();
        let perf_delta = perf::snapshot().saturating_delta(&perf_before);
        let allocs = allocations_now().saturating_sub(allocs_before);
        if best.as_ref().is_none_or(|(b, ..)| elapsed < *b) {
            best = Some((elapsed, allocs, perf_delta, result));
        }
    }
    best.expect("at least one rep ran")
}

struct Cell {
    workload: String,
    simulator: &'static str,
    scheduler: &'static str,
    /// Relabel policy label ("off" outside the relabel A/B section).
    relabel: &'static str,
    threads: usize,
    wall: Duration,
    identical: bool,
    intra_tasks: u64,
    /// Heap allocations per simulated LOCAL round (whole-run delta over
    /// the simulator's round count — the cold-start scratch warm-up is
    /// amortized into it). 0 when counting is not compiled in.
    allocs_per_round: u64,
    /// Hardware counters over the cell's best rep (all zero when perf
    /// sampling is unavailable — see the table's `perf_available` meta).
    perf: PerfCounters,
}

/// A primitives context for one cell: threads plus the scheduler under
/// test (`weighted` cost-aware chunking vs the PR 3 `contiguous` grid),
/// optionally recording spans into the shared trace context.
fn primitives_for(
    threads: usize,
    scheduler: &str,
    trace: &Option<Arc<TraceContext>>,
) -> RoundPrimitives {
    let primitives = RoundPrimitives::new(threads).with_trace(trace.clone());
    if scheduler == "contiguous" {
        primitives.contiguous()
    } else {
        primitives
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = has_flag(&args, "smoke");
    let n: usize = parse_flag(&args, "n").unwrap_or(if smoke { 5_000 } else { 100_000 });
    let reps: usize = parse_flag(&args, "reps").unwrap_or(if smoke { 1 } else { 3 });
    let mut threads: Vec<usize> = parse_flag::<String>(&args, "threads")
        .map(|raw| raw.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    // The sequential reference (threads = 1) anchors both the speedup
    // column and the bit-identity check, so it always runs first.
    threads.retain(|&t| t != 1);
    threads.insert(0, 1);

    // Relabel policies for the A/B section. The first listed policy is the
    // section's reference (with the default list that is `off`), so a
    // filtered list still self-checks. Unknown labels fail loudly.
    let relabel_policies: Vec<RelabelPolicy> = match parse_flag::<String>(&args, "relabel") {
        None => RelabelPolicy::ALL.to_vec(),
        Some(raw) => raw
            .split(',')
            .map(|text| match RelabelPolicy::parse(text) {
                Some(policy) => policy,
                None => {
                    eprintln!(
                        "intra_bench: FAILED — unknown relabel policy `{text}` \
                         (expected off, degree-sorted or rcm)"
                    );
                    std::process::exit(1);
                }
            })
            .collect(),
    };

    // A malformed budget must fail loudly, not silently disable the gate
    // (the same fail-loudly contract as the missing-feature refusal below):
    // fetch the raw string and reject anything that is not an integer.
    let alloc_budget: u64 = match parse_flag::<String>(&args, "alloc-budget")
        .or_else(|| std::env::var("AMPC_ALLOC_BUDGET").ok())
    {
        None => 0,
        Some(raw) => match raw.trim().parse() {
            Ok(value) => value,
            Err(_) => {
                eprintln!(
                    "intra_bench: FAILED — invalid allocation budget `{raw}` \
                     (expected a non-negative integer of allocations per round)"
                );
                std::process::exit(1);
            }
        },
    };

    // One shared, pre-allocated trace context for every cell: recording a
    // span is a clock read plus a push into a fixed-capacity buffer, so
    // the per-round allocation deltas the gate measures are unaffected.
    let trace = has_flag(&args, "trace").then(|| Arc::new(TraceContext::new()));

    let mut table = Table::new(
        "intra",
        "intra-layer seq vs parallel matrix",
        "wall clock of the LOCAL simulators (whole graph = one layer) on the round \
         primitives, per thread count, scheduler and relabel policy; `weighted` = \
         cost-weighted chunking + work-stealing deques, `contiguous` = the PR 3 \
         equal-width grid; relabel != off rows run on a cache-aware permuted graph and \
         are verified to un-permute to the relabel=off reference; parallel runs \
         verified bit-identical to threads=1; allocs_per_round = heap allocations per \
         simulated LOCAL round, or per AMPC round of n machines for the partition rows \
         (0 = built without the alloc-count feature); \
         cycles/instructions/ipc/cache_miss_pct/branch_misses come from perf_event_open \
         sampling of the best rep and read 0/'-' when the `perf_available` meta is false; \
         simd_path is the per-process GF(2) kernel dispatch tier (avx2/sse2/scalar), a \
         runner fact bench_diff treats as context, never a row key",
        &[
            "workload",
            "simulator",
            "scheduler",
            "relabel",
            "threads",
            "wall_ms",
            "speedup",
            "intra_tasks",
            "allocs_per_round",
            "cycles",
            "instructions",
            "ipc",
            "cache_miss_pct",
            "branch_misses",
            "simd_path",
            "identical",
        ],
    );
    table.push_meta(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .to_string(),
    );
    table.push_meta("perf_available", perf::available().to_string());
    table.push_meta("simd_available", simd::available().to_string());
    table.push_meta("simd_path", simd::dispatch_path().to_string());

    let mut cells: Vec<Cell> = Vec::new();
    let mut all_identical = true;

    // Section 1 — balanced: degeneracy orientations, near-uniform per-node
    // cost; the weighted scheduler's grid is near-uniform too, so a single
    // scheduler column suffices (it is the simulators' default).
    for workload in [
        Workload::ForestUnion { n, k: 2 },
        Workload::PowerLaw {
            n,
            edges_per_node: 3,
        },
    ] {
        let graph = workload.build(7);
        let orientation = degeneracy_orientation(&graph);
        let trivial = Coloring::new((0..graph.num_nodes()).collect());
        let kw_bound = graph.max_degree();
        // The KW sweep count scales with the degree bound: benching it on
        // the heavy-tailed power-law graph would time Δ ≈ hundreds of
        // rounds of pure scanning, which is not the per-layer regime the
        // paper uses it in (layers have max degree ≤ β). Forest unions
        // keep Δ small, so KW runs there only.
        let run_kw = matches!(workload, Workload::ForestUnion { .. });

        // Derand's cost is dominated by the per-edge GF(2) parity sweeps —
        // the loops the bit-packed word kernels accelerate — so it rides
        // in the balanced section on the same graphs.
        let derand_params = DerandParams::with_x(2);

        let mut linial_reference: Option<ArbLinialResult> = None;
        let mut kw_reference: Option<KwReductionResult> = None;
        let mut derand_reference: Option<DerandColoringResult> = None;
        for &t in &threads {
            // A fresh primitives context per rep keeps intra_tasks a
            // per-run count, consistent with the best-of-one-rep wall
            // clock (the counts are deterministic, so every rep agrees).
            let (wall, allocs, perf_delta, (linial, linial_tasks)) = best_of(reps, || {
                let primitives = RoundPrimitives::new(t).with_trace(trace.clone());
                let result =
                    arb_linial_coloring_with_runtime(&graph, &orientation, None, &primitives)
                        .expect("Arb-Linial succeeds");
                (result, primitives.tasks_executed())
            });
            let rounds = linial.rounds;
            let identical = match &linial_reference {
                None => {
                    linial_reference = Some(linial);
                    true
                }
                Some(reference) => {
                    reference.coloring == linial.coloring
                        && reference.palette_trajectory == linial.palette_trajectory
                }
            };
            all_identical &= identical;
            cells.push(Cell {
                workload: workload.label(),
                simulator: "arb-linial",
                scheduler: "weighted",
                relabel: "off",
                threads: t,
                wall,
                identical,
                intra_tasks: linial_tasks,
                allocs_per_round: allocs / rounds.max(1) as u64,
                perf: perf_delta,
            });

            if run_kw {
                let (wall, allocs, perf_delta, (reduced, kw_tasks)) = best_of(reps, || {
                    let primitives = RoundPrimitives::new(t).with_trace(trace.clone());
                    let result =
                        kw_color_reduction_with_runtime(&graph, &trivial, kw_bound, &primitives)
                            .expect("KW succeeds");
                    (result, primitives.tasks_executed())
                });
                let rounds = reduced.rounds;
                let identical = match &kw_reference {
                    None => {
                        kw_reference = Some(reduced);
                        true
                    }
                    Some(reference) => {
                        reference.coloring == reduced.coloring
                            && reference.palette_trajectory == reduced.palette_trajectory
                    }
                };
                all_identical &= identical;
                cells.push(Cell {
                    workload: workload.label(),
                    simulator: "kuhn-wattenhofer",
                    scheduler: "weighted",
                    relabel: "off",
                    threads: t,
                    wall,
                    identical,
                    intra_tasks: kw_tasks,
                    allocs_per_round: allocs / rounds.max(1) as u64,
                    perf: perf_delta,
                });
            }

            let (wall, allocs, perf_delta, (derand, derand_tasks)) = best_of(reps, || {
                let primitives = RoundPrimitives::new(t).with_trace(trace.clone());
                let result =
                    derandomized_coloring_with_runtime(&graph, &derand_params, &primitives);
                (result, primitives.tasks_executed())
            });
            let rounds = derand.mpc_rounds;
            let identical = match &derand_reference {
                None => {
                    derand_reference = Some(derand);
                    true
                }
                Some(reference) => {
                    reference.coloring == derand.coloring
                        && reference.uncolored_history == derand.uncolored_history
                        && reference.mpc_rounds == derand.mpc_rounds
                }
            };
            all_identical &= identical;
            cells.push(Cell {
                workload: workload.label(),
                simulator: "derand",
                scheduler: "weighted",
                relabel: "off",
                threads: t,
                wall,
                identical,
                intra_tasks: derand_tasks,
                allocs_per_round: allocs / rounds.max(1) as u64,
                perf: perf_delta,
            });
        }
    }

    // Section 2 — skewed: the graphs oriented **by node id**, so hubs keep
    // their full degree as out-degree. On the preferential-attachment graph
    // the hubs are the low ids — clustered at the front of the index space,
    // exactly the shape that starves contiguous equal-width chunks. Every
    // parallel thread count runs under both schedulers.
    for workload in [
        Workload::PowerLaw {
            n,
            edges_per_node: 3,
        },
        Workload::HubAndSpoke {
            n,
            communities: (n / 500).max(2),
        },
    ] {
        let graph = workload.build(11);
        let orientation = Orientation::from_total_order(&graph, |v| v);
        let label = format!("{}+by-id", workload.label());

        let mut reference: Option<ArbLinialResult> = None;
        for &t in &threads {
            let schedulers: &[&'static str] = if t == 1 {
                // Inline execution: the scheduler never engages.
                &["weighted"]
            } else {
                &["contiguous", "weighted"]
            };
            for &scheduler in schedulers {
                let (wall, allocs, perf_delta, (linial, tasks)) = best_of(reps, || {
                    let primitives = primitives_for(t, scheduler, &trace);
                    let result =
                        arb_linial_coloring_with_runtime(&graph, &orientation, None, &primitives)
                            .expect("Arb-Linial succeeds");
                    (result, primitives.tasks_executed())
                });
                let rounds = linial.rounds;
                let identical = match &reference {
                    None => {
                        reference = Some(linial);
                        true
                    }
                    Some(reference) => {
                        reference.coloring == linial.coloring
                            && reference.palette_trajectory == linial.palette_trajectory
                    }
                };
                all_identical &= identical;
                cells.push(Cell {
                    workload: label.clone(),
                    simulator: "arb-linial",
                    scheduler,
                    relabel: "off",
                    threads: t,
                    wall,
                    identical,
                    intra_tasks: tasks,
                    allocs_per_round: allocs / rounds.max(1) as u64,
                    perf: perf_delta,
                });
            }
        }
    }

    // Section 3 — relabel A/B at threads = 1: each policy permutes the
    // graph, the simulator runs on the permuted layout, and the result is
    // un-permuted and compared byte-for-byte against the section's
    // reference (the first listed policy — `off` by default). Arb-Linial
    // takes the ORIGINAL by-id orientation and initial coloring pushed
    // through the permutation (recomputing either on the relabeled graph
    // would change tie-breaks); derand's GF(2) queries encode node ids, so
    // its relabeled entry point encodes the original ids back. Relabel
    // time itself is excluded — the rows measure coloring on the layout.
    for workload in [
        Workload::PowerLaw {
            n,
            edges_per_node: 3,
        },
        Workload::HubAndSpoke {
            n,
            communities: (n / 500).max(2),
        },
    ] {
        let graph = workload.build(11);
        let orientation = Orientation::from_total_order(&graph, |v| v);
        let initial = Coloring::new((0..graph.num_nodes()).collect());
        let derand_params = DerandParams::with_x(2);
        let label = format!("{}+relabel", workload.label());

        let mut linial_reference: Option<(Coloring, Vec<usize>)> = None;
        let mut derand_reference: Option<(Coloring, Vec<usize>, usize)> = None;
        for &policy in &relabel_policies {
            let (relabeled, permutation) = relabel(&graph, policy);
            let pushed_orientation = permutation.permute_orientation(&orientation);
            let pushed_initial = Coloring::new(permutation.permute_colors(initial.colors()));

            let (wall, allocs, perf_delta, (linial, linial_tasks)) = best_of(reps, || {
                let primitives = RoundPrimitives::new(1).with_trace(trace.clone());
                let result = arb_linial_coloring_with_runtime(
                    &relabeled,
                    &pushed_orientation,
                    Some(&pushed_initial),
                    &primitives,
                )
                .expect("Arb-Linial succeeds");
                (result, primitives.tasks_executed())
            });
            let rounds = linial.rounds;
            let unpermuted = permutation.unpermute_coloring(&linial.coloring);
            let identical = match &linial_reference {
                None => {
                    linial_reference = Some((unpermuted, linial.palette_trajectory));
                    true
                }
                Some((coloring, trajectory)) => {
                    *coloring == unpermuted && *trajectory == linial.palette_trajectory
                }
            };
            all_identical &= identical;
            cells.push(Cell {
                workload: label.clone(),
                simulator: "arb-linial",
                scheduler: "weighted",
                relabel: policy.label(),
                threads: 1,
                wall,
                identical,
                intra_tasks: linial_tasks,
                allocs_per_round: allocs / rounds.max(1) as u64,
                perf: perf_delta,
            });

            let (wall, allocs, perf_delta, (derand, derand_tasks)) = best_of(reps, || {
                let primitives = RoundPrimitives::new(1).with_trace(trace.clone());
                let result = derandomized_coloring_relabeled(
                    &relabeled,
                    &derand_params,
                    &permutation,
                    &primitives,
                );
                (result, primitives.tasks_executed())
            });
            let rounds = derand.mpc_rounds;
            let unpermuted = permutation.unpermute_coloring(&derand.coloring);
            let identical = match &derand_reference {
                None => {
                    derand_reference =
                        Some((unpermuted, derand.uncolored_history, derand.mpc_rounds));
                    true
                }
                Some((coloring, history, mpc_rounds)) => {
                    *coloring == unpermuted
                        && *history == derand.uncolored_history
                        && *mpc_rounds == derand.mpc_rounds
                }
            };
            all_identical &= identical;
            cells.push(Cell {
                workload: label.clone(),
                simulator: "derand",
                scheduler: "weighted",
                relabel: policy.label(),
                threads: 1,
                wall,
                identical,
                intra_tasks: derand_tasks,
                allocs_per_round: allocs / rounds.max(1) as u64,
                perf: perf_delta,
            });
        }
    }

    // Section 4 — partition: the AMPC β-partition of Theorem 1.2 (x = 4),
    // the phase that dominates a coloring job. threads = 1 is the
    // sequential backend the service runs by default, threads = 2 the
    // sharded parallel backend; both must produce the identical partition
    // and model metrics. A round here is one AMPC round of `n` machines,
    // so `allocs_per_round` gates per-machine allocation in the coin game,
    // the machine contexts and the round merge.
    for (workload, beta) in [
        (Workload::ForestUnion { n, k: 2 }, 5usize),
        (
            Workload::PowerLaw {
                n,
                edges_per_node: 8,
            },
            23,
        ),
    ] {
        let graph = workload.build(7);
        let mut reference: Option<AmpcPartitionResult> = None;
        for &t in threads.iter().filter(|&&t| t <= 2) {
            let runtime = if t == 1 {
                RuntimeConfig::Sequential
            } else {
                RuntimeConfig::parallel().with_threads(t)
            };
            let params = PartitionParams::new(beta).with_x(4).with_runtime(runtime);
            let (wall, allocs, perf_delta, result) = best_of(reps, || {
                ampc_beta_partition(&graph, &params).expect("beta exceeds twice the arboricity")
            });
            let rounds = result.rounds;
            let pool_tasks: u64 = result
                .metrics
                .runtime_stats()
                .iter()
                .flat_map(|stats| stats.pool_tasks_per_worker.iter())
                .sum();
            let identical = match &reference {
                None => {
                    reference = Some(result);
                    true
                }
                Some(reference) => {
                    reference.partition == result.partition && reference.metrics == result.metrics
                }
            };
            all_identical &= identical;
            cells.push(Cell {
                workload: format!("{}+beta={beta}", workload.label()),
                simulator: "partition",
                scheduler: "-",
                relabel: "off",
                threads: t,
                wall,
                identical,
                intra_tasks: pool_tasks,
                allocs_per_round: allocs / rounds.max(1) as u64,
                perf: perf_delta,
            });
        }
    }

    // Speedups are relative to the threads=1 relabel=off run of the same
    // (workload, simulator) — the same baseline for both schedulers and
    // every relabel policy, so each A/B is a straight wall_ms (or speedup)
    // comparison between rows.
    let baseline = |workload: &str, simulator: &str| -> Duration {
        cells
            .iter()
            .find(|cell| {
                cell.workload == workload
                    && cell.simulator == simulator
                    && cell.relabel == "off"
                    && cell.threads == 1
            })
            .map_or(Duration::ZERO, |cell| cell.wall)
    };
    for cell in &cells {
        let sequential = baseline(&cell.workload, cell.simulator);
        let speedup = if cell.wall.as_nanos() > 0 {
            sequential.as_secs_f64() / cell.wall.as_secs_f64()
        } else {
            0.0
        };
        table.push_row(vec![
            cell.workload.clone(),
            cell.simulator.to_string(),
            cell.scheduler.to_string(),
            cell.relabel.to_string(),
            cell.threads.to_string(),
            format!("{:.3}", cell.wall.as_secs_f64() * 1e3),
            format!("{speedup:.2}"),
            cell.intra_tasks.to_string(),
            cell.allocs_per_round.to_string(),
            cell.perf.cycles.to_string(),
            cell.perf.instructions.to_string(),
            cell.perf
                .ipc()
                .map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
            cell.perf
                .cache_miss_rate()
                .map_or_else(|| "-".to_string(), |v| format!("{:.1}", v * 100.0)),
            cell.perf.branch_misses.to_string(),
            simd::dispatch_path().to_string(),
            cell.identical.to_string(),
        ]);
    }

    print!("{}", table.render());
    if let Some(path) = parse_flag::<String>(&args, "json") {
        if let Err(error) = std::fs::write(&path, table.to_json()) {
            eprintln!("intra_bench: cannot write {path}: {error}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if !all_identical {
        eprintln!("intra_bench: FAILED — a parallel or relabeled run diverged from its reference");
        std::process::exit(1);
    }
    if alloc_budget > 0 {
        // The allocation-discipline gate: steady-state rounds must stay
        // under the budget. Refuses to run on a build without real
        // counters, so a mis-built CI step cannot pass vacuously.
        if !ALLOC_COUNT_ENABLED {
            eprintln!(
                "intra_bench: FAILED — --alloc-budget={alloc_budget} requires a build with \
                 `--features alloc-count` (the allocation counters are stubbed to 0)"
            );
            std::process::exit(1);
        }
        let mut over_budget = false;
        for cell in &cells {
            if cell.allocs_per_round > alloc_budget {
                over_budget = true;
                eprintln!(
                    "intra_bench: allocation budget exceeded — {} / {} / {} threads={} \
                     allocated {} per round (budget {alloc_budget})",
                    cell.workload,
                    cell.simulator,
                    cell.scheduler,
                    cell.threads,
                    cell.allocs_per_round
                );
            }
        }
        if over_budget {
            std::process::exit(1);
        }
        println!("alloc gate ok: every cell within {alloc_budget} heap allocations per round");
    }
    if let Some(trace) = &trace {
        println!(
            "trace: {} spans recorded, {} dropped at capacity",
            trace.recorded(),
            trace.dropped()
        );
    }
    if smoke {
        // When hardware counters are live, sanity-check them instead of
        // trusting the plumbing: a simulator run must retire instructions,
        // and IPC below 1/8 on any real CPU means the deltas are garbage
        // (wrong scaling, crossed fds). Skipped — not failed — when perf
        // is unavailable, which the `perf_available` meta reports honestly.
        if perf::available() {
            let mut consistent = true;
            for cell in &cells {
                if cell.perf.instructions == 0 || cell.perf.cycles < cell.perf.instructions / 8 {
                    consistent = false;
                    eprintln!(
                        "intra_bench: implausible perf counters — {} / {} / {} threads={} \
                         cycles={} instructions={}",
                        cell.workload,
                        cell.simulator,
                        cell.scheduler,
                        cell.threads,
                        cell.perf.cycles,
                        cell.perf.instructions
                    );
                }
            }
            if !consistent {
                eprintln!("intra_bench: FAILED — perf counter self-consistency check");
                std::process::exit(1);
            }
            println!("smoke ok: perf counters self-consistent on every cell");
        } else {
            println!("smoke note: perf counters unavailable (perf_available=false), check skipped");
        }
        println!("smoke ok: parallel runs bit-identical to sequential, relabeled runs to off");
    }
}

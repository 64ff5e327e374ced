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
//! Two sections:
//!
//! * **simulators** — degeneracy-oriented forest-union / power-law graphs,
//!   the seq-vs-parallel matrix of Arb-Linial, Kuhn–Wattenhofer (forest
//!   union only) and the derandomized coloring.
//! * **partition** — the AMPC β-partition (x = 4) on forest-union (β = 5)
//!   and power-law m = 8 (β = 23) graphs on the round engine at threads 1
//!   and 2, checked identical in partition and model metrics. Its
//!   `allocs_per_round` counts allocations per AMPC round of `n` machines,
//!   so the alloc gate holds every machine of a partition round to
//!   allocation-free execution. Right before it, a fixed pure-ALU loop is
//!   timed on one thread and on two; the throughput ratio is the
//!   `two_thread_calibration` meta, the evidence that the host really
//!   gave this process two cores while the threads = 2 rows ran.
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
//! `--json=PATH`, `--smoke` (n=5000, reps=1), `--alloc-budget=N` (fail if
//! any cell's steady-state `allocs_per_round` exceeds `N`; also read from
//! the `AMPC_ALLOC_BUDGET` env var; requires the `alloc-count` feature),
//! `--trace` (attach one pre-allocated `TraceContext` to every cell's
//! primitives so each simulator round records a span — the buffers are
//! created before any cell runs, so the alloc gate holds with tracing on).
//! `--help` prints the usage and exits 0; any other argument, and an
//! `--n`, `--reps` or `--threads` value that is not a positive integer
//! (a comma-separated list of them for `--threads`), prints it and exits 2
//! before anything runs.
//!
//! Built with `--features alloc-count`, the bin installs a counting global
//! allocator and the `allocs_per_round` column carries real heap-allocation
//! counts per simulated LOCAL round — the allocation-discipline gate CI
//! enforces. Without the feature the column reads 0 and the gate refuses
//! to run (so a mis-built CI step fails loudly instead of passing vacuously).

use std::hint::black_box;
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

use ampc_coloring_bench::args::{has_flag, malformed_argument, parse_flag, unknown_argument};
use ampc_coloring_bench::{Table, Workload};
use ampc_runtime::trace::TraceContext;
use ampc_runtime::RuntimeConfig;
use ampc_runtime::{perf, PerfCounters, RoundPrimitives};
use arbo_coloring::{
    arb_linial_coloring_with_runtime, derandomized_coloring_with_runtime,
    kw_color_reduction_with_runtime, ArbLinialResult, DerandColoringResult, DerandParams,
    KwReductionResult,
};
use beta_partition::{ampc_beta_partition, AmpcPartitionResult, PartitionParams};
use sparse_graph::{Coloring, CsrGraph, Orientation};

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

/// Iterations of the calibration loop (about 30 ms on one core).
const CALIBRATION_ITERATIONS: u64 = 20_000_000;

/// Throughput of two threads over one thread on a fixed pure-ALU loop,
/// best of three timings each: about 2.0 when two cores are free for this
/// process, about 1.0 when its threads share one.
fn two_thread_calibration() -> f64 {
    fn spin() -> u64 {
        let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
        for i in 0..CALIBRATION_ITERATIONS {
            x = x.rotate_left(7) ^ x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i);
        }
        black_box(x)
    }
    let best = |run: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let started = Instant::now();
                run();
                started.elapsed()
            })
            .min()
            .expect("three timings")
    };
    let one = best(&|| {
        spin();
    });
    let two = best(&|| {
        std::thread::scope(|scope| {
            let other = scope.spawn(spin);
            spin();
            other.join().expect("the calibration thread finished");
        });
    });
    2.0 * one.as_secs_f64() / two.as_secs_f64()
}

struct Cell {
    workload: String,
    simulator: &'static str,
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

/// The accepted flags, printed for `--help` and on an unknown argument.
const USAGE: &str = "usage: intra_bench [--smoke] [--trace] [--n=NODES] [--reps=R] \
                     [--threads=a,b,c] [--alloc-budget=N] [--json=PATH]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Checked before anything runs: a misspelt gate flag must not run the
    // matrix ungated and exit 0, and a malformed size must not run the
    // defaults (or a clamped thread count under the label it asked for).
    if has_flag(&args, "help") {
        println!("{USAGE}");
        return;
    }
    if let Some(unknown) = unknown_argument(
        &args,
        &["smoke", "trace"],
        &["n", "reps", "threads", "alloc-budget", "json"],
    ) {
        eprintln!("intra_bench: unknown argument `{unknown}`\n{USAGE}");
        std::process::exit(2);
    }
    if let Some(malformed) = malformed_argument(&args, &["n", "reps"], &["threads"]) {
        eprintln!("intra_bench: malformed argument `{malformed}`\n{USAGE}");
        std::process::exit(2);
    }
    let smoke = has_flag(&args, "smoke");
    let n: usize = parse_flag(&args, "n").unwrap_or(if smoke { 5_000 } else { 100_000 });
    let reps: usize = parse_flag(&args, "reps").unwrap_or(if smoke { 1 } else { 3 });
    let mut threads: Vec<usize> = parse_flag::<String>(&args, "threads")
        .map(|raw| {
            raw.split(',')
                .map(|t| t.parse().expect("checked above"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    // The sequential reference (threads = 1) anchors both the speedup
    // column and the bit-identity check, so it always runs first.
    threads.retain(|&t| t != 1);
    threads.insert(0, 1);

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
         primitives and of the AMPC beta-partition, per thread count; parallel runs \
         verified bit-identical to threads=1; allocs_per_round = heap allocations per \
         simulated LOCAL round, or per AMPC round of n machines for the partition rows \
         (0 = built without the alloc-count feature); two_thread_calibration = two-thread \
         over one-thread throughput of a pure-ALU loop timed right before the partition \
         rows: a partition row measured while the calibration reads under 1.8x is not \
         scaling evidence; \
         cycles/instructions/ipc/cache_miss_pct/branch_misses come from perf_event_open \
         sampling of the best rep and read 0/'-' when the `perf_available` meta is false",
        &[
            "workload",
            "simulator",
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

    let mut cells: Vec<Cell> = Vec::new();
    let mut all_identical = true;

    // Section 1 — simulators: degeneracy orientations, the low out-degree
    // orientations a β-partition provides.
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

        // Derand's cost is dominated by the seed search's per-edge
        // counting passes over one-word GF(2) queries.
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
                threads: t,
                wall,
                identical,
                intra_tasks: derand_tasks,
                allocs_per_round: allocs / rounds.max(1) as u64,
                perf: perf_delta,
            });
        }
    }

    // Section 2 — partition: the AMPC β-partition of Theorem 1.2 (x = 4),
    // the phase that dominates a coloring job. threads = 1 runs every
    // round of the round engine inline (the service's default sequential
    // runtime), threads = 2 splits each round over the worker pool; both
    // must produce the identical partition and model metrics. A round here
    // is one AMPC round of `n` machines, so `allocs_per_round` gates
    // per-machine allocation in the coin game, the machine contexts and
    // the round merge. The calibration right before it says whether the
    // host gave the threads = 2 rows two cores.
    table.push_meta(
        "two_thread_calibration",
        format!("{:.2}", two_thread_calibration()),
    );
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
                threads: t,
                wall,
                identical,
                intra_tasks: pool_tasks,
                allocs_per_round: allocs / rounds.max(1) as u64,
                perf: perf_delta,
            });
        }
    }

    // Speedups are relative to the threads=1 run of the same
    // (workload, simulator).
    let baseline = |workload: &str, simulator: &str| -> Duration {
        cells
            .iter()
            .find(|cell| {
                cell.workload == workload && cell.simulator == simulator && cell.threads == 1
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
        eprintln!("intra_bench: FAILED — a parallel run diverged from its threads=1 reference");
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
                    "intra_bench: allocation budget exceeded — {} / {} threads={} \
                     allocated {} per round (budget {alloc_budget})",
                    cell.workload, cell.simulator, cell.threads, cell.allocs_per_round
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
                        "intra_bench: implausible perf counters — {} / {} threads={} \
                         cycles={} instructions={}",
                        cell.workload,
                        cell.simulator,
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
        println!("smoke ok: parallel runs bit-identical to sequential");
    }
}

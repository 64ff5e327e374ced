//! # ampc-runtime
//!
//! Multi-threaded execution subsystem for AMPC rounds and the LOCAL/MPC
//! simulators.
//!
//! The `ampc-model` crate defines *what* an AMPC round is (machines with
//! `O(S)` read/write budgets communicating through distributed data stores)
//! and ships a sequential reference simulator. This crate runs the rounds
//! the algorithms actually need on many threads:
//!
//! * [`RoundEngine`] — the round engine of the β-partition. Its store is a
//!   dense `u32` layer array indexed by node; machines run in consecutive
//!   id ranges across a thread pool, with the per-machine read/write
//!   budgets of the sequential executor, and every buffered
//!   `node → layer` write is min-merged into the next round's array with
//!   one `fetch_min` right after its machine's body. Every round runs
//!   under one supervisor (fault injection, deadline and bounded retry,
//!   see [`faults`]), at every thread count.
//! * [`RuntimeConfig`] — the thread-count switch every algorithm in the
//!   workspace accepts; results never depend on it.
//! * [`WorkerPool`] — a **persistent** worker pool: threads are spawned once
//!   per pool (the process-wide [`WorkerPool::global`] pool by default) and
//!   reused across rounds, engines and jobs, instead of scoped-spawning
//!   per round. The serving subsystem (`ampc-service`) shares the same
//!   pool across its job queue. Tasks run on per-worker **work-stealing
//!   deques** (LIFO local pop, FIFO steal), so skewed batches — the
//!   cost-weighted chunks of a hub-heavy graph — keep every worker busy.
//! * [`RoundPrimitives`] — the four deterministic data-parallel **round
//!   primitives** the LOCAL/MPC simulators' per-node loops run on: a map
//!   with index-ordered output, an independent-set recoloring sweep with
//!   snapshot semantics, a reduce whose result may not depend on where the
//!   range is split, and an ascending index collect — bit-identical for
//!   any thread count. The map, sweep and reduce take a per-item cost
//!   (the CSR degree, or 0) and cut the index range into cost-balanced
//!   chunks, so skewed ranges split into many small stealable tasks.
//!   [`parallel_map_weighted`] is the same map over a slice of coarse
//!   items (whole layers) whose function may fail.
//! * [`BitSet`] / [`ScratchPool`] — the allocation-discipline vocabulary:
//!   word-packed color sets with word-scan free-color queries and
//!   thread-indexed reusable-buffer leasing
//!   ([`RoundPrimitives::scratch_pool`], leased once per chunk through the
//!   per-chunk factories of [`RoundEngine::round`] and
//!   [`RoundPrimitives::par_node_map_weighted_into`]), plus primitives
//!   writing into caller-owned reused buffers — the simulators' hot loops
//!   allocate nothing in steady state, with reuse counters surfaced as
//!   [`ampc_model::RoundRuntimeStats::scratch_reuses`] /
//!   [`ampc_model::RoundRuntimeStats::scratch_allocs`].
//! * Extended metrics — wall-clock per round, conflict-merge counts and
//!   pool-reuse deltas (tasks per worker, idle time), surfaced through
//!   [`ampc_model::AmpcMetrics::runtime_stats`].
//! * [`TraceContext`] / [`LatencyHistogram`] — the observability layer
//!   (see [`trace`]): a never-blocking, pre-allocated span recorder
//!   carried by [`RoundPrimitives`] and the round engine (per-round,
//!   per-layer and per-phase spans, exportable as Chrome trace-event JSON) plus
//!   log-bucketed latency histograms for the serving subsystem.
//!
//! ## Determinism contract
//!
//! For a fixed input, a [`RoundEngine`] produces **bit-identical** layer
//! stores, round reports and errors for any thread count, equal to those
//! of [`ampc_model::AmpcExecutor`] under [`ConflictPolicy::KeepMin`]:
//!
//! * machine bodies only see the previous round's store, so execution order
//!   within a round cannot leak through reads;
//! * the merge keeps the minimum layer per node, and min is commutative and
//!   associative, so the order in which concurrent writes land cannot leak
//!   through the store either;
//! * a failing round reports the error of its lowest failing machine — each
//!   chunk stops at its first failure and the lowest of those wins — and
//!   commits nothing.
//!
//! ```
//! use ampc_model::{AmpcConfig, Key, Value};
//! use ampc_runtime::RuntimeConfig;
//!
//! let config = AmpcConfig::for_input_size(64, 0.5);
//!
//! // Same round, both runtimes: machine m proposes layer m % 3 for itself
//! // and its successor; each node keeps the smaller proposal.
//! let mut results = Vec::new();
//! for runtime in [RuntimeConfig::Sequential, RuntimeConfig::parallel().with_threads(4)] {
//!     let mut engine = runtime.engine(config);
//!     engine
//!         .round(64, || |machine, ctx| {
//!             let layer = Value::single(machine as u64 % 3);
//!             ctx.write(Key::single(machine as u64), layer)?;
//!             ctx.write(Key::single((machine as u64 + 1) % 64), layer)
//!         })
//!         .unwrap();
//!     results.push((0..64).map(|node| engine.layer(node)).collect::<Vec<_>>());
//! }
//! assert_eq!(results[0], results[1]);
//! assert_eq!(results[0][5], Some(1)); // min(5 % 3, 4 % 3)
//! ```

// `deny` rather than `forbid`: the worker pool's scoped-batch execution
// needs one audited lifetime erasure (see `pool.rs`), the hardware
// counter sampler needs a small FFI shim over `perf_event_open(2)` (see
// `perf.rs`), and the prefetch hint needs a `core::arch` intrinsic (see
// `simd.rs`); each opts in with a module-level `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
mod config;
mod engine;
pub mod faults;
pub mod perf;
mod pool;
mod rounds;
mod scratch;
pub mod simd;
pub mod trace;

pub use ampc_model::{ConflictPolicy, RoundRuntimeStats};
pub use config::RuntimeConfig;
pub use engine::RoundEngine;
pub use perf::{PerfCounters, PerfSink};
pub use pool::{parallel_map_weighted, PoolStats, ScopedTask, WorkerPool};
pub use rounds::RoundPrimitives;
pub use scratch::{scratch_totals, BitSet, ScratchCounters, ScratchLease, ScratchPool};
pub use trace::{
    chrome_trace_json, span_on, LatencyHistogram, SpanGuard, TraceContext, TraceEvent,
    TraceTimeline,
};

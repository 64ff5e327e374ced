//! # ampc-runtime
//!
//! Sharded, multi-threaded execution subsystem for AMPC rounds.
//!
//! The `ampc-model` crate defines *what* an AMPC round is (machines with
//! `O(S)` read/write budgets communicating through distributed data stores)
//! and ships a sequential reference simulator. This crate makes the model's
//! defining feature — **many machines running in parallel against a
//! distributed store** — real:
//!
//! * [`ShardedStore`] — the DDS hash-partitioned into `N` shards with
//!   lock-free concurrent reads (shared immutably during a round, with
//!   per-shard atomic read counters) and per-shard write buffers merged by
//!   the existing [`ConflictPolicy`] rules.
//! * [`ParallelBackend`] — a round scheduler that fans machine closures out
//!   across a thread pool (contiguous machine ranges per worker), preserving
//!   the per-machine read/write budget enforcement of the sequential
//!   executor.
//! * [`AmpcBackend`] — the executor abstraction all backends implement, so
//!   every algorithm in the workspace runs on any of them through a
//!   [`RuntimeConfig`] switch.
//! * [`ProcessBackend`] — the multi-process round scheduler (stage 1 of
//!   distributed execution): shard merges run in supervised
//!   `ampc-shard-worker` **child OS processes** speaking a length-prefixed
//!   binary protocol over pipes; a killed worker is respawned and the
//!   round replayed from retained input, bit-identically.
//! * [`WorkerPool`] — a **persistent** worker pool: threads are spawned once
//!   per pool (the process-wide [`WorkerPool::global`] pool by default) and
//!   reused across rounds, backends and jobs, instead of scoped-spawning
//!   per round. The serving subsystem (`ampc-service`) shares the same
//!   pool across its job queue. Tasks run on per-worker **work-stealing
//!   deques** (LIFO local pop, FIFO steal), so skewed batches — the
//!   cost-weighted chunks of a hub-heavy graph — keep every worker busy.
//! * [`RoundPrimitives`] — deterministic data-parallel **round primitives**
//!   (`par_node_map`, `par_color_classes`, `par_reduce`) that the LOCAL/MPC
//!   simulators' per-node loops run on: chunked maps with index-ordered
//!   merge, independent-set recoloring sweeps with snapshot semantics, and
//!   reductions over a thread-count-independent chunk grid — bit-identical
//!   for any thread count. The `*_weighted` forms add **cost-weighted
//!   chunking** (per-item cost = CSR degree) whose chunk boundaries derive
//!   only from the prefix sum of the costs, splitting skewed index ranges
//!   into many small stealable tasks without touching the bit-identity
//!   contract.
//! * [`MarkerSet`] / [`ScratchPool`] — the allocation-discipline vocabulary:
//!   epoch-stamped membership sets with O(1) clear and thread-indexed,
//!   generation-checked reusable-buffer leasing
//!   ([`RoundPrimitives::scratch_pool`]), plus `*_into` primitive variants
//!   writing into caller-owned reused buffers — the simulators' hot loops
//!   allocate nothing in steady state, with reuse counters surfaced as
//!   [`ampc_model::RoundRuntimeStats::scratch_reuses`] /
//!   [`ampc_model::RoundRuntimeStats::scratch_allocs`].
//! * Extended metrics — wall-clock per round, per-shard read/write counts,
//!   conflict-merge counts and pool-reuse deltas (tasks per worker, idle
//!   time), surfaced through [`ampc_model::AmpcMetrics::runtime_stats`].
//! * [`TraceContext`] / [`LatencyHistogram`] — the observability layer
//!   (see [`trace`]): a never-blocking, pre-allocated span recorder
//!   carried by [`RoundPrimitives`] and the backends (per-round, per-layer
//!   and per-phase spans, exportable as Chrome trace-event JSON) plus
//!   log-bucketed latency histograms for the serving subsystem.
//!
//! ## Determinism contract
//!
//! For a fixed seed and [`ConflictPolicy`], the parallel backend produces
//! **bit-identical** final stores (and therefore colorings) to the
//! sequential backend, for any thread and shard count:
//!
//! * machine bodies only see the previous round's store, so execution order
//!   within a round cannot leak;
//! * writes are buffered per machine and merged in `(machine id, write
//!   index)` order, exactly the order the sequential executor applies them
//!   in — [`ConflictPolicy::KeepFirst`] and error reporting stay
//!   deterministic;
//! * errors follow the sequential executor's event order (machine `m`'s
//!   body runs, then its writes merge, then machine `m + 1` starts): the
//!   lowest failing machine's body error is returned unless a write
//!   conflict among strictly earlier machines precedes it.
//!
//! ```
//! use ampc_model::{AmpcConfig, ConflictPolicy, DataStore, Key, Value};
//! use ampc_runtime::RuntimeConfig;
//!
//! let mut input = DataStore::new();
//! for i in 0..64u64 {
//!     input.insert(Key::single(i), Value::single(i));
//! }
//! let config = AmpcConfig::for_input_size(64, 0.5);
//!
//! // Same program, both backends.
//! let mut results = Vec::new();
//! for runtime in [RuntimeConfig::Sequential, RuntimeConfig::parallel().with_threads(4)] {
//!     let mut backend = runtime.backend(config, input.clone());
//!     backend
//!         .round(64, ConflictPolicy::Error, |machine, ctx| {
//!             let key = Key::single(machine as u64);
//!             if let Some(value) = ctx.read(key)? {
//!                 ctx.write(key, Value::single(value.words()[0] * 2))?;
//!             }
//!             Ok(())
//!         })
//!         .unwrap();
//!     results.push(backend.snapshot_store());
//! }
//! assert_eq!(results[0], results[1]);
//! assert_eq!(results[0].get(Key::single(21)), Some(Value::single(42)));
//! ```

// `deny` rather than `forbid`: the worker pool's scoped-batch execution
// needs one audited lifetime erasure (see `pool.rs`), the hardware
// counter sampler needs a small FFI shim over `perf_event_open(2)` (see
// `perf.rs`), and the SIMD kernels need `core::arch` intrinsics (see
// `simd.rs`); each opts in with a module-level `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
mod backend;
mod config;
pub mod faults;
mod ipc;
mod parallel;
pub mod perf;
mod pool;
mod process_backend;
mod rounds;
mod scratch;
mod shard;
pub mod simd;
pub mod trace;

pub use ampc_model::{ConflictPolicy, RoundRuntimeStats};
pub use backend::{AmpcBackend, RoundBody, SequentialBackend};
pub use config::RuntimeConfig;
pub use ipc::shard_worker_main;
pub use parallel::ParallelBackend;
pub use perf::{PerfCounters, PerfSink};
pub use pool::{parallel_map, parallel_map_weighted, PoolStats, ScopedTask, WorkerPool};
pub use process_backend::ProcessBackend;
pub use rounds::RoundPrimitives;
pub use scratch::{
    scratch_totals, BitSet, EpochMap, MarkerSet, ScratchCounters, ScratchLease, ScratchPool,
};
pub use shard::ShardedStore;
pub use trace::{
    chrome_trace_json, span_on, LatencyHistogram, SpanGuard, TraceContext, TraceEvent,
    TraceTimeline,
};

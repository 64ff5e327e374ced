//! # ampc-service
//!
//! The serving subsystem over [`ampc_coloring::SparseColoring`]: a
//! dependency-free HTTP/1.1 front-end (hand-rolled over
//! `std::net::TcpListener`; the build environment has no crate registry)
//! that makes the paper's AMPC sparse-coloring pipeline callable under
//! concurrent load.
//!
//! ## Endpoints
//!
//! | method & path | purpose |
//! |---|---|
//! | `POST /v1/color` | submit an edge-list body; query params select algorithm, `alpha`, `epsilon`, `delta`, `runtime`/`threads`, `policy`; `wait=1` blocks for the result; responses carry `X-Job-Id` and `X-Trace-Id` headers |
//! | `GET /v1/jobs/{id}` | job status plus the result and its `AmpcMetrics` (rendered through the workspace's no-serde table serializer) |
//! | `GET /v1/jobs/{id}/trace` | the job's span timeline as Chrome trace-event JSON (Perfetto-loadable): every AMPC round, simulator phase and round merge of the computation |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | per-endpoint counters, queue depth, job/cache counters, latency histograms, persistent-pool reuse stats, recent jobs; `?format=prometheus` switches to the Prometheus text exposition |
//!
//! ## Architecture
//!
//! ```text
//!   acceptor threads (fixed)          job workers (fixed)
//!   ──────────────────────   submit   ───────────────────
//!   read_head ─ route ─────▶ bounded ─▶ SparseColoring::color_request
//!        │                   queue          │
//!        ▼                     ▲            ▼
//!   read_edge_list         single-flight  persistent WorkerPool
//!   (streamed from the     ResultCache    (ampc_runtime, shared
//!    socket body)          (graph+config   process-wide: zero thread
//!                           keyed)         spawns per round or job)
//! ```
//!
//! Identical `(graph, config)` submissions are served from the cache or
//! coalesced onto the in-flight computation, so the work runs **once**; all
//! AMPC rounds execute on the persistent [`ampc_runtime::WorkerPool`],
//! keeping the process's thread count constant across any job sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod jobs;
pub mod json;
pub mod server;

pub use cache::{CacheCounters, Claim, ResultCache};
pub use jobs::{
    job_key, trace_id, JobManager, JobSpec, JobStatus, JobView, ManagerCounters, ServiceConfig,
    SubmitError,
};
pub use server::{Server, ServerHandle};

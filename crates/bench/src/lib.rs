//! # ampc-coloring-bench
//!
//! Benchmark and experiment harness regenerating every experiment listed in
//! `DESIGN.md` / `EXPERIMENTS.md` (the paper is theoretical, so the
//! "experiments" are its theorem-level claims evaluated on synthetic
//! workloads).
//!
//! The [`experiments`] module produces text tables; the `experiments` binary
//! prints them, and the Criterion benches in `benches/` time the hot loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod diff;
pub mod experiments;
pub mod http_client;
pub mod table;
pub mod workloads;

pub use experiments::{all_experiments, experiment_by_id, Experiment};
pub use table::Table;
pub use workloads::Workload;

use ampc_runtime::RuntimeConfig;

/// Resolves a backend selection for the experiment harness: `kind` is an
/// explicit choice (`"parallel"` / `"sequential"`, e.g. from a CLI flag),
/// falling back to the `AMPC_RUNTIME` environment variable. In parallel
/// mode, `AMPC_THREADS` pins the worker count. Results are bit-identical
/// either way — only the wall clock changes.
pub fn resolve_runtime(kind: Option<&str>) -> RuntimeConfig {
    let env = std::env::var("AMPC_RUNTIME").ok();
    match kind.or(env.as_deref()) {
        Some("parallel") => {
            let threads = std::env::var("AMPC_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok());
            threads.map_or_else(RuntimeConfig::parallel, |threads| {
                RuntimeConfig::parallel().with_threads(threads)
            })
        }
        Some("sequential") | None => RuntimeConfig::Sequential,
        Some(other) => {
            // Tables are bit-identical across backends, so a typo here
            // would otherwise go unnoticed while skewing wall-clock
            // comparisons.
            eprintln!(
                "warning: unknown runtime `{other}` (expected `sequential` or `parallel`); \
                 using the sequential runtime"
            );
            RuntimeConfig::Sequential
        }
    }
}

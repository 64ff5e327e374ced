//! The runtime selection switch threaded through the algorithm drivers.

use ampc_model::AmpcConfig;

use crate::engine::RoundEngine;

/// Selects how many threads an algorithm run may use.
///
/// `Copy`, comparable and cheap so it can ride along inside parameter
/// structs (`PartitionParams`, `AmpcColoringParams`, the `SparseColoring`
/// builder). Results never depend on it: every thread count computes the
/// same partitions, colorings and model metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeConfig {
    /// One thread: every round runs inline on the calling thread.
    #[default]
    Sequential,
    /// Rounds and per-node loops split across the persistent worker pool.
    Parallel {
        /// Worker threads per round; `None` uses the host's available
        /// parallelism.
        threads: Option<usize>,
    },
}

impl RuntimeConfig {
    /// The parallel runtime with a host-derived thread count.
    pub fn parallel() -> Self {
        RuntimeConfig::Parallel { threads: None }
    }

    /// Pins the worker thread count (switching to the parallel runtime if
    /// necessary).
    pub fn with_threads(self, threads: usize) -> Self {
        RuntimeConfig::Parallel {
            threads: Some(threads),
        }
    }

    /// Whether the parallel runtime is selected.
    pub fn is_parallel(&self) -> bool {
        matches!(self, RuntimeConfig::Parallel { .. })
    }

    /// Worker threads an algorithm phase may use (1 for sequential).
    pub fn effective_threads(&self) -> usize {
        match self {
            RuntimeConfig::Sequential => 1,
            RuntimeConfig::Parallel { threads } => threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
                .max(1),
        }
    }

    /// A round engine with an empty store, splitting each round into
    /// [`RuntimeConfig::effective_threads`] chunks.
    pub fn engine(&self, config: AmpcConfig) -> RoundEngine {
        RoundEngine::new(config, self.effective_threads())
    }

    /// Short label for tables and bench output.
    pub fn label(&self) -> String {
        match self {
            RuntimeConfig::Sequential => "sequential".to_string(),
            RuntimeConfig::Parallel { .. } => {
                format!("parallel(threads={})", self.effective_threads())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_model::{Key, Value};

    #[test]
    fn builder_switches_to_parallel() {
        assert!(!RuntimeConfig::Sequential.is_parallel());
        assert_eq!(RuntimeConfig::Sequential.effective_threads(), 1);
        let rt = RuntimeConfig::Sequential.with_threads(4);
        assert!(rt.is_parallel());
        assert_eq!(rt.effective_threads(), 4);
        assert_eq!(rt.label(), "parallel(threads=4)");
        assert_eq!(
            RuntimeConfig::parallel()
                .with_threads(0)
                .effective_threads(),
            1
        );
        assert!(RuntimeConfig::parallel().label().starts_with("parallel"));
    }

    #[test]
    fn both_runtimes_build_an_engine() {
        for rt in [
            RuntimeConfig::Sequential,
            RuntimeConfig::parallel().with_threads(2),
        ] {
            let mut engine = rt.engine(AmpcConfig::for_input_size(16, 0.5));
            engine
                .round(2, || {
                    |machine, ctx| ctx.write(Key::single(machine as u64), Value::single(7))
                })
                .unwrap();
            engine
                .round(2, || {
                    |machine, ctx| {
                        let v = ctx.read(Key::single(machine as u64))?.unwrap();
                        ctx.write(Key::single(0), Value::single(v.words()[0] + machine as u64))
                    }
                })
                .unwrap();
            assert_eq!(engine.layer(0), Some(7));
            assert_eq!(engine.layer(1), None);
            assert_eq!(engine.layered(), 1);
        }
    }
}

//! The backend selection switch threaded through the algorithm drivers.

use ampc_model::{AmpcConfig, DataStore};

use crate::backend::{AmpcBackend, SequentialBackend};
use crate::parallel::ParallelBackend;

/// Selects the executor backend (and its parallelism) for an algorithm run.
///
/// `Copy`, comparable and cheap so it can ride along inside parameter
/// structs (`PartitionParams`, `AmpcColoringParams`, the `SparseColoring`
/// builder) — every algorithm in the workspace accepts one and runs
/// unchanged on either backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeConfig {
    /// The original single-threaded reference simulator.
    #[default]
    Sequential,
    /// The sharded multi-threaded runtime.
    Parallel {
        /// Worker threads per round; `None` uses the host's available
        /// parallelism.
        threads: Option<usize>,
        /// Store shards; `None` derives the fixed default `4 × threads`.
        /// **`Some(0)` selects auto-tuning**: the initial count derives
        /// from the thread count and the backend doubles it between rounds
        /// while the observed per-shard read load
        /// ([`ampc_model::RoundRuntimeStats::shard_reads`]) stays
        /// imbalanced. Shard counts never affect results, only load
        /// spread, so auto-tuning preserves bit-identity.
        shards: Option<usize>,
    },
}

impl RuntimeConfig {
    /// The parallel runtime with host-derived thread and shard counts.
    pub fn parallel() -> Self {
        RuntimeConfig::Parallel {
            threads: None,
            shards: None,
        }
    }

    /// Pins the worker thread count (switching to the parallel runtime if
    /// necessary).
    pub fn with_threads(self, threads: usize) -> Self {
        match self {
            RuntimeConfig::Sequential => RuntimeConfig::Parallel {
                threads: Some(threads),
                shards: None,
            },
            RuntimeConfig::Parallel { shards, .. } => RuntimeConfig::Parallel {
                threads: Some(threads),
                shards,
            },
        }
    }

    /// Pins the shard count (switching to the parallel runtime if
    /// necessary).
    pub fn with_shards(self, shards: usize) -> Self {
        match self {
            RuntimeConfig::Sequential => RuntimeConfig::Parallel {
                threads: None,
                shards: Some(shards),
            },
            RuntimeConfig::Parallel { threads, .. } => RuntimeConfig::Parallel {
                threads,
                shards: Some(shards),
            },
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
            RuntimeConfig::Parallel { threads, .. } => threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
                .max(1),
        }
    }

    /// Whether the shard count is auto-tuned (`shards == Some(0)`).
    pub fn auto_shards(&self) -> bool {
        matches!(
            self,
            RuntimeConfig::Parallel {
                shards: Some(0),
                ..
            }
        )
    }

    /// Store shards the parallel backend will start with. For the
    /// auto-tuned setting (`shards == Some(0)`) this is the initial count
    /// derived from the thread count — a power of two so doublings stay
    /// powers of two; the backend may grow it from observed imbalance.
    pub fn effective_shards(&self) -> usize {
        match self {
            RuntimeConfig::Sequential => 1,
            RuntimeConfig::Parallel { shards, .. } => match shards {
                Some(0) => (4 * self.effective_threads()).next_power_of_two(),
                Some(shards) => (*shards).max(1),
                None => (4 * self.effective_threads()).max(1),
            },
        }
    }

    /// Instantiates the selected backend over an initial store.
    pub fn backend(&self, config: AmpcConfig, initial: DataStore) -> Box<dyn AmpcBackend> {
        match self {
            RuntimeConfig::Sequential => Box::new(SequentialBackend::new(config, initial)),
            RuntimeConfig::Parallel { .. } => Box::new(
                ParallelBackend::new(
                    config,
                    initial,
                    self.effective_threads(),
                    self.effective_shards(),
                )
                .with_auto_shard_tuning(self.auto_shards()),
            ),
        }
    }

    /// Short label for tables and bench output.
    pub fn label(&self) -> String {
        match self {
            RuntimeConfig::Sequential => "sequential".to_string(),
            RuntimeConfig::Parallel { .. } => format!(
                "parallel(threads={}, shards={})",
                self.effective_threads(),
                self.effective_shards()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_model::{ConflictPolicy, Key, Value};

    #[test]
    fn builder_switches_to_parallel() {
        assert!(!RuntimeConfig::Sequential.is_parallel());
        assert_eq!(RuntimeConfig::Sequential.effective_threads(), 1);
        let rt = RuntimeConfig::Sequential.with_threads(4).with_shards(16);
        assert!(rt.is_parallel());
        assert_eq!(rt.effective_threads(), 4);
        assert_eq!(rt.effective_shards(), 16);
        // Default shard count derives from the thread count.
        let derived = RuntimeConfig::parallel().with_threads(2);
        assert_eq!(derived.effective_shards(), 8);
        assert!(RuntimeConfig::parallel().label().starts_with("parallel"));
    }

    #[test]
    fn zero_shards_selects_auto_tuning() {
        let auto = RuntimeConfig::parallel().with_threads(3).with_shards(0);
        assert!(auto.auto_shards());
        // Initial auto count: derived from the thread count, a power of
        // two so doublings stay powers of two.
        assert_eq!(auto.effective_shards(), 16);
        assert!(!RuntimeConfig::parallel().with_threads(3).auto_shards());
        assert!(!RuntimeConfig::Sequential.auto_shards());
        // A non-zero explicit count is honored verbatim.
        let fixed = RuntimeConfig::parallel().with_threads(3).with_shards(5);
        assert!(!fixed.auto_shards());
        assert_eq!(fixed.effective_shards(), 5);
    }

    #[test]
    fn both_backends_instantiate() {
        for rt in [
            RuntimeConfig::Sequential,
            RuntimeConfig::parallel().with_threads(2),
        ] {
            let mut backend = rt.backend(AmpcConfig::for_input_size(16, 0.5), DataStore::new());
            backend.load_store(vec![(Key::single(0), Value::single(1))]);
            backend
                .round(1, ConflictPolicy::Error, |_, ctx| {
                    let v = ctx.read(Key::single(0))?.unwrap();
                    ctx.write(Key::single(0), Value::single(v.words()[0] + 1))
                })
                .unwrap();
            assert_eq!(backend.get(Key::single(0)), Some(Value::single(2)));
        }
    }
}

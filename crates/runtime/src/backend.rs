//! The executor abstraction and the sequential reference backend.

use std::sync::Arc;

use ampc_model::{
    AmpcConfig, AmpcExecutor, AmpcMetrics, ConflictPolicy, DataStore, Key, MachineContext,
    ModelError, RoundReport, Value,
};

use crate::faults::{self, AttemptFailure};
use crate::trace::{span_on, TraceContext};

/// A machine closure executed once per machine in a round.
///
/// Backends may run machines on many threads, so bodies must be `Fn + Sync`:
/// all cross-machine communication goes through the data store (reads of the
/// previous round, buffered writes into the next), exactly as the AMPC model
/// prescribes.
pub type RoundBody<'b> =
    dyn Fn(usize, &mut MachineContext<'_>) -> Result<(), ModelError> + Sync + 'b;

/// An AMPC round executor.
///
/// Extracted from the original sequential `AmpcExecutor` so the simulator
/// (kept as the reference/verification backend, see [`SequentialBackend`])
/// and the sharded parallel backend ([`crate::ParallelBackend`]) are
/// interchangeable behind a [`crate::RuntimeConfig`] switch.
///
/// The convenience wrappers [`round`](#method.round) and
/// [`round_carrying_forward`](#method.round_carrying_forward) on
/// `dyn AmpcBackend` accept ordinary closures.
pub trait AmpcBackend: Send {
    /// The resource configuration in force.
    fn config(&self) -> &AmpcConfig;

    /// Metrics accumulated so far (round reports plus runtime stats).
    fn metrics(&self) -> &AmpcMetrics;

    /// Uncounted lookup in the current (most recently produced) store, for
    /// algorithm drivers reading results between rounds.
    fn get(&self, key: Key) -> Option<Value>;

    /// Number of entries in the current store.
    fn store_len(&self) -> usize;

    /// Materializes the current store as a flat [`DataStore`].
    fn snapshot_store(&self) -> DataStore;

    /// Loads additional input entries into the current store (before the
    /// first round).
    fn load_store(&mut self, entries: Vec<(Key, Value)>);

    /// Runs one AMPC round; see [`AmpcExecutor::round`] for the semantics of
    /// `policy` and `carry_forward`.
    ///
    /// # Errors
    ///
    /// Budget violations and [`ConflictPolicy::Error`] conflicts, exactly as
    /// the sequential executor reports them (lowest machine id first).
    fn run_round(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        carry_forward: bool,
        body: &RoundBody<'_>,
    ) -> Result<RoundReport, ModelError>;

    /// Consumes the backend and returns the final store and metrics.
    fn into_parts(self: Box<Self>) -> (DataStore, AmpcMetrics);

    /// Short backend name for logs and benches.
    fn name(&self) -> &'static str;

    /// Attaches (or detaches) a span recorder: subsequent rounds emit
    /// execute/merge/retune spans into it. Tracing is measurement-only —
    /// it never changes what a round computes. The default implementation
    /// ignores the recorder (backends opt in).
    fn set_trace(&mut self, _trace: Option<Arc<TraceContext>>) {}
}

impl dyn AmpcBackend + '_ {
    /// Runs one round whose writes fully replace the store (keys not written
    /// this round are dropped).
    ///
    /// # Errors
    ///
    /// See [`AmpcBackend::run_round`].
    pub fn round<F>(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        body: F,
    ) -> Result<RoundReport, ModelError>
    where
        F: Fn(usize, &mut MachineContext<'_>) -> Result<(), ModelError> + Sync,
    {
        self.run_round(machines, policy, false, &body)
    }

    /// Runs one round carrying unwritten keys of the previous store forward.
    ///
    /// # Errors
    ///
    /// See [`AmpcBackend::run_round`].
    pub fn round_carrying_forward<F>(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        body: F,
    ) -> Result<RoundReport, ModelError>
    where
        F: Fn(usize, &mut MachineContext<'_>) -> Result<(), ModelError> + Sync,
    {
        self.run_round(machines, policy, true, &body)
    }
}

/// The original single-threaded simulator behind the [`AmpcBackend`] trait —
/// the reference implementation the parallel backend is verified against.
#[derive(Debug)]
pub struct SequentialBackend {
    executor: AmpcExecutor,
    trace: Option<Arc<TraceContext>>,
}

impl SequentialBackend {
    /// Creates a sequential backend whose round 0 input store is `initial`.
    pub fn new(config: AmpcConfig, initial: DataStore) -> Self {
        SequentialBackend {
            executor: AmpcExecutor::new(config, initial),
            trace: None,
        }
    }

    /// Access to the wrapped executor.
    pub fn executor(&self) -> &AmpcExecutor {
        &self.executor
    }
}

impl AmpcBackend for SequentialBackend {
    fn config(&self) -> &AmpcConfig {
        self.executor.config()
    }

    fn metrics(&self) -> &AmpcMetrics {
        self.executor.metrics()
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.executor.store().get(key)
    }

    fn store_len(&self) -> usize {
        self.executor.store().len()
    }

    fn snapshot_store(&self) -> DataStore {
        self.executor.store().clone()
    }

    fn load_store(&mut self, entries: Vec<(Key, Value)>) {
        self.executor.store_mut().extend(entries);
    }

    fn run_round(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        carry_forward: bool,
        body: &RoundBody<'_>,
    ) -> Result<RoundReport, ModelError> {
        let round = self.executor.metrics().num_rounds();
        faults::supervise(round, |attempt| {
            // The sequential merge happens inside the executor where it
            // cannot be intercepted, so an injected merge failure fires
            // before the round runs — behaviorally identical: the attempt
            // is lost whole and the retry replays from the same input.
            attempt.before_merge();
            // Panics and model errors already leave the executor untouched
            // ("failed rounds leave no trace"); only a deadline overrun is
            // detected *after* the round committed, so it alone needs an
            // input snapshot to roll back to.
            let snapshot = attempt
                .has_deadline()
                .then(|| self.executor.store().clone());
            let report = if attempt.injects() {
                let faulty_body = |machine: usize, ctx: &mut MachineContext<'_>| {
                    attempt.before_machine(machine);
                    body(machine, ctx)
                };
                self.round_once(machines, policy, carry_forward, &faulty_body)
            } else {
                self.round_once(machines, policy, carry_forward, body)
            }
            .map_err(AttemptFailure::Fatal)?;
            if let Err(overrun) = attempt.check_deadline() {
                // Committed before the overrun was known: put the store
                // and metrics back, discard whole.
                if let Some(snapshot) = snapshot {
                    *self.executor.store_mut() = snapshot;
                }
                self.executor.metrics_mut().discard_last_round();
                return Err(overrun);
            }
            Ok(report)
        })
    }

    fn into_parts(self: Box<Self>) -> (DataStore, AmpcMetrics) {
        self.executor.into_parts()
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn set_trace(&mut self, trace: Option<Arc<TraceContext>>) {
        self.trace = trace;
    }
}

impl SequentialBackend {
    /// One un-supervised round on the wrapped executor (the pre-fault-plane
    /// `run_round` body).
    fn round_once(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        carry_forward: bool,
        body: &RoundBody<'_>,
    ) -> Result<RoundReport, ModelError> {
        let round_index = self.executor.metrics().num_rounds() as u64;
        let _span = span_on(self.trace.as_deref(), "backend.round", "backend")
            .with_arg("round", round_index)
            .with_arg("machines", machines as u64);
        // Hardware counters bracket the same boundary the span does. The
        // executor records the round's wall-clock stats itself; the delta
        // is folded into that record afterwards — but only when this round
        // actually pushed one (a failed round must not clobber the
        // previous round's counters).
        let runtime_before = self.executor.metrics().runtime_stats().len();
        let perf_before = crate::perf::snapshot();
        let result = if carry_forward {
            self.executor
                .round_carrying_forward(machines, policy, |machine, ctx| body(machine, ctx))
        } else {
            self.executor
                .round(machines, policy, |machine, ctx| body(machine, ctx))
        };
        let perf = crate::perf::snapshot().saturating_delta(&perf_before);
        let recorded = self.executor.metrics().runtime_stats().len() > runtime_before;
        if let Some(stats) = self
            .executor
            .metrics_mut()
            .last_runtime_mut()
            .filter(|_| recorded)
        {
            stats.cycles = perf.cycles;
            stats.instructions = perf.instructions;
            stats.cache_references = perf.cache_references;
            stats.cache_misses = perf.cache_misses;
            stats.branch_misses = perf.branch_misses;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_backend_matches_raw_executor() {
        let config = AmpcConfig::for_input_size(16, 0.5);
        let mut store = DataStore::new();
        store.insert(Key::single(0), Value::single(5));

        let mut backend: Box<dyn AmpcBackend> = Box::new(SequentialBackend::new(config, store));
        backend.load_store(vec![(Key::single(1), Value::single(6))]);
        assert_eq!(backend.store_len(), 2);
        backend
            .round(2, ConflictPolicy::Error, |machine, ctx| {
                let value = ctx.read(Key::single(machine as u64))?.unwrap();
                ctx.write(
                    Key::single(machine as u64),
                    Value::single(value.words()[0] + 1),
                )
            })
            .unwrap();
        assert_eq!(backend.get(Key::single(0)), Some(Value::single(6)));
        assert_eq!(backend.get(Key::single(1)), Some(Value::single(7)));
        assert_eq!(backend.metrics().num_rounds(), 1);
        assert_eq!(backend.metrics().runtime_stats().len(), 1);
        let (store, metrics) = backend.into_parts();
        assert_eq!(store.len(), 2);
        assert_eq!(metrics.num_rounds(), 1);
    }
}

//! The AMPC round executor and per-machine access contexts.

use std::collections::hash_map::Entry;
use std::time::Instant;

use crate::config::AmpcConfig;
use crate::dds::{DataStore, Key, StoreRead, Value};
use crate::error::ModelError;
use crate::metrics::{AmpcMetrics, RoundReport, RoundRuntimeStats};

/// How the executor resolves two machines writing to the same key in the
/// same round.
///
/// The AMPC model itself allows duplicate keys (they become `(x, 1) … (x, k)`
/// entries); the algorithms in this repository instead always reduce
/// duplicates with an associative rule, most prominently the *minimum* merge
/// of Remark 4.8 ("merge all β-partitions given as proofs via a global
/// minimum function").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Keep the smallest value (lexicographic on words).
    KeepMin,
    /// Keep the largest value (lexicographic on words).
    KeepMax,
    /// Keep the value written by the machine processed first (deterministic:
    /// machines are processed in increasing id order).
    KeepFirst,
    /// Treat conflicting writes (different values to the same key) as an
    /// error.
    Error,
}

impl ConflictPolicy {
    /// Resolves two writes to the same key within one round.
    ///
    /// `existing` must be the value written by the earlier machine (in
    /// increasing machine-id / write order), which is what makes
    /// [`ConflictPolicy::KeepFirst`] deterministic.
    ///
    /// # Errors
    ///
    /// [`ModelError::WriteConflict`] under [`ConflictPolicy::Error`] when the
    /// values differ.
    pub fn resolve(self, key: &Key, existing: Value, incoming: Value) -> Result<Value, ModelError> {
        Ok(match self {
            ConflictPolicy::KeepMin => existing.min(incoming),
            ConflictPolicy::KeepMax => existing.max(incoming),
            ConflictPolicy::KeepFirst => existing,
            ConflictPolicy::Error => {
                if existing == incoming {
                    existing
                } else {
                    return Err(ModelError::WriteConflict {
                        key: format!("{:?}", key.words()),
                    });
                }
            }
        })
    }
}

/// The access context handed to a machine for one AMPC round.
///
/// Reads go against the *previous* round's data store; writes are buffered
/// and only become visible in the *next* round's store — exactly the
/// semantics of Section 3.1. Reads within the round may depend on values
/// read earlier in the same round (adaptivity), which is the defining AMPC
/// capability.
pub struct MachineContext<'a> {
    machine: usize,
    input: &'a dyn StoreRead,
    writes: &'a mut Vec<(Key, Value)>,
    reads_used: usize,
    read_budget: usize,
    write_budget: usize,
}

impl std::fmt::Debug for MachineContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineContext")
            .field("machine", &self.machine)
            .field("reads_used", &self.reads_used)
            .field("writes", &self.writes.len())
            .field("read_budget", &self.read_budget)
            .field("write_budget", &self.write_budget)
            .finish_non_exhaustive()
    }
}

impl<'a> MachineContext<'a> {
    /// Creates the access context one machine gets for one round.
    ///
    /// Writes are buffered in `writes`, which is cleared first: an executor
    /// passes the same buffer to every machine it drives, so buffering
    /// allocates only while the buffer grows to the largest machine's
    /// output. After the body ran, the buffer holds the machine's writes in
    /// write order.
    ///
    /// Public so that the `ampc-runtime` round engine can drive machines
    /// with exactly the same budget enforcement as the sequential executor,
    /// reading from its own store (any [`StoreRead`]); algorithm code should
    /// never construct contexts itself.
    pub fn for_round(
        machine: usize,
        input: &'a dyn StoreRead,
        read_budget: usize,
        write_budget: usize,
        writes: &'a mut Vec<(Key, Value)>,
    ) -> Self {
        writes.clear();
        MachineContext {
            machine,
            input,
            writes,
            reads_used: 0,
            read_budget,
            write_budget,
        }
    }

    /// The id of the machine this context belongs to.
    pub fn machine(&self) -> usize {
        self.machine
    }

    /// Reads a key from the previous round's store, counting one query.
    ///
    /// Returns `Ok(None)` for a missing key (the model's "empty response").
    ///
    /// # Errors
    ///
    /// [`ModelError::ReadBudgetExceeded`] if the machine already used its
    /// `O(S)` read budget this round.
    pub fn read(&mut self, key: Key) -> Result<Option<Value>, ModelError> {
        if self.reads_used >= self.read_budget {
            return Err(ModelError::ReadBudgetExceeded {
                machine: self.machine,
                budget: self.read_budget,
            });
        }
        self.reads_used += 1;
        Ok(self.input.read(key))
    }

    /// Records `reads` queries issued through a side channel (e.g. an
    /// [`crate::LcaOracle`] exploring the input graph) so they appear in the
    /// round metrics, without enforcing the budget.
    pub fn note_reads(&mut self, reads: usize) {
        self.reads_used += reads;
    }

    /// Buffers a write into the next round's store, counting one write.
    ///
    /// # Errors
    ///
    /// [`ModelError::WriteBudgetExceeded`] if the machine already used its
    /// `O(S)` write budget this round.
    #[inline]
    pub fn write(&mut self, key: Key, value: Value) -> Result<(), ModelError> {
        if self.writes.len() >= self.write_budget {
            return Err(ModelError::WriteBudgetExceeded {
                machine: self.machine,
                budget: self.write_budget,
            });
        }
        self.writes.push((key, value));
        Ok(())
    }

    /// Number of reads issued so far in this round.
    pub fn reads_used(&self) -> usize {
        self.reads_used
    }

    /// Number of writes issued so far in this round.
    pub fn writes_used(&self) -> usize {
        self.writes.len()
    }

    /// Remaining read budget (zero when side-channel accounting via
    /// [`MachineContext::note_reads`] exceeded it).
    pub fn reads_remaining(&self) -> usize {
        self.read_budget.saturating_sub(self.reads_used)
    }
}

/// Executes AMPC rounds against a sequence of data stores and records
/// resource metrics.
///
/// Machines are simulated sequentially (in increasing machine id) but each
/// machine only sees the previous round's store, so the simulation is
/// semantically equivalent to a parallel execution.
#[derive(Debug)]
pub struct AmpcExecutor {
    config: AmpcConfig,
    store: DataStore,
    metrics: AmpcMetrics,
    /// The write buffer every machine context borrows in turn.
    writes: Vec<(Key, Value)>,
}

impl AmpcExecutor {
    /// Creates an executor whose round 0 input store is `initial`.
    pub fn new(config: AmpcConfig, initial: DataStore) -> Self {
        AmpcExecutor {
            config,
            store: initial,
            metrics: AmpcMetrics::default(),
            writes: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AmpcConfig {
        &self.config
    }

    /// The current (most recently produced) data store.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Mutable access to the current store, for loading additional input
    /// before the first round.
    pub fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &AmpcMetrics {
        &self.metrics
    }

    /// Consumes the executor and returns the final store and metrics.
    pub fn into_parts(self) -> (DataStore, AmpcMetrics) {
        (self.store, self.metrics)
    }

    /// Runs one AMPC round with `machines` machines.
    ///
    /// The closure is invoked once per machine with a [`MachineContext`]
    /// enforcing the read/write budgets from the configuration. After all
    /// machines ran, the buffered writes are merged into the next store
    /// according to `policy` and the previous store is replaced.
    ///
    /// Keys **not** written in this round are dropped, mirroring the model
    /// where `D_{i+1}` contains exactly what round `i+1` machines wrote; use
    /// [`AmpcExecutor::round_carrying_forward`] to keep the old contents.
    ///
    /// # Errors
    ///
    /// Propagates budget violations from machines and conflicting writes
    /// under [`ConflictPolicy::Error`].
    pub fn round<F>(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        mut body: F,
    ) -> Result<RoundReport, ModelError>
    where
        F: FnMut(usize, &mut MachineContext<'_>) -> Result<(), ModelError>,
    {
        self.round_inner(machines, policy, false, &mut body)
    }

    /// Like [`AmpcExecutor::round`], but entries of the previous store that
    /// no machine overwrote are carried forward into the next store.
    ///
    /// This models the common pattern of machines re-writing only the keys
    /// they own while the rest of the data (e.g. the static input graph) is
    /// ported forward by the DDS-handling machines, as the proof of
    /// Theorem 1.2 describes.
    ///
    /// # Errors
    ///
    /// Same as [`AmpcExecutor::round`].
    pub fn round_carrying_forward<F>(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        mut body: F,
    ) -> Result<RoundReport, ModelError>
    where
        F: FnMut(usize, &mut MachineContext<'_>) -> Result<(), ModelError>,
    {
        self.round_inner(machines, policy, true, &mut body)
    }

    fn round_inner(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        carry_forward: bool,
        body: &mut dyn FnMut(usize, &mut MachineContext<'_>) -> Result<(), ModelError>,
    ) -> Result<RoundReport, ModelError> {
        let started = Instant::now();
        let read_budget = self.config.read_budget();
        let write_budget = self.config.write_budget();

        // Each write is merged into the next store with one probe; keys no
        // machine wrote are carried forward afterwards.
        let mut next = DataStore::new();
        let mut conflict_merges = 0usize;

        let mut report = RoundReport::new(self.metrics.num_rounds(), machines);

        for machine in 0..machines {
            let mut ctx = MachineContext::for_round(
                machine,
                &self.store,
                read_budget,
                write_budget,
                &mut self.writes,
            );
            body(machine, &mut ctx)?;
            report.record_machine(ctx.reads_used, ctx.writes.len());

            for &(key, value) in &self.writes {
                match next.entry(key) {
                    Entry::Vacant(entry) => {
                        entry.insert(value);
                    }
                    Entry::Occupied(mut entry) => {
                        conflict_merges += 1;
                        let resolved = policy.resolve(&key, *entry.get(), value)?;
                        entry.insert(resolved);
                    }
                }
            }
        }

        if carry_forward {
            for (&key, &value) in self.store.iter() {
                next.entry(key).or_insert(value);
            }
        }

        report.finish(next.space_in_words());
        self.metrics.push_round(report.clone());
        self.metrics.record_runtime(RoundRuntimeStats {
            wall_clock_nanos: started.elapsed().as_nanos() as u64,
            conflict_merges,
            ..RoundRuntimeStats::default()
        });
        self.store = next;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> AmpcConfig {
        // input size 16, delta 0.5 -> budget 4 reads/writes per machine.
        AmpcConfig::for_input_size(16, 0.5)
    }

    fn store_with(values: &[(u64, u64)]) -> DataStore {
        values
            .iter()
            .map(|&(k, v)| (Key::single(k), Value::single(v)))
            .collect()
    }

    #[test]
    fn round_reads_previous_store_and_writes_next() {
        let mut exec = AmpcExecutor::new(small_config(), store_with(&[(0, 5), (1, 6)]));
        exec.round(2, ConflictPolicy::Error, |machine, ctx| {
            let value = ctx.read(Key::single(machine as u64))?.unwrap();
            ctx.write(
                Key::single(machine as u64),
                Value::single(value.words()[0] + 1),
            )
        })
        .unwrap();
        assert_eq!(exec.store().get(Key::single(0)), Some(Value::single(6)));
        assert_eq!(exec.store().get(Key::single(1)), Some(Value::single(7)));
        assert_eq!(exec.metrics().num_rounds(), 1);
    }

    #[test]
    fn writes_are_not_visible_within_the_same_round() {
        let mut exec = AmpcExecutor::new(small_config(), store_with(&[(0, 1)]));
        exec.round(2, ConflictPolicy::Error, |machine, ctx| {
            if machine == 0 {
                ctx.write(Key::single(9), Value::single(99))?;
            } else {
                // Machine 1 must not see machine 0's write from this round.
                assert_eq!(ctx.read(Key::single(9))?, None);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(exec.store().get(Key::single(9)), Some(Value::single(99)));
    }

    #[test]
    fn unwritten_keys_are_dropped_unless_carried_forward() {
        let mut exec = AmpcExecutor::new(small_config(), store_with(&[(0, 1), (1, 2)]));
        exec.round(1, ConflictPolicy::Error, |_, ctx| {
            ctx.write(Key::single(0), Value::single(10))
        })
        .unwrap();
        assert_eq!(exec.store().get(Key::single(1)), None);

        let mut exec = AmpcExecutor::new(small_config(), store_with(&[(0, 1), (1, 2)]));
        exec.round_carrying_forward(1, ConflictPolicy::Error, |_, ctx| {
            ctx.write(Key::single(0), Value::single(10))
        })
        .unwrap();
        assert_eq!(exec.store().get(Key::single(0)), Some(Value::single(10)));
        assert_eq!(exec.store().get(Key::single(1)), Some(Value::single(2)));
    }

    #[test]
    fn read_budget_is_enforced() {
        let mut exec = AmpcExecutor::new(small_config(), DataStore::new());
        let err = exec
            .round(1, ConflictPolicy::Error, |_, ctx| {
                for i in 0..100 {
                    ctx.read(Key::single(i))?;
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::ReadBudgetExceeded {
                machine: 0,
                budget: 4
            }
        );
    }

    #[test]
    fn write_budget_is_enforced() {
        let mut exec = AmpcExecutor::new(small_config(), DataStore::new());
        let err = exec
            .round(1, ConflictPolicy::Error, |_, ctx| {
                for i in 0..100 {
                    ctx.write(Key::single(i), Value::single(i))?;
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::WriteBudgetExceeded {
                machine: 0,
                budget: 4
            }
        );
    }

    #[test]
    fn conflict_policies_resolve_duplicate_writes() {
        for (policy, expected) in [
            (ConflictPolicy::KeepMin, 3u64),
            (ConflictPolicy::KeepMax, 8u64),
            (ConflictPolicy::KeepFirst, 8u64),
        ] {
            let mut exec = AmpcExecutor::new(small_config(), DataStore::new());
            exec.round(2, policy, |machine, ctx| {
                let value = if machine == 0 { 8 } else { 3 };
                ctx.write(Key::single(0), Value::single(value))
            })
            .unwrap();
            assert_eq!(
                exec.store().get(Key::single(0)),
                Some(Value::single(expected)),
                "policy {policy:?}"
            );
        }

        let mut exec = AmpcExecutor::new(small_config(), DataStore::new());
        let err = exec
            .round(2, ConflictPolicy::Error, |machine, ctx| {
                ctx.write(Key::single(0), Value::single(machine as u64))
            })
            .unwrap_err();
        assert!(matches!(err, ModelError::WriteConflict { .. }));

        // Identical duplicate writes are fine even under Error.
        let mut exec = AmpcExecutor::new(small_config(), DataStore::new());
        exec.round(2, ConflictPolicy::Error, |_, ctx| {
            ctx.write(Key::single(0), Value::single(7))
        })
        .unwrap();
        assert_eq!(exec.store().get(Key::single(0)), Some(Value::single(7)));
    }

    #[test]
    fn metrics_track_per_round_maxima() {
        let mut exec = AmpcExecutor::new(small_config(), store_with(&[(0, 1), (1, 1), (2, 1)]));
        exec.round(3, ConflictPolicy::Error, |machine, ctx| {
            for i in 0..=machine as u64 {
                ctx.read(Key::single(i))?;
            }
            ctx.write(Key::single(machine as u64), Value::single(1))
        })
        .unwrap();
        let report = &exec.metrics().rounds()[0];
        assert_eq!(report.max_reads, 3);
        assert_eq!(report.total_reads, 1 + 2 + 3);
        assert_eq!(report.max_writes, 1);
        assert_eq!(report.total_writes, 3);
        assert_eq!(report.machines, 3);
    }
}

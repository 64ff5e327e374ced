//! The sharded multi-threaded round scheduler.

use std::sync::Arc;
use std::time::Instant;

use ampc_model::{
    AmpcConfig, AmpcMetrics, ConflictPolicy, DataStore, Key, MachineContext, ModelError,
    RoundReport, RoundRuntimeStats, Value,
};

use crate::backend::{AmpcBackend, RoundBody};
use crate::faults::{self, Attempt, AttemptFailure};
use crate::pool::{chunk_ranges, PoolStats, ScopedTask, WorkerPool};
use crate::shard::{FlatShard, ShardedStore};
use crate::trace::{span_on, TraceContext};

/// A write buffered by one machine: `(machine id, index within the
/// machine's write sequence, key, value)`. The `(machine, index)` pair is
/// the global sequential-application order, which the merge preserves so
/// [`ConflictPolicy::KeepFirst`] and conflict errors stay deterministic.
type BufferedWrite = (usize, usize, Key, Value);

/// Per-worker result of executing a contiguous machine range.
struct ChunkOutcome {
    max_reads: usize,
    total_reads: usize,
    max_writes: usize,
    total_writes: usize,
    /// Writes bucketed by destination shard, in `(machine, index)` order.
    per_shard: Vec<Vec<BufferedWrite>>,
    /// First failing machine of the chunk, if any.
    error: Option<(usize, ModelError)>,
}

impl ChunkOutcome {
    fn new(num_shards: usize) -> Self {
        ChunkOutcome {
            max_reads: 0,
            total_reads: 0,
            max_writes: 0,
            total_writes: 0,
            per_shard: (0..num_shards).map(|_| Vec::new()).collect(),
            error: None,
        }
    }
}

/// Result of the merge phase: the next generation of shard tables, the
/// per-shard routed-write counts, and the total conflict merges.
type MergedShards = (Vec<FlatShard>, Vec<u64>, usize);

/// Per-worker tasks completed between two pool snapshots.
fn pool_delta(before: &PoolStats, after: &PoolStats) -> Vec<u64> {
    after
        .tasks_per_worker
        .iter()
        .zip(&before.tasks_per_worker)
        .map(|(&now, &then)| now.saturating_sub(then))
        .collect()
}

/// Per-shard result of the merge phase.
struct ShardMerge {
    shard: usize,
    merged: FlatShard,
    writes_routed: u64,
    conflict_merges: usize,
    /// First conflicting write under [`ConflictPolicy::Error`], as
    /// `(machine, index, error)`.
    conflict: Option<(usize, usize, ModelError)>,
}

/// The sharded parallel implementation of [`AmpcBackend`].
///
/// Machines are split into contiguous id ranges, one per worker; every
/// worker drives its machines through [`MachineContext`]s with the exact
/// budget enforcement of the sequential executor, reading the previous
/// round's [`ShardedStore`] lock-free. Buffered writes are merged
/// shard-by-shard (also in parallel) in global `(machine, write index)`
/// order, so the resulting store is bit-identical to the sequential
/// backend's for every [`ConflictPolicy`].
///
/// Rounds run on a persistent [`WorkerPool`] — by default the process-wide
/// [`WorkerPool::global`] pool, shared across backends and jobs — so no
/// threads are spawned per round (or even per backend). The pool-reuse
/// deltas of every round are recorded in
/// [`RoundRuntimeStats::pool_tasks_per_worker`] and
/// [`RoundRuntimeStats::pool_idle_nanos`].
pub struct ParallelBackend {
    config: AmpcConfig,
    store: ShardedStore,
    metrics: AmpcMetrics,
    threads: usize,
    pool: Arc<WorkerPool>,
    /// When set, the shard count grows (doubles, up to
    /// [`MAX_AUTO_SHARDS`]) between rounds while the observed per-shard
    /// read load stays imbalanced. Selected by `RuntimeConfig` with
    /// `shards == Some(0)`.
    auto_shards: bool,
    /// The hottest shard's share of all reads at the last doubling —
    /// compared against the next observation to tell *spreadable*
    /// imbalance (more shards dilute the hot shard) from *irreducible*
    /// imbalance (one hot key that lands in a single shard at any count).
    last_hot_share: Option<f64>,
    /// Set once a doubling failed to shrink the hot share: further
    /// doublings cannot help either, so the tuner stops re-partitioning.
    retune_stalled: bool,
    /// Optional span recorder ([`AmpcBackend::set_trace`]): when attached,
    /// every round emits execute/merge spans and every shard retune emits
    /// a retune span. Measurement-only.
    trace: Option<Arc<TraceContext>>,
}

/// Ceiling for the auto-tuned shard count.
const MAX_AUTO_SHARDS: usize = 1024;

/// The auto-tuner doubles the shard count while the hottest shard serves
/// more than `IMBALANCE_FACTOR` times its fair share of reads.
const IMBALANCE_FACTOR: u64 = 2;

/// A doubling must shrink the hottest shard's read *share* below this
/// fraction of the previous observation to count as progress; otherwise
/// the imbalance is concentrated on fewer keys than shards (ultimately one
/// hot key) and re-partitioning — a full store copy per attempt — is
/// wasted work.
const RETUNE_IMPROVEMENT: f64 = 0.75;

impl std::fmt::Debug for ParallelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelBackend")
            .field("threads", &self.threads)
            .field("shards", &self.store.num_shards())
            .field("store_len", &self.store.len())
            .field("rounds", &self.metrics.num_rounds())
            .finish()
    }
}

impl ParallelBackend {
    /// Creates a parallel backend over `initial`, partitioned into `shards`
    /// shards and fanning each round out into up to `threads` chunks (both
    /// clamped to at least 1) on the process-wide [`WorkerPool::global`]
    /// pool.
    pub fn new(config: AmpcConfig, initial: DataStore, threads: usize, shards: usize) -> Self {
        ParallelBackend::with_pool(
            config,
            initial,
            threads,
            shards,
            Arc::clone(WorkerPool::global()),
        )
    }

    /// Like [`ParallelBackend::new`], but executing on a caller-owned
    /// persistent pool instead of the global one.
    pub fn with_pool(
        config: AmpcConfig,
        initial: DataStore,
        threads: usize,
        shards: usize,
        pool: Arc<WorkerPool>,
    ) -> Self {
        ParallelBackend {
            config,
            store: ShardedStore::from_store(initial, shards.max(1)),
            metrics: AmpcMetrics::default(),
            threads: threads.max(1),
            pool,
            auto_shards: false,
            last_hot_share: None,
            retune_stalled: false,
            trace: None,
        }
    }

    /// Enables (or disables) imbalance-driven shard-count auto-tuning: the
    /// constructor's shard count becomes the starting point and the
    /// backend doubles it between rounds while the hottest shard keeps
    /// serving more than [`IMBALANCE_FACTOR`]× its fair share of the
    /// observed reads ([`RoundRuntimeStats::shard_reads`]). The shard
    /// count chosen for each round is logged in
    /// [`RoundRuntimeStats::auto_shards`]. Results are unaffected: the
    /// key→shard mapping only spreads load, the per-key merge order stays
    /// global `(machine, write index)` order for any count.
    pub fn with_auto_shard_tuning(mut self, enabled: bool) -> Self {
        self.auto_shards = enabled;
        self
    }

    /// Number of worker threads used per round.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The persistent pool this backend schedules rounds on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The sharded store backing the current round.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Executes the machine bodies for one round, returning per-chunk
    /// outcomes in chunk (= ascending machine) order. `attempt` fires the
    /// planned task fault before each machine body.
    fn execute_machines(
        &self,
        machines: usize,
        body: &RoundBody<'_>,
        read_budget: usize,
        write_budget: usize,
        attempt: &Attempt<'_>,
    ) -> Vec<ChunkOutcome> {
        let num_shards = self.store.num_shards();
        let chunks = chunk_ranges(machines, self.threads);
        let store = &self.store;

        let mut outcomes: Vec<Option<ChunkOutcome>> = (0..chunks.len()).map(|_| None).collect();
        let tasks: Vec<ScopedTask<'_>> = outcomes
            .iter_mut()
            .zip(chunks)
            .map(|(slot, range)| {
                Box::new(move || {
                    let mut outcome = ChunkOutcome::new(num_shards);
                    // One write buffer for every machine of the chunk.
                    let mut buffer = Vec::new();
                    for machine in range {
                        attempt.before_machine(machine);
                        let mut ctx = MachineContext::for_round(
                            machine,
                            store,
                            read_budget,
                            write_budget,
                            &mut buffer,
                        );
                        if let Err(error) = body(machine, &mut ctx) {
                            outcome.error = Some((machine, error));
                            break;
                        }
                        let reads = ctx.reads_used();
                        let writes = ctx.writes_used();
                        outcome.max_reads = outcome.max_reads.max(reads);
                        outcome.total_reads += reads;
                        outcome.max_writes = outcome.max_writes.max(writes);
                        outcome.total_writes += writes;
                        for (index, &(key, value)) in buffer.iter().enumerate() {
                            let shard = store.shard_of(&key);
                            outcome.per_shard[shard].push((machine, index, key, value));
                        }
                    }
                    *slot = Some(outcome);
                }) as ScopedTask<'_>
            })
            .collect();
        self.pool.execute(tasks);
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("the pool ran every machine chunk"))
            .collect()
    }

    /// Merges the buffered writes of all chunks, shard-by-shard in parallel.
    fn merge_shards(
        &self,
        outcomes: &[ChunkOutcome],
        policy: ConflictPolicy,
        carry_forward: bool,
    ) -> Result<MergedShards, ModelError> {
        let num_shards = self.store.num_shards();
        let base: Vec<FlatShard> = if carry_forward {
            self.store.clone_shards()
        } else {
            vec![FlatShard::default(); num_shards]
        };

        let shard_chunks = chunk_ranges(num_shards, self.threads);
        let mut chunk_merges: Vec<Option<Vec<ShardMerge>>> =
            (0..shard_chunks.len()).map(|_| None).collect();
        let tasks: Vec<ScopedTask<'_>> = chunk_merges
            .iter_mut()
            .zip(shard_chunks)
            .map(|(slot, range)| {
                Box::new(move || {
                    let mut results = Vec::with_capacity(range.len());
                    for shard in range {
                        let mut staged = FlatShard::default();
                        let mut writes_routed = 0u64;
                        let mut conflict_merges = 0usize;
                        let mut conflict: Option<(usize, usize, ModelError)> = None;
                        // Chunks are ascending machine ranges and each
                        // bucket is in (machine, index) order, so this
                        // fold replays the sequential write order.
                        'outer: for outcome in outcomes {
                            for &(machine, index, key, value) in &outcome.per_shard[shard] {
                                writes_routed += 1;
                                // Single probe per write: absent keys are
                                // inserted, resident ones come back for
                                // conflict resolution.
                                if let Some(existing) = staged.get_or_insert(key, value) {
                                    conflict_merges += 1;
                                    match policy.resolve(&key, *existing, value) {
                                        Ok(resolved) => {
                                            *existing = resolved;
                                        }
                                        Err(error) => {
                                            conflict = Some((machine, index, error));
                                            break 'outer;
                                        }
                                    }
                                }
                            }
                        }
                        results.push(ShardMerge {
                            shard,
                            merged: staged,
                            writes_routed,
                            conflict_merges,
                            conflict,
                        });
                    }
                    *slot = Some(results);
                }) as ScopedTask<'_>
            })
            .collect();
        self.pool.execute(tasks);
        let merges: Vec<ShardMerge> = chunk_merges
            .into_iter()
            .flat_map(|chunk| chunk.expect("the pool ran every merge chunk"))
            .collect();

        // Deterministic conflict reporting: the first conflict in global
        // (machine, write index) order is the one the sequential executor
        // would have raised.
        if let Some((_, _, error)) = merges
            .iter()
            .filter_map(|m| m.conflict.clone())
            .min_by_key(|&(machine, index, _)| (machine, index))
        {
            return Err(error);
        }

        let mut next = base;
        let mut shard_writes = vec![0u64; num_shards];
        let mut conflict_merges = 0usize;
        for merge in merges {
            shard_writes[merge.shard] = merge.writes_routed;
            conflict_merges += merge.conflict_merges;
            let target = &mut next[merge.shard];
            for (key, value) in merge.merged.into_entries() {
                target.insert(key, value);
            }
        }
        Ok((next, shard_writes, conflict_merges))
    }
}

impl ParallelBackend {
    /// The imbalance-driven auto-tuner: after a round, if the hottest
    /// shard served more than [`IMBALANCE_FACTOR`]× its fair share of the
    /// round's reads, double the shard count (re-partitioning the store)
    /// so the hot keys spread over more shards next round. No-op when
    /// auto-tuning is disabled, the cap is reached, the round issued no
    /// reads — or a previous doubling failed to dilute the hot shard
    /// (irreducible single-hot-key imbalance, which no shard count fixes;
    /// without this check every round would pay a full store copy all the
    /// way to the cap for zero benefit).
    fn retune_shards(&mut self, shard_reads: &[u64]) {
        if !self.auto_shards || self.retune_stalled {
            return;
        }
        let num_shards = self.store.num_shards();
        if num_shards >= MAX_AUTO_SHARDS {
            return;
        }
        let total: u64 = shard_reads.iter().sum();
        let hottest = shard_reads.iter().copied().max().unwrap_or(0);
        if total == 0 || hottest * num_shards as u64 <= IMBALANCE_FACTOR * total {
            return;
        }
        let share = hottest as f64 / total as f64;
        if let Some(previous) = self.last_hot_share {
            if share >= RETUNE_IMPROVEMENT * previous {
                self.retune_stalled = true;
                return;
            }
        }
        self.last_hot_share = Some(share);
        let doubled = (num_shards * 2).min(MAX_AUTO_SHARDS);
        let _span = span_on(self.trace.as_deref(), "backend.retune", "backend")
            .with_arg("from_shards", num_shards as u64)
            .with_arg("to_shards", doubled as u64);
        self.store = ShardedStore::from_store(self.store.to_data_store(), doubled);
    }
}

impl AmpcBackend for ParallelBackend {
    fn config(&self) -> &AmpcConfig {
        &self.config
    }

    fn metrics(&self) -> &AmpcMetrics {
        &self.metrics
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.store.peek(key)
    }

    fn store_len(&self) -> usize {
        self.store.len()
    }

    fn snapshot_store(&self) -> DataStore {
        self.store.to_data_store()
    }

    fn load_store(&mut self, entries: Vec<(Key, Value)>) {
        for (key, value) in entries {
            self.store.insert(key, value);
        }
    }

    fn run_round(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        carry_forward: bool,
        body: &RoundBody<'_>,
    ) -> Result<RoundReport, ModelError> {
        let round = self.metrics.num_rounds();
        faults::supervise(round, |attempt| {
            self.attempt_round(machines, policy, carry_forward, body, attempt)
        })
    }

    fn into_parts(self: Box<Self>) -> (DataStore, AmpcMetrics) {
        (self.store.to_data_store(), self.metrics)
    }

    fn name(&self) -> &'static str {
        "parallel"
    }

    fn set_trace(&mut self, trace: Option<Arc<TraceContext>>) {
        self.trace = trace;
    }
}

impl ParallelBackend {
    /// One attempt at one round. Commits to `self` (store, metrics, shard
    /// retune) only at the very end, so a panic, injected failure or
    /// deadline overrun anywhere earlier leaves the backend byte-identical
    /// to its pre-round state — which is what makes a retry a clean replay.
    fn attempt_round(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        carry_forward: bool,
        body: &RoundBody<'_>,
        attempt: &Attempt<'_>,
    ) -> Result<RoundReport, AttemptFailure> {
        let started = Instant::now();
        // Guards borrow the context, so hold the Arc in a local: `self`
        // must stay mutably borrowable for the retune below.
        let trace = self.trace.clone();
        let _round_span = span_on(trace.as_deref(), "backend.round", "backend")
            .with_arg("round", self.metrics.num_rounds() as u64)
            .with_arg("machines", machines as u64);
        let pool_before = self.pool.stats();
        // Hardware counters use the same before/after idiom as the pool
        // stats — a process-wide snapshot of every registered thread's
        // counter group, all-zero when sampling is unavailable.
        let perf_before = crate::perf::snapshot();
        let read_budget = self.config.read_budget();
        let write_budget = self.config.write_budget();
        self.store.reset_read_counts();

        let mut outcomes = {
            let _span = span_on(trace.as_deref(), "backend.execute", "backend")
                .with_arg("machines", machines as u64);
            self.execute_machines(machines, body, read_budget, write_budget, attempt)
        };

        // Injected merge failure: the whole merge phase of this attempt is
        // declared lost before it starts.
        attempt.before_merge();

        // Error precedence replays the sequential executor's event order:
        // it runs machine m's body and then merges m's writes before
        // touching machine m + 1, so a merge conflict among machines below
        // the lowest failing body still fires first. Restrict the merge to
        // writes of machines below the lowest body failure; a conflict
        // found there wins, otherwise the body error does.
        let body_error = outcomes
            .iter()
            .filter_map(|o| o.error.clone())
            .min_by_key(|&(machine, _)| machine);
        if let Some((failing_machine, error)) = body_error {
            for outcome in &mut outcomes {
                for bucket in &mut outcome.per_shard {
                    bucket.retain(|&(machine, ..)| machine < failing_machine);
                }
            }
            self.merge_shards(&outcomes, policy, carry_forward)
                .map_err(AttemptFailure::Fatal)?;
            return Err(AttemptFailure::Fatal(error));
        }

        let (next_shards, shard_writes, conflict_merges) = {
            let _span = span_on(trace.as_deref(), "backend.merge", "backend")
                .with_arg("shards", self.store.num_shards() as u64);
            self.merge_shards(&outcomes, policy, carry_forward)
                .map_err(AttemptFailure::Fatal)?
        };

        // Deadline check before anything commits: an overrunning attempt
        // is discarded whole, exactly like a panicked one.
        attempt.check_deadline()?;

        let shard_reads = self.store.read_counts();
        self.store.replace_shards(next_shards);

        let mut report = RoundReport::from_measurements(
            self.metrics.num_rounds(),
            machines,
            outcomes.iter().map(|o| o.max_reads).max().unwrap_or(0),
            outcomes.iter().map(|o| o.max_writes).max().unwrap_or(0),
            outcomes.iter().map(|o| o.total_reads).sum(),
            outcomes.iter().map(|o| o.total_writes).sum(),
            0,
        );
        report.store_words = self.store.space_in_words();
        self.metrics.record(report.clone());
        let pool_after = self.pool.stats();
        let perf = crate::perf::snapshot().saturating_delta(&perf_before);
        self.metrics.record_runtime(RoundRuntimeStats {
            wall_clock_nanos: started.elapsed().as_nanos() as u64,
            conflict_merges,
            shard_reads: shard_reads.clone(),
            shard_writes,
            pool_tasks_per_worker: pool_delta(&pool_before, &pool_after),
            pool_idle_nanos: pool_after
                .total_idle_nanos()
                .saturating_sub(pool_before.total_idle_nanos()),
            pool_steals: pool_after.steals.saturating_sub(pool_before.steals),
            pool_overflows: pool_after.overflows.saturating_sub(pool_before.overflows),
            auto_shards: if self.auto_shards {
                self.store.num_shards()
            } else {
                0
            },
            cycles: perf.cycles,
            instructions: perf.instructions,
            cache_references: perf.cache_references,
            cache_misses: perf.cache_misses,
            branch_misses: perf.branch_misses,
            ..RoundRuntimeStats::default()
        });
        self.retune_shards(&shard_reads);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SequentialBackend;

    fn config() -> AmpcConfig {
        AmpcConfig::for_input_size(256, 0.5)
    }

    fn seeded_store(n: u64) -> DataStore {
        (0..n)
            .map(|i| (Key::single(i), Value::single(i * 7 % 13)))
            .collect()
    }

    /// Two adaptive rounds with duplicate writes, run on both backends.
    fn run_program(
        backend: &mut dyn AmpcBackend,
        machines: usize,
        policy: ConflictPolicy,
    ) -> Result<DataStore, ModelError> {
        backend.round(machines, policy, |machine, ctx| {
            // Adaptive chain: read own key, then the key it points at.
            let own = ctx.read(Key::single(machine as u64))?.unwrap();
            let other = ctx.read(Key::single(own.words()[0]))?;
            let derived = other.map_or(1, |v| v.words()[0] + 1);
            // Duplicate-key writes: machines collide modulo 5.
            ctx.write(Key::single((machine % 5) as u64), Value::single(derived))?;
            ctx.write(Key::pair(1, machine as u64), Value::single(machine as u64))
        })?;
        backend.round_carrying_forward(machines, policy, |machine, ctx| {
            if let Some(v) = ctx.read(Key::pair(1, machine as u64))? {
                ctx.write(
                    Key::pair(2, machine as u64),
                    Value::single(v.words()[0] * 2),
                )?;
            }
            Ok(())
        })?;
        Ok(backend.snapshot_store())
    }

    #[test]
    fn parallel_matches_sequential_for_every_policy() {
        for policy in [
            ConflictPolicy::KeepMin,
            ConflictPolicy::KeepMax,
            ConflictPolicy::KeepFirst,
        ] {
            let mut seq: Box<dyn AmpcBackend> =
                Box::new(SequentialBackend::new(config(), seeded_store(64)));
            let sequential = run_program(seq.as_mut(), 64, policy).unwrap();
            for threads in [1usize, 3, 4] {
                for shards in [1usize, 2, 8] {
                    let mut par: Box<dyn AmpcBackend> = Box::new(ParallelBackend::new(
                        config(),
                        seeded_store(64),
                        threads,
                        shards,
                    ));
                    let parallel = run_program(par.as_mut(), 64, policy).unwrap();
                    assert_eq!(
                        sequential, parallel,
                        "policy {policy:?}, threads {threads}, shards {shards}"
                    );
                    assert_eq!(par.metrics().num_rounds(), 2);
                }
            }
        }
    }

    #[test]
    fn metrics_agree_with_sequential() {
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(config(), seeded_store(32)));
        let mut par: Box<dyn AmpcBackend> =
            Box::new(ParallelBackend::new(config(), seeded_store(32), 4, 4));
        run_program(seq.as_mut(), 32, ConflictPolicy::KeepMin).unwrap();
        run_program(par.as_mut(), 32, ConflictPolicy::KeepMin).unwrap();
        // AmpcMetrics equality compares the model-level reports only.
        assert_eq!(seq.metrics(), par.metrics());
        let stats = &par.metrics().runtime_stats()[0];
        assert_eq!(stats.shard_reads.len(), 4);
        assert_eq!(stats.shard_writes.len(), 4);
        assert!(stats.shard_reads.iter().sum::<u64>() > 0);
        assert!(stats.conflict_merges > 0, "machines collide modulo 5");
        assert_eq!(
            stats.conflict_merges,
            seq.metrics().runtime_stats()[0].conflict_merges
        );
    }

    #[test]
    fn pool_reuse_stats_are_recorded_but_excluded_from_equality() {
        // A dedicated pool so other tests' global-pool traffic cannot leak
        // into the deltas.
        let pool = Arc::new(WorkerPool::new(2));
        let mut par: Box<dyn AmpcBackend> = Box::new(ParallelBackend::with_pool(
            config(),
            seeded_store(64),
            4,
            4,
            Arc::clone(&pool),
        ));
        run_program(par.as_mut(), 64, ConflictPolicy::KeepMin).unwrap();
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(config(), seeded_store(64)));
        run_program(seq.as_mut(), 64, ConflictPolicy::KeepMin).unwrap();

        // Every parallel round reports a delta slot per persistent worker;
        // the sequential reference reports none.
        for stats in par.metrics().runtime_stats() {
            assert_eq!(stats.pool_tasks_per_worker.len(), pool.num_workers());
        }
        for stats in seq.metrics().runtime_stats() {
            assert!(stats.pool_tasks_per_worker.is_empty());
            assert_eq!(stats.pool_idle_nanos, 0);
        }
        // Across the whole run, every executed pool task is accounted to a
        // worker or to the helping submitter, and the recorded per-round
        // worker deltas never exceed the pool's cumulative totals.
        let pool_stats = pool.stats();
        assert!(pool_stats.total_tasks() > 0, "rounds must use the pool");
        let recorded_worker_tasks: u64 = par
            .metrics()
            .runtime_stats()
            .iter()
            .map(|s| s.pool_tasks_per_worker.iter().sum::<u64>())
            .sum();
        assert!(recorded_worker_tasks <= pool_stats.tasks_per_worker.iter().sum::<u64>());
        // Reuse stats are measurements: metric equality ignores them.
        assert_eq!(seq.metrics(), par.metrics());
        let combined = par.metrics().runtime_stats()[0].combine(&par.metrics().runtime_stats()[1]);
        assert_eq!(
            combined.pool_tasks_per_worker.len(),
            pool.num_workers(),
            "combine keeps per-worker slots"
        );
    }

    #[test]
    fn auto_shard_tuning_grows_under_imbalance_and_stays_bit_identical() {
        // Every machine hammers one hot key, so whichever shard owns it
        // serves (almost) all reads: maximal imbalance. The auto-tuner
        // must double the shard count between rounds — and the store must
        // stay bit-identical to the sequential reference throughout,
        // because shard counts only spread load.
        let hot_rounds = |backend: &mut dyn AmpcBackend| -> DataStore {
            for round in 0..4u64 {
                backend
                    .round_carrying_forward(32, ConflictPolicy::KeepMin, |machine, ctx| {
                        let hot = ctx.read(Key::single(0))?.map_or(0, |v| v.words()[0]);
                        ctx.write(
                            Key::pair(round + 1, machine as u64),
                            Value::single(hot + machine as u64),
                        )
                    })
                    .expect("budgets are generous");
            }
            backend.snapshot_store()
        };
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(config(), seeded_store(8)));
        let expected = hot_rounds(seq.as_mut());

        let runtime = crate::RuntimeConfig::parallel()
            .with_threads(2)
            .with_shards(0);
        assert!(runtime.auto_shards());
        let mut auto = runtime.backend(config(), seeded_store(8));
        let actual = hot_rounds(auto.as_mut());
        assert_eq!(expected, actual, "auto-sharding never changes results");

        let recorded: Vec<usize> = auto
            .metrics()
            .runtime_stats()
            .iter()
            .map(|stats| stats.auto_shards)
            .collect();
        assert!(
            recorded.iter().all(|&shards| shards > 0),
            "auto runs log the chosen shard count per round: {recorded:?}"
        );
        assert!(
            recorded.last() > recorded.first(),
            "a fully imbalanced read load must grow the shard count: {recorded:?}"
        );
        // One hot key is *irreducible* imbalance: after the first doubling
        // fails to dilute the hot shard, the tuner stalls instead of
        // paying a full store re-partition every round up to the cap.
        assert_eq!(
            recorded.last(),
            recorded.get(1),
            "the tuner must stop doubling once doubling stops helping: {recorded:?}"
        );
        // Fixed-shard runs log 0 (not auto-tuned).
        let mut fixed: Box<dyn AmpcBackend> =
            Box::new(ParallelBackend::new(config(), seeded_store(8), 2, 4));
        let _ = hot_rounds(fixed.as_mut());
        assert!(fixed
            .metrics()
            .runtime_stats()
            .iter()
            .all(|stats| stats.auto_shards == 0));
    }

    #[test]
    fn steal_and_overflow_deltas_are_recorded_per_round() {
        // A dedicated pool so other tests' traffic cannot leak in.
        let pool = Arc::new(WorkerPool::new(2));
        let mut par: Box<dyn AmpcBackend> = Box::new(ParallelBackend::with_pool(
            config(),
            seeded_store(64),
            4,
            4,
            Arc::clone(&pool),
        ));
        run_program(par.as_mut(), 64, ConflictPolicy::KeepMin).unwrap();
        let pool_stats = pool.stats();
        for stats in par.metrics().runtime_stats() {
            assert!(stats.pool_steals <= pool_stats.steals);
            assert!(stats.pool_overflows <= pool_stats.overflows);
        }
    }

    #[test]
    fn error_policy_reports_the_first_conflict() {
        let run = |backend: &mut dyn AmpcBackend| {
            backend.round(16, ConflictPolicy::Error, |machine, ctx| {
                // All machines write a different value to the same key.
                ctx.write(Key::single(9), Value::single(machine as u64))
            })
        };
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(config(), DataStore::new()));
        let mut par: Box<dyn AmpcBackend> =
            Box::new(ParallelBackend::new(config(), DataStore::new(), 4, 4));
        let a = run(seq.as_mut()).unwrap_err();
        let b = run(par.as_mut()).unwrap_err();
        assert_eq!(a, b);
        assert!(matches!(a, ModelError::WriteConflict { .. }));
    }

    #[test]
    fn budget_violations_report_the_lowest_machine() {
        let tight = AmpcConfig::for_input_size(16, 0.5); // budget 4
        let run = |backend: &mut dyn AmpcBackend| {
            backend.round(12, ConflictPolicy::KeepMin, |machine, ctx| {
                // Machines 3, 7, 11 over-read; 3 must win on both backends.
                let reads = if machine % 4 == 3 { 100 } else { 1 };
                for i in 0..reads {
                    ctx.read(Key::single(i))?;
                }
                Ok(())
            })
        };
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(tight, DataStore::new()));
        let mut par: Box<dyn AmpcBackend> =
            Box::new(ParallelBackend::new(tight, DataStore::new(), 4, 2));
        let a = run(seq.as_mut()).unwrap_err();
        let b = run(par.as_mut()).unwrap_err();
        assert_eq!(a, b);
        assert_eq!(
            a,
            ModelError::ReadBudgetExceeded {
                machine: 3,
                budget: 4
            }
        );
    }

    #[test]
    fn early_write_conflict_outranks_later_body_error() {
        // Sequential event order: machine 3's conflicting write merges
        // before machine 5's body ever runs, so WriteConflict must win on
        // both backends even though a body error exists at machine 5.
        let tight = AmpcConfig::for_input_size(16, 0.5); // budget 4
        let run = |backend: &mut dyn AmpcBackend| {
            backend.round(8, ConflictPolicy::Error, |machine, ctx| {
                if machine == 2 || machine == 3 {
                    ctx.write(Key::single(9), Value::single(machine as u64))?;
                }
                if machine == 5 {
                    for i in 0..100 {
                        ctx.read(Key::single(i))?;
                    }
                }
                Ok(())
            })
        };
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(tight, DataStore::new()));
        let mut par: Box<dyn AmpcBackend> =
            Box::new(ParallelBackend::new(tight, DataStore::new(), 4, 4));
        let a = run(seq.as_mut()).unwrap_err();
        let b = run(par.as_mut()).unwrap_err();
        assert_eq!(a, b);
        assert!(matches!(a, ModelError::WriteConflict { .. }));

        // Mirror case: the body error strikes at machine 1, before the
        // conflicting writes of machines 2/3 — now it must win.
        let run = |backend: &mut dyn AmpcBackend| {
            backend.round(8, ConflictPolicy::Error, |machine, ctx| {
                if machine == 2 || machine == 3 {
                    ctx.write(Key::single(9), Value::single(machine as u64))?;
                }
                if machine == 1 {
                    for i in 0..100 {
                        ctx.read(Key::single(i))?;
                    }
                }
                Ok(())
            })
        };
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(tight, DataStore::new()));
        let mut par: Box<dyn AmpcBackend> =
            Box::new(ParallelBackend::new(tight, DataStore::new(), 4, 4));
        let a = run(seq.as_mut()).unwrap_err();
        let b = run(par.as_mut()).unwrap_err();
        assert_eq!(a, b);
        assert_eq!(
            a,
            ModelError::ReadBudgetExceeded {
                machine: 1,
                budget: 4
            }
        );
    }

    #[test]
    fn failed_rounds_leave_no_trace() {
        let mut par: Box<dyn AmpcBackend> =
            Box::new(ParallelBackend::new(config(), seeded_store(8), 2, 2));
        let before = par.snapshot_store();
        let err = par.round(8, ConflictPolicy::Error, |machine, ctx| {
            ctx.write(Key::single(0), Value::single(machine as u64))
        });
        assert!(err.is_err());
        assert_eq!(par.snapshot_store(), before);
        assert_eq!(par.metrics().num_rounds(), 0);
    }
}

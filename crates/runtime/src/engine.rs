//! The AMPC round engine: one dense `node → layer` store, min-merged.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ampc_model::{
    AmpcConfig, AmpcMetrics, Key, MachineContext, ModelError, RoundReport, RoundRuntimeStats,
    StoreRead, Value,
};

use crate::faults::{self, Attempt, AttemptFailure};
use crate::pool::{chunk_ranges, PoolStats, ScopedTask, WorkerPool};
use crate::trace::{span_on, TraceContext};

/// The empty-slot marker of the layer arrays: every stored layer lies
/// strictly below it.
const EMPTY: u32 = u32::MAX;

/// The previous round's layer array as the store machines read from:
/// `Key::single(i)` resolves to slot `i`, every other key is absent.
struct Layers<'a>(&'a [AtomicU32]);

impl StoreRead for Layers<'_> {
    fn read(&self, key: Key) -> Option<Value> {
        let &[node] = key.words() else {
            return None;
        };
        let layer = self
            .0
            .get(usize::try_from(node).ok()?)?
            .load(Ordering::Relaxed);
        (layer != EMPTY).then(|| Value::single(u64::from(layer)))
    }
}

/// Min-merges one buffered write into the next round's array and returns
/// the slot's previous content ([`EMPTY`] when this write created the
/// entry).
///
/// # Panics
///
/// When the write breaks the engine's contract: the key must be
/// `Key::single(i)` with `i` below the round's machine count, the value
/// `Value::single(layer)` with `layer` below the `u32` sentinel.
fn merge_write(next: &[AtomicU32], key: Key, value: Value) -> u32 {
    let (&[node], &[layer]) = (key.words(), value.words()) else {
        panic!("round engine writes are Key::single(node) -> Value::single(layer), got {key:?} -> {value:?}");
    };
    let slot = usize::try_from(node)
        .ok()
        .and_then(|node| next.get(node))
        .unwrap_or_else(|| {
            panic!(
                "round engine write to node {node} outside the round's {} machines",
                next.len()
            )
        });
    assert!(
        layer < u64::from(EMPTY),
        "round engine layer {layer} of node {node} does not fit below the u32 sentinel"
    );
    slot.fetch_min(layer as u32, Ordering::Relaxed)
}

/// One chunk's state, reused across rounds: its machines' write buffer and
/// what they measured (or where the chunk stopped).
#[derive(Default)]
struct Chunk {
    writes: Vec<(Key, Value)>,
    max_reads: usize,
    total_reads: usize,
    max_writes: usize,
    total_writes: usize,
    /// Writes that landed on an already written slot.
    merges: usize,
    /// The chunk's first (= lowest) failing machine.
    error: Option<(usize, ModelError)>,
}

impl Chunk {
    /// Runs the machines of `range` in order through one body from
    /// `chunk`, min-merging each machine's writes into `next` right after
    /// it returns; stops at the first error.
    fn run<M, B>(
        &mut self,
        range: Range<usize>,
        chunk: &M,
        input: &Layers<'_>,
        next: &[AtomicU32],
        (read_budget, write_budget): (usize, usize),
        attempt: &Attempt<'_>,
    ) where
        M: Fn() -> B,
        B: FnMut(usize, &mut MachineContext<'_>) -> Result<(), ModelError>,
    {
        *self = Chunk {
            writes: std::mem::take(&mut self.writes),
            ..Chunk::default()
        };
        let mut body = chunk();
        for machine in range {
            attempt.before_machine(machine);
            let mut ctx = MachineContext::for_round(
                machine,
                input,
                read_budget,
                write_budget,
                &mut self.writes,
            );
            if let Err(error) = body(machine, &mut ctx) {
                self.error = Some((machine, error));
                return;
            }
            let (reads, writes) = (ctx.reads_used(), ctx.writes_used());
            self.max_reads = self.max_reads.max(reads);
            self.total_reads += reads;
            self.max_writes = self.max_writes.max(writes);
            self.total_writes += writes;
            for &(key, value) in &self.writes {
                self.merges += usize::from(merge_write(next, key, value) != EMPTY);
            }
        }
    }
}

/// Runs the AMPC rounds of the β-partition: every machine writes
/// `node → layer` entries and the next store keeps the minimum layer per
/// node, the "global minimum function" of Remark 4.8 (Lemma 4.10).
///
/// The store is a dense `u32` array indexed by node. Machines run in
/// consecutive id ranges, one task per thread on a persistent
/// [`WorkerPool`] (a single range runs inline on the calling thread), each
/// through a [`MachineContext`] with the model's read and write budgets,
/// which are computed once per round (they are constant within it), not
/// once per machine.
/// A range gets its machine body from a per-chunk factory, so the scratch
/// its machines reuse (the partition's coin-game state) is leased once per
/// range, not once per machine. Right after a machine's body returns, each
/// of its buffered writes becomes one `fetch_min` on the next round's
/// array; reads resolve against the previous round's array. Min is
/// commutative, so the result does not depend on the thread count or on
/// the order in which writes land; a failing round returns the error of
/// its lowest failing machine, exactly as the sequential
/// [`ampc_model::AmpcExecutor`] under
/// [`ampc_model::ConflictPolicy::KeepMin`] does.
///
/// Every round runs under the crate's fault supervisor (injection,
/// deadline, bounded retry). An attempt writes only the scratch array and
/// commits by swapping it in after the deadline check, so a failed or
/// overrun attempt leaves no trace at any thread count.
pub struct RoundEngine {
    config: AmpcConfig,
    threads: usize,
    pool: Arc<WorkerPool>,
    /// The last committed round's layers ([`EMPTY`] = no entry).
    layers: Vec<AtomicU32>,
    /// Nodes holding a layer in `layers`.
    layered: usize,
    /// The next round's array; reset at the start of every attempt.
    next: Vec<AtomicU32>,
    /// Per-chunk state, reused across rounds.
    chunks: Vec<Chunk>,
    /// Pool counters at the start and end of the last round.
    pool_before: PoolStats,
    pool_after: PoolStats,
    metrics: AmpcMetrics,
    trace: Option<Arc<TraceContext>>,
}

impl RoundEngine {
    /// An engine with an empty store that splits each round into up to
    /// `threads` chunks (at least 1) on the process-wide
    /// [`WorkerPool::global`] pool.
    pub fn new(config: AmpcConfig, threads: usize) -> Self {
        RoundEngine::with_pool(config, threads, Arc::clone(WorkerPool::global()))
    }

    /// Like [`RoundEngine::new`], on a caller-owned pool.
    pub fn with_pool(config: AmpcConfig, threads: usize, pool: Arc<WorkerPool>) -> Self {
        RoundEngine {
            config,
            threads: threads.max(1),
            pool,
            layers: Vec::new(),
            layered: 0,
            next: Vec::new(),
            chunks: Vec::new(),
            pool_before: PoolStats::default(),
            pool_after: PoolStats::default(),
            metrics: AmpcMetrics::default(),
            trace: None,
        }
    }

    /// Attaches a span recorder: every round emits `backend.round`,
    /// `backend.execute` and `backend.merge` spans into it. Tracing is
    /// measurement-only.
    pub fn with_trace(mut self, trace: Option<Arc<TraceContext>>) -> Self {
        self.trace = trace;
        self
    }

    /// Round reports plus one [`RoundRuntimeStats`] row per round.
    pub fn metrics(&self) -> &AmpcMetrics {
        &self.metrics
    }

    /// The layer the last round stored for `node`, if any.
    pub fn layer(&self, node: usize) -> Option<u32> {
        let layer = self.layers.get(node)?.load(Ordering::Relaxed);
        (layer != EMPTY).then_some(layer)
    }

    /// Number of nodes the last round stored a layer for.
    pub fn layered(&self) -> usize {
        self.layered
    }

    /// Runs one round of `machines` machines. Machine `m` reads the last
    /// round's layers and writes `Key::single(node) → Value::single(layer)`
    /// with `node < machines`; the next store holds, per written node, the
    /// minimum layer written for it.
    ///
    /// `chunk` is called once per consecutive range of machines in every
    /// attempt (once per attempt at one thread) and returns the body that
    /// runs each machine of that range in id order. It is where a round
    /// leases the scratch its machines reuse: the body must still compute
    /// each machine's writes from the machine id and the store alone, so
    /// it resets that scratch per machine.
    ///
    /// # Errors
    ///
    /// The budget violation or body error of the lowest failing machine,
    /// or a supervision failure ([`ModelError::RoundPanicked`],
    /// [`ModelError::RoundDeadlineExceeded`]). The store and metrics are
    /// then unchanged.
    ///
    /// # Panics
    ///
    /// When a machine writes a key or value outside the contract above.
    pub fn round<M, B>(&mut self, machines: usize, chunk: M) -> Result<RoundReport, ModelError>
    where
        M: Fn() -> B + Sync,
        B: FnMut(usize, &mut MachineContext<'_>) -> Result<(), ModelError>,
    {
        faults::supervise(self.metrics.num_rounds(), |attempt| {
            self.attempt(machines, &chunk, attempt)
        })
    }

    /// One attempt at one round. Touches only `next` and the chunk state
    /// until the final commit, so any earlier exit leaves no trace.
    fn attempt<M, B>(
        &mut self,
        machines: usize,
        chunk: &M,
        attempt: &Attempt<'_>,
    ) -> Result<RoundReport, AttemptFailure>
    where
        M: Fn() -> B + Sync,
        B: FnMut(usize, &mut MachineContext<'_>) -> Result<(), ModelError>,
    {
        let started = Instant::now();
        let trace = self.trace.clone();
        let _round_span = span_on(trace.as_deref(), "backend.round", "backend")
            .with_arg("round", self.metrics.num_rounds() as u64)
            .with_arg("machines", machines as u64);
        self.pool.stats_into(&mut self.pool_before);
        let perf_before = crate::perf::snapshot();

        self.next.clear();
        self.next.resize_with(machines, || AtomicU32::new(EMPTY));
        let ranges = chunk_ranges(machines, self.threads);
        if self.chunks.len() < ranges.len() {
            self.chunks.resize_with(ranges.len(), Chunk::default);
        }
        let chunks = &mut self.chunks[..ranges.len()];
        {
            let _span = span_on(trace.as_deref(), "backend.execute", "backend")
                .with_arg("machines", machines as u64);
            let input = &Layers(&self.layers);
            let next = &self.next[..];
            // The budgets are constant within a round, and each is a `powf`.
            let budgets = (self.config.read_budget(), self.config.write_budget());
            let tasks: Vec<ScopedTask<'_>> = chunks
                .iter_mut()
                .zip(ranges)
                .map(|(state, range)| {
                    Box::new(move || state.run(range, chunk, input, next, budgets, attempt))
                        as ScopedTask<'_>
                })
                .collect();
            self.pool.execute(tasks);
        }

        // Injected merge failure: the attempt is lost before it commits.
        attempt.before_merge();
        if let Some((_, error)) = chunks
            .iter_mut()
            .filter_map(|chunk| chunk.error.take())
            .min_by_key(|&(machine, _)| machine)
        {
            return Err(AttemptFailure::Fatal(error));
        }
        // Deadline check before anything commits: an overrunning attempt
        // is discarded whole, exactly like a panicked one.
        attempt.check_deadline()?;

        let _merge_span = span_on(trace.as_deref(), "backend.merge", "backend")
            .with_arg("machines", machines as u64);
        let merges: usize = chunks.iter().map(|chunk| chunk.merges).sum();
        let total_writes: usize = chunks.iter().map(|chunk| chunk.total_writes).sum();
        std::mem::swap(&mut self.layers, &mut self.next);
        self.layered = total_writes - merges;
        let report = RoundReport::from_measurements(
            self.metrics.num_rounds(),
            machines,
            chunks
                .iter()
                .map(|chunk| chunk.max_reads)
                .max()
                .unwrap_or(0),
            chunks
                .iter()
                .map(|chunk| chunk.max_writes)
                .max()
                .unwrap_or(0),
            chunks.iter().map(|chunk| chunk.total_reads).sum(),
            total_writes,
            // One key word plus one value word per stored node.
            2 * self.layered,
        );
        self.metrics.record(report.clone());
        self.pool.stats_into(&mut self.pool_after);
        let (before, after) = (&self.pool_before, &self.pool_after);
        let perf = crate::perf::snapshot().saturating_delta(&perf_before);
        self.metrics.record_runtime(RoundRuntimeStats {
            wall_clock_nanos: started.elapsed().as_nanos() as u64,
            conflict_merges: merges,
            pool_tasks_per_worker: after
                .tasks_per_worker
                .iter()
                .zip(&before.tasks_per_worker)
                .map(|(&now, &then)| now.saturating_sub(then))
                .collect(),
            pool_idle_nanos: after
                .total_idle_nanos()
                .saturating_sub(before.total_idle_nanos()),
            pool_steals: after.steals.saturating_sub(before.steals),
            pool_overflows: after.overflows.saturating_sub(before.overflows),
            cycles: perf.cycles,
            instructions: perf.instructions,
            cache_references: perf.cache_references,
            cache_misses: perf.cache_misses,
            branch_misses: perf.branch_misses,
            ..RoundRuntimeStats::default()
        });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchPool;
    use ampc_model::{AmpcExecutor, ConflictPolicy, DataStore};

    fn config() -> AmpcConfig {
        AmpcConfig::for_input_size(256, 0.5)
    }

    /// Round `round` of a two-round program with colliding writes; round 1
    /// reads round 0's layers.
    fn body(
        round: usize,
        machines: usize,
    ) -> impl Fn(usize, &mut MachineContext<'_>) -> Result<(), ModelError> + Sync + Copy {
        move |machine, ctx| {
            if round == 0 {
                ctx.write(
                    Key::single((machine % 5) as u64),
                    Value::single((machine * 7 % 13) as u64),
                )?;
                return ctx.write(Key::single(machine as u64), Value::single(machine as u64));
            }
            let own = ctx
                .read(Key::single(machine as u64))?
                .map_or(0, |v| v.words()[0]);
            ctx.write(
                Key::single((own as usize % machines) as u64),
                Value::single(own + 1),
            )
        }
    }

    fn run_engine(engine: &mut RoundEngine, machines: usize) {
        for round in 0..2 {
            engine.round(machines, || body(round, machines)).unwrap();
        }
    }

    #[test]
    fn metrics_agree_with_sequential() {
        let mut executor = AmpcExecutor::new(config(), DataStore::new());
        for round in 0..2 {
            executor
                .round(32, ConflictPolicy::KeepMin, body(round, 32))
                .unwrap();
        }
        for threads in [1, 4] {
            let mut engine = RoundEngine::new(config(), threads);
            run_engine(&mut engine, 32);
            assert_eq!(executor.metrics(), engine.metrics(), "threads {threads}");
            for (ours, reference) in engine
                .metrics()
                .runtime_stats()
                .iter()
                .zip(executor.metrics().runtime_stats())
            {
                assert_eq!(ours.conflict_merges, reference.conflict_merges);
            }
            assert!(engine.metrics().runtime_stats()[0].conflict_merges > 0);
            for node in 0..32 {
                assert_eq!(
                    engine.layer(node).map(u64::from),
                    executor
                        .store()
                        .get(Key::single(node as u64))
                        .map(|v| v.words()[0]),
                    "threads {threads}, node {node}"
                );
            }
            assert_eq!(engine.layered(), executor.store().len());
        }
    }

    #[test]
    fn pool_reuse_stats_are_recorded_but_excluded_from_equality() {
        // A dedicated pool so other tests' global-pool traffic cannot leak
        // into the deltas.
        let pool = Arc::new(WorkerPool::new(2));
        let mut parallel = RoundEngine::with_pool(config(), 4, Arc::clone(&pool));
        run_engine(&mut parallel, 64);
        let mut inline = RoundEngine::with_pool(config(), 1, Arc::clone(&pool));
        run_engine(&mut inline, 64);

        // Every round reports a delta slot per persistent worker; a single
        // chunk runs inline and gives the workers nothing to do.
        for stats in parallel.metrics().runtime_stats() {
            assert_eq!(stats.pool_tasks_per_worker.len(), pool.num_workers());
        }
        for stats in inline.metrics().runtime_stats() {
            assert_eq!(stats.pool_tasks_per_worker.iter().sum::<u64>(), 0);
        }
        // Across the whole run, the recorded per-round worker deltas never
        // exceed the pool's cumulative totals.
        let pool_stats = pool.stats();
        assert!(pool_stats.total_tasks() > 0, "rounds must use the pool");
        let recorded_worker_tasks: u64 = parallel
            .metrics()
            .runtime_stats()
            .iter()
            .map(|s| s.pool_tasks_per_worker.iter().sum::<u64>())
            .sum();
        assert!(recorded_worker_tasks <= pool_stats.tasks_per_worker.iter().sum::<u64>());
        // Reuse stats are measurements: metric equality ignores them.
        assert_eq!(inline.metrics(), parallel.metrics());
        let runtime = parallel.metrics().runtime_stats();
        assert_eq!(
            runtime[0].combine(&runtime[1]).pool_tasks_per_worker.len(),
            pool.num_workers(),
            "combine keeps per-worker slots"
        );
    }

    #[test]
    fn steal_and_overflow_deltas_are_recorded_per_round() {
        // A dedicated pool so other tests' traffic cannot leak in.
        let pool = Arc::new(WorkerPool::new(2));
        let mut engine = RoundEngine::with_pool(config(), 4, Arc::clone(&pool));
        run_engine(&mut engine, 64);
        let pool_stats = pool.stats();
        for stats in engine.metrics().runtime_stats() {
            assert!(stats.pool_steals <= pool_stats.steals);
            assert!(stats.pool_overflows <= pool_stats.overflows);
        }
    }

    #[test]
    fn budget_violations_report_the_lowest_machine() {
        let tight = AmpcConfig::for_input_size(16, 0.5); // budget 4
        let body = |machine: usize, ctx: &mut MachineContext<'_>| {
            // Machines 3, 7, 11 over-read; 3 must win at every thread count.
            let reads = if machine % 4 == 3 { 100 } else { 1 };
            for i in 0..reads {
                ctx.read(Key::single(i))?;
            }
            Ok(())
        };
        let expected = ModelError::ReadBudgetExceeded {
            machine: 3,
            budget: 4,
        };
        let mut executor = AmpcExecutor::new(tight, DataStore::new());
        assert_eq!(
            executor
                .round(12, ConflictPolicy::KeepMin, body)
                .unwrap_err(),
            expected
        );
        for threads in [1, 2, 4] {
            let mut engine = RoundEngine::new(tight, threads);
            assert_eq!(engine.round(12, || body).unwrap_err(), expected);
        }
    }

    #[test]
    fn failed_rounds_leave_no_trace() {
        for threads in [1, 2] {
            let mut engine = RoundEngine::new(config(), threads);
            engine
                .round(8, || {
                    |machine, ctx| ctx.write(Key::single(machine as u64), Value::single(1))
                })
                .unwrap();
            let error = engine.round(8, || {
                |machine, ctx| {
                    ctx.write(Key::single(machine as u64), Value::single(0))?;
                    if machine == 5 {
                        return Err(ModelError::RoundPanicked {
                            round: 1,
                            detail: "body failed".to_string(),
                        });
                    }
                    Ok(())
                }
            });
            assert!(error.is_err());
            assert!((0..8).all(|node| engine.layer(node) == Some(1)));
            assert_eq!(engine.layered(), 8);
            assert_eq!(engine.metrics().num_rounds(), 1);
            assert_eq!(engine.metrics().runtime_stats().len(), 1);
        }
    }

    #[test]
    fn a_round_leases_chunk_scratch_once_per_chunk() {
        let scratch = ScratchPool::<Vec<u64>>::new();
        let leases = || scratch.counters().reuses() + scratch.counters().allocs();
        for threads in [1, 2, 4] {
            let mut engine = RoundEngine::new(AmpcConfig::for_input_size(10_000, 0.5), threads);
            let before = leases();
            engine
                .round(10_000, || {
                    let mut seen = scratch.lease();
                    move |machine, ctx| {
                        seen.clear();
                        seen.push(machine as u64 % 7);
                        ctx.write(Key::single(machine as u64), Value::single(seen[0]))
                    }
                })
                .unwrap();
            assert!((0..10_000).all(|node| engine.layer(node) == Some(node as u32 % 7)));
            let taken = leases() - before;
            let chunks = chunk_ranges(10_000, threads).len() as u64;
            assert!(
                (1..=chunks).contains(&taken),
                "threads {threads}: {taken} leases for {chunks} chunks"
            );
            if threads == 1 {
                assert_eq!(taken, 1, "an inline round leases once");
            }
        }
    }

    #[test]
    #[should_panic(expected = "round engine writes are Key::single(node)")]
    fn writes_outside_the_contract_panic_with_a_message() {
        let mut engine = RoundEngine::new(config(), 1);
        let _ = engine.round(1, || |_, ctx| ctx.write(Key::pair(0, 0), Value::single(1)));
    }

    #[test]
    #[should_panic(expected = "does not fit below the u32 sentinel")]
    fn layers_are_never_truncated() {
        let mut engine = RoundEngine::new(config(), 1);
        let _ = engine.round(1, || {
            |_, ctx| ctx.write(Key::single(0), Value::single(u64::from(u32::MAX)))
        });
    }
}

//! The multi-process round scheduler: shard workers as child OS
//! processes, with crash supervision and bit-identical recovery.
//!
//! [`ProcessBackend`] is stage 1 of the ROADMAP's distributed backend:
//! the same [`AmpcBackend`] contract as [`crate::ParallelBackend`], but
//! with the shard-merge phase executed by `ampc-shard-worker` **child
//! processes** speaking the length-prefixed [`crate::ipc`] protocol over
//! stdin/stdout pipes. Machine closures cannot cross a process boundary
//! (a [`RoundBody`] is an arbitrary `Fn`), so the supervisor runs the
//! machine bodies in-parent, buffers their writes in global
//! `(machine, write index)` order, streams each worker the batches for
//! its contiguous shard range, and commits the merged shards the workers
//! stream back — the identical merge algorithm, so the bit-identity
//! contract extends across processes.
//!
//! ## Supervision and replay
//!
//! Workers are **stateless between rounds**: every round's merge is a
//! pure function of the streamed request. On any sign of worker death —
//! pipe EOF, a failed write, a response deadline miss, or a non-zero
//! exit — the supervisor SIGKILLs the remains, respawns the child and
//! re-streams the *retained* round input; the replayed merge is
//! byte-identical by purity, so a crash is invisible in the results
//! (PR 9's "failed rounds leave no trace", extended across processes).
//! The `kill` fault kind ([`FaultPlan::worker_killed`]) makes that path
//! deterministically testable by genuinely SIGKILLing the selected
//! worker before its round input is streamed.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ampc_model::{
    AmpcConfig, AmpcMetrics, ConflictPolicy, DataStore, Key, MachineContext, ModelError,
    RoundReport, RoundRuntimeStats, Value,
};

use crate::backend::{AmpcBackend, RoundBody};
use crate::faults::{self, AttemptFailure, FaultPlan};
use crate::ipc::{self, MergeRequest, Request, Response, ShardMergeResult, ShardWrites};
use crate::pool::chunk_ranges;
use crate::shard::{FlatShard, ShardedStore};
use crate::trace::{span_on, TraceContext};

/// A write buffered by one machine, in the global sequential-application
/// order (see [`crate::ParallelBackend`]).
type BufferedWrite = (usize, usize, Key, Value);

/// Consecutive deaths of one worker within one round before the attempt
/// is abandoned (and handed to the round-level bounded retry).
const MAX_WORKER_REPLAYS: u32 = 3;

/// Hang guard on a worker response when no round deadline is configured:
/// a healthy merge answers in microseconds, so a silent worker is dead
/// or wedged long before this trips.
const RESPONSE_HANG_GUARD: Duration = Duration::from_secs(300);

/// Locates the `ampc-shard-worker` binary: the `AMPC_SHARD_WORKER` env
/// var wins, otherwise the directory of the current executable and its
/// parent are searched (covering installed layouts and
/// `target/<profile>/deps/` test binaries).
fn locate_worker_binary() -> Result<PathBuf, String> {
    if let Some(path) = std::env::var_os("AMPC_SHARD_WORKER") {
        let path = PathBuf::from(path);
        return if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "AMPC_SHARD_WORKER={} does not exist",
                path.display()
            ))
        };
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let name = format!("ampc-shard-worker{}", std::env::consts::EXE_SUFFIX);
    let mut searched = Vec::new();
    for dir in [exe.parent(), exe.parent().and_then(std::path::Path::parent)]
        .into_iter()
        .flatten()
    {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        searched.push(candidate);
    }
    Err(format!(
        "ampc-shard-worker binary not found (searched {searched:?}); \
         build it with `cargo build` or point AMPC_SHARD_WORKER at it"
    ))
}

/// One supervised child process: the spawned handle, its stdin pipe, and
/// a reader thread draining its stdout into a channel (so responses can
/// be awaited with a timeout — blocking pipe reads cannot).
struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    frames: mpsc::Receiver<std::io::Result<Vec<u8>>>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Set once a death has been observed (keeps the liveness gauge from
    /// double-counting one corpse).
    dead: bool,
}

impl Worker {
    fn spawn(binary: &PathBuf, index: usize) -> std::io::Result<Worker> {
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let (sender, frames) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name(format!("ampc-shard-io-{index}"))
            .spawn(move || loop {
                match ipc::read_frame(&mut stdout) {
                    Ok(frame) => {
                        if sender.send(Ok(frame)).is_err() {
                            return;
                        }
                    }
                    Err(error) => {
                        let _ = sender.send(Err(error));
                        return;
                    }
                }
            })?;
        faults::note_worker_spawned();
        Ok(Worker {
            child,
            stdin: Some(stdin),
            frames,
            reader: Some(reader),
            dead: false,
        })
    }

    /// OS pid of the child (the direct-`kill(2)` test hook).
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Streams one request frame. A failed write means the child is gone
    /// (EPIPE once a SIGKILLed child's pipe closes).
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "stdin closed"))?;
        ipc::write_frame(stdin, frame)?;
        stdin.flush()
    }

    /// Marks an observed death exactly once (liveness gauge bookkeeping).
    fn note_dead(&mut self) {
        if !self.dead {
            self.dead = true;
            faults::note_worker_death();
        }
    }

    /// SIGKILLs the child (idempotent) and reaps it: kill + wait + join
    /// the reader thread, which exits on the pipe EOF the kill causes.
    fn kill_and_reap(&mut self) {
        self.note_dead();
        let _ = self.child.kill();
        drop(self.stdin.take());
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// The multi-process implementation of [`AmpcBackend`]: machine bodies
/// in-parent, shard merges in supervised `ampc-shard-worker` child
/// processes, results bit-identical to [`crate::SequentialBackend`] for
/// any worker count — including runs where workers are killed mid-round.
pub struct ProcessBackend {
    config: AmpcConfig,
    store: ShardedStore,
    metrics: AmpcMetrics,
    workers: Vec<Worker>,
    binary: PathBuf,
    /// Monotonic dispatch id: stamped into every merge request and echoed
    /// by the worker, so stale frames from superseded dispatches (a late
    /// answer racing a replay) are recognized and discarded.
    dispatch_seq: u64,
    trace: Option<Arc<TraceContext>>,
}

impl std::fmt::Debug for ProcessBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessBackend")
            .field("workers", &self.workers.len())
            .field("shards", &self.store.num_shards())
            .field("store_len", &self.store.len())
            .field("rounds", &self.metrics.num_rounds())
            .finish()
    }
}

impl ProcessBackend {
    /// Spawns a process backend over `initial` with `workers` child
    /// processes (clamped to at least 1) and `4 × workers` store shards,
    /// assigned to workers as contiguous ranges.
    ///
    /// # Panics
    ///
    /// Panics when the `ampc-shard-worker` binary cannot be located (see
    /// `AMPC_SHARD_WORKER`) or a child fails to spawn.
    pub fn new(config: AmpcConfig, initial: DataStore, workers: usize) -> Self {
        let workers = workers.max(1);
        let binary = locate_worker_binary().expect("shard-worker binary must be locatable");
        let children = (0..workers)
            .map(|index| Worker::spawn(&binary, index).expect("shard-worker child must spawn"))
            .collect();
        ProcessBackend {
            config,
            store: ShardedStore::from_store(initial, 4 * workers),
            metrics: AmpcMetrics::default(),
            workers: children,
            binary,
            dispatch_seq: 0,
            trace: None,
        }
    }

    /// Number of shard-worker child processes.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// OS pids of the live children, in worker order — the test hook for
    /// killing a worker directly with `kill(2)`.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.workers.iter().map(Worker::pid).collect()
    }

    /// Replaces a dead worker with a fresh child on the same index.
    fn respawn(&mut self, index: usize) {
        self.workers[index].kill_and_reap();
        let fresh = Worker::spawn(&self.binary, index).expect("shard-worker child must respawn");
        self.workers[index] = fresh;
        faults::note_worker_process_restart();
    }

    /// Awaits the response frame for dispatch `id` from worker `index`,
    /// discarding stale frames from superseded dispatches. `None` means
    /// the worker died (EOF, reader gone) or missed the deadline.
    fn await_response(&mut self, index: usize, id: u64, deadline_at: Instant) -> Option<Response> {
        loop {
            let budget = deadline_at
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::from_millis(1));
            match self.workers[index].frames.recv_timeout(budget) {
                Ok(Ok(frame)) => match Response::decode(&frame) {
                    Ok(Response::Merge { id: got, .. }) if got != id => continue,
                    Ok(response) => return Some(response),
                    Err(_) => return None,
                },
                Ok(Err(_)) | Err(mpsc::RecvTimeoutError::Disconnected) => return None,
                Err(mpsc::RecvTimeoutError::Timeout) => return None,
            }
        }
    }

    /// Runs one round's merge on the worker fleet: streams each worker
    /// its shard range's writes, collects the merged shards, and heals
    /// worker deaths by respawn + replay of the retained round input.
    ///
    /// Returns the per-shard merge results keyed by global shard index.
    ///
    /// # Panics
    ///
    /// Panics (caught by the round-level bounded retry) when one worker
    /// dies more than [`MAX_WORKER_REPLAYS`] times in a single round.
    #[allow(clippy::too_many_arguments)]
    fn merge_on_workers(
        &mut self,
        round: usize,
        attempt: u32,
        plan: Option<&FaultPlan>,
        per_shard: Vec<Vec<BufferedWrite>>,
        policy: ConflictPolicy,
        deadline: Option<Duration>,
        started: Instant,
    ) -> Result<Vec<ShardMergeResult>, AttemptFailure> {
        let num_shards = per_shard.len();
        let num_workers = self.workers.len();
        let ranges = chunk_ranges(num_shards, num_workers);
        self.dispatch_seq += 1;
        let id = self.dispatch_seq;

        // Build and retain one encoded request frame per worker: the
        // retained bytes are what a replay re-streams after a respawn.
        let mut buckets: Vec<Option<Vec<BufferedWrite>>> =
            per_shard.into_iter().map(Some).collect();
        let frames: Vec<Vec<u8>> = ranges
            .iter()
            .map(|range| {
                let shards = range
                    .clone()
                    .map(|shard| ShardWrites {
                        shard: shard as u32,
                        writes: buckets[shard]
                            .take()
                            .expect("each shard is assigned to exactly one worker")
                            .into_iter()
                            .map(|(machine, index, key, value)| {
                                (machine as u64, index as u64, key, value)
                            })
                            .collect(),
                    })
                    .collect();
                Request::Merge(MergeRequest { id, policy, shards }).encode()
            })
            .collect();

        let deadline_at = match deadline {
            Some(limit) => started + limit,
            None => started + RESPONSE_HANG_GUARD,
        };

        // Dispatch phase: stream every worker its request so the fleet
        // merges in parallel. The `kill` fault fires here — a genuine
        // SIGKILL of the selected child *before* its input is streamed,
        // so the death is always observed and healed by replay.
        let mut dispatched = vec![false; num_workers];
        for (index, frame) in frames.iter().enumerate() {
            if let Some(plan) = plan {
                if plan.worker_killed(round as u64, index as u64, attempt) {
                    faults::note_worker_kill();
                    self.workers[index].note_dead();
                    let _ = self.workers[index].child.kill();
                }
            }
            dispatched[index] = self.workers[index].send(frame).is_ok();
        }

        // Collect phase: await each worker's response; a death (failed
        // dispatch, EOF, deadline miss) is healed by respawn + replay of
        // the retained frame, bounded per worker.
        let mut replayed = false;
        let mut results: Vec<Option<ShardMergeResult>> = (0..num_shards).map(|_| None).collect();
        for index in 0..num_workers {
            let mut replays = 0u32;
            let shards = loop {
                let response = if dispatched[index] {
                    self.await_response(index, id, deadline_at)
                } else {
                    None
                };
                match response {
                    Some(Response::Merge { shards, .. }) => break shards,
                    Some(Response::Pong) | None => {
                        // Deadline budget exhausted: the attempt is lost
                        // whole; leave respawning to the next attempt's
                        // own healing (its dispatch detects the corpse).
                        if Instant::now() >= deadline_at {
                            if deadline.is_some() {
                                return Err(AttemptFailure::Deadline(
                                    deadline.unwrap_or_default().as_millis() as u64,
                                ));
                            }
                            panic!(
                                "shard worker {index} silent for {RESPONSE_HANG_GUARD:?} \
                                 in round {round}"
                            );
                        }
                        if replays >= MAX_WORKER_REPLAYS {
                            panic!("shard worker {index} died {replays} times in round {round}");
                        }
                        replays += 1;
                        replayed = true;
                        self.respawn(index);
                        dispatched[index] = self.workers[index].send(&frames[index]).is_ok();
                    }
                }
            };
            for result in shards {
                let slot = result.shard as usize;
                results[slot] = Some(result);
            }
        }
        if replayed {
            faults::note_round_replayed();
        }
        Ok(results
            .into_iter()
            .map(|result| result.expect("every shard was merged by its worker"))
            .collect())
    }

    /// One attempt at one round; commits to `self` only at the very end
    /// (see [`crate::ParallelBackend`] — same "failed rounds leave no
    /// trace" structure, with the merge phase running in the children).
    #[allow(clippy::too_many_arguments)]
    fn attempt_round(
        &mut self,
        machines: usize,
        policy: ConflictPolicy,
        carry_forward: bool,
        body: &RoundBody<'_>,
        plan: Option<&FaultPlan>,
        round: usize,
        attempt: u32,
        deadline: Option<Duration>,
    ) -> Result<RoundReport, AttemptFailure> {
        let started = Instant::now();
        let trace = self.trace.clone();
        let _round_span = span_on(trace.as_deref(), "backend.round", "backend")
            .with_arg("round", self.metrics.num_rounds() as u64)
            .with_arg("machines", machines as u64);
        let read_budget = self.config.read_budget();
        let write_budget = self.config.write_budget();
        let num_shards = self.store.num_shards();
        self.store.reset_read_counts();

        // Execute phase, in-parent: machine closures cannot cross the
        // process boundary, so bodies run here against the immutable
        // previous-round store — ascending machine order, which is
        // exactly the sequential executor's event order.
        let mut per_shard: Vec<Vec<BufferedWrite>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut max_reads = 0usize;
        let mut total_reads = 0usize;
        let mut max_writes = 0usize;
        let mut total_writes = 0usize;
        let mut body_error: Option<(usize, ModelError)> = None;
        {
            let _span = span_on(trace.as_deref(), "backend.execute", "backend")
                .with_arg("machines", machines as u64);
            let store = &self.store;
            // One write buffer for every machine of the round.
            let mut buffer = Vec::new();
            for machine in 0..machines {
                if let Some(plan) = plan {
                    if let Some(fault) = plan.task_fault(round as u64, machine as u64, attempt) {
                        faults::apply(fault);
                    }
                }
                let mut ctx = MachineContext::for_round(
                    machine,
                    store,
                    read_budget,
                    write_budget,
                    &mut buffer,
                );
                if let Err(error) = body(machine, &mut ctx) {
                    body_error = Some((machine, error));
                    break;
                }
                let reads = ctx.reads_used();
                let writes = ctx.writes_used();
                max_reads = max_reads.max(reads);
                total_reads += reads;
                max_writes = max_writes.max(writes);
                total_writes += writes;
                for (index, &(key, value)) in buffer.iter().enumerate() {
                    let shard = store.shard_of(&key);
                    per_shard[shard].push((machine, index, key, value));
                }
            }
        }

        // Injected merge failure: the attempt is lost whole before the
        // merge starts; the retry replays from the untouched input store.
        if let Some(plan) = plan {
            if plan.merge_fails(round as u64, attempt) {
                faults::note_merge_failure();
                std::panic::panic_any(faults::InjectedPanic);
            }
        }

        // Error precedence mirrors the in-process backends: merge only
        // the writes of machines below the lowest body failure; a merge
        // conflict found there precedes the body error.
        if let Some((failing_machine, error)) = body_error {
            for bucket in &mut per_shard {
                bucket.retain(|&(machine, ..)| machine < failing_machine);
            }
            let merges =
                self.merge_on_workers(round, attempt, plan, per_shard, policy, deadline, started)?;
            if let Some(conflict_error) = first_conflict(&merges, policy) {
                return Err(AttemptFailure::Fatal(conflict_error));
            }
            return Err(AttemptFailure::Fatal(error));
        }

        let merges = {
            let _span = span_on(trace.as_deref(), "backend.merge", "backend")
                .with_arg("shards", num_shards as u64)
                .with_arg("workers", self.workers.len() as u64);
            self.merge_on_workers(round, attempt, plan, per_shard, policy, deadline, started)?
        };
        if let Some(conflict_error) = first_conflict(&merges, policy) {
            return Err(AttemptFailure::Fatal(conflict_error));
        }

        // Deadline check before anything commits: an overrunning attempt
        // is discarded whole, exactly like a panicked one.
        if let Some(limit) = deadline {
            if started.elapsed() > limit {
                return Err(AttemptFailure::Deadline(limit.as_millis() as u64));
            }
        }

        // Commit phase: overlay each worker's merged entries onto the
        // carry-forward base (or empty shards), in shard order — the
        // identical fold the in-process merge performs.
        let mut next: Vec<FlatShard> = if carry_forward {
            self.store.clone_shards()
        } else {
            vec![FlatShard::default(); num_shards]
        };
        let mut shard_writes = vec![0u64; num_shards];
        let mut conflict_merges = 0usize;
        for merge in merges {
            let shard = merge.shard as usize;
            shard_writes[shard] = merge.writes_routed;
            conflict_merges += merge.conflict_merges as usize;
            let target = &mut next[shard];
            for (key, value) in merge.entries {
                target.insert(key, value);
            }
        }
        let shard_reads = self.store.read_counts();
        self.store.replace_shards(next);

        let mut report = RoundReport::from_measurements(
            self.metrics.num_rounds(),
            machines,
            max_reads,
            max_writes,
            total_reads,
            total_writes,
            0,
        );
        report.store_words = self.store.space_in_words();
        self.metrics.record(report.clone());
        self.metrics.record_runtime(RoundRuntimeStats {
            wall_clock_nanos: started.elapsed().as_nanos() as u64,
            conflict_merges,
            shard_reads,
            shard_writes,
            ..RoundRuntimeStats::default()
        });
        Ok(report)
    }
}

/// The first conflict across all shard merges in global
/// `(machine, write index)` order, reconstructed into the exact error the
/// sequential executor would raise.
fn first_conflict(merges: &[ShardMergeResult], policy: ConflictPolicy) -> Option<ModelError> {
    merges
        .iter()
        .filter_map(|merge| merge.conflict.as_ref())
        .min_by_key(|conflict| (conflict.machine, conflict.index))
        .map(|conflict| {
            policy
                .resolve(&conflict.key, conflict.existing, conflict.incoming)
                .expect_err("workers only report conflicts the policy rejects")
        })
}

impl AmpcBackend for ProcessBackend {
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
        let plan = faults::active();
        let deadline = faults::round_deadline();
        if plan.is_none() && deadline.is_none() && faults::max_round_retries() == 0 {
            // No plan, no deadline, no retries — but worker deaths (an
            // external SIGKILL) are still healed by the merge phase's own
            // respawn + replay supervision.
            return match self.attempt_round(machines, policy, carry_forward, body, None, 0, 0, None)
            {
                Ok(report) => Ok(report),
                Err(AttemptFailure::Fatal(error)) => Err(error),
                Err(AttemptFailure::Deadline(_)) => unreachable!("no deadline configured"),
            };
        }
        // The round index only advances on success: every attempt of one
        // logical round — on every backend — sees the same injection cells.
        let round = self.metrics.num_rounds();
        faults::run_with_retries(round, |attempt| {
            self.attempt_round(
                machines,
                policy,
                carry_forward,
                body,
                plan.as_ref(),
                round,
                attempt,
                deadline,
            )
        })
    }

    fn into_parts(self: Box<Self>) -> (DataStore, AmpcMetrics) {
        (self.store.to_data_store(), self.metrics)
    }

    fn name(&self) -> &'static str {
        "process"
    }

    fn set_trace(&mut self, trace: Option<Arc<TraceContext>>) {
        self.trace = trace;
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

    /// The worker binary lives in the workspace root package; when this
    /// crate's unit tests run without it built (e.g. `cargo test -p
    /// ampc-runtime` from a clean tree) the process tests skip instead of
    /// failing the suite.
    fn worker_available() -> bool {
        match locate_worker_binary() {
            Ok(_) => true,
            Err(reason) => {
                eprintln!("skipping process-backend test: {reason}");
                false
            }
        }
    }

    fn run_program(
        backend: &mut dyn AmpcBackend,
        machines: usize,
        policy: ConflictPolicy,
    ) -> Result<DataStore, ModelError> {
        backend.round(machines, policy, |machine, ctx| {
            let own = ctx.read(Key::single(machine as u64))?.unwrap();
            let other = ctx.read(Key::single(own.words()[0]))?;
            let derived = other.map_or(1, |v| v.words()[0] + 1);
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
    fn process_matches_sequential_for_every_policy_and_worker_count() {
        if !worker_available() {
            return;
        }
        for policy in [
            ConflictPolicy::KeepMin,
            ConflictPolicy::KeepMax,
            ConflictPolicy::KeepFirst,
        ] {
            let mut seq: Box<dyn AmpcBackend> =
                Box::new(SequentialBackend::new(config(), seeded_store(64)));
            let sequential = run_program(seq.as_mut(), 64, policy).unwrap();
            for workers in [1usize, 2, 3] {
                let mut proc: Box<dyn AmpcBackend> =
                    Box::new(ProcessBackend::new(config(), seeded_store(64), workers));
                let process = run_program(proc.as_mut(), 64, policy).unwrap();
                assert_eq!(sequential, process, "policy {policy:?}, workers {workers}");
                assert_eq!(proc.metrics().num_rounds(), 2);
                assert_eq!(seq.metrics(), proc.metrics(), "model-level metrics agree");
            }
        }
    }

    #[test]
    fn error_policy_reports_the_first_conflict() {
        if !worker_available() {
            return;
        }
        let run = |backend: &mut dyn AmpcBackend| {
            backend.round(16, ConflictPolicy::Error, |machine, ctx| {
                ctx.write(Key::single(9), Value::single(machine as u64))
            })
        };
        let mut seq: Box<dyn AmpcBackend> =
            Box::new(SequentialBackend::new(config(), DataStore::new()));
        let mut proc: Box<dyn AmpcBackend> =
            Box::new(ProcessBackend::new(config(), DataStore::new(), 2));
        let a = run(seq.as_mut()).unwrap_err();
        let b = run(proc.as_mut()).unwrap_err();
        assert_eq!(a, b);
        assert!(matches!(a, ModelError::WriteConflict { .. }));
        // Failed rounds leave no trace.
        assert_eq!(proc.snapshot_store(), DataStore::new());
        assert_eq!(proc.metrics().num_rounds(), 0);
    }

    #[test]
    fn externally_killed_worker_is_respawned_and_the_round_replayed() {
        if !worker_available() {
            return;
        }
        let counters_before = faults::counters();
        let mut backend = ProcessBackend::new(config(), seeded_store(32), 2);
        let pids_before = backend.worker_pids();
        assert_eq!(pids_before.len(), 2);

        // SIGKILL worker 0 directly (kill(2) via the shell, keeping the
        // crate std-only), then run a round: the dispatch/collect path
        // must observe the corpse, respawn it and replay.
        let status = Command::new("kill")
            .args(["-9", &pids_before[0].to_string()])
            .status()
            .expect("kill(1) is available");
        assert!(status.success(), "kill -9 failed");
        // Give the kernel a moment to tear the pipes down.
        std::thread::sleep(Duration::from_millis(50));

        let backend_dyn: &mut dyn AmpcBackend = &mut backend;
        backend_dyn
            .round(32, ConflictPolicy::KeepMin, |machine, ctx| {
                let own = ctx.read(Key::single(machine as u64))?.unwrap();
                ctx.write(
                    Key::pair(3, machine as u64),
                    Value::single(own.words()[0] + 1),
                )
            })
            .expect("the killed worker is healed, not surfaced");

        let pids_after = backend.worker_pids();
        assert_ne!(pids_before[0], pids_after[0], "worker 0 was respawned");
        assert_eq!(pids_before[1], pids_after[1], "worker 1 was untouched");
        let counters = faults::counters();
        assert!(
            counters.worker_process_restarts > counters_before.worker_process_restarts,
            "the respawn was counted"
        );
        assert!(
            counters.rounds_replayed > counters_before.rounds_replayed,
            "the replay was counted"
        );

        // And the healed run is bit-identical to an undisturbed one.
        let mut reference = ProcessBackend::new(config(), seeded_store(32), 2);
        let reference_dyn: &mut dyn AmpcBackend = &mut reference;
        reference_dyn
            .round(32, ConflictPolicy::KeepMin, |machine, ctx| {
                let own = ctx.read(Key::single(machine as u64))?.unwrap();
                ctx.write(
                    Key::pair(3, machine as u64),
                    Value::single(own.words()[0] + 1),
                )
            })
            .unwrap();
        assert_eq!(backend.snapshot_store(), reference.snapshot_store());
    }

    #[test]
    fn drop_reaps_every_child() {
        if !worker_available() {
            return;
        }
        // Sibling tests spawn and drop workers concurrently, so the
        // process-global `workers_alive` gauge is not this backend's to
        // assert on; its own children are. A zombie keeps its /proc entry,
        // so a child that was killed but not reaped still reads as a shard
        // worker here. `comm` is truncated to 15 characters by the kernel.
        let is_shard_worker = |pid: u32| {
            std::fs::read_to_string(format!("/proc/{pid}/comm"))
                .is_ok_and(|comm| comm.trim().starts_with("ampc-shard-work"))
        };
        let backend = ProcessBackend::new(config(), seeded_store(8), 3);
        let pids = backend.worker_pids();
        assert_eq!(pids.len(), 3);
        drop(backend);
        for pid in pids {
            // Rapid pid reuse aside, /proc has no entry or names another
            // process.
            assert!(!is_shard_worker(pid), "worker {pid} survived drop");
        }
    }
}

//! The persistent worker pool, deterministic work partitioning and parallel
//! map helpers.
//!
//! Before the pool existed the parallel runtime spawned scoped threads for
//! every round, which dominates the wall clock of many-round algorithms
//! (the β-partition runs hundreds of rounds on small remainders). The
//! [`WorkerPool`] keeps its worker threads alive across rounds *and* across
//! jobs: the round engine, [`parallel_map_weighted`] and the serving
//! subsystem (`ampc-service`) all share the process-wide
//! [`WorkerPool::global`] pool unless handed a dedicated one.
//!
//! ## Scheduling: per-worker deques with stealing
//!
//! Tasks are distributed round-robin across **per-worker deques** in the
//! Chase–Lev style: the owning worker pops its own deque LIFO (newest
//! first, cache-hot), idle workers steal FIFO from a victim's deque (oldest
//! first, the end the owner is *not* working on). A bounded deque that
//! fills up overflows into a shared injector queue every worker drains
//! last. The submitting thread still helps drain work while it waits for
//! its batch (submitter-helps), so a pool is never a parallelism *loss* —
//! even on a single-core host — and nested submissions cannot deadlock.
//!
//! Stealing exists for **skewed** task sets: when cost-weighted chunking
//! (see [`crate::RoundPrimitives`]) splits a hub-heavy index range into
//! many small tasks, the workers that finish their light deques early
//! steal the remaining hub tasks instead of idling. Which worker executes
//! a task never influences results — tasks write into caller-owned,
//! index-keyed slots — so scheduling stays invisible to the determinism
//! contract. The pool counts steals and overflows ([`PoolStats::steals`],
//! [`PoolStats::overflows`]); round schedulers surface the per-round
//! deltas through `RoundRuntimeStats`.
#![allow(unsafe_code)]

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Instant;

/// Locks a mutex, ignoring poisoning (tasks run outside any pool lock, so a
/// poisoned lock only means an unrelated thread panicked mid-bookkeeping).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A unit of work submitted to the pool, allowed to borrow from the
/// submitting scope ([`WorkerPool::execute`] blocks until it has run).
pub type ScopedTask<'env> = Box<dyn FnOnce() + Send + 'env>;

type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

/// Per-worker deque capacity; tasks beyond it overflow into the shared
/// injector (counted in [`PoolStats::overflows`]). Bounding the deques
/// keeps one enormous batch from concentrating in a single worker's queue.
const DEQUE_CAPACITY: usize = 256;

/// One submitted batch of tasks: the number of tasks that have not
/// *finished*, and the first panic payload observed. The tasks themselves
/// live in the per-worker deques (and the injector), tagged with their
/// batch so completion is tracked per submission.
struct Batch {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    fn new(tasks: usize) -> Self {
        Batch {
            pending: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Runs one claimed task to completion, capturing a panic instead of
    /// unwinding into the worker loop, then counts it as finished.
    fn run(&self, task: ErasedTask) {
        let outcome = panic::catch_unwind(AssertUnwindSafe(task));
        if let Err(payload) = outcome {
            lock(&self.panic).get_or_insert(payload);
        }
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// A task queued in a deque, tagged with the batch it completes.
type QueuedTask = (Arc<Batch>, ErasedTask);

/// Per-worker reuse counters (relaxed atomics; measurement data only).
struct WorkerStats {
    tasks: AtomicU64,
    idle_nanos: AtomicU64,
}

struct PoolShared {
    /// One work-stealing deque per worker: the owner pops LIFO from the
    /// back, thieves steal FIFO from the front.
    deques: Vec<Mutex<VecDeque<QueuedTask>>>,
    /// Overflow queue for tasks whose home deque was full, drained FIFO by
    /// every runner after its deque and its steal attempts come up empty.
    injector: Mutex<VecDeque<QueuedTask>>,
    /// Tasks pushed but not yet claimed, across all deques + the injector.
    unclaimed: AtomicUsize,
    sleep: Mutex<()>,
    work_available: Condvar,
    shutdown: AtomicBool,
    workers: Vec<WorkerStats>,
    helper_tasks: AtomicU64,
    steals: AtomicU64,
    overflows: AtomicU64,
    /// Round-robin cursor so consecutive batches start at different home
    /// deques (keeps single-task-per-batch workloads spread out).
    next_home: AtomicUsize,
    /// Workers respawned by the supervision path after being poisoned
    /// (see [`crate::faults::poison_current_worker`]).
    restarts: AtomicU64,
    /// Join handles of supervised replacement threads, drained by the
    /// pool's `Drop`.
    respawned: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl PoolShared {
    /// Claims one task for a worker: LIFO from its own deque, then
    /// FIFO-steal from the other deques in round-robin order, then the
    /// overflow injector. Returns the task and whether it was stolen from
    /// another worker's deque.
    fn try_claim(&self, runner: usize) -> Option<(QueuedTask, bool)> {
        if let Some(task) = lock(&self.deques[runner]).pop_back() {
            return Some((task, false));
        }
        let workers = self.deques.len();
        for offset in 1..workers {
            let victim = (runner + offset) % workers;
            if let Some(task) = lock(&self.deques[victim]).pop_front() {
                return Some((task, true));
            }
        }
        if let Some(task) = lock(&self.injector).pop_front() {
            // Overflowed tasks have no home deque, so draining them is not
            // counted as a steal.
            return Some((task, false));
        }
        None
    }

    /// Claims one not-yet-started task of **this specific batch**, for the
    /// helping submitter. Restricting the helper to its own batch keeps
    /// `execute`'s latency bounded by the batch's own tasks: claiming a
    /// foreign long-running task here would pin the submitter past its own
    /// batch's completion (priority inversion), and foreign batches never
    /// need the help for progress — their own submitters drain them.
    fn try_claim_owned(&self, batch: &Arc<Batch>) -> Option<ErasedTask> {
        let owned = |queue: &Mutex<VecDeque<QueuedTask>>| -> Option<ErasedTask> {
            let mut queue = lock(queue);
            let position = queue
                .iter()
                .position(|(owner, _)| Arc::ptr_eq(owner, batch))?;
            queue.remove(position).map(|(_, task)| task)
        };
        self.deques.iter().chain([&self.injector]).find_map(owned)
    }

    /// Books a successful claim: decrements the unclaimed count and counts
    /// the steal if the task came out of another worker's deque.
    fn book_claim(&self, stolen: bool) {
        self.unclaimed.fetch_sub(1, Ordering::AcqRel);
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Claims the next task for worker `index`, parking until work arrives,
    /// or `None` on shutdown.
    fn claim(&self, worker: usize) -> Option<QueuedTask> {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some((task, stolen)) = self.try_claim(worker) {
                self.book_claim(stolen);
                return Some(task);
            }
            let guard = lock(&self.sleep);
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if self.unclaimed.load(Ordering::Acquire) > 0 {
                // A push raced our empty scan: rescan instead of sleeping.
                drop(guard);
                thread::yield_now();
                continue;
            }
            let waited = Instant::now();
            let _guard = self
                .work_available
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            self.workers[worker]
                .idle_nanos
                .fetch_add(waited.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Wakes every parked worker (called after pushing tasks; the sleep
    /// lock orders the notify against sleepers' empty-scan checks).
    fn wake_workers(&self) {
        let _guard = lock(&self.sleep);
        self.work_available.notify_all();
    }

    /// Supervision path for a poisoned worker: its unclaimed tasks drain
    /// back into the shared injector (they stay claimable, so no batch
    /// loses a task), a replacement thread is spawned under the same
    /// index, and the pool's `Drop` joins the replacement later. The
    /// poisoned thread returns right after this.
    fn supervise_respawn(self: &Arc<Self>, index: usize) {
        let orphans: Vec<QueuedTask> = {
            let mut deque = lock(&self.deques[index]);
            deque.drain(..).collect()
        };
        if !orphans.is_empty() {
            lock(&self.injector).extend(orphans);
        }
        self.restarts.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(self);
        let handle = thread::Builder::new()
            .name(format!("ampc-pool-{index}"))
            .spawn(move || worker_loop(shared, index))
            .expect("respawning a pool worker failed");
        lock(&self.respawned).push(handle);
        // The orphaned tasks need a runner other than this exiting thread.
        self.wake_workers();
    }
}

fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    // Hardware-counter sampling (`crate::perf`) sums per-thread counter
    // groups; a worker registers its group once, up front, so every task it
    // ever runs is visible to snapshot deltas. No-op when perf sampling is
    // unavailable.
    crate::perf::register_current_thread();
    while let Some((batch, task)) = shared.claim(index) {
        // Counted at claim time: `execute` may return the instant the
        // batch's last `run` finishes, and a post-run increment could be
        // missed by a stats snapshot taken right after.
        shared.workers[index].tasks.fetch_add(1, Ordering::Relaxed);
        batch.run(task);
        // Panic isolation: a task panic is caught by `Batch::run`, so it
        // can never kill a worker — but a task that *poisoned* this worker
        // (the fault plane's AbortWorker injection) makes it exit here and
        // hand its index to a supervised replacement.
        if crate::faults::take_worker_poison() {
            shared.supervise_respawn(index);
            return;
        }
    }
}

/// Cumulative reuse counters of a [`WorkerPool`], snapshotted by
/// [`WorkerPool::stats`]. Round schedulers record the per-round *delta* of
/// these into [`ampc_model::RoundRuntimeStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks completed by each worker since the pool started.
    pub tasks_per_worker: Vec<u64>,
    /// Nanoseconds each worker spent parked waiting for work.
    pub idle_nanos_per_worker: Vec<u64>,
    /// Tasks run inline by submitting threads while they waited for their
    /// batch (the pool lets submitters help drain outstanding work).
    pub helper_tasks: u64,
    /// Tasks a runner took from another worker's deque (FIFO steals) —
    /// the signal that skewed batches are being rebalanced.
    pub steals: u64,
    /// Tasks routed to the shared injector because their home deque was
    /// full ([`DEQUE_CAPACITY`]).
    pub overflows: u64,
    /// Workers the supervision path respawned after poisoning: each one is
    /// a worker thread that exited and was replaced under the same index,
    /// with its unclaimed tasks drained back to the injector.
    pub worker_restarts: u64,
}

impl PoolStats {
    /// Total tasks completed (workers plus helping submitters).
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().sum::<u64>() + self.helper_tasks
    }

    /// Total idle nanoseconds across all workers.
    pub fn total_idle_nanos(&self) -> u64 {
        self.idle_nanos_per_worker.iter().sum()
    }
}

/// A persistent pool of worker threads executing scoped task batches over
/// per-worker work-stealing deques.
///
/// Unlike `std::thread::scope`, the workers are spawned **once** — per pool,
/// not per batch — and survive across rounds, jobs and callers; submitting a
/// batch distributes its tasks round-robin over the worker deques, not `N`
/// thread spawns. [`WorkerPool::execute`] blocks until every task of the
/// batch has run, which is what makes borrowing tasks ([`ScopedTask`])
/// sound, and the submitting thread helps drain outstanding work while it
/// waits (so a pool is never a parallelism *loss*, even on a single-core
/// host, and nested submissions cannot deadlock). Idle workers steal from
/// the front of busier workers' deques, so a batch of unevenly sized tasks
/// (hub-heavy weighted chunks) keeps every worker busy.
///
/// Determinism is unaffected by pooling or stealing: tasks write into
/// caller-owned slots keyed by index, so scheduling order never leaks into
/// results.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` persistent worker threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            unclaimed: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: (0..workers)
                .map(|_| WorkerStats {
                    tasks: AtomicU64::new(0),
                    idle_nanos: AtomicU64::new(0),
                })
                .collect(),
            helper_tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            next_home: AtomicUsize::new(0),
            restarts: AtomicU64::new(0),
            respawned: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ampc-pool-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            started: Instant::now(),
        }
    }

    /// The process-wide shared pool (sized to the host's available
    /// parallelism, at least 2), used by [`parallel_map_weighted`] and every
    /// [`crate::RoundEngine`] not constructed with a dedicated pool.
    /// Spawned lazily on first use and never torn down.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = thread::available_parallelism()
                .map_or(2, |p| p.get())
                .max(2);
            Arc::new(WorkerPool::new(workers))
        })
    }

    /// Number of persistent worker threads.
    pub fn num_workers(&self) -> usize {
        self.handles.len()
    }

    /// Time the pool has been alive.
    pub fn uptime(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Snapshot of the cumulative reuse counters.
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats::default();
        self.stats_into(&mut stats);
        stats
    }

    /// [`WorkerPool::stats`] into an existing snapshot, reusing its
    /// buffers (allocation-free once they are sized).
    pub fn stats_into(&self, stats: &mut PoolStats) {
        let workers = &self.shared.workers;
        stats.tasks_per_worker.clear();
        stats
            .tasks_per_worker
            .extend(workers.iter().map(|w| w.tasks.load(Ordering::Relaxed)));
        stats.idle_nanos_per_worker.clear();
        stats
            .idle_nanos_per_worker
            .extend(workers.iter().map(|w| w.idle_nanos.load(Ordering::Relaxed)));
        stats.helper_tasks = self.shared.helper_tasks.load(Ordering::Relaxed);
        stats.steals = self.shared.steals.load(Ordering::Relaxed);
        stats.overflows = self.shared.overflows.load(Ordering::Relaxed);
        stats.worker_restarts = self.shared.restarts.load(Ordering::Relaxed);
    }

    /// Runs a batch of tasks on the pool, blocking until **all** of them
    /// have finished. Tasks are spread round-robin over the per-worker
    /// deques; the submitting thread helps drain outstanding work while it
    /// waits. If any task panicked, the first observed panic is re-raised
    /// here (after the whole batch has finished).
    pub fn execute<'env>(&self, tasks: Vec<ScopedTask<'env>>) {
        if tasks.is_empty() {
            return;
        }
        if tasks.len() == 1 {
            // One task gains nothing from a queue round-trip.
            let mut tasks = tasks;
            (tasks.pop().expect("len checked"))();
            // A worker-abort fault that ran inline poisoned the *submitter*
            // thread; clear the stray flag (only pool workers restart).
            let _ = crate::faults::take_worker_poison();
            return;
        }

        let shared = &self.shared;
        let batch = Arc::new(Batch::new(tasks.len()));
        // Count before pushing so a sleeper that scans between the pushes
        // and the wakeup sees a non-zero unclaimed count and rescans.
        shared.unclaimed.fetch_add(tasks.len(), Ordering::AcqRel);
        let workers = shared.deques.len();
        let start = shared.next_home.fetch_add(1, Ordering::Relaxed);
        for (offset, task) in tasks.into_iter().enumerate() {
            // SAFETY: the only lifetime-carrying part of the type is the
            // closure's borrow set. `execute` does not return — normally
            // or by unwinding — before `batch.pending == 0`, i.e. before
            // every erased task has been consumed by `Batch::run` (panics
            // are caught and re-raised only after the wait below), so no
            // task can outlive the `'env` borrows it captures.
            let task = unsafe { std::mem::transmute::<ScopedTask<'env>, ErasedTask>(task) };
            let home = (start + offset) % workers;
            let mut deque = lock(&shared.deques[home]);
            if deque.len() < DEQUE_CAPACITY {
                deque.push_back((Arc::clone(&batch), task));
            } else {
                drop(deque);
                lock(&shared.injector).push_back((Arc::clone(&batch), task));
                shared.overflows.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.wake_workers();

        // Help drain our own batch instead of going idle — only our own:
        // the helper claiming a foreign batch's (possibly long) task would
        // delay this `execute`'s return past our batch's completion, and
        // foreign batches make progress through their own submitters. When
        // no task of ours is left to claim, the stragglers are running on
        // workers and the pending-wait below picks up their completion.
        while let Some(task) = shared.try_claim_owned(&batch) {
            shared.book_claim(false);
            batch.run(task);
            shared.helper_tasks.fetch_add(1, Ordering::Relaxed);
        }
        // As in the single-task path: a poison fault that a helping
        // submitter absorbed must not linger on this non-worker thread.
        let _ = crate::faults::take_worker_poison();
        let mut pending = lock(&batch.pending);
        while *pending > 0 {
            pending = batch
                .done
                .wait(pending)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        drop(pending);
        let payload = lock(&batch.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // `execute` holds `&self` for its full duration, so no batch can be
        // in flight here; workers are parked or about to park.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_workers();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Supervised replacements observe the same shutdown flag; a
        // replacement may itself have respawned, so drain until empty.
        loop {
            let Some(handle) = lock(&self.shared.respawned).pop() else {
                break;
            };
            let _ = handle.join();
        }
    }
}

/// Splits `0..items` into at most `workers` consecutive, near-equal ranges
/// (ascending, non-empty).
pub(crate) fn chunk_ranges(items: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1).min(items.max(1));
    let base = items / workers;
    let remainder = items % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0usize;
    for worker in 0..workers {
        let len = base + usize::from(worker < remainder);
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    if ranges.is_empty() {
        ranges.push(0..0);
    }
    ranges
}

/// How many stealable tasks a weighted dispatch creates per configured
/// worker thread. More tasks than threads is what lets the deques
/// rebalance a bad cost estimate or an oversized hub chunk; the factor
/// also **bounds** a call's pool occupancy proportionally to its thread
/// budget, so a `threads=2` request cannot saturate a 32-worker pool.
pub(crate) const STEAL_GRANULARITY: usize = 4;

/// Splits `0..items` into at most `max_groups` consecutive ranges of
/// roughly equal total cost — the dispatch grid of every cost-weighted
/// primitive. Item `i` costs `weight(i) + 1` (the `+ 1` floors zero-weight
/// items, so weight 0 everywhere gives equal-width ranges), and a range
/// closes as soon as its cost reaches `total / max_groups`, so a single
/// oversized item (a hub) terminates its range immediately. Callers pass
/// `max_groups = STEAL_GRANULARITY × threads`: enough surplus tasks for
/// the deques to steal, while pool occupancy stays proportional to the
/// caller's thread budget. No cost floor is applied — for coarse items
/// (whole layers) even a tiny total cost can hide hours of work, and the
/// dispatch count is already bounded by `max_groups`. The grid depends on
/// the thread count, so only consumers whose result is independent of
/// where the range is split may use it (see [`crate::RoundPrimitives`]).
pub(crate) fn cost_grouped_ranges<W>(
    items: usize,
    weight: W,
    max_groups: usize,
) -> Vec<Range<usize>>
where
    W: Fn(usize) -> usize,
{
    let total: u64 = (0..items).map(|i| weight(i) as u64 + 1).sum();
    let target = total.div_ceil(max_groups.max(1) as u64).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut accumulated = 0u64;
    for item in 0..items {
        accumulated += weight(item) as u64 + 1;
        if accumulated >= target {
            ranges.push(start..item + 1);
            start = item + 1;
            accumulated = 0;
        }
    }
    if start < items {
        ranges.push(start..items);
    }
    ranges
}

/// A chunk's indexed results, or its first failure as `(index, error)`.
type ChunkResult<U, E> = Result<Vec<(usize, U)>, (usize, E)>;

/// Applies `f` to every item on up to `threads` workers of the global
/// [`WorkerPool`], returning the results **in item order**.
///
/// Used by algorithm drivers for deterministic data-parallel phases outside
/// the round protocol (e.g. coloring the layers of a β-partition
/// independently). `weight(index, item)` estimates each item's cost (e.g. a
/// layer's total degree) and the item space is split into up to
/// `STEAL_GRANULARITY × threads` chunks of roughly equal total cost, so one
/// huge item no longer pins a whole consecutive range to one worker — the
/// surplus chunks are stealable and the work-stealing deques rebalance
/// them, while pool occupancy stays proportional to the caller's thread
/// budget.
///
/// Determinism contract: `f` must be a pure function of `(index, item)`;
/// when several items fail, the error of the lowest index is returned —
/// the same error a sequential left-to-right loop would surface.
///
/// # Errors
///
/// The error of the lowest-indexed failing item.
pub fn parallel_map_weighted<T, U, E, F, W>(
    items: &[T],
    threads: usize,
    weight: W,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
    W: Fn(usize, &T) -> usize,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| f(index, item))
            .collect();
    }
    let grid = cost_grouped_ranges(
        items.len(),
        |index| weight(index, &items[index]),
        STEAL_GRANULARITY * threads,
    );
    let mut outcomes: Vec<Option<ChunkResult<U, E>>> = (0..grid.len()).map(|_| None).collect();
    {
        let f = &f;
        let tasks: Vec<ScopedTask<'_>> = outcomes
            .iter_mut()
            .zip(grid)
            .map(|(slot, range)| {
                Box::new(move || {
                    let mut produced = Vec::with_capacity(range.len());
                    let mut failure = None;
                    for index in range {
                        match f(index, &items[index]) {
                            Ok(value) => produced.push((index, value)),
                            Err(error) => {
                                failure = Some((index, error));
                                break;
                            }
                        }
                    }
                    *slot = Some(match failure {
                        None => Ok(produced),
                        Some(error) => Err(error),
                    });
                }) as ScopedTask<'_>
            })
            .collect();
        WorkerPool::global().execute(tasks);
    }

    let mut first_error: Option<(usize, E)> = None;
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for outcome in outcomes {
        match outcome.expect("the pool ran every chunk") {
            Ok(produced) => {
                for (index, value) in produced {
                    slots[index] = Some(value);
                }
            }
            Err((index, error)) => {
                if first_error.as_ref().is_none_or(|(best, _)| index < *best) {
                    first_error = Some((index, error));
                }
            }
        }
    }
    if let Some((_, error)) = first_error {
        return Err(error);
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every index produced or an error returned"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_once() {
        for items in [0usize, 1, 5, 16, 97] {
            for workers in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(items, workers);
                let mut covered = Vec::new();
                let mut last_end = 0;
                for range in &ranges {
                    assert_eq!(range.start, last_end, "consecutive ascending");
                    last_end = range.end;
                    covered.extend(range.clone());
                }
                assert_eq!(covered, (0..items).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn cost_grouped_ranges_bound_dispatch_by_the_group_budget() {
        // The map-dispatch grid: at most `max_groups` cost-balanced
        // ranges, no cost floor — a tiny total must still split so coarse
        // items (whole layers) keep their parallelism.
        let groups = cost_grouped_ranges(8, |_| 0, 4);
        assert_eq!(groups.len(), 4, "{groups:?}");
        let mut covered = Vec::new();
        for range in &groups {
            covered.extend(range.clone());
        }
        assert_eq!(covered, (0..8).collect::<Vec<_>>());
        // A hub-heavy profile never exceeds the budget either, and the
        // hub still terminates its range immediately.
        let weight = |i: usize| if i == 0 { 10_000 } else { 1 };
        for budget in [1usize, 2, 8, 32] {
            let groups = cost_grouped_ranges(5_000, weight, budget);
            assert!(groups.len() <= budget, "budget {budget}: {}", groups.len());
            let mut last_end = 0;
            for range in &groups {
                assert_eq!(range.start, last_end);
                last_end = range.end;
            }
            assert_eq!(last_end, 5_000);
        }
        let groups = cost_grouped_ranges(5_000, weight, 32);
        assert_eq!(groups[0], 0..1, "the hub forms its own dispatch group");
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled =
            parallel_map_weighted(&items, 4, |_, _| 0, |i, &x| Ok::<_, ()>(2 * x + i - i))
                .expect("no errors");
        assert_eq!(doubled, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
        let sequential = parallel_map_weighted(&items, 1, |_, _| 0, |_, &x| Ok::<_, ()>(2 * x))
            .expect("no errors");
        assert_eq!(doubled, sequential);
    }

    #[test]
    fn weighted_map_matches_unweighted() {
        let items: Vec<usize> = (0..500).collect();
        let expected: Vec<usize> = items.iter().enumerate().map(|(i, &x)| x * 3 + i).collect();
        for threads in [1usize, 2, 4, 7] {
            let weighted =
                parallel_map_weighted(&items, threads, |_, &x| x, |i, &x| Ok::<_, ()>(x * 3 + i))
                    .expect("no errors");
            assert_eq!(expected, weighted, "threads {threads}");
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1usize, 4] {
            let result = parallel_map_weighted(
                &items,
                threads,
                |_, &x| x,
                |i, _| if i % 10 == 7 { Err(i) } else { Ok(i) },
            );
            assert_eq!(result, Err(7), "threads {threads}");
        }
    }

    #[test]
    fn pool_runs_batches_and_counts_every_task() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.num_workers(), 2);
        let mut slots = vec![0usize; 40];
        for round in 0..5 {
            let tasks: Vec<ScopedTask<'_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = i + round;
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.execute(tasks);
        }
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(*slot, i + 4);
        }
        // Every submitted task is accounted to exactly one runner.
        let stats = pool.stats();
        assert_eq!(stats.total_tasks(), 5 * 40);
        assert_eq!(stats.tasks_per_worker.len(), 2);
        assert_eq!(stats.idle_nanos_per_worker.len(), 2);
    }

    #[test]
    fn steal_counter_accounts_rebalanced_tasks() {
        // Tasks spread round-robin over the worker deques; an early
        // finisher must cross deques to keep busy. The steal counter
        // records exactly the worker-to-worker cross-deque claims (the
        // helping submitter's claims count as helper_tasks instead), and
        // every claim is booked exactly once: total_tasks stays exact
        // even under stealing.
        let pool = WorkerPool::new(3);
        let before = pool.stats();
        let mut slots = vec![0u64; 300];
        for _ in 0..10 {
            let tasks: Vec<ScopedTask<'_>> = slots
                .iter_mut()
                .map(|slot| {
                    Box::new(move || {
                        // Uneven task costs provoke stealing.
                        let spins = (*slot % 7) * 200;
                        for _ in 0..spins {
                            std::hint::black_box(());
                        }
                        *slot += 1;
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.execute(tasks);
        }
        assert!(slots.iter().all(|&v| v == 10));
        let after = pool.stats();
        assert_eq!(after.total_tasks() - before.total_tasks(), 10 * 300);
        // Steals and overflows never exceed the tasks that existed.
        assert!(after.steals - before.steals <= 10 * 300);
        assert!(after.overflows - before.overflows <= 10 * 300);
    }

    #[test]
    fn oversized_batches_overflow_to_the_injector_and_still_complete() {
        // 2 workers x DEQUE_CAPACITY is the deque budget; a batch far past
        // it must spill into the injector (counted) and still run fully.
        let pool = WorkerPool::new(2);
        let before = pool.stats();
        let count = 2 * DEQUE_CAPACITY + 500;
        let mut slots = vec![false; count];
        let tasks: Vec<ScopedTask<'_>> = slots
            .iter_mut()
            .map(|slot| Box::new(move || *slot = true) as ScopedTask<'_>)
            .collect();
        pool.execute(tasks);
        assert!(slots.iter().all(|&v| v));
        let after = pool.stats();
        assert_eq!(after.total_tasks() - before.total_tasks(), count as u64);
        assert!(
            after.overflows > before.overflows,
            "a batch past the deque budget must overflow"
        );
    }

    #[test]
    fn pool_threads_persist_across_batches() {
        let pool = WorkerPool::new(3);
        let before = pool.num_workers();
        for _ in 0..50 {
            let mut sink = [0u64; 8];
            let tasks: Vec<ScopedTask<'_>> = sink
                .iter_mut()
                .map(|slot| Box::new(move || *slot += 1) as ScopedTask<'_>)
                .collect();
            pool.execute(tasks);
            assert!(sink.iter().all(|&v| v == 1));
        }
        // The pool never grows or shrinks: same workers serve every batch.
        assert_eq!(pool.num_workers(), before);
    }

    #[test]
    fn pool_propagates_task_panics_after_the_batch_finishes() {
        let pool = WorkerPool::new(2);
        let mut finished = [false; 6];
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<ScopedTask<'_>> = finished
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        *slot = true;
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.execute(tasks);
        }));
        let payload = result.expect_err("the panic must propagate to the submitter");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(message.contains("exploded"), "{message}");
        // Every non-panicking task still ran to completion.
        for (i, done) in finished.iter().enumerate() {
            assert_eq!(*done, i != 3, "task {i}");
        }
        // The pool survives the panic and keeps serving.
        let mut ok = false;
        pool.execute(vec![Box::new(|| ok = true) as ScopedTask<'_>]);
        assert!(ok);
    }

    #[test]
    fn nested_submissions_make_progress() {
        // A task running on the pool submits its own batch — the shape the
        // per-layer drivers produce. The nested submitter must be able to
        // drain its batch even when every worker is busy.
        let pool = Arc::new(WorkerPool::new(2));
        let mut totals = vec![0u64; 6];
        {
            let pool_ref = &pool;
            let tasks: Vec<ScopedTask<'_>> = totals
                .iter_mut()
                .map(|total| {
                    Box::new(move || {
                        let mut inner = [0u64; 16];
                        let inner_tasks: Vec<ScopedTask<'_>> = inner
                            .iter_mut()
                            .enumerate()
                            .map(|(i, slot)| {
                                Box::new(move || *slot = i as u64 + 1) as ScopedTask<'_>
                            })
                            .collect();
                        pool_ref.execute(inner_tasks);
                        *total = inner.iter().sum();
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.execute(tasks);
        }
        let expected: u64 = (1..=16).sum();
        assert!(totals.iter().all(|&v| v == expected), "{totals:?}");
    }

    #[test]
    fn poisoned_workers_are_respawned_and_their_tasks_survive() {
        use std::sync::atomic::AtomicU64 as Counter;
        let pool = WorkerPool::new(2);
        let before = pool.stats().worker_restarts;
        let ran = Counter::new(0);
        // Every task poisons whichever runner executes it: a worker that
        // claims even one restarts; the helping submitter just clears its
        // flag. The loop re-submits until a worker provably restarted. On a
        // loaded host the submitter can drain a whole batch before the two
        // worker threads ever get scheduled — and the respawn itself lands
        // only after the batch's last `run` returns — so each round yields
        // the CPU for a moment before re-checking.
        let mut rounds = 0usize;
        let mut total = 0u64;
        while pool.stats().worker_restarts == before && rounds < 200 {
            let tasks: Vec<ScopedTask<'_>> = (0..64)
                .map(|_| {
                    let ran = &ran;
                    Box::new(move || {
                        crate::faults::poison_current_worker();
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.execute(tasks);
            rounds += 1;
            total += 64;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Every task still completed — poisoning only retires the thread
        // after the batch bookkeeping, never drops work.
        assert_eq!(ran.load(Ordering::Relaxed), total);
        let after = pool.stats();
        assert!(
            after.worker_restarts > before,
            "a poisoned worker must restart (rounds = {rounds})"
        );
        // The pool still serves batches afterwards with the same width.
        assert_eq!(pool.num_workers(), 2);
        let mut ok = [false; 8];
        let tasks: Vec<ScopedTask<'_>> = ok
            .iter_mut()
            .map(|slot| Box::new(move || *slot = true) as ScopedTask<'_>)
            .collect();
        pool.execute(tasks);
        assert!(ok.iter().all(|&v| v));
    }

    #[test]
    fn global_pool_is_shared_and_persistent() {
        let a = Arc::as_ptr(WorkerPool::global());
        let b = Arc::as_ptr(WorkerPool::global());
        assert_eq!(a, b);
        assert!(WorkerPool::global().num_workers() >= 2);
    }
}

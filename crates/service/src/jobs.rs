//! The job manager: a bounded submission queue feeding persistent job
//! workers, with single-flight result caching.
//!
//! Submission never blocks on computation: `POST /v1/color` enqueues a
//! [`JobSpec`] and returns a job id; a fixed set of long-lived worker
//! threads drains the queue and runs [`SparseColoring::color_request`].
//! The AMPC rounds themselves execute on the persistent
//! [`ampc_runtime::WorkerPool`] shared process-wide, so a job costs zero
//! thread spawns end to end.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ampc_coloring::{ColorRequest, ColoringOutcome, SparseColoring};
use ampc_model::ConflictPolicy;
use ampc_runtime::trace::{LatencyHistogram, TraceContext, TraceTimeline};
use ampc_runtime::RuntimeConfig;
use ampc_runtime::{PerfCounters, PerfSink};
use sparse_graph::CsrGraph;

use crate::cache::{CacheCounters, Claim, ResultCache};

/// Tuning knobs of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Persistent job-worker threads draining the queue.
    pub workers: usize,
    /// Capacity of the bounded submission queue (submissions beyond it are
    /// rejected with `429`).
    pub queue_capacity: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Acceptor threads serving HTTP connections.
    pub acceptors: usize,
    /// Maximum node count a submitted edge list may declare (node ids and
    /// `min_nodes` beyond this are rejected with `400` — a tiny request
    /// must not be able to demand an arbitrarily large allocation). The
    /// HTTP layer additionally caps each request proportionally to its
    /// body size, so this is the ceiling for the largest bodies only.
    /// At most [`MAX_GRAPH_NODES`] (2^32): the result cache keeps node ids
    /// as `u32`, so [`JobManager::new`] clamps a larger value.
    pub max_graph_nodes: usize,
    /// Ready results retained by the cache (FIFO eviction beyond this).
    pub cache_capacity: usize,
    /// Total size of all cached ready results, measured in nodes plus
    /// directed edges of the cached graphs (FIFO eviction beyond this) —
    /// entry counts alone would let a few huge entries exhaust memory
    /// while staying under `cache_capacity`.
    pub cache_node_budget: usize,
    /// Terminal job records retained (oldest evicted beyond this, so a
    /// long-running server's jobs map stays bounded).
    pub max_retained_jobs: usize,
    /// Total nodes across the results held by retained terminal jobs
    /// (oldest evicted beyond this) — the record-count cap alone would let
    /// a few huge colorings pin gigabytes.
    pub retained_node_budget: usize,
    /// HTTP/1.1 requests served on one connection before the server closes
    /// it (bounded keep-alive; 1 disables reuse entirely).
    pub max_requests_per_connection: usize,
    /// Age at which a *terminal* job record expires: the TTL-based GC
    /// sweep drops done/failed records older than this on manager
    /// activity, independent of the count/node-budget retention caps.
    /// In-flight jobs never expire.
    pub job_ttl: Duration,
    /// Age at which a *ready result cache entry* expires: the cache sweeps
    /// entries older than this alongside its entry-count / cost-budget
    /// caps, bounding both result staleness and idle-server memory.
    /// In-flight (computing) entries never expire.
    pub cache_ttl: Duration,
    /// Per-job trace-event capacity. Each computed (non-cached) job gets a
    /// [`TraceContext`] with this many pre-allocated event slots; every
    /// AMPC round, simulator phase and round merge records a span into
    /// it, and the drained timeline is served by
    /// `GET /v1/jobs/{id}/trace`. Events beyond the capacity are dropped
    /// and counted, never blocking the computation. `0` disables per-job
    /// tracing entirely (no buffers, no clock reads).
    pub trace_events: usize,
    /// How many times a job whose computation failed *transiently* — a
    /// caught panic or a round that exhausted its runtime-level retries —
    /// is re-run before it is reported as failed. Deterministic errors
    /// (bad parameters, partition failures) never retry.
    pub job_retries: u32,
    /// Per-AMPC-round wall-clock deadline in milliseconds, enforced by the
    /// round engine (an overrunning round attempt is discarded and
    /// retried; persistent overrun fails the round). `0` disables, leaving
    /// any `AMPC_ROUND_DEADLINE_MS` environment setting in force.
    pub round_deadline_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_body_bytes: 64 << 20,
            acceptors: 4,
            max_graph_nodes: 1 << 22,
            cache_capacity: 512,
            cache_node_budget: 1 << 23,
            max_retained_jobs: 4096,
            retained_node_budget: 1 << 23,
            max_requests_per_connection: 100,
            job_ttl: Duration::from_secs(600),
            cache_ttl: Duration::from_secs(3600),
            trace_events: 16_384,
            job_retries: 1,
            round_deadline_ms: 0,
        }
    }
}

/// The largest [`ServiceConfig::max_graph_nodes`] in force: node ids stay
/// below 2^32, the bound of the result cache's `u32` graph copy.
pub const MAX_GRAPH_NODES: usize = (u32::MAX as usize).saturating_add(1);

/// Everything that identifies a coloring job (and therefore its cache key).
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// The validated algorithm request.
    pub request: ColorRequest,
    /// The duplicate-write merge policy asserted by the client. The
    /// coloring pipeline's rounds pin the paper's min-merge
    /// ([`ConflictPolicy::KeepMin`], Lemma 4.10); the submission path
    /// rejects any other value rather than silently ignoring it.
    pub policy: ConflictPolicy,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            request: ColorRequest::default(),
            policy: ConflictPolicy::KeepMin,
        }
    }
}

/// Total equality: floats compare by bit pattern, so a spec always equals
/// itself. The derived `PartialEq` over `f64` would make a NaN epsilon or
/// delta unequal to itself, and a cache entry that never matches its own
/// spec can neither be fulfilled nor abandoned — a permanent in-flight
/// leak (submission-time validation rejects NaN anyway; this keeps the
/// cache's invariants independent of the HTTP layer).
impl PartialEq for JobSpec {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.request, &other.request);
        a.algorithm == b.algorithm
            && a.alpha == b.alpha
            && a.epsilon.to_bits() == b.epsilon.to_bits()
            && a.delta.to_bits() == b.delta.to_bits()
            && a.max_partition_rounds == b.max_partition_rounds
            && a.runtime == b.runtime
            && self.policy == other.policy
    }
}

impl Eq for JobSpec {}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the submission queue (or for an identical in-flight job).
    Queued,
    /// A worker is computing it.
    Running,
    /// Finished successfully.
    Done,
    /// Finished with an error.
    Failed,
}

impl JobStatus {
    /// Lower-case wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }
}

struct JobRecord {
    status: JobStatus,
    cached: bool,
    graph_nodes: usize,
    graph_edges: usize,
    spec: JobSpec,
    result: Option<Arc<ColoringOutcome>>,
    error: Option<String>,
    submitted: Instant,
    /// When the record reached a terminal state (the TTL clock).
    finished: Option<Instant>,
    wall_nanos: u64,
    /// The drained span timeline of the computation this job owned.
    /// `None` while in flight, for cached/coalesced jobs (the timeline
    /// belongs to the computing job) and when tracing is disabled.
    timeline: Option<Arc<TraceTimeline>>,
}

/// An immutable snapshot of a job, for rendering and tests.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// Current status.
    pub status: JobStatus,
    /// Whether the result came from the cache (hit or coalesced) rather
    /// than a computation owned by this job.
    pub cached: bool,
    /// Node count of the submitted graph.
    pub graph_nodes: usize,
    /// Edge count of the submitted graph.
    pub graph_edges: usize,
    /// The submitted spec.
    pub spec: JobSpec,
    /// The outcome, when `Done`.
    pub result: Option<Arc<ColoringOutcome>>,
    /// The error, when `Failed`.
    pub error: Option<String>,
    /// Nanoseconds the computation took (0 for pure cache hits).
    pub wall_nanos: u64,
    /// Nanoseconds since the job was submitted.
    pub age_nanos: u64,
    /// Span timeline of the computation, when this job owned one and
    /// tracing is enabled (`None` for cached results and in-flight jobs).
    pub timeline: Option<Arc<TraceTimeline>>,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry later.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} jobs); retry later")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Counter snapshot for `/metrics`.
#[derive(Debug, Clone, Copy)]
pub struct ManagerCounters {
    /// Jobs accepted (including cache hits and coalesced jobs).
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Colorings actually computed to completion (successful cache
    /// misses; failed and panicked runs count under `failed` instead).
    pub computed: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently computing.
    pub running: usize,
    /// Cache counters.
    pub cache: CacheCounters,
    /// Hardware counters summed over every computed job's recorded rounds
    /// (all-zero when `perf_event_open` sampling is unavailable — check
    /// `ampc_runtime::perf::available()` before reading zeros as idle).
    pub perf: PerfCounters,
    /// Computed jobs whose rounds carried at least one nonzero hardware
    /// sample.
    pub perf_sampled_jobs: u64,
    /// Whole-job computations re-run after a transient failure (caught
    /// panic or retry-exhausted round).
    pub jobs_retried: u64,
}

struct QueueItem {
    id: u64,
    key: u64,
    graph: Arc<CsrGraph>,
    spec: JobSpec,
    /// When the item entered the queue (the queue-wait histogram clock).
    enqueued: Instant,
}

/// The jobs map plus the FIFO eviction order, guarded by one mutex.
#[derive(Default)]
struct JobsState {
    records: HashMap<u64, JobRecord>,
    /// Ids that reached a terminal state, oldest first — makes retention
    /// eviction O(1) per completion instead of a scan of the whole map.
    terminal_order: VecDeque<u64>,
    /// Total nodes across the results held by terminal records (the unit
    /// the node-budget eviction is measured in).
    terminal_result_nodes: usize,
}

struct ManagerShared {
    jobs: Mutex<JobsState>,
    job_done: Condvar,
    cache: ResultCache,
    max_retained_jobs: usize,
    retained_node_budget: usize,
    job_ttl: Duration,
    queue_depth: AtomicUsize,
    running: AtomicUsize,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    computed: AtomicU64,
    /// Per-job trace-event capacity (0 disables tracing).
    trace_events: usize,
    /// Transient-failure retry budget per job.
    job_retries: u32,
    jobs_retried: AtomicU64,
    /// Microseconds jobs spent waiting in the submission queue.
    queue_wait_micros: LatencyHistogram,
    /// Microseconds computed (non-cached) jobs took to execute.
    execution_micros: LatencyHistogram,
    /// Hardware-counter totals over computed jobs (one recorded delta per
    /// job that carried samples).
    perf: PerfSink,
}

impl ManagerShared {
    fn finish(&self, id: u64, status: JobStatus, cached: bool, outcome: FinishOutcome) {
        let mut state = self.jobs.lock().expect("jobs lock");
        if let Some(record) = state.records.get_mut(&id) {
            record.status = status;
            record.cached = cached;
            record.finished = Some(Instant::now());
            let mut result_nodes = 0;
            match outcome {
                FinishOutcome::Result {
                    result,
                    wall_nanos,
                    timeline,
                } => {
                    record.result = Some(result);
                    record.wall_nanos = wall_nanos;
                    record.timeline = timeline;
                    result_nodes = record.graph_nodes;
                }
                FinishOutcome::Error(message) => record.error = Some(message),
            }
            state.terminal_result_nodes += result_nodes;
            state.terminal_order.push_back(id);
        }
        self.expire_old_records(&mut state);
        self.evict_old_records(&mut state);
        match status {
            JobStatus::Done => self.completed.fetch_add(1, Ordering::Relaxed),
            _ => self.failed.fetch_add(1, Ordering::Relaxed),
        };
        drop(state);
        self.job_done.notify_all();
    }

    /// The TTL-based GC sweep: drops terminal records older than
    /// `job_ttl`, front-of-deque first (the deque is ordered by completion
    /// time, so the sweep stops at the first fresh record — O(expired) per
    /// call). Runs on manager activity (completions, submissions, the
    /// recent-jobs listing behind `/metrics`), complementing the
    /// count/node-budget caps below with age-based expiry. In-flight jobs
    /// never expire.
    fn expire_old_records(&self, state: &mut JobsState) {
        let now = Instant::now();
        while let Some(&id) = state.terminal_order.front() {
            let expired = match state.records.get(&id) {
                // Already evicted by the budget caps: clean up the deque.
                None => true,
                Some(record) => record
                    .finished
                    .is_some_and(|at| now.duration_since(at) >= self.job_ttl),
            };
            if !expired {
                break;
            }
            state.terminal_order.pop_front();
            if let Some(record) = state.records.remove(&id) {
                if record.result.is_some() {
                    state.terminal_result_nodes = state
                        .terminal_result_nodes
                        .saturating_sub(record.graph_nodes);
                }
            }
        }
    }

    /// Drops the oldest terminal records once the map exceeds the retention
    /// cap — by record count or by total result nodes (a handful of huge
    /// colorings must not pin gigabytes while staying under the count cap).
    /// In-flight jobs are never evicted; the FIFO deque makes this O(1) per
    /// completion.
    fn evict_old_records(&self, state: &mut JobsState) {
        while state.records.len() > self.max_retained_jobs
            || state.terminal_result_nodes > self.retained_node_budget
        {
            let Some(id) = state.terminal_order.pop_front() else {
                break;
            };
            let evictable = state
                .records
                .get(&id)
                .filter(|record| record.status.is_terminal())
                .map(|record| {
                    if record.result.is_some() {
                        record.graph_nodes
                    } else {
                        0
                    }
                });
            if let Some(result_nodes) = evictable {
                state.terminal_result_nodes =
                    state.terminal_result_nodes.saturating_sub(result_nodes);
                state.records.remove(&id);
            }
        }
    }
}

enum FinishOutcome {
    Result {
        result: Arc<ColoringOutcome>,
        wall_nanos: u64,
        timeline: Option<Arc<TraceTimeline>>,
    },
    Error(String),
}

/// The serving subsystem's job orchestrator. Create once, share via `Arc`.
pub struct JobManager {
    config: ServiceConfig,
    shared: Arc<ManagerShared>,
    next_id: AtomicU64,
    queue_tx: Option<SyncSender<QueueItem>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.config.queue_capacity)
            .finish()
    }
}

impl JobManager {
    /// Spawns the persistent job workers and returns the manager, with
    /// `max_graph_nodes` clamped to [`MAX_GRAPH_NODES`].
    pub fn new(mut config: ServiceConfig) -> Self {
        config.max_graph_nodes = config.max_graph_nodes.min(MAX_GRAPH_NODES);
        // The round deadline lives in the runtime (it gates the round
        // engine's attempt loop); only a nonzero config value overrides the
        // `AMPC_ROUND_DEADLINE_MS` environment setting.
        if config.round_deadline_ms > 0 {
            ampc_runtime::faults::set_round_deadline_ms(config.round_deadline_ms);
        }
        let shared = Arc::new(ManagerShared {
            jobs: Mutex::new(JobsState::default()),
            job_done: Condvar::new(),
            cache: ResultCache::new(
                config.cache_capacity,
                config.cache_node_budget,
                config.cache_ttl,
            ),
            max_retained_jobs: config.max_retained_jobs.max(1),
            retained_node_budget: config.retained_node_budget.max(1),
            // Floored: a zero TTL would expire a finished job inside
            // `finish()` itself, before any waiter can observe the result.
            job_ttl: config.job_ttl.max(Duration::from_millis(10)),
            queue_depth: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            trace_events: config.trace_events,
            job_retries: config.job_retries,
            jobs_retried: AtomicU64::new(0),
            queue_wait_micros: LatencyHistogram::new(),
            execution_micros: LatencyHistogram::new(),
            perf: PerfSink::new(),
        });
        let (queue_tx, queue_rx) = sync_channel::<QueueItem>(config.queue_capacity.max(1));
        let queue_rx = Arc::new(Mutex::new(queue_rx));
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                let queue_rx = Arc::clone(&queue_rx);
                thread::Builder::new()
                    .name(format!("ampc-job-{index}"))
                    .spawn(move || worker_loop(shared, queue_rx))
                    .expect("spawning a job worker failed")
            })
            .collect();
        JobManager {
            config,
            shared,
            next_id: AtomicU64::new(1),
            queue_tx: Some(queue_tx),
            workers,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Submits a job. Identical `(graph, spec)` submissions are served from
    /// the cache, or coalesced onto an in-flight computation so the work
    /// runs once.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity.
    pub fn submit(&self, graph: Arc<CsrGraph>, spec: JobSpec) -> Result<u64, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = job_key(&graph, &spec);
        {
            let mut state = self.shared.jobs.lock().expect("jobs lock");
            // Submission is a natural GC point: a busy server sweeps
            // expired terminal records as new work arrives.
            self.shared.expire_old_records(&mut state);
            state.records.insert(
                id,
                JobRecord {
                    status: JobStatus::Queued,
                    cached: false,
                    graph_nodes: graph.num_nodes(),
                    graph_edges: graph.num_edges(),
                    spec,
                    result: None,
                    error: None,
                    submitted: Instant::now(),
                    finished: None,
                    wall_nanos: 0,
                    timeline: None,
                },
            );
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);

        match self.shared.cache.claim(key, &graph, &spec, id) {
            Claim::Hit(result) => {
                self.shared.finish(
                    id,
                    JobStatus::Done,
                    true,
                    FinishOutcome::Result {
                        result,
                        wall_nanos: 0,
                        timeline: None,
                    },
                );
                Ok(id)
            }
            Claim::Coalesced => Ok(id),
            Claim::Compute => {
                let sender = self
                    .queue_tx
                    .as_ref()
                    .expect("queue alive while manager lives");
                // Incremented before the send: a worker may pop the item
                // (and decrement) the instant it lands in the channel.
                self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
                match sender.try_send(QueueItem {
                    id,
                    key,
                    graph,
                    spec,
                    enqueued: Instant::now(),
                }) {
                    Ok(()) => Ok(id),
                    Err(TrySendError::Full(item)) | Err(TrySendError::Disconnected(item)) => {
                        self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        // Roll the claim back and fail any job that managed
                        // to coalesce onto it in the meantime.
                        let error = SubmitError::QueueFull {
                            capacity: self.config.queue_capacity,
                        };
                        for waiter in self.shared.cache.abandon(key, &item.graph, &item.spec) {
                            self.shared.finish(
                                waiter,
                                JobStatus::Failed,
                                false,
                                FinishOutcome::Error(error.to_string()),
                            );
                        }
                        self.shared
                            .jobs
                            .lock()
                            .expect("jobs lock")
                            .records
                            .remove(&id);
                        Err(error)
                    }
                }
            }
        }
    }

    /// A snapshot of job `id`, if it exists.
    pub fn status(&self, id: u64) -> Option<JobView> {
        let state = self.shared.jobs.lock().expect("jobs lock");
        state.records.get(&id).map(|record| view_of(id, record))
    }

    /// Blocks until job `id` reaches a terminal state or `timeout` passes,
    /// returning the latest snapshot (which may still be non-terminal on
    /// timeout), or `None` for an unknown id.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobView> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.jobs.lock().expect("jobs lock");
        loop {
            let view = state.records.get(&id).map(|record| view_of(id, record))?;
            if view.status.is_terminal() {
                return Some(view);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(view);
            }
            let (guard, _) = self
                .shared
                .job_done
                .wait_timeout(state, deadline - now)
                .expect("jobs lock");
            state = guard;
        }
    }

    /// Snapshots of the most recent `limit` jobs, newest first. Doubles as
    /// a GC point: `/metrics` renders this listing, so even an idle server
    /// probed for metrics sweeps its expired terminal records.
    pub fn recent(&self, limit: usize) -> Vec<JobView> {
        let mut state = self.shared.jobs.lock().expect("jobs lock");
        self.shared.expire_old_records(&mut state);
        let mut ids: Vec<u64> = state.records.keys().copied().collect();
        ids.sort_unstable_by(|a, b| b.cmp(a));
        ids.into_iter()
            .take(limit)
            .map(|id| view_of(id, &state.records[&id]))
            .collect()
    }

    /// Counter snapshot for `/metrics`.
    pub fn counters(&self) -> ManagerCounters {
        ManagerCounters {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            computed: self.shared.computed.load(Ordering::Relaxed),
            queue_depth: self.shared.queue_depth.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            running: self.shared.running.load(Ordering::Relaxed),
            cache: self.shared.cache.counters(),
            perf: self.shared.perf.counters(),
            perf_sampled_jobs: self.shared.perf.samples(),
            jobs_retried: self.shared.jobs_retried.load(Ordering::Relaxed),
        }
    }

    /// Microseconds jobs spent waiting in the submission queue
    /// (log-bucketed, lock-free — records concurrently with reads).
    pub fn queue_wait_micros(&self) -> &LatencyHistogram {
        &self.shared.queue_wait_micros
    }

    /// Microseconds computed (non-cached) jobs took to execute.
    pub fn execution_micros(&self) -> &LatencyHistogram {
        &self.shared.execution_micros
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        // Closing the queue ends the worker loops once it drains.
        self.queue_tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn view_of(id: u64, record: &JobRecord) -> JobView {
    JobView {
        id,
        status: record.status,
        cached: record.cached,
        graph_nodes: record.graph_nodes,
        graph_edges: record.graph_edges,
        spec: record.spec,
        result: record.result.clone(),
        error: record.error.clone(),
        wall_nanos: record.wall_nanos,
        age_nanos: record.submitted.elapsed().as_nanos() as u64,
        timeline: record.timeline.clone(),
    }
}

/// Deterministic trace id of a job: the FNV-1a hash of the job id,
/// rendered as 16 hex digits. Stable across restarts for the same id,
/// echoed in job JSON and the `X-Trace-Id` response header.
pub fn trace_id(job_id: u64) -> String {
    let fnv = |hash: u64, &byte: &u8| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    let hash = job_id.to_le_bytes().iter().fold(0xcbf2_9ce4_8422_2325, fnv);
    format!("{hash:016x}")
}

fn worker_loop(shared: Arc<ManagerShared>, queue_rx: Arc<Mutex<Receiver<QueueItem>>>) {
    loop {
        let item = {
            let receiver = queue_rx.lock().expect("queue lock");
            receiver.recv()
        };
        let Ok(item) = item else {
            return; // Manager dropped; queue drained.
        };
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.running.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = shared.jobs.lock().expect("jobs lock");
            if let Some(record) = state.records.get_mut(&item.id) {
                record.status = JobStatus::Running;
            }
        }

        shared
            .queue_wait_micros
            .record(item.enqueued.elapsed().as_micros() as u64);

        let started = Instant::now();
        let mut attempt = 0u32;
        let (outcome, timeline) = loop {
            // One pre-allocated trace context per attempt: the fixed-size
            // event buffers are created before the computation starts, so
            // the AMPC rounds themselves stay allocation-free while
            // recording (a retried attempt gets a fresh context — the
            // discarded attempt's spans describe work that was thrown
            // away).
            let trace = (shared.trace_events > 0)
                .then(|| Arc::new(TraceContext::with_capacity(shared.trace_events)));
            // Panic isolation: a panicking computation must neither kill
            // the persistent worker nor leave the cache entry in-flight
            // forever — it becomes a failed job like any other error.
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                SparseColoring::color_request_traced(&item.graph, &item.spec.request, trace.clone())
            }));
            // Transient failures — a caught panic, or a round that
            // exhausted the runtime's own bounded retries — may succeed on
            // a clean re-run; deterministic errors never do.
            let transient = match &caught {
                Err(_) => true,
                Ok(Err(ampc_coloring::Error::Coloring(error))) => error.is_transient(),
                Ok(_) => false,
            };
            let outcome = caught.unwrap_or_else(|payload| {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                Err(ampc_coloring::Error::InvalidRequest(format!(
                    "job computation panicked: {detail}"
                )))
            });
            if outcome.is_err() && transient && attempt < shared.job_retries {
                attempt += 1;
                shared.jobs_retried.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            break (outcome, trace.map(|trace| Arc::new(trace.finish())));
        };
        let wall_nanos = started.elapsed().as_nanos() as u64;
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared.execution_micros.record(wall_nanos / 1_000);

        match outcome {
            Ok(outcome) => {
                shared.computed.fetch_add(1, Ordering::Relaxed);
                // Fold the job's per-round hardware samples into the
                // service-wide totals (skipped when sampling was
                // unavailable and the rounds carry only zeros).
                let mut perf = PerfCounters::default();
                for stats in outcome.metrics.runtime_stats() {
                    perf.add(&PerfCounters {
                        cycles: stats.cycles,
                        instructions: stats.instructions,
                        cache_references: stats.cache_references,
                        cache_misses: stats.cache_misses,
                        branch_misses: stats.branch_misses,
                    });
                }
                if !perf.is_zero() {
                    shared.perf.record(&perf);
                }
                let result = Arc::new(outcome);
                let waiters =
                    shared
                        .cache
                        .fulfill(item.key, &item.graph, &item.spec, Arc::clone(&result));
                shared.finish(
                    item.id,
                    JobStatus::Done,
                    false,
                    FinishOutcome::Result {
                        result: Arc::clone(&result),
                        wall_nanos,
                        timeline,
                    },
                );
                // Coalesced waiters share the result but not the timeline:
                // the spans belong to the computation the owner job ran.
                for waiter in waiters {
                    shared.finish(
                        waiter,
                        JobStatus::Done,
                        true,
                        FinishOutcome::Result {
                            result: Arc::clone(&result),
                            wall_nanos: 0,
                            timeline: None,
                        },
                    );
                }
            }
            Err(error) => {
                let message = error.to_string();
                let waiters = shared.cache.abandon(item.key, &item.graph, &item.spec);
                shared.finish(
                    item.id,
                    JobStatus::Failed,
                    false,
                    FinishOutcome::Error(message.clone()),
                );
                // `cached: false` — a failed waiter never received a cached
                // result, it merely shared the doomed computation.
                for waiter in waiters {
                    shared.finish(
                        waiter,
                        JobStatus::Failed,
                        false,
                        FinishOutcome::Error(message.clone()),
                    );
                }
            }
        }
    }
}

/// Deterministic hash identifying `(graph, spec)` — the cache key: one
/// rotate-xor-multiply step per word of `n`, `m`, each CSR row's length and
/// neighbours, then the spec (claims still compare the graph itself).
pub fn job_key(graph: &CsrGraph, spec: &JobSpec) -> u64 {
    let mut hash = 0u64;
    let mut write = |word: u64| {
        hash = (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    };
    write(graph.num_nodes() as u64);
    write(graph.num_edges() as u64);
    for u in graph.nodes() {
        let row = graph.neighbors(u);
        write(row.len() as u64);
        row.iter().for_each(|&v| write(v as u64));
    }
    let request = &spec.request;
    write(request.algorithm as u64);
    write(u64::from(request.alpha.is_some()));
    write(request.alpha.unwrap_or(0) as u64);
    write(request.epsilon.to_bits());
    write(request.delta.to_bits());
    write(request.max_partition_rounds as u64);
    match request.runtime {
        RuntimeConfig::Sequential => write(0),
        RuntimeConfig::Parallel { threads } => write(threads.map_or(1, |t| t as u64 + 2)),
    }
    write(spec.policy as u64);
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_coloring::Algorithm;
    use sparse_graph::{generators, read_edge_list_bounded};

    fn small_graph(side: usize) -> Arc<CsrGraph> {
        Arc::new(generators::triangulated_grid(side, side))
    }

    fn spec() -> JobSpec {
        JobSpec {
            request: ColorRequest {
                algorithm: Algorithm::TwoAlphaPlusOne,
                alpha: Some(3),
                ..ColorRequest::default()
            },
            policy: ConflictPolicy::KeepMin,
        }
    }

    #[test]
    fn submit_compute_and_cache_hit() {
        let manager = JobManager::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let graph = small_graph(8);
        let first = manager.submit(Arc::clone(&graph), spec()).unwrap();
        let view = manager.wait(first, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert!(!view.cached);
        let result = view.result.expect("done jobs carry a result");
        assert!(result.coloring.is_proper(&graph));

        // Identical submission: served from cache without recomputation.
        let second = manager.submit(Arc::clone(&graph), spec()).unwrap();
        let cached = manager.wait(second, Duration::from_secs(30)).unwrap();
        assert_eq!(cached.status, JobStatus::Done);
        assert!(cached.cached);
        assert_eq!(
            cached.result.unwrap().coloring.colors(),
            result.coloring.colors()
        );
        assert_eq!(manager.counters().computed, 1);

        // A different spec computes again.
        let other = manager
            .submit(
                Arc::clone(&graph),
                JobSpec {
                    request: ColorRequest {
                        alpha: Some(4),
                        ..spec().request
                    },
                    ..spec()
                },
            )
            .unwrap();
        let view = manager.wait(other, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert_eq!(manager.counters().computed, 2);
    }

    #[test]
    fn concurrent_identical_jobs_compute_once() {
        let manager = Arc::new(JobManager::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        }));
        let graph = small_graph(14);

        // Race two identical submissions from separate threads.
        let ids: Vec<u64> = {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let manager = Arc::clone(&manager);
                    let graph = Arc::clone(&graph);
                    thread::spawn(move || manager.submit(graph, spec()).unwrap())
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        };

        let views: Vec<JobView> = ids
            .iter()
            .map(|&id| manager.wait(id, Duration::from_secs(60)).unwrap())
            .collect();
        for view in &views {
            assert_eq!(view.status, JobStatus::Done, "job {}", view.id);
        }
        // The work ran exactly once; both jobs hold bit-identical results.
        assert_eq!(manager.counters().computed, 1);
        let colors: Vec<&[usize]> = views
            .iter()
            .map(|view| view.result.as_ref().unwrap().coloring.colors())
            .collect();
        assert_eq!(colors[0], colors[1]);
        assert!(
            views.iter().filter(|view| view.cached).count() >= 1,
            "one of the two must be served by the other's computation"
        );
        let counters = manager.counters();
        assert_eq!(counters.cache.misses, 1);
        assert_eq!(counters.cache.hits + counters.cache.coalesced, 1);
    }

    #[test]
    fn failed_jobs_report_structured_errors() {
        let manager = JobManager::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // alpha = 1 grossly underestimates K12's arboricity: partition fails.
        let graph = Arc::new(generators::complete(12));
        let bad = JobSpec {
            request: ColorRequest {
                algorithm: Algorithm::AlphaSquared,
                alpha: Some(1),
                epsilon: 0.1,
                ..ColorRequest::default()
            },
            policy: ConflictPolicy::KeepMin,
        };
        let id = manager.submit(graph, bad).unwrap();
        let view = manager.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Failed);
        assert!(!view.cached, "a failed job never received a cached result");
        let error = view.error.expect("failed jobs carry an error");
        assert!(error.contains("beta-partition"), "{error}");
        // A failure is not cached: the same submission computes again.
        assert_eq!(manager.counters().cache.entries, 0);
        // And it is not a successful computation either.
        assert_eq!(manager.counters().computed, 0);
        assert_eq!(manager.counters().failed, 1);
    }

    #[test]
    fn terminal_records_are_bounded_by_node_budget() {
        // The budget fits one ~196-node result at a time; a second result
        // evicts the first even though the record-count cap is far away.
        let manager = JobManager::new(ServiceConfig {
            workers: 1,
            retained_node_budget: 200,
            ..ServiceConfig::default()
        });
        let first = manager.submit(small_graph(14), spec()).unwrap();
        let view = manager.wait(first, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        let second = manager.submit(small_graph(13), spec()).unwrap();
        let view = manager.wait(second, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert!(
            manager.status(first).is_none(),
            "the oldest result must be evicted to stay under the node budget"
        );
        assert!(manager.status(second).is_some());
    }

    #[test]
    fn terminal_records_expire_after_the_ttl() {
        let manager = JobManager::new(ServiceConfig {
            workers: 1,
            job_ttl: Duration::from_millis(50),
            ..ServiceConfig::default()
        });
        let first = manager.submit(small_graph(8), spec()).unwrap();
        let view = manager.wait(first, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        // Fresh terminal records survive an immediate sweep.
        let _ = manager.recent(4);
        assert!(manager.status(first).is_some());
        thread::sleep(Duration::from_millis(120));
        // Any manager activity sweeps; `recent` is what /metrics renders.
        let _ = manager.recent(4);
        assert!(
            manager.status(first).is_none(),
            "terminal record older than the TTL must be swept"
        );
        // Submission is a GC point too.
        let second = manager.submit(small_graph(9), spec()).unwrap();
        let view = manager.wait(second, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        thread::sleep(Duration::from_millis(120));
        let third = manager.submit(small_graph(10), spec()).unwrap();
        assert!(manager.status(second).is_none(), "swept at submission");
        assert!(manager.status(third).is_some(), "fresh jobs never expire");
    }

    #[test]
    fn cached_results_expire_after_the_cache_ttl() {
        let manager = JobManager::new(ServiceConfig {
            workers: 1,
            cache_ttl: Duration::from_millis(50),
            ..ServiceConfig::default()
        });
        let graph = small_graph(8);
        let first = manager.submit(Arc::clone(&graph), spec()).unwrap();
        assert_eq!(
            manager.wait(first, Duration::from_secs(30)).unwrap().status,
            JobStatus::Done
        );
        // An immediate resubmission hits the still-fresh cache entry.
        let second = manager.submit(Arc::clone(&graph), spec()).unwrap();
        let view = manager.wait(second, Duration::from_secs(30)).unwrap();
        assert!(view.cached);
        assert_eq!(manager.counters().computed, 1);
        thread::sleep(Duration::from_millis(120));
        // Past the TTL the entry is swept: the identical job recomputes.
        let third = manager.submit(Arc::clone(&graph), spec()).unwrap();
        let view = manager.wait(third, Duration::from_secs(30)).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert!(!view.cached, "the stale entry must not serve hits");
        let counters = manager.counters();
        assert_eq!(counters.computed, 2);
        assert!(counters.cache.expired >= 1, "{:?}", counters.cache);
    }

    #[test]
    fn job_key_separates_graphs_and_configs() {
        let g1 = small_graph(6);
        let g2 = small_graph(7);
        let base = spec();
        assert_eq!(job_key(&g1, &base), job_key(&g1, &base));
        assert_ne!(job_key(&g1, &base), job_key(&g2, &base));
        let other_alpha = JobSpec {
            request: ColorRequest {
                alpha: Some(4),
                ..base.request
            },
            ..base
        };
        assert_ne!(job_key(&g1, &base), job_key(&g1, &other_alpha));
        let other_policy = JobSpec {
            policy: ConflictPolicy::KeepMax,
            ..base
        };
        assert_ne!(job_key(&g1, &base), job_key(&g1, &other_policy));
        let parallel = JobSpec {
            request: ColorRequest {
                runtime: RuntimeConfig::parallel().with_threads(4),
                ..base.request
            },
            ..base
        };
        assert_ne!(job_key(&g1, &base), job_key(&g1, &parallel));
    }

    #[test]
    fn one_graph_gets_one_key_from_every_body() {
        let bodies = [
            "0 1\n1 2\n2 3\n3 0\n0 2\n",
            // reordered, and endpoints swapped
            "2 0\n3 0\n3 2\n1 2\n1 0\n",
            // duplicated
            "0 1\n0 1\n1 0\n1 2\n2 3\n3 0\n0 2\n2 0\n",
            // self-looped
            "0 1\n1 1\n1 2\n2 2\n2 3\n3 0\n0 2\n",
            // `+`-prefixed
            "+0 +1\n+1 2\n2 +3\n3 0\n0 2\n",
            // comments, CRLF, tabs and no final newline
            "# square\r\nc diagonal\n0\t1\r\n 1  2 \n\n2 3\n3 0\n0 2",
        ];
        let key = |body: &str, min_nodes: usize| {
            let graph = read_edge_list_bounded(body.as_bytes(), min_nodes, 4096).unwrap();
            job_key(&graph, &spec())
        };
        let keys: Vec<u64> = bodies.iter().map(|body| key(body, 0)).collect();
        assert!(keys.iter().all(|&k| k == keys[0]), "{keys:?}");
        // One edge or one isolated node more is another graph.
        assert_ne!(key("0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n", 0), keys[0]);
        assert_ne!(key(bodies[0], 5), keys[0]);
    }

    #[test]
    fn max_graph_nodes_is_clamped_to_the_u32_bound() {
        // Above 2^32 nodes the cache's `u32` graph copy would panic inside
        // `claim`, under the cache lock.
        let clamped = JobManager::new(ServiceConfig {
            workers: 1,
            max_graph_nodes: usize::MAX,
            ..ServiceConfig::default()
        });
        assert_eq!(clamped.config().max_graph_nodes, MAX_GRAPH_NODES);
        assert_eq!(MAX_GRAPH_NODES as u64, 1 << 32);
        assert!(u32::try_from(MAX_GRAPH_NODES - 1).is_ok());
        let kept = JobManager::new(ServiceConfig {
            workers: 1,
            max_graph_nodes: 1 << 20,
            ..ServiceConfig::default()
        });
        assert_eq!(kept.config().max_graph_nodes, 1 << 20);
    }

    #[test]
    fn unknown_job_ids_are_none() {
        let manager = JobManager::new(ServiceConfig::default());
        assert!(manager.status(999).is_none());
        assert!(manager.wait(999, Duration::from_millis(10)).is_none());
    }
}

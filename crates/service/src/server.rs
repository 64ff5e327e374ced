//! The HTTP front-end: routing, request parsing and JSON rendering.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ampc_coloring::{Algorithm, ColorRequest, ColoringOutcome, RuntimeConfig, SparseColoring};
use ampc_coloring_bench::Table;
use ampc_model::ConflictPolicy;
use ampc_runtime::trace::LatencyHistogram;
use ampc_runtime::WorkerPool;
use sparse_graph::read_edge_list_bounded;

use crate::http::{read_head, HttpError, RequestHead, Response};
use crate::jobs::{trace_id, JobManager, JobSpec, JobView, ServiceConfig, SubmitError};
use crate::json::{array_u64, Object};

/// Per-read socket timeout for an in-flight request (the cumulative
/// HEAD/BODY deadlines bound whole transfers; this bounds one read).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-endpoint request counters (surfaced by `/metrics`).
#[derive(Debug, Default)]
struct EndpointCounters {
    healthz: AtomicU64,
    metrics: AtomicU64,
    version: AtomicU64,
    color: AtomicU64,
    jobs: AtomicU64,
    not_found: AtomicU64,
    bad_requests: AtomicU64,
    /// `429` backpressure rejections — kept apart from `bad_requests` so a
    /// full queue is not mistaken for malformed traffic in `/metrics`.
    queue_rejected: AtomicU64,
    /// `408` request-read deadline expiries — also kept apart: a client
    /// being cut off mid-transfer is not malformed traffic either.
    timeouts: AtomicU64,
    /// TCP connections accepted.
    connections: AtomicU64,
    /// Requests served on an already-used (kept-alive) connection — the
    /// `/metrics` signal that HTTP/1.1 connection reuse is working.
    keepalive_reused: AtomicU64,
    /// `503` loads shed by the queue-depth circuit breaker — distinct from
    /// `queue_rejected`: a shed request was turned away *before* parsing
    /// while the breaker was open, a 429 raced a momentarily full queue.
    shed: AtomicU64,
}

struct ServerState {
    started: Instant,
    shutdown: AtomicBool,
    /// Graceful-shutdown drain: while set, new `POST /v1/color`
    /// submissions are answered `503 + Retry-After` (read-only endpoints
    /// keep serving) so queued and running jobs can finish.
    draining: AtomicBool,
    counters: EndpointCounters,
    /// Synchronous (`wait=1`) requests currently parking an acceptor.
    sync_waiters: AtomicUsize,
    /// Cap on concurrent synchronous waits: one acceptor is always kept
    /// free for non-waiting endpoints (`/healthz`, `/metrics`), so slow
    /// jobs cannot make the whole server unresponsive.
    max_sync_waiters: usize,
    /// Microseconds each request took from parsed head to rendered
    /// response (log-bucketed; includes body read and synchronous waits).
    request_micros: LatencyHistogram,
    /// Queue-depth circuit breaker. While open, `POST /v1/color` sheds
    /// load with `503 + Retry-After` before reading the body. Hysteresis
    /// (open at 7/8 capacity, close at 1/2) keeps it from flapping.
    breaker_open: AtomicBool,
}

/// One hysteresis step of the queue-depth circuit breaker: returns the
/// breaker's next state given its current one and the observed queue.
/// Opening at 7/8 of capacity (before the queue is hard-full) sheds load
/// while cheap 503s can still be served; staying open until the queue
/// drains to half capacity prevents open/close flapping right at the
/// threshold.
fn breaker_transition(open: bool, depth: usize, capacity: usize) -> bool {
    if open {
        depth * 2 > capacity
    } else {
        depth * 8 >= capacity * 7
    }
}

/// An RAII reservation of one synchronous-wait slot; dropping it releases
/// the slot.
struct WaitSlot<'a> {
    state: &'a ServerState,
}

impl<'a> WaitSlot<'a> {
    fn acquire(state: &'a ServerState) -> Option<Self> {
        let mut current = state.sync_waiters.load(Ordering::Relaxed);
        loop {
            if current >= state.max_sync_waiters {
                return None;
            }
            match state.sync_waiters.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(WaitSlot { state }),
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for WaitSlot<'_> {
    fn drop(&mut self) {
        self.state.sync_waiters.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A bound (but not yet serving) coloring service.
pub struct Server {
    listener: TcpListener,
    manager: Arc<JobManager>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the service to `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// port) and spawns its persistent job workers.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            manager: Arc::new(JobManager::new(config)),
            state: Arc::new(ServerState {
                started: Instant::now(),
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                counters: EndpointCounters::default(),
                sync_waiters: AtomicUsize::new(0),
                max_sync_waiters: config.acceptors.max(1).saturating_sub(1),
                request_micros: LatencyHistogram::new(),
                breaker_open: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the fixed set of acceptor threads and returns a handle. No
    /// further threads are spawned per connection, per job or per round —
    /// the whole service runs on acceptors + job workers + the persistent
    /// runtime pool.
    ///
    /// # Errors
    ///
    /// Propagates listener clone failures.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let acceptors = self.manager.config().acceptors.max(1);
        let manager = Arc::clone(&self.manager);
        let state = Arc::clone(&self.state);
        let mut handles = Vec::with_capacity(acceptors);
        for index in 0..acceptors {
            let listener = self.listener.try_clone()?;
            let manager = Arc::clone(&self.manager);
            let state = Arc::clone(&self.state);
            handles.push(
                thread::Builder::new()
                    .name(format!("ampc-http-{index}"))
                    .spawn(move || acceptor_loop(listener, manager, state))
                    .expect("spawning an acceptor failed"),
            );
        }
        Ok(ServerHandle {
            addr,
            manager,
            state,
            handles,
        })
    }
}

/// A running server; dropping the handle leaks the acceptors, call
/// [`ServerHandle::shutdown`] for an orderly stop.
pub struct ServerHandle {
    addr: SocketAddr,
    manager: Arc<JobManager>,
    state: Arc<ServerState>,
    handles: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job manager behind the router.
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.manager
    }

    /// Stops the acceptors and joins them.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        // Wake every acceptor blocked in accept().
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// Enters drain mode: new `POST /v1/color` submissions are answered
    /// `503 + Retry-After` while every other endpoint (job polling,
    /// `/healthz`, `/metrics`) keeps serving, so in-flight work can finish
    /// and stragglers can still collect results.
    pub fn begin_drain(&self) {
        self.state.draining.store(true, Ordering::Release);
    }

    /// Waits (bounded by `timeout`) for the submission queue to empty and
    /// every running job to finish. Returns whether the service went
    /// fully idle within the deadline.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + timeout;
        loop {
            let counters = self.manager.counters();
            if counters.queue_depth == 0 && counters.running == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Graceful shutdown: [`ServerHandle::drain`] with a bounded deadline,
    /// then [`ServerHandle::shutdown`]. Joining the acceptors and dropping
    /// the job manager reaps every worker thread. Returns whether the
    /// drain completed in time; on `false`, still-queued jobs were
    /// abandoned at the deadline.
    pub fn shutdown_graceful(self, drain_timeout: Duration) -> bool {
        let drained = self.drain(drain_timeout);
        self.shutdown();
        drained
    }
}

fn acceptor_loop(listener: TcpListener, manager: Arc<JobManager>, state: Arc<ServerState>) {
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            if state.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Persistent accept errors (e.g. fd exhaustion) must not
            // busy-spin the acceptor at 100% CPU.
            thread::sleep(Duration::from_millis(50));
            continue;
        };
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
        state.counters.connections.fetch_add(1, Ordering::Relaxed);
        serve_connection(&mut stream, &manager, &state);
    }
}

/// Serves up to `max_requests_per_connection` HTTP/1.1 requests on one
/// connection. The connection is reused only when the request body was
/// fully consumed, the client did not ask for `Connection: close`, and the
/// per-connection request cap has not been reached; between requests an
/// idle client is cut off after [`crate::http::KEEPALIVE_IDLE`] so parked
/// acceptors are reclaimed quickly.
fn serve_connection(stream: &mut TcpStream, manager: &Arc<JobManager>, state: &ServerState) {
    let max_requests = manager.config().max_requests_per_connection.max(1);
    let mut carry = Vec::new();
    for served in 0..max_requests {
        let reused = served > 0;
        if reused {
            // The per-read socket timeout must not exceed the idle budget,
            // or a silent client would hold the acceptor for the full 30 s.
            let _ = stream.set_read_timeout(Some(crate::http::KEEPALIVE_IDLE));
        }
        let head_budget = if reused {
            crate::http::KEEPALIVE_IDLE
        } else {
            crate::http::HEAD_DEADLINE
        };
        let mut head = match read_head(
            stream,
            manager.config().max_body_bytes,
            Instant::now() + head_budget,
            std::mem::take(&mut carry),
            reused,
        ) {
            Ok(head) => head,
            Err(HttpError::Closed) => return,
            Err(error) => {
                let status = match &error {
                    HttpError::TooLarge(_) => 413,
                    HttpError::Timeout(_) => 408,
                    _ => 400,
                };
                if status == 408 {
                    state.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                }
                let _ = error_response(status, &error.to_string()).write_to(stream, false);
                return;
            }
        };
        if reused {
            state
                .counters
                .keepalive_reused
                .fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        }
        let handled = Instant::now();
        let response = handle_request(stream, &mut head, manager, state);
        state
            .request_micros
            .record(handled.elapsed().as_micros() as u64);
        // The socket is reusable only when it is positioned at the end of
        // this request's body (drain is idempotent; the handler usually
        // consumed the body already).
        let reusable = head.drain(stream);
        let keep_alive = reusable && !head.close && served + 1 < max_requests;
        if response.write_to(stream, keep_alive).is_err() || !keep_alive {
            return;
        }
        carry = head.into_pipelined();
    }
}

fn handle_request(
    stream: &mut TcpStream,
    head: &mut RequestHead,
    manager: &Arc<JobManager>,
    state: &ServerState,
) -> Response {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => {
            state.counters.healthz.fetch_add(1, Ordering::Relaxed);
            // Three-state health: "ok" (fully healthy), "degraded"
            // (still serving, but the breaker is shedding writes or pool
            // workers have been restarted after panics — investigate),
            // "unhealthy" + 503 (submission queue saturated; orchestrators
            // should stop routing new work here).
            let counters = manager.counters();
            let faults = ampc_runtime::faults::counters();
            let restarts = WorkerPool::global().stats().worker_restarts;
            let breaker = state.breaker_open.load(Ordering::Relaxed);
            let saturated =
                counters.queue_capacity > 0 && counters.queue_depth >= counters.queue_capacity;
            let (code, label) = if saturated {
                (503, "unhealthy")
            } else if breaker || restarts > 0 {
                (200, "degraded")
            } else {
                (200, "ok")
            };
            Response::json(
                code,
                Object::new()
                    .str("status", label)
                    .u64("uptime_nanos", state.started.elapsed().as_nanos() as u64)
                    .bool("draining", state.draining.load(Ordering::Relaxed))
                    .bool("breaker_open", breaker)
                    .u64("worker_restarts", restarts)
                    .u64("requests_shed", state.counters.shed.load(Ordering::Relaxed))
                    .u64("jobs_retried", counters.jobs_retried)
                    .u64("rounds_retried", faults.rounds_retried)
                    .finish(),
            )
        }
        ("GET", "/v1/version") => {
            state.counters.version.fetch_add(1, Ordering::Relaxed);
            Response::json(
                200,
                Object::new()
                    .str("name", env!("CARGO_PKG_NAME"))
                    .raw("build_info", build_info_json())
                    .f64("uptime_seconds", state.started.elapsed().as_secs_f64())
                    .bool("perf_available", ampc_runtime::perf::available())
                    .finish(),
            )
        }
        ("GET", "/metrics") => {
            state.counters.metrics.fetch_add(1, Ordering::Relaxed);
            if head.query_param("format") == Some("prometheus") {
                let mut response = Response::text(200, metrics_prometheus(manager, state));
                response.content_type = "text/plain; version=0.0.4; charset=utf-8";
                response
            } else {
                Response::json(200, metrics_json(manager, state))
            }
        }
        ("POST", "/v1/color") => {
            state.counters.color.fetch_add(1, Ordering::Relaxed);
            match handle_color(stream, head, manager, state) {
                Ok(response) => response,
                Err(response) => {
                    match response.status {
                        429 => {
                            state
                                .counters
                                .queue_rejected
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        // Breaker sheds are operator signal (the server is
                        // protecting itself), not client error.
                        503 => {
                            state.counters.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    *response
                }
            }
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            state.counters.jobs.fetch_add(1, Ordering::Relaxed);
            let rest = &path["/v1/jobs/".len()..];
            let (id_text, action) = match rest.split_once('/') {
                None => (rest, None),
                Some((id_text, action)) => (id_text, Some(action)),
            };
            match id_text.parse::<u64>() {
                Ok(id) => match action {
                    None => match manager.status(id) {
                        Some(view) => Response::json(200, job_json(&view))
                            .with_header("X-Trace-Id", trace_id(id)),
                        None => error_response(404, &format!("unknown job id {id}")),
                    },
                    Some("trace") => handle_trace(manager, id),
                    Some(other) => {
                        error_response(404, &format!("no sub-resource `{other}` on jobs"))
                    }
                },
                Err(_) => {
                    state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                    error_response(400, "job ids are unsigned integers")
                }
            }
        }
        _ => {
            state.counters.not_found.fetch_add(1, Ordering::Relaxed);
            error_response(404, &format!("no route for {} {}", head.method, head.path))
        }
    }
    // The caller (`serve_connection`) drains whatever part of the body the
    // route left unread before the response is written — both so the
    // client receives a 4xx instead of a TCP reset and so the connection
    // can be kept alive.
}

/// Reads and discards the (untouched) request body.
fn drain_body(stream: &mut TcpStream, head: &mut RequestHead) {
    let _ = head.drain(stream);
}

/// `GET /v1/jobs/{id}/trace`: the job's span timeline as Chrome
/// trace-event JSON (loadable in Perfetto / `chrome://tracing`). Only the
/// job that owned the computation carries a timeline — cached and
/// coalesced jobs answer 404, in-flight jobs 409.
fn handle_trace(manager: &Arc<JobManager>, id: u64) -> Response {
    match manager.status(id) {
        None => error_response(404, &format!("unknown job id {id}")),
        Some(view) => match &view.timeline {
            Some(timeline) => Response::json(200, timeline.chrome_trace_json())
                .with_header("X-Trace-Id", trace_id(id)),
            None if !view.status.is_terminal() => error_response(
                409,
                &format!(
                    "job {id} is still {}; its trace is available once it finishes",
                    view.status.label()
                ),
            ),
            None => error_response(
                404,
                &format!(
                    "job {id} has no trace (served from cache, coalesced onto another \
                     computation, or tracing is disabled)"
                ),
            ),
        },
    }
}

/// Parses the query string and body of `POST /v1/color`, submits the job
/// and renders the response. Errors come back as ready-to-send 4xx/5xx
/// responses.
fn handle_color(
    stream: &mut TcpStream,
    head: &mut RequestHead,
    manager: &Arc<JobManager>,
    state: &ServerState,
) -> Result<Response, Box<Response>> {
    // A draining server turns every new submission away before parsing:
    // the queue is being emptied for shutdown, and `Retry-After` points
    // stragglers at the replacement instance.
    if state.draining.load(Ordering::Acquire) {
        state.counters.shed.fetch_add(1, Ordering::Relaxed);
        drain_body(stream, head);
        return Err(Box::new(
            error_response(503, "shutting down: submissions are draining")
                .with_header("Retry-After", "1"),
        ));
    }
    // The circuit breaker is consulted (and stepped) before any parsing:
    // while open, the cheapest possible 503 turns new work away so the
    // workers can drain the backlog. `Retry-After` tells well-behaved
    // clients when shedding is expected to stop.
    {
        let counters = manager.counters();
        let open = state.breaker_open.load(Ordering::Relaxed);
        let next = breaker_transition(open, counters.queue_depth, counters.queue_capacity.max(1));
        if next != open {
            state.breaker_open.store(next, Ordering::Relaxed);
        }
        if next {
            drain_body(stream, head);
            return Err(Box::new(
                error_response(
                    503,
                    &format!(
                        "shedding load: submission queue at {}/{} (breaker open)",
                        counters.queue_depth, counters.queue_capacity
                    ),
                )
                .with_header("Retry-After", "1"),
            ));
        }
    }
    // Every early error drains the (partially) unread body first, so the
    // client receives the 4xx instead of a connection reset.
    let spec = match parse_spec(head) {
        Ok(spec) => spec,
        Err(response) => {
            drain_body(stream, head);
            return Err(Box::new(response));
        }
    };
    // The per-request node cap scales with the body the client actually
    // sent: a 30-byte request must not be able to demand the server-wide
    // maximum allocation via min_nodes or a huge node id.
    let max_nodes = node_cap_for_body(head.content_length, manager.config().max_graph_nodes);
    let min_nodes = match parse_optional(head, "min_nodes") {
        Ok(value) => value.unwrap_or(0),
        Err(response) => {
            drain_body(stream, head);
            return Err(response);
        }
    };
    if min_nodes > max_nodes {
        drain_body(stream, head);
        return Err(Box::new(error_response(
            400,
            &format!(
                "min_nodes {min_nodes} exceeds this request's limit of {max_nodes} nodes \
                 (proportional to the {}-byte body)",
                head.content_length
            ),
        )));
    }
    // Parse wait/timeout up front: a malformed value must fail before the
    // job is accepted, not after the client has already paid for it.
    // Clamped: a synchronous wait parks an acceptor thread, so the client
    // must not be able to hold it near (or past) typical health-probe
    // windows.
    const MAX_WAIT_MS: usize = 30_000;
    let wait = matches!(head.query_param("wait"), Some("1") | Some("true"));
    let timeout_ms = match parse_optional(head, "timeout_ms") {
        Ok(value) => value.unwrap_or(60_000).min(MAX_WAIT_MS),
        Err(response) => {
            drain_body(stream, head);
            return Err(response);
        }
    };
    if head.content_length == 0 {
        return Err(Box::new(error_response(
            400,
            "empty body; POST a whitespace-separated edge list",
        )));
    }
    // Bounded: a node id in the body must not be able to dictate an
    // arbitrarily large adjacency allocation.
    let graph = {
        let mut body = head.body_reader(stream);
        match read_edge_list_bounded(&mut body, min_nodes, max_nodes) {
            Ok(graph) => graph,
            Err(error) => {
                let _ = io::copy(&mut body, &mut io::sink());
                return Err(Box::new(error_response(400, &error.to_string())));
            }
        }
    };

    let job = match manager.submit(Arc::new(graph), spec) {
        Ok(id) => id,
        Err(error @ SubmitError::QueueFull { .. }) => {
            return Err(Box::new(error_response(429, &error.to_string())));
        }
    };

    if wait {
        // A synchronous wait parks this acceptor thread; WaitSlot caps how
        // many may park at once so at least one acceptor stays free for
        // /healthz and /metrics. Past the cap the request degrades to the
        // async 202 flow below instead of queueing up more parked threads.
        if let Some(_slot) = WaitSlot::acquire(state) {
            // The record can already be gone if the retention cap evicted
            // it (eviction only touches terminal jobs, so it did finish).
            let response = match manager.wait(job, Duration::from_millis(timeout_ms as u64)) {
                // A wait that elapses before the job finishes answers 202
                // like the slot-exhausted path, so every non-terminal
                // outcome uniformly tells the client to poll (a 200 with
                // status "running" would read as a finished-but-wrong
                // result to naive clients).
                Some(view) if !view.status.is_terminal() => Response::json(
                    202,
                    Object::new()
                        .u64("job", job)
                        .str("status", view.status.label())
                        .str(
                            "note",
                            "wait elapsed before the job finished; poll GET /v1/jobs/{id}",
                        )
                        .finish(),
                ),
                Some(view) => Response::json(200, job_json(&view)),
                None => Response::json(
                    200,
                    Object::new()
                        .u64("job", job)
                        .str("status", "expired")
                        .str(
                            "error",
                            "job finished but its record was evicted (retention cap or TTL)",
                        )
                        .finish(),
                ),
            };
            return Ok(response
                .with_header("X-Job-Id", job.to_string())
                .with_header("X-Trace-Id", trace_id(job)));
        }
    }
    let view = manager.status(job);
    if wait {
        // No slot was free, but a job that is already terminal (e.g. a
        // cache hit resolved at submission) needs no wait at all — serve
        // it outright instead of a contradictory 202 "done".
        if let Some(view) = view.as_ref().filter(|view| view.status.is_terminal()) {
            return Ok(Response::json(200, job_json(view))
                .with_header("X-Job-Id", job.to_string())
                .with_header("X-Trace-Id", trace_id(job)));
        }
    }
    let status_label = view.map_or("expired", |view| view.status.label());
    let mut accepted = Object::new().u64("job", job).str("status", status_label);
    if wait {
        accepted = accepted.str(
            "note",
            "all synchronous wait slots are busy; poll GET /v1/jobs/{id}",
        );
    }
    Ok(Response::json(202, accepted.finish())
        .with_header("X-Job-Id", job.to_string())
        .with_header("X-Trace-Id", trace_id(job)))
}

/// The node cap for a request with a `body_bytes`-sized edge list: the
/// configured server-wide maximum, tightened to a multiple of the body
/// size (an edge line is ≥ 4 bytes and introduces ≤ 2 nodes, so 4× the
/// body is generous even for sparse id spaces), with a small floor so
/// trivial test bodies still work.
fn node_cap_for_body(body_bytes: usize, max_graph_nodes: usize) -> usize {
    max_graph_nodes.min(body_bytes.saturating_mul(4).max(4096))
}

/// Builds the validated [`JobSpec`] from the query string.
fn parse_spec(head: &RequestHead) -> Result<JobSpec, Response> {
    let mut request = ColorRequest::default();
    if let Some(raw) = head.query_param("algorithm") {
        request.algorithm = parse_algorithm(raw)
            .ok_or_else(|| error_response(400, &format!("unknown algorithm `{raw}`")))?;
    }
    if let Some(raw) = head.query_param("alpha") {
        let alpha = raw
            .parse::<usize>()
            .map_err(|_| error_response(400, &format!("bad alpha `{raw}`")))?;
        request.alpha = Some(alpha);
    }
    for (name, slot) in [
        ("epsilon", &mut request.epsilon as &mut f64),
        ("delta", &mut request.delta),
    ] {
        if let Some(raw) = head.query_param(name) {
            *slot = raw
                .parse::<f64>()
                .map_err(|_| error_response(400, &format!("bad {name} `{raw}`")))?;
        }
    }
    if let Some(raw) = head.query_param("max_rounds") {
        request.max_partition_rounds = raw
            .parse::<usize>()
            .map_err(|_| error_response(400, &format!("bad max_rounds `{raw}`")))?;
    }

    // The thread count sizes allocations (one chunk and write buffer per
    // thread), so an untrusted client must not pick it arbitrarily large.
    const MAX_THREADS: usize = 256;
    let threads = parse_optional_response(head, "threads")?;
    if let Some(threads) = threads {
        if threads == 0 || threads > MAX_THREADS {
            return Err(error_response(
                400,
                &format!("threads must lie in 1..={MAX_THREADS}"),
            ));
        }
    }
    let runtime_kind = head.query_param("runtime").unwrap_or({
        if threads.is_some() {
            "parallel"
        } else {
            "sequential"
        }
    });
    request.runtime = match runtime_kind {
        "sequential" => {
            if threads.is_some() {
                return Err(error_response(
                    400,
                    "threads only applies to runtime=parallel",
                ));
            }
            RuntimeConfig::Sequential
        }
        "parallel" => threads.map_or_else(RuntimeConfig::parallel, |threads| {
            RuntimeConfig::parallel().with_threads(threads)
        }),
        other => {
            return Err(error_response(
                400,
                &format!("unknown runtime `{other}` (sequential|parallel)"),
            ));
        }
    };

    let policy = match head.query_param("policy") {
        None => ConflictPolicy::KeepMin,
        Some(raw) => {
            let policy = parse_policy(raw)
                .ok_or_else(|| error_response(400, &format!("unknown policy `{raw}`")))?;
            if policy != ConflictPolicy::KeepMin {
                return Err(error_response(
                    400,
                    &format!(
                        "policy `{raw}` is not usable for coloring jobs: the pipeline's \
                         rounds require the paper's min-merge (keep-min, Lemma 4.10)"
                    ),
                ));
            }
            policy
        }
    };

    // Reject out-of-domain numerics (NaN/negative epsilon, delta outside
    // (0, 1], alpha = 0, …) at submission time: a job that can only fail
    // must not be queued, and — crucially — a NaN spec must never reach
    // the result cache.
    SparseColoring::from_request(&request)
        .map_err(|error| error_response(400, &error.to_string()))?;

    Ok(JobSpec { request, policy })
}

fn parse_optional(head: &RequestHead, name: &str) -> Result<Option<usize>, Box<Response>> {
    parse_optional_response(head, name).map_err(Box::new)
}

fn parse_optional_response(head: &RequestHead, name: &str) -> Result<Option<usize>, Response> {
    match head.query_param(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<usize>()
            .map(Some)
            .map_err(|_| error_response(400, &format!("bad {name} `{raw}`"))),
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        Object::new()
            .str("error", message)
            .u64("status", status as u64)
            .finish(),
    )
}

/// Wire labels of [`Algorithm`] variants.
fn parse_algorithm(raw: &str) -> Option<Algorithm> {
    Some(match raw {
        "auto" => Algorithm::Auto,
        "alpha-power" => Algorithm::AlphaPower,
        "alpha-squared" => Algorithm::AlphaSquared,
        "two-alpha-plus-one" => Algorithm::TwoAlphaPlusOne,
        "large-arboricity" => Algorithm::LargeArboricity,
        _ => return None,
    })
}

fn algorithm_label(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Auto => "auto",
        Algorithm::AlphaPower => "alpha-power",
        Algorithm::AlphaSquared => "alpha-squared",
        Algorithm::TwoAlphaPlusOne => "two-alpha-plus-one",
        Algorithm::LargeArboricity => "large-arboricity",
    }
}

/// Wire labels of [`ConflictPolicy`] variants.
fn parse_policy(raw: &str) -> Option<ConflictPolicy> {
    Some(match raw {
        "keep-min" => ConflictPolicy::KeepMin,
        "keep-max" => ConflictPolicy::KeepMax,
        "keep-first" => ConflictPolicy::KeepFirst,
        "error" => ConflictPolicy::Error,
        _ => return None,
    })
}

fn policy_label(policy: ConflictPolicy) -> &'static str {
    match policy {
        ConflictPolicy::KeepMin => "keep-min",
        ConflictPolicy::KeepMax => "keep-max",
        ConflictPolicy::KeepFirst => "keep-first",
        ConflictPolicy::Error => "error",
    }
}

/// Renders a job snapshot (status, config echo, result, metrics table).
fn job_json(view: &JobView) -> String {
    let mut object = Object::new()
        .u64("job", view.id)
        .str("status", view.status.label())
        .str("trace_id", &trace_id(view.id))
        .bool("trace_available", view.timeline.is_some())
        .bool("cached", view.cached)
        .raw(
            "graph",
            Object::new()
                .usize("nodes", view.graph_nodes)
                .usize("edges", view.graph_edges)
                .finish(),
        )
        .raw("config", config_json(&view.spec))
        .u64("age_nanos", view.age_nanos);
    if let Some(result) = &view.result {
        object = object.raw("result", result_json(result, view.wall_nanos));
    }
    if let Some(error) = &view.error {
        object = object.str("error", error);
    }
    object.finish()
}

fn config_json(spec: &JobSpec) -> String {
    let request = &spec.request;
    let mut object = Object::new().str("algorithm", algorithm_label(request.algorithm));
    object = match request.alpha {
        Some(alpha) => object.usize("alpha", alpha),
        None => object.raw("alpha", "null"),
    };
    object
        .f64("epsilon", request.epsilon)
        .f64("delta", request.delta)
        .usize("max_partition_rounds", request.max_partition_rounds)
        .str("runtime", &request.runtime.label())
        .str("policy", policy_label(spec.policy))
        .finish()
}

fn result_json(outcome: &ColoringOutcome, wall_nanos: u64) -> String {
    Object::new()
        .str("algorithm", &outcome.algorithm)
        .usize("colors_used", outcome.colors_used)
        .usize("alpha", outcome.alpha)
        .usize("beta", outcome.beta)
        .usize("partition_rounds", outcome.partition_rounds)
        .usize("partition_size", outcome.partition_size)
        .usize("coloring_rounds", outcome.coloring_rounds)
        .usize("total_rounds", outcome.total_rounds)
        .u64("wall_clock_nanos", wall_nanos)
        .raw(
            "coloring",
            array_u64(outcome.coloring.colors().iter().map(|&c| c as u64)),
        )
        .raw("runtime_stats", runtime_stats_table(outcome).to_json())
        .finish()
}

/// Short git hash of the build, injected by the crate's build script (or
/// an `AMPC_GIT_HASH` override at compile time); "unknown" for builds
/// without either.
fn build_git_hash() -> &'static str {
    option_env!("AMPC_GIT_HASH").unwrap_or("unknown")
}

/// The rustc that produced this build, via the build script (or an
/// `AMPC_RUSTC_VERSION` override).
fn build_rustc() -> &'static str {
    option_env!("AMPC_RUSTC_VERSION").unwrap_or("unknown")
}

/// The `build_info` block shared by `GET /v1/version` and `/metrics`: a
/// scraper can tell exactly which build it is talking to.
fn build_info_json() -> String {
    Object::new()
        .str("version", env!("CARGO_PKG_VERSION"))
        .str("git_hash", build_git_hash())
        .str("rustc", build_rustc())
        .finish()
}

/// Formats an optional ratio with two decimals, "-" when the underlying
/// counters were not sampled (perf unavailable).
fn ratio_cell(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.2}"))
}

/// Formats an optional rate as a percentage with one decimal, "-" when
/// not sampled.
fn percent_cell(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{:.1}", v * 100.0))
}

/// The per-round runtime measurements rendered through the workspace's
/// no-serde [`Table`] serializer.
fn runtime_stats_table(outcome: &ColoringOutcome) -> Table {
    let mut table = Table::new(
        "runtime",
        "per-round runtime stats",
        "wall clock, conflict merges, pool reuse and hardware counters of every \
         recorded AMPC round; the coloring-phase row's wall_clock_us is real \
         elapsed time (the max over concurrently simulated layers) while \
         intra_wall_us sums worker occupancy across those layers, so \
         occupancy can legitimately exceed wall clock on multi-threaded \
         runs; cycles/instructions/ipc/cache_miss_pct come from \
         perf_event_open sampling and read '-'/0 when unavailable",
        &[
            "round",
            "wall_clock_us",
            "conflict_merges",
            "pool_tasks",
            "pool_idle_us",
            "pool_steals",
            "pool_overflows",
            "intra_tasks",
            "intra_wall_us",
            "scratch_reuses",
            "scratch_allocs",
            "cycles",
            "instructions",
            "ipc",
            "cache_miss_pct",
            "branch_misses",
        ],
    );
    for (round, stats) in outcome.metrics.runtime_stats().iter().enumerate() {
        table.push_row(vec![
            round.to_string(),
            (stats.wall_clock_nanos / 1_000).to_string(),
            stats.conflict_merges.to_string(),
            stats.pool_tasks_per_worker.iter().sum::<u64>().to_string(),
            (stats.pool_idle_nanos / 1_000).to_string(),
            stats.pool_steals.to_string(),
            stats.pool_overflows.to_string(),
            stats.intra_tasks.to_string(),
            (stats.intra_wall_nanos / 1_000).to_string(),
            stats.scratch_reuses.to_string(),
            stats.scratch_allocs.to_string(),
            stats.cycles.to_string(),
            stats.instructions.to_string(),
            ratio_cell(stats.ipc()),
            percent_cell(stats.cache_miss_rate()),
            stats.branch_misses.to_string(),
        ]);
    }
    table
}

/// The `/metrics` document: endpoint counters, queue depth, job and cache
/// counters, persistent-pool reuse stats and a recent-jobs table.
fn metrics_json(manager: &Arc<JobManager>, state: &ServerState) -> String {
    let counters = manager.counters();
    let pool = WorkerPool::global();
    let pool_stats = pool.stats();

    let mut recent = Table::new(
        "recent-jobs",
        "recently submitted jobs",
        "per-job status, rounds and compute wall clock",
        &[
            "job",
            "status",
            "cached",
            "nodes",
            "edges",
            "colors",
            "total_rounds",
            "wall_clock_us",
        ],
    );
    for view in manager.recent(16) {
        let (colors, rounds) = view
            .result
            .as_ref()
            .map_or((0, 0), |r| (r.colors_used, r.total_rounds));
        recent.push_row(vec![
            view.id.to_string(),
            view.status.label().to_string(),
            view.cached.to_string(),
            view.graph_nodes.to_string(),
            view.graph_edges.to_string(),
            colors.to_string(),
            rounds.to_string(),
            (view.wall_nanos / 1_000).to_string(),
        ]);
    }

    let perf = counters.perf;
    Object::new()
        .u64("uptime_nanos", state.started.elapsed().as_nanos() as u64)
        .f64("uptime_seconds", state.started.elapsed().as_secs_f64())
        .raw("build_info", build_info_json())
        .raw(
            "perf",
            Object::new()
                .bool("available", ampc_runtime::perf::available())
                .u64("cycles", perf.cycles)
                .u64("instructions", perf.instructions)
                .u64("cache_references", perf.cache_references)
                .u64("cache_misses", perf.cache_misses)
                .u64("branch_misses", perf.branch_misses)
                .u64("sampled_jobs", counters.perf_sampled_jobs)
                .finish(),
        )
        .raw(
            "endpoints",
            Object::new()
                .u64("healthz", state.counters.healthz.load(Ordering::Relaxed))
                .u64("metrics", state.counters.metrics.load(Ordering::Relaxed))
                .u64("version", state.counters.version.load(Ordering::Relaxed))
                .u64("color", state.counters.color.load(Ordering::Relaxed))
                .u64("jobs", state.counters.jobs.load(Ordering::Relaxed))
                .u64(
                    "not_found",
                    state.counters.not_found.load(Ordering::Relaxed),
                )
                .u64(
                    "bad_requests",
                    state.counters.bad_requests.load(Ordering::Relaxed),
                )
                .u64(
                    "queue_rejected",
                    state.counters.queue_rejected.load(Ordering::Relaxed),
                )
                .u64("timeouts", state.counters.timeouts.load(Ordering::Relaxed))
                .finish(),
        )
        .raw(
            "http",
            Object::new()
                .u64(
                    "connections",
                    state.counters.connections.load(Ordering::Relaxed),
                )
                .u64(
                    "keepalive_reused",
                    state.counters.keepalive_reused.load(Ordering::Relaxed),
                )
                .usize(
                    "max_requests_per_connection",
                    manager.config().max_requests_per_connection,
                )
                .finish(),
        )
        .raw(
            "queue",
            Object::new()
                .usize("depth", counters.queue_depth)
                .usize("capacity", counters.queue_capacity)
                .finish(),
        )
        .raw(
            "waits",
            Object::new()
                .usize("in_flight", state.sync_waiters.load(Ordering::Relaxed))
                .usize("max_concurrent", state.max_sync_waiters)
                .finish(),
        )
        .raw(
            "jobs",
            Object::new()
                .u64("submitted", counters.submitted)
                .u64("completed", counters.completed)
                .u64("failed", counters.failed)
                .u64("computed", counters.computed)
                .usize("running", counters.running)
                .finish(),
        )
        .raw(
            "cache",
            Object::new()
                .u64("hits", counters.cache.hits)
                .u64("misses", counters.cache.misses)
                .u64("coalesced", counters.cache.coalesced)
                .u64("entries", counters.cache.entries)
                .u64("evicted", counters.cache.evicted)
                .u64("expired", counters.cache.expired)
                .finish(),
        )
        .raw(
            "pool",
            Object::new()
                .usize("workers", pool.num_workers())
                .raw(
                    "tasks_per_worker",
                    array_u64(pool_stats.tasks_per_worker.iter().copied()),
                )
                .raw(
                    "idle_nanos_per_worker",
                    array_u64(pool_stats.idle_nanos_per_worker.iter().copied()),
                )
                .u64("helper_tasks", pool_stats.helper_tasks)
                .u64("steals", pool_stats.steals)
                .u64("overflows", pool_stats.overflows)
                .finish(),
        )
        .raw("scratch", {
            // Process-wide scratch-buffer reuse across every coloring
            // context: in steady state `reuses` dwarfs `allocs` (the
            // allocation-discipline contract the intra bench gates on).
            let (reuses, allocs) = ampc_runtime::scratch_totals();
            Object::new()
                .u64("reuses", reuses)
                .u64("allocs", allocs)
                .finish()
        })
        .raw("faults", {
            // The resilience plane: how much self-protection and recovery
            // machinery has actually fired. The injected_* counters stay 0
            // unless a deterministic fault plan (AMPC_FAULTS) is active.
            let faults = ampc_runtime::faults::counters();
            Object::new()
                .bool("breaker_open", state.breaker_open.load(Ordering::Relaxed))
                .u64("requests_shed", state.counters.shed.load(Ordering::Relaxed))
                .u64("worker_restarts", pool_stats.worker_restarts)
                .u64("jobs_retried", counters.jobs_retried)
                .u64("rounds_retried", faults.rounds_retried)
                .u64("deadline_trips", faults.deadline_trips)
                .u64("injected_panics", faults.injected_panics)
                .u64("injected_stalls", faults.injected_stalls)
                .u64("injected_merge_failures", faults.injected_merge_failures)
                .u64("injected_allocs", faults.injected_allocs)
                .u64("worker_poisons", faults.worker_poisons)
                .finish()
        })
        .raw(
            "latency",
            Object::new()
                .raw("request_micros", histogram_json(&state.request_micros))
                .raw(
                    "queue_wait_micros",
                    histogram_json(manager.queue_wait_micros()),
                )
                .raw(
                    "execution_micros",
                    histogram_json(manager.execution_micros()),
                )
                .finish(),
        )
        .raw("recent_jobs", recent.to_json())
        .finish()
}

/// Summary of one log-bucketed latency histogram for the JSON metrics
/// document: count, mean, quantiles and the non-empty buckets.
fn histogram_json(histogram: &LatencyHistogram) -> String {
    let buckets = histogram.nonzero_buckets();
    Object::new()
        .u64("count", histogram.count())
        .u64("sum", histogram.sum())
        .f64("mean", histogram.mean())
        .u64("p50", histogram.quantile(0.5))
        .u64("p90", histogram.quantile(0.9))
        .u64("p99", histogram.quantile(0.99))
        .u64("max", histogram.max())
        .raw("bucket_le", array_u64(buckets.iter().map(|&(le, _)| le)))
        .raw(
            "bucket_count",
            array_u64(buckets.iter().map(|&(_, count)| count)),
        )
        .finish()
}

/// The Prometheus text-exposition rendering of `/metrics`
/// (`?format=prometheus`): every counter/gauge family with `# HELP` and
/// `# TYPE` lines, plus the three latency histograms in the native
/// `_bucket{le=…}` / `_sum` / `_count` shape.
fn metrics_prometheus(manager: &Arc<JobManager>, state: &ServerState) -> String {
    let counters = manager.counters();
    let pool = WorkerPool::global();
    let pool_stats = pool.stats();
    let (scratch_reuses, scratch_allocs) = ampc_runtime::scratch_totals();
    let mut out = String::with_capacity(4096);

    let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
        push_family(out, name, help, "gauge");
        push_sample(out, name, &[], value);
    };
    let counter = |out: &mut String, name: &str, help: &str, value: u64| {
        push_family(out, name, help, "counter");
        push_sample(out, name, &[], value as f64);
    };

    gauge(
        &mut out,
        "ampc_uptime_seconds",
        "Seconds since the server started.",
        state.started.elapsed().as_secs_f64(),
    );

    // The conventional build-identity pseudo-gauge: constant 1, with the
    // identifying facts carried as labels.
    push_family(
        &mut out,
        "ampc_build_info",
        "Build identity of the serving binary (constant 1).",
        "gauge",
    );
    push_sample(
        &mut out,
        "ampc_build_info",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("git_hash", build_git_hash()),
            ("rustc", build_rustc()),
        ],
        1.0,
    );

    push_family(
        &mut out,
        "ampc_http_requests_total",
        "HTTP requests served, by endpoint outcome.",
        "counter",
    );
    for (endpoint, value) in [
        ("healthz", state.counters.healthz.load(Ordering::Relaxed)),
        ("metrics", state.counters.metrics.load(Ordering::Relaxed)),
        ("version", state.counters.version.load(Ordering::Relaxed)),
        ("color", state.counters.color.load(Ordering::Relaxed)),
        ("jobs", state.counters.jobs.load(Ordering::Relaxed)),
        (
            "not_found",
            state.counters.not_found.load(Ordering::Relaxed),
        ),
        (
            "bad_request",
            state.counters.bad_requests.load(Ordering::Relaxed),
        ),
        (
            "queue_rejected",
            state.counters.queue_rejected.load(Ordering::Relaxed),
        ),
        ("timeout", state.counters.timeouts.load(Ordering::Relaxed)),
    ] {
        push_sample(
            &mut out,
            "ampc_http_requests_total",
            &[("endpoint", endpoint)],
            value as f64,
        );
    }

    counter(
        &mut out,
        "ampc_http_connections_total",
        "TCP connections accepted.",
        state.counters.connections.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "ampc_http_keepalive_reused_total",
        "Requests served on an already-used (kept-alive) connection.",
        state.counters.keepalive_reused.load(Ordering::Relaxed),
    );

    counter(
        &mut out,
        "ampc_jobs_submitted_total",
        "Jobs accepted (including cache hits and coalesced jobs).",
        counters.submitted,
    );
    counter(
        &mut out,
        "ampc_jobs_completed_total",
        "Jobs finished successfully.",
        counters.completed,
    );
    counter(
        &mut out,
        "ampc_jobs_failed_total",
        "Jobs finished with an error.",
        counters.failed,
    );
    counter(
        &mut out,
        "ampc_jobs_computed_total",
        "Colorings actually computed to completion (successful cache misses).",
        counters.computed,
    );
    gauge(
        &mut out,
        "ampc_jobs_running",
        "Jobs currently computing.",
        counters.running as f64,
    );
    gauge(
        &mut out,
        "ampc_queue_depth",
        "Jobs currently waiting in the submission queue.",
        counters.queue_depth as f64,
    );
    gauge(
        &mut out,
        "ampc_queue_capacity",
        "Configured capacity of the bounded submission queue.",
        counters.queue_capacity as f64,
    );

    counter(
        &mut out,
        "ampc_cache_hits_total",
        "Submissions served from the ready-result cache.",
        counters.cache.hits,
    );
    counter(
        &mut out,
        "ampc_cache_misses_total",
        "Submissions that claimed a fresh computation.",
        counters.cache.misses,
    );
    counter(
        &mut out,
        "ampc_cache_coalesced_total",
        "Submissions coalesced onto an identical in-flight computation.",
        counters.cache.coalesced,
    );
    counter(
        &mut out,
        "ampc_cache_evicted_total",
        "Cache entries evicted by the capacity or node-budget caps.",
        counters.cache.evicted,
    );
    counter(
        &mut out,
        "ampc_cache_expired_total",
        "Cache entries swept by the TTL.",
        counters.cache.expired,
    );
    gauge(
        &mut out,
        "ampc_cache_entries",
        "Ready results currently cached.",
        counters.cache.entries as f64,
    );

    gauge(
        &mut out,
        "ampc_pool_workers",
        "Persistent runtime-pool worker threads.",
        pool.num_workers() as f64,
    );
    counter(
        &mut out,
        "ampc_pool_steals_total",
        "Tasks stolen between runtime-pool workers.",
        pool_stats.steals,
    );
    counter(
        &mut out,
        "ampc_pool_overflows_total",
        "Tasks that overflowed a worker's bounded deque.",
        pool_stats.overflows,
    );
    counter(
        &mut out,
        "ampc_pool_tasks_total",
        "Tasks executed by runtime-pool worker threads.",
        pool_stats.tasks_per_worker.iter().sum(),
    );
    counter(
        &mut out,
        "ampc_pool_helper_tasks_total",
        "Tasks executed inline by submitting threads while helping.",
        pool_stats.helper_tasks,
    );
    counter(
        &mut out,
        "ampc_pool_idle_nanoseconds_total",
        "Cumulative nanoseconds runtime-pool workers spent parked idle.",
        pool_stats.idle_nanos_per_worker.iter().sum(),
    );

    gauge(
        &mut out,
        "ampc_sync_waiters",
        "Synchronous color requests currently parked waiting for a result.",
        state.sync_waiters.load(Ordering::Relaxed) as f64,
    );
    gauge(
        &mut out,
        "ampc_sync_waiters_max",
        "Configured cap on concurrent synchronous waiters.",
        state.max_sync_waiters as f64,
    );

    // Hardware perf counters aggregated over computed jobs. `available`
    // reports whether perf_event_open produced live counters; when it is
    // 0 every total below stays 0 (graceful degradation, not an error).
    gauge(
        &mut out,
        "ampc_perf_available",
        "1 when hardware perf counters are live, 0 when sampling is disabled or unsupported.",
        if ampc_runtime::perf::available() {
            1.0
        } else {
            0.0
        },
    );
    counter(
        &mut out,
        "ampc_perf_sampled_jobs_total",
        "Computed jobs whose rounds contributed hardware counter samples.",
        counters.perf_sampled_jobs,
    );
    counter(
        &mut out,
        "ampc_perf_cycles_total",
        "CPU cycles attributed to computed coloring rounds.",
        counters.perf.cycles,
    );
    counter(
        &mut out,
        "ampc_perf_instructions_total",
        "Instructions retired in computed coloring rounds.",
        counters.perf.instructions,
    );
    counter(
        &mut out,
        "ampc_perf_cache_references_total",
        "Cache references in computed coloring rounds.",
        counters.perf.cache_references,
    );
    counter(
        &mut out,
        "ampc_perf_cache_misses_total",
        "Cache misses in computed coloring rounds.",
        counters.perf.cache_misses,
    );
    counter(
        &mut out,
        "ampc_perf_branch_misses_total",
        "Branch mispredictions in computed coloring rounds.",
        counters.perf.branch_misses,
    );

    counter(
        &mut out,
        "ampc_scratch_reuses_total",
        "Scratch buffers reused from a pool instead of allocated.",
        scratch_reuses,
    );
    counter(
        &mut out,
        "ampc_scratch_allocs_total",
        "Scratch buffers allocated fresh.",
        scratch_allocs,
    );

    // The resilience plane: breaker state, load shed, and every recovery
    // mechanism that has fired (worker respawns, job/round retries,
    // deterministically injected faults).
    let faults = ampc_runtime::faults::counters();
    gauge(
        &mut out,
        "ampc_breaker_open",
        "1 while the queue-depth circuit breaker is shedding color requests.",
        if state.breaker_open.load(Ordering::Relaxed) {
            1.0
        } else {
            0.0
        },
    );
    counter(
        &mut out,
        "ampc_requests_shed_total",
        "Color requests shed with 503 while the circuit breaker was open.",
        state.counters.shed.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "ampc_pool_worker_restarts_total",
        "Runtime-pool workers respawned after a task panicked.",
        pool_stats.worker_restarts,
    );
    counter(
        &mut out,
        "ampc_jobs_retried_total",
        "Job-level retries of transiently failed colorings.",
        counters.jobs_retried,
    );
    counter(
        &mut out,
        "ampc_rounds_retried_total",
        "AMPC round attempts replayed after a panic or deadline overrun.",
        faults.rounds_retried,
    );
    push_family(
        &mut out,
        "ampc_faults_injected_total",
        "Faults fired by the deterministic injection plan (AMPC_FAULTS), by kind.",
        "counter",
    );
    for (kind, value) in [
        ("panic", faults.injected_panics),
        ("stall", faults.injected_stalls),
        ("merge_failure", faults.injected_merge_failures),
        ("alloc_pressure", faults.injected_allocs),
    ] {
        push_sample(
            &mut out,
            "ampc_faults_injected_total",
            &[("kind", kind)],
            value as f64,
        );
    }

    push_histogram(
        &mut out,
        "ampc_request_latency_microseconds",
        "HTTP request handling latency (parsed head to rendered response).",
        &state.request_micros,
    );
    push_histogram(
        &mut out,
        "ampc_queue_wait_microseconds",
        "Time jobs spent waiting in the submission queue.",
        manager.queue_wait_micros(),
    );
    push_histogram(
        &mut out,
        "ampc_job_execution_microseconds",
        "Wall-clock execution time of computed (non-cached) jobs.",
        manager.execution_micros(),
    );
    out
}

fn push_family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (index, (label, label_value)) in labels.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(label);
            out.push_str("=\"");
            out.push_str(label_value);
            out.push('"');
        }
        out.push('}');
    }
    // Counters and gauges are integral or finite here; {} on f64 renders
    // integers without a trailing ".0", which Prometheus parses fine.
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// One histogram family in Prometheus shape: cumulative `_bucket{le=…}`
/// samples over the non-empty buckets, the mandatory `+Inf` bucket, then
/// `_sum` and `_count`.
fn push_histogram(out: &mut String, name: &str, help: &str, histogram: &LatencyHistogram) {
    push_family(out, name, help, "histogram");
    let bucket_name = format!("{name}_bucket");
    let buckets = histogram.cumulative_buckets();
    // A record racing this scrape may have bumped a bucket after `count`
    // was read (or vice versa); clamping keeps +Inf >= every bucket, the
    // monotonicity Prometheus requires of one exposition.
    let total = histogram.count().max(buckets.last().map_or(0, |&(_, c)| c));
    for (le, cumulative) in buckets {
        push_sample(
            out,
            &bucket_name,
            &[("le", le.to_string().as_str())],
            cumulative as f64,
        );
    }
    push_sample(out, &bucket_name, &[("le", "+Inf")], total as f64);
    push_sample(out, &format!("{name}_sum"), &[], histogram.sum() as f64);
    push_sample(out, &format!("{name}_count"), &[], total as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> ServerHandle {
        Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 1,
                acceptors: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
        .start()
        .unwrap()
    }

    /// Sends one raw HTTP/1.1 request, returns (status, body).
    fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
        ampc_coloring_bench::http_client::request(
            addr,
            method,
            target,
            body,
            Some(Duration::from_secs(60)),
        )
        .expect("request")
    }

    #[test]
    fn healthz_metrics_and_unknown_routes() {
        let handle = boot();
        let addr = handle.addr();
        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        let (status, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"endpoints\""), "{body}");
        assert!(body.contains("\"pool\""), "{body}");

        let (status, _) = request(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET", "/v1/jobs/abc", "");
        assert_eq!(status, 400);
        let (status, _) = request(addr, "GET", "/v1/jobs/424242", "");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET", "/v1/jobs/424242/trace", "");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET", "/v1/jobs/1/nope", "");
        assert_eq!(status, 404);
        handle.shutdown();
    }

    #[test]
    fn prometheus_exposition_renders_families_and_histograms() {
        let handle = boot();
        let addr = handle.addr();
        // A request before the scrape so the latency histogram is non-empty.
        let (status, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let (status, body) = request(addr, "GET", "/metrics?format=prometheus", "");
        assert_eq!(status, 200);
        for needle in [
            "# HELP ampc_http_requests_total",
            "# TYPE ampc_http_requests_total counter",
            "ampc_http_requests_total{endpoint=\"healthz\"} 1",
            "# TYPE ampc_queue_depth gauge",
            "# TYPE ampc_request_latency_microseconds histogram",
            "ampc_request_latency_microseconds_bucket{le=\"+Inf\"}",
            "ampc_request_latency_microseconds_sum",
            "ampc_request_latency_microseconds_count",
        ] {
            assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
        }
        // Every sample name+labels appears exactly once (no duplicates).
        let mut samples: Vec<&str> = body
            .lines()
            .filter(|line| !line.starts_with('#') && !line.is_empty())
            .map(|line| line.rsplit_once(' ').expect("sample line").0)
            .collect();
        let total = samples.len();
        samples.sort_unstable();
        samples.dedup();
        assert_eq!(samples.len(), total, "duplicate samples in:\n{body}");
        // The default format is still the JSON document.
        let (status, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.starts_with('{'), "{body}");
        assert!(body.contains("\"latency\""), "{body}");
        handle.shutdown();
    }

    /// Pins the gauge/counter/histogram kind of EVERY exposed family.
    /// Prometheus clients apply different semantics per kind (counters
    /// get rate(), gauges don't), so a silent kind change corrupts
    /// downstream dashboards. Adding a family means adding it here.
    #[test]
    fn prometheus_family_types_are_pinned() {
        let expected = [
            ("ampc_uptime_seconds", "gauge"),
            ("ampc_build_info", "gauge"),
            ("ampc_http_requests_total", "counter"),
            ("ampc_http_connections_total", "counter"),
            ("ampc_http_keepalive_reused_total", "counter"),
            ("ampc_jobs_submitted_total", "counter"),
            ("ampc_jobs_completed_total", "counter"),
            ("ampc_jobs_failed_total", "counter"),
            ("ampc_jobs_computed_total", "counter"),
            ("ampc_jobs_running", "gauge"),
            ("ampc_queue_depth", "gauge"),
            ("ampc_queue_capacity", "gauge"),
            ("ampc_cache_hits_total", "counter"),
            ("ampc_cache_misses_total", "counter"),
            ("ampc_cache_coalesced_total", "counter"),
            ("ampc_cache_evicted_total", "counter"),
            ("ampc_cache_expired_total", "counter"),
            ("ampc_cache_entries", "gauge"),
            ("ampc_pool_workers", "gauge"),
            ("ampc_pool_steals_total", "counter"),
            ("ampc_pool_overflows_total", "counter"),
            ("ampc_pool_tasks_total", "counter"),
            ("ampc_pool_helper_tasks_total", "counter"),
            ("ampc_pool_idle_nanoseconds_total", "counter"),
            ("ampc_sync_waiters", "gauge"),
            ("ampc_sync_waiters_max", "gauge"),
            ("ampc_perf_available", "gauge"),
            ("ampc_perf_sampled_jobs_total", "counter"),
            ("ampc_perf_cycles_total", "counter"),
            ("ampc_perf_instructions_total", "counter"),
            ("ampc_perf_cache_references_total", "counter"),
            ("ampc_perf_cache_misses_total", "counter"),
            ("ampc_perf_branch_misses_total", "counter"),
            ("ampc_scratch_reuses_total", "counter"),
            ("ampc_scratch_allocs_total", "counter"),
            ("ampc_breaker_open", "gauge"),
            ("ampc_requests_shed_total", "counter"),
            ("ampc_pool_worker_restarts_total", "counter"),
            ("ampc_jobs_retried_total", "counter"),
            ("ampc_rounds_retried_total", "counter"),
            ("ampc_faults_injected_total", "counter"),
            ("ampc_request_latency_microseconds", "histogram"),
            ("ampc_queue_wait_microseconds", "histogram"),
            ("ampc_job_execution_microseconds", "histogram"),
        ];
        let handle = boot();
        let (status, body) = request(handle.addr(), "GET", "/metrics?format=prometheus", "");
        assert_eq!(status, 200);
        let mut seen: Vec<(&str, &str)> = body
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .map(|rest| rest.split_once(' ').expect("TYPE line"))
            .collect();
        for (family, kind) in expected {
            let position = seen
                .iter()
                .position(|&(name, _)| name == family)
                .unwrap_or_else(|| panic!("family `{family}` missing from exposition:\n{body}"));
            assert_eq!(
                seen.remove(position).1,
                kind,
                "family `{family}` changed kind"
            );
        }
        assert!(
            seen.is_empty(),
            "unaudited families {seen:?} — classify them here"
        );
        handle.shutdown();
    }

    #[test]
    fn version_endpoint_and_metrics_carry_build_info_and_perf() {
        let handle = boot();
        let addr = handle.addr();
        let (status, body) = request(addr, "GET", "/v1/version", "");
        assert_eq!(status, 200);
        for needle in [
            "\"name\":\"ampc-service\"",
            "\"version\":\"",
            "\"git_hash\":\"",
            "\"rustc\":\"",
            "\"uptime_seconds\":",
            "\"perf_available\":",
        ] {
            assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
        }

        // The same build identity and the perf block appear in /metrics,
        // with `available` honestly reporting the probe result.
        let (status, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"build_info\":{"), "{body}");
        assert!(body.contains("\"uptime_seconds\":"), "{body}");
        let expected = format!(
            "\"perf\":{{\"available\":{}",
            ampc_runtime::perf::available()
        );
        assert!(body.contains(&expected), "missing `{expected}` in:\n{body}");

        // The /v1/version hits above are counted under their own endpoint
        // label, and perf availability is exposed as a 0/1 gauge.
        let (status, body) = request(addr, "GET", "/metrics?format=prometheus", "");
        assert_eq!(status, 200);
        assert!(
            body.contains("ampc_http_requests_total{endpoint=\"version\"} 1"),
            "{body}"
        );
        let perf_gauge = format!(
            "ampc_perf_available {}",
            if ampc_runtime::perf::available() {
                1
            } else {
                0
            }
        );
        assert!(
            body.contains(&perf_gauge),
            "missing `{perf_gauge}`:\n{body}"
        );
        handle.shutdown();
    }

    #[test]
    fn trace_endpoint_serves_chrome_trace_json() {
        let handle = boot();
        let addr = handle.addr();
        let (status, response) = request(
            addr,
            "POST",
            "/v1/color?algorithm=two-alpha-plus-one&alpha=1&wait=1",
            "0 1\n1 2\n2 3\n3 0\n",
        );
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"trace_id\":\""), "{response}");
        assert!(response.contains("\"trace_available\":true"), "{response}");
        let id = ampc_coloring_bench::http_client::json_u64(&response, "job").expect("job id");
        let (status, trace) = request(addr, "GET", &format!("/v1/jobs/{id}/trace"), "");
        assert_eq!(status, 200, "{trace}");
        assert!(trace.contains("\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("\"phase.coloring\""), "{trace}");
        assert!(trace.contains("\"backend.round\""), "{trace}");

        // A cache hit shares the result but not the timeline.
        let (status, response) = request(
            addr,
            "POST",
            "/v1/color?algorithm=two-alpha-plus-one&alpha=1&wait=1",
            "0 1\n1 2\n2 3\n3 0\n",
        );
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"cached\":true"), "{response}");
        assert!(response.contains("\"trace_available\":false"), "{response}");
        let cached = ampc_coloring_bench::http_client::json_u64(&response, "job").expect("job id");
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{cached}/trace"), "");
        assert_eq!(status, 404, "{body}");
        handle.shutdown();
    }

    #[test]
    fn disabled_tracing_serves_no_timelines() {
        let handle = Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 1,
                acceptors: 2,
                trace_events: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
        .start()
        .unwrap();
        let addr = handle.addr();
        let (status, response) = request(addr, "POST", "/v1/color?alpha=1&wait=1", "0 1\n1 2\n");
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"trace_available\":false"), "{response}");
        let id = ampc_coloring_bench::http_client::json_u64(&response, "job").expect("job id");
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}/trace"), "");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("tracing is disabled"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn color_round_trip_with_wait() {
        let handle = boot();
        let addr = handle.addr();
        // A 4-cycle: 2-colorable, alpha 1.
        let body = "0 1\n1 2\n2 3\n3 0\n";
        let (status, response) = request(
            addr,
            "POST",
            "/v1/color?algorithm=two-alpha-plus-one&alpha=1&wait=1",
            body,
        );
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"status\":\"done\""), "{response}");
        assert!(response.contains("\"coloring\":["), "{response}");
        assert!(response.contains("\"runtime_stats\""), "{response}");

        // Async path: 202 then poll.
        let (status, response) = request(addr, "POST", "/v1/color?alpha=1", body);
        assert_eq!(status, 202, "{response}");
        let id = ampc_coloring_bench::http_client::json_u64(&response, "job")
            .expect("job id in response");
        let view = handle
            .manager()
            .wait(id, Duration::from_secs(30))
            .expect("job exists");
        assert!(view.status.is_terminal());
        let (status, response) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200);
        assert!(response.contains("\"status\":\"done\""), "{response}");
        handle.shutdown();
    }

    /// Graceful shutdown, stage by stage: drain mode sheds new
    /// submissions with `503 + Retry-After` while read-only endpoints and
    /// result polling keep serving, and the bounded drain reports an idle
    /// service before the acceptors stop.
    #[test]
    fn drain_mode_sheds_submissions_and_drains_cleanly() {
        let handle = boot();
        let addr = handle.addr();
        let body = "0 1\n1 2\n2 3\n";

        // Before draining: submissions are accepted.
        let (status, response) = request(addr, "POST", "/v1/color?alpha=1&wait=1", body);
        assert_eq!(status, 200, "{response}");
        let (status, response) = request(addr, "POST", "/v1/color?alpha=1", body);
        assert_eq!(status, 202, "{response}");
        let id = ampc_coloring_bench::http_client::json_u64(&response, "job").expect("job id");

        handle.begin_drain();

        // New submissions are shed with 503 + Retry-After (read the raw
        // head: the shared client discards headers).
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, _, _) = raw_request(&mut stream, "POST", "/v1/color?alpha=1", body, "");
        assert_eq!(status, 503);
        drop(stream);
        let mut stream = TcpStream::connect(addr).unwrap();
        {
            use std::io::{Read, Write};
            let head = format!(
                "POST /v1/color?alpha=1 HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            stream.write_all(head.as_bytes()).unwrap();
            stream.write_all(body.as_bytes()).unwrap();
            let mut response = String::new();
            let _ = stream.read_to_string(&mut response);
            assert!(response.starts_with("HTTP/1.1 503"), "{response}");
            assert!(
                response.to_ascii_lowercase().contains("retry-after:"),
                "missing Retry-After in:\n{response}"
            );
        }

        // Read-only endpoints keep serving: stragglers can still poll
        // results and orchestrators can watch the drain.
        let (status, response) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(response.contains("\"draining\":true"), "{response}");
        let (status, response) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{response}");
        let (status, _) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);

        // The queue empties and the running jobs finish inside the bound.
        assert!(
            handle.shutdown_graceful(Duration::from_secs(30)),
            "service did not drain in time"
        );
    }

    #[test]
    fn invalid_inputs_are_4xx() {
        let handle = boot();
        let addr = handle.addr();
        let edge_list = "0 1\n";
        for target in [
            "/v1/color?algorithm=nope",
            "/v1/color?alpha=-3",
            "/v1/color?policy=keep-max",
            "/v1/color?runtime=warp",
            "/v1/color?runtime=sequential&threads=4",
            "/v1/color?runtime=process",
            "/v1/color?runtime=process&threads=2",
            "/v1/color?runtime=process&shards=8",
            "/v1/color?epsilon=abc",
            "/v1/color?threads=0",
            // Out-of-domain numerics are rejected before submission — a
            // NaN epsilon parses as f64 but must never reach the queue
            // (or the result cache).
            "/v1/color?epsilon=NaN",
            "/v1/color?epsilon=-1.5",
            "/v1/color?delta=0",
            "/v1/color?delta=inf",
            "/v1/color?alpha=0",
            "/v1/color?max_rounds=0",
        ] {
            let (status, body) = request(addr, "POST", target, edge_list);
            assert_eq!(status, 400, "{target}: {body}");
            assert!(body.contains("\"error\""), "{target}: {body}");
        }
        // A huge node id must be rejected, not allocated.
        let (status, body) = request(addr, "POST", "/v1/color", "0 999999999999999\n");
        assert_eq!(status, 400);
        assert!(body.contains("exceeds the limit"), "{body}");
        let (status, _) = request(
            addr,
            "POST",
            "/v1/color?min_nodes=999999999999999",
            edge_list,
        );
        assert_eq!(status, 400);
        // Malformed edge list.
        let (status, body) = request(addr, "POST", "/v1/color", "0 1\nbroken\n");
        assert_eq!(status, 400);
        assert!(body.contains("line 2"), "{body}");
        // Empty body.
        let (status, _) = request(addr, "POST", "/v1/color", "");
        assert_eq!(status, 400);
        // Invalid requests are rejected up front, never queued: a job id
        // is only minted for runnable specs.
        let (status, body) = request(addr, "POST", "/v1/color?alpha=0&wait=1", edge_list);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("alpha"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn wait_degrades_to_async_when_no_slots_are_free() {
        // One acceptor means zero synchronous-wait slots (one acceptor is
        // always reserved for non-waiting endpoints), so wait=1 degrades
        // to the async 202 flow instead of parking the only acceptor.
        let handle = Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 1,
                acceptors: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
        .start()
        .unwrap();
        let addr = handle.addr();
        let (status, body) = request(addr, "POST", "/v1/color?alpha=1&wait=1", "0 1\n1 2\n");
        // A fresh job degrades to 202-with-poll; if the tiny job finished
        // within the handler itself, the terminal shortcut serves it as
        // 200 instead — both are correct, neither parks the acceptor.
        match status {
            202 => assert!(body.contains("wait slots"), "{body}"),
            200 => assert!(body.contains("\"status\":\"done\""), "{body}"),
            other => panic!("unexpected status {other}: {body}"),
        }
        let id =
            ampc_coloring_bench::http_client::json_u64(&body, "job").expect("job id in response");
        let view = handle
            .manager()
            .wait(id, Duration::from_secs(30))
            .expect("job exists");
        assert_eq!(view.status.label(), "done");
        // The health endpoint stayed reachable throughout.
        let (status, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        // An identical resubmission is terminal at submit time (cache
        // hit): even with zero wait slots it is served outright as 200.
        let (status, body) = request(addr, "POST", "/v1/color?alpha=1&wait=1", "0 1\n1 2\n");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"done\""), "{body}");
        assert!(body.contains("\"cached\":true"), "{body}");
        handle.shutdown();
    }

    /// Sends one request on an already-open stream and reads exactly one
    /// response, returning `(status, body, connection-header)` — the
    /// keep-alive test client (the shared `http_client` closes after every
    /// request by design).
    fn raw_request(
        stream: &mut TcpStream,
        method: &str,
        target: &str,
        body: &str,
        extra_headers: &str,
    ) -> (u16, String, String) {
        use std::io::{Read, Write};
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n{extra_headers}\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut buffer = Vec::new();
        let mut byte = [0u8; 1];
        while !buffer.ends_with(b"\r\n\r\n") {
            let read = stream.read(&mut byte).expect("response head");
            assert!(read > 0, "connection closed mid-response");
            buffer.push(byte[0]);
        }
        let head_text = String::from_utf8_lossy(&buffer).into_owned();
        let status: u16 = head_text
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        let header = |name: &str| -> Option<String> {
            head_text.lines().find_map(|line| {
                line.to_ascii_lowercase()
                    .strip_prefix(&format!("{name}:"))
                    .map(|value| value.trim().to_string())
            })
        };
        let content_length: usize = header("content-length")
            .and_then(|value| value.parse().ok())
            .unwrap_or(0);
        let connection = header("connection").unwrap_or_default();
        let mut body_buffer = vec![0u8; content_length];
        stream.read_exact(&mut body_buffer).expect("response body");
        (
            status,
            String::from_utf8_lossy(&body_buffer).into_owned(),
            connection,
        )
    }

    #[test]
    fn keep_alive_reuses_connections_and_counts_them() {
        let handle = boot();
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();

        // Several requests on ONE connection, including a POST whose body
        // must be fully consumed before the next head is parsed.
        let (status, body, connection) = raw_request(&mut stream, "GET", "/healthz", "", "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(connection, "keep-alive");
        let (status, body, connection) = raw_request(
            &mut stream,
            "POST",
            "/v1/color?algorithm=two-alpha-plus-one&alpha=1&wait=1",
            "0 1\n1 2\n2 3\n3 0\n",
            "",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"done\""), "{body}");
        assert_eq!(connection, "keep-alive");
        // 4xx responses on a clean body keep the connection alive too.
        let (status, _, connection) = raw_request(&mut stream, "GET", "/nope", "", "");
        assert_eq!(status, 404);
        assert_eq!(connection, "keep-alive");

        let (status, metrics, _) = raw_request(&mut stream, "GET", "/metrics", "", "");
        assert_eq!(status, 200);
        assert!(metrics.contains("\"keepalive_reused\":3"), "{metrics}");
        assert!(metrics.contains("\"connections\":"), "{metrics}");

        // Connection: close is honored — the server answers close and
        // shuts the socket down.
        let (status, _, connection) =
            raw_request(&mut stream, "GET", "/healthz", "", "Connection: close\r\n");
        assert_eq!(status, 200);
        assert_eq!(connection, "close");
        let mut rest = Vec::new();
        use std::io::Read;
        assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0, "closed");
        handle.shutdown();
    }

    #[test]
    fn keep_alive_requests_per_connection_are_bounded() {
        let handle = Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 1,
                acceptors: 2,
                max_requests_per_connection: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
        .start()
        .unwrap();
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let (status, _, connection) = raw_request(&mut stream, "GET", "/healthz", "", "");
        assert_eq!(status, 200);
        assert_eq!(connection, "keep-alive");
        // The cap closes the connection after the second request even
        // though the client never asked for close.
        let (status, _, connection) = raw_request(&mut stream, "GET", "/healthz", "", "");
        assert_eq!(status, 200);
        assert_eq!(connection, "close");
        let mut rest = Vec::new();
        use std::io::Read;
        assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0, "closed");
        handle.shutdown();
    }

    #[test]
    fn wait_slots_are_capped_and_released() {
        let state = ServerState {
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            counters: EndpointCounters::default(),
            sync_waiters: AtomicUsize::new(0),
            max_sync_waiters: 2,
            request_micros: LatencyHistogram::new(),
            breaker_open: AtomicBool::new(false),
        };
        let first = WaitSlot::acquire(&state).expect("slot 1");
        let second = WaitSlot::acquire(&state).expect("slot 2");
        assert!(
            WaitSlot::acquire(&state).is_none(),
            "the cap must hold under load"
        );
        drop(first);
        let third = WaitSlot::acquire(&state).expect("released slots are reusable");
        drop(second);
        drop(third);
        assert_eq!(state.sync_waiters.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn node_cap_scales_with_body_size() {
        // Tiny bodies get the floor, mid-size bodies scale linearly, and
        // nothing exceeds the configured server-wide maximum.
        assert_eq!(node_cap_for_body(0, 1 << 22), 4096);
        assert_eq!(node_cap_for_body(30, 1 << 22), 4096);
        assert_eq!(node_cap_for_body(100_000, 1 << 22), 400_000);
        assert_eq!(node_cap_for_body(usize::MAX, 1 << 22), 1 << 22);
        // A ~30-byte body can no longer demand the server-wide maximum via
        // min_nodes: the 400 names the body-proportional limit.
        let handle = boot();
        let addr = handle.addr();
        let (status, body) = request(addr, "POST", "/v1/color?min_nodes=1000000", "0 1\n");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("proportional"), "{body}");
        // Within the request's own limit, min_nodes still pads the graph.
        let (status, body) = request(addr, "POST", "/v1/color?min_nodes=100&wait=1", "0 1\n");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"nodes\":100"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn breaker_hysteresis_opens_high_and_closes_low() {
        // Closed below 7/8 of capacity, open at or above it.
        assert!(!breaker_transition(false, 0, 64));
        assert!(!breaker_transition(false, 55, 64));
        assert!(breaker_transition(false, 56, 64));
        assert!(breaker_transition(false, 64, 64));
        // Once open it stays open until the queue drains to half capacity
        // — the dead band between 1/2 and 7/8 prevents flapping.
        assert!(breaker_transition(true, 55, 64));
        assert!(breaker_transition(true, 33, 64));
        assert!(!breaker_transition(true, 32, 64));
        assert!(!breaker_transition(true, 0, 64));
        // Degenerate single-slot queue: opens when occupied, closes when
        // empty, never divides by zero (callers clamp capacity to >= 1).
        assert!(breaker_transition(false, 1, 1));
        assert!(breaker_transition(true, 1, 1));
        assert!(!breaker_transition(true, 0, 1));
    }

    /// Byte-level fuzzing of the `/v1/color` HTTP surface: randomly
    /// mutated query strings and bodies must produce structured HTTP
    /// errors (or successes), never a hung connection, a 500, or a dead
    /// server. Deterministic LCG so a failure reproduces exactly.
    #[test]
    fn fuzzed_color_requests_get_structured_errors_and_server_survives() {
        let handle = boot();
        let addr = handle.addr();
        let mut lcg = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        let base_target = "/v1/color?algorithm=two-alpha-plus-one&alpha=1&min_nodes=8&timeout_ms=5";
        let base_body = "0 1\n1 2\n2 3\n3 0\n4 5\n";
        for round in 0..64 {
            // Query mutations stay printable non-whitespace ASCII so the
            // request line itself remains parseable — the point is to fuzz
            // the route/query/spec parsing, not the HTTP framing.
            let mut target = base_target.as_bytes().to_vec();
            for _ in 0..=(next() % 4) {
                let at = 10 + next() as usize % (target.len() - 10);
                target[at] = b'!' + (next() % 94) as u8;
            }
            let target = String::from_utf8(target).unwrap();
            // Bodies may mutate to arbitrary bytes: they are length-framed,
            // and the edge-list parser must reject garbage structurally.
            let mut body = base_body.as_bytes().to_vec();
            for _ in 0..=(next() % 6) {
                let at = next() as usize % body.len();
                body[at] = next() as u8;
            }
            let body = String::from_utf8_lossy(&body).into_owned();
            let (status, response) = request(addr, "POST", &target, &body);
            assert!(
                matches!(status, 200 | 202 | 400 | 404 | 408 | 413 | 429 | 503),
                "round {round}: unexpected status {status} for {target:?} -> {response}"
            );
            assert_ne!(status, 500, "round {round}: internal error leaked");
            if status == 400 {
                assert!(
                    response.contains("\"error\""),
                    "round {round}: unstructured 400 body: {response}"
                );
            }
        }
        // The server took 64 hostile requests and still answers probes.
        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
        handle.shutdown();
    }
}

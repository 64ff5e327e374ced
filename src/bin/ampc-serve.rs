//! Launcher for the AMPC coloring service.
//!
//! ```text
//! cargo run --release --bin ampc-serve -- --addr=127.0.0.1:8077 --workers=4 --queue=128
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr=HOST:PORT` — bind address (default `127.0.0.1:8077`; port `0`
//!   picks an ephemeral port, printed on stdout).
//! * `--workers=N` — persistent job-worker threads (default 2).
//! * `--queue=N` — bounded submission-queue capacity (default 64).
//! * `--acceptors=N` — HTTP acceptor threads (default 4).
//! * `--max-body-mb=N` — request-body limit in MiB (default 64).
//! * `--keepalive-requests=N` — HTTP/1.1 requests served per connection
//!   before it is closed (default 100; 1 disables keep-alive).
//! * `--job-ttl-s=N` — age in seconds at which terminal job records are
//!   garbage-collected (default 600).
//! * `--cache-ttl-s=N` — age in seconds at which ready result-cache
//!   entries expire (default 3600; the sweep runs alongside the cache's
//!   entry-count and memory-budget caps).
//! * `--trace-events=N` — span-buffer capacity per computed job (default
//!   16384; `0` disables per-job tracing and `GET /v1/jobs/{id}/trace`).
//! * `--job-retries=N` — how many times a *transiently* failed job
//!   (exhausted round retries, a caught panic) is recomputed before it is
//!   reported failed (default 1; deterministic errors never retry).
//! * `--round-deadline-ms=N` — per-AMPC-round deadline; an overrunning
//!   round is rolled back and replayed (default 0 = disabled; the
//!   `AMPC_ROUND_DEADLINE_MS` env var stays in force when unset).
//! * `--drain-timeout-s=N` — graceful-shutdown budget (default 30). On
//!   SIGTERM/SIGINT the server stops accepting submissions (new `POST
//!   /v1/color` gets `503` + `Retry-After`), finishes the queued and
//!   running jobs within the budget, reaps every job worker, and exits 0
//!   (1 if the drain timed out).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ampc_coloring_bench::args::parse_flag;
use ampc_service::{Server, ServiceConfig};

/// Set from the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Async-signal-safe: a single atomic store.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_shutdown_signal` for SIGTERM and SIGINT via the libc
/// `signal(2)` wrapper (std links libc; no extra dependency).
fn install_signal_handlers() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_shutdown_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr: String = parse_flag(&args, "addr").unwrap_or_else(|| "127.0.0.1:8077".to_string());
    let mut config = ServiceConfig::default();
    if let Some(workers) = parse_flag(&args, "workers") {
        config.workers = workers;
    }
    if let Some(queue) = parse_flag(&args, "queue") {
        config.queue_capacity = queue;
    }
    if let Some(acceptors) = parse_flag(&args, "acceptors") {
        config.acceptors = acceptors;
    }
    if let Some(megabytes) = parse_flag::<usize>(&args, "max-body-mb") {
        config.max_body_bytes = megabytes << 20;
    }
    if let Some(requests) = parse_flag(&args, "keepalive-requests") {
        config.max_requests_per_connection = requests;
    }
    if let Some(seconds) = parse_flag::<u64>(&args, "job-ttl-s") {
        // At least one second: a sub-second TTL would expire results
        // before a synchronous waiter can read them.
        config.job_ttl = Duration::from_secs(seconds.max(1));
    }
    if let Some(seconds) = parse_flag::<u64>(&args, "cache-ttl-s") {
        // Same floor: a zero TTL would expire entries as they publish.
        config.cache_ttl = Duration::from_secs(seconds.max(1));
    }
    if let Some(events) = parse_flag::<usize>(&args, "trace-events") {
        config.trace_events = events;
    }
    if let Some(retries) = parse_flag::<u32>(&args, "job-retries") {
        config.job_retries = retries;
    }
    if let Some(ms) = parse_flag::<u64>(&args, "round-deadline-ms") {
        config.round_deadline_ms = ms;
    }
    let drain_timeout =
        Duration::from_secs(parse_flag::<u64>(&args, "drain-timeout-s").unwrap_or(30));

    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("ampc-serve: cannot bind {addr}: {error}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr().expect("bound listener has an address");
    install_signal_handlers();
    let handle = server.start().expect("starting acceptors");
    println!("ampc-serve listening on http://{bound}");
    println!(
        "  POST /v1/color    e.g. curl -sS --data-binary @graph.txt \
         'http://{bound}/v1/color?algorithm=two-alpha-plus-one&alpha=2&wait=1'"
    );
    println!(
        "  GET  /v1/jobs/{{id}}  GET /v1/jobs/{{id}}/trace  GET /healthz  GET /metrics[?format=prometheus]"
    );

    // Serve until SIGTERM/SIGINT, then drain gracefully. `park_timeout`
    // (not `park`) so the handler's store is observed promptly even
    // though a signal delivers no unpark.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::park_timeout(Duration::from_millis(100));
    }
    println!("ampc-serve: shutdown signal received; draining (timeout {drain_timeout:?})");
    let drained = handle.shutdown_graceful(drain_timeout);
    if drained {
        println!("ampc-serve: drained cleanly; bye");
        std::process::exit(0);
    }
    eprintln!("ampc-serve: drain timed out after {drain_timeout:?}; exiting anyway");
    std::process::exit(1);
}

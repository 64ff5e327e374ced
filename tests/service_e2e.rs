//! End-to-end test of the `ampc-service` subsystem: boots the HTTP server
//! on an ephemeral port, submits the four standard workloads concurrently
//! over real sockets, and checks the served colorings are **bit-identical**
//! to direct `SparseColoring::color_request` calls — plus that the
//! persistent worker pool keeps the process's thread count constant across
//! a 10-job sequence (no per-round or per-job thread spawning).

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Serializes the two e2e tests: they run in one process, and the
/// thread-count assertion below must not observe the other test's
/// server/client threads coming and going.
static E2E_LOCK: Mutex<()> = Mutex::new(());

use ampc_coloring_bench::http_client::{json_coloring, json_u64};
use ampc_coloring_repro::{Algorithm, ColorRequest, RuntimeConfig, SparseColoring, Workload};
use ampc_service::{Server, ServiceConfig};
use sparse_graph::write_edge_list;

/// Sends one raw HTTP/1.1 request and returns `(status, body)`.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    ampc_coloring_bench::http_client::request(
        addr,
        method,
        target,
        body,
        Some(Duration::from_secs(120)),
    )
    .expect("request")
}

/// Current thread count of this process (Linux), if observable.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn boot() -> ampc_service::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            acceptors: 3,
            ..ServiceConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .start()
    .expect("start acceptors")
}

fn poll_done(addr: SocketAddr, job: u64, timeout: Duration) -> String {
    let (status, body) = ampc_coloring_bench::http_client::poll_terminal(addr, job, timeout)
        .expect("job reaches a terminal state");
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn served_colorings_are_bit_identical_to_direct_calls() {
    let _guard = E2E_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let handle = boot();
    let addr = handle.addr();

    let workloads = [
        Workload::ForestUnion { n: 400, k: 2 },
        Workload::PowerLaw {
            n: 300,
            edges_per_node: 2,
        },
        Workload::PlanarGrid { side: 12 },
        Workload::DeepTree { arity: 3, depth: 5 },
    ];

    // Submit all four workloads concurrently over real sockets.
    let submissions: Vec<(Workload, u64, Arc<Vec<usize>>)> = {
        let clients: Vec<_> = workloads
            .into_iter()
            .map(|workload| {
                thread::spawn(move || {
                    let graph = workload.build(42);
                    let alpha = workload.alpha_bound();
                    // The reference result, computed directly.
                    let request = ColorRequest {
                        algorithm: Algorithm::Auto,
                        alpha: Some(alpha),
                        runtime: RuntimeConfig::parallel().with_threads(3),
                        ..ColorRequest::default()
                    };
                    let direct = SparseColoring::color_request(&graph, &request)
                        .expect("direct coloring succeeds");
                    let expected = Arc::new(direct.coloring.colors().to_vec());

                    let target = format!(
                        "/v1/color?algorithm=auto&alpha={alpha}&runtime=parallel&threads=3&min_nodes={}",
                        graph.num_nodes()
                    );
                    let (status, body) = http(addr, "POST", &target, &write_edge_list(&graph));
                    assert_eq!(status, 202, "{body}");
                    let job = json_u64(&body, "job").expect("job id");
                    (workload, job, expected)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .collect()
    };

    for (workload, job, expected) in submissions {
        let body = poll_done(addr, job, Duration::from_secs(300));
        assert!(
            body.contains("\"status\":\"done\""),
            "{}: {body}",
            workload.label()
        );
        let served = json_coloring(&body).expect("coloring array");
        assert_eq!(
            served,
            *expected,
            "{}: served coloring must be bit-identical to the direct call",
            workload.label()
        );
        assert!(body.contains("\"runtime_stats\""), "{body}");
    }

    // The metrics endpoint saw all of it.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        json_u64(&metrics, "computed").unwrap_or(0) >= 4,
        "{metrics}"
    );
    handle.shutdown();
}

/// Minimal structural validation of a Chrome trace-event document: the
/// JSON must be brace/bracket-balanced (outside strings) and carry a
/// non-empty `traceEvents` array of complete (`"ph":"X"`) events.
fn assert_chrome_trace_json(body: &str) {
    assert!(
        body.starts_with('{') && body.trim_end().ends_with('}'),
        "trace body must be a JSON object: {body}"
    );
    let (mut depth, mut max_depth, mut in_string, mut escaped) = (0i64, 0i64, false, false);
    for ch in body.chars() {
        if in_string {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '{' | '[' => {
                depth += 1;
                max_depth = max_depth.max(depth);
            }
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces/brackets in trace JSON: {body}");
    assert!(!in_string, "unterminated string in trace JSON: {body}");
    // Object → traceEvents array → event objects: at least three levels.
    assert!(max_depth >= 3, "trace JSON has no event objects: {body}");
    assert!(body.contains("\"traceEvents\":["), "{body}");
    assert!(
        !body.contains("\"traceEvents\":[]"),
        "trace must be non-empty: {body}"
    );
    assert!(body.contains("\"ph\":\"X\""), "{body}");
}

#[test]
fn job_trace_is_served_as_chrome_trace_json() {
    let _guard = E2E_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let handle = boot();
    let addr = handle.addr();

    let workload = Workload::PlanarGrid { side: 10 };
    let graph = workload.build(7);
    let target = format!(
        "/v1/color?algorithm=two-alpha-plus-one&alpha={}&runtime=parallel&threads=3&wait=1&min_nodes={}",
        workload.alpha_bound(),
        graph.num_nodes()
    );
    let (status, body) = http(addr, "POST", &target, &write_edge_list(&graph));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"trace_available\":true"), "{body}");
    let job = json_u64(&body, "job").expect("job id");

    let (status, trace) = http(addr, "GET", &format!("/v1/jobs/{job}/trace"), "");
    assert_eq!(status, 200, "{trace}");
    assert_chrome_trace_json(&trace);
    // The timeline covers the driver phases and the backend rounds under
    // them — the spans the tentpole wires through `RoundPrimitives`.
    for span in ["phase.partition", "phase.coloring", "backend.round"] {
        assert!(trace.contains(span), "missing {span} span: {trace}");
    }

    handle.shutdown();
}

#[test]
fn ten_job_sequence_spawns_no_per_round_threads() {
    let _guard = E2E_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let handle = boot();
    let addr = handle.addr();

    // Ten distinct jobs (different seeds so the cache never hits) on the
    // parallel runtime; every round runs on the persistent pool.
    let mut counts = Vec::new();
    for seed in 0..10u64 {
        let graph = Workload::ForestUnion { n: 200, k: 2 }.build(seed);
        let target = format!(
            "/v1/color?algorithm=two-alpha-plus-one&alpha=2&runtime=parallel&threads=4&wait=1&min_nodes={}",
            graph.num_nodes()
        );
        let (status, body) = http(addr, "POST", &target, &write_edge_list(&graph));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"done\""), "{body}");
        if let Some(count) = thread_count() {
            counts.push(count);
        }
    }

    // After the warm-up job every long-lived thread exists (acceptors, job
    // workers, the global runtime pool); the remaining nine jobs must not
    // change the process's thread count.
    if counts.len() == 10 {
        let stable = &counts[1..];
        assert!(
            stable.iter().all(|&count| count == stable[0]),
            "thread count must stay constant across the job sequence, got {counts:?}"
        );
    }

    // Identical resubmission: served from the cache without recomputation.
    let graph = Workload::ForestUnion { n: 200, k: 2 }.build(3);
    let target = format!(
        "/v1/color?algorithm=two-alpha-plus-one&alpha=2&runtime=parallel&threads=4&wait=1&min_nodes={}",
        graph.num_nodes()
    );
    let (_, before) = http(addr, "GET", "/metrics", "");
    let computed_before = json_u64(&before, "computed").unwrap();
    let (status, body) = http(addr, "POST", &target, &write_edge_list(&graph));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    let (_, after) = http(addr, "GET", "/metrics", "");
    assert_eq!(json_u64(&after, "computed").unwrap(), computed_before);
    handle.shutdown();
}

//! End-to-end graceful shutdown of the real `ampc-serve` binary: spawn
//! it, load it with coloring jobs, deliver SIGTERM mid-queue, and assert
//! the contract — new submissions are shed with `503` + `Retry-After`,
//! `/healthz` reports the drain, the queue drains and the process exits
//! `0`. A second quick leg checks SIGINT on an idle server.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ampc_coloring_bench::http_client::{request, request_with_headers, retry_after_seconds};
use ampc_coloring_repro::Workload;
use sparse_graph::write_edge_list;

/// Boots `ampc-serve` on an ephemeral port and returns the child plus
/// the bound address parsed from its stdout banner.
fn boot_serve(extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ampc-serve"))
        .arg("--addr=127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn ampc-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("ampc-serve exited before its banner")
            .expect("read ampc-serve stdout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest.trim().parse().expect("bound address parses");
        }
    };
    // Keep draining the banner so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

fn send_signal(pid: u32, signal: &str) {
    let status = Command::new("kill")
        .args([signal, &pid.to_string()])
        .status()
        .expect("run kill(1)");
    assert!(status.success(), "kill {signal} {pid} failed");
}

/// Waits up to `timeout` for `child` to exit and returns its code.
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> Option<i32> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code();
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The queued and probe jobs: about 0.1 s each on the default
/// (sequential) runtime in a release build on a 2-vCPU host.
const JOB: Workload = Workload::PowerLaw {
    n: 40_000,
    edges_per_node: 3,
};

/// The `/v1/color` target and edge-list body of the [`JOB`] built from
/// `seed`.
fn job_request(seed: u64) -> (String, String) {
    let graph = JOB.build(seed);
    let target = format!(
        "/v1/color?algorithm=two-alpha-plus-one&alpha={}&min_nodes={}",
        JOB.alpha_bound(),
        graph.num_nodes()
    );
    (target, write_edge_list(&graph))
}

/// Submits one job; returns the status, response headers and body.
fn submit(
    addr: SocketAddr,
    (target, body): &(String, String),
) -> Result<(u16, String, String), String> {
    request_with_headers(addr, "POST", target, body, Some(Duration::from_secs(60)))
}

#[test]
fn sigterm_drains_queued_jobs_and_sheds_new_submissions() {
    let (mut child, addr) = boot_serve(&["--workers=2", "--queue=64", "--drain-timeout-s=120"]);
    let serve_pid = child.id();

    // Queue up sixteen jobs (distinct seeds: no cache hits), built first
    // so they arrive back to back and pile up: the two job workers are
    // still busy with them well past the 100 ms the server may take to
    // notice SIGTERM (its signal poll), so the drain starts mid-queue.
    let queued: Vec<_> = (0..16).map(job_request).collect();
    for request in &queued {
        let (status, _, body) = submit(addr, request).expect("submit");
        assert_eq!(status, 202, "{body}");
    }

    send_signal(serve_pid, "-TERM");

    // Within the 100 ms signal-poll interval the server flips to drain
    // mode; from then on submissions are shed with 503 + Retry-After.
    // Probes accepted before the flip are full-size jobs with fresh seeds,
    // so they only deepen the queue: a server with an empty queue would
    // exit as soon as it starts draining, before any probe is shed.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut shed = None;
    let mut probe_seed = 100u64;
    while shed.is_none() && Instant::now() < deadline {
        let outcome = submit(addr, &job_request(probe_seed));
        probe_seed += 1;
        match outcome {
            Ok((503, headers, body)) => shed = Some((headers, body)),
            Ok((202, _, _)) => std::thread::sleep(Duration::from_millis(10)),
            Ok((status, _, body)) => panic!("unexpected {status} during drain: {body}"),
            // The server may finish draining and exit mid-probe.
            Err(_) => break,
        }
    }
    let (headers, body) = shed.expect("a submission was shed with 503 while draining");
    assert_eq!(
        retry_after_seconds(&headers),
        Some(1),
        "503 must carry Retry-After delay-seconds: {headers}"
    );
    assert!(body.contains("draining"), "{body}");

    // Best-effort (the drain may complete first): health reports drain
    // mode while job status stays readable.
    if let Ok((200, health)) = request(addr, "GET", "/healthz", "", Some(Duration::from_secs(5))) {
        assert!(health.contains("\"draining\":true"), "{health}");
    }

    let code = wait_with_timeout(&mut child, Duration::from_secs(180))
        .expect("ampc-serve exits after draining");
    assert_eq!(code, 0, "a clean drain exits 0");
}

#[test]
fn sigint_on_an_idle_server_exits_promptly_and_cleanly() {
    let (mut child, addr) = boot_serve(&["--drain-timeout-s=10"]);
    // Prove it serves, then interrupt it with nothing queued.
    let (status, _) = request(addr, "GET", "/healthz", "", Some(Duration::from_secs(10)))
        .expect("healthz before SIGINT");
    assert_eq!(status, 200);
    send_signal(child.id(), "-INT");
    let code = wait_with_timeout(&mut child, Duration::from_secs(30))
        .expect("ampc-serve exits after SIGINT");
    assert_eq!(code, 0, "an idle drain exits 0");
}

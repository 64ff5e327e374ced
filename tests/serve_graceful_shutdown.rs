//! End-to-end graceful shutdown of the real `ampc-serve` binary: spawn
//! it, load it with multi-process jobs, deliver SIGTERM mid-queue, and
//! assert the contract — new submissions are shed with `503` +
//! `Retry-After`, the queue drains, the process exits `0`, and **no
//! `ampc-shard-worker` child is orphaned**. A second quick leg checks
//! SIGINT on an idle server.

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
        .env("AMPC_SHARD_WORKER", env!("CARGO_BIN_EXE_ampc-shard-worker"))
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

/// Live `ampc-shard-worker` pids whose parent is `ppid` (`/proc` scan;
/// `comm` is kernel-truncated to 15 characters).
fn shard_worker_children(ppid: u32) -> Vec<u32> {
    let ppid = ppid.to_string();
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
        if !comm.trim().starts_with("ampc-shard-work") {
            continue;
        }
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
        if status.lines().any(|line| {
            line.strip_prefix("PPid:")
                .is_some_and(|parent| parent.trim() == ppid)
        }) {
            pids.push(pid);
        }
    }
    pids
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

#[test]
fn sigterm_drains_sheds_and_reaps_shard_workers() {
    let (mut child, addr) = boot_serve(&["--workers=2", "--queue=64", "--drain-timeout-s=120"]);
    let serve_pid = child.id();

    // Queue up eight multi-process jobs (distinct seeds: no cache hits).
    // Two job workers chew through them, each spawning shard-worker
    // children, while SIGTERM lands mid-queue.
    for seed in 0..8u64 {
        let workload = Workload::PowerLaw {
            n: 4000,
            edges_per_node: 3,
        };
        let graph = workload.build(seed);
        let target = format!(
            "/v1/color?algorithm=two-alpha-plus-one&alpha={}&runtime=process&workers=2&min_nodes={}",
            workload.alpha_bound(),
            graph.num_nodes()
        );
        let (status, body) = request(
            addr,
            "POST",
            &target,
            &write_edge_list(&graph),
            Some(Duration::from_secs(60)),
        )
        .expect("submit");
        assert_eq!(status, 202, "{body}");
    }

    // Shard workers must actually exist before the signal: the kill has
    // to land while multi-process jobs are in flight.
    let saw_workers = Instant::now();
    let mut workers_seen = shard_worker_children(serve_pid);
    while workers_seen.is_empty() && saw_workers.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(10));
        workers_seen = shard_worker_children(serve_pid);
    }
    assert!(
        !workers_seen.is_empty(),
        "no ampc-shard-worker children appeared under ampc-serve"
    );

    send_signal(serve_pid, "-TERM");

    // Within the 100 ms signal-poll interval the server flips to drain
    // mode; from then on submissions are shed with 503 + Retry-After.
    // Probes accepted before the flip are full-size jobs with fresh seeds,
    // so the queue still holds work when the flip lands: the queued jobs
    // above may all have finished by the time the signal is sent, and a
    // server with an empty queue exits as soon as it starts draining.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut shed = None;
    let mut probe_seed = 100u64;
    while shed.is_none() && Instant::now() < deadline {
        let workload = Workload::PowerLaw {
            n: 4000,
            edges_per_node: 3,
        };
        let probe = workload.build(probe_seed);
        probe_seed += 1;
        let target = format!(
            "/v1/color?algorithm=two-alpha-plus-one&alpha={}&runtime=process&workers=2&min_nodes={}",
            workload.alpha_bound(),
            probe.num_nodes()
        );
        match request_with_headers(
            addr,
            "POST",
            &target,
            &write_edge_list(&probe),
            Some(Duration::from_secs(10)),
        ) {
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

    // No orphans: every shard worker observed under ampc-serve is gone
    // (a leaked one would have been reparented and kept running).
    for pid in workers_seen {
        let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
        assert!(
            !comm.trim().starts_with("ampc-shard-work"),
            "orphaned ampc-shard-worker pid {pid} survived shutdown"
        );
    }
    assert!(
        shard_worker_children(1).is_empty() || shard_worker_children(serve_pid).is_empty(),
        "shard workers still parented to the dead server"
    );
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

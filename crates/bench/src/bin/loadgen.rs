//! HTTP load generator for the `ampc-service` coloring server.
//!
//! Talks plain HTTP/1.1 over `std::net::TcpStream` (no client library
//! needed), hammers `POST /v1/color?wait=1` with synthetic workloads and
//! reports p50/p99 latency and throughput.
//!
//! ```text
//! # smoke: one request, assert HTTP 200 + a valid coloring (CI gate)
//! cargo run -p ampc-coloring-bench --bin loadgen --release -- --addr=127.0.0.1:8077 --smoke
//!
//! # load: 40 jobs over 4 connections, emit BENCH_service.json
//! cargo run -p ampc-coloring-bench --bin loadgen --release -- \
//!     --addr=127.0.0.1:8077 --jobs=40 --concurrency=4 --json=BENCH_service.json
//! ```
//!
//! Flags: `--addr=HOST:PORT` (required), `--jobs=N` (default 32),
//! `--concurrency=C` (default 4), `--workload=forest|grid|powerlaw|tree`
//! (default forest), `--n=NODES` (default 2000), `--unique` /
//! `--cached` (vary the seed per job — default — or repeat one graph to
//! measure the cache path), `--runtime=parallel|sequential` (default
//! parallel) and `--threads=N` — forwarded as the service's
//! `runtime`/`threads` query params, which drive the round scheduler and
//! the intra-layer round primitives — `--json=PATH`, `--smoke`.
//!
//! A `503` answer (the server shedding load or draining for shutdown) is
//! retried after its advertised `Retry-After` delay, a bounded number of
//! times; the `shed_retries` column reports how often that happened.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ampc_coloring_bench::args::{has_flag, parse_flag};
use ampc_coloring_bench::{http_client, Table, Workload};
use ampc_runtime::trace::LatencyHistogram;
use sparse_graph::{write_edge_list, Coloring, CsrGraph};

fn workload_for(kind: &str, n: usize) -> Workload {
    match kind {
        "grid" => Workload::PlanarGrid {
            side: (n as f64).sqrt().ceil() as usize,
        },
        "powerlaw" => Workload::PowerLaw {
            n,
            edges_per_node: 2,
        },
        "tree" => Workload::DeepTree { arity: 3, depth: 7 },
        _ => Workload::ForestUnion { n, k: 2 },
    }
}

/// The `/v1/color` target for a prepared workload instance. `runtime` and
/// `threads` map straight onto the service's query params (and from there
/// onto both the round scheduler and the intra-layer round primitives).
fn color_target(
    workload: Workload,
    graph: &CsrGraph,
    runtime: &str,
    threads: Option<usize>,
) -> String {
    let mut target = format!(
        "/v1/color?algorithm=two-alpha-plus-one&alpha={}&runtime={runtime}&wait=1&min_nodes={}",
        workload.alpha_bound(),
        graph.num_nodes()
    );
    if let Some(threads) = threads {
        target.push_str(&format!("&threads={threads}"));
    }
    target
}

/// How many times a shed (`503`) submission is retried before the
/// failure is surfaced — a draining or overloaded server gets a bounded
/// benefit of the doubt, not an infinite hammer.
const MAX_SHED_RETRIES: u32 = 5;

/// One synchronous `POST /v1/color?wait=1` with a pre-serialized body;
/// returns `(status, body)`. Serialization stays outside so measured
/// latency is service time, not local CPU.
///
/// The server answers `202` instead of waiting when all its synchronous
/// wait slots are parked (it reserves an acceptor for health endpoints);
/// in that case poll the job like any well-behaved client until it
/// reaches a terminal state, so the measured latency still covers the
/// whole computation.
///
/// A `503` (load shed or drain mode) is honored politely: sleep for the
/// advertised `Retry-After` seconds (default 1 when absent) and resubmit,
/// at most [`MAX_SHED_RETRIES`] times; each resubmission bumps
/// `shed_retries`, which lands in the report so back-pressure under load
/// is visible instead of silently inflating latency.
fn post_color(
    addr: &str,
    target: &str,
    body: &str,
    shed_retries: &AtomicU64,
) -> Result<(u16, String), String> {
    let mut sheds = 0u32;
    loop {
        let (status, headers, response) = http_client::request_with_headers(
            addr,
            "POST",
            target,
            body,
            Some(Duration::from_secs(300)),
        )?;
        if status == 503 && sheds < MAX_SHED_RETRIES {
            sheds += 1;
            shed_retries.fetch_add(1, Ordering::Relaxed);
            let delay = http_client::retry_after_seconds(&headers).unwrap_or(1);
            thread::sleep(Duration::from_secs(delay));
            continue;
        }
        if status != 202 {
            return Ok((status, response));
        }
        let job = http_client::json_u64(&response, "job")
            .ok_or_else(|| format!("202 without a job id: {response}"))?;
        return http_client::poll_terminal(addr, job, Duration::from_secs(300));
    }
}

/// Validates a served coloring against the locally rebuilt graph.
fn check_coloring(graph: &CsrGraph, body: &str) -> Result<usize, String> {
    let colors = http_client::json_coloring(body).ok_or("no coloring array in response")?;
    if colors.len() != graph.num_nodes() {
        return Err(format!(
            "coloring covers {} of {} nodes",
            colors.len(),
            graph.num_nodes()
        ));
    }
    let coloring = Coloring::new(colors);
    if !coloring.is_proper(graph) {
        return Err("served coloring is not proper".to_string());
    }
    Ok(coloring.num_colors())
}

/// Renders the histogram's non-empty buckets as a JSON object — the
/// `latency_histogram` section of `BENCH_service.json`, in the same
/// `(inclusive upper bound, count)` shape the service's `/metrics`
/// document uses.
fn histogram_section(histogram: &LatencyHistogram) -> String {
    let buckets = histogram.nonzero_buckets();
    let join = |values: Vec<String>| values.join(",");
    format!(
        "{{\"unit\":\"microseconds\",\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"bucket_le\":[{}],\"bucket_count\":[{}]}}",
        histogram.count(),
        histogram.sum(),
        histogram.mean(),
        histogram.quantile(0.5),
        histogram.quantile(0.9),
        histogram.quantile(0.99),
        histogram.max(),
        join(buckets.iter().map(|&(le, _)| le.to_string()).collect()),
        join(buckets.iter().map(|&(_, count)| count.to_string()).collect()),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = parse_flag::<String>(&args, "addr") else {
        eprintln!("loadgen: --addr=HOST:PORT is required");
        std::process::exit(2);
    };
    let kind: String = parse_flag(&args, "workload").unwrap_or_else(|| "forest".to_string());
    let n: usize = parse_flag(&args, "n").unwrap_or(2000);
    let workload = workload_for(&kind, n);
    let runtime: String = parse_flag(&args, "runtime").unwrap_or_else(|| "parallel".to_string());
    let threads: Option<usize> = parse_flag(&args, "threads");

    if has_flag(&args, "smoke") {
        // One request; exit non-zero unless it is HTTP 200 with a proper
        // coloring (the CI gate).
        let graph = workload.build(0);
        let body = write_edge_list(&graph);
        let shed_retries = AtomicU64::new(0);
        match post_color(
            &addr,
            &color_target(workload, &graph, &runtime, threads),
            &body,
            &shed_retries,
        ) {
            Ok((200, body)) => match check_coloring(&graph, &body) {
                Ok(colors) => {
                    println!(
                        "smoke ok: {} nodes, {} edges, {colors} colors",
                        graph.num_nodes(),
                        graph.num_edges()
                    );
                }
                Err(error) => {
                    eprintln!("smoke FAILED: {error}");
                    std::process::exit(1);
                }
            },
            Ok((status, body)) => {
                eprintln!("smoke FAILED: HTTP {status}: {body}");
                std::process::exit(1);
            }
            Err(error) => {
                eprintln!("smoke FAILED: {error}");
                std::process::exit(1);
            }
        }
        return;
    }

    let jobs: usize = parse_flag(&args, "jobs").unwrap_or(32);
    let concurrency: usize = parse_flag(&args, "concurrency").unwrap_or(4).max(1);
    let cached_mode = has_flag(&args, "cached");

    let next_job = Arc::new(AtomicUsize::new(0));
    // Log-bucketed and lock-free: clients record concurrently without a
    // shared Vec + sort, and the buckets land in BENCH_service.json.
    let latencies = Arc::new(LatencyHistogram::new());
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    // Total 503-shed resubmissions across all clients (Retry-After path).
    let shed_retries = Arc::new(AtomicU64::new(0));

    let started = Instant::now();
    let clients: Vec<_> = (0..concurrency)
        .map(|_| {
            let addr = addr.clone();
            let runtime = runtime.clone();
            let next_job = Arc::clone(&next_job);
            let latencies = Arc::clone(&latencies);
            let failures = Arc::clone(&failures);
            let shed_retries = Arc::clone(&shed_retries);
            thread::spawn(move || loop {
                let job = next_job.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    return;
                }
                // Unique seeds exercise the full pipeline; `--cached`
                // repeats one graph to measure the cache path.
                let seed = if cached_mode { 0 } else { job as u64 };
                let graph = workload.build(seed);
                let body = write_edge_list(&graph);
                let target = color_target(workload, &graph, &runtime, threads);
                let request_started = Instant::now();
                match post_color(&addr, &target, &body, &shed_retries) {
                    Ok((200, body)) => {
                        let elapsed = request_started.elapsed();
                        match check_coloring(&graph, &body) {
                            Ok(_) => latencies.record(elapsed.as_micros() as u64),
                            Err(error) => {
                                failures.lock().unwrap().push(format!("job {job}: {error}"))
                            }
                        }
                    }
                    Ok((status, body)) => failures
                        .lock()
                        .unwrap()
                        .push(format!("job {job}: HTTP {status}: {body}")),
                    Err(error) => failures.lock().unwrap().push(format!("job {job}: {error}")),
                }
            })
        })
        .collect();
    for client in clients {
        let _ = client.join();
    }
    let wall = started.elapsed();

    let failures = failures.lock().unwrap();
    for failure in failures.iter() {
        eprintln!("loadgen: {failure}");
    }
    let ok = latencies.count() as usize;
    let throughput = ok as f64 / wall.as_secs_f64();
    // Histogram quantiles report the upper bound of the holding bucket
    // (sub-1.6% bucket width), so no per-sample Vec + sort is needed.
    let p50_micros = latencies.quantile(0.50);
    let p99_micros = latencies.quantile(0.99);

    let mut table = Table::new(
        "service-load",
        "ampc-service loadgen",
        "synchronous /v1/color latency and throughput under concurrent load",
        &[
            "workload",
            "jobs",
            "ok",
            "failed",
            "concurrency",
            "wall_s",
            "throughput_jobs_per_s",
            "p50_ms",
            "p99_ms",
            "shed_retries",
        ],
    );
    table.push_row(vec![
        workload.label(),
        jobs.to_string(),
        ok.to_string(),
        failures.len().to_string(),
        concurrency.to_string(),
        format!("{:.3}", wall.as_secs_f64()),
        format!("{throughput:.2}"),
        format!("{:.3}", p50_micros as f64 / 1e3),
        format!("{:.3}", p99_micros as f64 / 1e3),
        shed_retries.load(Ordering::Relaxed).to_string(),
    ]);
    print!("{}", table.render());
    if let Some(path) = parse_flag::<String>(&args, "json") {
        // The emitted document pairs the summary table with the raw
        // log-bucketed latency distribution.
        let document = format!(
            "{{\"load\":{},\"latency_histogram\":{}}}",
            table.to_json(),
            histogram_section(&latencies)
        );
        if let Err(error) = std::fs::write(&path, document) {
            eprintln!("loadgen: cannot write {path}: {error}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

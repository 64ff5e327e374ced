//! The traced run's per-layer numbers. Three sources, all outside the
//! timed window:
//!
//! * the server's own per-job spans (`GET /v1/jobs/{id}/trace`), each
//!   job's `runtime_stats` table and `/metrics`;
//! * in-process calls into each layer's public functions on the exact
//!   request bodies: `read_edge_list_bounded`, `ampc_beta_partition` and
//!   `SparseColoring::color_request_traced` with a benchmark-owned
//!   `TraceContext`;
//! * the client spans and `/proc` counters of the timed window.
//!
//! A field the program no longer reports leaves its metric absent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ampc_coloring::{Algorithm, ColorRequest, RuntimeConfig, SparseColoring};
use ampc_runtime::alloc_count::{allocations, CountingAllocator};
use ampc_runtime::trace::TraceContext;
use beta_partition::{ampc_beta_partition, PartitionParams};
use sparse_graph::{read_edge_list_bounded, CsrGraph};

use crate::json::Value;
use crate::stats::median;

/// A per-layer metric: name, unit, and the end-to-end metric and workload
/// it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

/// Summed spans of concurrent threads: busy time, not wall time.
pub const OCCUPANCY: &str = "ms_occupancy";

/// Every per-layer metric the traced run prints. Layer names are the
/// crates (`service`, `graph`, `partition`, `coloring`, `runtime`) plus the
/// server process.
pub const PER_LAYER: &[LayerMetric] = &[
    metric("service.upload_ms", "ms", "latency_p50_ms on forest100k-cached"),
    metric("service.wait_ms", "ms", "latency_p50_ms on forest100k-cached"),
    metric("service.download_ms", "ms", "latency_p50_ms on forest100k-cached"),
    metric("service.exec_ms", "ms", "latency_p50_ms on forest100k-2a1 and powerlaw25k-m8-derand"),
    metric("service.edge_ms", "ms", "latency_p50_ms: all of forest100k-cached, ~16% of forest100k-2a1"),
    metric("service.queue_wait_ms", "ms", "latency_tail_ms on forest100k-2a1"),
    metric("service.cache_hit_ratio", "ratio", "1.0 on forest100k-cached, 0 elsewhere"),
    metric("service.response_bytes", "bytes", "latency_p50_ms on forest100k-cached"),
    metric("graph.read_edge_list_ms", "ms", "latency_p50_ms on forest100k-cached (~60%) and forest100k-2a1 (~10%)"),
    metric("graph.body_bytes", "bytes", "latency_p50_ms on forest100k-cached"),
    metric("graph.nodes", "count", "input size (context)"),
    metric("graph.edges", "count", "input size (context)"),
    metric("partition.ms", "ms", "latency_p50_ms, throughput_jobs_per_s, cpu_ms_per_job on forest100k-2a1; ~5% of powerlaw25k-m8-derand"),
    metric("partition.exec_share_pct", "%", "share of job execution; >= 50 on forest100k-2a1"),
    metric("partition.rounds", "count", "latency_p50_ms on forest100k-2a1"),
    metric("partition.machines", "count", "cpu_ms_per_job on forest100k-2a1"),
    metric("partition.dds_reads", "count", "cpu_ms_per_job on forest100k-2a1"),
    metric("partition.dds_writes", "count", "cpu_ms_per_job on forest100k-2a1"),
    metric("partition.allocs", "count", "cpu_ms_per_job and peak_rss_mb on forest100k-2a1"),
    metric("coloring.ms", "ms", "latency_p50_ms on forest100k-2a1 and powerlaw25k-m8-derand"),
    metric("coloring.derand_ms", OCCUPANCY, "latency_p50_ms on powerlaw25k-m8-derand"),
    metric("coloring.derand_exec_share_pct", "%", "share of job execution; >= 70 on powerlaw25k-m8-derand"),
    metric("coloring.arb_linial_ms", OCCUPANCY, "latency_p50_ms on forest100k-2a1"),
    metric("coloring.kw_ms", OCCUPANCY, "latency_p50_ms on forest100k-2a1"),
    metric("coloring.recolor_ms", "ms", "latency_p50_ms on forest100k-2a1"),
    metric("coloring.rounds", "count", "latency_p50_ms on forest100k-2a1"),
    metric("runtime.execute_ms", OCCUPANCY, "latency_p50_ms and cpu_ms_per_job on powerlaw25k-m8-derand"),
    metric("runtime.merge_ms", OCCUPANCY, "latency_p50_ms and cpu_ms_per_job on powerlaw25k-m8-derand"),
    metric("runtime.pool_tasks", "count", "cpu_ms_per_job on powerlaw25k-m8-derand"),
    metric("runtime.pool_steals", "count", "latency_p50_ms on powerlaw25k-m8-derand"),
    metric("runtime.pool_idle_ms", OCCUPANCY, "latency_p50_ms on powerlaw25k-m8-derand"),
    metric("runtime.intra_tasks", "count", "cpu_ms_per_job on powerlaw25k-m8-derand"),
    metric("runtime.scratch_reuse_ratio", "ratio", "cpu_ms_per_job on powerlaw25k-m8-derand"),
    metric("process.minor_faults_per_job", "count", "cpu_ms_per_job on all three"),
    metric("process.ctx_switches_per_job", "count", "cpu_ms_per_job on all three"),
    metric("process.threads", "count", "cpu_ms_per_job on all three"),
    metric("trace_overhead_pct", "%", "in-process traced vs untraced coloring time (context)"),
];

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Only the allocation pass counts: the timed passes run on the plain
/// system allocator.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The global allocator: the repository's `CountingAllocator` while
/// [`COUNTING`] is set, the system allocator otherwise.
pub struct GatedCounter;

// SAFETY: every call is forwarded unchanged to `System`, either directly or
// through `CountingAllocator`, which itself forwards to `System`; memory
// from either path is therefore freed by `System.dealloc`, whichever path
// was active when it was allocated.
unsafe impl GlobalAlloc for GatedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

/// One span, from a Chrome trace or a drained `TraceContext`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub tid: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// The spans of a Chrome trace-event document.
pub fn chrome_spans(document: &Value) -> Vec<Span> {
    let events = document.at(&["traceEvents"]).and_then(Value::arr);
    events
        .unwrap_or_default()
        .iter()
        .filter_map(|event| {
            Some(Span {
                name: event.at(&["name"])?.str()?.to_string(),
                tid: event.num_at(&["tid"]).unwrap_or(0.0) as u64,
                start_us: event.num_at(&["ts"])?,
                dur_us: event.num_at(&["dur"])?,
            })
        })
        .collect()
}

fn context_spans(trace: &TraceContext) -> Vec<Span> {
    trace
        .finish()
        .events
        .iter()
        .map(|event| Span {
            name: event.name.to_string(),
            tid: u64::from(event.thread),
            start_us: event.start_nanos as f64 / 1e3,
            dur_us: event.duration_nanos as f64 / 1e3,
        })
        .collect()
}

/// Milliseconds covered by the spans whose name passes `keep`: nested
/// spans of one thread count once, the threads' totals are summed (so
/// concurrent threads give occupancy, not wall time).
pub fn covered_ms(spans: &[Span], keep: impl Fn(&str) -> bool) -> f64 {
    let mut by_thread: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans.iter().filter(|span| keep(&span.name)) {
        by_thread
            .entry(span.tid)
            .or_default()
            .push((span.start_us, span.start_us + span.dur_us));
    }
    let mut total_us = 0.0;
    for intervals in by_thread.values_mut() {
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut current: Option<(f64, f64)> = None;
        for &(start, end) in intervals.iter() {
            current = match current {
                Some((s, e)) if start <= e => Some((s, e.max(end))),
                Some((s, e)) => {
                    total_us += e - s;
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
        if let Some((s, e)) = current {
            total_us += e - s;
        }
    }
    total_us / 1e3
}

/// The metrics [`server_job`] can report.
pub const SERVER_JOB_METRICS: [&str; 9] = [
    "partition.exec_share_pct",
    "coloring.derand_exec_share_pct",
    "runtime.execute_ms",
    "runtime.merge_ms",
    "runtime.pool_tasks",
    "runtime.pool_steals",
    "runtime.pool_idle_ms",
    "runtime.intra_tasks",
    "runtime.scratch_reuse_ratio",
];

/// Server-side numbers of one computed job of the timed window.
pub fn server_job(exec_ms: f64, trace: Option<&[Span]>, job: &Value) -> Values {
    let mut values = Values::new();
    if let Some(spans) = trace {
        let covered = |name: &str| covered_ms(spans, |n| n == name);
        if exec_ms > 0.0 {
            values.insert(
                "partition.exec_share_pct",
                100.0 * covered("phase.partition") / exec_ms,
            );
            // The coloring phase's wall time, split by how the layer
            // workers spent it.
            let layers = covered("layer.color");
            let derand = covered("derand.phase");
            let share = if layers > 0.0 { derand / layers } else { 0.0 };
            values.insert(
                "coloring.derand_exec_share_pct",
                100.0 * covered("phase.coloring") * share / exec_ms,
            );
        }
        values.insert("runtime.execute_ms", covered("backend.execute"));
        values.insert("runtime.merge_ms", covered("backend.merge"));
    }
    let column = |name: &str| table_column_sum(job.at(&["result", "runtime_stats"]), name);
    let columns = [
        ("runtime.pool_tasks", "pool_tasks", 1.0),
        ("runtime.pool_steals", "pool_steals", 1.0),
        ("runtime.pool_idle_ms", "pool_idle_us", 1e-3),
        ("runtime.intra_tasks", "intra_tasks", 1.0),
    ];
    for (metric, name, scale) in columns {
        if let Some(sum) = column(name) {
            values.insert(metric, sum * scale);
        }
    }
    if let (Some(reuses), Some(allocs)) = (column("scratch_reuses"), column("scratch_allocs")) {
        let total = reuses + allocs;
        values.insert(
            "runtime.scratch_reuse_ratio",
            if total > 0.0 { reuses / total } else { 0.0 },
        );
    }
    values
}

/// Sum of one column of a `{headers, rows}` table rendered by the service.
fn table_column_sum(table: Option<&Value>, column: &str) -> Option<f64> {
    let table = table?;
    let headers = table.at(&["headers"])?.arr()?;
    let index = headers.iter().position(|h| h.str() == Some(column))?;
    table
        .at(&["rows"])?
        .arr()?
        .iter()
        .map(|row| row.arr()?.get(index)?.num())
        .sum()
}

/// The wire request of a workload, as the service would build it.
pub fn color_request(query: &str) -> Result<ColorRequest, String> {
    let mut request = ColorRequest::default();
    let (mut parallel, mut threads) = (false, None);
    for pair in query.split('&') {
        match pair.split_once('=') {
            Some(("algorithm", "two-alpha-plus-one")) => {
                request.algorithm = Algorithm::TwoAlphaPlusOne;
            }
            Some(("algorithm", "large-arboricity")) => {
                request.algorithm = Algorithm::LargeArboricity;
            }
            Some(("alpha", alpha)) => request.alpha = alpha.parse().ok(),
            Some(("runtime", "parallel")) => parallel = true,
            Some(("threads", count)) => threads = count.parse().ok(),
            _ => return Err(format!("query parameter `{pair}` has no in-process twin")),
        }
    }
    request.runtime = match (parallel, threads) {
        (false, _) => RuntimeConfig::Sequential,
        (true, None) => RuntimeConfig::parallel(),
        (true, Some(threads)) => RuntimeConfig::parallel().with_threads(threads),
    };
    Ok(request)
}

/// Repetitions of each timed in-process call (the median is reported).
const REPS: usize = 3;

/// The in-process calls on the exact request bodies. `beta` is the β the
/// service reported for these jobs.
pub fn in_process(bodies: &[&[u8]], query: &str, beta: Option<usize>) -> Result<Values, String> {
    let request = color_request(query)?;
    let mut values = Values::new();

    // graph: the service's parse of a request body, with its node cap.
    let mut parse_ms = Vec::new();
    let mut graph: Option<CsrGraph> = None;
    for body in bodies.iter().take(REPS) {
        let cap = (1usize << 22).min(body.len().saturating_mul(4).max(4096));
        let start = Instant::now();
        let parsed = read_edge_list_bounded(*body, 0, cap).map_err(|e| e.to_string())?;
        parse_ms.push(start.elapsed().as_secs_f64() * 1e3);
        graph.get_or_insert(parsed);
    }
    let graph = graph.ok_or("no request body to parse")?;
    values.insert("graph.read_edge_list_ms", median(&parse_ms).unwrap_or(0.0));
    values.insert("graph.body_bytes", bodies[0].len() as f64);
    values.insert("graph.nodes", graph.num_nodes() as f64);
    values.insert("graph.edges", graph.num_edges() as f64);

    // partition: Theorem 1.2 with the β, δ, x and runtime `SparseColoring` uses.
    if let Some(beta) = beta {
        let params = PartitionParams::new(beta)
            .with_x(4)
            .with_delta(request.delta)
            .with_max_rounds(request.max_partition_rounds)
            .with_runtime(request.runtime);
        let mut times = Vec::new();
        for _ in 0..REPS {
            let start = Instant::now();
            let result = ampc_beta_partition(&graph, &params).map_err(|e| e.to_string())?;
            times.push(start.elapsed().as_secs_f64() * 1e3);
            let rounds = result.metrics.rounds();
            values.insert("partition.rounds", result.rounds as f64);
            values.insert(
                "partition.machines",
                rounds.iter().map(|r| r.machines as f64).sum(),
            );
            values.insert(
                "partition.dds_reads",
                rounds.iter().map(|r| r.total_reads as f64).sum(),
            );
            values.insert(
                "partition.dds_writes",
                rounds.iter().map(|r| r.total_writes as f64).sum(),
            );
        }
        values.insert("partition.ms", median(&times).unwrap_or(0.0));
        // The allocation pass of its own.
        COUNTING.store(true, Ordering::SeqCst);
        let before = allocations();
        let result = ampc_beta_partition(&graph, &params);
        let counted = allocations() - before;
        COUNTING.store(false, Ordering::SeqCst);
        result.map_err(|e| e.to_string())?;
        values.insert("partition.allocs", counted as f64);
    }

    // coloring: the whole job with a benchmark-owned trace context,
    // alternated with untraced runs for the tracing overhead.
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..REPS {
        let start = Instant::now();
        SparseColoring::color_request_traced(&graph, &request, None).map_err(|e| e.to_string())?;
        untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let trace = Arc::new(TraceContext::new());
        let start = Instant::now();
        let outcome = SparseColoring::color_request_traced(&graph, &request, Some(trace.clone()))
            .map_err(|e| e.to_string())?;
        traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let spans = context_spans(&trace);
        let covered = |prefix: &str| covered_ms(&spans, |n| n.starts_with(prefix));
        let rep = [
            ("coloring.ms", covered("phase.coloring")),
            ("coloring.derand_ms", covered("derand.")),
            ("coloring.arb_linial_ms", covered("arb_linial.")),
            ("coloring.kw_ms", covered("kw.")),
            ("coloring.recolor_ms", covered("phase.recolor")),
            ("coloring.rounds", outcome.coloring_rounds as f64),
        ];
        for (name, value) in rep {
            per_rep.entry(name).or_default().push(value);
        }
    }
    for (name, reps) in per_rep {
        values.insert(name, median(&reps).unwrap_or(0.0));
    }
    if let (Some(traced), Some(untraced)) = (median(&traced_ms), median(&untraced_ms)) {
        values.insert("trace_overhead_pct", 100.0 * (traced - untraced) / untraced);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_us: f64, dur_us: f64) -> Span {
        Span {
            name: name.to_string(),
            tid,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn covered_time_merges_nesting_and_sums_threads() {
        let spans = [
            span("kw.sweep", 0, 0.0, 1000.0),
            span("kw.elimination", 0, 100.0, 200.0), // nested: counted once
            span("kw.compaction", 0, 1500.0, 500.0),
            span("kw.sweep", 1, 0.0, 1000.0), // another thread: occupancy
            span("arb_linial.round", 0, 0.0, 9000.0),
        ];
        assert_eq!(covered_ms(&spans, |n| n.starts_with("kw.")), 2.5);
        assert_eq!(covered_ms(&spans, |n| n == "missing"), 0.0);
    }

    #[test]
    fn server_jobs_read_spans_and_runtime_stats() {
        let trace = crate::json::parse(
            br#"{"traceEvents":[
              {"name":"phase.partition","ph":"X","ts":0,"dur":600000,"tid":0},
              {"name":"phase.coloring","ph":"X","ts":600000,"dur":400000,"tid":0},
              {"name":"layer.color","ph":"X","ts":600000,"dur":400000,"tid":1},
              {"name":"derand.phase","ph":"X","ts":600000,"dur":300000,"tid":1},
              {"name":"backend.merge","ph":"X","ts":10,"dur":2000,"tid":2}]}"#,
        )
        .unwrap();
        let job = crate::json::parse(
            br#"{"result":{"runtime_stats":{"headers":["round","pool_tasks","pool_idle_us",
              "scratch_reuses","scratch_allocs"],"rows":[["0","3","1500","3","1"],
              ["1","4","500","6","2"]]}}}"#,
        )
        .unwrap();
        let spans = chrome_spans(&trace);
        let values = server_job(1000.0, Some(&spans), &job);
        assert_eq!(values["partition.exec_share_pct"], 60.0);
        assert_eq!(values["coloring.derand_exec_share_pct"], 30.0);
        assert_eq!(values["runtime.merge_ms"], 2.0);
        assert_eq!(values["runtime.execute_ms"], 0.0);
        assert_eq!(values["runtime.pool_tasks"], 7.0);
        assert_eq!(values["runtime.pool_idle_ms"], 2.0);
        assert_eq!(values["runtime.scratch_reuse_ratio"], 0.75);
        // Columns the table no longer has are absent, not errors.
        assert!(!values.contains_key("runtime.pool_steals"));
        assert!(!values.contains_key("runtime.intra_tasks"));
    }

    #[test]
    fn workload_queries_map_to_requests() {
        let request = color_request("algorithm=two-alpha-plus-one&alpha=2").unwrap();
        assert_eq!(request.algorithm, Algorithm::TwoAlphaPlusOne);
        assert_eq!(request.alpha, Some(2));
        assert_eq!(request.runtime, RuntimeConfig::Sequential);
        let request =
            color_request("algorithm=large-arboricity&alpha=8&runtime=parallel&threads=2").unwrap();
        assert_eq!(request.runtime, RuntimeConfig::parallel().with_threads(2));
        assert!(color_request("runtime=process").is_err());
    }

    #[test]
    fn every_metric_is_named_once() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}

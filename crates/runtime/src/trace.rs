//! End-to-end tracing and latency metrics for the runtime and the serving
//! subsystem.
//!
//! Five PRs of scheduler/allocator work were steered by two coarse signals
//! (bench aggregates and `/metrics` counters); this module is the
//! observability layer that shows *where* time goes inside a job — per
//! layer, per round, per phase, on real wall clocks — in the workspace's
//! offline-shim spirit (std-only, no registry deps):
//!
//! * [`TraceContext`] — a never-blocking span recorder. Events land in
//!   **pre-allocated, thread-slot-sharded buffers** (the same
//!   [`crate::ScratchPool`]-style sharding by worker), recorded through a
//!   `try_lock`: a full buffer or a contended shard **drops the event and
//!   counts it** ([`TraceContext::dropped`]) instead of blocking a worker
//!   or allocating mid-round — the `--alloc-budget` gate stays green with
//!   tracing enabled because every buffer is reserved at construction.
//! * [`SpanGuard`] — an RAII span: created via [`TraceContext::span`] (or
//!   `RoundPrimitives::span` / the free [`span_on`]), it stamps a start
//!   time and records one complete Chrome `"X"` event on drop, carrying
//!   the recording thread's slot id and up to [`MAX_SPAN_ARGS`] named
//!   counters (layer ids, palette sizes, machine counts).
//! * [`TraceTimeline`] / [`chrome_trace_json`] — the drained per-job
//!   timeline, exportable as Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`).
//! * [`LatencyHistogram`] — a log-bucketed (HDR-style) concurrent latency
//!   histogram: 4 linear sub-buckets per power of two, so any recorded
//!   value lands in a bucket whose width is at most a quarter of its
//!   magnitude (bounded relative quantile error), with lock-free atomic
//!   recording. The service uses it for request latency, queue wait and
//!   job execution; `loadgen` for its p50/p99.
//!
//! ## Cost when disabled
//!
//! Tracing is opt-in per context: code paths hold an
//! `Option<Arc<TraceContext>>`, and the disabled path is one `None` branch
//! returning an inert [`SpanGuard`] — no clock reads, no locking, no
//! allocation. Recording never perturbs results either way: events are
//! measurement data, excluded from metric equality like the pool and
//! scratch stats (see `tests/backend_equivalence.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::scratch::thread_slot;

/// Named counters attachable to one span.
pub const MAX_SPAN_ARGS: usize = 3;

/// Independently locked event buffers per context. Recording indexes by
/// the thread's slot, so up to this many workers record without contending.
const TRACE_SHARDS: usize = 16;

/// Default total event capacity of a context (split across the shards).
/// A 100k-node served job emits a few thousand spans; the default leaves
/// generous headroom while keeping the up-front reservation small.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

/// One completed span: a named interval with the recording thread's slot
/// and up to [`MAX_SPAN_ARGS`] named counters. Args with an empty name are
/// unused slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (static: recording never allocates).
    pub name: &'static str,
    /// Category (e.g. `"simulator"`, `"backend"`, `"driver"`).
    pub cat: &'static str,
    /// Start, in nanoseconds since the context epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub duration_nanos: u64,
    /// Dense slot id of the recording thread (the scratch-pool slot).
    pub thread: u32,
    /// Named counters; empty-name entries are unused.
    pub args: [(&'static str, u64); MAX_SPAN_ARGS],
}

/// A shared, never-blocking span recorder with pre-allocated buffers.
///
/// Create one per traced job (`Arc`-shared into `RoundPrimitives` and the
/// round engine), record spans from any thread, then [`TraceContext::finish`]
/// it into a [`TraceTimeline`]. See the module docs for the overflow and
/// cost contracts.
pub struct TraceContext {
    epoch: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext")
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::new()
    }
}

impl TraceContext {
    /// A context with the default event capacity.
    pub fn new() -> Self {
        TraceContext::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A context holding at most `events` events in total, reserved up
    /// front (recording never allocates). Overflow drops and counts.
    pub fn with_capacity(events: usize) -> Self {
        let per_shard = events.div_ceil(TRACE_SHARDS).max(1);
        TraceContext {
            epoch: Instant::now(),
            shards: (0..TRACE_SHARDS)
                .map(|_| Mutex::new(Vec::with_capacity(per_shard)))
                .collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this context's epoch.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the event is recorded when the guard drops.
    pub fn span(&self, name: &'static str, cat: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            ctx: Some(self),
            name,
            cat,
            start_nanos: self.now_nanos(),
            args: [("", 0); MAX_SPAN_ARGS],
        }
    }

    /// Records a completed event. Never blocks and never allocates: a
    /// contended shard or a full buffer drops the event and bumps the
    /// dropped counter instead.
    pub fn record(&self, event: TraceEvent) {
        let shard = &self.shards[thread_slot() % self.shards.len()];
        if let Ok(mut buffer) = shard.try_lock() {
            if buffer.len() < buffer.capacity() {
                buffer.push(event);
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Events recorded so far.
    pub fn recorded(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().map_or(0, |buffer| buffer.len()))
            .sum()
    }

    /// Events dropped so far (buffer overflow or shard contention).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains every recorded event into a timeline, sorted by start time
    /// (ties: longer spans first, so parents precede their children). The
    /// context's buffers are cleared but keep their reserved capacity.
    pub fn finish(&self) -> TraceTimeline {
        let mut events = Vec::with_capacity(self.recorded());
        for shard in &self.shards {
            let mut buffer = shard
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            events.extend(buffer.drain(..));
        }
        events.sort_by(|a, b| {
            a.start_nanos
                .cmp(&b.start_nanos)
                .then(b.duration_nanos.cmp(&a.duration_nanos))
                .then(a.name.cmp(b.name))
        });
        TraceTimeline {
            events,
            dropped: self.dropped(),
        }
    }
}

/// Opens a span on an optional context: the `None` path returns an inert
/// guard that records nothing (one branch, no clock read) — the
/// compile-time-cheap disabled check the hot paths rely on.
pub fn span_on<'a>(
    trace: Option<&'a TraceContext>,
    name: &'static str,
    cat: &'static str,
) -> SpanGuard<'a> {
    match trace {
        Some(ctx) => ctx.span(name, cat),
        None => SpanGuard {
            ctx: None,
            name,
            cat,
            start_nanos: 0,
            args: [("", 0); MAX_SPAN_ARGS],
        },
    }
}

/// An RAII span: records one complete event on drop (inert when opened on
/// a disabled context).
pub struct SpanGuard<'a> {
    ctx: Option<&'a TraceContext>,
    name: &'static str,
    cat: &'static str,
    start_nanos: u64,
    args: [(&'static str, u64); MAX_SPAN_ARGS],
}

impl SpanGuard<'_> {
    /// Attaches a named counter (builder form). At most [`MAX_SPAN_ARGS`]
    /// args are kept; extras are silently ignored.
    pub fn with_arg(mut self, name: &'static str, value: u64) -> Self {
        self.set_arg(name, value);
        self
    }

    /// Attaches (or updates) a named counter — for values only known at
    /// the end of the span, e.g. a post-round palette size.
    pub fn set_arg(&mut self, name: &'static str, value: u64) {
        for slot in &mut self.args {
            if slot.0 == name || slot.0.is_empty() {
                *slot = (name, value);
                return;
            }
        }
    }

    /// Whether this guard records into a live context.
    pub fn is_recording(&self) -> bool {
        self.ctx.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx {
            let end = ctx.now_nanos();
            ctx.record(TraceEvent {
                name: self.name,
                cat: self.cat,
                start_nanos: self.start_nanos,
                duration_nanos: end.saturating_sub(self.start_nanos),
                thread: thread_slot() as u32,
                args: self.args,
            });
        }
    }
}

/// A drained per-job span timeline, ready for export.
#[derive(Debug, Clone, Default)]
pub struct TraceTimeline {
    /// Events sorted by start time (parents before children).
    pub events: Vec<TraceEvent>,
    /// Events dropped by the recorder (overflow/contention).
    pub dropped: u64,
}

impl TraceTimeline {
    /// Renders the timeline as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.events, self.dropped)
    }
}

/// Minimal JSON string escaping for event names (names are static strings
/// under our control, but a stray quote must not corrupt the document).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders events as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form, loadable in Perfetto and
/// `chrome://tracing`): one complete (`"ph":"X"`) event per span, with
/// microsecond timestamps and the span counters under `args`.
pub fn chrome_trace_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(128 + events.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (index, event) in events.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
            escape_json(event.name),
            escape_json(event.cat),
            event.start_nanos as f64 / 1_000.0,
            event.duration_nanos as f64 / 1_000.0,
            event.thread,
        ));
        out.push_str(",\"args\":{");
        let mut first = true;
        for &(name, value) in &event.args {
            if name.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{value}", escape_json(name)));
        }
        out.push_str("}}");
    }
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped}}}}}"
    ));
    out
}

/// Linear sub-buckets per power of two (4: bucket width ≤ value / 4).
const HIST_SUB: usize = 4;
/// Total bucket count covering the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = (64 - 2) * HIST_SUB + HIST_SUB;

/// The bucket index a value lands in (log-linear, HDR-style): values below
/// 4 get exact buckets; above, 4 linear sub-buckets per power of two.
fn bucket_index(value: u64) -> usize {
    if value < HIST_SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros() as usize;
    let sub = ((value >> (exp - 2)) & 0b11) as usize;
    (exp - 2) * HIST_SUB + HIST_SUB + sub
}

/// The smallest value mapping to bucket `index`.
fn bucket_lower(index: usize) -> u64 {
    if index < HIST_SUB {
        return index as u64;
    }
    let exp = (index - HIST_SUB) / HIST_SUB + 2;
    let sub = ((index - HIST_SUB) % HIST_SUB) as u64;
    (1u64 << exp) + sub * (1u64 << (exp - 2))
}

/// The largest value mapping to bucket `index` (the bucket's inclusive
/// upper bound — the `le` boundary in Prometheus terms).
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= HISTOGRAM_BUCKETS {
        return u64::MAX;
    }
    bucket_lower(index + 1) - 1
}

/// A lock-free log-bucketed latency histogram (see the module docs).
///
/// Values are whatever unit the caller records (the workspace records
/// nanoseconds); quantiles come back as the containing bucket's upper
/// bound, so the relative error is bounded by the sub-bucket width (25%).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (lock-free; safe from any thread).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Folds another histogram's counts into this one.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let delta = theirs.load(Ordering::Relaxed);
            if delta > 0 {
                mine.fetch_add(delta, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper bound of
    /// the bucket holding that rank. 0 when the histogram is empty; the
    /// true max for `q = 1` is available via [`LatencyHistogram::max`].
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_upper(index).min(self.max());
            }
        }
        self.max()
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending bound order — the export shape for JSON documents.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then(|| (bucket_upper(index), count))
            })
            .collect()
    }

    /// The non-empty buckets as cumulative `(le bound, cumulative count)`
    /// pairs — the Prometheus `_bucket{le=...}` shape (the `+Inf` bucket is
    /// the total [`LatencyHistogram::count`], appended by the renderer).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cumulative = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                cumulative += count;
                (count > 0).then_some((bucket_upper(index), cumulative))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spans_record_complete_events_with_args() {
        let ctx = TraceContext::new();
        {
            let _outer = ctx.span("outer", "test").with_arg("layer", 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let mut inner = ctx.span("inner", "test");
            inner.set_arg("palette", 9);
            inner.set_arg("palette", 7); // updates, not duplicates
            drop(inner);
        }
        let timeline = ctx.finish();
        assert_eq!(timeline.dropped, 0);
        assert_eq!(timeline.events.len(), 2);
        // Sorted parent-first: outer starts earlier.
        assert_eq!(timeline.events[0].name, "outer");
        assert_eq!(timeline.events[0].args[0], ("layer", 3));
        assert_eq!(timeline.events[1].name, "inner");
        assert_eq!(timeline.events[1].args[0], ("palette", 7));
        // The parent interval contains the child interval.
        let outer = &timeline.events[0];
        let inner = &timeline.events[1];
        assert!(inner.start_nanos >= outer.start_nanos);
        assert!(
            inner.start_nanos + inner.duration_nanos <= outer.start_nanos + outer.duration_nanos
        );
        // Finish drained the buffers.
        assert_eq!(ctx.recorded(), 0);
    }

    #[test]
    fn overflow_drops_and_counts_without_blocking() {
        // All records from one thread land in one shard; with a total
        // capacity of 16 that shard holds exactly one event.
        let ctx = TraceContext::with_capacity(16);
        for _ in 0..10 {
            drop(ctx.span("s", "test"));
        }
        assert_eq!(ctx.recorded(), 1, "one slot in this thread's shard");
        assert_eq!(ctx.dropped(), 9, "overflow is counted, never blocks");
        let timeline = ctx.finish();
        assert_eq!(timeline.events.len(), 1);
        assert_eq!(timeline.dropped, 9);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let guard = span_on(None, "nothing", "test").with_arg("x", 1);
        assert!(!guard.is_recording());
        drop(guard); // no context, nothing recorded, nothing to observe
        let ctx = TraceContext::new();
        let guard = span_on(Some(&ctx), "something", "test");
        assert!(guard.is_recording());
        drop(guard);
        assert_eq!(ctx.recorded(), 1);
    }

    #[test]
    fn concurrent_recording_is_safe_and_ordered() {
        let ctx = Arc::new(TraceContext::new());
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        drop(ctx.span("work", "test").with_arg("id", worker * 100 + i));
                    }
                });
            }
        });
        let timeline = ctx.finish();
        assert_eq!(timeline.events.len() as u64 + timeline.dropped, 200);
        // Drained events come back sorted by start time.
        for window in timeline.events.windows(2) {
            assert!(window[0].start_nanos <= window[1].start_nanos);
        }
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let ctx = TraceContext::new();
        drop(ctx.span("round", "simulator").with_arg("layer", 2));
        let json = ctx.finish().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"round\""));
        assert!(json.contains("\"cat\":\"simulator\""));
        assert!(json.contains("\"layer\":2"));
        assert!(json.contains("\"dropped_events\":0"));
        assert!(json.ends_with("}"));
        // Balanced braces/brackets (a cheap well-formedness check that
        // catches truncation and separator bugs without a JSON parser).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        // An empty timeline renders a valid document too.
        let empty = chrome_trace_json(&[], 5);
        assert!(empty.contains("\"traceEvents\":[]"));
        assert!(empty.contains("\"dropped_events\":5"));
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // Exact small-value buckets.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
        }
        // Every bucket contains its own bounds, buckets are adjacent and
        // the index is monotone in the value.
        for index in 0..HISTOGRAM_BUCKETS {
            let lower = bucket_lower(index);
            assert_eq!(bucket_index(lower), index, "lower bound of {index}");
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(upper), index, "upper bound of {index}");
            if index + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(upper + 1, bucket_lower(index + 1), "adjacent at {index}");
            } else {
                assert_eq!(upper, u64::MAX);
            }
        }
        // Power-of-two edges land in fresh buckets (the log part).
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(1023), bucket_index(1023));
        assert!(bucket_index(1024) > bucket_index(1023));
        // Sub-bucket width is a quarter of the octave base: 1024..=1279 is
        // one bucket, 1280 starts the next.
        assert_eq!(bucket_index(1024), bucket_index(1279));
        assert!(bucket_index(1280) > bucket_index(1279));
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.quantile(0.5), 0);
        for v in 1..=1000u64 {
            hist.record(v);
        }
        assert_eq!(hist.count(), 1000);
        assert_eq!(hist.sum(), 500_500);
        assert_eq!(hist.max(), 1000);
        // Bucketed quantiles are within one sub-bucket (25%) of the truth.
        let p50 = hist.quantile(0.5);
        assert!((500..=640).contains(&p50), "p50 = {p50}");
        let p99 = hist.quantile(0.99);
        assert!((990..=1280).contains(&p99), "p99 = {p99}");
        // q=1 caps at the recorded max, never a bucket bound beyond it.
        assert_eq!(hist.quantile(1.0), 1000);

        let other = LatencyHistogram::new();
        other.record(1_000_000);
        hist.merge(&other);
        assert_eq!(hist.count(), 1001);
        assert_eq!(hist.max(), 1_000_000);
        assert!(hist.quantile(1.0) >= 1_000_000);

        // Cumulative buckets are monotone and end at the total count.
        let cumulative = hist.cumulative_buckets();
        assert!(!cumulative.is_empty());
        for window in cumulative.windows(2) {
            assert!(window[0].0 < window[1].0, "bounds ascend");
            assert!(window[0].1 <= window[1].1, "counts accumulate");
        }
        assert_eq!(cumulative.last().unwrap().1, 1001);
        let nonzero = hist.nonzero_buckets();
        assert_eq!(nonzero.iter().map(|&(_, c)| c).sum::<u64>(), 1001);
    }

    #[test]
    fn histogram_recording_is_thread_safe() {
        let hist = Arc::new(LatencyHistogram::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let hist = Arc::clone(&hist);
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        hist.record(v * 17 + 3);
                    }
                });
            }
        });
        assert_eq!(hist.count(), 4000);
        assert_eq!(hist.max(), 999 * 17 + 3);
        assert_eq!(
            hist.nonzero_buckets().iter().map(|&(_, c)| c).sum::<u64>(),
            4000
        );
    }
}

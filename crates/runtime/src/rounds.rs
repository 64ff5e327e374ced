//! Deterministic data-parallel round primitives for the LOCAL/MPC
//! simulators.
//!
//! PR 1 parallelized the AMPC rounds *across* machines and the coloring
//! phase *across* layers; the simulators inside one layer
//! (`arb_linial_coloring`, `kw_color_reduction`, the recoloring and
//! derandomization sweeps) still ran sequentially, so one huge layer
//! serialized the whole job. [`RoundPrimitives`] is the small vocabulary
//! those per-node loops are written in:
//!
//! * [`RoundPrimitives::par_node_map`] — a chunked per-node map over the
//!   shared [`WorkerPool`] whose results are merged in index order.
//! * [`RoundPrimitives::par_color_classes`] — a recoloring sweep over an
//!   independent set (one color class / block of classes): every member's
//!   new color is a pure function of the *pre-sweep* snapshot, written back
//!   in member order.
//! * [`RoundPrimitives::par_reduce`] / [`RoundPrimitives::par_reduce_range`]
//!   — a chunked fold whose chunk boundaries depend only on the item count
//!   (never on the thread count), combined left-to-right in chunk order.
//! * the `*_weighted` forms ([`RoundPrimitives::par_node_map_weighted`],
//!   [`RoundPrimitives::par_color_classes_weighted`],
//!   [`RoundPrimitives::par_reduce_range_weighted`]) — the same primitives
//!   with **cost-weighted chunking** for skewed inputs: a per-item cost
//!   function (the CSR degree for edge-dominated loops) splits the index
//!   space into many small chunks of roughly equal total cost, which the
//!   pool's work-stealing deques rebalance. Chunk boundaries derive only
//!   from the prefix sum of the costs, never from the thread count, so the
//!   bit-identity contract is untouched.
//! * per-chunk factories ([`RoundPrimitives::par_node_map_weighted_into`]
//!   and the two forms built on it,
//!   [`RoundPrimitives::par_map_weighted_into`] and
//!   [`RoundPrimitives::par_color_classes_weighted`]) — instead of one
//!   `Fn` per item, the caller passes a factory that is called once per
//!   chunk (once per call when the map runs inline) and returns the
//!   `FnMut` run for each item of the chunk. The factory is where a sweep
//!   leases its scratch ([`RoundPrimitives::scratch_pool`]), so a sweep
//!   pays one lease per chunk rather than one per node.
//!
//! ## Determinism contract
//!
//! Every primitive produces **bit-identical** results for any thread count,
//! including 1, provided the supplied closures are pure functions of their
//! arguments (an item function from a factory may keep scratch across
//! items only if it resets that scratch per item, so each item's value
//! never depends on the chunk grid):
//!
//! * maps write into index-keyed slots, so scheduling order cannot leak;
//! * color-class sweeps read a snapshot taken before the sweep — sound
//!   because the members form an independent set, which is exactly the
//!   invariant the LOCAL algorithms (Kuhn–Wattenhofer color classes,
//!   recoloring waves of equal `(layer, color)`) provide;
//! * reductions use a *fixed* chunk grid (`REDUCE_CHUNK` items per chunk)
//!   so even non-associative accumulators (floating-point sums) come out
//!   identical whether chunks run inline or on eight workers.
//!
//! The primitives record how many tasks they dispatched and how long they
//! ran; algorithm drivers fold those counters into
//! [`ampc_model::RoundRuntimeStats::intra_tasks`] /
//! [`ampc_model::RoundRuntimeStats::intra_wall_nanos`] — measurement data,
//! excluded from metric equality like the existing pool stats.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ampc_model::RoundRuntimeStats;

use crate::config::RuntimeConfig;
use crate::perf::{self, PerfCounters, PerfSink};
use crate::pool::{
    chunk_ranges, cost_grouped_ranges, weighted_chunk_grid, ScopedTask, WorkerPool,
    STEAL_GRANULARITY,
};
use crate::scratch::{ScratchCounters, ScratchPool};
use crate::trace::{span_on, SpanGuard, TraceContext};

/// Below this many items a map runs inline: the work is too small to
/// amortize a pool round-trip.
const MIN_PAR_ITEMS: usize = 4096;

/// Fixed reduction chunk width. Chunk boundaries must depend only on the
/// item count so that non-associative accumulators (floating-point sums)
/// are bit-identical across thread counts.
const REDUCE_CHUNK: usize = 4096;

/// Below this many items a reduction runs inline (over the same fixed
/// chunk grid). Reductions are usually cheap per item — a filter predicate
/// or one float multiply — so they need more items than a map to amortize
/// a dispatch.
const MIN_PAR_REDUCE_ITEMS: usize = 4 * REDUCE_CHUNK;

/// The intra-layer parallelism context threaded through the LOCAL/MPC
/// simulators: a thread budget plus reuse counters.
///
/// One instance is shared (by reference) across every per-node loop of a
/// coloring run, including loops nested inside per-layer pool tasks — the
/// counters are atomic, and the underlying [`WorkerPool`] supports nested
/// submission (submitters help drain their own batches).
///
/// The context also owns the **scratch registry** behind
/// [`RoundPrimitives::scratch_pool`]: one [`ScratchPool`] per buffer type,
/// shared by every simulator running on this context, so the per-node /
/// per-round scratch of the hot loops (marker sets, polynomial decodings,
/// probability buffers) is recycled across rounds *and* across simulator
/// invocations instead of re-allocated. The registry's reuse counters are
/// folded into [`RoundPrimitives::runtime_stats`] as
/// `scratch_reuses` / `scratch_allocs`.
pub struct RoundPrimitives {
    threads: usize,
    /// Whether the `*_weighted` primitives honor their cost function. The
    /// default; `false` (see [`RoundPrimitives::contiguous`]) falls back to
    /// the PR-3-era contiguous equal-width grids, kept as the A/B baseline
    /// for the scheduler benchmarks.
    weighted: bool,
    tasks: AtomicU64,
    wall_nanos: AtomicU64,
    /// Reuse-vs-alloc accounting shared by every scratch pool of this
    /// context and by the `_into` primitives' output-buffer checks.
    scratch_counters: Arc<ScratchCounters>,
    /// The type-keyed scratch registry: `TypeId::of::<T>()` →
    /// `Arc<ScratchPool<T>>` (stored type-erased).
    scratch: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
    /// Optional span recorder: when attached, the simulators running on
    /// this context emit per-round/per-phase spans through
    /// [`RoundPrimitives::span`]. `None` (the default) is the zero-cost
    /// disabled path.
    trace: Option<Arc<TraceContext>>,
    /// Accumulated hardware-counter deltas from [`RoundPrimitives::perf_span`]
    /// scopes, surfaced through [`RoundPrimitives::runtime_stats`]. Stays
    /// all-zero when sampling is unavailable or disabled.
    perf: PerfSink,
    /// Whether [`RoundPrimitives::perf_span`] samples at all (on by
    /// default; [`RoundPrimitives::without_perf`] is the A/B/test knob —
    /// sampling is measurement-only either way).
    perf_enabled: bool,
}

impl std::fmt::Debug for RoundPrimitives {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundPrimitives")
            .field("threads", &self.threads)
            .field("weighted", &self.weighted)
            .field("tasks", &self.tasks_executed())
            .field("scratch_reuses", &self.scratch_counters.reuses())
            .field("scratch_allocs", &self.scratch_counters.allocs())
            .finish()
    }
}

impl RoundPrimitives {
    /// A context running on up to `threads` workers of the global pool
    /// (1 means strictly inline execution).
    pub fn new(threads: usize) -> Self {
        RoundPrimitives {
            threads: threads.max(1),
            weighted: true,
            tasks: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            scratch_counters: Arc::new(ScratchCounters::default()),
            scratch: Mutex::new(HashMap::new()),
            trace: None,
            perf: PerfSink::new(),
            perf_enabled: true,
        }
    }

    /// Attaches (or detaches) a span recorder: simulators running on this
    /// context will emit spans through [`RoundPrimitives::span`]. Tracing
    /// is measurement-only — it never changes what the primitives compute.
    pub fn with_trace(mut self, trace: Option<Arc<TraceContext>>) -> Self {
        self.trace = trace;
        self
    }

    /// The attached span recorder, if any.
    pub fn trace(&self) -> Option<&Arc<TraceContext>> {
        self.trace.as_ref()
    }

    /// Opens a span on the attached recorder; inert (a single branch, no
    /// clock read) when no recorder is attached. The guard records one
    /// complete event when dropped.
    pub fn span(&self, name: &'static str, cat: &'static str) -> SpanGuard<'_> {
        span_on(self.trace.as_deref(), name, cat)
    }

    /// Disables hardware-counter sampling on this context:
    /// [`RoundPrimitives::perf_span`] scopes become inert and
    /// [`RoundPrimitives::runtime_stats`] reports zero counters. Sampling
    /// is measurement-only, so results are bit-identical either way (the
    /// equivalence suite pins this).
    pub fn without_perf(mut self) -> Self {
        self.perf_enabled = false;
        self
    }

    /// Opens an RAII hardware-counter scope accumulating into this
    /// context's sink: drivers bracket a phase with it at the same
    /// boundaries they open wall-clock spans, and the deltas surface as
    /// `cycles`/`instructions`/… in [`RoundPrimitives::runtime_stats`].
    /// Inert (no syscalls) when sampling is unavailable or disabled.
    pub fn perf_span(&self) -> perf::PerfScope<'_> {
        perf::sample_into(self.perf_enabled.then_some(&self.perf))
    }

    /// The hardware counters sampled so far by [`RoundPrimitives::perf_span`]
    /// scopes on this context.
    pub fn perf_counters(&self) -> PerfCounters {
        self.perf.counters()
    }

    /// The scratch pool for buffers of type `T`, shared by every simulator
    /// running on this context (created on first request). Leasing from a
    /// context-owned pool is what makes the hot loops allocation-free in
    /// steady state: a buffer allocated for one round (or one layer's
    /// simulator invocation) is recycled by the next instead of re-created.
    ///
    /// The pool's reuse/alloc counts feed this context's
    /// [`RoundPrimitives::runtime_stats`].
    pub fn scratch_pool<T: Default + Send + 'static>(&self) -> Arc<ScratchPool<T>> {
        let mut pools = self
            .scratch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let entry = pools.entry(TypeId::of::<T>()).or_insert_with(|| {
            Arc::new(ScratchPool::<T>::with_counters(Arc::clone(
                &self.scratch_counters,
            ))) as Arc<dyn Any + Send + Sync>
        });
        Arc::clone(entry)
            .downcast::<ScratchPool<T>>()
            .expect("registry entries are keyed by their exact type")
    }

    /// Disables cost-weighted chunking: the `*_weighted` primitives ignore
    /// their weight function and use the contiguous equal-width grids of
    /// the unweighted forms. A benchmarking/testing knob for A/B-ing the
    /// scheduler — colorings are identical either way (maps merge in index
    /// order; the weighted reducers in this workspace use associative
    /// accumulators), only the wall clock under skew differs.
    pub fn contiguous(mut self) -> Self {
        self.weighted = false;
        self
    }

    /// Whether the `*_weighted` primitives honor their cost function.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// The context a [`RuntimeConfig`] implies: inline for
    /// [`RuntimeConfig::Sequential`], the configured thread count otherwise.
    pub fn from_config(config: &RuntimeConfig) -> Self {
        RoundPrimitives::new(config.effective_threads())
    }

    /// The strictly inline context (the sequential reference path).
    pub fn sequential() -> Self {
        RoundPrimitives::new(1)
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this context ever dispatches to the pool.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Tasks dispatched (pool chunks plus inline executions) so far.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Wall clock spent inside primitives so far, in nanoseconds.
    pub fn wall_nanos(&self) -> u64 {
        self.wall_nanos.load(Ordering::Relaxed)
    }

    /// Scratch-buffer acquisitions served by recycling so far (pool leases
    /// plus `_into` output buffers whose capacity sufficed).
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch_counters.reuses()
    }

    /// Scratch-buffer acquisitions that allocated so far.
    pub fn scratch_allocs(&self) -> u64 {
        self.scratch_counters.allocs()
    }

    /// The counters as a [`RoundRuntimeStats`] record (all model-level
    /// fields zero), ready for [`ampc_model::AmpcMetrics::record_runtime`].
    pub fn runtime_stats(&self) -> RoundRuntimeStats {
        let perf = self.perf.counters();
        RoundRuntimeStats {
            intra_tasks: self.tasks_executed(),
            intra_wall_nanos: self.wall_nanos(),
            scratch_reuses: self.scratch_reuses(),
            scratch_allocs: self.scratch_allocs(),
            cycles: perf.cycles,
            instructions: perf.instructions,
            cache_references: perf.cache_references,
            cache_misses: perf.cache_misses,
            branch_misses: perf.branch_misses,
            ..RoundRuntimeStats::default()
        }
    }

    fn record(&self, tasks: u64, started: Instant) {
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.wall_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Applies `f` to every index in `0..items`, returning the results in
    /// index order. `f` must be a pure function of the index (and whatever
    /// immutable state it captures); under that contract the result is
    /// bit-identical for any thread count.
    pub fn par_node_map<U, F>(&self, items: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let started = Instant::now();
        if self.threads == 1 || items < MIN_PAR_ITEMS {
            let out: Vec<U> = (0..items).map(f).collect();
            self.record(1, started);
            return out;
        }

        let chunks = chunk_ranges(items, self.threads);
        let mut slots: Vec<Option<Vec<U>>> = (0..chunks.len()).map(|_| None).collect();
        {
            let f = &f;
            let tasks: Vec<ScopedTask<'_>> = slots
                .iter_mut()
                .zip(chunks.iter().cloned())
                .map(|(slot, range)| {
                    Box::new(move || {
                        *slot = Some(range.map(f).collect());
                    }) as ScopedTask<'_>
                })
                .collect();
            WorkerPool::global().execute(tasks);
        }
        let mut out = Vec::with_capacity(items);
        for slot in slots {
            out.extend(slot.expect("the pool ran every chunk"));
        }
        self.record(chunks.len() as u64, started);
        out
    }

    /// Applies `f` to every element of `items`, returning the results in
    /// item order (the slice-input convenience over
    /// [`RoundPrimitives::par_node_map`]).
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.par_node_map(items.len(), |index| f(index, &items[index]))
    }

    /// Clears `out` and refills it with one value per index of `0..items`:
    /// inline through one item function from `chunk`, or over the chunk
    /// grid `grid` builds, one item function per chunk, each chunk writing
    /// its disjoint sub-slice. `grid` must cover `0..items` in ascending
    /// order.
    fn map_into<U, M, F>(
        &self,
        items: usize,
        grid: impl FnOnce() -> Vec<Range<usize>>,
        chunk: &M,
        out: &mut Vec<U>,
    ) where
        U: Send + Default,
        M: Fn() -> F + Sync,
        F: FnMut(usize) -> U,
    {
        let started = Instant::now();
        self.scratch_counters.note(out.capacity() >= items);
        out.clear();
        out.resize_with(items, U::default);
        if self.threads == 1 || items < MIN_PAR_ITEMS {
            let mut f = chunk();
            for (index, slot) in out.iter_mut().enumerate() {
                *slot = f(index);
            }
            self.record(1, started);
            return;
        }
        let chunks = grid();
        let mut rest: &mut [U] = out;
        let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(chunks.len());
        for range in &chunks {
            let (mine, remainder) = rest.split_at_mut(range.len());
            rest = remainder;
            let start = range.start;
            tasks.push(Box::new(move || {
                let mut f = chunk();
                for (offset, slot) in mine.iter_mut().enumerate() {
                    *slot = f(start + offset);
                }
            }) as ScopedTask<'_>);
        }
        debug_assert!(rest.is_empty(), "the grid covers the output exactly");
        WorkerPool::global().execute(tasks);
        self.record(chunks.len() as u64, started);
    }

    /// [`RoundPrimitives::par_node_map`] writing into a caller-owned,
    /// reusable output buffer: `out` is cleared and refilled with
    /// `f(0..items)` in index order, recycling its capacity across rounds
    /// (chunk results are written straight into disjoint sub-slices — no
    /// per-chunk buffers either). Values are bit-identical to
    /// [`RoundPrimitives::par_node_map`] for any thread count; only where
    /// they live differs. Buffer reuse is booked in the scratch counters.
    pub fn par_node_map_into<U, F>(&self, items: usize, f: F, out: &mut Vec<U>)
    where
        U: Send + Default,
        F: Fn(usize) -> U + Sync,
    {
        self.map_into(items, || chunk_ranges(items, self.threads), &|| &f, out);
    }

    /// [`RoundPrimitives::par_node_map_weighted`] writing into a
    /// caller-owned, reusable output buffer (see
    /// [`RoundPrimitives::par_node_map_into`]), with the item function
    /// built **per chunk**: `chunk` is called once per chunk of the grid
    /// (once per call when the map runs inline, as it always does at one
    /// thread) and returns the `FnMut` that computes each item of that
    /// chunk in index order. That is where a map leases the scratch its
    /// items reuse — one lease per chunk instead of one per item. Each
    /// item must still be a pure function of its index, so the item
    /// function resets that scratch per item.
    pub fn par_node_map_weighted_into<U, M, F, W>(
        &self,
        items: usize,
        weight: W,
        chunk: M,
        out: &mut Vec<U>,
    ) where
        U: Send + Default,
        M: Fn() -> F + Sync,
        F: FnMut(usize) -> U,
        W: Fn(usize) -> usize,
    {
        let grid = || {
            if self.weighted {
                cost_grouped_ranges(items, weight, STEAL_GRANULARITY * self.threads)
            } else {
                chunk_ranges(items, self.threads)
            }
        };
        self.map_into(items, grid, &chunk, out);
    }

    /// The slice-input convenience over
    /// [`RoundPrimitives::par_node_map_into`].
    pub fn par_map_into<T, U, F>(&self, items: &[T], f: F, out: &mut Vec<U>)
    where
        T: Sync,
        U: Send + Default,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.par_node_map_into(items.len(), |index| f(index, &items[index]), out)
    }

    /// The slice-input convenience over
    /// [`RoundPrimitives::par_node_map_weighted_into`]: `chunk` returns the
    /// per-chunk item function over `(index, &items[index])`.
    pub fn par_map_weighted_into<'a, T, U, M, F, W>(
        &self,
        items: &'a [T],
        weight: W,
        chunk: M,
        out: &mut Vec<U>,
    ) where
        T: Sync,
        U: Send + Default,
        M: Fn() -> F + Sync,
        F: FnMut(usize, &'a T) -> U,
        W: Fn(usize, &T) -> usize,
    {
        self.par_node_map_weighted_into(
            items.len(),
            |index| weight(index, &items[index]),
            || {
                let mut f = chunk();
                move |index| f(index, &items[index])
            },
            out,
        )
    }

    /// [`RoundPrimitives::par_node_map`] with **cost-weighted chunking**:
    /// `weight(index)` estimates the cost of item `index` (callers pass the
    /// CSR degree, `adj_offsets[i + 1] - adj_offsets[i]`), and the index
    /// space is split into up to `STEAL_GRANULARITY × threads` chunks of
    /// roughly equal *total* cost instead of `threads` equal-width ranges.
    /// On skewed (power-law) inputs the hub-heavy parts of the index space
    /// shatter into stealable tasks, so the pool's work-stealing deques
    /// keep every worker busy instead of idling behind one hub chunk —
    /// while pool occupancy stays proportional to the configured thread
    /// budget.
    ///
    /// Results merge in index order, so the output is bit-identical to
    /// [`RoundPrimitives::par_node_map`] for any thread count — including
    /// one — no matter how the grid is cut; map grids have always been
    /// thread-dependent, only reductions need the fixed grid.
    pub fn par_node_map_weighted<U, F, W>(&self, items: usize, weight: W, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
        W: Fn(usize) -> usize,
    {
        if !self.weighted {
            return self.par_node_map(items, f);
        }
        let started = Instant::now();
        if self.threads == 1 || items < MIN_PAR_ITEMS {
            let out: Vec<U> = (0..items).map(f).collect();
            self.record(1, started);
            return out;
        }

        let chunks = cost_grouped_ranges(items, weight, STEAL_GRANULARITY * self.threads);
        let mut slots: Vec<Option<Vec<U>>> = (0..chunks.len()).map(|_| None).collect();
        {
            let f = &f;
            let tasks: Vec<ScopedTask<'_>> = slots
                .iter_mut()
                .zip(chunks.iter().cloned())
                .map(|(slot, range)| {
                    Box::new(move || {
                        *slot = Some(range.map(f).collect());
                    }) as ScopedTask<'_>
                })
                .collect();
            WorkerPool::global().execute(tasks);
        }
        let mut out = Vec::with_capacity(items);
        for slot in slots {
            out.extend(slot.expect("the pool ran every chunk"));
        }
        self.record(chunks.len() as u64, started);
        out
    }

    /// The slice-input convenience over
    /// [`RoundPrimitives::par_node_map_weighted`].
    pub fn par_map_weighted<T, U, F, W>(&self, items: &[T], weight: W, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
        W: Fn(usize, &T) -> usize,
    {
        self.par_node_map_weighted(
            items.len(),
            |index| weight(index, &items[index]),
            |index| f(index, &items[index]),
        )
    }

    /// One parallel recoloring sweep over an independent set: every member
    /// `v` of `members` is assigned `f(v, snapshot)` where `snapshot` is the
    /// state of `colors` *before* the sweep.
    ///
    /// This matches the sequential in-place loop exactly **when the members
    /// form an independent set whose decisions only inspect colors no
    /// co-member can change** — the invariant the Kuhn–Wattenhofer color
    /// classes and the recoloring waves provide. The caller is responsible
    /// for that invariant; the primitive guarantees the snapshot semantics
    /// and the member-order write-back.
    pub fn par_color_classes<C, F>(&self, members: &[usize], colors: &mut [C], f: F)
    where
        C: Copy + Send + Sync + Default + 'static,
        F: Fn(usize, &[C]) -> C + Sync,
    {
        // The sweep's update buffer is leased from the context's scratch
        // registry, so repeated sweeps (one per color class per round)
        // recycle one allocation instead of creating a Vec each.
        let pool = self.scratch_pool::<Vec<C>>();
        let mut updates = pool.lease();
        {
            let snapshot: &[C] = colors;
            self.par_node_map_into(
                members.len(),
                |index| f(members[index], snapshot),
                &mut updates,
            );
        }
        for (&member, &update) in members.iter().zip(updates.iter()) {
            colors[member] = update;
        }
    }

    /// [`RoundPrimitives::par_color_classes`] with cost-weighted chunking
    /// over the member list: `weight(member)` estimates each member's sweep
    /// cost (callers pass the member's degree — a recoloring decision scans
    /// its adjacency list). Identical results to the unweighted sweep for
    /// any thread count; only the chunk grid (and therefore load balance
    /// under skew) differs. Like
    /// [`RoundPrimitives::par_node_map_weighted_into`], `chunk` is called
    /// once per chunk and returns the decision function for its members.
    pub fn par_color_classes_weighted<C, M, F, W>(
        &self,
        members: &[usize],
        colors: &mut [C],
        weight: W,
        chunk: M,
    ) where
        C: Copy + Send + Sync + Default + 'static,
        M: Fn() -> F + Sync,
        F: FnMut(usize, &[C]) -> C,
        W: Fn(usize) -> usize,
    {
        let pool = self.scratch_pool::<Vec<C>>();
        let mut updates = pool.lease();
        {
            let snapshot: &[C] = colors;
            self.par_node_map_weighted_into(
                members.len(),
                |index| weight(members[index]),
                || {
                    let mut f = chunk();
                    move |index| f(members[index], snapshot)
                },
                &mut updates,
            );
        }
        for (&member, &update) in members.iter().zip(updates.iter()) {
            colors[member] = update;
        }
    }

    /// Chunked fold over `items`: each fixed-width chunk is folded
    /// left-to-right with `fold` starting from a clone of `identity`, and
    /// the chunk accumulators are combined left-to-right (in chunk order)
    /// with `combine`.
    ///
    /// The chunk grid depends only on `items.len()`, never on the thread
    /// count — so the result is bit-identical across thread counts even for
    /// non-associative accumulators (floating-point sums, ordered
    /// collection).
    pub fn par_reduce<T, A, F, C>(&self, items: &[T], identity: A, fold: F, combine: C) -> A
    where
        T: Sync,
        A: Clone + Send + Sync + 'static,
        F: Fn(A, usize, &T) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        self.par_reduce_range(
            items.len(),
            identity,
            |acc, index| fold(acc, index, &items[index]),
            combine,
        )
    }

    /// [`RoundPrimitives::par_reduce`] over the index range `0..items`.
    pub fn par_reduce_range<A, F, C>(&self, items: usize, identity: A, fold: F, combine: C) -> A
    where
        A: Clone + Send + Sync + 'static,
        F: Fn(A, usize) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        let started = Instant::now();
        let num_chunks = items.div_ceil(REDUCE_CHUNK).max(1);
        let chunk_partial = |chunk: usize| -> A {
            let start = chunk * REDUCE_CHUNK;
            let end = (start + REDUCE_CHUNK).min(items);
            (start..end).fold(identity.clone(), &fold)
        };
        if self.threads == 1 || items < MIN_PAR_REDUCE_ITEMS {
            // Same chunk grid as the parallel path, executed inline — the
            // per-chunk partials and the left-to-right combine (and
            // therefore any floating-point rounding) are identical.
            let acc = (0..num_chunks)
                .map(chunk_partial)
                .reduce(&combine)
                .unwrap_or(identity);
            self.record(1, started);
            return acc;
        }

        // Dispatch at most `threads` tasks, each filling a contiguous run
        // of per-chunk slots. The grouping affects only scheduling: the
        // partials are still one per fixed chunk, combined left-to-right
        // in chunk order below, so the result never depends on the
        // thread count. The partial grid itself is leased scratch, reused
        // across reduce calls.
        let groups = chunk_ranges(num_chunks, self.threads);
        let num_groups = groups.len();
        let slots_pool = self.scratch_pool::<Vec<Option<A>>>();
        let mut slots = slots_pool.lease();
        slots.clear();
        slots.resize_with(num_chunks, || None);
        {
            let chunk_partial = &chunk_partial;
            let mut rest: &mut [Option<A>] = &mut slots;
            let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(num_groups);
            for group in groups {
                let (mine, remainder) = rest.split_at_mut(group.len());
                rest = remainder;
                tasks.push(Box::new(move || {
                    for (offset, slot) in mine.iter_mut().enumerate() {
                        *slot = Some(chunk_partial(group.start + offset));
                    }
                }) as ScopedTask<'_>);
            }
            WorkerPool::global().execute(tasks);
        }
        let acc = slots
            .iter_mut()
            .map(|slot| slot.take().expect("the pool ran every chunk"))
            .reduce(combine)
            .unwrap_or(identity);
        self.record(num_groups as u64, started);
        acc
    }

    /// [`RoundPrimitives::par_reduce_range`] with **cost-weighted
    /// chunking**: the chunk grid is derived from the prefix sum of
    /// `weight(index)` (callers pass the CSR degree for edge-dominated
    /// folds), so skewed index ranges split into many cost-balanced,
    /// stealable chunks instead of the fixed equal-width grid.
    ///
    /// The grid depends only on the weights — never on the thread count —
    /// and the inline path folds over the *same* grid, so results are
    /// bit-identical across thread counts even for non-associative
    /// accumulators. (Between the weighted and the unweighted primitive
    /// the grids differ, so only associative-and-commutative-free
    /// accumulators — sums, `Option::or` in index order — may switch
    /// between the two without changing results; that is what the
    /// simulators use.)
    pub fn par_reduce_range_weighted<A, F, C, W>(
        &self,
        items: usize,
        weight: W,
        identity: A,
        fold: F,
        combine: C,
    ) -> A
    where
        A: Clone + Send + Sync + 'static,
        F: Fn(A, usize) -> A + Sync,
        C: Fn(A, A) -> A,
        W: Fn(usize) -> usize,
    {
        if !self.weighted {
            return self.par_reduce_range(items, identity, fold, combine);
        }
        let started = Instant::now();
        let (chunks, chunk_costs) = weighted_chunk_grid(items, weight);
        let chunk_partial =
            |range: std::ops::Range<usize>| -> A { range.fold(identity.clone(), &fold) };
        if self.threads == 1 || items < MIN_PAR_REDUCE_ITEMS {
            // Same weighted grid as the parallel path, executed inline —
            // the per-chunk partials and the left-to-right combine (and
            // therefore any floating-point rounding) are identical.
            let acc = chunks
                .into_iter()
                .map(chunk_partial)
                .reduce(&combine)
                .unwrap_or(identity);
            self.record(1, started);
            return acc;
        }

        // The partials stay one per fixed chunk (combined left-to-right in
        // chunk order below, so the result never depends on the thread
        // count), but the *dispatch* groups contiguous chunks by their
        // cost into at most STEAL_GRANULARITY × threads stealable tasks —
        // bounding pool occupancy by the thread budget, like the maps.
        // The partial grid is leased scratch, reused across reduce calls.
        let num_chunks = chunks.len();
        let groups = cost_grouped_ranges(
            num_chunks,
            |chunk| chunk_costs[chunk] as usize,
            STEAL_GRANULARITY * self.threads,
        );
        let num_groups = groups.len();
        let slots_pool = self.scratch_pool::<Vec<Option<A>>>();
        let mut slots = slots_pool.lease();
        slots.clear();
        slots.resize_with(num_chunks, || None);
        {
            let chunk_partial = &chunk_partial;
            let chunks = &chunks;
            let mut rest: &mut [Option<A>] = &mut slots;
            let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(num_groups);
            for group in groups {
                let (mine, remainder) = rest.split_at_mut(group.len());
                rest = remainder;
                tasks.push(Box::new(move || {
                    for (offset, slot) in mine.iter_mut().enumerate() {
                        *slot = Some(chunk_partial(chunks[group.start + offset].clone()));
                    }
                }) as ScopedTask<'_>);
            }
            WorkerPool::global().execute(tasks);
        }
        let acc = slots
            .iter_mut()
            .map(|slot| slot.take().expect("the pool ran every chunk"))
            .reduce(combine)
            .unwrap_or(identity);
        self.record(num_groups as u64, started);
        acc
    }

    /// The slice-input convenience over
    /// [`RoundPrimitives::par_reduce_range_weighted`].
    pub fn par_reduce_weighted<T, A, F, C, W>(
        &self,
        items: &[T],
        weight: W,
        identity: A,
        fold: F,
        combine: C,
    ) -> A
    where
        T: Sync,
        A: Clone + Send + Sync + 'static,
        F: Fn(A, usize, &T) -> A + Sync,
        C: Fn(A, A) -> A,
        W: Fn(usize, &T) -> usize,
    {
        self.par_reduce_range_weighted(
            items.len(),
            |index| weight(index, &items[index]),
            identity,
            |acc, index| fold(acc, index, &items[index]),
            combine,
        )
    }

    /// The indices in `0..items` satisfying `pred`, in ascending order —
    /// the parallel form of a sequential `filter` over the node range.
    pub fn par_collect_indices<F>(&self, items: usize, pred: F) -> Vec<usize>
    where
        F: Fn(usize) -> bool + Sync,
    {
        let mut out = Vec::new();
        self.par_collect_indices_into(items, pred, &mut out);
        out
    }

    /// [`RoundPrimitives::par_collect_indices`] writing into a
    /// caller-owned, reusable output buffer: `out` is cleared and refilled
    /// with the matching indices in ascending order. The parallel path
    /// filters each chunk into a scratch-leased buffer and concatenates
    /// them in chunk order, so in steady state neither the chunks nor the
    /// output allocate. Output values are independent of the thread count
    /// and the chunk grid (ascending chunks of ascending indices
    /// concatenate to the plain filter).
    pub fn par_collect_indices_into<F>(&self, items: usize, pred: F, out: &mut Vec<usize>)
    where
        F: Fn(usize) -> bool + Sync,
    {
        let started = Instant::now();
        out.clear();
        if self.threads == 1 || items < MIN_PAR_REDUCE_ITEMS {
            out.extend((0..items).filter(|&index| pred(index)));
            self.record(1, started);
            return;
        }
        let pool = self.scratch_pool::<Vec<usize>>();
        let chunks = chunk_ranges(items, self.threads);
        let mut buffers: Vec<Option<crate::scratch::ScratchLease<'_, Vec<usize>>>> =
            (0..chunks.len()).map(|_| None).collect();
        {
            let pred = &pred;
            let pool = &pool;
            let tasks: Vec<ScopedTask<'_>> = buffers
                .iter_mut()
                .zip(chunks.iter().cloned())
                .map(|(slot, range)| {
                    Box::new(move || {
                        let mut buffer = pool.lease();
                        buffer.clear();
                        buffer.extend(range.filter(|&index| pred(index)));
                        *slot = Some(buffer);
                    }) as ScopedTask<'_>
                })
                .collect();
            WorkerPool::global().execute(tasks);
        }
        for buffer in buffers {
            let buffer = buffer.expect("the pool ran every chunk");
            out.extend_from_slice(&buffer);
        }
        self.record(chunks.len() as u64, started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};

    #[test]
    fn node_map_merges_in_index_order_for_any_thread_count() {
        let reference: Vec<usize> = (0..10_000).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let out = primitives.par_node_map(10_000, |i| i * 3 + 1);
            assert_eq!(out, reference, "threads = {threads}");
            assert!(primitives.tasks_executed() >= 1);
        }
    }

    #[test]
    fn slice_map_matches_node_map() {
        let items: Vec<u64> = (0..5_000).map(|i| i * i).collect();
        let sequential = RoundPrimitives::sequential().par_map(&items, |i, &x| x + i as u64);
        let parallel = RoundPrimitives::new(4).par_map(&items, |i, &x| x + i as u64);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn color_classes_read_the_pre_sweep_snapshot() {
        // Members double their *own* pre-sweep value; non-members keep
        // theirs. A racy in-place implementation reading co-member updates
        // would differ; snapshot semantics make it order-free.
        let members: Vec<usize> = (0..8_000).step_by(2).collect();
        for threads in [1usize, 4] {
            let mut colors: Vec<usize> = (0..8_000).collect();
            let primitives = RoundPrimitives::new(threads);
            primitives.par_color_classes(&members, &mut colors, |v, snapshot| snapshot[v] * 2);
            for (v, &color) in colors.iter().enumerate() {
                let expected = if v % 2 == 0 { v * 2 } else { v };
                assert_eq!(color, expected, "threads {threads}, node {v}");
            }
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts_even_for_floats() {
        // A sum of values at many magnitudes: any change in association
        // order shows up in the low bits.
        let items: Vec<f64> = (0..50_000)
            .map(|i| (i as f64).sqrt() * if i % 3 == 0 { 1e-9 } else { 1e3 })
            .collect();
        let sum = |threads: usize| -> f64 {
            RoundPrimitives::new(threads).par_reduce(
                &items,
                0.0f64,
                |acc, _, &x| acc + x,
                |a, b| a + b,
            )
        };
        let reference = sum(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(reference.to_bits(), sum(threads).to_bits());
        }
    }

    #[test]
    fn collect_indices_preserves_ascending_order() {
        let reference: Vec<usize> = (0..20_000).filter(|i| i % 7 == 0).collect();
        for threads in [1usize, 4] {
            let out = RoundPrimitives::new(threads).par_collect_indices(20_000, |i| i % 7 == 0);
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn primitives_propagate_panics() {
        for threads in [1usize, 4] {
            let primitives = RoundPrimitives::new(threads);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                primitives.par_node_map(5_000, |i| {
                    if i == 4_321 {
                        panic!("intra-layer task exploded");
                    }
                    i
                })
            }));
            let payload = result.expect_err("the panic must reach the submitter");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("non-str payload");
            assert!(message.contains("exploded"), "{message}");
        }
    }

    #[test]
    fn stats_accumulate_tasks_and_wall_clock() {
        let primitives = RoundPrimitives::new(4);
        let _ = primitives.par_node_map(50_000, |i| i);
        let _ = primitives.par_reduce_range(50_000, 0usize, |a, i| a + i, |a, b| a + b);
        let stats = primitives.runtime_stats();
        // 4 map chunks + 4 reduce chunk-groups (one per thread).
        assert!(stats.intra_tasks >= 4 + 4, "{}", stats.intra_tasks);
        assert!(stats.intra_wall_nanos > 0);
        // Model-level fields stay zero: intra stats never affect metric
        // equality.
        assert_eq!(stats.wall_clock_nanos, 0);
        assert_eq!(stats.conflict_merges, 0);
    }

    #[test]
    fn weighted_map_is_bit_identical_for_any_thread_count() {
        // A hub-heavy weight profile: item 0 is 10_000x heavier.
        let weight = |i: usize| if i == 0 { 100_000 } else { 10 };
        let reference: Vec<usize> = (0..20_000).map(|i| i * 5 + 2).collect();
        for threads in [1usize, 2, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let out = primitives.par_node_map_weighted(20_000, weight, |i| i * 5 + 2);
            assert_eq!(out, reference, "threads = {threads}");
        }
        // The contiguous fallback produces the same values through the
        // unweighted grid.
        let contiguous = RoundPrimitives::new(4).contiguous();
        assert!(!contiguous.is_weighted());
        let out = contiguous.par_node_map_weighted(20_000, weight, |i| i * 5 + 2);
        assert_eq!(out, reference);
    }

    #[test]
    fn weighted_reduce_is_bit_identical_across_thread_counts_even_for_floats() {
        // Non-associative accumulator + skewed weights: the weighted grid
        // must be the same for every thread count (it only depends on the
        // prefix sum of the weights), so the float sum's low bits agree.
        let items: Vec<f64> = (0..50_000)
            .map(|i| (i as f64).sqrt() * if i % 5 == 0 { 1e-9 } else { 1e3 })
            .collect();
        let weight = |i: usize, _: &f64| if i.is_multiple_of(1000) { 5_000 } else { 1 };
        let sum = |threads: usize| -> f64 {
            RoundPrimitives::new(threads).par_reduce_weighted(
                &items,
                weight,
                0.0f64,
                |acc, _, &x| acc + x,
                |a, b| a + b,
            )
        };
        let reference = sum(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(reference.to_bits(), sum(threads).to_bits());
        }
    }

    #[test]
    fn weighted_color_classes_match_unweighted_sweeps() {
        let members: Vec<usize> = (0..9_000).step_by(3).collect();
        let mut expected: Vec<usize> = (0..9_000).collect();
        RoundPrimitives::sequential()
            .par_color_classes(&members, &mut expected, |v, snapshot| snapshot[v] + 7);
        for threads in [1usize, 4] {
            let mut colors: Vec<usize> = (0..9_000).collect();
            RoundPrimitives::new(threads).par_color_classes_weighted(
                &members,
                &mut colors,
                |member| member % 97,
                || |v, snapshot| snapshot[v] + 7,
            );
            assert_eq!(colors, expected, "threads {threads}");
        }
    }

    #[test]
    fn weighted_maps_lease_chunk_scratch_once_per_chunk() {
        let scratch = ScratchPool::<Vec<usize>>::new();
        let leases = || scratch.counters().reuses() + scratch.counters().allocs();
        let weight = |i: usize| if i.is_multiple_of(100) { 50 } else { 1 };
        let reference: Vec<usize> = (0..10_000).map(|i| i * 3).collect();
        for threads in [1usize, 2, 4] {
            let primitives = RoundPrimitives::new(threads);
            let before = leases();
            let mut out = Vec::new();
            primitives.par_node_map_weighted_into(
                10_000,
                weight,
                || {
                    let mut seen = scratch.lease();
                    move |i| {
                        seen.clear();
                        seen.push(i * 3);
                        seen[0]
                    }
                },
                &mut out,
            );
            assert_eq!(out, reference, "threads {threads}");
            let taken = leases() - before;
            let chunks = primitives.tasks_executed();
            assert!(
                (1..=chunks).contains(&taken),
                "threads {threads}: {taken} leases for {chunks} chunks"
            );
            if threads == 1 {
                assert_eq!(taken, 1, "an inline map leases once");
            }
        }
    }

    #[test]
    fn sequential_context_from_config() {
        let sequential = RoundPrimitives::from_config(&RuntimeConfig::Sequential);
        assert_eq!(sequential.threads(), 1);
        assert!(!sequential.is_parallel());
        let parallel = RoundPrimitives::from_config(&RuntimeConfig::parallel().with_threads(3));
        assert_eq!(parallel.threads(), 3);
        assert!(parallel.is_parallel());
    }
}

//! Deterministic data-parallel round primitives for the LOCAL/MPC
//! simulators.
//!
//! PR 1 parallelized the AMPC rounds *across* machines and the coloring
//! phase *across* layers; the simulators inside one layer
//! (`arb_linial_coloring`, `kw_color_reduction`, the recoloring and
//! derandomization sweeps) still ran sequentially, so one huge layer
//! serialized the whole job. [`RoundPrimitives`] is the small vocabulary
//! those per-node loops are written in, one form per primitive:
//!
//! * [`RoundPrimitives::par_node_map_weighted_into`] — a per-node map into
//!   a caller-owned buffer, results in index order.
//! * [`RoundPrimitives::par_color_classes_weighted`] — a recoloring sweep
//!   over an independent set (one color class / block of classes): every
//!   member's new color is a pure function of the *pre-sweep* snapshot,
//!   written back in member order.
//! * [`RoundPrimitives::par_reduce_range_weighted`] — a fold over the index
//!   range, split into consecutive ranges whose partials are combined
//!   left-to-right.
//! * [`RoundPrimitives::par_collect_indices_into`] — the ascending indices
//!   satisfying a predicate.
//!
//! The map, the sweep and the reduce take a per-item cost (the CSR degree
//! for edge-dominated loops; 0 where every item costs the same) and split
//! the index space into up to `STEAL_GRANULARITY × threads` consecutive
//! chunks of roughly equal total cost, which the pool's work-stealing
//! deques rebalance on skewed inputs. The map and the sweep take a
//! per-chunk factory: instead of one `Fn` per item, the caller passes a
//! factory that is called once per chunk (once per call when the map runs
//! inline) and returns the `FnMut` run for each item of the chunk. The
//! factory is where a sweep leases its scratch
//! ([`RoundPrimitives::scratch_pool`]), so a sweep pays one lease per chunk
//! rather than one per node.
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
//! * a reduction's grid depends on the thread count, so its result must
//!   not depend on where the range is split: folding `a..b` then `b..c`
//!   and combining must equal folding `a..c`. Integer sums and the first
//!   match in index order meet this; floating-point sums do not.
//!
//! The primitives record how many tasks they dispatched and how long they
//! ran; algorithm drivers fold those counters into
//! [`ampc_model::RoundRuntimeStats::intra_tasks`] /
//! [`ampc_model::RoundRuntimeStats::intra_wall_nanos`] — measurement data,
//! excluded from metric equality like the existing pool stats.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ampc_model::RoundRuntimeStats;

use crate::config::RuntimeConfig;
use crate::perf::{self, PerfCounters, PerfSink};
use crate::pool::{chunk_ranges, cost_grouped_ranges, ScopedTask, WorkerPool, STEAL_GRANULARITY};
use crate::scratch::{ScratchCounters, ScratchPool};
use crate::trace::{span_on, SpanGuard, TraceContext};

/// Below this many items a map runs inline: the work is too small to
/// amortize a pool round-trip.
const MIN_PAR_ITEMS: usize = 4096;

/// Below this many items a reduction or an index collect runs inline.
/// Both are usually cheap per item — a filter predicate or an adjacency
/// scan — so they need more items than a map to amortize a dispatch.
const MIN_PAR_REDUCE_ITEMS: usize = 4 * MIN_PAR_ITEMS;

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

    /// Clears `out` and refills it with one value per index of `0..items`,
    /// in index order, recycling its capacity across rounds (buffer reuse
    /// is booked in the scratch counters).
    ///
    /// `weight(index)` estimates the cost of item `index` (callers pass the
    /// CSR degree for loops that scan an adjacency list, 0 where every item
    /// costs the same). The parallel path splits the index space into up
    /// to `STEAL_GRANULARITY × threads` consecutive chunks of roughly equal
    /// total cost, so the hub-heavy parts of a skewed input shatter into
    /// stealable tasks; each chunk writes its own sub-slice of `out`.
    ///
    /// The item function is built **per chunk**: `chunk` is called once per
    /// chunk of the grid (once per call when the map runs inline, as it
    /// always does at one thread) and returns the `FnMut` that computes
    /// each item of that chunk in index order. That is where a map leases
    /// the scratch its items reuse — one lease per chunk instead of one
    /// per item. Each item must still be a pure function of its index, so
    /// the item function resets that scratch per item; then the values are
    /// bit-identical for any thread count, however the grid is cut.
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
        let chunks = cost_grouped_ranges(items, weight, STEAL_GRANULARITY * self.threads);
        let chunk = &chunk;
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

    /// One parallel recoloring sweep over an independent set: every member
    /// `v` of `members` is assigned `f(v, snapshot)` where `f` comes from
    /// `chunk` (called once per chunk, as in
    /// [`RoundPrimitives::par_node_map_weighted_into`]) and `snapshot` is
    /// the state of `colors` *before* the sweep. `weight(member)` estimates
    /// each member's sweep cost (callers pass the member's degree — a
    /// recoloring decision scans its adjacency list).
    ///
    /// This matches the sequential in-place loop exactly **when the members
    /// form an independent set whose decisions only inspect colors no
    /// co-member can change** — the invariant the Kuhn–Wattenhofer color
    /// classes and the recoloring waves provide. The caller is responsible
    /// for that invariant; the primitive guarantees the snapshot semantics
    /// and the member-order write-back.
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
        // The sweep's update buffer is leased from the context's scratch
        // registry, so repeated sweeps (one per color class per round)
        // recycle one allocation instead of creating a Vec each.
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

    /// Fold over the index range `0..items`. Inline, one left-to-right
    /// `(0..items).fold(identity, fold)`. In parallel, the range is cut
    /// into the same cost-weighted grid as
    /// [`RoundPrimitives::par_node_map_weighted_into`]; each range is
    /// folded from a clone of `identity` and the partials are combined
    /// left-to-right with `combine`.
    ///
    /// That grid depends on the thread count, so the result must not
    /// depend on where the range is split (see the module's determinism
    /// contract): an integer count plus the first match in index order
    /// qualifies, a floating-point sum does not.
    pub fn par_reduce_range_weighted<A, F, C, W>(
        &self,
        items: usize,
        weight: W,
        identity: A,
        fold: F,
        combine: C,
    ) -> A
    where
        A: Clone + Send + Sync,
        F: Fn(A, usize) -> A + Sync,
        C: Fn(A, A) -> A,
        W: Fn(usize) -> usize,
    {
        let started = Instant::now();
        if self.threads == 1 || items < MIN_PAR_REDUCE_ITEMS {
            let acc = (0..items).fold(identity, &fold);
            self.record(1, started);
            return acc;
        }
        let groups = cost_grouped_ranges(items, weight, STEAL_GRANULARITY * self.threads);
        let mut partials: Vec<Option<A>> = (0..groups.len()).map(|_| None).collect();
        {
            let (identity, fold) = (&identity, &fold);
            let tasks: Vec<ScopedTask<'_>> = partials
                .iter_mut()
                .zip(groups.iter().cloned())
                .map(|(slot, range)| {
                    Box::new(move || {
                        *slot = Some(range.fold(identity.clone(), fold));
                    }) as ScopedTask<'_>
                })
                .collect();
            WorkerPool::global().execute(tasks);
        }
        let acc = partials
            .into_iter()
            .map(|partial| partial.expect("the pool ran every range"))
            .reduce(combine)
            .unwrap_or(identity);
        self.record(groups.len() as u64, started);
        acc
    }

    /// Clears `out` and refills it with the indices in `0..items`
    /// satisfying `pred`, in ascending order — the parallel form of a
    /// sequential `filter` over the node range. The parallel path filters
    /// each chunk into a scratch-leased buffer and concatenates them in
    /// chunk order, so in steady state neither the chunks nor the output
    /// allocate. Output values are independent of the thread count and the
    /// chunk grid (ascending chunks of ascending indices concatenate to the
    /// plain filter).
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

    /// `par_node_map_weighted_into` with a plain per-item function.
    fn map<U, F, W>(primitives: &RoundPrimitives, items: usize, weight: W, f: F) -> Vec<U>
    where
        U: Send + Default,
        F: Fn(usize) -> U + Sync,
        W: Fn(usize) -> usize,
    {
        let mut out = Vec::new();
        primitives.par_node_map_weighted_into(items, weight, || &f, &mut out);
        out
    }

    #[test]
    fn node_map_merges_in_index_order_for_any_thread_count() {
        let reference: Vec<usize> = (0..10_000).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let out = map(&primitives, 10_000, |_| 0, |i| i * 3 + 1);
            assert_eq!(out, reference, "threads = {threads}");
            assert!(primitives.tasks_executed() >= 1);
        }
    }

    #[test]
    fn weighted_map_is_bit_identical_for_any_thread_count() {
        // A hub-heavy weight profile: item 0 is 10_000x heavier.
        let weight = |i: usize| if i == 0 { 100_000 } else { 10 };
        let reference: Vec<usize> = (0..20_000).map(|i| i * 5 + 2).collect();
        for threads in [1usize, 2, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let out = map(&primitives, 20_000, weight, |i| i * 5 + 2);
            assert_eq!(out, reference, "threads = {threads}");
        }
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
            primitives.par_color_classes_weighted(
                &members,
                &mut colors,
                |member| member % 97,
                || |v, snapshot: &[usize]| snapshot[v] * 2,
            );
            for (v, &color) in colors.iter().enumerate() {
                let expected = if v % 2 == 0 { v * 2 } else { v };
                assert_eq!(color, expected, "threads {threads}, node {v}");
            }
        }
    }

    #[test]
    fn skewed_reduce_is_identical_across_thread_counts() {
        // An integer sum plus the first match in index order: both are
        // independent of where the range is split, which is the reduce's
        // contract. Skewed weights cut the parallel grid unevenly.
        #[derive(Clone, Debug, Default, PartialEq)]
        struct Check {
            sum: u64,
            first: Option<usize>,
        }
        let weight = |i: usize| if i.is_multiple_of(1_000) { 5_000 } else { 1 };
        let reduce = |threads: usize| -> Check {
            RoundPrimitives::new(threads).par_reduce_range_weighted(
                50_000,
                weight,
                Check::default(),
                |mut acc: Check, i| {
                    acc.sum += (i as u64 * 2_654_435_761) % 1_000;
                    if i > 20_000 && i % 7_919 == 0 {
                        acc.first = acc.first.or(Some(i));
                    }
                    acc
                },
                |left, right| Check {
                    sum: left.sum + right.sum,
                    first: left.first.or(right.first),
                },
            )
        };
        let expected = Check {
            sum: (0..50_000u64).map(|i| (i * 2_654_435_761) % 1_000).sum(),
            first: Some(23_757),
        };
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(reduce(threads), expected, "threads {threads}");
        }
    }

    #[test]
    fn collect_indices_preserves_ascending_order() {
        let reference: Vec<usize> = (0..20_000).filter(|i| i % 7 == 0).collect();
        for threads in [1usize, 4] {
            let mut out = vec![3];
            RoundPrimitives::new(threads).par_collect_indices_into(
                20_000,
                |i| i % 7 == 0,
                &mut out,
            );
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn primitives_propagate_panics() {
        for threads in [1usize, 4] {
            let primitives = RoundPrimitives::new(threads);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                map(
                    &primitives,
                    5_000,
                    |_| 0,
                    |i| {
                        if i == 4_321 {
                            panic!("intra-layer task exploded");
                        }
                        i
                    },
                )
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
        let _ = map(&primitives, 50_000, |_| 0, |i| i);
        let _ =
            primitives.par_reduce_range_weighted(50_000, |_| 0, 0usize, |a, i| a + i, |a, b| a + b);
        let stats = primitives.runtime_stats();
        // Equal weights cut both grids into STEAL_GRANULARITY × threads
        // equal ranges: one task each.
        assert_eq!(stats.intra_tasks, 2 * (STEAL_GRANULARITY * 4) as u64);
        assert!(stats.intra_wall_nanos > 0);
        // Model-level fields stay zero: intra stats never affect metric
        // equality.
        assert_eq!(stats.wall_clock_nanos, 0);
        assert_eq!(stats.conflict_merges, 0);
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

//! Reusable scratch memory for the intra-layer hot paths.
//!
//! PR 3/4 parallelized every LOCAL/MPC simulator loop, but profiling showed
//! the loops were *allocator*-bound, not scheduler-bound: every
//! Kuhn–Wattenhofer decision allocated a `vec![false; palette]`, every
//! Arb-Linial round decoded polynomials into fresh `Vec`s, and every
//! derandomization candidate cloned the seed — hundreds of thousands of
//! mallocs per simulated round that the work-stealing pool could only
//! spread around, not remove. This module is the vocabulary that removes
//! them:
//!
//! * [`BitSet`] — a word-packed set over a small universe with word-scan
//!   free-color queries: the KW sweeps' and recolor waves' replacement
//!   for the per-node `vec![false; palette]`.
//! * [`ScratchPool`] — a thread-indexed pool of reusable `T: Default`
//!   buffers. A caller [`ScratchPool::lease`]s a buffer, resets it before
//!   each use and returns it on drop; in steady state no lease allocates.
//!   A lease locks a shard and bumps two counters, one of them
//!   process-wide: tens of nanoseconds, and more when threads lease at
//!   once, which is more than the per-node work of a simulator sweep. So
//!   the hot loops lease **once per chunk**: the per-chunk factories of
//!   [`crate::RoundEngine::round`] and
//!   [`crate::RoundPrimitives::par_node_map_weighted_into`] lease, and the
//!   item function they return reuses the buffer for every item of the
//!   chunk.
//! * [`ScratchCounters`] / [`scratch_totals`] — reuse-vs-alloc accounting.
//!   Each pool bumps its shared counters (surfaced per round as
//!   [`ampc_model::RoundRuntimeStats::scratch_reuses`] /
//!   [`ampc_model::RoundRuntimeStats::scratch_allocs`]) and the
//!   process-wide totals behind [`scratch_totals`] (surfaced by the
//!   service's `/metrics`). With chunk leases these count chunks and
//!   output-buffer checks, a few hundred per coloring job, not nodes.
//!
//! ## Determinism
//!
//! Scratch reuse is invisible to the bit-identity contract by construction:
//! a lease hands out a logically cleared buffer (values never depend on
//! which physical buffer serves a lease), and the counters are measurement
//! data excluded from metric equality like the pool stats.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Process-wide reuse/alloc totals across every [`ScratchPool`], for the
/// service's `/metrics` document.
static GLOBAL_REUSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(reuses, allocs)` across every [`ScratchPool`] in the
/// process since start.
pub fn scratch_totals() -> (u64, u64) {
    (
        GLOBAL_REUSES.load(Ordering::Relaxed),
        GLOBAL_ALLOCS.load(Ordering::Relaxed),
    )
}

/// Locks a mutex, ignoring poisoning (pool bookkeeping never runs caller
/// code under the lock, so poisoning only means another thread panicked
/// elsewhere).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small dense id for the current thread, used to spread scratch leases
/// (and trace-event records, see `crate::trace`) over per-context shards so
/// concurrent workers rarely contend on one lock.
pub(crate) fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut index = slot.get();
        if index == usize::MAX {
            index = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(index);
        }
        index
    })
}

/// Shared reuse-vs-alloc counters, typically owned by a
/// `RoundPrimitives` context and fed by every scratch pool (and reusable
/// output buffer) attached to it.
#[derive(Debug, Default)]
pub struct ScratchCounters {
    reuses: AtomicU64,
    allocs: AtomicU64,
}

impl ScratchCounters {
    /// Books one buffer acquisition: `reused` tells whether an existing
    /// buffer's capacity was recycled (no allocation) or a fresh one was
    /// created. Also feeds the process-wide [`scratch_totals`].
    pub fn note(&self, reused: bool) {
        if reused {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            GLOBAL_REUSES.fetch_add(1, Ordering::Relaxed);
        } else {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Buffer acquisitions served from recycled buffers.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Buffer acquisitions that had to allocate.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

/// Number of independently locked free-lists per pool. Leases index by
/// [`thread_slot`], so up to this many threads lease without contending.
const SCRATCH_SHARDS: usize = 16;

/// A thread-indexed pool of reusable `T: Default` scratch buffers.
///
/// [`ScratchPool::lease`] pops a cached buffer from the current thread's
/// shard (or creates a fresh `T::default()` when none is cached — counted
/// as an alloc); dropping the returned [`ScratchLease`] pushes the buffer
/// back for the next lease. The pool never clears buffers itself: `T` is
/// expected to expose a cheap logical reset (e.g. [`BitSet::reset`],
/// `Vec::clear`) that the *user* of the lease applies, so stale contents
/// can never influence results even when a buffer migrates between
/// workloads.
pub struct ScratchPool<T> {
    shards: Vec<Mutex<Vec<T>>>,
    counters: Arc<ScratchCounters>,
}

impl<T> std::fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("counters", &self.counters)
            .finish()
    }
}

impl<T: Default> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool::new()
    }
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool with its own (unshared) counters.
    pub fn new() -> Self {
        ScratchPool::with_counters(Arc::new(ScratchCounters::default()))
    }

    /// An empty pool feeding the supplied shared counters (what
    /// `RoundPrimitives::scratch_pool` uses, so every pool of one context
    /// reports into one `RoundRuntimeStats` record).
    pub fn with_counters(counters: Arc<ScratchCounters>) -> Self {
        ScratchPool {
            shards: (0..SCRATCH_SHARDS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            counters,
        }
    }

    /// Leases a buffer: a recycled one when the thread's shard has one
    /// cached, a fresh `T::default()` otherwise. The buffer returns to the
    /// pool when the lease drops.
    pub fn lease(&self) -> ScratchLease<'_, T> {
        let shard = thread_slot() % self.shards.len();
        let recycled = lock(&self.shards[shard]).pop();
        self.counters.note(recycled.is_some());
        ScratchLease {
            pool: self,
            shard,
            value: Some(recycled.unwrap_or_default()),
        }
    }

    /// The pool's shared counters.
    pub fn counters(&self) -> &Arc<ScratchCounters> {
        &self.counters
    }

    /// Number of buffers currently cached (for tests/diagnostics).
    pub fn cached(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).len()).sum()
    }
}

/// An exclusively held scratch buffer, returned to its [`ScratchPool`] on
/// drop. Dereferences to `T`.
pub struct ScratchLease<'a, T: Default> {
    pool: &'a ScratchPool<T>,
    shard: usize,
    /// Present from construction until `Drop` takes it back.
    value: Option<T>,
}

impl<T: Default> std::ops::Deref for ScratchLease<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("present until drop")
    }
}

impl<T: Default> std::ops::DerefMut for ScratchLease<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("present until drop")
    }
}

impl<T: Default> Drop for ScratchLease<'_, T> {
    fn drop(&mut self) {
        let value = self.value.take().expect("dropped once");
        lock(&self.pool.shards[self.shard]).push(value);
    }
}

/// A word-packed bitset over a small universe `0..len`, the color set of
/// the elimination sweeps and recoloring waves.
///
/// `BitSet` packs 64 slots per `u64` word: for palette domains (tens to a
/// few thousand colors) the whole set fits in a cache line or two, the
/// clear is a short `memset`, and — the reason it exists — **free-color
/// queries become word scans**: [`BitSet::first_absent`] / [`BitSet::last_absent`]
/// replace per-color probe loops with `!word` plus a trailing/leading-zero
/// count, 64 candidate colors per instruction.
#[derive(Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

/// Bits per [`BitSet`] storage word.
const WORD_BITS: usize = 64;

impl BitSet {
    /// An empty set ([`BitSet::reset`] sizes it).
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Clears the set and sizes it to cover `0..len`. Cost is one word-fill
    /// over `len / 64` words — for palette-sized domains, a few cache
    /// lines.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
    }

    /// The universe size set by the last [`BitSet::reset`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` into the set.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the domain of the last
    /// [`BitSet::reset`].
    #[inline]
    pub fn insert(&mut self, value: usize) {
        assert!(value < self.len, "BitSet::insert out of domain");
        self.words[value / WORD_BITS] |= 1u64 << (value % WORD_BITS);
    }

    /// Whether `value` was inserted since the last [`BitSet::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the domain of the last
    /// [`BitSet::reset`].
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        assert!(value < self.len, "BitSet::contains out of domain");
        self.words[value / WORD_BITS] >> (value % WORD_BITS) & 1 == 1
    }

    /// The smallest value in `0..len` *not* in the set, or `None` when the
    /// set is full. Equivalent to `(0..len).find(|&c| !set.contains(c))`,
    /// 64 candidates per word scan.
    pub fn first_absent(&self) -> Option<usize> {
        for (index, &word) in self.words.iter().enumerate() {
            let free = !word;
            if free != 0 {
                // Only the last word carries out-of-domain bits, and when
                // a middle word has a free bit the candidate is always in
                // domain — so one range check covers both cases.
                let candidate = index * WORD_BITS + free.trailing_zeros() as usize;
                return (candidate < self.len).then_some(candidate);
            }
        }
        None
    }

    /// The largest value in `0..len` *not* in the set, or `None` when the
    /// set is full. Equivalent to `(0..len).rev().find(|&c|
    /// !set.contains(c))`.
    pub fn last_absent(&self) -> Option<usize> {
        for (index, &word) in self.words.iter().enumerate().rev() {
            let mut free = !word;
            // Mask off the out-of-domain tail of the last word.
            let in_domain = self.len - index * WORD_BITS;
            if in_domain < WORD_BITS {
                free &= (1u64 << in_domain) - 1;
            }
            if free != 0 {
                return Some(index * WORD_BITS + (WORD_BITS - 1) - free.leading_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_pool_recycles_buffers_and_counts() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        {
            let mut lease = pool.lease();
            lease.extend_from_slice(&[1, 2, 3]);
        } // returned with its capacity (and stale contents) intact
        assert_eq!(pool.cached(), 1);
        {
            let mut lease = pool.lease();
            // The user applies the logical reset; capacity survives.
            assert!(lease.capacity() >= 3, "capacity must be recycled");
            lease.clear();
            assert!(lease.is_empty());
        }
        assert_eq!(
            pool.counters().allocs(),
            1,
            "only the first lease allocates"
        );
        assert_eq!(pool.counters().reuses(), 1);
    }

    #[test]
    fn bitset_matches_the_probe_loop_reference() {
        // Domains straddling the word width, including the exact-word and
        // empty edges.
        for len in [0, 1, 2, 63, 64, 65, 127, 128, 130, 200] {
            let mut set = BitSet::new();
            set.reset(len);
            // Deterministic pseudo-random membership.
            let mut member = vec![false; len];
            for (value, slot) in member.iter_mut().enumerate() {
                if (value * 2_654_435_761) % 7 < 3 {
                    set.insert(value);
                    *slot = true;
                }
            }
            for (value, &expected) in member.iter().enumerate() {
                assert_eq!(set.contains(value), expected, "len {len} value {value}");
            }
            assert_eq!(
                set.first_absent(),
                (0..len).find(|&value| !member[value]),
                "first_absent at len {len}"
            );
            assert_eq!(
                set.last_absent(),
                (0..len).rev().find(|&value| !member[value]),
                "last_absent at len {len}"
            );
        }
    }

    #[test]
    fn bitset_full_and_boundary_behavior() {
        let mut set = BitSet::new();
        set.reset(65);
        for value in 0..65 {
            set.insert(value);
        }
        assert_eq!(set.first_absent(), None, "full set has no absent value");
        assert_eq!(set.last_absent(), None);
        // Reset clears and resizes; only the tail value stays absent-able.
        set.reset(64);
        for value in 0..63 {
            set.insert(value);
        }
        assert_eq!(set.first_absent(), Some(63));
        assert_eq!(set.last_absent(), Some(63));
        set.insert(63);
        assert_eq!(set.first_absent(), None);
        // Empty universe.
        set.reset(0);
        assert!(set.is_empty());
        assert_eq!(set.first_absent(), None);
        assert_eq!(set.last_absent(), None);
    }

    #[test]
    fn concurrent_leases_get_distinct_buffers() {
        let pool: ScratchPool<Vec<usize>> = ScratchPool::new();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..100 {
                        let mut lease = pool.lease();
                        lease.clear();
                        lease.push(worker * 1000 + round);
                        assert_eq!(lease.len(), 1, "no two leases share a buffer");
                    }
                });
            }
        });
        let (reuses, allocs) = {
            let counters = pool.counters();
            (counters.reuses(), counters.allocs())
        };
        assert_eq!(reuses + allocs, 400);
        assert!(reuses > 0, "steady-state leases recycle");
    }
}

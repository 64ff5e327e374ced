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
//! * [`MarkerSet`] — an epoch-stamped membership set with O(1) clear: the
//!   standard replacement for repeated small `vec![false; n]` scratch.
//!   Marking stamps the current epoch; clearing just bumps the epoch.
//! * [`EpochMap`] — the same stamping with a `u32` per slot: an
//!   O(1)-clear dense-id → slot map (the coin game's node index).
//! * [`ScratchPool`] — a thread-indexed pool of reusable `T: Default`
//!   buffers. Worker closures [`ScratchPool::lease`] a buffer, use it for
//!   one item (or one chunk) and return it on drop; in steady state no
//!   lease allocates. Pools are **generation-checked**: bumping the
//!   generation ([`ScratchPool::advance_generation`]) lazily discards every
//!   cached buffer, so a caller that cannot prove its buffers reset cleanly
//!   can force fresh ones without walking the pool.
//! * [`ScratchCounters`] / [`scratch_totals`] — reuse-vs-alloc accounting.
//!   Each pool bumps its shared counters (surfaced per round as
//!   [`ampc_model::RoundRuntimeStats::scratch_reuses`] /
//!   [`ampc_model::RoundRuntimeStats::scratch_allocs`]) and the
//!   process-wide totals behind [`scratch_totals`] (surfaced by the
//!   service's `/metrics`).
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

/// A cached buffer, tagged with the pool generation it was returned under.
struct Entry<T> {
    value: T,
    generation: u64,
}

/// A thread-indexed pool of reusable `T: Default` scratch buffers.
///
/// [`ScratchPool::lease`] pops a cached buffer from the current thread's
/// shard (or creates a fresh `T::default()` when none is cached — counted
/// as an alloc); dropping the returned [`ScratchLease`] pushes the buffer
/// back for the next lease. The pool never clears buffers itself: `T` is
/// expected to expose a cheap logical reset (e.g. [`MarkerSet::reset`],
/// `Vec::clear`) that the *user* of the lease applies, so stale contents
/// can never influence results even when a buffer migrates between
/// workloads.
///
/// Pools are generation-checked: [`ScratchPool::advance_generation`]
/// invalidates every cached buffer lazily (stale entries are dropped the
/// next time a lease finds them), forcing fresh `T::default()` values
/// without walking the shards.
pub struct ScratchPool<T> {
    shards: Vec<Mutex<Vec<Entry<T>>>>,
    generation: AtomicU64,
    counters: Arc<ScratchCounters>,
}

impl<T> std::fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("generation", &self.generation.load(Ordering::Relaxed))
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
            generation: AtomicU64::new(0),
            counters,
        }
    }

    /// Leases a buffer: a recycled one when the thread's shard has a
    /// current-generation entry cached, a fresh `T::default()` otherwise.
    /// The buffer returns to the pool when the lease drops.
    pub fn lease(&self) -> ScratchLease<'_, T> {
        let shard = thread_slot() % self.shards.len();
        let generation = self.generation.load(Ordering::Acquire);
        let recycled = {
            let mut entries = lock(&self.shards[shard]);
            loop {
                match entries.pop() {
                    None => break None,
                    Some(entry) if entry.generation == generation => break Some(entry.value),
                    // Stale generation: drop the buffer and keep looking.
                    Some(_) => continue,
                }
            }
        };
        let reused = recycled.is_some();
        self.counters.note(reused);
        ScratchLease {
            pool: self,
            shard,
            generation,
            value: Some(recycled.unwrap_or_default()),
        }
    }

    /// Invalidates every cached buffer (lazily): subsequent leases create
    /// fresh `T::default()` values, and buffers returned by still-live
    /// leases of older generations are dropped instead of recycled.
    pub fn advance_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The pool's shared counters.
    pub fn counters(&self) -> &Arc<ScratchCounters> {
        &self.counters
    }

    /// Number of buffers currently cached (for tests/diagnostics; stale
    /// generations still count until a lease discards them).
    pub fn cached(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).len()).sum()
    }
}

/// An exclusively held scratch buffer, returned to its [`ScratchPool`] on
/// drop. Dereferences to `T`.
pub struct ScratchLease<'a, T: Default> {
    pool: &'a ScratchPool<T>,
    shard: usize,
    generation: u64,
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
        // A generation bump while the lease was out means the buffer is
        // considered stale: drop it instead of recycling.
        if self.pool.generation.load(Ordering::Acquire) != self.generation {
            return;
        }
        lock(&self.pool.shards[self.shard]).push(Entry {
            value,
            generation: self.generation,
        });
    }
}

/// Epoch-stamped slots over `0..len`, each carrying a `T`: the storage
/// behind [`MarkerSet`] and [`EpochMap`].
///
/// Every slot stores the epoch at which it was last written; a read
/// compares against the current epoch, so [`Stamped::reset`] clears the
/// whole domain by bumping the epoch (and re-zeroes the stamps only on the
/// one-in-`u32::MAX` wraparound, keeping stale stamps from a
/// four-billion-reset-old epoch from reading as live).
#[derive(Debug, Default)]
struct Stamped<T> {
    slots: Vec<(u32, T)>,
    epoch: u32,
}

impl<T: Copy + Default> Stamped<T> {
    fn reset(&mut self, len: usize) {
        if self.slots.len() < len {
            self.slots.resize(len, (0, T::default()));
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(epoch) => epoch,
            None => {
                // Wraparound: epoch 0 would collide with never-written
                // slots' initial stamp, and old stamps would alias future
                // epochs — re-zero everything and restart at 1.
                for slot in &mut self.slots {
                    slot.0 = 0;
                }
                1
            }
        };
    }

    #[inline]
    fn set(&mut self, index: usize, value: T) {
        self.slots[index] = (self.epoch, value);
    }

    #[inline]
    fn get(&self, index: usize) -> Option<T> {
        let (stamp, value) = self.slots[index];
        (stamp == self.epoch).then_some(value)
    }
}

/// An epoch-stamped membership set over `0..len` with O(1) clear — the
/// allocation-free replacement for the per-item `vec![false; len]` pattern
/// in the simulators' inner loops.
///
/// Marking stamps the current epoch; [`MarkerSet::reset`] clears the whole
/// set by bumping it.
#[derive(Debug, Default)]
pub struct MarkerSet(Stamped<()>);

impl MarkerSet {
    /// An empty set ([`MarkerSet::reset`] sizes it).
    pub fn new() -> Self {
        MarkerSet::default()
    }

    /// Clears the set and ensures it covers `0..len`. O(1) except when the
    /// domain grows or the epoch wraps around.
    pub fn reset(&mut self, len: usize) {
        self.0.reset(len);
    }

    /// Marks `index` as a member.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the domain of the last
    /// [`MarkerSet::reset`].
    #[inline]
    pub fn mark(&mut self, index: usize) {
        self.0.set(index, ());
    }

    /// Whether `index` was marked since the last [`MarkerSet::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the domain of the last
    /// [`MarkerSet::reset`].
    #[inline]
    pub fn is_marked(&self, index: usize) -> bool {
        self.0.get(index).is_some()
    }
}

/// An epoch-stamped map from `0..len` to `u32` with O(1) clear — the
/// [`MarkerSet`] companion for sparse id → dense slot lookups, e.g. the
/// node → slot index of a coin game over a residual graph, where a
/// `HashMap` would hash every probe and allocate per game.
#[derive(Debug, Default)]
pub struct EpochMap(Stamped<u32>);

impl EpochMap {
    /// An empty map ([`EpochMap::reset`] sizes it).
    pub fn new() -> Self {
        EpochMap::default()
    }

    /// Clears the map and ensures it covers keys `0..len`. O(1) except
    /// when the domain grows or the epoch wraps around.
    pub fn reset(&mut self, len: usize) {
        self.0.reset(len);
    }

    /// Maps `key` to `value`, replacing any earlier value.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the domain of the last
    /// [`EpochMap::reset`].
    #[inline]
    pub fn insert(&mut self, key: usize, value: u32) {
        self.0.set(key, value);
    }

    /// The value inserted for `key` since the last [`EpochMap::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the domain of the last
    /// [`EpochMap::reset`].
    #[inline]
    pub fn get(&self, key: usize) -> Option<u32> {
        self.0.get(key)
    }
}

/// A word-packed bitset over a small universe `0..len` — the compact
/// color-set companion to [`MarkerSet`].
///
/// Where [`MarkerSet`] spends a `u32` stamp per slot to buy O(1) clear over
/// *large* domains, `BitSet` packs 64 slots per `u64` word: for the palette
/// domains of the elimination sweeps and recoloring waves (tens to a few
/// thousand colors) the whole set fits in a cache line or two, the clear is
/// a short `memset`, and — the reason it exists — **free-color queries
/// become word scans**: [`BitSet::first_absent`] / [`BitSet::last_absent`]
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
    fn marker_set_clears_in_constant_time() {
        let mut marks = MarkerSet::new();
        marks.reset(10);
        marks.mark(3);
        marks.mark(7);
        assert!(marks.is_marked(3));
        assert!(marks.is_marked(7));
        assert!(!marks.is_marked(4));
        marks.reset(10);
        for i in 0..10 {
            assert!(!marks.is_marked(i), "slot {i} survived a reset");
        }
        // Growing the domain keeps new slots unmarked.
        marks.mark(1);
        marks.reset(20);
        for i in 0..20 {
            assert!(!marks.is_marked(i));
        }
    }

    #[test]
    fn marker_set_epoch_wraparound_cannot_resurrect_stale_marks() {
        let mut marks = MarkerSet::new();
        marks.reset(4);
        marks.mark(2);
        // Fast-forward to the wraparound edge: the next reset overflows.
        marks.0.epoch = u32::MAX;
        marks.0.slots[1].0 = u32::MAX; // "marked at the last pre-wrap epoch"
        marks.reset(4);
        assert_eq!(marks.0.epoch, 1, "wraparound restarts at epoch 1");
        for i in 0..4 {
            assert!(!marks.is_marked(i), "slot {i} read as marked after wrap");
        }
        marks.mark(0);
        assert!(marks.is_marked(0));
        assert!(!marks.is_marked(1));
        // A stamp that happened to hold the restarted epoch was re-zeroed.
        let mut aliased = MarkerSet::new();
        aliased.reset(2);
        aliased.mark(0); // stamp 1 — would alias epoch 1 after a wrap
        aliased.0.epoch = u32::MAX;
        aliased.reset(2);
        assert!(
            !aliased.is_marked(0),
            "pre-wrap stamp aliased the new epoch"
        );
    }

    #[test]
    fn epoch_map_clears_in_constant_time_and_survives_wraparound() {
        let mut map = EpochMap::new();
        map.reset(8);
        map.insert(3, 30);
        map.insert(5, 50);
        map.insert(3, 31);
        assert_eq!(map.get(3), Some(31));
        assert_eq!(map.get(5), Some(50));
        assert_eq!(map.get(4), None);
        map.reset(16);
        for key in 0..16 {
            assert_eq!(map.get(key), None, "key {key} survived a reset");
        }
        // The wraparound shares the marker set's handling: a value stored
        // before the wrap must not resurface once the epoch restarts.
        map.insert(2, 7);
        map.0.epoch = u32::MAX;
        map.reset(16);
        assert_eq!(map.0.epoch, 1);
        assert_eq!(map.get(2), None, "pre-wrap value aliased the new epoch");
        map.insert(2, 9);
        assert_eq!(map.get(2), Some(9));
    }

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
    fn advancing_the_generation_discards_cached_buffers() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        {
            let mut lease = pool.lease();
            lease.push(42);
        }
        pool.advance_generation();
        {
            let lease = pool.lease();
            assert!(lease.is_empty(), "stale-generation buffers are dropped");
        }
        assert_eq!(pool.counters().allocs(), 2);
        assert_eq!(pool.counters().reuses(), 0);
        // A lease outstanding across the bump is dropped on return, not
        // recycled: the next lease after the bump allocates fresh.
        let lease = pool.lease(); // recycles the current-generation buffer
        assert_eq!(pool.counters().reuses(), 1);
        pool.advance_generation();
        drop(lease);
        assert_eq!(pool.cached(), 0, "stale returns are discarded");
        let fresh = pool.lease();
        assert_eq!(pool.counters().allocs(), 3);
        drop(fresh);
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

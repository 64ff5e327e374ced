//! The keyed result cache with in-flight request coalescing.
//!
//! Jobs are bucketed by a deterministic 64-bit hash of `(graph, config)`,
//! but every claim verifies the *actual* graph and spec against an exact,
//! compact copy of the stored entry's inputs — a hash collision
//! (accidental or attacker-crafted, the key is not collision-resistant)
//! therefore computes separately instead of serving the wrong coloring. The first submission of an entry claims the
//! computation; later identical submissions either wait on the in-flight
//! computation (coalescing — the work runs **once**) or are served the
//! ready result immediately. Ready results are capped FIFO so a
//! long-running server's memory stays bounded.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ampc_coloring::ColoringOutcome;
use sparse_graph::CsrGraph;

use crate::jobs::JobSpec;

/// What a submitter should do with its job, as decided by
/// [`ResultCache::claim`].
#[derive(Debug)]
pub enum Claim {
    /// This submitter computes; identical later submissions wait.
    Compute,
    /// An identical job is already computing; this job was registered as a
    /// waiter and will be fulfilled with the computing job's result.
    Coalesced,
    /// The result is already cached.
    Hit(Arc<ColoringOutcome>),
}

impl PartialEq for Claim {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Claim::Compute, Claim::Compute) | (Claim::Coalesced, Claim::Coalesced) => true,
            (Claim::Hit(a), Claim::Hit(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[derive(Debug)]
enum CacheState {
    InFlight { waiters: Vec<u64> },
    Ready(Arc<ColoringOutcome>),
}

/// An exact, compact copy of a cached job's graph: the offsets of each
/// node's upper row plus every edge once, as the `u32` id of its larger
/// endpoint. An undirected CSR graph is determined by its node count and
/// upper rows, so this verifies claims exactly in about a third of the
/// memory of the `CsrGraph` itself.
#[derive(Debug)]
struct GraphCopy {
    /// `upper_offsets[u]..upper_offsets[u + 1]` indexes `u`'s neighbors
    /// `v > u` in `upper`.
    upper_offsets: Vec<usize>,
    upper: Vec<u32>,
}

impl GraphCopy {
    fn new(graph: &CsrGraph) -> Self {
        let mut upper_offsets = Vec::with_capacity(graph.num_nodes() + 1);
        let mut upper = Vec::with_capacity(graph.num_edges());
        upper_offsets.push(0);
        for u in graph.nodes() {
            // Node ids fit in `u32`: the HTTP layer caps every request at
            // `ServiceConfig::max_graph_nodes` nodes, at most 2^32.
            upper.extend(
                upper_row(graph, u)
                    .iter()
                    .map(|&v| u32::try_from(v).expect("node ids below 2^32")),
            );
            upper_offsets.push(upper.len());
        }
        GraphCopy {
            upper_offsets,
            upper,
        }
    }

    fn num_nodes(&self) -> usize {
        self.upper_offsets.len() - 1
    }

    fn num_edges(&self) -> usize {
        self.upper.len()
    }

    /// Whether `graph` is exactly the copied graph: same node count, same
    /// edge count, same upper row at every node.
    fn matches(&self, graph: &CsrGraph) -> bool {
        self.num_nodes() == graph.num_nodes()
            && self.num_edges() == graph.num_edges()
            && graph.nodes().all(|u| {
                let copy = &self.upper[self.upper_offsets[u]..self.upper_offsets[u + 1]];
                let row = upper_row(graph, u);
                copy.len() == row.len() && copy.iter().zip(row).all(|(&a, &b)| a as usize == b)
            })
    }
}

/// `u`'s neighbors `v > u` (its adjacency row is sorted).
fn upper_row(graph: &CsrGraph, u: usize) -> &[usize] {
    let row = graph.neighbors(u);
    &row[row.partition_point(|&v| v <= u)..]
}

/// One cached computation: an exact copy of the inputs plus its state. The
/// inputs are kept so claims can verify them (see module docs).
#[derive(Debug)]
struct CacheEntry {
    graph: GraphCopy,
    spec: JobSpec,
    state: CacheState,
}

impl CacheEntry {
    fn new(graph: &CsrGraph, spec: &JobSpec, state: CacheState) -> Self {
        CacheEntry {
            graph: GraphCopy::new(graph),
            spec: *spec,
            state,
        }
    }

    fn matches(&self, graph: &CsrGraph, spec: &JobSpec) -> bool {
        self.spec == *spec && self.graph.matches(graph)
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    buckets: HashMap<u64, Vec<CacheEntry>>,
    /// One element per `Ready` entry — its bucket key and the instant it
    /// became ready — oldest first (FIFO eviction *and* TTL sweep order:
    /// readiness times are monotone along the deque).
    ready_order: VecDeque<(u64, Instant)>,
    ready_count: usize,
    /// Total [`cache_cost`] across `Ready` entries (the budget eviction
    /// unit).
    ready_cost: usize,
}

/// What a ready entry charges against the cache budget, in nodes plus
/// directed edges of the cached graph: a `Ready` entry pins the coloring
/// (one cell per node) *and* the graph copy kept for collision
/// verification (a cell per node and per edge), so both must count — a
/// node-only budget would let a few dense graphs pin unbounded edge
/// memory.
fn cache_cost(nodes: usize, edges: usize) -> usize {
    nodes + 2 * edges
}

/// Counter snapshot of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Claims served from a ready entry.
    pub hits: u64,
    /// Claims that had to compute.
    pub misses: u64,
    /// Claims folded into an in-flight computation.
    pub coalesced: u64,
    /// Ready entries currently held.
    pub entries: u64,
    /// Ready entries dropped by the entry-count / cost-budget caps.
    pub evicted: u64,
    /// Ready entries dropped by the age-based TTL sweep.
    pub expired: u64,
}

/// A single-flight result cache with exact input verification, a FIFO cap
/// on ready entries — by entry count and by total result nodes — and an
/// age-based TTL sweep for long-running servers whose traffic never
/// pressures the caps.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    node_budget: usize,
    ttl: Duration,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evicted: AtomicU64,
    expired: AtomicU64,
}

impl ResultCache {
    /// Creates an empty cache retaining at most `capacity` ready results
    /// totalling at most `node_budget` in [`cache_cost`] units (nodes plus
    /// directed edges of the cached graphs; each at least 1; in-flight
    /// entries are never evicted), each for at most `ttl` after it became
    /// ready. The budget keeps memory bounded when few-but-huge entries
    /// would stay under the entry cap; the TTL bounds how stale a served
    /// result can be and releases memory on servers whose load never
    /// reaches the caps. The TTL sweep runs alongside every claim,
    /// publication and counter snapshot.
    pub fn new(capacity: usize, node_budget: usize, ttl: Duration) -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            node_budget: node_budget.max(1),
            // Floored like the job TTL: a zero TTL would expire a result
            // inside the very fulfill() that published it.
            ttl: ttl.max(Duration::from_millis(10)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Claims `(graph, spec)` under bucket `key` for the job `waiter`.
    pub fn claim(&self, key: u64, graph: &CsrGraph, spec: &JobSpec, waiter: u64) -> Claim {
        let mut inner = self.inner.lock().expect("cache lock");
        self.expire_over_ttl(&mut inner);
        let bucket = inner.buckets.entry(key).or_default();
        for entry in bucket.iter_mut() {
            if !entry.matches(graph, spec) {
                continue;
            }
            return match &mut entry.state {
                CacheState::InFlight { waiters } => {
                    waiters.push(waiter);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    Claim::Coalesced
                }
                CacheState::Ready(value) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Claim::Hit(Arc::clone(value))
                }
            };
        }
        bucket.push(CacheEntry::new(
            graph,
            spec,
            CacheState::InFlight {
                waiters: Vec::new(),
            },
        ));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Claim::Compute
    }

    /// Publishes the computed result for `(graph, spec)`, returning the
    /// coalesced waiters to be fulfilled with it. Evicts the oldest ready
    /// results beyond the capacity.
    pub fn fulfill(
        &self,
        key: u64,
        graph: &CsrGraph,
        spec: &JobSpec,
        value: Arc<ColoringOutcome>,
    ) -> Vec<u64> {
        let mut inner = self.inner.lock().expect("cache lock");
        let bucket = inner.buckets.entry(key).or_default();
        let mut claimed_waiters = Vec::new();
        let mut found = false;
        for entry in bucket.iter_mut() {
            if !entry.matches(graph, spec) {
                continue;
            }
            if let CacheState::InFlight { waiters } = &mut entry.state {
                claimed_waiters = std::mem::take(waiters);
            }
            entry.state = CacheState::Ready(Arc::clone(&value));
            found = true;
            break;
        }
        if !found {
            bucket.push(CacheEntry::new(graph, spec, CacheState::Ready(value)));
        }
        inner.ready_order.push_back((key, Instant::now()));
        inner.ready_count += 1;
        inner.ready_cost += cache_cost(graph.num_nodes(), graph.num_edges());
        self.expire_over_ttl(&mut inner);
        self.evict_over_capacity(&mut inner);
        claimed_waiters
    }

    /// Drops the in-flight entry for `(graph, spec)` after a failed
    /// computation (identical future submissions recompute), returning the
    /// waiters to be failed alongside. Ready entries are untouched.
    pub fn abandon(&self, key: u64, graph: &CsrGraph, spec: &JobSpec) -> Vec<u64> {
        let mut inner = self.inner.lock().expect("cache lock");
        let Some(bucket) = inner.buckets.get_mut(&key) else {
            return Vec::new();
        };
        let mut waiters = Vec::new();
        bucket.retain_mut(|entry| {
            if !entry.matches(graph, spec) {
                return true;
            }
            match &mut entry.state {
                CacheState::InFlight { waiters: pending } => {
                    waiters.append(pending);
                    false
                }
                CacheState::Ready(_) => true,
            }
        });
        if bucket.is_empty() {
            inner.buckets.remove(&key);
        }
        waiters
    }

    /// Drops the oldest `Ready` entry of bucket `key` (the entry the
    /// `ready_order` front element accounts for), fixing up the counters.
    fn drop_oldest_ready(inner: &mut CacheInner, key: u64) {
        if let Some(bucket) = inner.buckets.get_mut(&key) {
            if let Some(position) = bucket
                .iter()
                .position(|entry| matches!(entry.state, CacheState::Ready(_)))
            {
                let entry = bucket.remove(position);
                inner.ready_count -= 1;
                let cost = cache_cost(entry.graph.num_nodes(), entry.graph.num_edges());
                inner.ready_cost = inner.ready_cost.saturating_sub(cost);
            }
            if bucket.is_empty() {
                inner.buckets.remove(&key);
            }
        }
    }

    /// The age-based sweep: drops ready entries older than the TTL, front
    /// of the deque first (readiness times are monotone along it, so the
    /// sweep stops at the first fresh entry — O(expired) per call). Runs
    /// alongside the entry/cost-cap eviction on every claim, publication
    /// and counter snapshot; in-flight entries never expire.
    fn expire_over_ttl(&self, inner: &mut CacheInner) {
        let now = Instant::now();
        while let Some(&(key, ready_at)) = inner.ready_order.front() {
            if now.duration_since(ready_at) < self.ttl {
                break;
            }
            inner.ready_order.pop_front();
            Self::drop_oldest_ready(inner, key);
            self.expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn evict_over_capacity(&self, inner: &mut CacheInner) {
        while inner.ready_count > self.capacity || inner.ready_cost > self.node_budget {
            let Some((key, _)) = inner.ready_order.pop_front() else {
                break;
            };
            Self::drop_oldest_ready(inner, key);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot (also a TTL-sweep point, so `/metrics` probes on
    /// an idle server release expired results).
    pub fn counters(&self) -> CacheCounters {
        let entries = {
            let mut inner = self.inner.lock().expect("cache lock");
            self.expire_over_ttl(&mut inner);
            inner.ready_count as u64
        };
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries,
            evicted: self.evicted.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::job_key;
    use ampc_coloring::{ColorRequest, SparseColoring};
    use sparse_graph::generators;

    /// A TTL far beyond any test's runtime: the sweeps never fire.
    const LONG_TTL: Duration = Duration::from_secs(3600);

    fn graph(side: usize) -> Arc<CsrGraph> {
        Arc::new(generators::triangulated_grid(side, side))
    }

    fn outcome_for(graph: &Arc<CsrGraph>) -> Arc<ColoringOutcome> {
        Arc::new(SparseColoring::color_request(graph, &ColorRequest::default()).unwrap())
    }

    #[test]
    fn miss_coalesce_hit_lifecycle() {
        let cache = ResultCache::new(16, usize::MAX, LONG_TTL);
        let g = graph(4);
        let spec = JobSpec::default();
        let key = job_key(&g, &spec);
        assert_eq!(cache.claim(key, &g, &spec, 1), Claim::Compute);
        assert_eq!(cache.claim(key, &g, &spec, 2), Claim::Coalesced);
        assert_eq!(cache.claim(key, &g, &spec, 3), Claim::Coalesced);
        let value = outcome_for(&g);
        let waiters = cache.fulfill(key, &g, &spec, Arc::clone(&value));
        assert_eq!(waiters, vec![2, 3]);
        match cache.claim(key, &g, &spec, 4) {
            Claim::Hit(hit) => assert!(Arc::ptr_eq(&hit, &value)),
            other => panic!("expected a hit, got {other:?}"),
        }
        let counters = cache.counters();
        assert_eq!(
            (
                counters.misses,
                counters.coalesced,
                counters.hits,
                counters.entries
            ),
            (1, 2, 1, 1)
        );
    }

    #[test]
    fn colliding_keys_with_different_inputs_compute_separately() {
        let cache = ResultCache::new(16, usize::MAX, LONG_TTL);
        let g1 = graph(4);
        let g2 = graph(5);
        let spec = JobSpec::default();
        // Force both inputs into the same bucket (a simulated hash
        // collision): each must still get its own computation and result.
        let key = 7;
        assert_eq!(cache.claim(key, &g1, &spec, 1), Claim::Compute);
        assert_eq!(cache.claim(key, &g2, &spec, 2), Claim::Compute);
        let v1 = outcome_for(&g1);
        let v2 = outcome_for(&g2);
        cache.fulfill(key, &g1, &spec, Arc::clone(&v1));
        cache.fulfill(key, &g2, &spec, Arc::clone(&v2));
        match cache.claim(key, &g1, &spec, 3) {
            Claim::Hit(hit) => assert!(Arc::ptr_eq(&hit, &v1), "g1 must get g1's coloring"),
            other => panic!("expected a hit, got {other:?}"),
        }
        match cache.claim(key, &g2, &spec, 4) {
            Claim::Hit(hit) => assert!(Arc::ptr_eq(&hit, &v2), "g2 must get g2's coloring"),
            other => panic!("expected a hit, got {other:?}"),
        }
        // Differing specs on the same graph are also kept apart.
        let other_spec = JobSpec {
            request: ColorRequest {
                alpha: Some(7),
                ..ColorRequest::default()
            },
            ..JobSpec::default()
        };
        assert_eq!(cache.claim(key, &g1, &other_spec, 5), Claim::Compute);

        // Near misses of g1 in the same bucket: one edge moved (same node
        // and edge counts), one edge dropped, and only extra isolated
        // nodes. None may hit g1's entry, nor each other's.
        let mut edges: Vec<(usize, usize)> = g1.edges().collect();
        let moved = edges.pop().unwrap();
        let rewired = (
            moved.0,
            (moved.1 + 1..g1.num_nodes())
                .chain(0..moved.0)
                .find(|&w| w != moved.0 && !g1.has_edge(moved.0, w))
                .unwrap(),
        );
        let near_misses = [
            CsrGraph::from_edges(g1.num_nodes(), edges.iter().copied().chain([rewired])),
            CsrGraph::from_edges(g1.num_nodes(), edges.iter().copied()),
            CsrGraph::from_edges(g1.num_nodes() + 2, g1.edges()),
        ];
        assert_eq!(near_misses[0].num_edges(), g1.num_edges());
        let values: Vec<_> = near_misses
            .iter()
            .map(|g| outcome_for(&Arc::new(g.clone())))
            .collect();
        for (waiter, g) in (6..).zip(&near_misses) {
            assert_eq!(cache.claim(key, g, &spec, waiter), Claim::Compute);
        }
        for (g, value) in near_misses.iter().zip(&values) {
            assert!(cache.fulfill(key, g, &spec, Arc::clone(value)).is_empty());
        }
        for (waiter, (g, value)) in (9..).zip(near_misses.iter().zip(&values)) {
            match cache.claim(key, g, &spec, waiter) {
                Claim::Hit(hit) => assert!(Arc::ptr_eq(&hit, value), "near miss hit a neighbour"),
                other => panic!("expected a hit, got {other:?}"),
            }
        }
        match cache.claim(key, &g1, &spec, 12) {
            Claim::Hit(hit) => assert!(Arc::ptr_eq(&hit, &v1), "g1 must still get g1's coloring"),
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn abandon_allows_recompute_and_fails_waiters() {
        let cache = ResultCache::new(16, usize::MAX, LONG_TTL);
        let g = graph(4);
        let spec = JobSpec::default();
        let key = job_key(&g, &spec);
        assert_eq!(cache.claim(key, &g, &spec, 1), Claim::Compute);
        assert_eq!(cache.claim(key, &g, &spec, 2), Claim::Coalesced);
        assert_eq!(cache.abandon(key, &g, &spec), vec![2]);
        // The entry is free again: the next identical job recomputes.
        assert_eq!(cache.claim(key, &g, &spec, 3), Claim::Compute);
        cache.fulfill(key, &g, &spec, outcome_for(&g));
        // Abandoning a ready entry is a no-op.
        assert_eq!(cache.abandon(key, &g, &spec), Vec::<u64>::new());
        assert!(matches!(cache.claim(key, &g, &spec, 4), Claim::Hit(_)));
    }

    #[test]
    fn nan_specs_match_themselves_so_abandon_cannot_leak() {
        // f64::from_str parses "NaN"; before spec equality compared floats
        // by bit pattern, a NaN epsilon never equaled itself, so abandon()
        // could not find the in-flight entry and it leaked forever.
        let cache = ResultCache::new(16, usize::MAX, LONG_TTL);
        let g = graph(4);
        let spec = JobSpec {
            request: ColorRequest {
                epsilon: f64::NAN,
                ..ColorRequest::default()
            },
            ..JobSpec::default()
        };
        let same = spec;
        assert_eq!(spec, same, "spec equality must be total");
        let key = job_key(&g, &spec);
        assert_eq!(cache.claim(key, &g, &spec, 1), Claim::Compute);
        assert_eq!(cache.claim(key, &g, &spec, 2), Claim::Coalesced);
        // The failed computation finds and removes its own entry...
        assert_eq!(cache.abandon(key, &g, &spec), vec![2]);
        // ...so the next identical submission computes instead of
        // coalescing onto a ghost forever.
        assert_eq!(cache.claim(key, &g, &spec, 3), Claim::Compute);
        assert_eq!(cache.abandon(key, &g, &spec), Vec::<u64>::new());
        assert_eq!(cache.counters().entries, 0);
    }

    #[test]
    fn ready_results_are_bounded_by_node_budget() {
        // Entry capacity is ample, but the budget only fits one grid's
        // cost (nodes + edges — a ready entry keeps a copy of the graph,
        // not just the coloring) at a time: each fulfill evicts the
        // previous result.
        let spec = JobSpec::default();
        let g1 = graph(4);
        let g2 = graph(4);
        let cache = ResultCache::new(16, g1.num_nodes() + 2 * g1.num_edges(), LONG_TTL);
        let (k1, k2) = (job_key(&g1, &spec), 1 ^ job_key(&g2, &spec));
        assert_eq!(cache.claim(k1, &g1, &spec, 1), Claim::Compute);
        cache.fulfill(k1, &g1, &spec, outcome_for(&g1));
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.claim(k2, &g2, &spec, 2), Claim::Compute);
        cache.fulfill(k2, &g2, &spec, outcome_for(&g2));
        // The older result was evicted to stay under the budget.
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.claim(k1, &g1, &spec, 3), Claim::Compute);
        assert!(matches!(cache.claim(k2, &g2, &spec, 4), Claim::Hit(_)));
    }

    #[test]
    fn ready_results_expire_after_the_ttl() {
        let cache = ResultCache::new(16, usize::MAX, Duration::from_millis(50));
        let g = graph(4);
        let spec = JobSpec::default();
        let key = job_key(&g, &spec);
        assert_eq!(cache.claim(key, &g, &spec, 1), Claim::Compute);
        cache.fulfill(key, &g, &spec, outcome_for(&g));
        // Fresh results survive an immediate sweep and serve hits.
        assert!(matches!(cache.claim(key, &g, &spec, 2), Claim::Hit(_)));
        assert_eq!(cache.counters().entries, 1);
        std::thread::sleep(Duration::from_millis(120));
        // Any cache activity sweeps: the stale result is gone and the next
        // identical submission recomputes.
        assert_eq!(cache.claim(key, &g, &spec, 3), Claim::Compute);
        let counters = cache.counters();
        assert_eq!(counters.entries, 0);
        assert_eq!(counters.expired, 1);
        assert_eq!(counters.evicted, 0, "the caps were never pressured");
        // In-flight entries never expire: the claim above still owns the
        // computation after another TTL has passed.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(cache.claim(key, &g, &spec, 4), Claim::Coalesced);
    }

    #[test]
    fn ready_results_are_capped_fifo() {
        let cache = ResultCache::new(2, usize::MAX, LONG_TTL);
        let spec = JobSpec::default();
        let graphs: Vec<Arc<CsrGraph>> = (3..7).map(graph).collect();
        for g in &graphs {
            let key = job_key(g, &spec);
            assert_eq!(cache.claim(key, g, &spec, 0), Claim::Compute);
            cache.fulfill(key, g, &spec, outcome_for(g));
        }
        assert_eq!(cache.counters().entries, 2);
        // The two oldest were evicted and recompute; the two newest hit.
        assert_eq!(
            cache.claim(job_key(&graphs[0], &spec), &graphs[0], &spec, 9),
            Claim::Compute
        );
        assert!(matches!(
            cache.claim(job_key(&graphs[3], &spec), &graphs[3], &spec, 9),
            Claim::Hit(_)
        ));
    }
}

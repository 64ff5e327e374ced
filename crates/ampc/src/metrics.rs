//! Resource metrics collected by the model simulators.

use serde::{Deserialize, Serialize};

/// Resource usage of a single AMPC round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Zero-based round index.
    pub round: usize,
    /// Number of machines that participated.
    pub machines: usize,
    /// Maximum reads issued by any single machine.
    pub max_reads: usize,
    /// Maximum writes issued by any single machine.
    pub max_writes: usize,
    /// Total reads across machines.
    pub total_reads: usize,
    /// Total writes across machines.
    pub total_writes: usize,
    /// Size (in words) of the data store produced by the round.
    pub store_words: usize,
}

impl RoundReport {
    /// Builds a report from externally measured quantities.
    ///
    /// Algorithm drivers that simulate a round without going through
    /// [`crate::AmpcExecutor`] (e.g. the β-partition driver, which runs one
    /// LCA per machine) use this to feed their measurements into
    /// [`AmpcMetrics`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_measurements(
        round: usize,
        machines: usize,
        max_reads: usize,
        max_writes: usize,
        total_reads: usize,
        total_writes: usize,
        store_words: usize,
    ) -> Self {
        RoundReport {
            round,
            machines,
            max_reads,
            max_writes,
            total_reads,
            total_writes,
            store_words,
        }
    }

    pub(crate) fn new(round: usize, machines: usize) -> Self {
        RoundReport {
            round,
            machines,
            max_reads: 0,
            max_writes: 0,
            total_reads: 0,
            total_writes: 0,
            store_words: 0,
        }
    }

    pub(crate) fn record_machine(&mut self, reads: usize, writes: usize) {
        self.max_reads = self.max_reads.max(reads);
        self.max_writes = self.max_writes.max(writes);
        self.total_reads += reads;
        self.total_writes += writes;
    }

    pub(crate) fn finish(&mut self, store_words: usize) {
        self.store_words = store_words;
    }
}

/// Wall-clock and scheduling measurements for one executed round.
///
/// Unlike [`RoundReport`] these are *measurements of the simulation itself*
/// (how long the round took on the host, how the worker pool was used, how
/// many conflicting writes were merged), not model-level complexity
/// quantities — so they are excluded from [`AmpcMetrics`] equality: two
/// runs that produce bit-identical stores report equal metrics even though
/// their wall clocks differ.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRuntimeStats {
    /// Host wall-clock time of the round, in nanoseconds.
    pub wall_clock_nanos: u64,
    /// Number of duplicate-key writes merged by the `ConflictPolicy`.
    pub conflict_merges: usize,
    /// Tasks each persistent pool worker completed while this round ran
    /// (empty for the sequential executor). When several executions share
    /// one pool the attribution is approximate — these are measurements of
    /// pool reuse, not model-level quantities.
    pub pool_tasks_per_worker: Vec<u64>,
    /// Estimated nanoseconds the pool's workers spent idle while this round
    /// ran (0 for the sequential executor).
    pub pool_idle_nanos: u64,
    /// Pool tasks a worker claimed from another worker's deque while this
    /// round ran (the work-stealing scheduler rebalancing skewed chunks;
    /// 0 for the sequential executor). Approximate when several executions
    /// share one pool, like the other pool counters.
    pub pool_steals: u64,
    /// Pool tasks that overflowed a full worker deque into the shared
    /// injector while this round ran (0 for the sequential executor).
    pub pool_overflows: u64,
    /// Data-parallel tasks executed by the intra-layer round primitives
    /// (the `RoundPrimitives` map, color-class sweep, reduce and index
    /// collect) while this logical round ran. Like the pool counters these
    /// are measurements of the simulation host, not model-level quantities.
    pub intra_tasks: u64,
    /// Nanoseconds spent inside intra-layer round primitives, summed over
    /// every primitive call. Calls made from concurrently running layer
    /// tasks overlap in time, so this can exceed the host wall clock —
    /// it measures primitive *occupancy*, not elapsed time.
    pub intra_wall_nanos: u64,
    /// Scratch-buffer acquisitions the intra-layer primitives served by
    /// recycling an existing buffer (pool leases plus reusable output
    /// buffers whose capacity sufficed) while this logical round ran. A
    /// host measurement like the pool counters; in steady state this
    /// dominates [`RoundRuntimeStats::scratch_allocs`].
    pub scratch_reuses: u64,
    /// Scratch-buffer acquisitions that had to allocate while this logical
    /// round ran (cold pools, first-touch buffers, capacity growth).
    pub scratch_allocs: u64,
    /// CPU cycles retired while this round ran, sampled from the hardware
    /// counter groups of the round's threads (`ampc-runtime`'s
    /// `perf_event_open(2)` wrapper). Zero when hardware sampling is
    /// unavailable — consult the sampler's availability flag before
    /// interpreting zeros. Like the pool counters, attribution is
    /// approximate when concurrent executions share the worker pool.
    pub cycles: u64,
    /// Instructions retired while this round ran (zero when sampling is
    /// unavailable); `instructions / cycles` is the round's IPC.
    pub instructions: u64,
    /// Cache references (usually last-level) while this round ran.
    pub cache_references: u64,
    /// Cache misses (usually last-level) while this round ran;
    /// `cache_misses / cache_references` is the miss rate the ROADMAP's
    /// memory-latency hypothesis is tested against.
    pub cache_misses: u64,
    /// Mispredicted branches while this round ran.
    pub branch_misses: u64,
}

impl RoundRuntimeStats {
    /// Element-wise combination of two rounds' stats (used when an algorithm
    /// driver folds several engine rounds into one logical round).
    pub fn combine(&self, other: &RoundRuntimeStats) -> RoundRuntimeStats {
        fn add(a: &[u64], b: &[u64]) -> Vec<u64> {
            let mut out = vec![0u64; a.len().max(b.len())];
            for (i, &v) in a.iter().enumerate() {
                out[i] += v;
            }
            for (i, &v) in b.iter().enumerate() {
                out[i] += v;
            }
            out
        }
        RoundRuntimeStats {
            wall_clock_nanos: self.wall_clock_nanos + other.wall_clock_nanos,
            conflict_merges: self.conflict_merges + other.conflict_merges,
            pool_tasks_per_worker: add(&self.pool_tasks_per_worker, &other.pool_tasks_per_worker),
            pool_idle_nanos: self.pool_idle_nanos + other.pool_idle_nanos,
            pool_steals: self.pool_steals + other.pool_steals,
            pool_overflows: self.pool_overflows + other.pool_overflows,
            intra_tasks: self.intra_tasks + other.intra_tasks,
            intra_wall_nanos: self.intra_wall_nanos + other.intra_wall_nanos,
            scratch_reuses: self.scratch_reuses + other.scratch_reuses,
            scratch_allocs: self.scratch_allocs + other.scratch_allocs,
            cycles: self.cycles + other.cycles,
            instructions: self.instructions + other.instructions,
            cache_references: self.cache_references + other.cache_references,
            cache_misses: self.cache_misses + other.cache_misses,
            branch_misses: self.branch_misses + other.branch_misses,
        }
    }

    /// Instructions per cycle, when the round carries hardware samples.
    pub fn ipc(&self) -> Option<f64> {
        (self.cycles > 0).then(|| self.instructions as f64 / self.cycles as f64)
    }

    /// Cache-miss fraction (`0.0..=1.0`), when references were sampled.
    pub fn cache_miss_rate(&self) -> Option<f64> {
        (self.cache_references > 0).then(|| self.cache_misses as f64 / self.cache_references as f64)
    }
}

/// Aggregated metrics over a full AMPC execution.
///
/// Equality compares the model-level [`RoundReport`]s only; the
/// [`RoundRuntimeStats`] are measurement data (wall clock, pool use) that
/// legitimately differ between two otherwise identical executions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AmpcMetrics {
    rounds: Vec<RoundReport>,
    runtime: Vec<RoundRuntimeStats>,
}

impl PartialEq for AmpcMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
    }
}

impl Eq for AmpcMetrics {}

impl AmpcMetrics {
    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Per-round reports, in execution order.
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// The largest per-machine read count observed in any round.
    pub fn max_reads_per_machine(&self) -> usize {
        self.rounds.iter().map(|r| r.max_reads).max().unwrap_or(0)
    }

    /// The largest per-machine write count observed in any round.
    pub fn max_writes_per_machine(&self) -> usize {
        self.rounds.iter().map(|r| r.max_writes).max().unwrap_or(0)
    }

    /// Total communication (reads + writes) across the execution.
    pub fn total_communication(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.total_reads + r.total_writes)
            .sum()
    }

    /// The largest data-store size (in words) produced in any round, i.e. the
    /// total space requirement of the execution.
    pub fn max_store_words(&self) -> usize {
        self.rounds.iter().map(|r| r.store_words).max().unwrap_or(0)
    }

    /// Per-round runtime measurements, in recording order.
    ///
    /// May be shorter than [`AmpcMetrics::rounds`] when some rounds were
    /// recorded from external measurements without runtime data.
    pub fn runtime_stats(&self) -> &[RoundRuntimeStats] {
        &self.runtime
    }

    /// Total host wall-clock time across all rounds with runtime data, in
    /// nanoseconds.
    pub fn total_wall_clock_nanos(&self) -> u64 {
        self.runtime.iter().map(|s| s.wall_clock_nanos).sum()
    }

    /// Total conflict merges across all rounds with runtime data.
    pub fn total_conflict_merges(&self) -> usize {
        self.runtime.iter().map(|s| s.conflict_merges).sum()
    }

    /// Appends a round's runtime measurements.
    pub fn record_runtime(&mut self, stats: RoundRuntimeStats) {
        self.runtime.push(stats);
    }

    /// Appends another execution's metrics (used when an algorithm chains
    /// several executors, e.g. the guessing scheme of Lemma 5.1).
    pub fn absorb(&mut self, other: &AmpcMetrics) {
        for report in &other.rounds {
            let mut renumbered = report.clone();
            renumbered.round = self.rounds.len();
            self.rounds.push(renumbered);
        }
        self.runtime.extend(other.runtime.iter().cloned());
    }

    /// Appends an externally constructed round report (renumbering it to the
    /// next round index).
    pub fn record(&mut self, mut report: RoundReport) {
        report.round = self.rounds.len();
        self.rounds.push(report);
    }

    pub(crate) fn push_round(&mut self, report: RoundReport) {
        self.rounds.push(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_over_rounds() {
        let mut metrics = AmpcMetrics::default();
        let mut r0 = RoundReport::new(0, 2);
        r0.record_machine(3, 1);
        r0.record_machine(5, 2);
        r0.finish(40);
        metrics.push_round(r0);

        let mut r1 = RoundReport::new(1, 2);
        r1.record_machine(1, 7);
        r1.finish(10);
        metrics.push_round(r1);

        assert_eq!(metrics.num_rounds(), 2);
        assert_eq!(metrics.max_reads_per_machine(), 5);
        assert_eq!(metrics.max_writes_per_machine(), 7);
        assert_eq!(metrics.total_communication(), (3 + 5 + 1 + 2) + (1 + 7));
        assert_eq!(metrics.max_store_words(), 40);
    }

    #[test]
    fn absorb_renumbers_rounds() {
        let mut a = AmpcMetrics::default();
        a.push_round(RoundReport::new(0, 1));
        let mut b = AmpcMetrics::default();
        b.push_round(RoundReport::new(0, 1));
        b.push_round(RoundReport::new(1, 1));
        a.absorb(&b);
        assert_eq!(a.num_rounds(), 3);
        assert_eq!(a.rounds()[2].round, 2);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let metrics = AmpcMetrics::default();
        assert_eq!(metrics.num_rounds(), 0);
        assert_eq!(metrics.max_reads_per_machine(), 0);
        assert_eq!(metrics.total_communication(), 0);
    }
}

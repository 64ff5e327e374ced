//! The deterministic low-space MPC coloring of Theorem 1.5.
//!
//! One *phase* colors the currently uncolored nodes `U` with a palette of
//! `2x∆` colors (rounded up to a power of two) so that at most a `1/(2x)`
//! fraction of the edges incident to `U` is monochromatic:
//!
//! * The random trial assigns node `v` the color `M·v̂` where `M` is a random
//!   0/1 matrix over GF(2) and `v̂` is the binary encoding of `v` with an
//!   appended 1. For any two distinct nodes (and for a node against a fixed
//!   color) the collision probability is exactly `2^{-bits}`, so the expected
//!   number of monochromatic edges incident to `U` is at most `|U|/(2x)`.
//! * The seed (the matrix `M`, `O(log² n)` bits) is fixed deterministically
//!   with the method of conditional expectations: the exact conditional
//!   expectation of the number of monochromatic edges is computable edge by
//!   edge and aggregated over a broadcast tree, and each batch of seed bits
//!   is fixed to the assignment minimizing it.
//! * Nodes with no incident monochromatic edge keep their color; the rest
//!   stay uncolored and the next phase repeats the process on them.
//!
//! The number of uncolored nodes drops by a factor `x` per phase, so
//! `O(log_x n)` phases suffice — each phase costs `O(1/δ²)` MPC rounds of
//! aggregation, matching the `O(log_x n)` rounds (for constant `δ`) of the
//! theorem.
//!
//! # One-word GF(2) representation
//!
//! A query has `cols = id_bits + 1` coordinates, and `cols ≤ 64` for every
//! graph a `Vec` can index (`n < 2^63`), so everything GF(2)-valued here is
//! a single `u64`. Node `v` encodes as `v | 1 << (cols - 1)`; an edge's
//! query is one word in the phase's query table. A seed row is a pair of
//! words (`fixed` = which coordinates are decided, `value` ⊆ `fixed` =
//! which are decided *to 1*). Per color bit, a query `d` collides with
//! probability 1/2 while `d & !fixed != 0` (a queried coordinate is still
//! free), and otherwise with probability 1 or 0 as the fixed parity
//! `(d & value).count_ones() & 1` hits or misses the target bit.
//!
//! The query table is built per phase from `U`'s adjacency: a `U`–`U` edge
//! is taken once, from its smaller endpoint, and a `U`–colored edge from
//! its `U` endpoint, so the scan costs `Σ_{v ∈ U} deg(v)`, not `|E|`, once
//! `U` has shrunk. Table order is free (see below).
//!
//! # Seed search by counting
//!
//! Seed bits are fixed in flat order `row · cols + col`, a batch at a
//! time, so while a batch is searched every earlier row is fully fixed,
//! every later row is fully free, and only the rows the batch touches are
//! partly fixed. An edge's collision probability is therefore a product
//! of three kinds of factor: 1 or 0 for each finished row (an edge whose
//! finished row missed its target bit stays at probability 0 for the rest
//! of the phase and is dropped from the query table), exactly 1/2 for each
//! of the `F` free rows (a query is never the zero vector), and, for each
//! of the `T` touched rows, a factor that depends on the candidate
//! assignment `a` only through
//!
//! * the query's bits on the batch's columns of that row (its *pattern*),
//! * whether the query has a bit on a column after the batch (the row
//!   stays free: factor 1/2 whatever `a` is), and
//! * the parity of the query over the row's already-fixed prefix, XOR the
//!   row's target bit (its *residual*): the row hits iff
//!   `parity(pattern & a_row)` equals the residual.
//!
//! Scaling every probability by the shared `2^(F+T)` turns it into the
//! integer `Π_rows (free ? 1 : 2·[parity(pattern & a_row) = residual])`,
//! so one counting pass per batch buckets the live edges by that key and
//! each candidate's conditional expectation is the exact `u64`
//! `Σ_key count · Π_rows(…)`. Candidates are scanned in increasing order
//! and the first minimum wins; since all candidates share the scale, that
//! is the argmin of the real-valued expectation, and, because integer sums
//! do not depend on summation order, the same for any edge order and any
//! thread count.

use ampc_model::mpc::{MpcConfig, MpcCostTracker};
use ampc_runtime::{simd, RoundPrimitives};
use sparse_graph::{Coloring, CsrGraph, NodeId, PartialColoring};

/// Parameters of the derandomized coloring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerandParams {
    /// The trade-off parameter `x > 1`: the palette has `~2x∆` colors and the
    /// number of phases is `O(log_x n)`.
    pub x: usize,
    /// Local-space exponent `δ` used for MPC round accounting.
    pub delta: f64,
    /// Number of seed bits fixed per conditional-expectation batch
    /// (`⌊δ/3 · log₂ n⌋` in the paper; any positive value preserves
    /// correctness, smaller values only change the round accounting).
    pub batch_bits: usize,
    /// Safety cap on the number of phases.
    pub max_phases: usize,
}

impl Default for DerandParams {
    fn default() -> Self {
        DerandParams {
            x: 2,
            delta: 0.5,
            batch_bits: 4,
            max_phases: 64,
        }
    }
}

impl DerandParams {
    /// Parameters with a given `x` and defaults elsewhere.
    pub fn with_x(x: usize) -> Self {
        DerandParams {
            x: x.max(2),
            ..Default::default()
        }
    }
}

/// Result of the derandomized MPC coloring.
#[derive(Debug, Clone)]
pub struct DerandColoringResult {
    /// The final proper coloring (palette `{0, …, 2x∆ − 1}` rounded to a
    /// power of two).
    pub coloring: Coloring,
    /// The palette size used.
    pub palette: usize,
    /// Number of phases executed.
    pub phases: usize,
    /// Number of uncolored nodes after each phase.
    pub uncolored_history: Vec<usize>,
    /// Simulated MPC rounds charged (aggregations for every batch of every
    /// phase).
    pub mpc_rounds: usize,
}

/// `2^-k` exactly, by exponent construction (`k` far below the subnormal
/// threshold here: it is bounded by the seed's row count).
#[cfg(test)]
fn half_pow(k: u32) -> f64 {
    debug_assert!(k < 1023, "2^-{k} is not a normal f64");
    f64::from_bits(u64::from(1023 - k) << 52)
}

/// The seed's column count for an `n`-node graph: the bits of the largest
/// id plus the appended constant coordinate. At most 64 for every `n` a
/// `Vec` can index (`n < 2^63`), so a query always fits one word.
fn column_count(n: usize) -> usize {
    let id_bits = (usize::BITS - n.max(2).leading_zeros()) as usize;
    let cols = id_bits + 1;
    assert!(cols <= 64, "{n} nodes need {cols} GF(2) columns");
    cols
}

/// Node `v`'s GF(2) encoding over `cols` coordinates: its id bits on
/// coordinates `0..cols - 1` and the constant 1 on `cols - 1`, so an
/// encoding is never zero and distinct nodes differ.
fn encode(v: NodeId, cols: usize) -> u64 {
    let constant = 1u64 << (cols - 1);
    (v as u64 & (constant - 1)) | constant
}

/// The GF(2) inner product's value: whether `word` has odd popcount.
fn parity(word: u64) -> bool {
    word.count_ones() & 1 == 1
}

/// The `len` (`≤ 64`) low bits set.
fn low_mask(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1 << len) - 1
    }
}

/// The seed: a 0/1 matrix over GF(2) with `rows = color bits` and
/// `cols = node-id bits + 1`, stored as two masks per row, one word each.
/// Flat bit index `r * cols + c` addresses entry `(r, c)`, matching the
/// batch loop's bit numbering.
#[derive(Debug, Clone)]
struct Seed {
    cols: usize,
    /// Per row, bit set ⇔ the coordinate has been fixed (by a candidate
    /// write or a committed batch); clear ⇔ still random.
    fixed: Vec<u64>,
    /// Per row, bit set ⇔ fixed *to 1*. Invariant: `value ⊆ fixed` —
    /// [`Seed::set_bit`] clears the value bit whenever it fixes a
    /// coordinate to 0, so parity masks never see stale candidate bits.
    value: Vec<u64>,
}

impl Seed {
    fn new(rows: usize, cols: usize) -> Self {
        Seed {
            cols,
            fixed: vec![0; rows],
            value: vec![0; rows],
        }
    }

    /// Fixes flat bit `bit_index` (= `row * cols + col`) to `bit`,
    /// overwriting any earlier fixing.
    fn set_bit(&mut self, bit_index: usize, bit: bool) {
        let (row, col) = (bit_index / self.cols, bit_index % self.cols);
        let mask = 1u64 << col;
        self.fixed[row] |= mask;
        if bit {
            self.value[row] |= mask;
        } else {
            self.value[row] &= !mask;
        }
    }

    /// The color of node `v` once every bit is fixed: one masked parity
    /// of `v`'s encoding per row.
    fn color_of(&self, v: NodeId) -> usize {
        let d = encode(v, self.cols);
        let mut color = 0usize;
        for (row, &value) in self.value.iter().enumerate() {
            if parity(d & value) {
                color |= 1 << row;
            }
        }
        color
    }

    /// Probability that `M·d` equals the bit pattern `target` (given the
    /// currently fixed bits), for a non-zero `d`. Per row: any queried
    /// coordinate still random makes the row's parity uniform (probability
    /// 1/2); otherwise the fixed parity either hits the target bit
    /// (probability 1) or misses it (0). Rows are independent; the first
    /// impossible row short-circuits to 0 exactly like the row-by-row
    /// product it replaces, and the surviving product `0.5^free_rows` is
    /// reconstructed exactly by exponent arithmetic. The seed search scores
    /// candidates by counting instead (see the module docs); this direct
    /// product is the oracle its tests compare against.
    #[cfg(test)]
    fn collision_probability(&self, d: u64, target: usize) -> f64 {
        let mut free_rows = 0u32;
        for (row, (&fixed, &value)) in self.fixed.iter().zip(&self.value).enumerate() {
            let target_bit = (target >> row) & 1 == 1;
            if d & !fixed != 0 {
                free_rows += 1;
            } else if parity(d & value) != target_bit {
                return 0.0;
            }
        }
        half_pow(free_rows)
    }
}

/// One edge of a phase's query table: the GF(2) query `d` (never zero)
/// and the color `M·d` must equal for the edge to end monochromatic —
/// 0 for a `U`–`U` edge (`d` is the XOR of the two encodings), the
/// neighbor's fixed color for a `U`–colored edge (`d` encodes the `U`
/// endpoint).
#[derive(Debug, Clone, Copy)]
struct Query {
    d: u64,
    target: usize,
}

/// Bucket keys up to this many bits are counted in a dense table; wider
/// keys (only batches far wider than the paper's `⌊δ/3 · log₂ n⌋` bits
/// produce them) are sorted instead, so the table never outgrows 256 KiB.
const DENSE_KEY_BITS: usize = 16;

/// One seed row a batch touches: the batch fixes the row's columns
/// `lo..lo + len`, which are bits `offset..offset + len` of a candidate
/// assignment.
#[derive(Debug, Clone, Copy)]
struct Segment {
    row: usize,
    lo: usize,
    /// The batch's columns of the row shifted down by `lo`: `len` low
    /// bits set.
    columns: u64,
    offset: usize,
}

impl Segment {
    /// The segment's bits within a candidate assignment.
    fn mask(&self) -> u64 {
        self.columns << self.offset
    }
}

/// The conditional-expectation seed search, one counting pass per batch
/// (see the module docs). Holds only reused buffers.
#[derive(Debug, Default)]
struct BatchSearch {
    /// The touched rows of the current batch, in row order.
    segments: Vec<Segment>,
    /// Dense bucket counts, all zero between batches.
    counts: Vec<u32>,
    /// Distinct keys of the dense table, or every key on the sorted path.
    keys: Vec<u64>,
    /// `(key, edge count)` per non-empty bucket.
    buckets: Vec<(u64, u64)>,
    /// Scaled conditional expectation per candidate assignment.
    scores: Vec<u64>,
}

impl BatchSearch {
    /// Fills `self.scores[a]` with the conditional expectation of the
    /// number of monochromatic edges when flat seed bits `start..end` are
    /// fixed to candidate `a` (bit `i` of `a` ↦ seed bit `start + i`),
    /// scaled by `2^(F+T)`. `seed` must have exactly the bits before
    /// `start` fixed, and every query of `table` must hit its target on
    /// every fully fixed row.
    fn score_candidates(&mut self, seed: &Seed, start: usize, end: usize, table: &[Query]) {
        let cols = seed.cols;
        let width = end - start;
        let (first_row, last_row) = (start / cols, (end - 1) / cols);
        // Columns `0..hi` of the batch's last row, where `hi` is the end
        // of the batch in that row: a query with a bit outside them keeps
        // the row free.
        let through = low_mask((end - 1) % cols + 1);
        self.segments.clear();
        for row in first_row..=last_row {
            let lo = if row == first_row { start % cols } else { 0 };
            let hi = if row == last_row {
                (end - 1) % cols + 1
            } else {
                cols
            };
            self.segments.push(Segment {
                row,
                lo,
                columns: low_mask(hi - lo),
                offset: row * cols + lo - start,
            });
        }
        let touched = self.segments.len();
        let key_bits = width + touched + 1;
        assert!(key_bits <= 64, "a {width}-bit seed batch is too wide");
        let free_bit = 1u64 << (width + touched);

        // The counting pass: one key per live edge.
        let segments = &self.segments;
        let prefix_value = seed.value[first_row];
        let key_of = |&Query { d, target }: &Query| -> u64 {
            debug_assert_ne!(d, 0, "queries are never zero");
            let mut key = 0u64;
            for (i, segment) in segments.iter().enumerate() {
                key |= (d >> segment.lo & segment.columns) << segment.offset;
                let mut residual = (target >> segment.row) & 1 == 1;
                if i == 0 {
                    residual ^= parity(d & prefix_value);
                }
                key |= u64::from(residual) << (width + i);
            }
            if d & !through != 0 {
                key |= free_bit;
            }
            key
        };
        self.keys.clear();
        self.buckets.clear();
        if key_bits <= DENSE_KEY_BITS {
            if self.counts.len() < 1 << key_bits {
                self.counts.resize(1 << key_bits, 0);
            }
            for query in table {
                let key = key_of(query);
                if self.counts[key as usize] == 0 {
                    self.keys.push(key);
                }
                self.counts[key as usize] += 1;
            }
            for &key in &self.keys {
                let count = std::mem::take(&mut self.counts[key as usize]);
                self.buckets.push((key, u64::from(count)));
            }
        } else {
            self.keys.extend(table.iter().map(key_of));
            self.keys.sort_unstable();
            for run in self.keys.chunk_by(|a, b| a == b) {
                self.buckets.push((run[0], run.len() as u64));
            }
        }

        // Each candidate's value: per bucket, the product over the touched
        // rows of 1 (free last row), 2 (hit) or 0 (miss).
        let last = touched - 1;
        self.scores.clear();
        for assignment in 0..1u64 << width {
            let mut score = 0u64;
            'buckets: for &(key, count) in &self.buckets {
                let picked = key & assignment;
                let free_last = key & free_bit != 0;
                let mut shift = 0u32;
                for (i, segment) in self.segments.iter().enumerate() {
                    if free_last && i == last {
                        continue;
                    }
                    if parity(picked & segment.mask()) != ((key >> (width + i)) & 1 == 1) {
                        continue 'buckets;
                    }
                    shift += 1;
                }
                score += count << shift;
            }
            self.scores.push(score);
        }
    }

    /// The candidate minimizing the conditional expectation, the first one
    /// on ties (see [`BatchSearch::score_candidates`]).
    fn best_assignment(&mut self, seed: &Seed, start: usize, end: usize, table: &[Query]) -> usize {
        self.score_candidates(seed, start, end, table);
        // `min_by_key` keeps the first of equal minima.
        self.scores
            .iter()
            .enumerate()
            .min_by_key(|&(_, &score)| score)
            .map_or(0, |(assignment, _)| assignment)
    }
}

/// Drops, in place and in order, the queries whose parity on the fully
/// fixed `row` missed the row's target bit: their collision probability
/// is 0 for the rest of the phase.
fn drop_missed_edges(seed: &Seed, row: usize, table: &mut Vec<Query>) {
    let value = seed.value[row];
    table.retain(|&Query { d, target }| parity(d & value) == ((target >> row) & 1 == 1));
}

/// Runs the deterministic `2x∆`-coloring of Theorem 1.5.
///
/// The returned palette is `2x∆` rounded up to the next power of two (and at
/// least 2); the number of phases is `O(log_x n)`.
///
/// # Panics
///
/// Panics if `params.x < 2` was constructed manually (use
/// [`DerandParams::with_x`], which clamps).
///
/// # Examples
///
/// ```
/// use arbo_coloring::{derandomized_coloring, DerandParams};
/// use sparse_graph::generators;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
/// let graph = generators::gnm(120, 300, &mut rng);
/// let result = derandomized_coloring(&graph, &DerandParams::with_x(2));
/// assert!(result.coloring.is_proper(&graph));
/// assert!(result.palette <= 4 * graph.max_degree().next_power_of_two().max(2));
/// ```
pub fn derandomized_coloring(graph: &CsrGraph, params: &DerandParams) -> DerandColoringResult {
    derandomized_coloring_with_runtime(graph, params, &RoundPrimitives::sequential())
}

/// [`derandomized_coloring`] with the per-node sweeps running on the
/// supplied [`RoundPrimitives`] context — bit-identical results for any
/// thread count.
///
/// The seed search scores every candidate of a batch from one counting
/// pass over the live edges (see the module docs): its conditional
/// expectations are exact integers, so the fixed seeds depend on neither
/// the thread count nor the edge order. The tentative-color and conflict
/// sweeps that apply a fixed seed are pure per-node functions and fan out
/// as parallel maps merged in index order.
pub fn derandomized_coloring_with_runtime(
    graph: &CsrGraph,
    params: &DerandParams,
    primitives: &RoundPrimitives,
) -> DerandColoringResult {
    assert!(params.x >= 2, "x must be at least 2");
    let n = graph.num_nodes();
    let max_degree = graph.max_degree();

    // Palette 2x∆ rounded up to a power of two (at least 2 colors so the
    // seed has at least one row).
    let palette = (2 * params.x * max_degree.max(1))
        .next_power_of_two()
        .max(2);
    let color_bits = palette.trailing_zeros() as usize;
    let cols = column_count(n);

    let mpc = MpcConfig::new(n + graph.num_edges(), params.delta);
    let mut tracker = MpcCostTracker::new();

    let mut partial = PartialColoring::uncolored(n);
    let mut uncolored: Vec<NodeId> = graph.nodes().collect();
    let mut uncolored_history = Vec::new();
    let mut phases = 0usize;

    // Per-phase buffers, allocated once per run and recycled across
    // phases: U-membership, the relevant-edge query table, the seed
    // search's buckets, tentative colors and conflict flags.
    let mut in_u: Vec<bool> = Vec::new();
    let mut table: Vec<Query> = Vec::new();
    let mut search = BatchSearch::default();
    let mut tentative: Vec<(NodeId, usize)> = Vec::new();
    let mut tentative_colors: Vec<Option<usize>> = Vec::new();
    let mut conflicts: Vec<bool> = Vec::new();
    let mut still_uncolored: Vec<NodeId> = Vec::new();

    while !uncolored.is_empty() && phases < params.max_phases {
        phases += 1;
        let _phase_span = primitives
            .span("derand.phase", "simulator")
            .with_arg("phase", phases as u64)
            .with_arg("uncolored", uncolored.len() as u64);
        in_u.clear();
        in_u.resize(n, false);
        for &v in &uncolored {
            in_u[v] = true;
        }

        let mut seed = Seed::new(color_bits, cols);

        // Edges whose monochromatic status depends on the seed: both
        // endpoints in U (difference vector against target 0, taken once,
        // from the smaller endpoint), or one endpoint in U against the
        // neighbor's fixed color. The queries are seed-independent, so
        // they are built once per phase from U's adjacency into a table
        // that the seed search then only reads and shrinks.
        table.clear();
        for &u in &uncolored {
            let d = encode(u, cols);
            for &w in graph.neighbors(u) {
                if !in_u[w] {
                    let target = partial.color(w).expect("colored node has a color");
                    table.push(Query { d, target });
                } else if u < w {
                    let d = d ^ encode(w, cols);
                    table.push(Query { d, target: 0 });
                }
            }
        }
        let num_edges = table.len();

        // Method of conditional expectations, one batch of seed bits at a
        // time, each candidate scored by the counting pass of the module
        // docs. Every batch costs one broadcast-tree aggregation per
        // candidate assignment; candidates are evaluated "in parallel" in
        // the model, so we charge a single aggregation per batch, over all
        // relevant edges.
        let total_bits = color_bits * cols;
        let batch = params.batch_bits.max(1);
        let mut next_bit = 0usize;
        while next_bit < total_bits {
            let upper = (next_bit + batch).min(total_bits);
            let best_assignment = search.best_assignment(&seed, next_bit, upper, &table);
            for (offset, bit_index) in (next_bit..upper).enumerate() {
                seed.set_bit(bit_index, (best_assignment >> offset) & 1 == 1);
            }
            // The rows this batch finished.
            for row in next_bit / cols..upper / cols {
                drop_missed_edges(&seed, row, &mut table);
            }
            tracker.charge_aggregation(&mpc, num_edges.max(1));
            next_bit = upper;
        }

        // Apply the fully fixed seed to U and freeze conflict-free nodes.
        // Both sweeps are pure per-node functions of the fixed seed (and
        // the previous phases' colors), so they fan out over the pool.
        primitives.par_node_map_weighted_into(
            uncolored.len(),
            |_| 0,
            || {
                |i| {
                    let v = uncolored[i];
                    (v, seed.color_of(v))
                }
            },
            &mut tentative,
        );
        tentative_colors.clear();
        tentative_colors.resize(n, None);
        for &(v, c) in &tentative {
            tentative_colors[v] = Some(c);
        }
        // Weighted by degree: the conflict check scans each tentative
        // node's adjacency list, the edge-dominated loop of this sweep.
        {
            let tentative_colors = &tentative_colors;
            let partial = &partial;
            let in_u = &in_u;
            let tentative = &tentative;
            primitives.par_node_map_weighted_into(
                tentative.len(),
                |i| graph.degree(tentative[i].0),
                || {
                    |i| {
                        let (v, color) = tentative[i];
                        let neighbors = graph.neighbors(v);
                        neighbors.iter().enumerate().any(|(at, &w)| {
                            // The scan is a gather over node-indexed
                            // state; hint the line a few neighbors ahead
                            // while the current one resolves.
                            if let Some(&ahead) = neighbors.get(at + simd::PREFETCH_LOOKAHEAD) {
                                simd::prefetch_read(tentative_colors, ahead);
                            }
                            let other = if in_u[w] {
                                tentative_colors[w]
                            } else {
                                partial.color(w)
                            };
                            other == Some(color)
                        })
                    }
                },
                &mut conflicts,
            );
        }
        still_uncolored.clear();
        for (&(v, color), &conflicted) in tentative.iter().zip(&conflicts) {
            if conflicted {
                still_uncolored.push(v);
            } else {
                partial.set_color(v, color);
            }
        }
        tracker.charge_rounds(1); // broadcasting the fixed seed / colors
        uncolored_history.push(still_uncolored.len());
        std::mem::swap(&mut uncolored, &mut still_uncolored);
    }

    // Safety fallback: if the phase cap was hit (it should not be for sane
    // parameters), finish greedily — the palette of size 2x∆ ≥ ∆ + 1 always
    // has a free color.
    if !uncolored.is_empty() {
        for &v in &uncolored {
            let used: Vec<usize> = graph
                .neighbors(v)
                .iter()
                .filter_map(|&w| partial.color(w))
                .collect();
            let free = (0..palette)
                .find(|c| !used.contains(c))
                .expect("palette exceeds the maximum degree");
            partial.set_color(v, free);
        }
    }

    let coloring = partial.into_coloring();
    debug_assert!(coloring.is_proper(graph));
    DerandColoringResult {
        coloring,
        palette,
        phases,
        uncolored_history,
        mpc_rounds: tracker.rounds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    #[test]
    fn produces_a_proper_coloring_within_the_palette() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let graph = generators::gnm(150, 350, &mut rng);
        let result = derandomized_coloring(&graph, &DerandParams::with_x(2));
        assert!(result.coloring.is_proper(&graph));
        assert!(result.coloring.palette_size() <= result.palette);
        assert_eq!(result.palette, (4 * graph.max_degree()).next_power_of_two());
    }

    #[test]
    fn uncolored_set_decays_geometrically() {
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        let graph = generators::gnm(256, 640, &mut rng);
        let x = 4;
        let result = derandomized_coloring(&graph, &DerandParams::with_x(x));
        // Theorem 1.5: after phase i at most n / x^i nodes stay uncolored.
        let mut bound = graph.num_nodes() as f64;
        for &remaining in &result.uncolored_history {
            bound /= x as f64;
            assert!(
                remaining as f64 <= bound.max(1.0) + 1e-9,
                "remaining {remaining} exceeds bound {bound}"
            );
        }
        assert!(result.phases <= 10);
    }

    #[test]
    fn larger_x_means_fewer_phases_but_more_colors() {
        let mut rng = ChaCha8Rng::seed_from_u64(107);
        let graph = generators::gnm(180, 450, &mut rng);
        let small_x = derandomized_coloring(&graph, &DerandParams::with_x(2));
        let large_x = derandomized_coloring(&graph, &DerandParams::with_x(8));
        assert!(large_x.phases <= small_x.phases);
        assert!(large_x.palette >= small_x.palette);
        assert!(small_x.coloring.is_proper(&graph));
        assert!(large_x.coloring.is_proper(&graph));
    }

    #[test]
    fn parallel_sweeps_are_bit_identical_to_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(111);
        let graph = generators::gnm(1_200, 3_000, &mut rng);
        let params = DerandParams::with_x(4);
        let reference = derandomized_coloring(&graph, &params);
        for threads in [2usize, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let parallel = derandomized_coloring_with_runtime(&graph, &params, &primitives);
            assert_eq!(reference.coloring, parallel.coloring, "threads {threads}");
            assert_eq!(reference.palette, parallel.palette);
            assert_eq!(reference.phases, parallel.phases);
            assert_eq!(reference.uncolored_history, parallel.uncolored_history);
            assert_eq!(reference.mpc_rounds, parallel.mpc_rounds);
        }
    }

    #[test]
    fn works_on_high_degree_stars_and_cliques() {
        let star = generators::star(150);
        let result = derandomized_coloring(&star, &DerandParams::with_x(2));
        assert!(result.coloring.is_proper(&star));

        let clique = generators::complete(12);
        let result = derandomized_coloring(&clique, &DerandParams::with_x(2));
        assert!(result.coloring.is_proper(&clique));
        assert!(result.coloring.num_colors() >= 12);
    }

    #[test]
    fn mpc_round_accounting_scales_with_phases() {
        let mut rng = ChaCha8Rng::seed_from_u64(109);
        let graph = generators::gnm(150, 300, &mut rng);
        let result = derandomized_coloring(&graph, &DerandParams::with_x(2));
        assert!(result.mpc_rounds > 0);
        assert!(result.phases >= 1);
        // At least one aggregation per batch per phase.
        assert!(result.mpc_rounds >= result.phases);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = sparse_graph::CsrGraph::empty(0);
        let result = derandomized_coloring(&empty, &DerandParams::default());
        assert_eq!(result.coloring.num_nodes(), 0);

        let isolated = sparse_graph::CsrGraph::empty(5);
        let result = derandomized_coloring(&isolated, &DerandParams::default());
        assert!(result.coloring.is_proper(&isolated));
        assert_eq!(result.phases, 1);
    }

    #[test]
    fn one_word_encode_and_xor_match_the_bool_reference() {
        // The pre-bitset reference implementations: one `bool` per
        // coordinate, the id's bits clipped to the `cols - 1` id
        // coordinates and the constant 1 last.
        let encode_reference = |v: NodeId, cols: usize| -> Vec<bool> {
            let mut bits = Vec::with_capacity(cols);
            for i in 0..cols - 1 {
                bits.push(i < usize::BITS as usize && (v >> i) & 1 == 1);
            }
            bits.push(true);
            bits
        };
        for cols in [2usize, 5, 11, 40, 64] {
            for (u, v) in [(0usize, 1usize), (3, 3), (12_345, 678), (65_535, 2)] {
                let (encoded_u, encoded_v) = (encode(u, cols), encode(v, cols));
                let reference_u = encode_reference(u, cols);
                let reference_v = encode_reference(v, cols);
                for i in 0..64 {
                    let bit = |word: u64| word >> i & 1 == 1;
                    let (expected_u, expected_v) = if i < cols {
                        (reference_u[i], reference_v[i])
                    } else {
                        (false, false)
                    };
                    assert_eq!(bit(encoded_u), expected_u, "encode({u}, {cols}) bit {i}");
                    assert_eq!(bit(encoded_v), expected_v, "encode({v}, {cols}) bit {i}");
                    assert_eq!(
                        bit(encoded_u ^ encoded_v),
                        expected_u ^ expected_v,
                        "xor of {u} and {v} at {cols} cols, bit {i}"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")] // the n = 2^32 and 2^63 − 1 cases
    fn column_count_fits_one_word_for_every_indexable_graph() {
        for (n, cols) in [
            (0usize, 3usize),
            (1, 3),
            (2, 3),
            (25_000, 16),
            (1 << 32, 34),
            ((1 << 63) - 1, 64),
        ] {
            assert_eq!(column_count(n), cols, "n = {n}");
            assert!(column_count(n) <= 64);
        }
    }

    #[test]
    fn seed_collision_probabilities_are_consistent() {
        let mut seed = Seed::new(3, 5);
        // Query over coordinates 0, 2, 4; fully random seed gives
        // probability 1/8 for any target.
        let d = 0b10101u64;
        assert!((seed.collision_probability(d, 0) - 0.125).abs() < 1e-12);
        assert!((seed.collision_probability(d, 5) - 0.125).abs() < 1e-12);
        // Fix row 0 so that its parity over d is 1: targets with bit0 = 0
        // become impossible at row 0.
        seed.set_bit(0, true); // (row 0, col 0)
        seed.set_bit(2, false); // (row 0, col 2)
        seed.set_bit(4, false); // (row 0, col 4)
        assert_eq!(seed.collision_probability(d, 0), 0.0);
        assert!((seed.collision_probability(d, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn seed_probabilities_match_the_option_bool_reference_bit_for_bit() {
        // The pre-bitset seed: one Option<bool> per entry, row-by-row
        // probability product with an early break at zero. The packed seed
        // must reproduce its f64s exactly (they are all dyadic), for every
        // mix of free/fixed bits — including 64-column seeds, whose
        // constant coordinate is bit 63.
        struct Reference {
            rows: usize,
            cols: usize,
            bits: Vec<Option<bool>>,
        }
        impl Reference {
            fn collision_probability(&self, d: &[bool], target: usize) -> f64 {
                let mut probability = 1.0;
                for row in 0..self.rows {
                    let target_bit = (target >> row) & 1 == 1;
                    let mut fixed_parity = false;
                    let mut has_free_bit = false;
                    for (col, &d_set) in d.iter().enumerate() {
                        if !d_set {
                            continue;
                        }
                        match self.bits[row * self.cols + col] {
                            Some(true) => fixed_parity ^= true,
                            Some(false) => {}
                            None => has_free_bit = true,
                        }
                    }
                    probability *= if has_free_bit {
                        0.5
                    } else if fixed_parity == target_bit {
                        1.0
                    } else {
                        0.0
                    };
                    if probability == 0.0 {
                        break;
                    }
                }
                probability
            }
        }

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (rows, cols) in [(1usize, 2usize), (3, 5), (6, 19), (4, 64), (2, 64)] {
            let mut seed = Seed::new(rows, cols);
            let mut reference = Reference {
                rows,
                cols,
                bits: vec![None; rows * cols],
            };
            // Progressively fix a pseudo-random third of the bits, checking
            // probabilities for several queries at each step.
            for step in 0..4 {
                for bit_index in 0..rows * cols {
                    if next() % 3 == 0 {
                        let bit = next() & 1 == 1;
                        seed.set_bit(bit_index, bit);
                        reference.bits[bit_index] = Some(bit);
                    }
                }
                for query in 0..8 {
                    let d_bool: Vec<bool> = (0..cols).map(|_| next() % 4 != 0).collect();
                    let mut d_packed = 0u64;
                    for (i, &set) in d_bool.iter().enumerate() {
                        if set {
                            d_packed |= 1 << i;
                        }
                    }
                    for target in [0usize, 1, 5, (1 << rows) - 1] {
                        let expected = reference.collision_probability(&d_bool, target);
                        let actual = seed.collision_probability(d_packed, target);
                        assert_eq!(
                            expected.to_bits(),
                            actual.to_bits(),
                            "({rows}x{cols}) step {step} query {query} target {target}: \
                             {expected} vs {actual}"
                        );
                    }
                }
            }
            // Fully fix the seed and check color_of against the reference
            // parity computed from bool encodings.
            for bit_index in 0..rows * cols {
                if reference.bits[bit_index].is_none() {
                    let bit = next() & 1 == 1;
                    seed.set_bit(bit_index, bit);
                    reference.bits[bit_index] = Some(bit);
                }
            }
            for v in [0usize, 1, 2, 7, 100, 54_321] {
                let mut expected = 0usize;
                for row in 0..rows {
                    let mut parity = false;
                    for col in 0..cols - 1 {
                        if col < usize::BITS as usize
                            && (v >> col) & 1 == 1
                            && reference.bits[row * cols + col].unwrap()
                        {
                            parity ^= true;
                        }
                    }
                    if reference.bits[row * cols + (cols - 1)].unwrap() {
                        parity ^= true;
                    }
                    if parity {
                        expected |= 1 << row;
                    }
                }
                assert_eq!(seed.color_of(v), expected, "({rows}x{cols}) color_of({v})");
            }
        }
    }

    #[test]
    fn bucketed_scores_match_the_collision_probability_oracle() {
        // For every batch of every seed shape, each candidate's counted
        // score must equal Σ collision_probability · 2^(F+T) over *all*
        // edges of the table (the search sees only the live ones; a dead
        // edge's probability is 0), with a random candidate committed
        // after each batch so later batches meet varied fixed prefixes.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for rows in 1..=8 {
            for cols in 3..=17 {
                for batch_bits in 1..=7 {
                    shapes.push((rows, cols, batch_bits));
                }
            }
        }
        // Queries with a bit on coordinate 63 (64 columns: the constant
        // coordinate), and keys too wide for the dense table (a 12-bit
        // batch touching five 3-column rows).
        shapes.extend([(2, 64, 7), (3, 64, 5), (6, 3, 12)]);
        let mut search = BatchSearch::default();
        for (rows, cols, batch_bits) in shapes {
            let mut all_queries = Vec::new();
            for _ in 0..16 {
                let mut d = 0;
                while d == 0 {
                    d = next() & low_mask(cols);
                }
                let target = next() as usize & ((1 << rows) - 1);
                all_queries.push(Query { d, target });
            }
            let mut seed = Seed::new(rows, cols);
            let total_bits = rows * cols;
            let mut start = 0;
            while start < total_bits {
                let end = (start + batch_bits).min(total_bits);
                let mut table = all_queries.clone();
                for row in 0..start / cols {
                    drop_missed_edges(&seed, row, &mut table);
                }
                search.score_candidates(&seed, start, end, &table);
                let width = end - start;
                assert_eq!(search.scores.len(), 1 << width);
                // F + T = every row from the batch's first one on.
                let scale = f64::from(1u32 << (rows - start / cols));
                for (assignment, &score) in search.scores.iter().enumerate() {
                    let mut candidate = seed.clone();
                    for (offset, bit_index) in (start..end).enumerate() {
                        candidate.set_bit(bit_index, (assignment >> offset) & 1 == 1);
                    }
                    let expected: f64 = all_queries
                        .iter()
                        .map(|query| candidate.collision_probability(query.d, query.target))
                        .sum();
                    assert_eq!(
                        score as f64,
                        expected * scale,
                        "{rows}x{cols}, batch {batch_bits} at bit {start}, candidate {assignment}"
                    );
                }
                let pick = next() as usize & ((1 << width) - 1);
                for (offset, bit_index) in (start..end).enumerate() {
                    seed.set_bit(bit_index, (pick >> offset) & 1 == 1);
                }
                start = end;
            }
        }
    }

    #[test]
    fn half_pow_is_exact() {
        let mut product = 1.0f64;
        for k in 0..64u32 {
            assert_eq!(half_pow(k).to_bits(), product.to_bits(), "2^-{k}");
            product *= 0.5;
        }
    }
}

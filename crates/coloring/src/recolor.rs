//! Layered greedy recoloring: merging independent per-layer colorings into a
//! single `(β + 1)`-coloring (Section 6.3 / 6.4 of the paper).
//!
//! The input is a β-partition together with an *initial* coloring that is
//! proper **within** every layer but may conflict across layers (because
//! every layer was colored independently with its own copy of the palette).
//! The recoloring pass processes layers from the topmost down; inside a
//! layer, nodes are processed in decreasing initial color. When a node is
//! processed, only nodes in the same layer with a higher initial color and
//! nodes in higher layers have final colors — at most `β` of them — so a
//! free color in a palette of size `β + 1` always exists.

use std::fmt;

use ampc_runtime::{simd, BitSet, RoundPrimitives};
use beta_partition::{BetaPartition, Layer};
use sparse_graph::{Coloring, CsrGraph, NodeId};

use crate::color_word::ColorWord;

/// Structured failures of the layered recoloring pass (analogous to
/// [`crate::ArbLinialError`]): every precondition violation and internal
/// inconsistency has its own variant instead of a formatted `String`, and
/// the "node left uncolored" case is a returned error rather than a
/// release-mode panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecolorError {
    /// Graph, partition and coloring disagree on the node count.
    SizeMismatch,
    /// The partition is partial (some node on the infinity layer); the
    /// recoloring argument needs every node on a finite layer.
    PartialPartition,
    /// The initial coloring has a monochromatic edge *within* one layer,
    /// violating the per-layer properness precondition.
    WithinLayerConflict {
        /// The layer both endpoints live on.
        layer: Layer,
        /// The offending edge, `(u, v)` with `u < v`.
        edge: (NodeId, NodeId),
    },
    /// A node saw all `palette` colors on processed neighbors — the
    /// partition violates its β bound.
    NoFreeColor {
        /// The node that found no free color.
        node: NodeId,
        /// The palette size (`β + 1`).
        palette: usize,
    },
    /// A node was never assigned a final color (an internal scheduling
    /// inconsistency: the wave schedule must cover every node exactly
    /// once).
    Uncolored {
        /// The node missing from the schedule.
        node: NodeId,
    },
}

impl fmt::Display for RecolorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecolorError::SizeMismatch => {
                write!(f, "partition / coloring / graph sizes do not match")
            }
            RecolorError::PartialPartition => {
                write!(f, "recoloring requires a complete beta-partition")
            }
            RecolorError::WithinLayerConflict {
                layer,
                edge: (u, v),
            } => write!(
                f,
                "initial coloring conflicts within layer {layer:?} on edge ({u}, {v})"
            ),
            RecolorError::NoFreeColor { node, palette } => write!(
                f,
                "node {node} has no free color in a palette of size {palette}: the partition \
                 violates its beta bound"
            ),
            RecolorError::Uncolored { node } => write!(
                f,
                "node {node} was never scheduled into a recoloring wave and is left uncolored"
            ),
        }
    }
}

impl std::error::Error for RecolorError {}

impl From<RecolorError> for String {
    fn from(error: RecolorError) -> Self {
        error.to_string()
    }
}

/// Which color a node picks among the free ones.
///
/// Section 6.3 lets nodes pick the *highest* available color; the variant in
/// Section 6.4 (driven by the sorted-orientation machinery) picks the
/// *smallest*. Both yield a proper `(β + 1)`-coloring; exposing the choice
/// lets the benchmarks compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecolorOrder {
    /// Pick the largest free color (Section 6.3).
    #[default]
    HighestAvailable,
    /// Pick the smallest free color (Section 6.4).
    SmallestAvailable,
}

/// Result of the recoloring pass.
#[derive(Debug, Clone)]
pub struct RecolorResult {
    /// The final proper coloring with palette `{0, …, β}`.
    pub coloring: Coloring,
    /// Number of conflicts (monochromatic edges across layers) the pass had
    /// to repair.
    pub repaired_conflicts: usize,
    /// The number of sequential waves the centralized process used
    /// (`layers × palette`), which the AMPC simulation argument of
    /// Section 6.3 turns into `O((β/εδ) log β)` rounds by batching layers.
    pub sequential_waves: usize,
}

/// Runs the layered greedy recoloring.
///
/// * `partition` must be a complete β-partition of `graph`.
/// * `initial` must be proper on the subgraph induced by every single layer
///   (conflicts across layers are allowed — they are what the pass repairs).
///
/// # Errors
///
/// Returns an error if the partition is partial, sizes mismatch, the initial
/// coloring conflicts within a layer, or some node ends up with no free
/// color (which would indicate the partition violates its β bound).
///
/// # Examples
///
/// ```
/// use arbo_coloring::{recolor_layers, RecolorOrder};
/// use beta_partition::{natural_partition};
/// use sparse_graph::{generators, Coloring};
///
/// let graph = generators::grid(12, 12); // arboricity <= 2
/// let beta = 5;
/// let partition = natural_partition(&graph, beta);
/// // Give every node an initial color that is proper within its layer
/// // (here: a greedy coloring restricted per layer would do; the trivial
/// // id-coloring is proper everywhere, so it certainly is within layers).
/// let initial = Coloring::new((0..graph.num_nodes()).collect());
/// let result = recolor_layers(&graph, &partition, &initial, RecolorOrder::HighestAvailable)?;
/// assert!(result.coloring.is_proper(&graph));
/// assert!(result.coloring.palette_size() <= beta + 1);
/// # Ok::<(), String>(())
/// ```
pub fn recolor_layers(
    graph: &CsrGraph,
    partition: &BetaPartition,
    initial: &Coloring,
    order: RecolorOrder,
) -> Result<RecolorResult, RecolorError> {
    recolor_layers_with_runtime(
        graph,
        partition,
        initial,
        order,
        &RoundPrimitives::sequential(),
    )
}

/// [`recolor_layers`] with the hot sweeps running on the supplied
/// [`RoundPrimitives`] context — bit-identical results for any thread
/// count.
///
/// The centralized schedule of Section 6.3 processes nodes by
/// `(layer desc, initial color desc, id)`. All nodes sharing a
/// `(layer, initial color)` pair form an independent set (the initial
/// coloring is proper within each layer), so each such *wave* is one
/// parallel sweep: every member picks its color from the snapshot the
/// previous waves left behind, exactly as the sequential loop would.
///
/// # Errors
///
/// See [`recolor_layers`].
pub fn recolor_layers_with_runtime(
    graph: &CsrGraph,
    partition: &BetaPartition,
    initial: &Coloring,
    order: RecolorOrder,
    primitives: &RoundPrimitives,
) -> Result<RecolorResult, RecolorError> {
    let n = graph.num_nodes();
    if partition.num_nodes() != n || initial.num_nodes() != n {
        return Err(RecolorError::SizeMismatch);
    }
    if partition.is_partial() {
        return Err(RecolorError::PartialPartition);
    }
    let beta = partition.beta();
    let palette = beta + 1;

    // Check the within-layer properness precondition and count cross-layer
    // conflicts for reporting. One parallel reduce over the per-node edge
    // lists, scanned in the same (u, v)-ascending order as `graph.edges()`:
    // the conflict count is an integer sum and the reported violation is
    // the first in canonical edge order, so the outcome is identical for
    // any thread count.
    #[derive(Clone, Default)]
    struct EdgeCheck {
        conflicts: usize,
        violation: Option<(NodeId, NodeId)>,
    }
    // Weighted by degree: the fold scans each node's adjacency list, so
    // the cost-weighted grid splits hub-heavy index ranges into small,
    // stealable chunks. Both accumulator components are insensitive to the
    // grid — the conflict count is an integer sum, and `Option::or` over
    // ascending chunks always yields the first violation in edge order —
    // so the outcome is identical for any thread count and grid.
    let check = primitives.par_reduce_range_weighted(
        n,
        |u| graph.degree(u),
        EdgeCheck::default(),
        |mut acc: EdgeCheck, u| {
            for &v in graph.neighbors(u) {
                if u < v && initial.color(u) == initial.color(v) {
                    if partition.layer(u) == partition.layer(v) {
                        if acc.violation.is_none() {
                            acc.violation = Some((u, v));
                        }
                    } else {
                        acc.conflicts += 1;
                    }
                }
            }
            acc
        },
        |left, right| EdgeCheck {
            conflicts: left.conflicts + right.conflicts,
            violation: left.violation.or(right.violation),
        },
    );
    if let Some((u, v)) = check.violation {
        return Err(RecolorError::WithinLayerConflict {
            layer: partition.layer(u),
            edge: (u, v),
        });
    }
    let repaired_conflicts = check.conflicts;

    // The palette is β + 1, which always fits the u32 fast path in
    // practice; the usize instantiation is the lossless fallback. Both run
    // the same wave code on the same usize arithmetic.
    let colors = if <u32 as ColorWord>::fits_palette(palette) {
        recolor_waves::<u32>(graph, partition, initial, order, palette, primitives)?
    } else {
        recolor_waves::<usize>(graph, partition, initial, order, palette, primitives)?
    };
    let coloring = Coloring::new(colors);
    debug_assert!(coloring.is_proper(graph));

    let sequential_waves = partition.size() * palette;
    Ok(RecolorResult {
        coloring,
        repaired_conflicts,
        sequential_waves,
    })
}

/// Nodes `0..n` ordered by `(layer desc, color desc, id)`: two stable
/// counting-sort passes, the minor key first, so ties keep the ascending
/// id order they start in.
fn wave_schedule(
    n: usize,
    layer: impl Fn(NodeId) -> usize,
    color: impl Fn(NodeId) -> usize,
) -> Vec<NodeId> {
    let mut schedule: Vec<NodeId> = (0..n).collect();
    let mut spare = Vec::with_capacity(n);
    sort_desc_by_key(&mut schedule, &mut spare, color);
    sort_desc_by_key(&mut schedule, &mut spare, layer);
    schedule
}

/// Bits per counting pass of [`sort_desc_by_key`].
const DIGIT_BITS: u32 = 16;

/// Stably reorders `items` by `key` descending: a least-significant-digit
/// radix sort of `max - key`, one counting pass per 16 bits of the largest
/// key. A key below 65,536 (every palette and layer count in practice)
/// takes one pass with at most `max + 1` buckets.
fn sort_desc_by_key(
    items: &mut Vec<NodeId>,
    spare: &mut Vec<NodeId>,
    key: impl Fn(NodeId) -> usize,
) {
    let max = items.iter().map(|&v| key(v)).max().unwrap_or(0);
    let mask = (1usize << DIGIT_BITS) - 1;
    let mut counts: Vec<usize> = Vec::new();
    let mut shift = 0;
    loop {
        let digit = |v: NodeId| ((max - key(v)) >> shift) & mask;
        counts.clear();
        counts.resize((max >> shift).min(mask) + 1, 0);
        for &v in items.iter() {
            counts[digit(v)] += 1;
        }
        let mut start = 0;
        for count in &mut counts {
            let bucket = *count;
            *count = start;
            start += bucket;
        }
        spare.clear();
        spare.resize(items.len(), 0);
        for &v in items.iter() {
            let slot = &mut counts[digit(v)];
            spare[*slot] = v;
            *slot += 1;
        }
        std::mem::swap(items, spare);
        shift += DIGIT_BITS;
        if shift >= usize::BITS || max >> shift == 0 {
            break;
        }
    }
}

/// The recoloring waves, generic over the color storage width.
///
/// Final colors live in a flat `Vec<C>` with [`ColorWord::NONE`] standing
/// in for "not yet colored" — half the bytes of `Vec<Option<usize>>` even
/// at `usize` width, a quarter at `u32` — and the per-decision used-color
/// set is a word-packed [`BitSet`] whose `first_absent` / `last_absent`
/// word scans replace the per-color probe loops. All decision arithmetic
/// stays `usize`, so both instantiations compute identical colorings.
fn recolor_waves<C: ColorWord>(
    graph: &CsrGraph,
    partition: &BetaPartition,
    initial: &Coloring,
    order: RecolorOrder,
    palette: usize,
    primitives: &RoundPrimitives,
) -> Result<Vec<usize>, RecolorError> {
    let n = graph.num_nodes();
    let layer_of = |v: NodeId| -> usize {
        match partition.layer(v) {
            Layer::Finite(layer) => layer,
            Layer::Infinite => unreachable!("partition verified to be complete"),
        }
    };

    // Process nodes by (layer descending, initial color descending, id) —
    // the centralized order of Section 6.3.
    let schedule = wave_schedule(n, layer_of, |v| initial.color(v));

    let mut final_colors: Vec<C> = vec![C::NONE; n];
    // Steady-state allocation-free waves: the per-decision "used colors"
    // set is a BitSet leased once per chunk and reset per member (no
    // `vec![false; palette]` per node) and the wave-choice buffer is
    // recycled across waves.
    let used_sets = primitives.scratch_pool::<BitSet>();
    let mut choices: Vec<C> = Vec::new();
    let mut start = 0usize;
    while start < schedule.len() {
        // One wave: the maximal run of schedule entries sharing
        // (layer, initial color) — an independent set, so its members only
        // see colors fixed by previous waves.
        let wave_key = |v: NodeId| (layer_of(v), initial.color(v));
        let key = wave_key(schedule[start]);
        let mut end = start + 1;
        while end < schedule.len() && wave_key(schedule[end]) == key {
            end += 1;
        }
        let wave = &schedule[start..end];
        let _wave_span = primitives
            .span("recolor.wave", "simulator")
            .with_arg("layer", key.0 as u64)
            .with_arg("color", key.1 as u64)
            .with_arg("members", wave.len() as u64);
        {
            let snapshot: &[C] = &final_colors;
            // Weighted by degree: a wave member's decision scans its whole
            // adjacency list, and waves of a skewed layer mix hubs with
            // leaves.
            primitives.par_node_map_weighted_into(
                wave.len(),
                |i| graph.degree(wave[i]),
                || {
                    let mut used = used_sets.lease();
                    move |i| {
                        let v = wave[i];
                        used.reset(palette);
                        let neighbors = graph.neighbors(v);
                        for (at, &w) in neighbors.iter().enumerate() {
                            // The color gather is scattered even though the
                            // neighbor ids stream sequentially; prefetch a
                            // few iterations ahead to hide the latency.
                            if let Some(&ahead) = neighbors.get(at + simd::PREFETCH_LOOKAHEAD) {
                                simd::prefetch_read(snapshot, ahead);
                            }
                            let cw = snapshot[w];
                            if cw != C::NONE {
                                let c = cw.to_usize();
                                if c < palette {
                                    used.insert(c);
                                }
                            }
                        }
                        let choice = match order {
                            RecolorOrder::HighestAvailable => used.last_absent(),
                            RecolorOrder::SmallestAvailable => used.first_absent(),
                        };
                        choice.map_or(C::NONE, C::from_usize)
                    }
                },
                &mut choices,
            );
        }
        for (&v, &choice) in wave.iter().zip(choices.iter()) {
            if choice == C::NONE {
                return Err(RecolorError::NoFreeColor { node: v, palette });
            }
            final_colors[v] = choice;
        }
        start = end;
    }

    let mut colors = Vec::with_capacity(n);
    for (node, &color) in final_colors.iter().enumerate() {
        if color == C::NONE {
            // Unreachable when the schedule covers every node (it is built
            // from `graph.nodes()`), but a structured error beats a
            // release-mode unwrap panic if that invariant ever breaks.
            return Err(RecolorError::Uncolored { node });
        }
        colors.push(color.to_usize());
    }
    Ok(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beta_partition::natural_partition;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    /// Builds an initial coloring that is proper within each layer by
    /// greedily coloring every layer's induced subgraph with its own palette
    /// copy (colors are *not* offset, so cross-layer conflicts arise).
    fn per_layer_coloring(graph: &CsrGraph, partition: &BetaPartition) -> Coloring {
        let n = graph.num_nodes();
        let mut colors = vec![0usize; n];
        let max_layer = partition.max_finite_layer().unwrap_or(0);
        for layer in 0..=max_layer {
            let members: Vec<NodeId> = graph
                .nodes()
                .filter(|&v| partition.layer(v) == Layer::Finite(layer))
                .collect();
            if members.is_empty() {
                continue;
            }
            let sub = sparse_graph::InducedSubgraph::new(graph, &members);
            let local = sparse_graph::greedy_by_degeneracy_order(sub.graph());
            for (local_id, &original) in sub.original_nodes().iter().enumerate() {
                colors[original] = local.color(local_id);
            }
        }
        Coloring::new(colors)
    }

    #[test]
    fn repairs_cross_layer_conflicts_into_beta_plus_one_colors() {
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        for (k, beta) in [(1usize, 3usize), (2, 5), (3, 8)] {
            let graph = generators::forest_union(400, k, &mut rng);
            let partition = natural_partition(&graph, beta);
            assert!(!partition.is_partial());
            let initial = per_layer_coloring(&graph, &partition);
            // The per-layer coloring almost surely has cross-layer conflicts.
            let result =
                recolor_layers(&graph, &partition, &initial, RecolorOrder::HighestAvailable)
                    .unwrap();
            assert!(result.coloring.is_proper(&graph), "k = {k}");
            assert!(
                result.coloring.palette_size() <= beta + 1,
                "k = {k}: palette {}",
                result.coloring.palette_size()
            );
        }
    }

    #[test]
    fn both_orders_produce_proper_colorings() {
        let graph = generators::triangulated_grid(12, 12);
        let beta = 7;
        let partition = natural_partition(&graph, beta);
        let initial = per_layer_coloring(&graph, &partition);
        for order in [
            RecolorOrder::HighestAvailable,
            RecolorOrder::SmallestAvailable,
        ] {
            let result = recolor_layers(&graph, &partition, &initial, order).unwrap();
            assert!(result.coloring.is_proper(&graph));
            assert!(result.coloring.palette_size() <= beta + 1);
        }
    }

    #[test]
    fn parallel_waves_are_bit_identical_to_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(93);
        let graph = generators::forest_union(1_500, 3, &mut rng);
        let partition = natural_partition(&graph, 8);
        let initial = per_layer_coloring(&graph, &partition);
        for order in [
            RecolorOrder::HighestAvailable,
            RecolorOrder::SmallestAvailable,
        ] {
            let reference = recolor_layers(&graph, &partition, &initial, order).unwrap();
            for threads in [2usize, 4, 7] {
                let primitives = RoundPrimitives::new(threads);
                let parallel =
                    recolor_layers_with_runtime(&graph, &partition, &initial, order, &primitives)
                        .unwrap();
                assert_eq!(
                    reference.coloring, parallel.coloring,
                    "{order:?}, threads {threads}"
                );
                assert_eq!(reference.repaired_conflicts, parallel.repaired_conflicts);
                assert_eq!(reference.sequential_waves, parallel.sequential_waves);
            }
        }
    }

    #[test]
    fn u32_and_usize_storage_widths_agree_bit_for_bit() {
        // Real palettes always take the u32 fast path, so exercise the
        // usize fallback directly against it.
        let mut rng = ChaCha8Rng::seed_from_u64(95);
        let graph = generators::forest_union(600, 2, &mut rng);
        let partition = natural_partition(&graph, 6);
        let initial = per_layer_coloring(&graph, &partition);
        let primitives = RoundPrimitives::sequential();
        for order in [
            RecolorOrder::HighestAvailable,
            RecolorOrder::SmallestAvailable,
        ] {
            let narrow =
                recolor_waves::<u32>(&graph, &partition, &initial, order, 7, &primitives).unwrap();
            let wide = recolor_waves::<usize>(&graph, &partition, &initial, order, 7, &primitives)
                .unwrap();
            assert_eq!(narrow, wide, "{order:?}");
        }
    }

    #[test]
    fn counting_sort_schedule_matches_the_comparator_order() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        // Small key ranges take one counting pass; wide ones (up to
        // usize::MAX) take one pass per 16 bits.
        for (n, layers, colors) in [
            (0usize, 1usize, 1usize),
            (1, 1, 1),
            (500, 4, 9),
            (2_000, 70_000, 300),
            (2_000, 3, usize::MAX),
        ] {
            let layer: Vec<usize> = (0..n).map(|_| rng.gen_range(0..layers)).collect();
            let color: Vec<usize> = (0..n).map(|_| rng.gen_range(0..colors)).collect();
            let mut expected: Vec<NodeId> = (0..n).collect();
            expected.sort_by(|&a, &b| {
                layer[b]
                    .cmp(&layer[a])
                    .then(color[b].cmp(&color[a]))
                    .then(a.cmp(&b))
            });
            let schedule = wave_schedule(n, |v| layer[v], |v| color[v]);
            assert_eq!(
                schedule, expected,
                "n {n}, layers {layers}, colors {colors}"
            );
        }
    }

    #[test]
    fn conflict_count_is_reported() {
        let graph = generators::star(10);
        let beta = 2;
        let partition = natural_partition(&graph, beta);
        // All nodes share color 0: proper within layers (leaves form an
        // independent set, the hub is alone on its layer) but every edge
        // conflicts across layers.
        let initial = Coloring::new(vec![0; 10]);
        let result =
            recolor_layers(&graph, &partition, &initial, RecolorOrder::HighestAvailable).unwrap();
        assert_eq!(result.repaired_conflicts, 9);
        assert!(result.coloring.is_proper(&graph));
        assert!(result.sequential_waves >= partition.size());
    }

    #[test]
    fn rejects_within_layer_conflicts_and_partial_partitions() {
        let graph = generators::cycle(6);
        let beta = 2;
        let partition = natural_partition(&graph, beta);
        let conflicting = Coloring::new(vec![0; 6]); // cycle layer contains adjacent equal colors
        assert!(recolor_layers(&graph, &partition, &conflicting, RecolorOrder::default()).is_err());

        let partial = BetaPartition::all_infinite(6, beta);
        let proper = sparse_graph::greedy_by_id_order(&graph);
        assert!(recolor_layers(&graph, &partial, &proper, RecolorOrder::default()).is_err());

        let wrong_size = BetaPartition::all_infinite(4, beta);
        assert!(recolor_layers(&graph, &wrong_size, &proper, RecolorOrder::default()).is_err());
    }
}

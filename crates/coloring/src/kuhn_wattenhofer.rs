//! The Kuhn–Wattenhofer iterative color reduction (Section 6.3).
//!
//! Given a proper `m`-coloring of a graph with maximum degree `∆`, the color
//! space is split into blocks of `2(∆ + 1)` consecutive colors. Within every
//! block (in parallel across blocks), the colors above the block's first
//! `∆ + 1` are eliminated one at a time: each such color class is an
//! independent set, so all its nodes can simultaneously pick a free color
//! among the block's first `∆ + 1` colors. One such sweep halves the number
//! of colors in `∆ + 1` rounds; repeating until only `∆ + 1` colors remain
//! costs `O(∆ log(m / ∆))` rounds — the complexity quoted by the paper.

use ampc_runtime::{simd, BitSet, RoundPrimitives};
use sparse_graph::{Coloring, CsrGraph};

use crate::color_word::ColorWord;

/// Result of the Kuhn–Wattenhofer reduction.
#[derive(Debug, Clone)]
pub struct KwReductionResult {
    /// The final proper coloring with palette `{0, …, degree_bound}`.
    pub coloring: Coloring,
    /// Number of simulated LOCAL rounds (one per eliminated color class per
    /// halving sweep).
    pub rounds: usize,
    /// Palette size after every halving sweep.
    pub palette_trajectory: Vec<usize>,
}

/// Reduces a proper coloring to a `(degree_bound + 1)`-coloring.
///
/// `degree_bound` must be at least the maximum degree of `graph` (the
/// algorithm is typically applied to the subgraph induced by one layer of a
/// β-partition, whose maximum degree is at most `β`).
///
/// # Errors
///
/// Returns an error if `initial` is not proper, does not cover the graph, or
/// if `degree_bound` is below the maximum degree.
///
/// # Examples
///
/// ```
/// use arbo_coloring::kw_color_reduction;
/// use sparse_graph::{generators, greedy_by_id_order, Coloring};
///
/// let graph = generators::cycle(30);
/// // Start from the trivial coloring by node id.
/// let initial = Coloring::new((0..30).collect());
/// let result = kw_color_reduction(&graph, &initial, 2)?;
/// assert!(result.coloring.is_proper(&graph));
/// assert!(result.coloring.palette_size() <= 3);
/// # Ok::<(), String>(())
/// ```
pub fn kw_color_reduction(
    graph: &CsrGraph,
    initial: &Coloring,
    degree_bound: usize,
) -> Result<KwReductionResult, String> {
    kw_color_reduction_with_runtime(graph, initial, degree_bound, &RoundPrimitives::sequential())
}

/// [`kw_color_reduction`] with every intra-round sweep running on the
/// supplied [`RoundPrimitives`] context — bit-identical results for any
/// thread count.
///
/// Each elimination round touches one color class per block (the nodes with
/// `color % block == offset`). Within a block those nodes share a color, so
/// the class is an independent set; across blocks, a member's decision only
/// inspects neighbor colors inside its *own* block window, which no
/// co-member (whose old and new colors live in a different block) can
/// touch. That is exactly the contract of
/// [`RoundPrimitives::par_color_classes_weighted`], so the parallel sweep
/// matches the sequential in-place loop bit for bit.
///
/// # Errors
///
/// See [`kw_color_reduction`].
pub fn kw_color_reduction_with_runtime(
    graph: &CsrGraph,
    initial: &Coloring,
    degree_bound: usize,
    primitives: &RoundPrimitives,
) -> Result<KwReductionResult, String> {
    if initial.num_nodes() != graph.num_nodes() {
        return Err("coloring does not cover the graph".to_string());
    }
    if !initial.is_proper(graph) {
        return Err("initial coloring is not proper".to_string());
    }
    if degree_bound < graph.max_degree() {
        return Err(format!(
            "degree bound {degree_bound} is below the maximum degree {}",
            graph.max_degree()
        ));
    }

    let target = degree_bound + 1;
    let initial_palette = initial.palette_size().max(1);
    // Colors only ever shrink (a member's replacement stays strictly below
    // its old color's block ceiling, compaction renumbers downward), so the
    // initial palette bounds every intermediate color and the storage width
    // can be chosen once up front: `u32` halves the bytes every sweep
    // streams, `usize` is the lossless fallback for absurd palettes.
    let (colors, rounds, trajectory) = if <u32 as ColorWord>::fits_palette(initial_palette) {
        kw_sweeps::<u32>(graph, initial.colors(), initial_palette, target, primitives)
    } else {
        kw_sweeps::<usize>(graph, initial.colors(), initial_palette, target, primitives)
    };

    let coloring = Coloring::new(colors);
    debug_assert!(coloring.is_proper(graph));
    Ok(KwReductionResult {
        coloring,
        rounds,
        palette_trajectory: trajectory,
    })
}

/// The halving sweeps, generic over the color storage width. All decision
/// arithmetic is `usize` — colors are widened on load and narrowed on store
/// — so both instantiations compute bit-identical colorings.
fn kw_sweeps<C: ColorWord>(
    graph: &CsrGraph,
    initial_colors: &[usize],
    initial_palette: usize,
    target: usize,
    primitives: &RoundPrimitives,
) -> (Vec<usize>, usize, Vec<usize>) {
    let mut colors: Vec<C> = initial_colors.iter().map(|&c| C::from_usize(c)).collect();
    let mut palette = initial_palette;
    let mut rounds = 0usize;
    let mut trajectory = vec![palette];

    // Steady-state allocation-free sweeps: the per-decision "used colors"
    // set is a word-packed BitSet leased once per chunk from the context's
    // scratch registry and reset per member (a palette-sized clear is a
    // few cache lines; the free-color probe is a word scan instead of a
    // per-color loop), and the recolor-index / compaction buffers are
    // reused across every elimination round.
    let used_sets = primitives.scratch_pool::<BitSet>();
    let mut recolor: Vec<usize> = Vec::new();
    let mut compacted: Vec<C> = Vec::new();

    while palette > target {
        let _sweep_span = primitives
            .span("kw.sweep", "simulator")
            .with_arg("palette", palette as u64)
            .with_arg("target", target as u64);
        let block = 2 * target;
        // Number of blocks covering the palette {0, ..., palette - 1}.
        let num_blocks = palette.div_ceil(block);
        // Eliminate, in parallel over blocks, the colors block_start + target
        // .. block_start + block - 1, one offset at a time (each offset is
        // one LOCAL round since the affected nodes form an independent set).
        for offset in target..block {
            rounds += 1;
            let mut elimination_span = primitives
                .span("kw.elimination", "simulator")
                .with_arg("round", rounds as u64)
                .with_arg("offset", offset as u64);
            primitives.par_collect_indices_into(
                graph.num_nodes(),
                |v| {
                    let c = colors[v].to_usize();
                    c % block == offset && c < palette
                },
                &mut recolor,
            );
            elimination_span.set_arg("members", recolor.len() as u64);
            // Weighted by degree: a member's decision scans its whole
            // adjacency list, so hub members cost Δ while leaves cost 1 —
            // weighted chunking keeps the sweep balanced on skewed graphs.
            primitives.par_color_classes_weighted(
                &recolor,
                &mut colors,
                |v| graph.degree(v),
                || {
                    let mut used = used_sets.lease();
                    move |v, snapshot| {
                        used.reset(target);
                        let block_start = (snapshot[v].to_usize() / block) * block;
                        let neighbors = graph.neighbors(v);
                        for (at, &w) in neighbors.iter().enumerate() {
                            // The neighbor ids are sequential in CSR but
                            // the color gather is scattered; prefetch a
                            // few iterations ahead to hide the latency.
                            if let Some(&ahead) = neighbors.get(at + simd::PREFETCH_LOOKAHEAD) {
                                simd::prefetch_read(snapshot, ahead);
                            }
                            let cw = snapshot[w].to_usize();
                            if cw >= block_start && cw < block_start + target {
                                used.insert(cw - block_start);
                            }
                        }
                        let free = used.first_absent().expect(
                            "a free color exists because the degree is at most degree_bound",
                        );
                        C::from_usize(block_start + free)
                    }
                },
            );
        }
        // Compact the palette: block b now only uses colors
        // [b * block, b * block + target); renumber to b * target + offset.
        let _compaction_span = primitives
            .span("kw.compaction", "simulator")
            .with_arg("blocks", num_blocks as u64);
        primitives.par_node_map_weighted_into(
            colors.len(),
            |_| 0,
            || {
                |v| {
                    let c = colors[v].to_usize();
                    let b = c / block;
                    let within = c % block;
                    debug_assert!(within < target);
                    C::from_usize(b * target + within)
                }
            },
            &mut compacted,
        );
        std::mem::swap(&mut colors, &mut compacted);
        palette = num_blocks * target;
        trajectory.push(palette);
        if num_blocks == 1 {
            break;
        }
    }

    let colors: Vec<usize> = colors.iter().map(|c| c.to_usize()).collect();
    (colors, rounds, trajectory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    #[test]
    fn reduces_trivial_coloring_to_delta_plus_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let graph = generators::gnm(300, 600, &mut rng);
        let delta = graph.max_degree();
        let initial = Coloring::new((0..300).collect());
        let result = kw_color_reduction(&graph, &initial, delta).unwrap();
        assert!(result.coloring.is_proper(&graph));
        assert!(result.coloring.palette_size() <= delta + 1);
        assert!(result.coloring.num_colors() <= delta + 1);
    }

    #[test]
    fn round_count_matches_the_kw_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        let graph = generators::forest_union(400, 2, &mut rng);
        let delta = graph.max_degree();
        let initial = Coloring::new((0..400).collect());
        let result = kw_color_reduction(&graph, &initial, delta).unwrap();
        // O(delta * log(m / delta)): each halving sweep costs delta + 1
        // rounds and the number of sweeps is log2(m / (delta + 1)) + 1.
        let sweeps = ((400f64 / (delta + 1) as f64).log2().ceil() as usize).max(1) + 1;
        assert!(
            result.rounds <= (delta + 1) * sweeps,
            "{} rounds exceeds bound {}",
            result.rounds,
            (delta + 1) * sweeps
        );
        // The palette halves (up to rounding) every sweep.
        for window in result.palette_trajectory.windows(2) {
            assert!(window[1] <= window[0] / 2 + (delta + 1));
        }
    }

    #[test]
    fn already_small_palettes_are_untouched() {
        let graph = generators::cycle(10);
        let greedy = sparse_graph::greedy_by_id_order(&graph);
        let result = kw_color_reduction(&graph, &greedy, 2).unwrap();
        assert_eq!(result.rounds, 0);
        assert_eq!(result.coloring, greedy);
        assert_eq!(result.palette_trajectory, vec![greedy.palette_size()]);
    }

    #[test]
    fn rejects_bad_inputs() {
        let graph = generators::cycle(6);
        let improper = Coloring::new(vec![0; 6]);
        assert!(kw_color_reduction(&graph, &improper, 2).is_err());

        let wrong_size = Coloring::new(vec![0, 1]);
        assert!(kw_color_reduction(&graph, &wrong_size, 2).is_err());

        let proper = Coloring::new((0..6).collect());
        assert!(kw_color_reduction(&graph, &proper, 1).is_err());
    }

    #[test]
    fn parallel_sweeps_are_bit_identical_to_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(85);
        let graph = generators::gnm(1_500, 3_000, &mut rng);
        let delta = graph.max_degree();
        let initial = Coloring::new((0..1_500).collect());
        let reference = kw_color_reduction(&graph, &initial, delta).unwrap();
        for threads in [2usize, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let parallel =
                kw_color_reduction_with_runtime(&graph, &initial, delta, &primitives).unwrap();
            assert_eq!(reference.coloring, parallel.coloring, "threads {threads}");
            assert_eq!(reference.rounds, parallel.rounds);
            assert_eq!(reference.palette_trajectory, parallel.palette_trajectory);
            assert!(primitives.tasks_executed() > 0);
        }
    }

    #[test]
    fn u32_and_usize_storage_widths_agree_bit_for_bit() {
        // Real palettes always take the u32 fast path, so exercise the
        // usize fallback directly against it: same sweeps, same results.
        let mut rng = ChaCha8Rng::seed_from_u64(87);
        let graph = generators::preferential_attachment(800, 2, &mut rng);
        let initial: Vec<usize> = (0..800).collect();
        let target = graph.max_degree() + 1;
        let primitives = RoundPrimitives::sequential();
        let narrow = kw_sweeps::<u32>(&graph, &initial, 800, target, &primitives);
        let wide = kw_sweeps::<usize>(&graph, &initial, 800, target, &primitives);
        assert_eq!(narrow, wide);
    }

    #[test]
    fn works_on_per_layer_subgraphs() {
        // The paper applies KW to the subgraph induced by a single layer of a
        // beta-partition, whose max degree is at most beta.
        let mut rng = ChaCha8Rng::seed_from_u64(89);
        let graph = generators::preferential_attachment(500, 3, &mut rng);
        let beta = 7;
        let partition = beta_partition_for_test(&graph, beta);
        let layer0: Vec<usize> = graph.nodes().filter(|&v| partition[v] == 0).collect();
        let sub = sparse_graph::InducedSubgraph::new(&graph, &layer0);
        assert!(sub.graph().max_degree() <= beta);
        let initial = Coloring::new((0..sub.num_nodes()).collect());
        let result = kw_color_reduction(sub.graph(), &initial, beta).unwrap();
        assert!(result.coloring.is_proper(sub.graph()));
        assert!(result.coloring.palette_size() <= beta + 1);
    }

    /// Tiny helper computing natural-partition layers without depending on
    /// the beta-partition crate (avoids a dev-dependency cycle).
    fn beta_partition_for_test(graph: &CsrGraph, beta: usize) -> Vec<usize> {
        let n = graph.num_nodes();
        let mut layer = vec![usize::MAX; n];
        let mut remaining_degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
        let mut peeled = vec![false; n];
        let mut current_layer = 0;
        loop {
            let batch: Vec<usize> = (0..n)
                .filter(|&v| !peeled[v] && remaining_degree[v] <= beta)
                .collect();
            if batch.is_empty() {
                break;
            }
            for &v in &batch {
                layer[v] = current_layer;
                peeled[v] = true;
            }
            for &v in &batch {
                for &w in graph.neighbors(v) {
                    if !peeled[w] {
                        remaining_degree[w] -= 1;
                    }
                }
            }
            current_layer += 1;
        }
        layer
    }
}

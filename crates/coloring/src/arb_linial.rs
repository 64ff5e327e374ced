//! The Arb-Linial one-sided color reduction (Sections 6.1–6.2).
//!
//! Linial's classic coloring algorithm reduces an `m`-coloring to an
//! `O(∆² log m)`-coloring in one round using cover-free set families. As
//! observed by Barenboim–Elkin [BE10b], the algorithm only needs the colors
//! of *out*-neighbors of an acyclic orientation, so `∆` can be replaced by
//! the maximum out-degree `β` — this is the version the paper simulates
//! inside AMPC on top of its β-partitions.
//!
//! The cover-free families are the standard polynomial construction over a
//! prime field `GF(q)`: color `c` is identified with the polynomial whose
//! coefficients are the base-`q` digits of `c`, and the set of `c` is
//! `{(a, p_c(a)) : a ∈ GF(q)}`. For `q > d·β` a node can always pick an
//! evaluation point on which its polynomial differs from the polynomials of
//! all (at most `β`) out-neighbors, and the pair `(a, p_c(a))` becomes its
//! new color from a palette of size `q²`.
//!
//! Every node decides its new color from its own polynomial and its
//! out-neighbors' — a pure per-node function — so each reduction round runs
//! as one [`RoundPrimitives::par_node_map_weighted_into`] over the shared
//! worker pool, bit-identical to the sequential loop for any thread count.

use std::fmt;

use ampc_runtime::{simd, RoundPrimitives};
use sparse_graph::{Coloring, CsrGraph, NodeId, Orientation};

use crate::primes::next_prime;

/// Structured failures of the Arb-Linial reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArbLinialError {
    /// The supplied orientation does not cover the graph's edge set.
    UncoveredOrientation,
    /// The supplied initial coloring is not proper.
    ImproperInitialColoring,
    /// The `q²` palette of a reduction round does not fit the machine: the
    /// prime `q` required for this `palette`/`beta`/`degree` combination
    /// squares past `usize::MAX` (or its search range overflows `u64`).
    /// Pathological inputs only — returned instead of a silent wrap or
    /// panic.
    PaletteOverflow {
        /// The palette the round started from.
        palette: usize,
        /// The orientation's maximum out-degree.
        beta: usize,
        /// The polynomial degree of the attempted round.
        degree: usize,
    },
}

impl fmt::Display for ArbLinialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbLinialError::UncoveredOrientation => {
                write!(f, "orientation does not cover the graph's edge set")
            }
            ArbLinialError::ImproperInitialColoring => {
                write!(f, "initial coloring is not proper")
            }
            ArbLinialError::PaletteOverflow {
                palette,
                beta,
                degree,
            } => write!(
                f,
                "reduction palette overflows: no representable prime q with q > {degree} * {beta} \
                 and q^{} >= {palette} whose square fits a usize",
                degree + 1
            ),
        }
    }
}

impl std::error::Error for ArbLinialError {}

impl From<ArbLinialError> for String {
    fn from(error: ArbLinialError) -> Self {
        error.to_string()
    }
}

/// Result of running the Arb-Linial reduction to its fixed point.
#[derive(Debug, Clone)]
pub struct ArbLinialResult {
    /// The final proper coloring.
    pub coloring: Coloring,
    /// Palette size after every round, starting with the input palette.
    pub palette_trajectory: Vec<usize>,
    /// Number of (simulated LOCAL) reduction rounds executed.
    pub rounds: usize,
}

impl ArbLinialResult {
    /// The final palette size (`palette_trajectory.last()`).
    pub fn final_palette(&self) -> usize {
        *self
            .palette_trajectory
            .last()
            .expect("trajectory always contains the initial palette")
    }
}

/// The smallest prime `q` with `q > d·β` and `q^{d+1} ≥ palette`, or a
/// [`ArbLinialError::PaletteOverflow`] if no such `q` is representable.
fn reduction_prime(palette: usize, beta: usize, d: usize) -> Result<u64, ArbLinialError> {
    let overflow = || ArbLinialError::PaletteOverflow {
        palette,
        beta,
        degree: d,
    };
    let floor = (d as u128) * (beta as u128) + 1;
    // Bertrand: next_prime(n) < 2n, so the search stays in u64 as long as
    // the floor does; beyond that q² cannot fit a usize anyway.
    if floor > (u64::MAX / 2) as u128 {
        return Err(overflow());
    }
    let mut q = next_prime(floor as u64);
    loop {
        // checked_pow overflowing u128 means q^{d+1} ≥ 2^128 > palette, so
        // the palette constraint is certainly satisfied.
        let big_enough = (q as u128)
            .checked_pow(d as u32 + 1)
            .is_none_or(|power| power >= palette as u128);
        if big_enough {
            break;
        }
        let Some(next) = q.checked_add(1) else {
            return Err(overflow());
        };
        if next > u64::MAX / 2 {
            return Err(overflow());
        }
        q = next_prime(next);
    }
    let squared = (q as u128) * (q as u128);
    if squared > usize::MAX as u128 {
        return Err(overflow());
    }
    Ok(q)
}

/// The palette `q²` that one reduction round with polynomial degree `d`
/// would produce from the given palette.
fn palette_after_round(palette: usize, beta: usize, d: usize) -> Result<usize, ArbLinialError> {
    let q = reduction_prime(palette, beta, d)?;
    Ok((q * q) as usize)
}

/// The polynomial degree minimizing the palette after one reduction round.
/// Degrees whose palette overflows are skipped; if every candidate
/// overflows, the overflow of the smallest degree is reported.
fn best_degree(palette: usize, beta: usize) -> Result<usize, ArbLinialError> {
    let max_degree = (usize::BITS - palette.max(2).leading_zeros()) as usize + 1;
    let mut best: Option<(usize, usize)> = None;
    let mut first_error: Option<ArbLinialError> = None;
    for d in 1..=max_degree.max(1) {
        match palette_after_round(palette, beta, d) {
            Ok(next) => {
                if best.is_none_or(|(best_next, _)| next < best_next) {
                    best = Some((next, d));
                }
            }
            Err(error) => {
                first_error.get_or_insert(error);
            }
        }
    }
    match best {
        Some((_, d)) => Ok(d),
        None => Err(first_error.expect("at least one degree was attempted")),
    }
}

/// Per-chunk scratch of one reduction round: the node's own polynomial
/// coefficients plus its out-neighbors' polynomials flattened with stride
/// `d + 1`. Leased once per chunk from the context's scratch registry and
/// cleared per node, so the per-node / per-neighbor `Vec` allocations of
/// the old decoding are gone in steady state.
#[derive(Debug, Default)]
struct PolyScratch {
    own: Vec<u64>,
    neighbors: Vec<u64>,
}

/// One round of the polynomial reduction with prime `q` and polynomial
/// degree `d`, as chosen by [`reduction_prime`]: maps a proper
/// `m`-coloring with `q^{d+1} ≥ m` to a proper `q²`-coloring, since
/// `q > d·β` leaves every node an evaluation point that no out-neighbor
/// covers.
///
/// Every node's new color is a pure function of its own and its
/// out-neighbors' current colors, so the per-node loop fans out over the
/// worker pool; results are written into the caller-owned `out` buffer
/// (recycled across rounds) in node order.
fn reduction_round_into(
    graph: &CsrGraph,
    orientation: &Orientation,
    colors: &[usize],
    q: usize,
    d: usize,
    primitives: &RoundPrimitives,
    out: &mut Vec<usize>,
) {
    // Coefficients of color c: its base-q digits (d+1 of them), appended to
    // a reused buffer.
    let decode_into = |c: usize, digits: &mut Vec<u64>| {
        let mut rest = c as u64;
        for _ in 0..=d {
            digits.push(rest % q as u64);
            rest /= q as u64;
        }
    };
    let evaluate = |coeffs: &[u64], a: u64| -> u64 {
        // Horner evaluation over GF(q).
        let mut value = 0u64;
        for &coefficient in coeffs.iter().rev() {
            value = (value * a + coefficient) % q as u64;
        }
        value
    };

    // Cost-weighted chunking: a node's round cost is dominated by scanning
    // its out-neighbors (polynomial decoding plus up to q evaluations per
    // out-neighbor), so the out-degree is the per-node weight. On skewed
    // orientations — power-law graphs oriented by node id put most edges on
    // a few hubs — this shatters the hub-heavy index ranges into many
    // small, stealable tasks instead of one dominant chunk.
    let scratch = primitives.scratch_pool::<PolyScratch>();
    primitives.par_node_map_weighted_into(
        graph.num_nodes(),
        |v| orientation.out_degree(v),
        || {
            let mut lease = scratch.lease();
            move |v| {
                let PolyScratch { own, neighbors } = &mut *lease;
                own.clear();
                decode_into(colors[v], own);
                neighbors.clear();
                let out = orientation.out_neighbors(v);
                for (at, &u) in out.iter().enumerate() {
                    // The color gather is scattered even though the
                    // out-list streams sequentially; prefetch a few
                    // iterations ahead to hide the latency on wide
                    // orientations.
                    if let Some(&ahead) = out.get(at + simd::PREFETCH_LOOKAHEAD) {
                        simd::prefetch_read(colors, ahead);
                    }
                    decode_into(colors[u], neighbors);
                }
                let mut chosen = None;
                for a in 0..q as u64 {
                    let own_value = evaluate(own, a);
                    let clashes = neighbors
                        .chunks_exact(d + 1)
                        .any(|poly| evaluate(poly, a) == own_value);
                    if !clashes {
                        chosen = Some((a, own_value));
                        break;
                    }
                }
                let (a, value) = chosen.expect(
                    "a conflict-free evaluation point exists because q > d * beta \
                 bounds the number of covered points",
                );
                (a as usize) * q + value as usize
            }
        },
        out,
    );
}

/// Runs the Arb-Linial algorithm on top of an acyclic orientation until the
/// palette stops shrinking, executing every per-node reduction round on the
/// supplied [`RoundPrimitives`] context.
///
/// Bit-identical to [`arb_linial_coloring`] (the strictly sequential entry
/// point) for any thread count: each round is a pure per-node map merged in
/// node order.
///
/// # Errors
///
/// See [`arb_linial_coloring`].
pub fn arb_linial_coloring_with_runtime(
    graph: &CsrGraph,
    orientation: &Orientation,
    initial: Option<&Coloring>,
    primitives: &RoundPrimitives,
) -> Result<ArbLinialResult, ArbLinialError> {
    if !orientation.covers_graph(graph) {
        return Err(ArbLinialError::UncoveredOrientation);
    }
    let n = graph.num_nodes();
    let beta = orientation.max_out_degree();

    let (mut colors, mut palette): (Vec<usize>, usize) = match initial {
        Some(coloring) => {
            if !coloring.is_proper(graph) {
                return Err(ArbLinialError::ImproperInitialColoring);
            }
            (coloring.colors().to_vec(), coloring.palette_size().max(1))
        }
        None => ((0..n).collect::<Vec<NodeId>>(), n.max(1)),
    };

    let mut trajectory = vec![palette];
    let mut rounds = 0usize;
    // The round output buffer, swapped with `colors` after every round —
    // one allocation for the whole run instead of one per round.
    let mut next_colors: Vec<usize> = Vec::new();

    loop {
        // Choose the polynomial degree that gives the strongest single-round
        // reduction (the classic Linial schedule uses a logarithmic degree
        // while the palette is huge and degree ~2 near the fixed point).
        let mut span = primitives
            .span("arb_linial.round", "simulator")
            .with_arg("round", rounds as u64)
            .with_arg("palette", palette as u64);
        let degree = best_degree(palette, beta)?;
        let q = reduction_prime(palette, beta, degree)? as usize;
        let new_palette = q * q;
        span.set_arg("palette_after", new_palette.min(palette) as u64);
        rounds += 1;
        if new_palette >= palette {
            // Fixed point: the round's palette `q²` is known before any
            // node runs, and it would not shrink the palette, so no node
            // runs it. It still counts as a round, as it always has.
            trajectory.push(palette);
            break;
        }
        reduction_round_into(
            graph,
            orientation,
            &colors,
            q,
            degree,
            primitives,
            &mut next_colors,
        );
        drop(span);
        std::mem::swap(&mut colors, &mut next_colors);
        palette = new_palette;
        trajectory.push(palette);
        if rounds > 64 {
            break; // safety net; log* n convergence makes this unreachable
        }
    }

    Ok(ArbLinialResult {
        coloring: Coloring::new(colors),
        palette_trajectory: trajectory,
        rounds,
    })
}

/// Runs the Arb-Linial algorithm on top of an acyclic orientation until the
/// palette stops shrinking.
///
/// * `graph` — the input graph,
/// * `orientation` — an acyclic orientation covering `graph` (out-degree
///   `β`), typically derived from a β-partition,
/// * `initial` — a proper coloring to start from; `None` uses the trivial
///   `n`-coloring by node id (what the paper's simulation does).
///
/// The final palette is `O(β²)`: at the fixed point the reduction uses
/// degree `d = 1` polynomials over the smallest prime `q ≥ β + 1` capable of
/// encoding the palette, so the palette converges to at most
/// `(2(β + 1))² = O(β²)` by Bertrand's postulate (in practice much closer to
/// `(β + 1)²`).
///
/// This entry point runs strictly sequentially; use
/// [`arb_linial_coloring_with_runtime`] to fan the per-node rounds out over
/// the persistent worker pool (the results are bit-identical).
///
/// # Errors
///
/// Returns an error if `orientation` does not cover `graph`, if `initial`
/// is not a proper coloring (the reduction requires adjacent nodes to carry
/// distinct polynomials), or — for pathological `palette`/`beta`
/// combinations — if the `q²` palette of a round cannot be represented
/// ([`ArbLinialError::PaletteOverflow`]).
///
/// # Examples
///
/// ```
/// use arbo_coloring::arb_linial_coloring;
/// use sparse_graph::{generators, Orientation};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let graph = generators::forest_union(500, 2, &mut rng);
/// // Orient by node id: out-degree can be large, but stays far below n.
/// let orientation = Orientation::from_total_order(&graph, |v| v);
/// let result = arb_linial_coloring(&graph, &orientation, None)?;
/// assert!(result.coloring.is_proper(&graph));
/// let beta = orientation.max_out_degree();
/// assert!(result.final_palette() <= 4 * (beta + 2) * (beta + 2));
/// # Ok::<(), arbo_coloring::ArbLinialError>(())
/// ```
pub fn arb_linial_coloring(
    graph: &CsrGraph,
    orientation: &Orientation,
    initial: Option<&Coloring>,
) -> Result<ArbLinialResult, ArbLinialError> {
    arb_linial_coloring_with_runtime(graph, orientation, initial, &RoundPrimitives::sequential())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::generators;

    fn id_orientation(graph: &CsrGraph) -> Orientation {
        Orientation::from_total_order(graph, |v| v)
    }

    #[test]
    fn colors_a_tree_with_constant_palette() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let graph = generators::random_tree(1_000, &mut rng);
        // Orient towards the root-free degeneracy order: out-degree 1.
        let decomposition = sparse_graph::degeneracy_ordering(&graph);
        let mut position = vec![0usize; graph.num_nodes()];
        for (i, &v) in decomposition.ordering.iter().enumerate() {
            position[v] = i;
        }
        let orientation = Orientation::from_total_order(&graph, |v| position[v]);
        assert_eq!(orientation.max_out_degree(), 1);
        let result = arb_linial_coloring(&graph, &orientation, None).unwrap();
        assert!(result.coloring.is_proper(&graph));
        // beta = 1: the fixed point is at most (2 * 2)^2 = 16, in practice <= 9.
        assert!(
            result.final_palette() <= 16,
            "palette {}",
            result.final_palette()
        );
        assert!(result.rounds <= 10);
    }

    #[test]
    fn respects_beta_squared_bound_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(67);
        for k in [2usize, 4] {
            let graph = generators::forest_union(800, k, &mut rng);
            let decomposition = sparse_graph::degeneracy_ordering(&graph);
            let mut position = vec![0usize; graph.num_nodes()];
            for (i, &v) in decomposition.ordering.iter().enumerate() {
                position[v] = i;
            }
            let orientation = Orientation::from_total_order(&graph, |v| position[v]);
            let beta = orientation.max_out_degree();
            let result = arb_linial_coloring(&graph, &orientation, None).unwrap();
            assert!(result.coloring.is_proper(&graph), "k = {k}");
            assert!(
                result.final_palette() <= 4 * (beta + 2) * (beta + 2),
                "k = {k}: palette {} for beta {beta}",
                result.final_palette()
            );
        }
    }

    #[test]
    fn palette_trajectory_is_monotone_decreasing() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let graph = generators::preferential_attachment(600, 3, &mut rng);
        let orientation = id_orientation(&graph);
        let result = arb_linial_coloring(&graph, &orientation, None).unwrap();
        for window in result.palette_trajectory.windows(2) {
            assert!(window[1] <= window[0]);
        }
        assert_eq!(result.palette_trajectory[0], 600);
    }

    #[test]
    fn accepts_an_explicit_initial_coloring() {
        let graph = generators::cycle(50);
        let orientation = id_orientation(&graph);
        let greedy = sparse_graph::greedy_by_id_order(&graph);
        let result = arb_linial_coloring(&graph, &orientation, Some(&greedy)).unwrap();
        assert!(result.coloring.is_proper(&graph));
        assert!(result.final_palette() <= greedy.palette_size().max(16));
    }

    #[test]
    fn rejects_improper_initial_colorings() {
        let graph = generators::cycle(4);
        let orientation = id_orientation(&graph);
        let bad = Coloring::new(vec![0, 0, 1, 1]);
        assert_eq!(
            arb_linial_coloring(&graph, &orientation, Some(&bad)).unwrap_err(),
            ArbLinialError::ImproperInitialColoring
        );
    }

    #[test]
    fn rejects_orientations_that_do_not_cover() {
        let graph = generators::cycle(4);
        let partial = Orientation::from_out_neighbors(vec![vec![1], vec![2], vec![3], vec![]]);
        assert_eq!(
            arb_linial_coloring(&graph, &partial, None).unwrap_err(),
            ArbLinialError::UncoveredOrientation
        );
    }

    #[test]
    fn single_round_reduction_is_proper_and_small() {
        // Directly exercise one reduction round on a star oriented towards
        // the hub (out-degree 1).
        let graph = generators::star(200);
        let orientation = Orientation::from_total_order(&graph, |v| if v == 0 { 1 } else { 0 });
        let colors: Vec<usize> = (0..200).collect();
        let mut new_colors = Vec::new();
        let q = reduction_prime(200, 1, 2).unwrap() as usize;
        reduction_round_into(
            &graph,
            &orientation,
            &colors,
            q,
            2,
            &RoundPrimitives::sequential(),
            &mut new_colors,
        );
        let new_palette = q * q;
        assert!(new_palette < 200);
        let coloring = Coloring::new(new_colors);
        assert!(coloring.is_proper(&graph));
        assert!(coloring.palette_size() <= new_palette);
    }

    #[test]
    fn parallel_rounds_are_bit_identical_to_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let graph = generators::forest_union(1_500, 3, &mut rng);
        let orientation = id_orientation(&graph);
        let reference = arb_linial_coloring(&graph, &orientation, None).unwrap();
        for threads in [2usize, 4, 7] {
            let primitives = RoundPrimitives::new(threads);
            let parallel =
                arb_linial_coloring_with_runtime(&graph, &orientation, None, &primitives).unwrap();
            assert_eq!(reference.coloring, parallel.coloring, "threads {threads}");
            assert_eq!(reference.palette_trajectory, parallel.palette_trajectory);
            assert_eq!(reference.rounds, parallel.rounds);
            assert!(primitives.tasks_executed() > 0);
        }
    }

    #[test]
    fn pathological_palette_beta_combinations_error_instead_of_wrapping() {
        // q² for these combinations cannot fit a usize: the structured
        // overflow error is returned instead of a silent wrap or panic.
        let err = palette_after_round(usize::MAX, usize::MAX / 2, 3).unwrap_err();
        assert!(
            matches!(err, ArbLinialError::PaletteOverflow { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("overflow"), "{err}");

        // d * beta + 1 itself past the u64 search range.
        let err = palette_after_round(16, usize::MAX, usize::MAX).unwrap_err();
        assert!(matches!(err, ArbLinialError::PaletteOverflow { .. }));

        // best_degree surfaces the overflow when *every* degree overflows,
        // and skips overflowing degrees when a representable one exists.
        assert!(best_degree(usize::MAX, usize::MAX / 2).is_err());
        assert!(best_degree(1_000, 7).is_ok());

        // Sane combinations are untouched.
        assert_eq!(palette_after_round(200, 1, 2).unwrap(), 49);
    }
}

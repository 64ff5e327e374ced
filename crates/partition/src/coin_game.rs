//! The `(x, β, F)`-coin dropping game (Section 4.1, Algorithm 1).
//!
//! The game is played from the perspective of a single node `v` issuing LCA
//! queries. It maintains a growing explored set `S_v` and, in every
//! *super-iteration*,
//!
//! 1. recomputes the `S_v`-induced β-partition `σ_{S_v,β}` and the
//!    forwarding sets `F(σ_{S_v,β}, u)` (Definition 4.1) from the explored
//!    knowledge,
//! 2. gives `x` coins to `v`,
//! 3. repeatedly lets every explored node holding at least `|F|` coins
//!    forward an equal share of all its coins to its forwarding set,
//! 4. adds every unexplored node that received a coin to `S_v`.
//!
//! The forwarding sets prefer neighbors with the *highest* `σ` values, which
//! is the adaptive rule that makes the exploration provably reach new parts
//! of the dependency graph (Lemmas 4.2 and 4.3).
//!
//! ## Flat state
//!
//! A partition round plays one game per residual node, so a game keeps its
//! whole state in a reusable [`CoinGameScratch`]. Every node the game
//! touches — `S_v` plus the unexplored neighbors that receive coins — gets
//! a dense slot, found through an epoch-stamped node → slot map
//! ([`ampc_runtime::EpochMap`]). Adjacency lists are borrowed from the
//! oracle, and `σ` levels, forwarding sets and coin amounts live in
//! slot-indexed vectors, so a game on a warm scratch allocates nothing.
//!
//! Coins are `f64`. Each flow iteration visits the holders in ascending
//! node id and adds shares in forwarding-set order, which fixes the
//! floating-point summation order of every node's coins. Forwarding sets
//! are computed on first use within a super-iteration: only coin holders
//! need one, and `σ` and `S_v` do not change during the flow.

use std::ops::Range;

use ampc_model::{LcaOracle, ModelError};
use ampc_runtime::EpochMap;
use sparse_graph::NodeId;

use crate::layer::Layer;

/// Parameters of the `(x, β, F)`-coin dropping game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinGameConfig {
    /// The coin budget `x`; the game runs `x²` super-iterations (unless
    /// overridden) and explores at most `O(x³)` nodes.
    pub x: usize,
    /// The out-degree parameter `β`.
    pub beta: usize,
    /// Number of super-iterations; defaults to `x²` (the paper's value) when
    /// `None`. Lowering it trades progress speed for simulation time without
    /// affecting the validity of the output (only how many nodes get a
    /// finite layer).
    pub super_iterations: Option<usize>,
    /// Number of coin-forwarding iterations inside one super-iteration;
    /// defaults to `⌈log_{β+1} x⌉ + 2`, which is enough for coins to reach
    /// the end of any decreasing-layer path the analysis of Lemma 4.2 uses.
    pub flow_iterations: Option<usize>,
    /// Cap on the layers the LCA reports: layers above the cap are treated
    /// as `∞`. Defaults to `max(1, ⌊log_{β+1} x⌋)` as in Lemma 4.7.
    pub layer_cap: Option<usize>,
}

impl CoinGameConfig {
    /// Creates a configuration with the paper's default derived parameters.
    pub fn new(x: usize, beta: usize) -> Self {
        CoinGameConfig {
            x: x.max(2),
            beta,
            super_iterations: None,
            flow_iterations: None,
            layer_cap: None,
        }
    }

    /// Overrides the number of super-iterations.
    pub fn with_super_iterations(mut self, super_iterations: usize) -> Self {
        self.super_iterations = Some(super_iterations);
        self
    }

    /// Overrides the number of flow iterations per super-iteration.
    pub fn with_flow_iterations(mut self, flow_iterations: usize) -> Self {
        self.flow_iterations = Some(flow_iterations);
        self
    }

    /// Overrides the reported-layer cap.
    pub fn with_layer_cap(mut self, layer_cap: usize) -> Self {
        self.layer_cap = Some(layer_cap);
        self
    }

    /// Effective number of super-iterations (`x²` by default).
    pub fn effective_super_iterations(&self) -> usize {
        self.super_iterations.unwrap_or(self.x * self.x)
    }

    /// Effective number of flow iterations (`⌈log_{β+1} x⌉ + 2` by default).
    pub fn effective_flow_iterations(&self) -> usize {
        self.flow_iterations
            .unwrap_or_else(|| log_base_ceil(self.x, self.beta + 1) + 2)
    }

    /// Effective layer cap (`max(1, ⌊log_{β+1} x⌋)` by default).
    pub fn effective_layer_cap(&self) -> usize {
        self.layer_cap
            .unwrap_or_else(|| log_base_floor(self.x, self.beta + 1).max(1))
    }
}

/// `⌈log_base(value)⌉` for integers (at least 1).
fn log_base_ceil(value: usize, base: usize) -> usize {
    let base = base.max(2);
    let mut power = base;
    let mut result = 1;
    while power < value {
        power = power.saturating_mul(base);
        result += 1;
    }
    result
}

/// `⌊log_base(value)⌋` for integers (0 when `value < base`).
fn log_base_floor(value: usize, base: usize) -> usize {
    let base = base.max(2);
    let mut power = base;
    let mut result = 0;
    while power <= value {
        power = power.saturating_mul(base);
        result += 1;
    }
    result
}

/// `σ` of a slot whose node is not layered (yet): `∞`.
const INFINITE: usize = usize::MAX;

/// Everything one game knows about one node it touched.
#[derive(Debug, Clone, Default)]
struct Slot<'g> {
    node: NodeId,
    /// Whether the node is in `S_v`.
    explored: bool,
    /// The adjacency list, borrowed from the oracle when the node joined
    /// `S_v` (empty before).
    neighbors: &'g [NodeId],
    /// `σ_{S_v,β}` of the current super-iteration ([`INFINITE`] = `∞`);
    /// set for explored nodes only.
    level: usize,
    /// Neighbors still at `∞` while [`CoinGameScratch::induced_levels`]
    /// peels.
    infinite_neighbors: usize,
    /// The forwarding set `forwarding[forward]`, valid while
    /// `forward_round` is the current super-iteration (rounds count from 1).
    forward: Range<usize>,
    forward_round: usize,
    /// Coins held during the current flow iteration.
    coins: f64,
    /// Coins received in flow step `received_at` (steps count from 1).
    incoming: f64,
    received_at: usize,
}

/// The reusable state of one game: every node the game touches gets a
/// dense slot, found through an epoch-stamped node → slot map over the
/// oracle's graph, and all per-node data lives in slot-indexed vectors.
///
/// A partition round plays one game per residual node, each in a scratch
/// leased from a pool; once a scratch is warm a game allocates nothing.
/// [`CoinGame::play`] resets the scratch, so stale contents never leak
/// into a later game.
#[derive(Debug, Default)]
pub(crate) struct CoinGameScratch<'g> {
    slot_of: EpochMap,
    slots: Vec<Slot<'g>>,
    /// Slots of `S_v`, in the order the nodes joined it.
    explored: Vec<usize>,
    /// Arena of the current super-iteration's forwarding sets.
    forwarding: Vec<NodeId>,
    /// Coin holders of the current flow iteration, ascending node id.
    holders: Vec<usize>,
    /// Slots that received coins in the current flow step.
    receivers: Vec<usize>,
    /// Peeling frontiers of [`CoinGameScratch::induced_levels`].
    frontier: Vec<usize>,
    next_frontier: Vec<usize>,
    /// Ranking buffer of [`CoinGameScratch::forwarding_set`].
    ranked: Vec<(u8, usize, NodeId)>,
}

impl<'g> CoinGameScratch<'g> {
    /// Forgets the previous game and sizes the node → slot map for a graph
    /// of `num_nodes` nodes.
    fn reset(&mut self, num_nodes: usize) {
        self.slot_of.reset(num_nodes);
        self.slots.clear();
        self.explored.clear();
    }

    /// The slot of `node`, created on first touch.
    fn slot(&mut self, node: NodeId) -> usize {
        if let Some(slot) = self.slot_of.get(node) {
            return slot as usize;
        }
        let slot = self.slots.len();
        self.slots.push(Slot {
            node,
            ..Slot::default()
        });
        self.slot_of.insert(node, slot as u32);
        slot
    }

    /// The slot of `node` if it is in `S_v`.
    fn explored_slot(&self, node: NodeId) -> Option<usize> {
        self.slot_of
            .get(node)
            .map(|slot| slot as usize)
            .filter(|&slot| self.slots[slot].explored)
    }

    /// Adds the node of `slot` to `S_v`, querying its degree and full
    /// adjacency list.
    fn explore(&mut self, oracle: &LcaOracle<'g>, slot: usize) -> Result<(), ModelError> {
        let neighbors = oracle.neighbors(self.slots[slot].node)?;
        let info = &mut self.slots[slot];
        info.neighbors = neighbors;
        info.explored = true;
        self.explored.push(slot);
        Ok(())
    }

    /// Computes the `S_v`-induced β-partition over the explored knowledge
    /// (Definition 3.6 restricted to `S = S_v`): level-synchronous peeling
    /// on the count of `∞` neighbors (neighbors outside `S_v` always count).
    fn induced_levels(&mut self, beta: usize) {
        for &slot in &self.explored {
            let info = &mut self.slots[slot];
            info.level = INFINITE;
            info.infinite_neighbors = info.neighbors.len();
        }
        let slots = &self.slots;
        self.frontier.clear();
        self.frontier.extend(
            self.explored
                .iter()
                .copied()
                .filter(|&slot| slots[slot].infinite_neighbors <= beta),
        );
        let mut level = 0usize;
        while !self.frontier.is_empty() {
            for &slot in &self.frontier {
                self.slots[slot].level = level;
            }
            // A counter passes `β` exactly once, so every node enters the
            // next frontier at most once.
            self.next_frontier.clear();
            for index in 0..self.frontier.len() {
                for &w in self.slots[self.frontier[index]].neighbors {
                    let Some(slot) = self.explored_slot(w) else {
                        continue;
                    };
                    let info = &mut self.slots[slot];
                    info.infinite_neighbors -= 1;
                    if info.level == INFINITE && info.infinite_neighbors == beta {
                        self.next_frontier.push(slot);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            level += 1;
        }
    }

    /// The forwarding set `F(σ_{S_v}, u)` of Definition 4.1 for the
    /// explored node of `slot`, as a range of the forwarding arena: the
    /// `min(deg(u), β + 1)` neighbors with the highest `σ` values. Computed
    /// on first use in super-iteration `round` (only coin holders need one).
    ///
    /// Neighbors outside `S_v` have `σ = ∞`; ties among `∞`-valued neighbors
    /// are broken in favor of *unexplored* nodes (driving the exploration
    /// towards new parts of the graph), then by node id, which keeps the
    /// algorithm deterministic. Any tie-break satisfies Definition 4.1.
    fn forwarding_set(&mut self, slot: usize, round: usize, beta: usize) -> Range<usize> {
        let info = &self.slots[slot];
        if info.forward_round == round {
            return info.forward.clone();
        }
        let neighbors = info.neighbors;
        let needed = neighbors.len().min(beta + 1);
        let start = self.forwarding.len();
        if needed > 0 {
            // Sort key (lexicographic, smaller is better):
            //   rank 0: sigma = ∞ and unexplored (fresh target)
            //   rank 1: sigma = ∞ and explored
            //   rank 2: finite sigma, larger sigma preferred (secondary key).
            self.ranked.clear();
            for &w in neighbors {
                let (rank, secondary) = match self.explored_slot(w) {
                    None => (0u8, 0usize),
                    Some(explored) => match self.slots[explored].level {
                        INFINITE => (1, 0),
                        layer => (2, usize::MAX - layer),
                    },
                };
                self.ranked.push((rank, secondary, w));
            }
            // Keys are distinct (one per neighbor), so selecting the
            // `needed` smallest and sorting them equals a full sort's prefix.
            if needed < self.ranked.len() {
                self.ranked.select_nth_unstable(needed - 1);
                self.ranked.truncate(needed);
            }
            self.ranked.sort_unstable();
            self.forwarding
                .extend(self.ranked.iter().map(|&(_, _, w)| w));
        }
        let info = &mut self.slots[slot];
        info.forward = start..start + needed;
        info.forward_round = round;
        info.forward.clone()
    }

    /// Books `amount` coins for `slot` in flow step `step`.
    fn receive(&mut self, slot: usize, step: usize, amount: f64) {
        let info = &mut self.slots[slot];
        if info.received_at != step {
            info.received_at = step;
            info.incoming = 0.0;
            self.receivers.push(slot);
        }
        info.incoming += amount;
    }

    /// One coin-forwarding iteration: every explored holder with at least
    /// `|F|` coins forwards an equal share to its forwarding set, the rest
    /// keep their coins. Holders are visited in ascending node id and
    /// shares added in forwarding-set order, which fixes every node's
    /// floating-point summation order. Returns whether any coin moved.
    fn flow(&mut self, step: usize, round: usize, beta: usize) -> bool {
        self.receivers.clear();
        let mut moved = false;
        for index in 0..self.holders.len() {
            let holder = self.holders[index];
            let amount = self.slots[holder].coins;
            let targets = if self.slots[holder].explored {
                self.forwarding_set(holder, round, beta)
            } else {
                0..0
            };
            if !targets.is_empty() && amount >= targets.len() as f64 {
                let share = amount / targets.len() as f64;
                for offset in targets {
                    let target = self.slot(self.forwarding[offset]);
                    self.receive(target, step, share);
                }
                moved = true;
            } else {
                self.receive(holder, step, amount);
            }
        }
        let slots = &mut self.slots;
        self.receivers
            .sort_unstable_by_key(|&slot| slots[slot].node);
        for &slot in &self.receivers {
            slots[slot].coins = slots[slot].incoming;
        }
        std::mem::swap(&mut self.holders, &mut self.receivers);
        moved
    }

    /// The final `σ_{S_v,β}` restricted to its finite layers, as
    /// `(node, layer)` pairs in the order the nodes joined `S_v`.
    pub(crate) fn sigma(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.explored.iter().filter_map(|&slot| {
            let info = &self.slots[slot];
            (info.level != INFINITE).then_some((info.node, info.level))
        })
    }

    /// Number of edges of `G[S_v]` present in the explored knowledge.
    fn discovered_edges(&self) -> usize {
        self.explored
            .iter()
            .map(|&slot| {
                self.slots[slot]
                    .neighbors
                    .iter()
                    .filter(|&&w| self.explored_slot(w).is_some())
                    .count()
            })
            .sum::<usize>()
            / 2
    }
}

/// Counters of one game played by [`CoinGame::play`]; the explored set
/// and `σ` stay readable in the scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoinGameSummary {
    /// `σ_{S_v,β}(root)` (uncapped).
    pub sigma_root: Layer,
    /// Number of LCA queries issued.
    pub queries: usize,
    /// Number of super-iterations executed.
    pub super_iterations_run: usize,
    /// `|S_v|`.
    pub explored: usize,
}

/// Outcome of one full run of the coin dropping game for a root node.
#[derive(Debug, Clone)]
pub struct CoinGameResult {
    /// The node the game was played for.
    pub root: NodeId,
    /// The explored set `S_v`, sorted by node id.
    pub explored: Vec<NodeId>,
    /// The final `S_v`-induced β-partition restricted to its finite layers,
    /// as `(node, layer)` pairs sorted by node id.
    pub sigma: Vec<(NodeId, usize)>,
    /// `σ_{S_v,β}(root)` (uncapped).
    pub sigma_root: Layer,
    /// Number of LCA queries issued.
    pub queries: usize,
    /// Number of super-iterations actually executed (early exit stops the
    /// game as soon as a super-iteration adds no new node).
    pub super_iterations_run: usize,
    /// Number of edges of `G[S_v]` discovered.
    pub discovered_edges: usize,
}

/// The `(x, β, F)`-coin dropping game bound to an LCA oracle.
///
/// # Examples
///
/// ```
/// use ampc_model::LcaOracle;
/// use beta_partition::{CoinGame, CoinGameConfig, Layer};
/// use sparse_graph::generators;
///
/// let graph = generators::star(50); // hub 0, leaves 1..50
/// let oracle = LcaOracle::new(&graph);
/// let config = CoinGameConfig::new(4, 3);
/// let result = CoinGame::new(&oracle, config).run(0)?;
/// // The hub's layer in the natural 3-partition is 1, and the game finds it.
/// assert_eq!(result.sigma_root, Layer::Finite(1));
/// # Ok::<(), ampc_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct CoinGame<'o, 'g> {
    oracle: &'o LcaOracle<'g>,
    config: CoinGameConfig,
}

impl<'o, 'g> CoinGame<'o, 'g> {
    /// Binds the game to an oracle and a configuration.
    pub fn new(oracle: &'o LcaOracle<'g>, config: CoinGameConfig) -> Self {
        CoinGame { oracle, config }
    }

    /// Plays the game for `root` and returns the resulting exploration and
    /// induced partition.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::QueryBudgetExceeded`] if the oracle has a
    /// budget and the game exhausts it.
    pub fn run(self, root: NodeId) -> Result<CoinGameResult, ModelError> {
        let mut scratch = CoinGameScratch::default();
        let summary = self.play(root, &mut scratch)?;
        let mut explored: Vec<NodeId> = scratch
            .explored
            .iter()
            .map(|&slot| scratch.slots[slot].node)
            .collect();
        explored.sort_unstable();
        let mut sigma: Vec<(NodeId, usize)> = scratch.sigma().collect();
        sigma.sort_unstable();
        Ok(CoinGameResult {
            root,
            explored,
            sigma,
            sigma_root: summary.sigma_root,
            queries: summary.queries,
            super_iterations_run: summary.super_iterations_run,
            discovered_edges: scratch.discovered_edges(),
        })
    }

    /// Plays the game for `root` inside `scratch`, leaving `S_v` and its
    /// final `σ` there ([`CoinGameScratch::sigma`]).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::QueryBudgetExceeded`] if the oracle has a
    /// budget and the game exhausts it.
    pub(crate) fn play(
        &self,
        root: NodeId,
        scratch: &mut CoinGameScratch<'g>,
    ) -> Result<CoinGameSummary, ModelError> {
        let queries_before = self.oracle.queries_used();
        let beta = self.config.beta;
        scratch.reset(self.oracle.num_nodes());
        let root_slot = scratch.slot(root);
        scratch.explore(self.oracle, root_slot)?;

        let max_super_iterations = self.config.effective_super_iterations();
        let flow_iterations = self.config.effective_flow_iterations();
        let mut super_iterations_run = 0usize;
        let mut step = 0usize;

        for round in 1..=max_super_iterations {
            super_iterations_run = round;
            scratch.induced_levels(beta);
            scratch.forwarding.clear();

            // Coin flow: fractional coins, root starts with x.
            scratch.slots[root_slot].coins = self.config.x as f64;
            scratch.holders.clear();
            scratch.holders.push(root_slot);
            for _ in 0..flow_iterations {
                step += 1;
                if !scratch.flow(step, round, beta) {
                    break;
                }
            }

            // Step 4: recruit every unexplored node holding coins, in
            // ascending node id.
            let explored_before = scratch.explored.len();
            for index in 0..scratch.holders.len() {
                let holder = scratch.holders[index];
                let info = &scratch.slots[holder];
                if info.coins > 0.0 && !info.explored {
                    scratch.explore(self.oracle, holder)?;
                }
            }
            if scratch.explored.len() == explored_before {
                // The next super-iteration would be identical: stop early.
                break;
            }
        }

        scratch.induced_levels(beta);
        let sigma_root = match scratch.slots[root_slot].level {
            INFINITE => Layer::Infinite,
            layer => Layer::Finite(layer),
        };
        Ok(CoinGameSummary {
            sigma_root,
            queries: self.oracle.queries_used() - queries_before,
            super_iterations_run,
            explored: scratch.explored.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induced::natural_partition;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sparse_graph::{generators, CsrGraph};

    fn play(graph: &CsrGraph, root: NodeId, config: CoinGameConfig) -> CoinGameResult {
        let oracle = LcaOracle::new(graph);
        CoinGame::new(&oracle, config).run(root).unwrap()
    }

    #[test]
    fn log_helpers() {
        assert_eq!(log_base_floor(1, 4), 0);
        assert_eq!(log_base_floor(4, 4), 1);
        assert_eq!(log_base_floor(63, 4), 2);
        assert_eq!(log_base_floor(64, 4), 3);
        assert_eq!(log_base_ceil(4, 4), 1);
        assert_eq!(log_base_ceil(5, 4), 2);
        assert_eq!(log_base_ceil(2, 2), 1);
    }

    #[test]
    fn config_defaults_follow_the_paper() {
        let config = CoinGameConfig::new(16, 3);
        assert_eq!(config.effective_super_iterations(), 256);
        assert_eq!(config.effective_flow_iterations(), 2 + 2);
        assert_eq!(config.effective_layer_cap(), 2);
        let overridden = config
            .with_super_iterations(10)
            .with_flow_iterations(5)
            .with_layer_cap(7);
        assert_eq!(overridden.effective_super_iterations(), 10);
        assert_eq!(overridden.effective_flow_iterations(), 5);
        assert_eq!(overridden.effective_layer_cap(), 7);
    }

    #[test]
    fn leaf_of_a_star_terminates_quickly() {
        let graph = generators::star(100);
        let result = play(&graph, 5, CoinGameConfig::new(4, 3));
        // The leaf has degree 1 <= beta, so sigma(leaf) = 0 immediately.
        assert_eq!(result.sigma_root, Layer::Finite(0));
        // Exploration stays bounded by the coin budget: at most x new nodes
        // per super-iteration over at most x^2 super-iterations.
        assert!(result.explored.len() <= 4 * 16 + 2);
        assert!(result.queries < 400);
    }

    #[test]
    fn hub_of_a_star_learns_its_natural_layer() {
        let graph = generators::star(40);
        let result = play(&graph, 0, CoinGameConfig::new(8, 3));
        let natural = natural_partition(&graph, 3);
        assert_eq!(result.sigma_root, natural.layer(0));
    }

    #[test]
    fn kary_tree_root_converges_to_natural_layer() {
        // beta = 3, arity 4, depth 2: the root's natural layer is 2 and its
        // dependency graph is the whole 21-node tree. Lemma 4.4 requires
        // x >= (beta + 1)^layer = 16 for the game to certify layer 2.
        let graph = generators::complete_kary_tree(4, 2);
        let natural = natural_partition(&graph, 3);
        assert_eq!(natural.layer(0), Layer::Finite(2));
        let result = play(&graph, 0, CoinGameConfig::new(16, 3));
        assert_eq!(result.sigma_root, Layer::Finite(2));
        // Lemma 4.4 precondition holds, so the game must have found the
        // dependency graph's layers exactly.
        assert!(result.explored.len() >= graph.num_nodes() / 2);
    }

    #[test]
    fn sigma_never_underestimates_the_natural_layer() {
        // Lemma 3.13: sigma_{S_v}(v) >= natural layer of v, for every run.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let graph = generators::forest_union(150, 2, &mut rng);
        let beta = 5;
        let natural = natural_partition(&graph, beta);
        for root in (0..graph.num_nodes()).step_by(11) {
            let result = play(&graph, root, CoinGameConfig::new(4, beta));
            assert!(
                result.sigma_root >= natural.layer(root),
                "root {root}: game layer {:?} below natural {:?}",
                result.sigma_root,
                natural.layer(root)
            );
        }
    }

    #[test]
    fn reported_sigma_is_a_valid_partial_partition() {
        // The sparse sigma map returned by the game, read as a partial
        // beta-partition of the whole graph, must satisfy Definition 3.5.
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let graph = generators::preferential_attachment(200, 2, &mut rng);
        let beta = 5;
        for root in (0..graph.num_nodes()).step_by(17) {
            let result = play(&graph, root, CoinGameConfig::new(4, beta));
            let merged = crate::merge::merge_min(graph.num_nodes(), beta, [&result.sigma]);
            assert!(merged.validate(&graph).is_ok(), "root {root}");
        }
    }

    #[test]
    fn query_count_tracks_exploration() {
        let graph = generators::complete_kary_tree(4, 3);
        let result = play(&graph, 0, CoinGameConfig::new(6, 3));
        // Queries = sum over explored nodes of (degree + 1).
        let expected: usize = result.explored.iter().map(|&v| graph.degree(v) + 1).sum();
        assert_eq!(result.queries, expected);
        assert!(result.discovered_edges <= graph.num_edges());
        assert!(result.super_iterations_run <= 36);
    }

    #[test]
    fn query_budget_violations_surface_as_errors() {
        let graph = generators::complete_kary_tree(4, 4);
        let oracle = LcaOracle::with_budget(&graph, 30);
        let outcome = CoinGame::new(&oracle, CoinGameConfig::new(16, 3)).run(0);
        assert!(matches!(
            outcome,
            Err(ModelError::QueryBudgetExceeded { budget: 30 })
        ));
    }

    #[test]
    fn a_reused_scratch_plays_like_a_fresh_one() {
        // A game leaves its state in the scratch; the next game — on the
        // same graph or a smaller one — must not see any of it.
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let large = generators::preferential_attachment(300, 3, &mut rng);
        let small = generators::star(40);
        let config = CoinGameConfig::new(6, 8);
        let mut scratch = CoinGameScratch::default();
        for (graph, roots) in [(&large, 0..300), (&small, 0..40), (&large, 250..300)] {
            let oracle = LcaOracle::new(graph);
            for root in roots.step_by(7) {
                let summary = CoinGame::new(&oracle, config)
                    .play(root, &mut scratch)
                    .unwrap();
                let mut sigma: Vec<(NodeId, usize)> = scratch.sigma().collect();
                sigma.sort_unstable();
                let fresh = play(graph, root, config);
                assert_eq!(sigma, fresh.sigma, "root {root}");
                assert_eq!(summary.sigma_root, fresh.sigma_root);
                assert_eq!(summary.queries, fresh.queries);
                assert_eq!(summary.super_iterations_run, fresh.super_iterations_run);
                assert_eq!(summary.explored, fresh.explored.len());
            }
        }
    }

    #[test]
    fn isolated_node_is_its_own_partition() {
        let graph = CsrGraph::empty(3);
        let result = play(&graph, 1, CoinGameConfig::new(4, 2));
        assert_eq!(result.sigma_root, Layer::Finite(0));
        assert_eq!(result.explored, vec![1]);
        assert_eq!(result.discovered_edges, 0);
    }
}

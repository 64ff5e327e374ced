//! The LCA (Local Computation Algorithm) query oracle.

use std::cell::Cell;

use sparse_graph::{CsrGraph, NodeId};

use crate::error::ModelError;

/// Statistics of an LCA execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LcaStats {
    /// Number of queries issued.
    pub queries: usize,
    /// The budget in force (`usize::MAX` if unbounded).
    pub budget: usize,
}

/// Adjacency-list oracle of the LCA model [RTVX11]: an algorithm may query
/// the degree of a node and the `i`-th entry of its adjacency list, and every
/// such probe is counted.
///
/// The oracle is the access path of the coin-dropping LCA (Section 4); the
/// query bound of Lemma 4.6/4.7 (`x⁶` queries per queried node) is *enforced*
/// when a budget is set, so tests and benchmarks observe violations instead
/// of silently ignoring them.
///
/// # Examples
///
/// ```
/// use ampc_model::LcaOracle;
/// use sparse_graph::CsrGraph;
///
/// let graph = CsrGraph::from_edges(3, [(0, 1), (1, 2)]);
/// let oracle = LcaOracle::new(&graph);
/// assert_eq!(oracle.degree(1)?, 2);
/// assert_eq!(oracle.neighbor(1, 0)?, Some(0));
/// assert_eq!(oracle.queries_used(), 2);
/// # Ok::<(), ampc_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct LcaOracle<'g> {
    graph: &'g CsrGraph,
    queries: Cell<usize>,
    budget: usize,
}

impl<'g> LcaOracle<'g> {
    /// Creates an oracle without a query budget.
    pub fn new(graph: &'g CsrGraph) -> Self {
        LcaOracle {
            graph,
            queries: Cell::new(0),
            budget: usize::MAX,
        }
    }

    /// Creates an oracle that errors once more than `budget` queries are
    /// issued.
    pub fn with_budget(graph: &'g CsrGraph, budget: usize) -> Self {
        LcaOracle {
            graph,
            queries: Cell::new(0),
            budget,
        }
    }

    /// Number of nodes of the underlying graph (global knowledge of `n` is
    /// standard in the LCA model).
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Queries the degree of `v`.
    ///
    /// # Errors
    ///
    /// [`ModelError::QueryBudgetExceeded`] once the budget is exhausted.
    pub fn degree(&self, v: NodeId) -> Result<usize, ModelError> {
        self.charge()?;
        Ok(self.graph.degree(v))
    }

    /// Queries the `i`-th neighbor of `v`; `Ok(None)` if `i >= degree(v)`.
    ///
    /// # Errors
    ///
    /// [`ModelError::QueryBudgetExceeded`] once the budget is exhausted.
    pub fn neighbor(&self, v: NodeId, i: usize) -> Result<Option<NodeId>, ModelError> {
        self.charge()?;
        Ok(self.graph.neighbor(v, i))
    }

    /// Queries the full adjacency list of `v`, charging `degree(v)` queries
    /// (one per adjacency-list entry) plus one for the degree probe. The
    /// list is borrowed from the graph, so exploring a node copies nothing.
    ///
    /// # Errors
    ///
    /// [`ModelError::QueryBudgetExceeded`] when the `1 + degree(v)` queries
    /// do not fit the remaining budget; the call is then not charged at all.
    pub fn neighbors(&self, v: NodeId) -> Result<&'g [NodeId], ModelError> {
        let graph: &'g CsrGraph = self.graph;
        self.charge_many(1 + graph.degree(v))?;
        Ok(graph.neighbors(v))
    }

    /// Number of queries issued so far.
    pub fn queries_used(&self) -> usize {
        self.queries.get()
    }

    /// Remaining budget (or `usize::MAX` if unbounded).
    pub fn queries_remaining(&self) -> usize {
        self.budget.saturating_sub(self.queries.get())
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> LcaStats {
        LcaStats {
            queries: self.queries.get(),
            budget: self.budget,
        }
    }

    /// Resets the query counter (used between independent per-node
    /// executions sharing one oracle).
    pub fn reset_queries(&self) {
        self.queries.set(0);
    }

    fn charge(&self) -> Result<(), ModelError> {
        self.charge_many(1)
    }

    fn charge_many(&self, amount: usize) -> Result<(), ModelError> {
        let used = self.queries.get();
        if used + amount > self.budget {
            return Err(ModelError::QueryBudgetExceeded {
                budget: self.budget,
            });
        }
        self.queries.set(used + amount);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> CsrGraph {
        CsrGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    }

    #[test]
    fn queries_are_counted() {
        let g = star();
        let oracle = LcaOracle::new(&g);
        assert_eq!(oracle.degree(0).unwrap(), 4);
        assert_eq!(oracle.neighbor(0, 2).unwrap(), Some(3));
        assert_eq!(oracle.neighbor(0, 9).unwrap(), None);
        assert_eq!(oracle.queries_used(), 3);
        let all = oracle.neighbors(2).unwrap();
        assert_eq!(all, &[0]);
        assert_eq!(oracle.queries_used(), 3 + 1 + 1);
    }

    #[test]
    fn budget_is_enforced() {
        let g = star();
        let oracle = LcaOracle::with_budget(&g, 2);
        assert!(oracle.degree(0).is_ok());
        assert!(oracle.degree(1).is_ok());
        assert_eq!(
            oracle.degree(2).unwrap_err(),
            ModelError::QueryBudgetExceeded { budget: 2 }
        );
        // The failed query is not charged.
        assert_eq!(oracle.queries_used(), 2);
        assert_eq!(oracle.queries_remaining(), 0);
    }

    #[test]
    fn neighbors_respects_budget_atomically() {
        let g = star();
        let oracle = LcaOracle::with_budget(&g, 3);
        assert!(oracle.degree(4).is_ok());
        // degree probe (1) + 4 adjacency probes > the 2 queries left.
        assert_eq!(
            oracle.neighbors(0).unwrap_err(),
            ModelError::QueryBudgetExceeded { budget: 3 }
        );
        // The failed call charged nothing, not even its degree probe.
        assert_eq!(oracle.queries_used(), 1);
        // What still fits goes through: leaf 1 costs 1 + 1 queries.
        assert_eq!(oracle.neighbors(1).unwrap(), &[0]);
        assert_eq!(oracle.queries_used(), 3);
    }

    #[test]
    fn reset_allows_reuse() {
        let g = star();
        let oracle = LcaOracle::with_budget(&g, 1);
        assert!(oracle.degree(0).is_ok());
        oracle.reset_queries();
        assert!(oracle.degree(1).is_ok());
        assert_eq!(oracle.stats().queries, 1);
        assert_eq!(oracle.stats().budget, 1);
    }
}

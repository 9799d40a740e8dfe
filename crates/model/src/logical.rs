//! Logical query graphs.

use crate::error::ModelError;
use crate::operator::{LogicalOperator, OperatorId, OperatorKind, ResourceProfile};

/// How records flow between the tasks of two connected operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectionPattern {
    /// One-to-one connection between tasks of equal-parallelism operators.
    /// Falls back to [`ConnectionPattern::Rebalance`] if parallelisms differ.
    Forward,
    /// Key-based partitioning: every upstream task connects to every
    /// downstream task and records are routed by key hash.
    Hash,
    /// Round-robin redistribution: every upstream task connects to every
    /// downstream task and records are spread evenly.
    Rebalance,
    /// Every record is replicated to every downstream task.
    Broadcast,
}

/// A directed edge between two logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalEdge {
    /// Upstream operator.
    pub from: OperatorId,
    /// Downstream operator.
    pub to: OperatorId,
    /// Data exchange pattern.
    pub pattern: ConnectionPattern,
}

/// A logical streaming query: a DAG of operators connected by edges.
///
/// Construct with [`LogicalGraphBuilder`] (or [`LogicalGraph::builder`]),
/// which validates the graph on [`LogicalGraphBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalGraph {
    /// Query name, used in reports.
    pub name: String,
    operators: Vec<LogicalOperator>,
    edges: Vec<LogicalEdge>,
    topo_order: Vec<OperatorId>,
}

impl LogicalGraph {
    /// Starts building a logical graph with the given query name.
    pub fn builder(name: impl Into<String>) -> LogicalGraphBuilder {
        LogicalGraphBuilder {
            name: name.into(),
            operators: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// All operators, indexed by [`OperatorId`].
    pub fn operators(&self) -> &[LogicalOperator] {
        &self.operators
    }

    /// The operator with the given id.
    pub fn operator(&self, id: OperatorId) -> &LogicalOperator {
        &self.operators[id.0]
    }

    /// All edges.
    pub fn edges(&self) -> &[LogicalEdge] {
        &self.edges
    }

    /// Number of logical operators (`N_p` in the paper).
    pub fn num_operators(&self) -> usize {
        self.operators.len()
    }

    /// Total number of tasks across all operators.
    pub fn total_tasks(&self) -> usize {
        self.operators.iter().map(|o| o.parallelism).sum()
    }

    /// Operator ids in a topological order of the DAG.
    pub fn topological_order(&self) -> &[OperatorId] {
        &self.topo_order
    }

    /// Ids of all source operators.
    pub fn sources(&self) -> Vec<OperatorId> {
        self.operators
            .iter()
            .enumerate()
            .filter(|(_, o)| o.kind.is_source())
            .map(|(i, _)| OperatorId(i))
            .collect()
    }

    /// Ids of all sink operators (no outgoing edges).
    pub fn sinks(&self) -> Vec<OperatorId> {
        (0..self.operators.len())
            .map(OperatorId)
            .filter(|id| !self.edges.iter().any(|e| e.from == *id))
            .collect()
    }

    /// Incoming edges of an operator.
    pub fn in_edges(&self, id: OperatorId) -> impl Iterator<Item = &LogicalEdge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Outgoing edges of an operator.
    pub fn out_edges(&self, id: OperatorId) -> impl Iterator<Item = &LogicalEdge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Returns a copy of this graph with new per-operator parallelisms.
    ///
    /// `parallelism[i]` applies to operator `i`. This is the hook used by
    /// auto-scaling controllers to re-shape the physical graph.
    pub fn with_parallelism(&self, parallelism: &[usize]) -> Result<LogicalGraph, ModelError> {
        if parallelism.len() != self.operators.len() {
            return Err(ModelError::InvalidParameter(format!(
                "expected {} parallelism entries, got {}",
                self.operators.len(),
                parallelism.len()
            )));
        }
        let mut g = self.clone();
        for (op, &p) in g.operators.iter_mut().zip(parallelism) {
            if p == 0 {
                return Err(ModelError::ZeroParallelism(op.name.clone()));
            }
            op.parallelism = p;
        }
        Ok(g)
    }

    /// Current per-operator parallelism vector.
    pub fn parallelism_vector(&self) -> Vec<usize> {
        self.operators.iter().map(|o| o.parallelism).collect()
    }

    /// Looks up an operator id by name.
    pub fn operator_by_name(&self, name: &str) -> Option<OperatorId> {
        self.operators
            .iter()
            .position(|o| o.name == name)
            .map(OperatorId)
    }
}

/// Incremental builder for [`LogicalGraph`].
#[derive(Debug, Clone)]
pub struct LogicalGraphBuilder {
    name: String,
    operators: Vec<LogicalOperator>,
    edges: Vec<LogicalEdge>,
}

impl LogicalGraphBuilder {
    /// Adds an operator and returns its id.
    pub fn operator(
        &mut self,
        name: impl Into<String>,
        kind: OperatorKind,
        parallelism: usize,
        profile: ResourceProfile,
    ) -> OperatorId {
        let id = OperatorId(self.operators.len());
        self.operators
            .push(LogicalOperator::new(name, kind, parallelism, profile));
        id
    }

    /// Adds an edge between two operators.
    pub fn edge(&mut self, from: OperatorId, to: OperatorId, pattern: ConnectionPattern) {
        self.edges.push(LogicalEdge { from, to, pattern });
    }

    /// Validates and finalizes the graph.
    ///
    /// Checks that: every edge references existing operators, there are no
    /// duplicate edges, every operator has non-zero parallelism, the graph
    /// is acyclic, at least one source exists, and every non-source
    /// operator is reachable from an upstream operator.
    pub fn build(self) -> Result<LogicalGraph, ModelError> {
        let n = self.operators.len();
        for e in &self.edges {
            if e.from.0 >= n {
                return Err(ModelError::UnknownOperator(e.from.0));
            }
            if e.to.0 >= n {
                return Err(ModelError::UnknownOperator(e.to.0));
            }
        }
        for (i, a) in self.edges.iter().enumerate() {
            for b in &self.edges[i + 1..] {
                if a.from == b.from && a.to == b.to {
                    return Err(ModelError::DuplicateEdge(a.from.0, a.to.0));
                }
            }
        }
        for op in &self.operators {
            if op.parallelism == 0 {
                return Err(ModelError::ZeroParallelism(op.name.clone()));
            }
        }
        if !self.operators.iter().any(|o| o.kind.is_source()) {
            return Err(ModelError::NoSource);
        }
        for (i, op) in self.operators.iter().enumerate() {
            let has_in = self.edges.iter().any(|e| e.to.0 == i);
            if !op.kind.is_source() && !has_in {
                return Err(ModelError::DisconnectedOperator(op.name.clone()));
            }
        }
        let topo_order = topological_sort(n, &self.edges)?;
        Ok(LogicalGraph {
            name: self.name,
            operators: self.operators,
            edges: self.edges,
            topo_order,
        })
    }
}

/// Kahn's algorithm; fails with [`ModelError::CyclicGraph`] on cycles.
fn topological_sort(n: usize, edges: &[LogicalEdge]) -> Result<Vec<OperatorId>, ModelError> {
    let mut in_deg = vec![0usize; n];
    for e in edges {
        in_deg[e.to.0] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(OperatorId(v));
        for e in edges.iter().filter(|e| e.from.0 == v) {
            in_deg[e.to.0] -= 1;
            if in_deg[e.to.0] == 0 {
                queue.push(e.to.0);
            }
        }
    }
    if order.len() != n {
        return Err(ModelError::CyclicGraph);
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_graph() -> LogicalGraph {
        let mut b = LogicalGraph::builder("test");
        let src = b.operator("source", OperatorKind::Source, 2, ResourceProfile::zero());
        let map = b.operator("map", OperatorKind::Stateless, 3, ResourceProfile::zero());
        let sink = b.operator("sink", OperatorKind::Sink, 1, ResourceProfile::zero());
        b.edge(src, map, ConnectionPattern::Rebalance);
        b.edge(map, sink, ConnectionPattern::Hash);
        b.build().unwrap()
    }

    #[test]
    fn builds_valid_linear_graph() {
        let g = linear_graph();
        assert_eq!(g.num_operators(), 3);
        assert_eq!(g.total_tasks(), 6);
        assert_eq!(g.sources(), vec![OperatorId(0)]);
        assert_eq!(g.sinks(), vec![OperatorId(2)]);
        assert_eq!(g.operator_by_name("map"), Some(OperatorId(1)));
        assert_eq!(g.operator_by_name("missing"), None);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = linear_graph();
        let order = g.topological_order();
        let pos = |id: OperatorId| order.iter().position(|&o| o == id).unwrap();
        for e in g.edges() {
            assert!(pos(e.from) < pos(e.to), "edge {e:?} violated");
        }
    }

    #[test]
    fn rejects_cycles() {
        let mut b = LogicalGraph::builder("cyclic");
        let a = b.operator("a", OperatorKind::Source, 1, ResourceProfile::zero());
        let c = b.operator("c", OperatorKind::Stateless, 1, ResourceProfile::zero());
        let d = b.operator("d", OperatorKind::Stateless, 1, ResourceProfile::zero());
        b.edge(a, c, ConnectionPattern::Forward);
        b.edge(c, d, ConnectionPattern::Forward);
        b.edge(d, c, ConnectionPattern::Forward);
        assert_eq!(b.build().unwrap_err(), ModelError::CyclicGraph);
    }

    #[test]
    fn rejects_unknown_operator_edge() {
        let mut b = LogicalGraph::builder("bad");
        let a = b.operator("a", OperatorKind::Source, 1, ResourceProfile::zero());
        b.edge(a, OperatorId(9), ConnectionPattern::Forward);
        assert_eq!(b.build().unwrap_err(), ModelError::UnknownOperator(9));
    }

    #[test]
    fn rejects_zero_parallelism() {
        let mut b = LogicalGraph::builder("bad");
        b.operator("a", OperatorKind::Source, 0, ResourceProfile::zero());
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::ZeroParallelism(_)
        ));
    }

    #[test]
    fn rejects_missing_source() {
        let mut b = LogicalGraph::builder("bad");
        b.operator("a", OperatorKind::Stateless, 1, ResourceProfile::zero());
        // The operator is also disconnected, but the no-source check fires first.
        assert_eq!(b.build().unwrap_err(), ModelError::NoSource);
    }

    #[test]
    fn rejects_disconnected_operator() {
        let mut b = LogicalGraph::builder("bad");
        b.operator("src", OperatorKind::Source, 1, ResourceProfile::zero());
        b.operator("lonely", OperatorKind::Sink, 1, ResourceProfile::zero());
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::DisconnectedOperator(_)
        ));
    }

    #[test]
    fn rejects_duplicate_edges() {
        let mut b = LogicalGraph::builder("bad");
        let a = b.operator("a", OperatorKind::Source, 1, ResourceProfile::zero());
        let c = b.operator("c", OperatorKind::Sink, 1, ResourceProfile::zero());
        b.edge(a, c, ConnectionPattern::Forward);
        b.edge(a, c, ConnectionPattern::Hash);
        assert_eq!(b.build().unwrap_err(), ModelError::DuplicateEdge(0, 1));
    }

    #[test]
    fn with_parallelism_rescales() {
        let g = linear_graph();
        let g2 = g.with_parallelism(&[4, 8, 2]).unwrap();
        assert_eq!(g2.total_tasks(), 14);
        assert_eq!(g2.parallelism_vector(), vec![4, 8, 2]);
        // Original untouched.
        assert_eq!(g.total_tasks(), 6);
    }

    #[test]
    fn with_parallelism_rejects_bad_input() {
        let g = linear_graph();
        assert!(g.with_parallelism(&[1, 2]).is_err());
        assert!(g.with_parallelism(&[1, 0, 1]).is_err());
    }

    #[test]
    fn diamond_graph_in_out_edges() {
        let mut b = LogicalGraph::builder("diamond");
        let s = b.operator("s", OperatorKind::Source, 1, ResourceProfile::zero());
        let l = b.operator("l", OperatorKind::Stateless, 1, ResourceProfile::zero());
        let r = b.operator("r", OperatorKind::Stateless, 1, ResourceProfile::zero());
        let k = b.operator("k", OperatorKind::Sink, 1, ResourceProfile::zero());
        b.edge(s, l, ConnectionPattern::Rebalance);
        b.edge(s, r, ConnectionPattern::Rebalance);
        b.edge(l, k, ConnectionPattern::Hash);
        b.edge(r, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        assert_eq!(g.out_edges(s).count(), 2);
        assert_eq!(g.in_edges(k).count(), 2);
        assert_eq!(g.sinks(), vec![k]);
    }
}

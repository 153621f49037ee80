//! Operator-DAG query plans.
//!
//! A [`Plan`] is a directed acyclic graph of operators.  Edges connect an
//! output port of one operator to an input port of another; the executor
//! materialises one queue per input port.  A shared multi-query plan is a DAG
//! with one sink per registered query (Section 2 of the paper).

use std::collections::HashMap;

use crate::error::{Result, StreamError};
use crate::operator::{Operator, PortId};
use crate::ops::slice_join::{SliceChain, SliceRef};
use crate::ops::SinkOp;

/// Identifier of a node inside a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A directed edge between two operator ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Source output port.
    pub from_port: PortId,
    /// Destination node.
    pub to: NodeId,
    /// Destination input port.
    pub to_port: PortId,
}

/// One operator instance inside a plan.
pub struct PlanNode {
    /// Node id (index into the plan's node list).
    pub id: NodeId,
    /// The operator.
    pub operator: Box<dyn Operator>,
}

impl std::fmt::Debug for PlanNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanNode")
            .field("id", &self.id)
            .field("operator", &self.operator.name())
            .finish()
    }
}

/// Builder for [`Plan`]s.
#[derive(Default)]
pub struct PlanBuilder {
    nodes: Vec<PlanNode>,
    edges: Vec<Edge>,
    entries: HashMap<String, (NodeId, PortId)>,
}

impl PlanBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PlanBuilder::default()
    }

    /// Add an operator, returning its node id.
    pub fn add(&mut self, operator: Box<dyn Operator>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(PlanNode { id, operator });
        id
    }

    /// Add an operator (generic convenience).
    pub fn add_op<O: Operator + 'static>(&mut self, operator: O) -> NodeId {
        self.add(Box::new(operator))
    }

    /// Connect `from.from_port` to `to.to_port`.
    pub fn connect(&mut self, from: NodeId, from_port: PortId, to: NodeId, to_port: PortId) {
        self.edges.push(Edge {
            from,
            from_port,
            to,
            to_port,
        });
    }

    /// Register a named external entry point feeding `node.port`.
    pub fn entry(&mut self, name: impl Into<String>, node: NodeId, port: PortId) {
        self.entries.insert(name.into(), (node, port));
    }

    /// Validate and build the plan.
    pub fn build(self) -> Result<Plan> {
        let PlanBuilder {
            nodes,
            edges,
            entries,
        } = self;
        // Port bounds.
        for e in &edges {
            let from = nodes
                .get(e.from.0)
                .ok_or(StreamError::UnknownNode(e.from.0))?;
            let to = nodes.get(e.to.0).ok_or(StreamError::UnknownNode(e.to.0))?;
            if e.from_port >= from.operator.num_output_ports() {
                return Err(StreamError::PlanValidation(format!(
                    "edge from '{}' uses output port {} but the operator has {} output ports",
                    from.operator.name(),
                    e.from_port,
                    from.operator.num_output_ports()
                )));
            }
            if e.to_port >= to.operator.num_input_ports() {
                return Err(StreamError::PlanValidation(format!(
                    "edge into '{}' uses input port {} but the operator has {} input ports",
                    to.operator.name(),
                    e.to_port,
                    to.operator.num_input_ports()
                )));
            }
        }
        for (name, (node, port)) in &entries {
            let n = nodes.get(node.0).ok_or(StreamError::UnknownNode(node.0))?;
            if *port >= n.operator.num_input_ports() {
                return Err(StreamError::PlanValidation(format!(
                    "entry '{name}' uses input port {port} but '{}' has {} input ports",
                    n.operator.name(),
                    n.operator.num_input_ports()
                )));
            }
        }
        let plan = Plan {
            nodes,
            edges,
            entries,
        };
        plan.topological_order()?; // cycle check
        Ok(plan)
    }
}

/// A validated operator DAG.
pub struct Plan {
    nodes: Vec<PlanNode>,
    edges: Vec<Edge>,
    entries: HashMap<String, (NodeId, PortId)>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("nodes", &self.nodes.len())
            .field("edges", &self.edges.len())
            .field("entries", &self.entries.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Plan {
    /// Start building a plan.
    pub fn builder() -> PlanBuilder {
        PlanBuilder::new()
    }

    /// Number of operator nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> Result<&PlanNode> {
        self.nodes.get(id.0).ok_or(StreamError::UnknownNode(id.0))
    }

    /// Resolve a named entry point.
    pub fn entry(&self, name: &str) -> Result<(NodeId, PortId)> {
        self.entries
            .get(name)
            .copied()
            .ok_or_else(|| StreamError::UnknownEntry(name.to_string()))
    }

    /// Names of all entry points.
    pub fn entry_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.entries.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Downstream destinations of `(node, out_port)`.
    pub fn downstream(&self, from: NodeId, from_port: PortId) -> Vec<(NodeId, PortId)> {
        self.edges
            .iter()
            .filter(|e| e.from == from && e.from_port == from_port)
            .map(|e| (e.to, e.to_port))
            .collect()
    }

    /// Every sink operator, in node order.
    pub fn sinks(&self) -> impl Iterator<Item = &SinkOp> {
        self.nodes.iter().filter_map(|n| n.operator.as_sink())
    }

    /// Immutable access to a sink operator by name.
    pub fn sink(&self, name: &str) -> Option<&SinkOp> {
        self.sinks().find(|sink| sink.name() == name)
    }

    /// Every slice join, in node order (a chain's slices in chain order).
    pub fn slice_joins(&self) -> impl Iterator<Item = SliceRef<'_>> {
        self.slice_chains().flat_map(SliceChain::iter)
    }

    /// Every node's slices with their stores, in node order.
    pub fn slice_chains(&self) -> impl Iterator<Item = &SliceChain> {
        self.nodes.iter().filter_map(|n| n.operator.slice_chain())
    }

    /// Every node's slices with their stores, mutably, in node order.
    pub fn slice_chains_mut(&mut self) -> impl Iterator<Item = &mut SliceChain> {
        self.nodes
            .iter_mut()
            .filter_map(|n| n.operator.slice_chain_mut())
    }

    /// Internal mutable access to the node list (used by the executor to
    /// drive operators while keeping the public API immutable).
    pub(crate) fn nodes_mut_internal(&mut self) -> &mut [PlanNode] {
        &mut self.nodes
    }

    /// A topological order over the nodes; fails if the graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.from.0].push(e.to.0);
            indegree[e.to.0] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(next) = ready.pop() {
            order.push(NodeId(next));
            for &succ in &adj[next] {
                indegree[succ] -= 1;
                if indegree[succ] == 0 {
                    ready.push(succ);
                }
            }
        }
        if order.len() != n {
            return Err(StreamError::PlanValidation(
                "plan graph contains a cycle".to_string(),
            ));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SelectOp, SinkOp, UnionOp};
    use crate::predicate::Predicate;

    #[test]
    fn build_connect_and_query_structure() {
        let mut b = Plan::builder();
        let sel = b.add_op(SelectOp::new("sigma", Predicate::True));
        let union = b.add_op(UnionOp::new("union", 2));
        let sink = b.add_op(SinkOp::new("q1"));
        b.connect(sel, 0, union, 0);
        b.connect(union, 0, sink, 0);
        b.entry("A", sel, 0);
        let plan = b.build().unwrap();
        assert_eq!(plan.num_nodes(), 3);
        assert_eq!(plan.edges().len(), 2);
        assert_eq!(plan.entry("A").unwrap(), (sel, 0));
        assert!(plan.entry("missing").is_err());
        assert_eq!(plan.entry_names(), vec!["A"]);
        assert_eq!(plan.downstream(sel, 0), vec![(union, 0)]);
        assert_eq!(plan.downstream(sink, 0), vec![]);
        assert_eq!(plan.sinks().count(), 1);
        assert!(plan.sink("q1").is_some());
        assert!(plan.sink("sigma").is_none());
        assert!(plan.node(sink).is_ok());
        assert!(plan.node(NodeId(99)).is_err());
        let order = plan.topological_order().unwrap();
        assert_eq!(order.len(), 3);
        let pos = |id: NodeId| order.iter().position(|&n| n == id).unwrap();
        assert!(pos(sel) < pos(union));
        assert!(pos(union) < pos(sink));
    }

    #[test]
    fn invalid_output_port_is_rejected() {
        let mut b = Plan::builder();
        let sel = b.add_op(SelectOp::new("sigma", Predicate::True));
        let sink = b.add_op(SinkOp::new("q1"));
        b.connect(sel, 5, sink, 0);
        assert!(matches!(b.build(), Err(StreamError::PlanValidation(_))));
    }

    #[test]
    fn invalid_input_port_is_rejected() {
        let mut b = Plan::builder();
        let sel = b.add_op(SelectOp::new("sigma", Predicate::True));
        let sink = b.add_op(SinkOp::new("q1"));
        b.connect(sel, 0, sink, 3);
        assert!(b.build().is_err());
    }

    #[test]
    fn invalid_entry_port_is_rejected() {
        let mut b = Plan::builder();
        let sel = b.add_op(SelectOp::new("sigma", Predicate::True));
        b.entry("A", sel, 9);
        assert!(b.build().is_err());
    }

    #[test]
    fn cycles_are_rejected() {
        let mut b = Plan::builder();
        let s1 = b.add_op(SelectOp::new("s1", Predicate::True));
        let s2 = b.add_op(SelectOp::new("s2", Predicate::True));
        b.connect(s1, 0, s2, 0);
        b.connect(s2, 0, s1, 0);
        assert!(matches!(b.build(), Err(StreamError::PlanValidation(m)) if m.contains("cycle")));
    }

    #[test]
    fn edge_to_unknown_node_is_rejected() {
        let mut b = Plan::builder();
        let s1 = b.add_op(SelectOp::new("s1", Predicate::True));
        b.connect(s1, 0, NodeId(42), 0);
        assert!(matches!(b.build(), Err(StreamError::UnknownNode(42))));
    }
}

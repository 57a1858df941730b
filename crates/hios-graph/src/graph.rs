//! The computation DAG and its builder.

use crate::id::OpId;
use crate::op::OpKind;
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One operator (vertex) of the computation graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node {
    /// Dense id of the operator.
    pub id: OpId,
    /// Human-readable name ("mixed5b/branch3x3/conv", ...).
    pub name: String,
    /// Typed operator payload.
    pub kind: OpKind,
    /// Output tensor shape.
    pub output_shape: TensorShape,
}

/// Errors raised while constructing or mutating a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An operator id referenced a vertex that does not exist.
    UnknownOp(OpId),
    /// The operator kind rejected the input shapes.
    ShapeMismatch {
        /// Name of the offending operator.
        op: String,
        /// Shapes it was offered.
        inputs: Vec<TensorShape>,
    },
    /// Adding the edge would create a cycle.
    WouldCycle(OpId, OpId),
    /// The edge already exists.
    DuplicateEdge(OpId, OpId),
    /// Self-loops are not allowed in a DAG.
    SelfLoop(OpId),
    /// `Input` nodes carry their own shape and take no predecessors.
    InputHasPredecessors(OpId),
    /// A deserialized graph violates a structural invariant (dangling
    /// ids, mismatched adjacency mirrors, cycles, ...).
    Corrupt(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownOp(v) => write!(f, "unknown operator {v}"),
            GraphError::ShapeMismatch { op, inputs } => {
                write!(f, "operator `{op}` rejects input shapes {inputs:?}")
            }
            GraphError::WouldCycle(u, v) => write!(f, "edge {u} -> {v} would create a cycle"),
            GraphError::DuplicateEdge(u, v) => write!(f, "edge {u} -> {v} already exists"),
            GraphError::SelfLoop(v) => write!(f, "self loop on {v}"),
            GraphError::InputHasPredecessors(v) => {
                write!(f, "input operator {v} cannot have predecessors")
            }
            GraphError::Corrupt(why) => write!(f, "corrupt graph: {why}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable directed acyclic computation graph.
///
/// Vertices are operators, edges are tensor dependencies (paper §III-A).
/// Adjacency is stored both forward and backward so schedulers can walk
/// either direction in O(degree).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    nodes: Vec<Node>,
    succs: Vec<Vec<OpId>>,
    preds: Vec<Vec<OpId>>,
}

impl Graph {
    /// Number of operators `|V|`.
    pub fn num_ops(&self) -> usize {
        self.nodes.len()
    }

    /// Number of dependencies `|E|`.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// True when the graph has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The operator with the given id.
    ///
    /// # Panics
    /// Panics when `id` is out of range; ids obtained from this graph are
    /// always valid.
    pub fn node(&self, id: OpId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All operators in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterator over all operator ids in id order.
    pub fn op_ids(&self) -> impl ExactSizeIterator<Item = OpId> + Clone + use<> {
        (0..self.nodes.len() as u32).map(OpId)
    }

    /// Direct successors of `v` (consumers of its output tensor).
    pub fn succs(&self, v: OpId) -> &[OpId] {
        &self.succs[v.index()]
    }

    /// Direct predecessors of `v` (producers of its input tensors).
    pub fn preds(&self, v: OpId) -> &[OpId] {
        &self.preds[v.index()]
    }

    /// Iterator over every edge `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (OpId, OpId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (OpId::from_index(u), v)))
    }

    /// True when the direct edge `u -> v` exists.
    pub fn has_edge(&self, u: OpId, v: OpId) -> bool {
        self.succs[u.index()].contains(&v)
    }

    /// Input shapes of `v`, in predecessor order.
    pub fn input_shapes(&self, v: OpId) -> Vec<TensorShape> {
        self.preds(v)
            .iter()
            .map(|&u| self.node(u).output_shape)
            .collect()
    }

    /// Operators with no predecessors.
    pub fn sources(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&v| self.preds(v).is_empty())
            .collect()
    }

    /// Operators with no successors.
    pub fn sinks(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&v| self.succs(v).is_empty())
            .collect()
    }

    /// FLOPs of operator `v` (see [`OpKind::flops`]).
    pub fn flops(&self, v: OpId) -> u64 {
        let node = self.node(v);
        node.kind.flops(&self.input_shapes(v), &node.output_shape)
    }

    /// DRAM traffic of operator `v` in bytes (see [`OpKind::dram_bytes`]).
    pub fn dram_bytes(&self, v: OpId) -> u64 {
        let node = self.node(v);
        node.kind
            .dram_bytes(&self.input_shapes(v), &node.output_shape)
    }

    /// Bytes transferred along edge `(u, v)`: the producer's output tensor.
    pub fn edge_bytes(&self, u: OpId, _v: OpId) -> u64 {
        self.node(u).output_shape.bytes()
    }

    /// Total FLOPs of the whole model.
    pub fn total_flops(&self) -> u64 {
        self.op_ids().map(|v| self.flops(v)).sum()
    }

    /// True when there is a directed path from `u` to `v` (including
    /// `u == v`). O(|V| + |E|) BFS; used by tests and the window scheduler's
    /// brute-force cross-checks.
    pub fn reaches(&self, u: OpId, v: OpId) -> bool {
        if u == v {
            return true;
        }
        let mut seen = vec![false; self.num_ops()];
        let mut stack = vec![u];
        seen[u.index()] = true;
        while let Some(x) = stack.pop() {
            for &w in self.succs(x) {
                if w == v {
                    return true;
                }
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    /// Verifies the structural invariants the builder normally guarantees:
    /// adjacency vectors sized to the node count, every referenced id in
    /// range, `preds` an exact mirror of `succs`, node ids matching their
    /// position, no self-loops or duplicate edges, and acyclicity.
    ///
    /// Graphs built through [`GraphBuilder`] always pass; this exists for
    /// graphs deserialized from external files, whose bytes can encode
    /// states the builder would have rejected (see [`crate::json`]).
    pub fn check_consistency(&self) -> Result<(), GraphError> {
        let n = self.nodes.len();
        let corrupt = |why: String| Err(GraphError::Corrupt(why));
        if self.succs.len() != n || self.preds.len() != n {
            return corrupt(format!(
                "adjacency sized {}/{} for {n} nodes",
                self.succs.len(),
                self.preds.len()
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id.index() != i {
                return corrupt(format!("node at position {i} carries id {}", node.id));
            }
        }
        // Mirror check: count each directed edge from both sides.
        let mut indeg = vec![0usize; n];
        for (u, vs) in self.succs.iter().enumerate() {
            for &v in vs {
                if v.index() >= n {
                    return corrupt(format!("edge v{u} -> {v} leaves the graph"));
                }
                if v.index() == u {
                    return corrupt(format!("self loop on v{u}"));
                }
                if !self.preds[v.index()].contains(&OpId::from_index(u)) {
                    return corrupt(format!("edge v{u} -> {v} missing from preds"));
                }
                indeg[v.index()] += 1;
            }
        }
        let pred_edges: usize = self.preds.iter().map(Vec::len).sum();
        if pred_edges != indeg.iter().sum::<usize>() {
            return corrupt("preds holds edges absent from succs".into());
        }
        for (v, us) in self.preds.iter().enumerate() {
            for &u in us {
                if u.index() >= n {
                    return corrupt(format!("pred edge {u} -> v{v} leaves the graph"));
                }
            }
            let mut sorted: Vec<OpId> = us.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return corrupt(format!("duplicate edge into v{v}"));
            }
        }
        // Kahn's algorithm: every node must be reachable from a source.
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in &self.succs[u] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v.index());
                }
            }
        }
        if seen != n {
            return corrupt(format!("{} nodes sit on a cycle", n - seen));
        }
        Ok(())
    }
}

/// Incremental builder for [`Graph`].
///
/// Operators must be added after their inputs, which makes the result
/// acyclic by construction; [`GraphBuilder::add_edge`] additionally allows
/// wiring extra dependencies (used by the random generator) with an explicit
/// cycle check.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    succs: Vec<Vec<OpId>>,
    preds: Vec<Vec<OpId>>,
    /// Some accepted edge runs from a higher operator index to a lower
    /// one.  While none does, every path climbs in index, so an edge that
    /// climbs too cannot close a cycle and needs no search.
    has_descending_edge: bool,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operators added so far.
    pub fn num_ops(&self) -> usize {
        self.nodes.len()
    }

    /// Adds a graph input with the given activation shape.
    pub fn input(&mut self, name: impl Into<String>, shape: TensorShape) -> OpId {
        self.push_node(name.into(), OpKind::Input, shape)
    }

    /// Adds an operator consuming the outputs of `inputs`, inferring its
    /// output shape.
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: &[OpId],
    ) -> Result<OpId, GraphError> {
        let name = name.into();
        for &u in inputs {
            if u.index() >= self.nodes.len() {
                return Err(GraphError::UnknownOp(u));
            }
        }
        if matches!(kind, OpKind::Input) && !inputs.is_empty() {
            return Err(GraphError::InputHasPredecessors(OpId::from_index(
                self.nodes.len(),
            )));
        }
        let in_shapes: Vec<TensorShape> = inputs
            .iter()
            .map(|&u| self.nodes[u.index()].output_shape)
            .collect();
        let out_shape = if matches!(kind, OpKind::Synthetic) && inputs.is_empty() {
            TensorShape::new(1, 1, 1, 1)
        } else {
            kind.infer_shape(&in_shapes)
                .ok_or(GraphError::ShapeMismatch {
                    op: name.clone(),
                    inputs: in_shapes,
                })?
        };
        let v = self.push_node(name, kind, out_shape);
        for &u in inputs {
            self.succs[u.index()].push(v);
            self.preds[v.index()].push(u);
        }
        Ok(v)
    }

    /// Adds a synthetic operator (random-DAG generator); never fails on
    /// shapes.
    pub fn add_synthetic(&mut self, name: impl Into<String>, inputs: &[OpId]) -> OpId {
        let v = self.push_node(name.into(), OpKind::Synthetic, TensorShape::new(1, 1, 1, 1));
        for &u in inputs {
            assert!(
                u.index() < v.index(),
                "synthetic inputs must precede the op"
            );
            self.succs[u.index()].push(v);
            self.preds[v.index()].push(u);
        }
        v
    }

    /// Adds an extra dependency `u -> v` between existing operators.
    ///
    /// Rejects unknown endpoints, self-loops, duplicates and edges that
    /// would create a cycle.
    pub fn add_edge(&mut self, u: OpId, v: OpId) -> Result<(), GraphError> {
        if u.index() >= self.nodes.len() {
            return Err(GraphError::UnknownOp(u));
        }
        if v.index() >= self.nodes.len() {
            return Err(GraphError::UnknownOp(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if self.succs[u.index()].contains(&v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let descends = u.index() > v.index();
        if (descends || self.has_descending_edge) && self.path_exists(v, u) {
            return Err(GraphError::WouldCycle(u, v));
        }
        self.has_descending_edge |= descends;
        self.succs[u.index()].push(v);
        self.preds[v.index()].push(u);
        Ok(())
    }

    /// Output shape of an operator already added to this builder (useful
    /// for builders whose wiring depends on intermediate shapes, e.g.
    /// NASNet's factorized reductions).
    ///
    /// # Panics
    /// Panics when `v` has not been added yet.
    pub fn peek_shape(&self, v: OpId) -> TensorShape {
        self.nodes[v.index()].output_shape
    }

    /// Finalizes the graph.
    pub fn build(self) -> Graph {
        Graph {
            nodes: self.nodes,
            succs: self.succs,
            preds: self.preds,
        }
    }

    fn push_node(&mut self, name: String, kind: OpKind, shape: TensorShape) -> OpId {
        let id = OpId::from_index(self.nodes.len());
        self.nodes.push(Node {
            id,
            name,
            kind,
            output_shape: shape,
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    fn path_exists(&self, from: OpId, to: OpId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            for &w in &self.succs[x.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Activation, PoolKind};

    fn conv(out_c: u32) -> OpKind {
        OpKind::Conv2d {
            out_channels: out_c,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 1,
            activation: Activation::Relu,
        }
    }

    /// input -> conv -> {pool, conv} -> concat
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", TensorShape::new(1, 3, 32, 32));
        let c1 = b.add_op("c1", conv(16), &[x]).unwrap();
        let p = b
            .add_op(
                "p",
                OpKind::Pool {
                    kind: PoolKind::Max,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: (1, 1),
                },
                &[c1],
            )
            .unwrap();
        let c2 = b.add_op("c2", conv(16), &[c1]).unwrap();
        b.add_op("cat", OpKind::Concat, &[p, c2]).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_adjacency() {
        let g = diamond();
        assert_eq!(g.num_ops(), 5);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.succs(OpId(1)).len(), 2);
        assert_eq!(g.preds(OpId(4)).len(), 2);
        assert_eq!(g.sources(), vec![OpId(0)]);
        assert_eq!(g.sinks(), vec![OpId(4)]);
    }

    #[test]
    fn shape_inference_through_graph() {
        let g = diamond();
        assert_eq!(
            g.node(OpId(4)).output_shape,
            TensorShape::new(1, 32, 32, 32)
        );
    }

    #[test]
    fn edges_iterator_matches_counts() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        assert!(edges.contains(&(OpId(1), OpId(2))));
        assert!(g.has_edge(OpId(1), OpId(2)));
        assert!(!g.has_edge(OpId(2), OpId(1)));
    }

    #[test]
    fn reaches_is_transitive() {
        let g = diamond();
        assert!(g.reaches(OpId(0), OpId(4)));
        assert!(g.reaches(OpId(2), OpId(2)));
        assert!(!g.reaches(OpId(2), OpId(3)));
        assert!(!g.reaches(OpId(4), OpId(0)));
    }

    #[test]
    fn builder_rejects_unknown_input() {
        let mut b = GraphBuilder::new();
        let err = b.add_op("c", conv(8), &[OpId(7)]).unwrap_err();
        assert_eq!(err, GraphError::UnknownOp(OpId(7)));
    }

    #[test]
    fn builder_rejects_bad_shapes() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", TensorShape::new(1, 3, 32, 32));
        let y = b.input("y", TensorShape::new(1, 4, 32, 32));
        let err = b.add_op("add", OpKind::Add, &[x, y]).unwrap_err();
        assert!(matches!(err, GraphError::ShapeMismatch { .. }));
    }

    #[test]
    fn add_edge_detects_cycles_and_duplicates() {
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let c = b.add_synthetic("c", &[a]);
        let d = b.add_synthetic("d", &[c]);
        assert_eq!(b.add_edge(d, a), Err(GraphError::WouldCycle(d, a)));
        assert_eq!(b.add_edge(a, c), Err(GraphError::DuplicateEdge(a, c)));
        assert_eq!(b.add_edge(a, a), Err(GraphError::SelfLoop(a)));
        assert!(b.add_edge(a, d).is_ok());
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
    }

    /// What `add_edge(u, v)` must answer on `n` operators joined by
    /// `edges`, by the definition alone: reachability is the fixpoint of
    /// relaxing every edge, with no index reasoning.
    fn naive_add_edge(
        n: usize,
        edges: &[(usize, usize)],
        u: usize,
        v: usize,
    ) -> Result<(), GraphError> {
        let (ou, ov) = (OpId::from_index(u), OpId::from_index(v));
        if u >= n {
            return Err(GraphError::UnknownOp(ou));
        }
        if v >= n {
            return Err(GraphError::UnknownOp(ov));
        }
        if u == v {
            return Err(GraphError::SelfLoop(ou));
        }
        if edges.contains(&(u, v)) {
            return Err(GraphError::DuplicateEdge(ou, ov));
        }
        let mut from_v = vec![false; n];
        from_v[v] = true;
        loop {
            let before = from_v.iter().filter(|&&r| r).count();
            for &(a, b) in edges {
                from_v[b] |= from_v[a];
            }
            if from_v.iter().filter(|&&r| r).count() == before {
                break;
            }
        }
        if from_v[u] {
            return Err(GraphError::WouldCycle(ou, ov));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// Random `add_edge` sequences — index-climbing, descending,
        /// duplicate, self-loop, out-of-range and cycle-closing, in every
        /// mix from all-climbing (the search is never run) to none —
        /// answer and build exactly what the naive checker says.
        #[test]
        fn add_edge_matches_a_naive_reachability_checker(
            (seed, n, calls, climbing_pct) in
                (0u64..u64::MAX, 2usize..12, 1usize..80, 0u64..=100)
        ) {
            let mut rng = proptest::test_runner::TestRng::for_case("add_edge", seed);
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_synthetic(format!("v{i}"), &[]);
            }
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for _ in 0..calls {
                let replay =
                    (!edges.is_empty()).then(|| edges[rng.below(edges.len() as u64) as usize]);
                let (u, v) = match (rng.below(100), replay) {
                    // Re-issue an accepted edge, or its reverse.
                    (0..=9, Some((a, b))) => (a, b),
                    (10..=19, Some((a, b))) => (b, a),
                    (roll, _) if roll < climbing_pct => {
                        let v = 1 + rng.below(n as u64 - 1) as usize;
                        (rng.below(v as u64) as usize, v)
                    }
                    // Anything, one id past the end included.
                    _ => (
                        rng.below(n as u64 + 1) as usize,
                        rng.below(n as u64 + 1) as usize,
                    ),
                };
                let want = naive_add_edge(n, &edges, u, v);
                proptest::prop_assert_eq!(
                    b.add_edge(OpId::from_index(u), OpId::from_index(v)),
                    want.clone()
                );
                if want.is_ok() {
                    edges.push((u, v));
                }
            }
            let g = b.build();
            proptest::prop_assert!(g.check_consistency().is_ok());
            for x in 0..n {
                let at = OpId::from_index;
                let succs: Vec<OpId> =
                    edges.iter().filter(|e| e.0 == x).map(|e| at(e.1)).collect();
                let preds: Vec<OpId> =
                    edges.iter().filter(|e| e.1 == x).map(|e| at(e.0)).collect();
                proptest::prop_assert_eq!(g.succs(at(x)), &succs[..]);
                proptest::prop_assert_eq!(g.preds(at(x)), &preds[..]);
            }
        }
    }

    #[test]
    fn flops_accumulate() {
        let g = diamond();
        assert!(g.total_flops() > 0);
        assert_eq!(g.flops(OpId(0)), 0, "inputs carry no compute");
        assert!(g.edge_bytes(OpId(1), OpId(2)) > 0);
    }

    #[test]
    fn graph_serde_round_trip() {
        let g = diamond();
        let s = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&s).unwrap();
        assert_eq!(back.num_ops(), g.num_ops());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(
            back.node(OpId(4)).output_shape,
            g.node(OpId(4)).output_shape
        );
    }
}

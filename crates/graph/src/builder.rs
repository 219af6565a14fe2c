use std::collections::BTreeMap;

use crate::{Dist, GraphError, NodeId, SocialGraph, MAX_DISTANCE};

/// Validated, order-insensitive construction of a [`SocialGraph`].
///
/// The builder rejects self-loops, zero weights, weights above
/// [`MAX_DISTANCE`], out-of-range endpoints and conflicting duplicate
/// edges (the same unordered pair with two different weights). Supplying the same edge twice with the *same* weight is
/// accepted and deduplicated, which makes composing generators easier.
///
/// ```
/// use stgq_graph::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1), 4).unwrap();
/// b.add_edge(NodeId(1), NodeId(2), 9).unwrap();
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    node_count: usize,
    /// Unordered pair (min, max) → weight.
    edges: BTreeMap<(u32, u32), Dist>,
    labels: Option<Vec<String>>,
}

impl GraphBuilder {
    /// A builder for a graph with vertices `0..node_count`.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: BTreeMap::new(),
            labels: None,
        }
    }

    /// Number of vertices the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of distinct edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Attach human-readable labels.
    ///
    /// # Panics
    /// Panics if `labels.len() != node_count`.
    pub fn set_labels(&mut self, labels: Vec<String>) -> &mut Self {
        assert_eq!(
            labels.len(),
            self.node_count,
            "one label per vertex required"
        );
        self.labels = Some(labels);
        self
    }

    /// Add an undirected edge with the given social distance.
    pub fn add_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        weight: Dist,
    ) -> Result<&mut Self, GraphError> {
        for node in [u, v] {
            if node.index() >= self.node_count {
                return Err(GraphError::UnknownNode {
                    node,
                    node_count: self.node_count,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if weight == 0 {
            return Err(GraphError::ZeroWeight { a: u, b: v });
        }
        if weight > MAX_DISTANCE {
            return Err(GraphError::WeightTooLarge { a: u, b: v, weight });
        }
        let key = (u.0.min(v.0), u.0.max(v.0));
        match self.edges.insert(key, weight) {
            Some(prev) if prev != weight => Err(GraphError::ConflictingEdge {
                a: NodeId(key.0),
                b: NodeId(key.1),
                first: prev,
                second: weight,
            }),
            _ => Ok(self),
        }
    }

    /// Whether the unordered pair is already present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains_key(&(u.0.min(v.0), u.0.max(v.0)))
    }

    /// Finalize into an immutable CSR graph.
    pub fn build(self) -> SocialGraph {
        let mut adjacency: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); self.node_count];
        for (&(a, b), &w) in &self.edges {
            adjacency[a as usize].push((b, w));
            adjacency[b as usize].push((a, w));
        }
        // BTreeMap iteration gives (a, b) in lexicographic order, which sorts
        // each `adjacency[a]` row, but rows for `b` receive entries in `a`
        // order which is already ascending too. Sort defensively anyway: the
        // cost is negligible at build time and correctness of `has_edge`'s
        // binary search depends on it.
        for row in &mut adjacency {
            row.sort_unstable_by_key(|&(u, _)| u);
        }
        SocialGraph::from_sorted_adjacency(adjacency, self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(NodeId(1), NodeId(1), 3).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: NodeId(1) });
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(NodeId(0), NodeId(5), 3).unwrap_err();
        assert_eq!(
            err,
            GraphError::UnknownNode {
                node: NodeId(5),
                node_count: 2
            }
        );
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(NodeId(0), NodeId(1), 0).unwrap_err();
        assert_eq!(
            err,
            GraphError::ZeroWeight {
                a: NodeId(0),
                b: NodeId(1)
            }
        );
    }

    #[test]
    fn weights_are_capped_at_max_distance() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), MAX_DISTANCE).unwrap();
        let err = b.add_edge(NodeId(1), NodeId(2), u64::MAX).unwrap_err();
        assert_eq!(
            err,
            GraphError::WeightTooLarge {
                a: NodeId(1),
                b: NodeId(2),
                weight: u64::MAX
            }
        );
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn duplicate_same_weight_is_deduplicated() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 3).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 3).unwrap();
        assert_eq!(b.edge_count(), 1);
        assert_eq!(b.build().edge_count(), 1);
    }

    #[test]
    fn duplicate_conflicting_weight_is_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 3).unwrap();
        let err = b.add_edge(NodeId(1), NodeId(0), 4).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ConflictingEdge {
                first: 3,
                second: 4,
                ..
            }
        ));
    }

    #[test]
    fn has_edge_is_orientation_insensitive() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(2), NodeId(0), 1).unwrap();
        assert!(b.has_edge(NodeId(0), NodeId(2)));
        assert!(!b.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn isolated_vertices_are_preserved() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(NodeId(4)), 0);
    }
}

use std::fmt;

use crate::NodeId;

/// Errors produced while constructing or querying a social graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex outside `0..node_count`.
    UnknownNode {
        /// The offending vertex.
        node: NodeId,
        /// Number of vertices in the graph under construction.
        node_count: usize,
    },
    /// A self-loop was supplied; social distance to oneself is meaningless.
    SelfLoop {
        /// The vertex that was connected to itself.
        node: NodeId,
    },
    /// The same unordered pair was supplied twice with different weights.
    ConflictingEdge {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
        /// Weight seen first.
        first: u64,
        /// Conflicting weight seen later.
        second: u64,
    },
    /// A zero edge weight was supplied. The paper's distances are strictly
    /// positive; zero-weight edges would make "closeness" degenerate and
    /// break the distance-pruning bound.
    ZeroWeight {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
    },
    /// An edge weight above [`MAX_DISTANCE`](crate::MAX_DISTANCE) was
    /// supplied; heavier ties could overflow the Definition-1 distances.
    WeightTooLarge {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
        /// The rejected weight.
        weight: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode { node, node_count } => {
                write!(
                    f,
                    "edge references {node} but the graph has {node_count} vertices"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on {node} is not allowed"),
            GraphError::ConflictingEdge {
                a,
                b,
                first,
                second,
            } => write!(
                f,
                "edge {a}-{b} supplied twice with different weights ({first} then {second})"
            ),
            GraphError::ZeroWeight { a, b } => {
                write!(
                    f,
                    "edge {a}-{b} has zero weight; social distances must be positive"
                )
            }
            GraphError::WeightTooLarge { a, b, weight } => write!(
                f,
                "edge {a}-{b} has weight {weight}; social distances are at most {}",
                crate::MAX_DISTANCE
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::UnknownNode {
            node: NodeId(9),
            node_count: 3,
        };
        assert!(e.to_string().contains("v9"));
        assert!(e.to_string().contains('3'));

        let e = GraphError::SelfLoop { node: NodeId(1) };
        assert!(e.to_string().contains("self-loop"));

        let e = GraphError::ConflictingEdge {
            a: NodeId(0),
            b: NodeId(1),
            first: 3,
            second: 4,
        };
        assert!(e.to_string().contains("different weights"));

        let e = GraphError::ZeroWeight {
            a: NodeId(0),
            b: NodeId(1),
        };
        assert!(e.to_string().contains("zero weight"));

        let e = GraphError::WeightTooLarge {
            a: NodeId(0),
            b: NodeId(1),
            weight: u64::MAX,
        };
        assert!(e.to_string().contains("at most 4294967295"));
    }
}

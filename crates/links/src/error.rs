//! Error types for link and tree construction.

use std::error::Error;
use std::fmt;

use sinr_geom::NodeId;

/// Errors produced when constructing links, trees or schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinkError {
    /// A link's sender equals its receiver.
    SelfLoop {
        /// The offending node.
        node: NodeId,
    },
    /// A parent array had no root (no `None` entry).
    NoRoot,
    /// A parent array had more than one root.
    MultipleRoots {
        /// The first two root candidates found.
        first: NodeId,
        /// Second root candidate.
        second: NodeId,
    },
    /// A parent array contained a cycle, so some node never reaches the root.
    CycleDetected {
        /// A node on the unreachable/cyclic part.
        node: NodeId,
    },
    /// A node id referenced a node outside the structure's range.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the structure.
        len: usize,
    },
    /// A schedule did not cover exactly the link set it was declared for.
    ScheduleMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The schedule violates the aggregation (leaf-to-root) ordering.
    OrderingViolation {
        /// The child whose link is scheduled too early.
        child: NodeId,
        /// The descendant whose link is scheduled at or after the child's.
        descendant: NodeId,
    },
    /// Two children of one node share an aggregation slot, so the node
    /// would receive twice in it and send twice in its dissemination
    /// slot.
    SiblingsShareSlot {
        /// The node whose children clash.
        parent: NodeId,
        /// The aggregation slot they share.
        slot: usize,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::SelfLoop { node } => write!(f, "link from node {node} to itself"),
            LinkError::NoRoot => write!(f, "parent array has no root"),
            LinkError::MultipleRoots { first, second } => {
                write!(f, "parent array has multiple roots ({first} and {second})")
            }
            LinkError::CycleDetected { node } => {
                write!(f, "parent array contains a cycle through node {node}")
            }
            LinkError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range for structure of {len} nodes")
            }
            LinkError::ScheduleMismatch { detail } => {
                write!(f, "schedule does not match link set: {detail}")
            }
            LinkError::OrderingViolation { child, descendant } => {
                write!(
                    f,
                    "aggregation ordering violated: link of {child} scheduled no later than \
                     its descendant {descendant}"
                )
            }
            LinkError::SiblingsShareSlot { parent, slot } => {
                write!(
                    f,
                    "two children of node {parent} share aggregation slot {slot}"
                )
            }
        }
    }
}

impl Error for LinkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs: Vec<LinkError> = vec![
            LinkError::SelfLoop { node: 1 },
            LinkError::NoRoot,
            LinkError::MultipleRoots {
                first: 0,
                second: 2,
            },
            LinkError::CycleDetected { node: 4 },
            LinkError::NodeOutOfRange { node: 9, len: 3 },
            LinkError::ScheduleMismatch {
                detail: "missing link".into(),
            },
            LinkError::OrderingViolation {
                child: 1,
                descendant: 2,
            },
            LinkError::SiblingsShareSlot { parent: 0, slot: 3 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

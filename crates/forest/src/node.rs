//! Tree node types.

/// One node of a decision tree.
///
/// The decision rule follows the scikit-learn convention used throughout the
/// workspace: an input goes **left** when `x[feature] <= threshold` and
/// right otherwise. Children are stored as indices into the owning tree's
/// node vector and must be *forward* references (child index greater than
/// the parent's), which makes trees acyclic by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node {
    /// An internal decision node.
    Decision {
        /// The comparison attribute (feature column).
        feature: u16,
        /// The comparison value.
        threshold: f32,
        /// Index of the child taken when `x[feature] <= threshold`.
        left: u32,
        /// Index of the child taken otherwise.
        right: u32,
    },
    /// A terminal node carrying its class id in `0..n_classes`.
    Leaf(u32),
}

impl Node {
    /// Convenience constructor for a decision node.
    pub fn decision(feature: u16, threshold: f32, left: u32, right: u32) -> Self {
        Node::Decision {
            feature,
            threshold,
            left,
            right,
        }
    }

    /// Returns `true` if this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_is_leaf() {
        assert!(Node::Leaf(0).is_leaf());
        assert!(!Node::decision(1, 0.5, 1, 2).is_leaf());
    }
}

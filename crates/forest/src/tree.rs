//! Decision trees: storage, traversal, and validation.

use crate::error::ForestError;
use crate::node::Node;

/// A binary decision tree stored as a flat node vector with the root at
/// index 0 and forward child references only.
///
/// # Example
///
/// ```
/// use mlscore_forest::{DecisionTree, Node};
///
/// // x[0] <= 0.5 ? class 0 : class 1
/// let tree = DecisionTree::from_nodes(vec![
///     Node::decision(0, 0.5, 1, 2),
///     Node::Leaf(0),
///     Node::Leaf(1),
/// ])?;
/// assert_eq!(tree.predict(&[0.2]), 0);
/// assert_eq!(tree.predict(&[0.9]), 1);
/// # Ok::<(), mlscore_forest::ForestError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Builds a tree from nodes, checking structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::EmptyTree`] for an empty vector,
    /// [`ForestError::ChildOutOfRange`] for dangling child indices, and
    /// [`ForestError::NonTopological`] if a child index is not strictly
    /// greater than its parent's index.
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Self, ForestError> {
        if nodes.is_empty() {
            return Err(ForestError::EmptyTree);
        }
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Decision { left, right, .. } = node {
                for child in [*left as usize, *right as usize] {
                    if child >= nodes.len() {
                        return Err(ForestError::ChildOutOfRange {
                            node: i,
                            child,
                            len: nodes.len(),
                        });
                    }
                    if child <= i {
                        return Err(ForestError::NonTopological { node: i, child });
                    }
                }
            }
        }
        Ok(Self { nodes })
    }

    /// Builds a single-leaf tree voting for `class`.
    pub fn leaf(class: u32) -> Self {
        Self {
            nodes: vec![Node::Leaf(class)],
        }
    }

    /// The tree's nodes (root at index 0).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree is a single node (trees are never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of leaf nodes.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Number of *levels* below the root on the longest path; a single leaf
    /// has depth 0, the paper's "10 level" trees have depth 10.
    pub fn depth(&self) -> usize {
        // Iterative DFS; forward-reference invariant guarantees termination.
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Decision { left, right, .. } = node {
                for child in [*left as usize, *right as usize] {
                    depth[child] = depth[child].max(depth[i] + 1);
                    max = max.max(depth[child]);
                }
            }
        }
        max
    }

    /// Scores one record by root-to-leaf traversal, returning the leaf's
    /// class id.
    ///
    /// # Panics
    ///
    /// Panics if a decision node references a feature beyond `x.len()`; use
    /// [`DecisionTree::validate`] against the model's feature count to rule
    /// this out up front.
    pub fn predict(&self, x: &[f32]) -> u32 {
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                Node::Leaf(v) => return v,
                Node::Decision {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[feature as usize] <= threshold {
                        left as usize
                    } else {
                        right as usize
                    };
                }
            }
        }
    }

    /// Scores one record, also reporting the number of nodes visited
    /// (root inclusive). Used by divergence/teardown analyses.
    pub fn predict_counting(&self, x: &[f32]) -> (u32, usize) {
        let mut i = 0usize;
        let mut visited = 1usize;
        loop {
            match self.nodes[i] {
                Node::Leaf(v) => return (v, visited),
                Node::Decision {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[feature as usize] <= threshold {
                        left as usize
                    } else {
                        right as usize
                    };
                    visited += 1;
                }
            }
        }
    }

    /// Checks semantic invariants against model-level metadata.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::FeatureOutOfRange`] or
    /// [`ForestError::ClassOutOfRange`] when nodes reference features or
    /// classes outside the model.
    pub fn validate(&self, n_features: usize, n_classes: u32) -> Result<(), ForestError> {
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Decision { feature, .. } => {
                    if *feature as usize >= n_features {
                        return Err(ForestError::FeatureOutOfRange {
                            node: i,
                            feature: *feature as usize,
                            n_features,
                        });
                    }
                }
                Node::Leaf(c) => {
                    if *c >= n_classes {
                        return Err(ForestError::ClassOutOfRange {
                            class: *c,
                            n_classes,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stump() -> DecisionTree {
        DecisionTree::from_nodes(vec![
            Node::decision(0, 0.5, 1, 2),
            Node::Leaf(0),
            Node::Leaf(1),
        ])
        .unwrap()
    }

    #[test]
    fn traversal_follows_le_convention() {
        let t = stump();
        assert_eq!(t.predict(&[0.5]), 0); // boundary goes left
        assert_eq!(t.predict(&[0.500001]), 1);
    }

    #[test]
    fn depth_counts_levels() {
        assert_eq!(stump().depth(), 1);
        assert_eq!(DecisionTree::leaf(0).depth(), 0);
        let deep = DecisionTree::from_nodes(vec![
            Node::decision(0, 0.5, 1, 2),
            Node::decision(0, 0.25, 3, 4),
            Node::Leaf(2),
            Node::Leaf(0),
            Node::Leaf(1),
        ])
        .unwrap();
        assert_eq!(deep.depth(), 2);
    }

    #[test]
    fn n_leaves() {
        assert_eq!(stump().n_leaves(), 2);
        assert_eq!(stump().len(), 3);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            DecisionTree::from_nodes(vec![]).unwrap_err(),
            ForestError::EmptyTree
        );
    }

    #[test]
    fn rejects_dangling_child() {
        let err = DecisionTree::from_nodes(vec![Node::decision(0, 0.5, 1, 9), Node::Leaf(0)])
            .unwrap_err();
        assert!(matches!(err, ForestError::ChildOutOfRange { child: 9, .. }));
    }

    #[test]
    fn rejects_backward_child() {
        let err = DecisionTree::from_nodes(vec![Node::decision(0, 0.5, 0, 1), Node::Leaf(0)])
            .unwrap_err();
        assert!(matches!(err, ForestError::NonTopological { child: 0, .. }));
    }

    #[test]
    fn validate_feature_and_class_ranges() {
        let t = stump();
        assert!(t.validate(1, 2).is_ok());
        assert!(matches!(
            t.validate(1, 1),
            Err(ForestError::ClassOutOfRange { .. })
        ));
        let wide = DecisionTree::from_nodes(vec![
            Node::decision(3, 0.5, 1, 2),
            Node::Leaf(0),
            Node::Leaf(1),
        ])
        .unwrap();
        assert!(matches!(
            wide.validate(2, 2),
            Err(ForestError::FeatureOutOfRange { feature: 3, .. })
        ));
    }

    #[test]
    fn predict_counting_counts_path_nodes() {
        let t = stump();
        let (v, visited) = t.predict_counting(&[0.1]);
        assert_eq!(v, 0);
        assert_eq!(visited, 2);
        let leaf = DecisionTree::leaf(1);
        assert_eq!(leaf.predict_counting(&[0.0]).1, 1);
    }
}

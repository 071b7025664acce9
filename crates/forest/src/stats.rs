//! Model statistics consumed by backend cost models.

use crate::forest::RandomForest;
use crate::layout::NODE_BYTES;
use crate::tree::DecisionTree;

/// Shape and footprint statistics of a forest.
///
/// Cost models across the workspace key off these: the CPU model's cache
/// behaviour depends on [`ModelStats::live_layout_bytes`], the FPGA engine's
/// pass count on [`ModelStats::n_trees`], the GPU models on node counts and
/// depth.
///
/// # Example
///
/// ```
/// use mlscore_forest::{ForestConfig, ModelStats, RandomForest};
///
/// let forest = RandomForest::synthetic_full(
///     &ForestConfig::classification(128, 28, 2).with_depth(10),
///     1,
/// );
/// let stats = ModelStats::of(&forest);
/// assert_eq!(stats.n_trees, 128);
/// assert_eq!(stats.max_depth, 10);
/// assert_eq!(stats.total_nodes, 128 * 2047);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelStats {
    /// Number of trees.
    pub n_trees: usize,
    /// Number of input features.
    pub n_features: usize,
    /// Number of classes (at least 1).
    pub n_classes: u32,
    /// Deepest tree depth, in levels.
    pub max_depth: usize,
    /// Total nodes across all trees.
    pub total_nodes: usize,
    /// Total leaves across all trees.
    pub total_leaves: usize,
    /// Mean root-to-leaf path length over all leaves, in node visits
    /// (a full tree of depth `d` has `d + 1`).
    pub mean_path_nodes: f64,
}

impl ModelStats {
    /// Computes statistics for `forest`.
    pub fn of(forest: &RandomForest) -> Self {
        let total_nodes = forest.n_nodes();
        let total_leaves: usize = forest.trees().iter().map(DecisionTree::n_leaves).sum();
        let mut path_sum = 0u64;
        let mut leaf_count = 0u64;
        for tree in forest.trees() {
            let (sum, count) = leaf_path_sum(tree);
            path_sum += sum;
            leaf_count += count;
        }
        Self {
            n_trees: forest.n_trees(),
            n_features: forest.n_features(),
            n_classes: forest.n_classes(),
            max_depth: forest.max_depth(),
            total_nodes,
            total_leaves,
            mean_path_nodes: if leaf_count == 0 {
                0.0
            } else {
                path_sum as f64 / leaf_count as f64
            },
        }
    }

    /// Bytes of live node records in the Fig. 4b flat layout (what a software
    /// scorer's working set contains).
    pub fn live_layout_bytes(&self) -> usize {
        self.total_nodes * NODE_BYTES
    }

    /// Bytes of one record row (`n_features` × 4-byte floats).
    pub fn row_bytes(&self) -> usize {
        self.n_features * 4
    }

    /// Expected node visits to score one record through every tree.
    pub fn visits_per_record(&self) -> f64 {
        self.mean_path_nodes * self.n_trees as f64
    }
}

/// Sum of root-to-leaf path node counts, and the number of leaves.
fn leaf_path_sum(tree: &DecisionTree) -> (u64, u64) {
    use crate::node::Node;
    let nodes = tree.nodes();
    let mut depth = vec![0u64; nodes.len()];
    let mut sum = 0u64;
    let mut leaves = 0u64;
    for (i, node) in nodes.iter().enumerate() {
        match node {
            Node::Decision { left, right, .. } => {
                depth[*left as usize] = depth[i] + 1;
                depth[*right as usize] = depth[i] + 1;
            }
            Node::Leaf(_) => {
                sum += depth[i] + 1;
                leaves += 1;
            }
        }
    }
    (sum, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;

    #[test]
    fn full_tree_stats() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 6, 3).with_depth(5), 9);
        let s = ModelStats::of(&forest);
        assert_eq!(s.n_trees, 4);
        assert_eq!(s.n_features, 6);
        assert_eq!(s.n_classes, 3);
        assert_eq!(s.max_depth, 5);
        assert_eq!(s.total_nodes, 4 * 63);
        assert_eq!(s.total_leaves, 4 * 32);
        assert_eq!(s.mean_path_nodes, 6.0); // depth 5 => 6 nodes per path
        assert_eq!(s.visits_per_record(), 24.0);
        assert_eq!(s.live_layout_bytes(), 4 * 63 * 16);
        assert_eq!(s.row_bytes(), 24);
    }

    #[test]
    fn leaf_only_tree_path() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(2, 2, 2).with_depth(0), 3);
        let s = ModelStats::of(&forest);
        assert_eq!(s.mean_path_nodes, 1.0);
        assert_eq!(s.total_leaves, 2);
    }
}

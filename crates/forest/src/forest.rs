//! Random forests: ensembles of decision trees combined by majority vote.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ForestError;
use crate::node::Node;
use crate::tree::DecisionTree;

/// Shape parameters of a forest — the axes the paper sweeps (number of
/// trees, tree depth, dataset feature count) plus the class count.
///
/// # Example
///
/// ```
/// use mlscore_forest::ForestConfig;
///
/// // The paper's heavyweight HIGGS model: 128 trees, 10 levels, 28 features.
/// let cfg = ForestConfig::classification(128, 28, 2).with_depth(10);
/// assert_eq!(cfg.depth, 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Tree depth in levels (the paper uses 6 and 10).
    pub depth: usize,
    /// Number of input features.
    pub n_features: usize,
    /// Number of classes (at least 1); tree votes are combined by majority
    /// with ties broken to the lowest class id.
    pub n_classes: u32,
}

impl ForestConfig {
    /// A classification config with the paper's default depth of 10.
    pub fn classification(n_trees: usize, n_features: usize, n_classes: u32) -> Self {
        Self {
            n_trees,
            depth: 10,
            n_features,
            n_classes,
        }
    }

    /// Sets the tree depth.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }
}

/// A random forest: an ensemble of [`DecisionTree`]s over a fixed feature
/// space, combined by majority vote.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
    n_classes: u32,
}

impl RandomForest {
    /// Assembles a forest from trees, validating every tree against the
    /// feature and class counts.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::EmptyForest`] if `trees` is empty, or the first
    /// per-tree validation failure (see [`DecisionTree::validate`]).
    pub fn from_trees(
        trees: Vec<DecisionTree>,
        n_features: usize,
        n_classes: u32,
    ) -> Result<Self, ForestError> {
        if trees.is_empty() {
            return Err(ForestError::EmptyForest);
        }
        for tree in &trees {
            tree.validate(n_features, n_classes)?;
        }
        Ok(Self {
            trees,
            n_features,
            n_classes,
        })
    }

    /// Generates a deterministic synthetic forest of *full* binary trees at
    /// exactly `config.depth` levels, with random features and thresholds in
    /// `[0, 1)`.
    ///
    /// The paper's experiments control model shape exactly (1 or 128 trees,
    /// 6 or 10 levels); trained models rarely hit an exact depth, so the
    /// figure harness uses this generator. Functional behaviour (which leaf a
    /// record reaches) is still real — all backends traverse these trees.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_trees == 0`, `config.n_features == 0`, or the
    /// depth exceeds 24 (node indices are kept exactly representable in the
    /// `f32` flat layout).
    pub fn synthetic_full(config: &ForestConfig, seed: u64) -> Self {
        assert!(config.n_trees > 0, "forest needs at least one tree");
        assert!(config.n_features > 0, "forest needs at least one feature");
        assert!(config.depth <= 24, "synthetic depth limited to 24");
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = (0..config.n_trees)
            .map(|_| Self::full_tree(config, &mut rng))
            .collect();
        Self {
            trees,
            n_features: config.n_features,
            n_classes: config.n_classes,
        }
    }

    /// Generates a deterministic synthetic forest whose trees have at most
    /// `max_leaves` leaves each (and at most `config.depth` levels).
    ///
    /// This models what training on a small distinct-sample pool produces:
    /// the paper replicates IRIS's 150 original samples to 1M records, so a
    /// depth-10 IRIS tree can never grow more leaves than distinct samples,
    /// while HIGGS trees fill out. The leaf budget is what makes IRIS models
    /// "simpler" than HIGGS models at identical tree count and depth.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RandomForest::synthetic_full`],
    /// or if `max_leaves == 0`.
    pub fn synthetic_capped(config: &ForestConfig, max_leaves: usize, seed: u64) -> Self {
        assert!(config.n_trees > 0, "forest needs at least one tree");
        assert!(config.n_features > 0, "forest needs at least one feature");
        assert!(max_leaves > 0, "need at least one leaf");
        assert!(config.depth <= 24, "synthetic depth limited to 24");
        let full_leaves = 1usize << config.depth;
        if max_leaves >= full_leaves {
            return Self::synthetic_full(config, seed);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = (0..config.n_trees)
            .map(|_| {
                let mut nodes = Vec::new();
                Self::capped_subtree(config, max_leaves, 0, &mut nodes, &mut rng);
                DecisionTree::from_nodes(nodes).expect("capped tree is structurally valid")
            })
            .collect();
        Self {
            trees,
            n_features: config.n_features,
            n_classes: config.n_classes,
        }
    }

    /// Grows a subtree with exactly `leaf_budget` leaves (depth permitting);
    /// returns the subtree root index.
    fn capped_subtree(
        config: &ForestConfig,
        leaf_budget: usize,
        depth: usize,
        nodes: &mut Vec<Node>,
        rng: &mut StdRng,
    ) -> u32 {
        let idx = nodes.len() as u32;
        if leaf_budget == 1 || depth >= config.depth {
            nodes.push(Node::Leaf(rng.gen_range(0..config.n_classes)));
            return idx;
        }
        // A subtree at `depth` can host at most 2^(config.depth - depth)
        // leaves per side; keep both sides feasible when splitting the budget.
        let side_cap = 1usize << (config.depth - depth - 1);
        let min_left = leaf_budget.saturating_sub(side_cap).max(1);
        let max_left = (leaf_budget - 1).min(side_cap);
        let left_budget = rng.gen_range(min_left..=max_left);
        let feature = rng.gen_range(0..config.n_features) as u16;
        let threshold = rng.gen_range(0.0f32..1.0f32);
        nodes.push(Node::decision(feature, threshold, 0, 0)); // patched below
        let left = Self::capped_subtree(config, left_budget, depth + 1, nodes, rng);
        let right = Self::capped_subtree(config, leaf_budget - left_budget, depth + 1, nodes, rng);
        nodes[idx as usize] = Node::decision(feature, threshold, left, right);
        idx
    }

    fn full_tree(config: &ForestConfig, rng: &mut StdRng) -> DecisionTree {
        let depth = config.depth;
        if depth == 0 {
            return DecisionTree::leaf(rng.gen_range(0..config.n_classes));
        }
        // BFS order: internal levels 0..depth, leaves at level `depth`.
        let n_internal = (1usize << depth) - 1;
        let n_leaves = 1usize << depth;
        let mut nodes = Vec::with_capacity(n_internal + n_leaves);
        for i in 0..n_internal {
            let feature = rng.gen_range(0..config.n_features) as u16;
            let threshold = rng.gen_range(0.0f32..1.0f32);
            nodes.push(Node::decision(
                feature,
                threshold,
                (2 * i + 1) as u32,
                (2 * i + 2) as u32,
            ));
        }
        for _ in 0..n_leaves {
            nodes.push(Node::Leaf(rng.gen_range(0..config.n_classes)));
        }
        DecisionTree::from_nodes(nodes).expect("synthetic full tree is structurally valid")
    }

    /// The trees in the ensemble.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Deepest tree depth, in levels.
    pub fn max_depth(&self) -> usize {
        self.trees
            .iter()
            .map(DecisionTree::depth)
            .max()
            .unwrap_or(0)
    }

    /// Total node count across all trees.
    pub fn n_nodes(&self) -> usize {
        self.trees.iter().map(DecisionTree::len).sum()
    }

    /// Per-class vote counts for one record.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the feature count (see
    /// [`RandomForest::predict_checked`] for the validating path).
    pub fn vote_counts(&self, x: &[f32]) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_classes as usize];
        for tree in &self.trees {
            counts[tree.predict(x) as usize] += 1;
        }
        counts
    }

    /// Combines per-class vote counts into a final class: majority vote with
    /// ties broken toward the lowest class id. Every backend in the
    /// workspace uses this exact rule so predictions agree bit-for-bit.
    pub fn majority(counts: &[u32]) -> u32 {
        let mut best = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            if c > counts[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Scores one record into its class id.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the model's feature count.
    pub fn predict_one(&self, x: &[f32]) -> u32 {
        Self::majority(&self.vote_counts(x))
    }

    /// Scores a row-major batch (`records.len()` must be a multiple of the
    /// feature count).
    ///
    /// # Panics
    ///
    /// Panics if `records.len()` is not a multiple of the feature count.
    pub fn predict_batch(&self, records: &[f32]) -> Vec<u32> {
        assert_eq!(
            records.len() % self.n_features,
            0,
            "records length must be a multiple of n_features"
        );
        records
            .chunks_exact(self.n_features)
            .map(|r| self.predict_one(r))
            .collect()
    }

    /// Scores one record after validating its width.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::FeatureWidthMismatch`] when `x.len()` differs
    /// from the model's feature count.
    pub fn predict_checked(&self, x: &[f32]) -> Result<u32, ForestError> {
        if x.len() != self.n_features {
            return Err(ForestError::FeatureWidthMismatch {
                expected: self.n_features,
                got: x.len(),
            });
        }
        Ok(self.predict_one(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stump(class_le: u32, class_gt: u32) -> DecisionTree {
        DecisionTree::from_nodes(vec![
            Node::decision(0, 0.5, 1, 2),
            Node::Leaf(class_le),
            Node::Leaf(class_gt),
        ])
        .unwrap()
    }

    #[test]
    fn majority_vote_breaks_ties_low() {
        assert_eq!(RandomForest::majority(&[2, 2, 1]), 0);
        assert_eq!(RandomForest::majority(&[1, 3, 3]), 1);
        assert_eq!(RandomForest::majority(&[0, 0, 5]), 2);
    }

    #[test]
    fn classification_votes() {
        let forest =
            RandomForest::from_trees(vec![stump(0, 1), stump(0, 1), stump(1, 0)], 1, 2).unwrap();
        assert_eq!(forest.predict_one(&[0.1]), 0); // 2 votes 0
        assert_eq!(forest.predict_one(&[0.9]), 1); // 2 votes 1
        assert_eq!(forest.vote_counts(&[0.1]), vec![2, 1]);
    }

    #[test]
    fn from_trees_validates() {
        assert_eq!(
            RandomForest::from_trees(vec![], 1, 2).unwrap_err(),
            ForestError::EmptyForest
        );
        let err = RandomForest::from_trees(vec![stump(0, 5)], 1, 2).unwrap_err();
        assert!(matches!(err, ForestError::ClassOutOfRange { class: 5, .. }));
    }

    #[test]
    fn synthetic_full_shape() {
        let cfg = ForestConfig::classification(4, 6, 3).with_depth(5);
        let f = RandomForest::synthetic_full(&cfg, 7);
        assert_eq!(f.n_trees(), 4);
        assert_eq!(f.n_features(), 6);
        assert_eq!(f.max_depth(), 5);
        for t in f.trees() {
            assert_eq!(t.len(), (1 << 6) - 1); // full tree: 2^(d+1)-1 nodes
            assert_eq!(t.n_leaves(), 1 << 5);
            assert_eq!(t.depth(), 5);
        }
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        let cfg = ForestConfig::classification(3, 4, 2).with_depth(4);
        let a = RandomForest::synthetic_full(&cfg, 1);
        let b = RandomForest::synthetic_full(&cfg, 1);
        let c = RandomForest::synthetic_full(&cfg, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_depth_zero_is_leaf_only() {
        let cfg = ForestConfig::classification(2, 3, 2).with_depth(0);
        let f = RandomForest::synthetic_full(&cfg, 9);
        assert_eq!(f.max_depth(), 0);
        assert_eq!(f.n_nodes(), 2);
    }

    #[test]
    fn predict_batch_matches_predict_one() {
        let cfg = ForestConfig::classification(5, 3, 4).with_depth(6);
        let f = RandomForest::synthetic_full(&cfg, 11);
        let records: Vec<f32> = (0..30).map(|i| (i as f32 * 0.37) % 1.0).collect();
        let classes = f.predict_batch(&records);
        for (i, row) in records.chunks_exact(3).enumerate() {
            assert_eq!(f.predict_one(row), classes[i]);
        }
    }

    #[test]
    fn predict_checked_validates_width() {
        let cfg = ForestConfig::classification(1, 4, 2).with_depth(2);
        let f = RandomForest::synthetic_full(&cfg, 3);
        assert!(f.predict_checked(&[0.0; 4]).is_ok());
        assert!(matches!(
            f.predict_checked(&[0.0; 3]),
            Err(ForestError::FeatureWidthMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn capped_respects_leaf_budget_and_depth() {
        let cfg = ForestConfig::classification(6, 4, 3).with_depth(10);
        let f = RandomForest::synthetic_capped(&cfg, 150, 13);
        for t in f.trees() {
            assert_eq!(t.n_leaves(), 150);
            assert!(t.depth() <= 10);
        }
    }

    #[test]
    fn capped_with_large_budget_is_full() {
        let cfg = ForestConfig::classification(2, 4, 2).with_depth(4);
        let capped = RandomForest::synthetic_capped(&cfg, 1 << 4, 5);
        let full = RandomForest::synthetic_full(&cfg, 5);
        assert_eq!(capped, full);
    }

    #[test]
    fn capped_budget_one_is_single_leaf() {
        let cfg = ForestConfig::classification(3, 4, 2).with_depth(8);
        let f = RandomForest::synthetic_capped(&cfg, 1, 5);
        for t in f.trees() {
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn capped_is_deterministic() {
        let cfg = ForestConfig::classification(4, 4, 3).with_depth(9);
        assert_eq!(
            RandomForest::synthetic_capped(&cfg, 100, 3),
            RandomForest::synthetic_capped(&cfg, 100, 3)
        );
    }
}

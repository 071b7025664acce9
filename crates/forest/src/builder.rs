//! CART training for decision trees and random forests.
//!
//! The paper trains its models with scikit-learn and converts them to ONNX;
//! here we implement the training path ourselves so examples and tests can
//! produce *real* models from data. Training follows standard CART: greedy
//! best-split search per node (Gini or entropy), with bootstrap sampling
//! and per-node feature subsampling for forest diversity.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::ForestError;
use crate::forest::RandomForest;
use crate::importance::{ImportanceAccumulator, TrainedModel};
use crate::node::Node;
use crate::tree::DecisionTree;

/// Split quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SplitCriterion {
    /// Gini impurity (the default).
    Gini,
    /// Shannon entropy.
    Entropy,
}

/// Hyper-parameters for forest training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Maximum tree depth in levels (the paper uses 6 and 10).
    pub max_depth: usize,
    /// Minimum records per leaf.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split; `None` means
    /// `ceil(sqrt(n_features))`, the random forest default.
    pub feature_candidates: Option<usize>,
    /// Whether each tree trains on a bootstrap resample.
    pub bootstrap: bool,
    /// RNG seed; training is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            max_depth: 10,
            min_samples_leaf: 1,
            feature_candidates: None,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// Trains [`RandomForest`]s from row-major feature data.
///
/// # Example
///
/// ```
/// use mlscore_forest::{ForestBuilder, TrainOptions};
///
/// // XOR-ish toy problem.
/// let x = [0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
/// let y = [0u32, 1, 1, 0];
/// let forest = ForestBuilder::new(25, TrainOptions { max_depth: 3, ..Default::default() })
///     .train_classifier(&x, 2, &y, 2)?;
/// assert_eq!(forest.predict_one(&[0.0, 1.0]), 1);
/// assert_eq!(forest.predict_one(&[1.0, 1.0]), 0);
/// # Ok::<(), mlscore_forest::ForestError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ForestBuilder {
    n_trees: usize,
    options: TrainOptions,
    criterion: Option<SplitCriterion>,
}

impl ForestBuilder {
    /// Creates a builder for `n_trees` trees with the given options.
    pub fn new(n_trees: usize, options: TrainOptions) -> Self {
        Self {
            n_trees,
            options,
            criterion: None,
        }
    }

    /// Overrides the split criterion (default: Gini).
    pub fn criterion(mut self, criterion: SplitCriterion) -> Self {
        self.criterion = Some(criterion);
        self
    }

    /// Trains a classification forest on row-major `x` with labels `y`.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::InvalidTrainingData`] on shape mismatches,
    /// empty data, zero classes, labels outside `0..n_classes`, or a NaN
    /// or infinite feature value (the message names its row and column).
    pub fn train_classifier(
        &self,
        x: &[f32],
        n_features: usize,
        y: &[u32],
        n_classes: u32,
    ) -> Result<RandomForest, ForestError> {
        self.train_classifier_detailed(x, n_features, y, n_classes)
            .map(|model| model.forest)
    }

    /// Like [`ForestBuilder::train_classifier`], additionally returning
    /// mean-decrease-in-impurity feature importances.
    ///
    /// # Errors
    ///
    /// Same as [`ForestBuilder::train_classifier`].
    pub fn train_classifier_detailed(
        &self,
        x: &[f32],
        n_features: usize,
        y: &[u32],
        n_classes: u32,
    ) -> Result<TrainedModel, ForestError> {
        self.check_shapes(x, n_features, y.len())?;
        if n_classes == 0 {
            return Err(ForestError::InvalidTrainingData("zero classes".into()));
        }
        if let Some(&bad) = y.iter().find(|&&c| c >= n_classes) {
            return Err(ForestError::InvalidTrainingData(format!(
                "label {bad} outside 0..{n_classes}"
            )));
        }
        // Split search sorts feature values and cuts halfway between
        // neighbours: a NaN has no order and an infinity makes a NaN cut.
        if let Some(i) = x.iter().position(|v| !v.is_finite()) {
            return Err(ForestError::InvalidTrainingData(format!(
                "non-finite feature value {} at row {}, column {}",
                x[i],
                i / n_features,
                i % n_features
            )));
        }
        let criterion = self.criterion.unwrap_or(SplitCriterion::Gini);
        let targets = Targets {
            y,
            n_classes: n_classes as usize,
        };
        let (trees, feature_importances) = self.train_trees(x, n_features, &targets, criterion)?;
        Ok(TrainedModel {
            forest: RandomForest::from_trees(trees, n_features, n_classes)?,
            feature_importances,
        })
    }

    fn check_shapes(
        &self,
        x: &[f32],
        n_features: usize,
        n_labels: usize,
    ) -> Result<(), ForestError> {
        if n_features == 0 {
            return Err(ForestError::InvalidTrainingData("zero features".into()));
        }
        if x.is_empty() {
            return Err(ForestError::InvalidTrainingData("no rows".into()));
        }
        if !x.len().is_multiple_of(n_features) {
            return Err(ForestError::InvalidTrainingData(format!(
                "data length {} is not a multiple of {n_features} features",
                x.len()
            )));
        }
        if x.len() / n_features != n_labels {
            return Err(ForestError::InvalidTrainingData(format!(
                "{} rows but {n_labels} labels",
                x.len() / n_features
            )));
        }
        if self.n_trees == 0 {
            return Err(ForestError::InvalidTrainingData("zero trees".into()));
        }
        Ok(())
    }

    fn train_trees(
        &self,
        x: &[f32],
        n_features: usize,
        targets: &Targets<'_>,
        criterion: SplitCriterion,
    ) -> Result<(Vec<DecisionTree>, Vec<f64>), ForestError> {
        let n_rows = x.len() / n_features;
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let candidates = self
            .options
            .feature_candidates
            .unwrap_or_else(|| (n_features as f64).sqrt().ceil() as usize)
            .clamp(1, n_features);
        let mut trees = Vec::with_capacity(self.n_trees);
        let mut importance = ImportanceAccumulator::new(n_features);
        for _ in 0..self.n_trees {
            let indices: Vec<usize> = if self.options.bootstrap {
                (0..n_rows).map(|_| rng.gen_range(0..n_rows)).collect()
            } else {
                (0..n_rows).collect()
            };
            let n_total = indices.len();
            let mut grower = TreeGrower {
                x,
                n_features,
                targets,
                criterion,
                options: &self.options,
                candidates,
                rng: &mut rng,
                nodes: Vec::new(),
                importance: &mut importance,
                n_total,
            };
            grower.grow(indices, 0);
            trees.push(DecisionTree::from_nodes(grower.nodes)?);
        }
        Ok((trees, importance.finalize()))
    }
}

/// Class labels of the training rows.
struct Targets<'a> {
    y: &'a [u32],
    n_classes: usize,
}

impl Targets<'_> {
    /// Per-class counts over `indices`.
    fn counts(&self, indices: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_classes];
        for &i in indices {
            counts[self.y[i] as usize] += 1;
        }
        counts
    }

    fn leaf(&self, indices: &[usize]) -> u32 {
        RandomForest::majority(&self.counts(indices))
    }

    fn is_pure(&self, indices: &[usize]) -> bool {
        let first = self.y[indices[0]];
        indices.iter().all(|&i| self.y[i] == first)
    }
}

struct TreeGrower<'a> {
    x: &'a [f32],
    n_features: usize,
    targets: &'a Targets<'a>,
    criterion: SplitCriterion,
    options: &'a TrainOptions,
    candidates: usize,
    rng: &'a mut StdRng,
    nodes: Vec<Node>,
    importance: &'a mut ImportanceAccumulator,
    n_total: usize,
}

impl TreeGrower<'_> {
    fn feature(&self, row: usize, f: usize) -> f32 {
        self.x[row * self.n_features + f]
    }

    /// Grows a subtree over `indices` at `depth`; returns the node index.
    fn grow(&mut self, indices: Vec<usize>, depth: usize) -> u32 {
        debug_assert!(!indices.is_empty());
        if depth >= self.options.max_depth
            || indices.len() < 2 * self.options.min_samples_leaf
            || self.targets.is_pure(&indices)
        {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf(self.targets.leaf(&indices)));
            return idx;
        }
        match self.best_split(&indices) {
            Some((feature, threshold, gain)) => {
                self.importance
                    .record(feature, gain * indices.len() as f64 / self.n_total as f64);
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| self.feature(i, feature) <= threshold);
                if left_idx.len() < self.options.min_samples_leaf
                    || right_idx.len() < self.options.min_samples_leaf
                {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(Node::Leaf(self.targets.leaf(&indices)));
                    return idx;
                }
                let idx = self.nodes.len();
                // Placeholder; children get patched after recursion.
                self.nodes
                    .push(Node::decision(feature as u16, threshold, 0, 0));
                let left = self.grow(left_idx, depth + 1);
                let right = self.grow(right_idx, depth + 1);
                self.nodes[idx] = Node::decision(feature as u16, threshold, left, right);
                idx as u32
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf(self.targets.leaf(&indices)));
                idx
            }
        }
    }

    /// Finds the best `(feature, threshold, gain)` over a random candidate
    /// subset.
    fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f32, f64)> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        features.shuffle(self.rng);
        features.truncate(self.candidates);
        let parent_impurity = self.impurity(indices);
        let mut best: Option<(f64, usize, f32)> = None;
        for f in features {
            let mut sorted = indices.to_vec();
            sorted.sort_by(|&a, &b| {
                self.feature(a, f)
                    .partial_cmp(&self.feature(b, f))
                    .expect("finite feature values")
            });
            for cut in 1..sorted.len() {
                let lo = self.feature(sorted[cut - 1], f);
                let hi = self.feature(sorted[cut], f);
                if lo == hi {
                    continue;
                }
                let threshold = lo + (hi - lo) / 2.0;
                let (left, right) = sorted.split_at(cut);
                let nl = left.len() as f64;
                let nr = right.len() as f64;
                let n = nl + nr;
                let weighted = self.impurity(left) * nl / n + self.impurity(right) * nr / n;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, threshold));
                }
            }
        }
        best.map(|(g, f, t)| (f, t, g))
    }

    fn impurity(&self, indices: &[usize]) -> f64 {
        let counts = self.targets.counts(indices);
        let n = indices.len() as f64;
        match self.criterion {
            SplitCriterion::Gini => {
                1.0 - counts
                    .iter()
                    .map(|&c| {
                        let p = c as f64 / n;
                        p * p
                    })
                    .sum::<f64>()
            }
            SplitCriterion::Entropy => -counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / n;
                    p * p.log2()
                })
                .sum::<f64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    /// Two well-separated Gaussian-ish blobs on a grid.
    fn blobs(n_per_class: usize) -> (Vec<f32>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per_class {
            let t = (i as f32) / n_per_class as f32;
            x.extend_from_slice(&[0.2 + 0.1 * t, 0.3 - 0.1 * t]);
            y.push(0);
            x.extend_from_slice(&[0.8 - 0.1 * t, 0.7 + 0.1 * t]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blobs(50);
        let forest = ForestBuilder::new(15, TrainOptions::default())
            .train_classifier(&x, 2, &y, 2)
            .unwrap();
        let preds = forest.predict_batch(&x);
        assert!(accuracy(&preds, &y) > 0.95);
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = blobs(100);
        let forest = ForestBuilder::new(
            5,
            TrainOptions {
                max_depth: 3,
                ..Default::default()
            },
        )
        .train_classifier(&x, 2, &y, 2)
        .unwrap();
        assert!(forest.max_depth() <= 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(30);
        let opts = TrainOptions {
            seed: 99,
            ..Default::default()
        };
        let a = ForestBuilder::new(4, opts)
            .train_classifier(&x, 2, &y, 2)
            .unwrap();
        let b = ForestBuilder::new(4, opts)
            .train_classifier(&x, 2, &y, 2)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = [0.0f32, 1.0, 2.0, 3.0];
        let y = [1u32, 1, 1, 1];
        let forest = ForestBuilder::new(1, TrainOptions::default())
            .train_classifier(&x, 1, &y, 2)
            .unwrap();
        assert_eq!(forest.trees()[0].len(), 1);
        assert_eq!(forest.predict_one(&[9.0]), 1);
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let (x, y) = blobs(40);
        let forest = ForestBuilder::new(9, TrainOptions::default())
            .criterion(SplitCriterion::Entropy)
            .train_classifier(&x, 2, &y, 2)
            .unwrap();
        let preds = forest.predict_batch(&x);
        assert!(accuracy(&preds, &y) > 0.9);
    }

    #[test]
    fn shape_errors() {
        let b = ForestBuilder::new(1, TrainOptions::default());
        assert!(matches!(
            b.train_classifier(&[1.0, 2.0, 3.0], 2, &[0], 1),
            Err(ForestError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            b.train_classifier(&[1.0, 2.0], 2, &[0, 1], 2),
            Err(ForestError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            b.train_classifier(&[1.0, 2.0], 1, &[0, 3], 2),
            Err(ForestError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            b.train_classifier(&[], 1, &[], 2),
            Err(ForestError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn non_finite_features_are_rejected_by_position() {
        let (mut x, y) = blobs(10);
        for (bad, text) in [
            (f32::NAN, "NaN"),
            (f32::INFINITY, "inf"),
            (-f32::INFINITY, "-inf"),
        ] {
            x[7] = bad;
            let err = ForestBuilder::new(3, TrainOptions::default())
                .train_classifier(&x, 2, &y, 2)
                .unwrap_err();
            assert_eq!(
                err,
                ForestError::InvalidTrainingData(format!(
                    "non-finite feature value {text} at row 3, column 1"
                ))
            );
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = blobs(50);
        let forest = ForestBuilder::new(
            3,
            TrainOptions {
                min_samples_leaf: 10,
                bootstrap: false,
                ..Default::default()
            },
        )
        .train_classifier(&x, 2, &y, 2)
        .unwrap();
        // With 100 rows and min leaf 10 trees must stay small.
        for t in forest.trees() {
            assert!(t.n_leaves() <= 10);
        }
    }
}

//! CART training for random forests.
//!
//! The paper trains its models with scikit-learn and converts them to ONNX;
//! here we implement the training path ourselves so examples and tests can
//! produce *real* models from data. Training follows standard CART with
//! the random-forest defaults: every tree fits a bootstrap resample, every
//! node draws `ceil(sqrt(n_features))` candidate features, and the split
//! with the lowest weighted Gini impurity wins. The search makes one
//! sorted sweep per candidate feature: the node's rows are sorted by the
//! feature once, and each cut moves one row's class from the right child's
//! counts to the left child's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::ForestError;
use crate::forest::RandomForest;
use crate::importance::{ImportanceAccumulator, TrainedModel};
use crate::node::Node;
use crate::serialize::MAX_CLASSES;
use crate::tree::DecisionTree;

/// Hyper-parameters for forest training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Maximum tree depth in levels (the paper uses 6 and 10).
    pub max_depth: usize,
    /// RNG seed; training is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            max_depth: 10,
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
}

impl ForestBuilder {
    /// Creates a builder for `n_trees` trees with the given options.
    pub fn new(n_trees: usize, options: TrainOptions) -> Self {
        Self { n_trees, options }
    }

    /// Trains a classification forest on row-major `x` with labels `y`.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::InvalidTrainingData`] on shape mismatches,
    /// empty data, a class count outside `1..=65_536` (the range a model
    /// bundle can hold), labels outside `0..n_classes`, or a NaN or
    /// infinite feature value (the message names its row and column).
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
        // Checked before any per-class count vector is sized from it.
        if !(1..=MAX_CLASSES).contains(&n_classes) {
            return Err(ForestError::InvalidTrainingData(format!(
                "class count {n_classes} outside 1..={MAX_CLASSES}"
            )));
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
        let targets = Targets {
            y,
            n_classes: n_classes as usize,
        };
        let (trees, feature_importances) = self.train_trees(x, n_features, &targets)?;
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
    ) -> Result<(Vec<DecisionTree>, Vec<f64>), ForestError> {
        let n_rows = x.len() / n_features;
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let candidates = ((n_features as f64).sqrt().ceil() as usize).clamp(1, n_features);
        let mut trees = Vec::with_capacity(self.n_trees);
        let mut importance = ImportanceAccumulator::new(n_features);
        for _ in 0..self.n_trees {
            let bootstrap: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..n_rows)).collect();
            let mut grower = TreeGrower {
                x,
                n_features,
                targets,
                max_depth: self.options.max_depth,
                candidates,
                rng: &mut rng,
                nodes: Vec::new(),
                importance: &mut importance,
                n_total: n_rows,
            };
            grower.grow(bootstrap, 0);
            trees.push(DecisionTree::from_nodes(grower.nodes)?);
        }
        Ok((trees, importance.finalize()))
    }
}

/// Gini impurity of a node holding `n` rows with per-class `counts`.
fn gini(counts: &[u32], n: usize) -> f64 {
    let n = n as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum::<f64>()
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

    fn is_pure(&self, indices: &[usize]) -> bool {
        let first = self.y[indices[0]];
        indices.iter().all(|&i| self.y[i] == first)
    }
}

struct TreeGrower<'a> {
    x: &'a [f32],
    n_features: usize,
    targets: &'a Targets<'a>,
    max_depth: usize,
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
        let split = if depth >= self.max_depth || self.targets.is_pure(&indices) {
            None
        } else {
            self.best_split(&indices)
        };
        let Some((feature, threshold, gain)) = split else {
            return self.leaf(&indices);
        };
        self.importance
            .record(feature, gain * indices.len() as f64 / self.n_total as f64);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| self.feature(i, feature) <= threshold);
        // The midpoint of two adjacent floats can round up to the larger
        // one, sending every row left.
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.leaf(&indices);
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

    /// Appends a leaf voting for the majority class of `indices`.
    fn leaf(&mut self, indices: &[usize]) -> u32 {
        let idx = self.nodes.len() as u32;
        let class = RandomForest::majority(&self.targets.counts(indices));
        self.nodes.push(Node::Leaf(class));
        idx
    }

    /// Finds the best `(feature, threshold, gain)` over a random candidate
    /// subset: per feature, one sort of the rows and one sweep over the
    /// cuts between distinct values, carrying both children's counts.
    fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f32, f64)> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        features.shuffle(self.rng);
        features.truncate(self.candidates);
        let n = indices.len();
        let parent = self.targets.counts(indices);
        let parent_impurity = gini(&parent, n);
        let mut sorted = indices.to_vec();
        let mut left = vec![0u32; parent.len()];
        let mut right = parent.clone();
        let mut best: Option<(f64, usize, f32)> = None;
        for f in features {
            // Cuts fall only between distinct values, so the rows left of
            // a cut are the same set whatever order ties sort in.
            sorted.sort_unstable_by(|&a, &b| self.feature(a, f).total_cmp(&self.feature(b, f)));
            left.fill(0);
            right.copy_from_slice(&parent);
            for cut in 1..n {
                let class = self.targets.y[sorted[cut - 1]] as usize;
                left[class] += 1;
                right[class] -= 1;
                let lo = self.feature(sorted[cut - 1], f);
                let hi = self.feature(sorted[cut], f);
                if lo == hi {
                    continue;
                }
                let threshold = lo + (hi - lo) / 2.0;
                let (nl, nr, total) = (cut as f64, (n - cut) as f64, n as f64);
                let weighted = gini(&left, cut) * nl / total + gini(&right, n - cut) * nr / total;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, threshold));
                }
            }
        }
        best.map(|(g, f, t)| (f, t, g))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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
    fn class_counts_follow_the_bundle_format() {
        let x = [0.0f32, 1.0];
        let y = [0u32, 1];
        let b = ForestBuilder::new(1, TrainOptions::default());
        for bad in [0, MAX_CLASSES + 1, u32::MAX] {
            assert_eq!(
                b.train_classifier(&x, 1, &y, bad).unwrap_err(),
                ForestError::InvalidTrainingData(format!("class count {bad} outside 1..=65536"))
            );
        }
        let forest = b.train_classifier(&x, 1, &y, MAX_CLASSES).unwrap();
        let bundle = crate::ModelBundle::serialize(&forest);
        assert_eq!(bundle.deserialize().unwrap(), forest);
    }

    /// Adjacent floats whose midpoint rounds up to the larger one: `LO`'s
    /// last mantissa bit is odd, so the tie breaks to `HI`.
    const LO: f32 = f32::from_bits(0x3f80_0001);
    const HI: f32 = f32::from_bits(0x3f80_0002);

    #[test]
    fn split_whose_midpoint_rounds_up_becomes_a_leaf() {
        assert_eq!(LO + (HI - LO) / 2.0, HI);
        let x = [LO, HI, LO, HI];
        let y = [0u32, 1, 0, 1];
        let forest = ForestBuilder::new(4, TrainOptions::default())
            .train_classifier(&x, 1, &y, 2)
            .unwrap();
        for tree in forest.trees() {
            assert_eq!(tree.len(), 1);
        }
    }

    /// The split search before the sweep, kept as the reference: every
    /// cut recounts both children's classes from scratch.
    fn reference_best_split(
        g: &mut TreeGrower<'_>,
        indices: &[usize],
    ) -> Option<(usize, f32, f64)> {
        let mut features: Vec<usize> = (0..g.n_features).collect();
        features.shuffle(g.rng);
        features.truncate(g.candidates);
        let parent_impurity = reference_impurity(g.targets, indices);
        let mut best: Option<(f64, usize, f32)> = None;
        for f in features {
            let mut sorted = indices.to_vec();
            sorted.sort_by(|&a, &b| {
                g.feature(a, f)
                    .partial_cmp(&g.feature(b, f))
                    .expect("finite feature values")
            });
            for cut in 1..sorted.len() {
                let lo = g.feature(sorted[cut - 1], f);
                let hi = g.feature(sorted[cut], f);
                if lo == hi {
                    continue;
                }
                let threshold = lo + (hi - lo) / 2.0;
                let (left, right) = sorted.split_at(cut);
                let nl = left.len() as f64;
                let nr = right.len() as f64;
                let n = nl + nr;
                let weighted = reference_impurity(g.targets, left) * nl / n
                    + reference_impurity(g.targets, right) * nr / n;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, threshold));
                }
            }
        }
        best.map(|(g, f, t)| (f, t, g))
    }

    fn reference_impurity(targets: &Targets<'_>, indices: &[usize]) -> f64 {
        let counts = targets.counts(indices);
        let n = indices.len() as f64;
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / n;
                p * p
            })
            .sum::<f64>()
    }

    /// One node's split search, by the sweep or by the reference, from
    /// `rng`; returns the split and the RNG state it leaves behind.
    fn search(
        node: &NodeCase,
        candidates: usize,
        mut rng: StdRng,
        reference: bool,
    ) -> (Option<(usize, f32, f64)>, StdRng) {
        let targets = Targets {
            y: &node.y,
            n_classes: node.n_classes,
        };
        let mut importance = ImportanceAccumulator::new(node.n_features);
        let mut grower = TreeGrower {
            x: &node.x,
            n_features: node.n_features,
            targets: &targets,
            max_depth: 10,
            candidates,
            rng: &mut rng,
            nodes: Vec::new(),
            importance: &mut importance,
            n_total: node.indices.len(),
        };
        let split = if reference {
            reference_best_split(&mut grower, &node.indices)
        } else {
            grower.best_split(&node.indices)
        };
        (split, rng)
    }

    /// A small training frame and one node's (bootstrap-like) row multiset.
    #[derive(Debug)]
    struct NodeCase {
        x: Vec<f32>,
        n_features: usize,
        y: Vec<u32>,
        n_classes: usize,
        indices: Vec<usize>,
    }

    /// Frames of 1-4 features and 1-24 rows over 1-5 classes. Each column
    /// is small integers (many duplicates), a constant, or the adjacent
    /// pair `LO`/`HI`.
    fn arb_node() -> impl Strategy<Value = NodeCase> {
        (1usize..=4, 1usize..=5, 1usize..=24).prop_flat_map(|(n_features, n_classes, n_rows)| {
            (
                proptest::collection::vec(0u8..3, n_features),
                proptest::collection::vec(0u8..4, n_rows * n_features),
                proptest::collection::vec(0..n_classes as u32, n_rows),
                proptest::collection::vec(0..n_rows, 1..=2 * n_rows),
            )
                .prop_map(move |(kinds, raw, y, indices)| {
                    let x = raw
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| match kinds[i % n_features] {
                            0 => f32::from(v),
                            1 => 2.5,
                            _ if v % 2 == 0 => LO,
                            _ => HI,
                        })
                        .collect();
                    NodeCase {
                        x,
                        n_features,
                        y,
                        n_classes,
                        indices,
                    }
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sweep_matches_the_recounting_search(
            node in arb_node(),
            candidates in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let candidates = candidates.min(node.n_features);
            let rng = StdRng::seed_from_u64(seed);
            let sweep = search(&node, candidates, rng.clone(), false);
            let reference = search(&node, candidates, rng, true);
            prop_assert_eq!(sweep, reference);
        }
    }
}

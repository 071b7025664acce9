//! Impurity-based feature importance, and the [`TrainedModel`] wrapper
//! returned by detailed training.

use serde::{Deserialize, Serialize};

use crate::forest::RandomForest;

/// A trained model plus training byproducts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The forest itself.
    pub forest: RandomForest,
    /// Mean-decrease-in-impurity feature importances, normalized to sum to
    /// 1 (all zeros when no split was ever made).
    pub feature_importances: Vec<f64>,
}

impl TrainedModel {
    /// Indices of features ordered from most to least important.
    pub fn ranked_features(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.feature_importances.len()).collect();
        order.sort_by(|&a, &b| {
            self.feature_importances[b]
                .partial_cmp(&self.feature_importances[a])
                .expect("importances are finite")
        });
        order
    }
}

/// Accumulates weighted impurity decreases during training; finalized into
/// normalized importances.
#[derive(Debug, Clone, Default)]
pub(crate) struct ImportanceAccumulator {
    totals: Vec<f64>,
}

impl ImportanceAccumulator {
    pub(crate) fn new(n_features: usize) -> Self {
        Self {
            totals: vec![0.0; n_features],
        }
    }

    /// Records a split on `feature` with the given weighted impurity
    /// decrease (`n_node/n_total * (impurity_parent - weighted_children)`).
    pub(crate) fn record(&mut self, feature: usize, weighted_decrease: f64) {
        self.totals[feature] += weighted_decrease.max(0.0);
    }

    /// Normalizes into importances summing to 1 (or all zeros).
    pub(crate) fn finalize(self) -> Vec<f64> {
        let sum: f64 = self.totals.iter().sum();
        if sum <= 0.0 {
            return self.totals;
        }
        self.totals.into_iter().map(|v| v / sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ForestBuilder, TrainOptions};

    #[test]
    fn accumulator_normalizes() {
        let mut acc = ImportanceAccumulator::new(3);
        acc.record(0, 3.0);
        acc.record(2, 1.0);
        acc.record(0, 0.0);
        let imp = acc.finalize();
        assert!((imp[0] - 0.75).abs() < 1e-12);
        assert_eq!(imp[1], 0.0);
        assert!((imp[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn no_splits_means_zero_importances() {
        let acc = ImportanceAccumulator::new(2);
        assert_eq!(acc.finalize(), vec![0.0, 0.0]);
    }

    #[test]
    fn informative_feature_dominates() {
        // Feature 0 fully determines the label; feature 1 is noise.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let class = (i % 2) as u32;
            x.push(class as f32); // feature 0: the label itself
            x.push(((i * 37) % 100) as f32 / 100.0); // feature 1: noise
            y.push(class);
        }
        let trained = ForestBuilder::new(
            10,
            TrainOptions {
                max_depth: 4,
                feature_candidates: Some(2),
                ..Default::default()
            },
        )
        .train_classifier_detailed(&x, 2, &y, 2)
        .unwrap();
        assert!(trained.feature_importances[0] > 0.9);
        assert_eq!(trained.ranked_features()[0], 0);
        let sum: f64 = trained.feature_importances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

//! Quality metrics for model evaluation in examples and tests.

/// Fraction of predictions equal to the ground truth.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
///
/// # Example
///
/// ```
/// use mlscore_forest::metrics::accuracy;
///
/// assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
/// ```
pub fn accuracy(predicted: &[u32], truth: &[u32]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    assert!(!predicted.is_empty(), "empty prediction set");
    let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    correct as f64 / predicted.len() as f64
}

/// A confusion matrix for multi-class classification; `counts[t][p]` is the
/// number of records with true class `t` predicted as `p`.
///
/// # Example
///
/// ```
/// use mlscore_forest::metrics::ConfusionMatrix;
///
/// let cm = ConfusionMatrix::from_predictions(&[0, 1, 1], &[0, 1, 0], 2);
/// assert_eq!(cm.count(0, 0), 1);
/// assert_eq!(cm.count(0, 1), 1); // one class-0 record predicted as 1
/// assert_eq!(cm.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Builds a matrix from predictions and ground truth.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or any class outside `0..n_classes`.
    pub fn from_predictions(predicted: &[u32], truth: &[u32], n_classes: usize) -> Self {
        assert_eq!(predicted.len(), truth.len(), "length mismatch");
        let mut counts = vec![0u64; n_classes * n_classes];
        for (&p, &t) in predicted.iter().zip(truth) {
            assert!((p as usize) < n_classes, "prediction {p} out of range");
            assert!((t as usize) < n_classes, "truth {t} out of range");
            counts[t as usize * n_classes + p as usize] += 1;
        }
        Self { n_classes, counts }
    }

    /// Count of records with true class `truth` predicted as `predicted`.
    pub fn count(&self, truth: u32, predicted: u32) -> u64 {
        self.counts[truth as usize * self.n_classes + predicted as usize]
    }

    /// Total records tallied.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass over total); 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.n_classes)
            .map(|i| self.counts[i * self.n_classes + i])
            .sum();
        diag as f64 / total as f64
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 1, 1], &[1, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[2], &[2]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        accuracy(&[0], &[0, 1]);
    }

    #[test]
    fn confusion_matrix_tallies() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0, 1, 2, 2], &[0, 1, 1, 2, 0], 3);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(1, 0), 1);
        assert_eq!(cm.count(1, 1), 1);
        assert_eq!(cm.count(2, 2), 1);
        assert_eq!(cm.count(0, 2), 1);
        assert_eq!(cm.total(), 5);
        assert!((cm.accuracy() - 0.6).abs() < 1e-12);
        assert_eq!(cm.n_classes(), 3);
    }

    #[test]
    fn empty_matrix_accuracy_zero() {
        let cm = ConfusionMatrix::from_predictions(&[], &[], 2);
        assert_eq!(cm.accuracy(), 0.0);
    }
}

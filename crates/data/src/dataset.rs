//! Labeled datasets and the paper's two dataset specifications.

use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::frame::TabularFrame;
use crate::higgs;
use crate::iris;

/// Static description of a dataset family — the two the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DatasetSpec {
    /// IRIS-like: 4 features, 3 classes (§IV-A). Not supported by
    /// GPU-RAPIDS in the paper (multi-class).
    Iris,
    /// HIGGS-like: 28 features, 2 classes (§IV-A).
    Higgs,
}

impl DatasetSpec {
    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetSpec::Iris => "IRIS",
            DatasetSpec::Higgs => "HIGGS",
        }
    }

    /// Feature count.
    pub fn n_features(self) -> usize {
        match self {
            DatasetSpec::Iris => 4,
            DatasetSpec::Higgs => 28,
        }
    }

    /// Class count.
    pub fn n_classes(self) -> u32 {
        match self {
            DatasetSpec::Iris => 3,
            DatasetSpec::Higgs => 2,
        }
    }

    /// Both paper datasets, in figure order.
    pub fn all() -> [DatasetSpec; 2] {
        [DatasetSpec::Iris, DatasetSpec::Higgs]
    }
}

/// A labeled classification dataset: a feature frame plus class labels.
///
/// # Example
///
/// ```
/// use mlscore_data::Dataset;
///
/// let higgs = Dataset::higgs(500, 7);
/// assert_eq!(higgs.frame().n_features(), 28);
/// assert!(higgs.labels().iter().all(|&c| c < 2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    name: String,
    frame: TabularFrame,
    labels: Vec<u32>,
    n_classes: u32,
}

impl Dataset {
    /// Builds a dataset from parts.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelMismatch`] if labels and rows disagree.
    pub fn new(
        name: impl Into<String>,
        frame: TabularFrame,
        labels: Vec<u32>,
        n_classes: u32,
    ) -> Result<Self, DataError> {
        if frame.n_rows() != labels.len() {
            return Err(DataError::LabelMismatch {
                rows: frame.n_rows(),
                labels: labels.len(),
            });
        }
        Ok(Self {
            name: name.into(),
            frame,
            labels,
            n_classes,
        })
    }

    /// Synthetic IRIS-like data: Gaussian clusters per class around the
    /// published per-class feature means, replicated/cycled to `n_records`
    /// the way the paper replicated the 150-sample original to 1M.
    pub fn iris(n_records: usize, seed: u64) -> Dataset {
        iris::generate(n_records, seed)
    }

    /// Synthetic HIGGS-like data: 21 low-level kinematic features plus 7
    /// derived high-level features, labeled by a noisy nonlinear rule.
    pub fn higgs(n_records: usize, seed: u64) -> Dataset {
        higgs::generate(n_records, seed)
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The feature frame.
    pub fn frame(&self) -> &TabularFrame {
        &self.frame
    }

    /// Class labels, one per row.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Replaces the frame with its min-max normalized version (labels are
    /// unchanged). Normalized features line up with the `[0, 1)` thresholds
    /// of `RandomForest::synthetic_full` (in `mlscore-forest`)
    /// so synthetic models exercise diverse paths.
    pub fn normalized(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            frame: self.frame.normalized(),
            labels: self.labels.clone(),
            n_classes: self.n_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_metadata_matches_paper() {
        assert_eq!(DatasetSpec::Iris.n_features(), 4);
        assert_eq!(DatasetSpec::Iris.n_classes(), 3);
        assert_eq!(DatasetSpec::Higgs.n_features(), 28);
        assert_eq!(DatasetSpec::Higgs.n_classes(), 2);
        assert_eq!(DatasetSpec::Iris.name(), "IRIS");
        assert_eq!(DatasetSpec::all().len(), 2);
    }

    #[test]
    fn new_validates_labels() {
        let frame = TabularFrame::from_rows(vec![0.0; 6], 3).unwrap();
        assert!(matches!(
            Dataset::new("x", frame, vec![0], 2),
            Err(DataError::LabelMismatch { rows: 2, labels: 1 })
        ));
    }

    #[test]
    fn normalized_preserves_shape() {
        let d = Dataset::iris(20, 1).normalized();
        assert_eq!(d.frame().n_rows(), 20);
        for row in d.frame().rows() {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}

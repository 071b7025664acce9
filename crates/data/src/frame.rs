//! Row-major tabular feature storage.

use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::stream::NormParams;

/// A dense, row-major matrix of `f32` features — the scoring input every
/// backend consumes (the stand-in for the Pandas DataFrame handed to the
/// Python script).
///
/// # Example
///
/// ```
/// use mlscore_data::TabularFrame;
///
/// let frame = TabularFrame::from_rows(vec![1.0, 2.0, 3.0, 4.0], 2)?;
/// assert_eq!(frame.n_rows(), 2);
/// assert_eq!(frame.row(1), &[3.0, 4.0]);
/// assert_eq!(frame.bytes(), 16);
/// # Ok::<(), mlscore_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TabularFrame {
    data: Vec<f32>,
    n_features: usize,
}

impl TabularFrame {
    /// Wraps row-major data with `n_features` columns.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ShapeMismatch`] if `data.len()` is not a
    /// multiple of `n_features`, or [`DataError::ZeroFeatures`] when
    /// `n_features == 0`.
    pub fn from_rows(data: Vec<f32>, n_features: usize) -> Result<Self, DataError> {
        if n_features == 0 {
            return Err(DataError::ZeroFeatures);
        }
        if !data.len().is_multiple_of(n_features) {
            return Err(DataError::ShapeMismatch {
                len: data.len(),
                n_features,
            });
        }
        Ok(Self { data, n_features })
    }

    /// An empty frame with room for `rows` rows reserved up front — the
    /// scratch shape every [`RecordStream`](crate::RecordStream) scanner
    /// reuses across chunks (refills within capacity never reallocate).
    ///
    /// # Panics
    ///
    /// Panics if `n_features == 0`.
    pub fn with_capacity(rows: usize, n_features: usize) -> Self {
        assert!(n_features > 0, "a frame needs at least one feature column");
        Self {
            data: Vec::with_capacity(rows * n_features),
            n_features,
        }
    }

    /// Drops all rows, keeping the allocation (and the column count).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Appends whole row-major rows to the frame. Within the reserved
    /// capacity this is a plain copy — no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the column count.
    pub fn extend_rows(&mut self, rows: &[f32]) {
        assert!(
            rows.len().is_multiple_of(self.n_features),
            "row data length {} is not a multiple of {} columns",
            rows.len(),
            self.n_features
        );
        self.data.extend_from_slice(rows);
    }

    /// Resizes to exactly `rows` rows (new rows zero-filled). Within the
    /// reserved capacity this never reallocates.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.n_features, 0.0);
    }

    /// The raw row-major buffer, mutably — for featurizers that transform
    /// a chunk in place into reusable scratch.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.data.len() / self.n_features
    }

    /// Returns `true` if the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// One row as a feature slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.n_features)
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// In-memory payload size in bytes — the quantity every transfer model
    /// (PCIe DMA, SQL↔Python marshaling) charges for.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }

    /// Min-max normalizes every column into `[0, 1]` (constant columns map
    /// to 0.5). Returns the normalized frame.
    ///
    /// Fits [`NormParams`] over the whole frame and applies them — exactly
    /// the arithmetic the chunked
    /// [`NormalizeStream`](crate::NormalizeStream) featurizer runs, so the
    /// fused scan→featurize path is bit-exact with this staged
    /// materialization.
    pub fn normalized(&self) -> TabularFrame {
        if self.is_empty() {
            return self.clone();
        }
        let params = NormParams::fit(self);
        let mut out = TabularFrame::with_capacity(self.n_rows(), self.n_features);
        out.resize_rows(self.n_rows());
        params.apply_slice(&self.data, &mut out.data);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert!(matches!(
            TabularFrame::from_rows(vec![1.0; 5], 2),
            Err(DataError::ShapeMismatch {
                len: 5,
                n_features: 2
            })
        ));
        assert!(matches!(
            TabularFrame::from_rows(vec![], 0),
            Err(DataError::ZeroFeatures)
        ));
        assert!(TabularFrame::from_rows(vec![], 3).unwrap().is_empty());
    }

    #[test]
    fn rows_and_bytes() {
        let f = TabularFrame::from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(f.rows().count(), 2);
        assert_eq!(f.bytes(), 24);
        assert_eq!(f.as_slice().len(), 6);
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let f = TabularFrame::from_rows(vec![0.0, 5.0, 10.0, 5.0, 20.0, 5.0], 2).unwrap();
        let n = f.normalized();
        assert_eq!(n.row(0), &[0.0, 0.5]); // constant column -> 0.5
        assert_eq!(n.row(1), &[0.5, 0.5]);
        assert_eq!(n.row(2), &[1.0, 0.5]);
    }

    #[test]
    fn normalization_edge_cases() {
        // An empty frame normalizes to itself (no NormParams fit).
        let e = TabularFrame::from_rows(vec![], 4).unwrap();
        assert!(e.normalized().is_empty());
        assert_eq!(e.normalized().n_features(), 4);
        // A single-row frame has min == max in every column -> all 0.5.
        let one = TabularFrame::from_rows(vec![3.0, -9.0, 0.0], 3).unwrap();
        assert_eq!(one.normalized().as_slice(), &[0.5, 0.5, 0.5]);
        // An all-NaN column never satisfies max > min, so it maps to the
        // constant-column fallback instead of propagating NaN.
        let f = TabularFrame::from_rows(vec![0.0, f32::NAN, 10.0, f32::NAN, 20.0, f32::NAN], 2)
            .unwrap();
        let n = f.normalized();
        assert_eq!(n.row(0), &[0.0, 0.5]);
        assert_eq!(n.row(1), &[0.5, 0.5]);
        assert_eq!(n.row(2), &[1.0, 0.5]);
    }
}

//! Column-major frames.
//!
//! DBMS analytics engines and GPU dataframes (cuDF) are columnar, while the
//! scoring path hands backends row-major batches. The paper's GPU-RAPIDS
//! path pays a real conversion ("a separate data pre-processing step to
//! convert the Numpy array to a cuDF data frame") — this module implements
//! that conversion functionally, so the RAPIDS backend's pre-processing
//! stage corresponds to actual executed work in tests.

use serde::{Deserialize, Serialize};

use crate::frame::TabularFrame;

/// A dense column-major matrix of `f32` features.
///
/// # Example
///
/// ```
/// use mlscore_data::{ColumnarFrame, TabularFrame};
///
/// let rows = TabularFrame::from_rows(vec![1.0, 2.0, 3.0, 4.0], 2)?;
/// let cols = ColumnarFrame::from_rows(&rows);
/// assert_eq!(cols.column(0), &[1.0, 3.0]);
/// assert_eq!(cols.column(1), &[2.0, 4.0]);
/// assert_eq!(cols.to_rows(), rows);
/// # Ok::<(), mlscore_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnarFrame {
    columns: Vec<Vec<f32>>,
    n_rows: usize,
}

impl ColumnarFrame {
    /// Transposes a row-major frame into columns (the cuDF conversion).
    pub fn from_rows(frame: &TabularFrame) -> Self {
        let f = frame.n_features();
        let n = frame.n_rows();
        let mut columns = vec![Vec::with_capacity(n); f];
        for row in frame.rows() {
            for (j, &v) in row.iter().enumerate() {
                columns[j].push(v);
            }
        }
        Self { columns, n_rows: n }
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// One column's values.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_features()`.
    pub fn column(&self, j: usize) -> &[f32] {
        &self.columns[j]
    }

    /// Gathers row `i` into a caller-provided buffer (how a columnar kernel
    /// reads one sample).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()` or `out.len() != n_features()`.
    pub fn gather_row(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.columns.len(), "buffer width mismatch");
        for (slot, column) in out.iter_mut().zip(&self.columns) {
            *slot = column[i];
        }
    }

    /// Transposes back to a row-major frame.
    pub fn to_rows(&self) -> TabularFrame {
        let f = self.columns.len();
        let mut data = Vec::with_capacity(self.n_rows * f);
        for i in 0..self.n_rows {
            for column in &self.columns {
                data.push(column[i]);
            }
        }
        TabularFrame::from_rows(data, f).expect("transpose preserves shape")
    }

    /// Payload size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.n_rows * self.columns.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_roundtrip() {
        let rows = TabularFrame::from_rows((0..24).map(|i| i as f32).collect(), 4).unwrap();
        let cols = ColumnarFrame::from_rows(&rows);
        assert_eq!(cols.n_rows(), 6);
        assert_eq!(cols.n_features(), 4);
        assert_eq!(cols.to_rows(), rows);
        assert_eq!(cols.bytes(), rows.bytes());
    }

    #[test]
    fn gather_row_matches_row_major() {
        let rows = TabularFrame::from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3).unwrap();
        let cols = ColumnarFrame::from_rows(&rows);
        let mut buf = [0f32; 3];
        cols.gather_row(1, &mut buf);
        assert_eq!(&buf, rows.row(1));
    }

    #[test]
    fn empty_rows_are_fine() {
        let rows = TabularFrame::from_rows(vec![], 3).unwrap();
        let cols = ColumnarFrame::from_rows(&rows);
        assert_eq!(cols.n_rows(), 0);
        assert_eq!(cols.to_rows(), rows);
    }
}

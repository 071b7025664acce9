//! Tabular data and synthetic dataset generators.
//!
//! The paper evaluates on IRIS (4 features, 3 classes, replicated to 1M
//! rows) and HIGGS (28 features, binary, 11M rows). We cannot ship those
//! datasets, so this crate provides faithful synthetic stand-ins: the study
//! depends only on record count, feature width, and class count — not on
//! the provenance of the feature values (see DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! use mlscore_data::Dataset;
//!
//! let iris = Dataset::iris(1_000, 42);
//! assert_eq!(iris.frame().n_features(), 4);
//! assert_eq!(iris.frame().n_rows(), 1_000);
//! assert_eq!(iris.n_classes(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod frame;
pub(crate) mod gauss;
pub mod higgs;
pub mod iris;
pub mod split;
pub mod stream;

pub use columnar::ColumnarFrame;
pub use dataset::{Dataset, DatasetSpec};
pub use error::DataError;
pub use frame::TabularFrame;
pub use split::train_test_split;
pub use stream::{
    ChainScanner, CsvScanner, FrameScanner, NormParams, NormalizeStream, RecordStream,
    DEFAULT_CHUNK_ROWS,
};

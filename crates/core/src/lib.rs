//! Experiment harness: calibration, sweeps, and generators for every table
//! and figure in the paper's evaluation (Figs. 1 and 7–11, plus the §IV
//! headline ratios) and for the ablation studies beyond it.
//!
//! # Example
//!
//! ```
//! use mlscore_core::figures;
//! use mlscore_data::DatasetSpec;
//!
//! // Regenerate Fig. 7a: the FPGA scoring-time breakdown for one record.
//! let fig = figures::fig7(DatasetSpec::Iris, 128, 10, 1);
//! assert!(!fig.breakdown.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod calibration;
pub mod experiment;
pub mod export;
pub mod figures;
pub mod headline;
pub mod report;
pub mod shmoo;

pub use experiment::{BackendResult, SweepPoint};
pub use headline::HeadlineReport;
pub use shmoo::{ShmooCell, ShmooTable};

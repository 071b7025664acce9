//! Persistent batch-scoring executor.
//!
//! The seed CPU backends spawned scoped threads on every `score()` call and
//! split rows into static `div_ceil` chunks. This crate replaces that with
//! a process-wide, spawn-once [`ExecPool`] whose workers park between
//! calls and claim cache-sized row blocks from one job-wide cursor; a
//! panicking task reaches the caller of [`ExecPool::run`] once every
//! worker has left the job. On top of the pool sit the two CPU scoring
//! kernels, one per runtime the paper measures:
//!
//! * [`score_simd_batch`] walks a [`FlatImage`] — the Fig. 4b flat layout
//!   re-encoded as implicit heaps — with an explicit-SIMD lockstep lane
//!   walker at the [`SimdLevel`] the host supports (the ONNX-like
//!   backend);
//! * [`score_forest_batch`] walks the pointer trees in record × tree blocks
//!   (the scikit-learn-like backend).
//!
//! Every kernel scores into one class id per row, uses per-thread
//! reusable vote scratch, and is bit-exact against the corresponding
//! sequential `score_one`/`predict_one` path: vote counts are commutative
//! integer adds combined by the same majority rule.
//!
//! # Example
//!
//! ```
//! use mlscore_data::Dataset;
//! use mlscore_exec::{score_simd_batch, ExecPool, FlatImage, RunConfig, SimdLevel};
//! use mlscore_forest::{ForestConfig, RandomForest};
//!
//! let forest = RandomForest::synthetic_full(
//!     &ForestConfig::classification(8, 4, 3).with_depth(6),
//!     11,
//! );
//! let image = FlatImage::from_forest(&forest, 6).unwrap();
//! let data = Dataset::iris(200, 3).normalized();
//! let cfg = RunConfig::for_threads(4);
//! let (preds, report) =
//!     score_simd_batch(&image, data.frame(), ExecPool::global(), &cfg, SimdLevel::detect());
//! assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
//! assert_eq!(report.rows(), 200);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod kernel_simd;
pub mod pool;
pub mod report;

pub use kernel::score_forest_batch;
pub use kernel_simd::{score_simd_batch, FlatImage, SimdLevel};
pub use pool::{ExecPool, RunConfig};
pub use report::{RunReport, WorkerReport};

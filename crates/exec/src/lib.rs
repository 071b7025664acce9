//! Persistent batch-scoring executor.
//!
//! The seed CPU backends spawned scoped threads on every `score()` call and
//! split rows into static `div_ceil` chunks. This crate replaces that with
//! a process-wide, spawn-once [`ExecPool`]: a work-stealing pool whose
//! workers park between calls, claim row ranges in cache-sized blocks from
//! per-worker deques, and steal half of a victim's remaining range when
//! their own deque runs dry. On top of the pool, [`kernel`] provides
//! blocked record×tree scoring kernels for the three forest
//! representations (pointer trees, the Fig. 4b flat layout, and the
//! quantized layout) with per-thread reusable vote scratch and a lockstep
//! multi-record traversal inner loop.
//!
//! Every kernel is bit-exact against the corresponding sequential
//! `score_one`/`predict_one` path: vote counts are commutative integer
//! adds, and regression sums accumulate in ascending tree order — the same
//! floating-point fold the sequential path performs.
//!
//! # Example
//!
//! ```
//! use mlscore_data::Dataset;
//! use mlscore_exec::{kernel, ExecPool, RunConfig};
//! use mlscore_forest::{FlatForest, ForestConfig, RandomForest};
//!
//! let forest = RandomForest::synthetic_full(
//!     &ForestConfig::classification(8, 4, 3).with_depth(6),
//!     11,
//! );
//! let flat = FlatForest::from_forest(&forest, 6).unwrap();
//! let data = Dataset::iris(200, 3).normalized();
//! let cfg = RunConfig::for_threads(4);
//! let (preds, report) = kernel::score_flat_batch(&flat, data.frame(), ExecPool::global(), &cfg);
//! assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
//! assert_eq!(report.rows(), 200);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod kernel;
pub mod kernel_simd;
pub mod pool;
pub mod quickscorer;
pub mod report;
pub mod stream;

pub use choice::{score_auto_batch, Kernel, KernelChoice};
pub use kernel::{
    fill_indexed, score_flat_batch, score_forest_batch, score_image_batch, score_quantized_batch,
    FlatImage, ImageLayout,
};
pub use kernel_simd::{score_simd_batch, SimdLevel};
pub use pool::{ExecPool, RunConfig};
pub use quickscorer::score_quickscorer_batch;
pub use report::{record_sequential_spans, RunReport, WorkerReport};
pub use stream::{score_stream, ChunkRun, StreamReport};

//! The [`ScoringBackend`] abstraction and the CPU scoring backends.
//!
//! Every hardware backend in the study — the two CPU engines here, the GPU
//! strategies in `mlscore-gpu`, and the FPGA engine in `mlscore-fpga` —
//! implements [`ScoringBackend`]: it can *functionally* score a batch
//! (producing real predictions that property tests compare bit-for-bit
//! against reference traversal) and it can *estimate* a deterministic
//! [`TimingBreakdown`](mlscore_sim::TimingBreakdown) from a calibrated cost
//! model, which is what regenerates the paper's figures.
//!
//! The two CPU engines mirror the paper's §IV-A setup:
//!
//! * [`SklearnCpu`] — batch-optimized multi-threaded traversal
//!   ("CPU_SKLearn", 52 threads in the paper),
//! * [`OnnxCpu`] — flat-layout per-record scorer ("CPU_ONNX" with 1 thread,
//!   "CPU_ONNX_52th" with 52), cheap to invoke but not batch-optimized.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cost;
pub mod error;
pub mod onnx;
pub mod sklearn;
pub mod traits;

pub use artifact::{
    artifact_key, compile, compile_timed, compile_timed_with, ArtifactCache, ArtifactKey,
    CacheOutcome, CacheStats, CompiledModel, Lowered, ModelRef, PrepareTiming,
};
pub use cost::{parallel_efficiency, CpuSpec};
pub use error::BackendError;
pub use onnx::{OnnxCostParams, OnnxCpu};
pub use sklearn::{SklearnCostParams, SklearnCpu};
pub use traits::{score_once, score_whole_batch, ScoringBackend, StreamChunk, StreamOutcome};

//! # mlscore
//!
//! Facade crate for the `mlscore` workspace — an end-to-end characterization
//! library for DBMS machine learning scoring pipelines with CPU, GPU, and
//! FPGA backends, reproducing *"Hardware Acceleration for DBMS Machine
//! Learning Scoring: Is It Worth the Overheads?"* (ISPASS 2021).
//!
//! See [`prelude`] for the most common imports, and the member crates for the
//! full API:
//!
//! * [`mlscore_forest`] — random forest models, training, flat node layout.
//! * [`mlscore_data`] — tabular frames and synthetic IRIS/HIGGS generators.
//! * [`mlscore_backend`] — the [`ScoringBackend`](mlscore_backend::ScoringBackend)
//!   trait and CPU backends.
//! * [`mlscore_exec`] — persistent work-stealing batch executor and blocked
//!   scoring kernels.
//! * [`mlscore_gpu`] / [`mlscore_fpga`] — accelerator models.
//! * [`mlscore_offload`] — PCIe and offload-overhead models.
//! * [`mlscore_pipeline`] — the end-to-end T-SQL query pipeline.
//! * [`mlscore_sched`] — backend-selection policies.
//! * [`mlscore_serve`] — discrete-event serving engine: arrival processes,
//!   admission control, micro-batch coalescing, device contention.
//! * [`mlscore_telemetry`] — span tracing, metrics, Perfetto trace export.
//! * [`mlscore_core`] — experiment harness and paper figure generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mlscore_backend as backend;
pub use mlscore_core as core;
pub use mlscore_data as data;
pub use mlscore_exec as exec;
pub use mlscore_forest as forest;
pub use mlscore_fpga as fpga;
pub use mlscore_gpu as gpu;
pub use mlscore_offload as offload;
pub use mlscore_pipeline as pipeline;
pub use mlscore_sched as sched;
pub use mlscore_serve as serve;
pub use mlscore_sim as sim;
pub use mlscore_telemetry as telemetry;

pub mod prelude;

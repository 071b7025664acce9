//! A functional, cycle-level model of the paper's FPGA random forest
//! inference engine (Fig. 5) on an Intel Stratix 10 GX 2800.
//!
//! The engine holds one tree per processing element (128 PEs), each tree
//! stored in per-PE BRAM in the Fig. 4b flat layout, processes one record
//! per cycle at 250 MHz (threads are "one cycle apart"), combines per-tree
//! outcomes in a majority-voting unit, buffers outputs in a result memory,
//! and talks to the host over PCIe 3.0 x16 with CSR-based setup and an
//! interrupt-based completion signal. Models with more than 128 trees take
//! multiple engine passes; trees deeper than the configured capacity (10
//! levels in the paper) are rejected — or handled by split execution
//! ([`split`]), the extension sketched in §III-B.
//!
//! # Example
//!
//! ```
//! use mlscore_backend::score_once;
//! use mlscore_data::Dataset;
//! use mlscore_forest::{ForestConfig, RandomForest};
//! use mlscore_fpga::FpgaBackend;
//!
//! let forest = RandomForest::synthetic_full(
//!     &ForestConfig::classification(8, 4, 3).with_depth(6),
//!     2,
//! );
//! let data = Dataset::iris(100, 7).normalized();
//! let preds = score_once(&FpgaBackend::paper_default(), &forest, data.frame())?;
//! assert_eq!(preds.len(), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bram;
pub mod csr;
pub mod device;
pub mod engine;
pub mod error;
pub mod split;

pub use backend::FpgaBackend;
pub use bram::BramAllocator;
pub use device::FpgaDevice;
pub use engine::{
    CycleReport, EngineConfig, EngineRun, InferenceEngine, LoadedModel, MemoryBackend,
};
pub use error::FpgaError;
pub use split::{split_score, SplitReport};

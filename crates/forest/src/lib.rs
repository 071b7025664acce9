//! Random forest models for the `mlscore` workspace.
//!
//! This crate implements the ML model at the heart of the paper: decision
//! trees and random forests (classification and regression), CART training,
//! the paper's flat 4-word-per-node memory layout (Fig. 4b) used by the FPGA
//! inference engine, a versioned binary serialization format (the stand-in
//! for the ONNX model bundles stored in database tables), and model
//! statistics consumed by the backend cost models.
//!
//! # Example
//!
//! ```
//! use mlscore_forest::{ForestConfig, RandomForest, Task};
//!
//! // A deterministic synthetic forest like the paper's 128-tree, depth-10
//! // models (training is also available; see `ForestBuilder`).
//! let forest = RandomForest::synthetic_full(
//!     &ForestConfig::classification(8, 4, 3),
//!     42,
//! );
//! assert_eq!(forest.n_trees(), 8);
//! let pred = forest.predict_one(&[0.5, 0.1, 0.9, 0.3]);
//! assert!(pred.as_class().unwrap() < 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod forest;
pub mod importance;
pub mod layout;
pub mod metrics;
pub mod node;
pub mod quant;
pub mod serialize;
pub mod stats;
pub mod tree;

pub use builder::{ForestBuilder, SplitCriterion, TrainOptions};
pub use error::ForestError;
pub use forest::{ForestConfig, Prediction, Predictions, RandomForest, Task};
pub use importance::TrainedModel;
pub use layout::{FlatForest, FlatTree, NodeRecord, NODE_WORDS};
pub use node::{LeafValue, Node};
pub use quant::{QuantScheme, QuantizedForest, QuantizedTree};
pub use serialize::ModelBundle;
pub use stats::ModelStats;
pub use tree::DecisionTree;

//! Convenient re-exports of the types most programs need.
//!
//! Every forest is a classifier: scoring returns plain `u32` class ids,
//! one per record.
//!
//! ```
//! use mlscore::prelude::*;
//!
//! let forest = RandomForest::synthetic_full(&ForestConfig::classification(4, 4, 3), 7);
//! assert!(forest.predict_one(&[0.1, 0.2, 0.3, 0.4]) < 3);
//! ```

pub use mlscore_backend::{score_once, ScoringBackend};
pub use mlscore_data::{
    Dataset, DatasetSpec, FrameScanner, NormParams, NormalizeStream, RecordStream, TabularFrame,
    DEFAULT_CHUNK_ROWS,
};
pub use mlscore_exec::{ExecPool, RunConfig, RunReport};
pub use mlscore_forest::{ForestConfig, ModelStats, RandomForest, TrainedModel};
pub use mlscore_serve::{ModelCatalog, ServeConfig, ServeEngine, ServingReport, WorkloadSpec};
pub use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
pub use mlscore_telemetry::{Scope, Trace, Tracer};

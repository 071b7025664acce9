//! Convenient re-exports of the types most programs need.
//!
//! ```
//! use mlscore::prelude::*;
//! ```

pub use mlscore_backend::{score_once, ScoringBackend};
pub use mlscore_data::{
    Dataset, DatasetSpec, FrameScanner, NormParams, NormalizeStream, RecordStream, TabularFrame,
    DEFAULT_CHUNK_ROWS,
};
pub use mlscore_exec::{ExecPool, RunConfig, RunReport};
pub use mlscore_forest::{ForestConfig, ModelStats, RandomForest, Task, TrainedModel};
pub use mlscore_serve::{ModelCatalog, ServeConfig, ServeEngine, ServingReport, WorkloadSpec};
pub use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
pub use mlscore_telemetry::{MetricsRegistry, Scope, Trace, Tracer};

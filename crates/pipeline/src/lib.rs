//! The end-to-end DBMS analytics + scoring pipeline (Fig. 2), timed per
//! Fig. 11.
//!
//! A T-SQL query invokes a stored procedure with a user Python script. The
//! DBMS launches an external Python process, copies the model bundle and
//! the input records to it, the script deserializes the model, prepares the
//! data, scores (on the CPU or via an accelerator backend), and returns a
//! results DataFrame. Every stage is *functional* here — the bundle really
//! is parsed, the backend really scores — while stage times come from
//! calibrated models (see DESIGN.md §2: stage identities and scaling are
//! what Fig. 11 depends on, not SQL Server internals).
//!
//! # Example
//!
//! ```
//! use mlscore_backend::SklearnCpu;
//! use mlscore_data::Dataset;
//! use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};
//! use mlscore_forest::ModelStats;
//! use mlscore_pipeline::{QueryPipeline, QueryPlan, Records};
//! use mlscore_sim::SimInstant;
//! use mlscore_telemetry::Tracer;
//!
//! let forest = RandomForest::synthetic_full(
//!     &ForestConfig::classification(8, 4, 3).with_depth(6),
//!     2,
//! );
//! let bundle = ModelBundle::serialize(&forest);
//! let data = Dataset::iris(200, 7).normalized();
//! let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
//! let untraced = Tracer::disabled();
//! let records = Records::Staged(data.frame());
//! let run = pipeline.execute(&bundle, records, &untraced, SimInstant::ZERO)?;
//! assert_eq!(run.predictions.len(), 200);
//!
//! // The same query, modelled rather than run, gives the same breakdown.
//! let plan = QueryPlan::Staged { warm: false };
//! let stats = ModelStats::of(&forest);
//! let estimate = pipeline.estimate(plan, &stats, bundle.len() as u64, 200, &untraced, SimInstant::ZERO);
//! assert_eq!(estimate, run.breakdown);
//! # Ok::<(), mlscore_pipeline::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod error;
pub mod integration;
pub mod params;
pub mod query;

pub use concurrency::{consolidate, ConsolidationReport, HostResources};
pub use error::PipelineError;
pub use integration::IntegrationMode;
pub use params::PipelineParams;
pub use query::{QueryPipeline, QueryPlan, QueryRun, Records};

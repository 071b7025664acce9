//! `mlscore-serve`: a deterministic discrete-event serving engine over the
//! scoring backends.
//!
//! `sched::trace::replay` scores a trace back to back, one query at a
//! time; real DBMS scoring endpoints face *load*: requests arrive on their
//! own clock, queue behind a bounded admission buffer, merge into
//! micro-batches when they target the same compiled model, and contend
//! for a small set of physical devices. This crate models that regime in
//! simulated time ([`mlscore_sim::SimInstant`]) so every run is exactly
//! reproducible:
//!
//! - [`WorkloadSpec`] / [`ArrivalProcess`] — batch, open-loop Poisson, and
//!   closed-loop arrival generators over the paper query mix.
//! - [`AdmissionQueue`] / [`QueueConfig`] — bounded capacity, shed
//!   policies ([`ShedPolicy`]), and per-class deadlines ([`ClassSlo`]).
//! - [`CoalesceConfig`] / [`score_merged_stream`] — micro-batch coalescing of
//!   same-model requests into one device pass, bit-exact on split.
//! - [`DeviceRoster`] — the contention topology: exclusive FPGA, GPU
//!   streams, CPU executor seats.
//! - [`ServeEngine`] — the event loop tying it together, emitting
//!   telemetry spans and a [`ServingReport`] with throughput, latency
//!   percentiles, utilization, batch-size distribution, and shed counts.
//!
//! ```
//! use mlscore_sched::paper_backends;
//! use mlscore_serve::{
//!     ArrivalProcess, ModelCatalog, ServeConfig, ServeEngine, WorkloadSpec,
//! };
//! use mlscore_telemetry::Tracer;
//!
//! let engine = ServeEngine::new(
//!     paper_backends(),
//!     ModelCatalog::paper_mix(),
//!     ServeConfig::default(),
//! );
//! let spec = WorkloadSpec {
//!     queries: 20,
//!     seed: 1,
//!     arrivals: ArrivalProcess::OpenPoisson { rate_qps: 100.0 },
//! };
//! let report = engine.run(&spec, &Tracer::disabled()).expect("servable spec");
//! assert!(report.is_conserved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod device;
pub mod engine;
pub mod error;
pub mod journal;
pub mod queue;
pub mod report;
pub mod request;
pub mod slo;
pub mod workload;

pub use coalesce::{score_merged_stream, CoalesceConfig};
pub use device::{DeviceRoster, DeviceSpec};
pub use engine::{EngineSession, ServeConfig, ServeEngine, ServePolicy};
pub use error::ServeError;
pub use journal::{JournalEntry, JournalKind, RequestJournal, ShedReason};
pub use queue::{Admission, AdmissionQueue, QueueConfig, ShedPolicy};
pub use report::{ClassReport, DeviceReport, DispatchRecord, ServingReport};
pub use request::{ClassSlo, QueryClass, RequestId, ServeRequest, ANALYTICAL_MIN_RECORDS};
pub use slo::{ObserveConfig, SloAlert, SloMonitor};
pub use workload::{exponential, ArrivalProcess, ModelCatalog, WorkloadSpec};

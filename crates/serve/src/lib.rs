//! `mlscore-serve`: a deterministic discrete-event serving engine over the
//! scoring backends.
//!
//! `sched::trace::replay` scores a trace back to back, one query at a
//! time; real DBMS scoring endpoints face *load*: requests arrive on their
//! own clock, queue behind a bounded admission buffer, merge into
//! micro-batches when they target the same compiled model, and contend
//! for a small set of physical devices. This crate models that regime in
//! simulated time ([`mlscore_sim::SimInstant`]) so every run is exactly
//! reproducible. The serving question is narrow: an offered query either
//! scores on the cheapest free backend, paying its compile, or is shed.
//!
//! - [`WorkloadSpec`] — open-loop Poisson arrivals over the paper query
//!   mix.
//! - [`AdmissionQueue`] — bounded capacity; an arrival at a full queue is
//!   rejected.
//! - [`score_merged_stream`] — micro-batch coalescing of same-model
//!   requests into one device pass, bit-exact on split.
//! - [`DeviceRoster`] — the contention topology: exclusive FPGA, GPU
//!   streams, CPU executor seats ([`CPU_SEATS`] and [`GPU_STREAMS`] by
//!   default, the paper host's).
//! - [`ServeEngine`] — the event loop tying it together: oracle
//!   arbitration on the backends' cost models plus the amortized compile
//!   charge of a simulated artifact cache, emitting telemetry spans, a
//!   windowed series and one [`RequestJournal`] entry per lifecycle
//!   transition.
//! - [`EngineSession`] — one run's state, borrowed from its engine:
//!   [`ServeEngine::run`] seeds a spec into one and finishes it, and an
//!   external driver injects arrivals and steps it to horizons instead.
//! - [`ServingReport`] — the journal's fold when the run ends:
//!   throughput, latency percentiles, batch-size distribution, shed
//!   counts and picks, beside the device utilization, cache counters,
//!   series and SLO alerts the loop recorded live.
//!
//! ```
//! use mlscore_sched::paper_backends;
//! use mlscore_serve::{ModelCatalog, ServeConfig, ServeEngine, WorkloadSpec};
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
//!     rate_qps: 100.0,
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

pub use coalesce::score_merged_stream;
pub use device::{DeviceRoster, DeviceSpec, CPU_SEATS, GPU_STREAMS};
pub use engine::{EngineSession, ServeConfig, ServeEngine};
pub use error::ServeError;
pub use journal::{JournalEntry, JournalKind, RequestJournal, ShedReason};
pub use queue::AdmissionQueue;
pub use report::{ClassReport, DeviceReport, ServingReport};
pub use request::{QueryClass, RequestId, ServeRequest, ANALYTICAL_MIN_RECORDS};
pub use slo::{SloAlert, SloMonitor};
pub use workload::{ModelCatalog, WorkloadSpec};

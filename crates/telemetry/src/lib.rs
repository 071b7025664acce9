//! Observability for the `mlscore` scoring pipeline: span tracing over
//! simulated time, latency histograms, and trace exporters.
//!
//! Every cost model in the workspace reports *where simulated time goes*
//! through a [`TimingBreakdown`](mlscore_sim::TimingBreakdown). That is a
//! lossy summary: it says the FPGA spent 4 ms streaming, but not that the
//! stream of pass 2 overlapped the compute of pass 1. This crate adds the
//! lossless view — a [`Trace`] of timestamped spans recorded by a
//! [`Tracer`] as the models run — plus exporters that turn a trace into:
//!
//! - a Chrome/Perfetto `trace_event` JSON file ([`perfetto`]), where each
//!   backend is a process and each query/engine-pass is a thread, so
//!   multi-pass overlap is visible on a timeline;
//! - flamegraph "folded" text ([`folded`]);
//! - a reconstructed `TimingBreakdown` ([`Trace::breakdown`]) that is
//!   **bit-for-bit equal** to the one the model returns.
//!
//! That equality holds by construction: a backend's cost model opens each
//! offload stage once through a [`StageRecorder`], whose spans charge their
//! duration to the recorder's breakdown as they finish — on a disabled
//! tracer too — and returns that breakdown. A stage cut into several spans
//! is split with [`ExactSplit`], so the parts refold to the total exactly.
//!
//! A [`Histogram`] complements spans with log-bucketed latency
//! percentiles (p50/p95/p99/max).
//!
//! # Example
//!
//! ```
//! use mlscore_sim::{SimDuration, SimInstant, Stage};
//! use mlscore_telemetry::{Scope, Tracer};
//!
//! let tracer = Tracer::new();
//! let t0 = SimInstant::ZERO;
//! let t1 = tracer
//!     .span("scoring", t0)
//!     .stage(Stage::Scoring)
//!     .scope(Scope::Query)
//!     .finish_after(SimDuration::from_millis(4.0));
//! assert!(t1 > t0);
//! let trace = tracer.take();
//! assert_eq!(trace.len(), 1);
//! assert_eq!(
//!     trace.breakdown(Scope::Query).get(Stage::Scoring),
//!     SimDuration::from_millis(4.0),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod folded;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod span;
pub mod timeseries;
pub mod tracer;

pub use metrics::Histogram;
pub use span::{ExactSplit, Scope, SpanEvent, Trace, Track};
pub use timeseries::{ClassWindow, TimeSeriesRecorder, Window};
pub use tracer::{ChargedSpan, SpanGuard, StageRecorder, Tracer};

//! Backend-selection policies.
//!
//! Fig. 1 of the paper argues that "a scheduler that aims for the best
//! performance would need to make the accelerator offloading decisions
//! dynamically" because models and data arrive with the query. This crate
//! provides that scheduler in three strengths — an oracle over the cost
//! models, the static threshold heuristic Fig. 1 suggests, and an affine
//! (LogCA-style) fitted predictor — plus regret analysis quantifying the
//! paper's mispick penalties (a wrong offload costs up to ~10x latency; a
//! wrong stay-on-CPU costs up to ~70x throughput). Every policy, including
//! the online [`AdaptiveScheduler`], picks through one argmin over the
//! roster, and [`replay`] is the one serial trace-replay loop for all of
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod policy;
pub mod regret;
pub mod trace;

pub use adaptive::{AdaptiveScheduler, ModelClass};
pub use policy::{
    choose_amortized_eligible, paper_backends, AffineFitPolicy, Choice, HeuristicPolicy,
    OraclePolicy, Policy,
};
pub use regret::{evaluate_policy, RegretReport};
pub use trace::{paper_shape_forests, replay, QueryTrace, TraceOutcome, TraceQuery};

//! DBMS↔ML integration modes (§IV-E).
//!
//! The paper observes that the application-level overheads — Python process
//! invocation and the "transparent" SQL↔Python data copy — are *software*
//! overheads determined by how the scoring pipeline is integrated with the
//! DBMS, and that "a tighter integration of the ML scoring functionality
//! within the DBMS would reduce a lot of the application overheads", citing
//! in-engine approaches like `PREDICT` \[7\] and Raven \[5\]. This module makes
//! that future-work discussion quantitative: three integration modes that
//! rescale the pipeline-stage costs.

use mlscore_sim::{Bandwidth, SimDuration};

use crate::params::PipelineParams;

/// How the scoring runtime is coupled to the DBMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntegrationMode {
    /// The paper's measured setup: a fresh external Python process per
    /// query, with row-oriented data marshaling across the process
    /// boundary.
    ExternalProcess,
    /// A resident (pre-warmed, pooled) external runtime: no process launch
    /// on the query path, but data still crosses the process boundary.
    ResidentRuntime,
    /// Scoring compiled into the query engine (`PREDICT`-style): no
    /// process, no marshaling — data is handed over by reference within
    /// the engine's memory, leaving only a columnar conversion cost.
    InEngine,
}

impl IntegrationMode {
    /// All modes, loosest to tightest coupling.
    pub fn all() -> [IntegrationMode; 3] {
        [
            IntegrationMode::ExternalProcess,
            IntegrationMode::ResidentRuntime,
            IntegrationMode::InEngine,
        ]
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            IntegrationMode::ExternalProcess => "external-process",
            IntegrationMode::ResidentRuntime => "resident-runtime",
            IntegrationMode::InEngine => "in-engine",
        }
    }

    /// Pipeline-stage costs under this integration mode, derived from the
    /// measured external-process baseline.
    pub fn params(self) -> PipelineParams {
        let base = PipelineParams::default();
        match self {
            IntegrationMode::ExternalProcess => base,
            IntegrationMode::ResidentRuntime => PipelineParams {
                // The pool answers in the time of an IPC round trip.
                python_invocation: SimDuration::from_millis(2.0),
                // Session/model caches keep deserialization warm.
                model_deserialize_fixed: SimDuration::from_millis(1.0),
                ..base
            },
            IntegrationMode::InEngine => PipelineParams {
                python_invocation: SimDuration::from_micros(50.0),
                // No process boundary: "transfer" degenerates to an
                // in-memory format conversion at memory bandwidth.
                transfer_setup: SimDuration::from_micros(20.0),
                per_row_marshal: SimDuration::from_nanos(40.0),
                per_result_marshal: SimDuration::from_nanos(10.0),
                marshal_bandwidth: Bandwidth::from_gb_per_sec(20.0),
                model_deserialize_fixed: SimDuration::from_millis(1.0),
                ..base
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tighter_integration_is_strictly_cheaper() {
        // 1M HIGGS-width rows in, 1M predictions out.
        let rows = 1_000_000u64;
        let bytes = rows * 112;
        let mut prev: Option<SimDuration> = None;
        for mode in IntegrationMode::all() {
            let p = mode.params();
            let cost =
                p.python_invocation + p.marshal_time(rows, bytes) + p.marshal_results_time(rows);
            if let Some(prev) = prev {
                assert!(
                    cost < prev,
                    "{} should be cheaper than the looser mode",
                    mode.name()
                );
            }
            prev = Some(cost);
        }
    }

    #[test]
    fn external_process_matches_measured_defaults() {
        assert_eq!(
            IntegrationMode::ExternalProcess.params(),
            PipelineParams::default()
        );
    }

    #[test]
    fn in_engine_removes_the_marshaling_wall() {
        // The paper's Fig. 11 wall: ~14 s of data transfer at 1M records.
        let external = IntegrationMode::ExternalProcess.params();
        let engine = IntegrationMode::InEngine.params();
        let rows = 1_000_000u64;
        let ext = external.marshal_time(rows, rows * 112);
        let eng = engine.marshal_time(rows, rows * 112);
        assert!(ext.as_secs() > 5.0, "external marshal {ext}");
        assert!(eng.as_millis() < 100.0, "in-engine marshal {eng}");
    }

    #[test]
    fn names_and_order() {
        let names: Vec<_> = IntegrationMode::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["external-process", "resident-runtime", "in-engine"]
        );
    }
}

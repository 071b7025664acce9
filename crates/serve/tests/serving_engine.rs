//! Engine-level error handling and determinism regressions.
//!
//! A malformed [`WorkloadSpec`] is load a serving endpoint refuses with an
//! error, never a panic — the serve crate's `P001` contract. And two runs
//! of the same spec must agree byte for byte, down to the exported
//! Perfetto trace — the serve crate's `D00x` contract.

use mlscore_sched::paper_backends;
use mlscore_serve::{ModelCatalog, ServeConfig, ServeEngine, ServeError, WorkloadSpec};
use mlscore_telemetry::{perfetto, Tracer};

fn engine() -> ServeEngine {
    ServeEngine::new(
        paper_backends(),
        ModelCatalog::paper_mix(),
        ServeConfig::default(),
    )
}

fn spec(rate_qps: f64) -> WorkloadSpec {
    WorkloadSpec {
        queries: 25,
        seed: 11,
        rate_qps,
    }
}

#[test]
fn malformed_workloads_error_instead_of_panicking() {
    let engine = engine();
    for rate_qps in [0.0, -250.0, f64::INFINITY, f64::NAN] {
        let err = engine
            .run(&spec(rate_qps), &Tracer::disabled())
            .expect_err("a malformed spec must be refused");
        assert!(
            matches!(err, ServeError::InvalidWorkload { .. }),
            "rate {rate_qps} yielded the wrong error: {err}"
        );
        // The error formats into something a caller can log.
        assert!(format!("{err}").starts_with("invalid workload: "));
    }
}

#[test]
fn valid_workloads_still_run() {
    let report = engine()
        .run(&spec(400.0), &Tracer::disabled())
        .expect("a valid spec runs");
    assert!(report.is_conserved());
}

#[test]
fn traced_reruns_are_byte_identical() {
    let spec = spec(900.0);
    let render = || {
        let engine = engine();
        let tracer = Tracer::new();
        let report = engine.run(&spec, &tracer).expect("valid spec");
        let json = perfetto::to_json(&tracer.take());
        (report, json)
    };
    let (a, trace_a) = render();
    let (b, trace_b) = render();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.journal, b.journal);
    assert_eq!(
        trace_a, trace_b,
        "the exported Perfetto trace must be byte-identical across reruns"
    );
    assert!(!trace_a.is_empty());
}

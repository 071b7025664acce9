//! Integration tests for the serving engine: equivalence with a serial
//! back-to-back trace replay, byte-identical determinism of the exports,
//! and the coalescing throughput win on the FPGA.

use mlscore::backend::ScoringBackend;
use mlscore::prelude::*;
use mlscore::sched::{paper_backends, replay, OraclePolicy, QueryTrace};
use mlscore::serve::JournalKind;
use mlscore::telemetry::perfetto;

/// The paper's FPGA engine alone: one exclusive single-slot device.
fn fpga_only() -> Vec<Box<dyn ScoringBackend>> {
    paper_backends()
        .into_iter()
        .filter(|b| b.name() == "FPGA")
        .collect()
}

/// On one exclusive single-slot device — every arrival at t = 0, no
/// coalescing, unbounded queue — the engine *is* the serial trace replay
/// plus the compile charge: same FIFO dispatch order, same backend picks,
/// and a makespan equal to the replay total plus every pass's journaled
/// prepare (modulo float-addition ulps). Every `paper_mix` shape has
/// depth <= 10, so the FPGA supports every query.
#[test]
fn serial_batch_run_reproduces_serial_replay() {
    let queries = 120;
    let seed = 9;
    let engine = ServeEngine::new(
        fpga_only(),
        ModelCatalog::paper_mix(),
        ServeConfig {
            coalesce: false,
            ..ServeConfig::default()
        },
    );
    // The rate only times arrivals; the draws ignore it.
    let spec = WorkloadSpec {
        queries,
        seed,
        rate_qps: 1.0,
    };
    let tracer = Tracer::disabled();
    let mut session = engine.session(&tracer);
    let draws = spec.draws(ModelCatalog::paper_mix().len());
    for &(model, n_records) in &draws {
        let _ = session.inject(SimInstant::ZERO, model, n_records);
    }
    let report = session.finish();
    let legacy = replay(
        &mut OraclePolicy,
        &QueryTrace::synthetic(queries, seed),
        &fpga_only(),
    );

    assert!(report.is_conserved());
    assert_eq!(report.completed, queries as u64);
    // Same backend mix, query for query.
    let legacy_picks: Vec<(String, u64)> = legacy
        .picks
        .iter()
        .map(|(n, c)| (n.clone(), *c as u64))
        .collect();
    let engine_picks: Vec<(String, u64)> =
        report.picks.iter().map(|(n, c)| (n.clone(), *c)).collect();
    assert_eq!(engine_picks, legacy_picks);
    // Requests arrive in trace order, and dispatch in arrival order, one
    // request per pass.
    let arrivals: Vec<(u64, (usize, u64))> = report
        .journal
        .entries()
        .iter()
        .filter_map(|e| match e.kind {
            JournalKind::Arrival { model, records, .. } => Some((e.id, (model, records))),
            _ => None,
        })
        .collect();
    let trace_order: Vec<(u64, (usize, u64))> = (0..).zip(draws).collect();
    assert_eq!(arrivals, trace_order);
    let dispatches: Vec<(u64, u64)> = report
        .journal
        .entries()
        .iter()
        .filter_map(|e| match e.kind {
            JournalKind::Dispatched { batch, .. } => Some((e.id, batch)),
            _ => None,
        })
        .collect();
    let serial: Vec<(u64, u64)> = (0..queries as u64).map(|i| (i, i)).collect();
    assert_eq!(dispatches, serial);
    // The serial makespan is the replay total plus the compile charge of
    // every pass, each pass scoring one request.
    let prepare: f64 = report
        .journal
        .entries()
        .iter()
        .filter_map(|e| match e.kind {
            JournalKind::Completed { prepare, .. } => Some(prepare.as_secs()),
            _ => None,
        })
        .sum();
    assert!(prepare > 0.0, "compile charging is on");
    let expected = legacy.total.as_secs() + prepare;
    let diff = (report.makespan.as_secs() - expected).abs();
    assert!(
        diff <= 1e-12 * expected.max(1.0),
        "engine makespan {} vs replay total {} + prepare {prepare} s",
        report.makespan,
        legacy.total
    );
}

/// Same seed + same configuration ⇒ byte-identical Perfetto export and
/// identical report, run to run.
#[test]
fn serving_exports_are_byte_identical_across_runs() {
    let run_once = || {
        let engine = ServeEngine::new(
            paper_backends(),
            ModelCatalog::paper_mix(),
            ServeConfig {
                capacity: Some(16),
                ..ServeConfig::default()
            },
        );
        let tracer = Tracer::new();
        let report = engine
            .run(
                &WorkloadSpec {
                    queries: 80,
                    seed: 7,
                    rate_qps: 900.0,
                },
                &tracer,
            )
            .expect("a positive finite Poisson rate is valid");
        (perfetto::to_json(&tracer.take()), report)
    };
    let (json_a, report_a) = run_once();
    let (json_b, report_b) = run_once();
    assert_eq!(json_a, json_b, "Perfetto export must be byte-identical");
    assert_eq!(report_a.journal, report_b.journal);
    assert_eq!(report_a.makespan, report_b.makespan);
    assert_eq!(report_a.picks, report_b.picks);
    assert!(report_a.is_conserved());
}

/// The tentpole effect: under overload on the FPGA alone, merging queued
/// same-model requests into one device pass amortizes the fixed per-call
/// overheads and measurably raises throughput at the same offered load.
#[test]
fn coalescing_raises_fpga_throughput_under_overload() {
    let run_fpga = |coalesce_on: bool| {
        let engine = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig {
                capacity: Some(32),
                coalesce: coalesce_on,
                ..ServeConfig::default()
            },
        );
        engine
            .run(
                &WorkloadSpec {
                    queries: 300,
                    seed: 42,
                    rate_qps: 2_000.0,
                },
                &Tracer::disabled(),
            )
            .expect("a positive finite Poisson rate is valid")
    };
    let on = run_fpga(true);
    let off = run_fpga(false);
    assert!(on.is_conserved() && off.is_conserved());
    assert!(on.coalesced_batches > 0, "overload must merge batches");
    assert!(
        on.throughput_qps() > off.throughput_qps(),
        "coalescing on {:.1} qps must beat off {:.1} qps",
        on.throughput_qps(),
        off.throughput_qps()
    );
    // The shed counters register overload in both configurations.
    assert!(on.shed() + off.shed() > 0);
}

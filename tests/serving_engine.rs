//! Integration tests for the serving engine: equivalence with a serial
//! back-to-back trace replay, byte-identical determinism of the exports,
//! and the coalescing throughput win on the FPGA.

use mlscore::backend::ScoringBackend;
use mlscore::prelude::*;
use mlscore::sched::{paper_backends, OraclePolicy, Policy, QueryTrace};
use mlscore::serve::{CoalesceConfig, QueueConfig};
use mlscore::sim::SimDuration;
use mlscore::telemetry::perfetto;
use std::collections::BTreeMap;

/// Reference serial replay: queries run back to back, each charged the
/// modelled time of the backend the policy picks.
fn serial_replay(
    policy: &dyn Policy,
    trace: &QueryTrace,
    backends: &[Box<dyn ScoringBackend>],
) -> (SimDuration, BTreeMap<String, u64>) {
    let mut total = SimDuration::ZERO;
    let mut picks: BTreeMap<String, u64> = BTreeMap::new();
    for q in trace.queries() {
        let choice = policy
            .choose(&q.stats, q.n_records, backends)
            .expect("every trace query has a supporting backend");
        total += backends[choice.index]
            .estimate(&q.stats, q.n_records, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        *picks.entry(choice.name).or_default() += 1;
    }
    (total, picks)
}

/// The engine configured as a degenerate serial device — batch arrivals,
/// no coalescing, no compile charging, unbounded queue — is *exactly* the
/// serial replay loop: same dispatch order, same backend picks, same
/// makespan (modulo float-addition ulps).
#[test]
fn serial_batch_run_reproduces_serial_replay() {
    let queries = 120;
    let seed = 9;
    let engine = ServeEngine::new(
        paper_backends(),
        ModelCatalog::paper_mix(),
        ServeConfig {
            coalesce: CoalesceConfig::disabled(),
            serial_device: true,
            charge_compile: false,
            ..ServeConfig::default()
        },
    );
    let report = engine
        .run(
            &WorkloadSpec {
                queries,
                seed,
                arrivals: ArrivalProcess::Batch,
            },
            &Tracer::disabled(),
        )
        .expect("batch specs are always valid");
    let (legacy_total, legacy_pick_map) = serial_replay(
        &OraclePolicy,
        &QueryTrace::synthetic(queries, seed),
        &paper_backends(),
    );

    assert!(report.is_conserved());
    assert_eq!(report.completed, queries as u64);
    // Same backend mix, query for query.
    let legacy_picks: Vec<(String, u64)> = legacy_pick_map.into_iter().collect();
    let engine_picks: Vec<(String, u64)> =
        report.picks.iter().map(|(n, c)| (n.clone(), *c)).collect();
    assert_eq!(engine_picks, legacy_picks);
    // Dispatch order is trace order, and each request's service time is the
    // legacy per-query latency.
    for (i, d) in report.dispatches.iter().enumerate() {
        assert_eq!(d.id, i as u64);
        assert_eq!(d.batch, i as u64);
    }
    // The serial makespan is the legacy total (same additions, same order).
    let diff = (report.makespan.as_secs() - legacy_total.as_secs()).abs();
    assert!(
        diff <= 1e-12 * legacy_total.as_secs().max(1.0),
        "engine makespan {} vs legacy total {}",
        report.makespan,
        legacy_total
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
                queue: QueueConfig {
                    capacity: Some(16),
                    ..QueueConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        let tracer = Tracer::new();
        let report = engine
            .run(
                &WorkloadSpec {
                    queries: 80,
                    seed: 7,
                    arrivals: ArrivalProcess::OpenPoisson { rate_qps: 900.0 },
                },
                &tracer,
            )
            .expect("a positive finite Poisson rate is valid");
        (perfetto::to_json(&tracer.take()), report)
    };
    let (json_a, report_a) = run_once();
    let (json_b, report_b) = run_once();
    assert_eq!(json_a, json_b, "Perfetto export must be byte-identical");
    assert_eq!(report_a.dispatches, report_b.dispatches);
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
            paper_backends()
                .into_iter()
                .filter(|b| b.name() == "FPGA")
                .collect(),
            ModelCatalog::paper_mix(),
            ServeConfig {
                queue: QueueConfig {
                    capacity: Some(32),
                    ..QueueConfig::default()
                },
                coalesce: if coalesce_on {
                    CoalesceConfig::default()
                } else {
                    CoalesceConfig::disabled()
                },
                ..ServeConfig::default()
            },
        );
        engine
            .run(
                &WorkloadSpec {
                    queries: 300,
                    seed: 42,
                    arrivals: ArrivalProcess::OpenPoisson { rate_qps: 2_000.0 },
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

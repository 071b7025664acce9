//! The serving exports, byte for byte: length and FNV-1a of every document
//! the quick serving commands render. `repro report --quick` (JSON and
//! text), the report workload's request journal, `repro serve --quick
//! --out` and its `--trace-out` Perfetto timeline are pure functions of
//! the seed, so any change to how the engine books a run shows here.
//! Three more engine runs the quick commands never make are pinned the
//! same way: their Perfetto trace, request journal and windowed series.

use mlscore_bench::{run_report, serve_bench, Mode};
use mlscore_forest::{ForestConfig, RandomForest};
use mlscore_sched::{paper_backends, paper_shape_forests};
use mlscore_serve::{ModelCatalog, ServeConfig, ServeEngine, ServingReport, WorkloadSpec};
use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::{perfetto, Tracer};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(what: &str, doc: &str, len: usize, hash: u64) {
    assert_eq!(doc.len(), len, "{what} length");
    assert_eq!(fnv1a(doc.as_bytes()), hash, "{what} hash");
}

#[test]
fn quick_serving_exports_are_pinned() {
    let report = run_report::run(Mode::Quick);
    pin(
        "report json",
        &run_report::to_json(&report, Mode::Quick),
        3_461,
        0x11e4_91de_5b12_3b93,
    );
    pin(
        "report text",
        &run_report::to_text(&report, Mode::Quick),
        1_685,
        0xea3b_ab8c_93e3_8313,
    );
    pin(
        "report journal",
        &report.journal.to_jsonl(),
        38_807,
        0x2915_e468_303a_a151,
    );

    let bench = serve_bench::run(Mode::Quick);
    pin(
        "serve json",
        &serve_bench::to_json(&bench, Mode::Quick),
        3_361,
        0x7419_2d86_2122_f1b6,
    );
    let trace = perfetto::to_json(&serve_bench::overload_trace(Mode::Quick));
    pin("serve trace", &trace, 43_075, 0x2d8f_da63_3313_7a13);
}

/// The engine configuration of the extra runs, with the paper topology
/// spelled out so no pin depends on the host.
fn config(capacity: usize, coalesce: bool) -> ServeConfig {
    ServeConfig {
        capacity: Some(capacity),
        interactive_slo: Some(SimDuration::from_millis(50.0)),
        analytical_slo: Some(SimDuration::from_secs(2.0)),
        coalesce,
        cpu_seats: 52,
        gpu_streams: 4,
    }
}

/// Pins the trace, the journal and the series of one traced run as
/// `[(length, hash); 3]`.
fn pin_run(what: &str, report: &ServingReport, tracer: &Tracer, pins: [(usize, u64); 3]) {
    assert!(report.is_conserved(), "{what} conserves requests");
    let docs = [
        ("trace", perfetto::to_json(&tracer.take())),
        ("journal", report.journal.to_jsonl()),
        ("series", format!("{:?}", report.series)),
    ];
    for ((doc_name, doc), (len, hash)) in docs.iter().zip(pins) {
        pin(&format!("{what} {doc_name}"), doc, len, hash);
    }
}

#[test]
fn uncoalesced_run_is_pinned() {
    let engine = ServeEngine::new(
        paper_backends(),
        ModelCatalog::paper_mix(),
        config(16, false),
    );
    let spec = WorkloadSpec {
        queries: 120,
        seed: 7,
        rate_qps: 900.0,
    };
    let tracer = Tracer::new();
    let report = engine.run(&spec, &tracer).unwrap();
    assert_eq!(report.coalesced_batches, 0);
    pin_run(
        "coalescing off",
        &report,
        &tracer,
        [
            (138_449, 0x1d27_2b65_bcff_b7bd),
            (51_748, 0x28f2_cda1_3443_fbfb),
            (1_235, 0xa93d_6102_1b20_7d5b),
        ],
    );
}

#[test]
fn unservable_model_run_is_pinned() {
    // The paper mix plus one depth-12 forest, past the FPGA's 10 levels:
    // every request for it is shed as unservable.
    let mut forests = paper_shape_forests();
    let deep = ForestConfig::classification(4, 8, 2).with_depth(12);
    forests.push(RandomForest::synthetic_full(&deep, 12));
    let engine = ServeEngine::new(
        serve_bench::fpga_roster(),
        ModelCatalog::from_forests(forests),
        config(32, true),
    );
    let spec = WorkloadSpec {
        queries: 150,
        seed: 42,
        rate_qps: 2_000.0,
    };
    let tracer = Tracer::new();
    let report = engine.run(&spec, &tracer).unwrap();
    assert!(report.unservable > 0 && report.rejected > 0 && report.completed > 0);
    pin_run(
        "unservable model",
        &report,
        &tracer,
        [
            (45_660, 0x7949_99fc_9860_cf53),
            (39_257, 0x8e79_8c46_5016_4b7c),
            (1_054, 0x6a48_6a81_8e96_cc46),
        ],
    );
}

#[test]
fn session_stepped_in_horizons_is_pinned() {
    let engine = ServeEngine::new(
        paper_backends(),
        ModelCatalog::paper_mix(),
        config(16, true),
    );
    let spec = WorkloadSpec {
        queries: 120,
        seed: 11,
        rate_qps: 900.0,
    };
    let draws = spec.draws(ModelCatalog::paper_mix().len());
    let tracer = Tracer::new();
    let mut session = engine.session(&tracer);
    let step = SimDuration::from_millis(5.0);
    let mut horizon = SimInstant::ZERO;
    for (at, (model, records)) in spec.arrival_times().unwrap().into_iter().zip(draws) {
        while horizon + step <= at {
            horizon += step;
            session.step_until(horizon);
        }
        session.inject(at, model, records);
    }
    let report = session.finish();
    pin_run(
        "stepped session",
        &report,
        &tracer,
        [
            (138_783, 0xb212_38b6_ea62_3cb8),
            (51_725, 0x9b5f_04b4_ec06_6524),
            (728, 0xb3d8_ee7b_ce0e_fbaa),
        ],
    );
}

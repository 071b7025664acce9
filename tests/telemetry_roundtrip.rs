//! Telemetry round-trip properties: the breakdown reconstructed from a
//! recorded span trace must equal the directly computed one, stage for
//! stage and bit for bit, and exported Perfetto JSON must parse with
//! consistent per-thread timestamps.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mlscore::prelude::*;
use mlscore_backend::{OnnxCpu, SklearnCpu};
use mlscore_forest::ModelBundle;
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_pipeline::{QueryPipeline, QueryPlan};
use mlscore_telemetry::{json, perfetto};

fn backend(idx: usize) -> Box<dyn ScoringBackend> {
    match idx % 6 {
        0 => Box::new(SklearnCpu::paper_default()),
        1 => Box::new(OnnxCpu::single_thread()),
        2 => Box::new(OnnxCpu::paper_52th()),
        3 => Box::new(HummingbirdGpu::p100()),
        4 => Box::new(RapidsFil::p100()),
        _ => Box::new(FpgaBackend::paper_default()),
    }
}

/// The four query plans: staged or fused (512-row chunks), cold or warm.
fn plan(idx: usize) -> QueryPlan {
    let warm = idx % 2 == 1;
    if idx % 4 < 2 {
        QueryPlan::Staged { warm }
    } else {
        QueryPlan::Fused {
            chunk_rows: 512,
            warm,
        }
    }
}

/// Runs a traced pipeline estimate of `plan` and returns everything a
/// property needs to compare against the untraced path.
fn run_traced(
    trees: usize,
    depth: usize,
    features: usize,
    n_records: u64,
    idx: usize,
    plan: QueryPlan,
) -> (TimingBreakdown, TimingBreakdown, TimingBreakdown, Trace) {
    let forest = RandomForest::synthetic_full(
        &ForestConfig::classification(trees, features, 2).with_depth(depth),
        7,
    );
    let stats = ModelStats::of(&forest);
    let bundle = ModelBundle::serialize(&forest);

    let direct_scoring =
        backend(idx).estimate(&stats, n_records, &Tracer::disabled(), SimInstant::ZERO);
    let pipeline = QueryPipeline::new(backend(idx));
    let estimate = |tracer: &Tracer| {
        pipeline.estimate(
            plan,
            &stats,
            bundle.len() as u64,
            n_records,
            tracer,
            SimInstant::ZERO,
        )
    };
    let direct = estimate(&Tracer::disabled());

    let tracer = Tracer::new();
    let traced = estimate(&tracer);
    (direct, direct_scoring, traced, tracer.take())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: folding the recorded spans back into a
    /// `TimingBreakdown` gives *exactly* the breakdown the untraced code
    /// path computes — for the Fig. 11 query scope and the Fig. 6/7
    /// offload scope alike, on every backend and every query plan.
    #[test]
    fn span_fold_equals_direct_breakdown(
        trees in 1usize..150,
        depth in 4usize..=10,
        wide in any::<bool>(),
        exp in 0u32..7,
        idx in 0usize..6,
        plan_idx in 0usize..4,
    ) {
        let features = if wide { 28 } else { 4 };
        let n_records = 10u64.pow(exp);
        let (direct, direct_scoring, traced, trace) =
            run_traced(trees, depth, features, n_records, idx, plan(plan_idx));

        prop_assert_eq!(&traced, &direct);
        prop_assert_eq!(trace.breakdown(Scope::Query), direct);
        prop_assert_eq!(trace.breakdown(Scope::Offload), direct_scoring);
    }

    /// Tracing must never change the estimate itself: the disabled-tracer
    /// path and the recording path stay numerically identical.
    #[test]
    fn tracing_does_not_perturb_estimates(
        trees in 1usize..150,
        exp in 0u32..7,
        idx in 0usize..6,
        plan_idx in 0usize..4,
    ) {
        let (direct, _, traced, _) =
            run_traced(trees, 8, 28, 10u64.pow(exp), idx, plan(plan_idx));
        prop_assert_eq!(traced.total(), direct.total());
    }
}

/// Collects `(ts, dur)` pairs per `(pid, tid)` lane from exported JSON.
fn lanes_of(doc: &json::JsonValue) -> BTreeMap<(u64, u64), Vec<(f64, f64)>> {
    let mut lanes: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    for event in doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array")
    {
        if event.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let pid = event.get("pid").and_then(|v| v.as_f64()).unwrap() as u64;
        let tid = event.get("tid").and_then(|v| v.as_f64()).unwrap() as u64;
        let ts = event.get("ts").and_then(|v| v.as_f64()).unwrap();
        let dur = event.get("dur").and_then(|v| v.as_f64()).unwrap();
        lanes.entry((pid, tid)).or_default().push((ts, dur));
    }
    lanes
}

/// HIGGS, 128 trees, 1M records — the acceptance configuration — exported
/// for each backend family. The JSON must parse with our own parser, carry
/// one duration event per recorded span, and every lane's events must be
/// non-overlapping once sorted by timestamp (spans on one lane are
/// sequential; concurrency lives on separate lanes).
#[test]
fn perfetto_export_parses_with_consistent_lane_timestamps() {
    for idx in 0..6 {
        let cold = QueryPlan::Staged { warm: false };
        let (_, _, _, trace) = run_traced(128, 10, 28, 1_000_000, idx, cold);
        assert!(trace.len() >= 7, "backend {idx}: too few spans");

        let text = perfetto::to_json(&trace);
        let doc = json::parse(&text).unwrap_or_else(|e| {
            panic!("backend {idx}: invalid Perfetto JSON: {e:?}");
        });

        let lanes = lanes_of(&doc);
        let n_spans: usize = lanes.values().map(Vec::len).sum();
        assert_eq!(n_spans, trace.len(), "backend {idx}: span count mismatch");

        for ((pid, tid), mut spans) in lanes {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in spans.windows(2) {
                let (ts0, dur0) = pair[0];
                let (ts1, _) = pair[1];
                assert!(dur0 >= 0.0, "backend {idx}: negative dur on {pid}/{tid}");
                // 1e-3 us = 1 ns slack for chained-instant rounding.
                assert!(
                    ts1 + 1e-3 >= ts0 + dur0,
                    "backend {idx}: lane {pid}/{tid} overlaps: \
                     [{ts0}, +{dur0}] then [{ts1}, ..]"
                );
            }
        }
    }
}

/// A trace with no recorded spans exports an empty-but-valid document.
#[test]
fn empty_trace_exports_valid_json() {
    let doc = json::parse(&perfetto::to_json(&Trace::new())).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert!(events.is_empty());
}

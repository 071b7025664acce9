//! Telemetry round-trip properties: the breakdown reconstructed from a
//! recorded span trace must equal the directly computed one, stage for
//! stage and bit for bit, and exported Perfetto JSON must parse with
//! consistent per-thread timestamps. The shared JSON writer and parser
//! are pinned here too: Perfetto and journal exports byte for byte, the
//! writer's escaping, numbers and layouts, and the parser's depth cap.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mlscore::prelude::*;
use mlscore_backend::{OnnxCpu, SklearnCpu};
use mlscore_forest::ModelBundle;
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_pipeline::{QueryPipeline, QueryPlan};
use mlscore_serve::{JournalKind, QueryClass, RequestJournal, ShedReason, SloAlert};
use mlscore_telemetry::json::JsonWriter;
use mlscore_telemetry::{json, perfetto, Scope, SpanEvent, Track};

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

/// A small trace exercising every export feature: two processes, three
/// lanes, span metadata, a stage arg, flows out of one span and into
/// another, fractional microseconds, and names that need escaping.
fn golden_trace() -> Trace {
    let span = |name: &str, stage, scope, start_us: f64, dur_us: f64, track| SpanEvent {
        name: name.into(),
        stage,
        scope,
        start: SimInstant::from_secs(start_us * 1e-6),
        dur: SimDuration::from_micros(dur_us),
        track,
        metadata: vec![],
        flows_out: vec![],
        flows_in: vec![],
    };
    let lane = |process: &str, lane: &str| Track::new(process, lane);
    let mut wait = span(
        "queue wait",
        None,
        Scope::Detail,
        0.0,
        12.5,
        lane("serve", "class interactive"),
    );
    wait.metadata = vec![
        ("request".into(), "7".into()),
        ("class".into(), "interactive".into()),
    ];
    wait.flows_out = vec![7, 9];
    let mut pass = span(
        "device pass",
        Some(Stage::Scoring),
        Scope::Offload,
        12.5,
        40.125,
        lane("serve", "device FPGA"),
    );
    pass.metadata = vec![("batch".into(), "0".into())];
    pass.flows_in = vec![7, 9];
    let odd = span(
        "stream \"x\"\n\tend",
        Some(Stage::DataTransfer),
        Scope::Query,
        1.5,
        0.25,
        lane("fpga", "pass\\0"),
    );
    Trace::from_events(vec![wait, pass, odd])
}

/// The Perfetto export is pinned byte for byte (captured from the
/// hand-written serializer the shared writer replaced).
#[test]
fn perfetto_export_matches_the_pinned_bytes() {
    let golden = concat!(
        r#"{"displayTimeUnit":"ns","traceEvents":[{"ph":"M","name":"process_name","#,
        r#""pid":1,"args":{"name":"serve"}},"#,
        r#"{"ph":"M","name":"process_name","pid":2,"args":{"name":"fpga"}},"#,
        r#"{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"class interactive"}},"#,
        r#"{"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"device FPGA"}},"#,
        r#"{"ph":"M","name":"thread_name","pid":2,"tid":3,"args":{"name":"pass\\0"}},"#,
        r#"{"ph":"X","name":"queue wait","cat":"detail","ts":0,"dur":12.499999999999998,"#,
        r#""pid":1,"tid":1,"args":{"request":"7","class":"interactive"}},"#,
        r#"{"ph":"s","cat":"flow","name":"request","id":7,"ts":12.499999999999998,"#,
        r#""pid":1,"tid":1},"#,
        r#"{"ph":"s","cat":"flow","name":"request","id":9,"ts":12.499999999999998,"#,
        r#""pid":1,"tid":1},"#,
        r#"{"ph":"X","name":"device pass","cat":"offload","ts":12.499999999999998,"#,
        r#""dur":40.125,"pid":1,"tid":2,"args":{"stage":"scoring","batch":"0"}},"#,
        r#"{"ph":"f","bp":"e","cat":"flow","name":"request","id":7,"ts":12.499999999999998,"#,
        r#""pid":1,"tid":2},"#,
        r#"{"ph":"f","bp":"e","cat":"flow","name":"request","id":9,"ts":12.499999999999998,"#,
        r#""pid":1,"tid":2},"#,
        r#"{"ph":"X","name":"stream \"x\"\n\tend","cat":"query","ts":1.5,"#,
        r#""dur":0.25,"pid":2,"tid":3,"args":{"stage":"data transfer"}}]}"#,
    );
    assert_eq!(perfetto::to_json(&golden_trace()), golden);
}

/// A journal holding every lifecycle kind and one SLO alert.
fn golden_journal() -> RequestJournal {
    let at = |ms: f64| SimInstant::ZERO + SimDuration::from_millis(ms);
    let ms = SimDuration::from_millis;
    let mut j = RequestJournal::new();
    let arrival = |class, model, records| JournalKind::Arrival {
        class,
        model,
        records,
    };
    j.emit(at(0.25), 1, arrival(QueryClass::Interactive, 3, 10));
    j.emit(at(0.25), 1, JournalKind::Admitted);
    j.emit(at(0.5), 2, arrival(QueryClass::Analytical, 0, 100_000));
    let reason = ShedReason::Rejected;
    j.emit(at(0.5), 2, JournalKind::Shed { reason });
    j.emit(at(1.0), 1, JournalKind::Coalesced { batch: 4, size: 2 });
    j.emit(
        at(1.0),
        1,
        JournalKind::Dispatched {
            batch: 4,
            backend: "FPGA".into(),
            device: "fpga \"0\"".into(),
        },
    );
    j.emit(
        at(3.125),
        1,
        JournalKind::Completed {
            latency: ms(2.875),
            queue_wait: ms(0.75),
            prepare: ms(0.5),
            setup: ms(0.25),
            transfer: ms(0.625),
            compute: ms(0.5),
            drain: ms(0.25),
        },
    );
    j.alert(SloAlert {
        window: 3,
        at: at(300.0),
        class: "interactive".into(),
        attainment: 0.8125,
        burn_rate: 18.75,
    });
    j
}

/// The journal's JSON Lines are pinned byte for byte (captured from the
/// hand-written serializer the shared writer replaced).
#[test]
fn journal_jsonl_matches_the_pinned_bytes() {
    let golden: String = [
        r#"{"t":0.000250000,"id":1,"event":"arrival","class":"interactive","model":3,"records":10}"#,
        r#"{"t":0.000250000,"id":1,"event":"admitted"}"#,
        r#"{"t":0.000500000,"id":2,"event":"arrival","class":"analytical","model":0,"records":100000}"#,
        r#"{"t":0.000500000,"id":2,"event":"shed","reason":"rejected"}"#,
        r#"{"t":0.001000000,"id":1,"event":"coalesced","batch":4,"size":2}"#,
        r#"{"t":0.001000000,"id":1,"event":"dispatched","batch":4,"backend":"FPGA","device":"fpga \"0\""}"#,
        r#"{"t":0.003125000,"id":1,"event":"completed","latency":0.002875000,"queue_wait":0.000750000,"prepare":0.000500000,"setup":0.000250000,"transfer":0.000625000,"compute":0.000500000,"drain":0.000250000}"#,
        r#"{"t":0.300000000,"event":"slo_alert","class":"interactive","window":3,"attainment":0.812500,"burn_rate":18.750000}"#,
    ]
    .iter()
    .map(|line| format!("{line}\n"))
    .collect();
    assert_eq!(golden_journal().to_jsonl(), golden);
}

/// Renders `build`'s output with a fresh writer in each layout.
fn render(build: impl Fn(&mut JsonWriter)) -> (String, String) {
    let mut compact = JsonWriter::compact();
    build(&mut compact);
    let mut pretty = JsonWriter::pretty();
    build(&mut pretty);
    (compact.finish(), pretty.finish())
}

#[test]
fn json_writer_escapes_strings_that_round_trip_through_the_parser() {
    let nasty = "quote\" slash\\ newline\n tab\t return\r control\u{1}\u{1f} unicode µ→";
    let (compact, pretty) = render(|w| {
        w.begin_object().key(nasty).str(nasty).end();
    });
    for text in [&compact, &pretty] {
        let doc = json::parse(text).expect("valid JSON");
        assert_eq!(doc.get(nasty).and_then(|v| v.as_str()), Some(nasty));
    }
    assert!(compact.contains(r#"\u0001"#) && compact.contains(r#"\u001f"#));
}

#[test]
fn json_writer_writes_non_finite_numbers_as_null() {
    let (compact, _) = render(|w| {
        w.begin_array();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            w.fixed(v, 3).float(v);
        }
        w.end();
    });
    assert_eq!(compact, "[null,null,null,null,null,null]");
}

#[test]
fn json_writer_numbers_are_fixed_or_shortest() {
    let (compact, _) = render(|w| {
        w.begin_array();
        w.fixed(2.0 / 3.0, 3)
            .fixed(0.5, 0)
            .fixed(-1.25, 1)
            .fixed(7.0, 9);
        w.float(0.1)
            .float(12.499999999999998)
            .float(3.0)
            .float(-0.5);
        w.uint(u64::MAX).bool(true).bool(false).null();
        w.end();
    });
    assert_eq!(
        compact,
        "[0.667,0,-1.2,7.000000000,0.1,12.499999999999998,3,-0.5,\
         18446744073709551615,true,false,null]"
    );
    let doc = json::parse(&compact).expect("valid JSON");
    assert_eq!(
        doc.as_array().unwrap()[5].as_f64(),
        Some(12.499999999999998)
    );
}

#[test]
fn json_writer_layouts() {
    let (compact, pretty) = render(|w| {
        w.begin_object();
        w.key("name").str("fpga");
        w.key("flat")
            .begin_object()
            .key("a")
            .uint(1)
            .key("b")
            .uint(2)
            .end();
        w.key("rows").begin_array();
        w.begin_array().uint(1).uint(2).end();
        w.begin_object()
            .key("deep")
            .begin_array()
            .null()
            .end()
            .end();
        w.end();
        w.end();
    });
    assert_eq!(
        compact,
        r#"{"name":"fpga","flat":{"a":1,"b":2},"rows":[[1,2],{"deep":[null]}]}"#
    );
    assert_eq!(
        pretty,
        concat!(
            "{\n",
            "  \"name\": \"fpga\",\n",
            "  \"flat\": {\"a\": 1, \"b\": 2},\n",
            "  \"rows\": [\n",
            "    [1, 2],\n",
            "    {\n",
            "      \"deep\": [null]\n",
            "    }\n",
            "  ]\n",
            "}\n",
        )
    );
    // Both layouts parse to the same value.
    assert_eq!(json::parse(&compact), json::parse(&pretty));
}

#[test]
fn json_writer_empty_containers() {
    let (compact, pretty) = render(|w| {
        w.begin_object();
        w.key("a").begin_array().end();
        w.key("o").begin_object().end();
        w.end();
    });
    assert_eq!(compact, r#"{"a":[],"o":{}}"#);
    assert_eq!(pretty, "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    let (compact, pretty) = render(|w| {
        w.begin_array().end();
    });
    assert_eq!((compact.as_str(), pretty.as_str()), ("[]", "[]\n"));
}

/// Deeply nested input is rejected with an error, not a stack overflow:
/// the same parser reads `repro bench --check` / `--diff` inputs and the
/// analyzer baseline.
#[test]
fn parser_rejects_nesting_beyond_the_depth_cap() {
    let err = json::parse(&"[".repeat(200_000)).expect_err("too deep");
    assert!(err.message.contains("nesting"), "{err}");
    let deepest = format!(
        "{}{}",
        "[".repeat(json::MAX_DEPTH),
        "]".repeat(json::MAX_DEPTH)
    );
    assert!(json::parse(&deepest).is_ok());
    let too_deep = format!("[{deepest}]");
    assert!(json::parse(&too_deep).is_err());
    let objects = "{\"a\":".repeat(json::MAX_DEPTH + 1) + "1" + &"}".repeat(json::MAX_DEPTH + 1);
    assert!(json::parse(&objects).is_err());
}

/// `JsonValue::field` reads a typed member; its error names the block,
/// the expected type and the key.
#[test]
fn field_reads_typed_members_and_names_what_is_missing() {
    let doc = json::parse(r#"{"n": 2.5, "s": "x", "a": [1], "o": {"k": true}}"#).unwrap();
    assert_eq!(doc.field::<f64>("n", "doc"), Ok(2.5));
    assert_eq!(doc.field::<&str>("s", "doc"), Ok("x"));
    assert_eq!(
        doc.field::<&[json::JsonValue]>("a", "doc").map(<[_]>::len),
        Ok(1)
    );
    let block: &json::JsonValue = doc.field("o", "doc").unwrap();
    assert_eq!(block.get("k"), Some(&json::JsonValue::Bool(true)));
    assert_eq!(
        doc.field::<f64>("gone", "cache block"),
        Err(r#"cache block: missing numeric "gone""#.to_string())
    );
    assert_eq!(
        doc.field::<f64>("s", "doc"),
        Err(r#"doc: missing numeric "s""#.to_string())
    );
    assert_eq!(
        doc.field::<&json::JsonValue>("a", "doc"),
        Err(r#"doc: missing object "a""#.to_string())
    );
    assert!(doc
        .field::<&str>("n", "doc")
        .unwrap_err()
        .contains("string"));
    assert!(doc
        .field::<&[json::JsonValue]>("o", "doc")
        .unwrap_err()
        .contains("array"));
}

//! The serving exports, byte for byte: length and FNV-1a of every document
//! the quick serving commands render. `repro report --quick` (JSON and
//! text), the report workload's request journal, `repro serve --quick
//! --out` and its `--trace-out` Perfetto timeline are pure functions of
//! the seed, so any change to how the engine books a run shows here.

use mlscore_bench::run_report::{self, RunReportOptions};
use mlscore_bench::serve_bench::{self, ServeBenchOptions};
use mlscore_telemetry::perfetto;

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
    let opts = RunReportOptions {
        quick: true,
        ..RunReportOptions::default()
    };
    let report = run_report::run(&opts);
    pin(
        "report json",
        &run_report::to_json(&report, &opts),
        3_461,
        0x11e4_91de_5b12_3b93,
    );
    pin(
        "report text",
        &run_report::to_text(&report, &opts),
        1_685,
        0xea3b_ab8c_93e3_8313,
    );
    pin(
        "report journal",
        &report.journal.to_jsonl(),
        38_807,
        0x2915_e468_303a_a151,
    );

    let opts = ServeBenchOptions { quick: true };
    let bench = serve_bench::run(&opts);
    pin(
        "serve json",
        &serve_bench::to_json(&bench, &opts),
        3_361,
        0x7419_2d86_2122_f1b6,
    );
    let trace = perfetto::to_json(&serve_bench::overload_trace(&opts));
    pin("serve trace", &trace, 43_075, 0x2d8f_da63_3313_7a13);
}

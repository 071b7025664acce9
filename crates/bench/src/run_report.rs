//! The serving run report (`repro report`).
//!
//! Runs the FPGA-only overload workload — the point of the serving study
//! where queueing and shed decisions actually bite — and renders what the
//! observability layer captured: the windowed time series, per-class SLO
//! attainment (with shed counts alongside completions, so shed load keeps
//! its class attribution), the SLO budget-burn alerts, and the [`TOP_N`]
//! slowest requests with their full stage breakdowns reconstructed from
//! the request-lifecycle journal.
//!
//! Everything runs in simulated time, so both renderings are pure
//! functions of `(seed, mode)`: the JSON document is byte-identical
//! across reruns — CI regenerates it twice and compares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mlscore_serve::{JournalKind, ModelCatalog, ServeEngine, ServingReport, WorkloadSpec};
use mlscore_sim::SimDuration;
use mlscore_telemetry::json::{self, JsonValue, JsonWriter};
use mlscore_telemetry::Tracer;

use crate::serve_bench::{fpga_roster, overload_queries, serve_config, OVERLOAD_RATE_QPS, SEED};
use crate::Mode;

/// Offered Poisson rate of the report workload, queries/second.
pub const RATE_QPS: f64 = OVERLOAD_RATE_QPS;

/// How many slowest requests the report breaks down.
pub const TOP_N: usize = 5;

/// Runs the report workload.
pub fn run(mode: Mode) -> ServingReport {
    // The serving benchmark's FPGA overload configuration: queue capacity
    // 32, coalescing on, and the benchmark's latency SLOs.
    let engine = ServeEngine::new(
        fpga_roster(),
        ModelCatalog::paper_mix(),
        serve_config(true, 32),
    );
    let spec = WorkloadSpec {
        queries: overload_queries(mode),
        seed: SEED,
        rate_qps: RATE_QPS,
    };
    engine
        .run(&spec, &Tracer::disabled())
        .expect("the report workload is a fixed valid spec")
}

/// One slow request's stage breakdown, reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    /// The request.
    pub id: u64,
    /// Its class name.
    pub class: String,
    /// Its model (catalog index).
    pub model: usize,
    /// Records it carried.
    pub records: u64,
    /// Arrival-to-completion latency.
    pub latency: SimDuration,
    /// Arrival to device-pass start.
    pub queue_wait: SimDuration,
    /// Compile / cache-lookup charge.
    pub prepare: SimDuration,
    /// Overhead stages.
    pub setup: SimDuration,
    /// Transfer stages.
    pub transfer: SimDuration,
    /// Compute stages.
    pub compute: SimDuration,
    /// Pipeline-drain stages.
    pub drain: SimDuration,
}

/// The `n` slowest completed requests, latency-descending (ties break on
/// the smaller id), each with the stage split its journal entries carry.
pub fn slowest(report: &ServingReport, n: usize) -> Vec<SlowRequest> {
    let mut arrivals: BTreeMap<u64, (String, usize, u64)> = BTreeMap::new();
    let mut out = Vec::new();
    for entry in report.journal.entries() {
        match &entry.kind {
            JournalKind::Arrival {
                class,
                model,
                records,
            } => {
                arrivals.insert(entry.id, (class.name().to_string(), *model, *records));
            }
            JournalKind::Completed {
                latency,
                queue_wait,
                prepare,
                setup,
                transfer,
                compute,
                drain,
            } => {
                let (class, model, records) = arrivals
                    .get(&entry.id)
                    .cloned()
                    .unwrap_or_else(|| ("?".to_string(), 0, 0));
                out.push(SlowRequest {
                    id: entry.id,
                    class,
                    model,
                    records,
                    latency: *latency,
                    queue_wait: *queue_wait,
                    prepare: *prepare,
                    setup: *setup,
                    transfer: *transfer,
                    compute: *compute,
                    drain: *drain,
                });
            }
            _ => {}
        }
    }
    out.sort_by(|a, b| {
        b.latency
            .as_secs()
            .total_cmp(&a.latency.as_secs())
            .then(a.id.cmp(&b.id))
    });
    out.truncate(n);
    out
}

/// Serializes the run report to its JSON document
/// (`mlscore/run-report/v1`). Latencies are milliseconds with six
/// decimals (1 ns), instants and busy times seconds with nine; check the
/// result with [`validate`].
pub fn to_json(report: &ServingReport, mode: Mode) -> String {
    let ms = |v: SimDuration| v.as_secs() * 1e3;
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("schema").str("mlscore/run-report/v1");
    w.key("schema_version").uint(1);
    w.key("mode").str(mode.name());
    w.key("seed").uint(SEED);
    w.key("rate_qps").fixed(RATE_QPS, 3);
    w.key("queries").uint(overload_queries(mode) as u64);
    w.key("window_secs")
        .fixed(report.series.window_len().as_secs(), 6);
    w.key("makespan_secs").fixed(report.makespan.as_secs(), 9);
    w.key("completed").uint(report.completed);
    w.key("shed").uint(report.shed());
    w.key("unservable").uint(report.unservable);

    // Per-class slices: completions AND shed counts, attributed.
    w.key("classes").begin_array();
    for class in &report.classes {
        let quantile = |q: f64| {
            if class.latency.count() == 0 {
                SimDuration::ZERO
            } else {
                class.latency.quantile(q)
            }
        };
        w.begin_object();
        w.key("class").str(class.class.name());
        w.key("completed").uint(class.completed);
        w.key("rejected").uint(class.rejected);
        w.key("shed").uint(class.shed());
        w.key("slo_violations").uint(class.slo_violations);
        w.key("attainment").fixed(class.attainment(), 6);
        w.key("p50_ms").fixed(ms(quantile(0.50)), 6);
        w.key("p99_ms").fixed(ms(quantile(0.99)), 6);
        w.end();
    }
    w.end();

    // The windowed series.
    w.key("windows").begin_array();
    for (index, window) in report.series.windows() {
        w.begin_object();
        w.key("index").uint(index);
        w.key("start_secs")
            .fixed(report.series.window_start(index).as_secs(), 9);
        w.key("arrivals").uint(window.arrivals);
        w.key("completions").uint(window.completions());
        w.key("shed").uint(window.shed());
        w.key("queue_depth_peak").uint(window.queue_depth_peak);
        w.key("classes").begin_object();
        for (class, slice) in &window.classes {
            w.key(class).begin_object();
            w.key("completions").uint(slice.completions);
            w.key("shed").uint(slice.shed);
            w.key("violations").uint(slice.violations);
            w.key("attainment").fixed(slice.attainment(), 6);
            w.end();
        }
        w.end();
        w.key("busy_secs").begin_object();
        for (device, busy) in &window.busy {
            w.key(device).fixed(busy.as_secs(), 9);
        }
        w.end().end();
    }
    w.end();

    // Budget-burn alerts.
    w.key("alerts").begin_array();
    for alert in report.journal.alerts() {
        w.begin_object();
        w.key("window").uint(alert.window);
        w.key("start_secs").fixed(alert.at.as_secs(), 9);
        w.key("class").str(&alert.class);
        w.key("attainment").fixed(alert.attainment, 6);
        w.key("burn_rate").fixed(alert.burn_rate, 6);
        w.end();
    }
    w.end();

    // Slowest requests with stage breakdowns.
    w.key("slowest").begin_array();
    for slow in slowest(report, TOP_N) {
        w.begin_object();
        w.key("id").uint(slow.id);
        w.key("class").str(&slow.class);
        w.key("model").uint(slow.model as u64);
        w.key("records").uint(slow.records);
        for (key, v) in [
            ("latency_ms", slow.latency),
            ("queue_wait_ms", slow.queue_wait),
            ("prepare_ms", slow.prepare),
            ("setup_ms", slow.setup),
            ("transfer_ms", slow.transfer),
            ("compute_ms", slow.compute),
            ("drain_ms", slow.drain),
        ] {
            w.key(key).fixed(ms(v), 6);
        }
        w.end();
    }
    w.end().end();
    w.finish()
}

/// Renders the human-readable summary.
pub fn to_text(report: &ServingReport, mode: Mode) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run report: {} queries @ {RATE_QPS:.0} qps (seed {SEED}, FPGA-only, queue 32)",
        overload_queries(mode),
    );
    let _ = writeln!(
        out,
        "  completed {} | shed {} | unservable {} | makespan {:.3} s | {} windows of {:.0} ms",
        report.completed,
        report.shed(),
        report.unservable,
        report.makespan.as_secs(),
        report.series.len(),
        report.series.window_len().as_secs() * 1e3,
    );
    out.push_str("\nper-class outcome (completed AND shed keep class attribution):\n");
    for class in &report.classes {
        let _ = writeln!(
            out,
            "  {:<12} completed {:>5}  shed {:>5} (rejected {})  attainment {:>7.3}%",
            class.class.name(),
            class.completed,
            class.shed(),
            class.rejected,
            class.attainment() * 100.0,
        );
    }
    out.push_str("\nwindows:\n");
    for (index, window) in report.series.windows() {
        let _ = writeln!(
            out,
            "  [{index:>3}] t={:>7.3}s arrivals {:>4} completions {:>4} shed {:>4} \
             peak queue {:>3}",
            report.series.window_start(index).as_secs(),
            window.arrivals,
            window.completions(),
            window.shed(),
            window.queue_depth_peak,
        );
    }
    if report.journal.alerts().is_empty() {
        out.push_str("\nno SLO budget-burn alerts\n");
    } else {
        let _ = writeln!(
            out,
            "\nSLO budget-burn alerts ({}):",
            report.journal.alerts().len()
        );
        for alert in report.journal.alerts() {
            let _ = writeln!(
                out,
                "  window {:>3} @ {:>7.3}s  {:<12} attainment {:>7.3}%  burn {:>6.1}x",
                alert.window,
                alert.at.as_secs(),
                alert.class,
                alert.attainment * 100.0,
                alert.burn_rate,
            );
        }
    }
    let slow = slowest(report, TOP_N);
    let _ = writeln!(out, "\nslowest {} request(s):", slow.len());
    for s in &slow {
        let _ = writeln!(
            out,
            "  #{:<4} {:<12} model {:>2} x{:>7} records  latency {:>9.3} ms = \
             queue {:.3} + prepare {:.3} + setup {:.3} + transfer {:.3} + \
             compute {:.3} + drain {:.3}",
            s.id,
            s.class,
            s.model,
            s.records,
            s.latency.as_secs() * 1e3,
            s.queue_wait.as_secs() * 1e3,
            s.prepare.as_secs() * 1e3,
            s.setup.as_secs() * 1e3,
            s.transfer.as_secs() * 1e3,
            s.compute.as_secs() * 1e3,
            s.drain.as_secs() * 1e3,
        );
    }
    out
}

/// Checks that `text` is a well-formed run report with the content the
/// acceptance gate requires: at least two time windows, an attainment
/// number in `[0, 1]` and whole non-negative counts for every class, with
/// `shed` equal to `rejected` (the only way a request is shed), and at
/// least one slowest-request breakdown.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("mlscore/run-report/v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let classes: &[JsonValue] = doc.field("classes", "report")?;
    if classes.len() < 2 {
        return Err(format!("expected both classes, got {}", classes.len()));
    }
    for (i, class) in classes.iter().enumerate() {
        let what = format!("class {i}");
        let attainment: f64 = class.field("attainment", &what)?;
        if !(0.0..=1.0).contains(&attainment) {
            return Err(format!("{what}: attainment {attainment} outside [0, 1]"));
        }
        for key in ["completed", "rejected", "shed", "slo_violations"] {
            let v: f64 = class.field(key, &what)?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("{what}: \"{key}\" {v} is not a whole count"));
            }
        }
        let shed: f64 = class.field("shed", &what)?;
        let rejected: f64 = class.field("rejected", &what)?;
        if shed != rejected {
            return Err(format!(
                "{what}: shed {shed} differs from rejected {rejected}"
            ));
        }
    }
    let windows: &[JsonValue] = doc.field("windows", "report")?;
    if windows.len() < 2 {
        return Err(format!("expected >= 2 time windows, got {}", windows.len()));
    }
    let slowest: &[JsonValue] = doc.field("slowest", "report")?;
    if slowest.is_empty() {
        return Err("no slowest-request breakdown".to_string());
    }
    for (i, slow) in slowest.iter().enumerate() {
        let what = format!("slowest {i}");
        let latency: f64 = slow.field("latency_ms", &what)?;
        let mut stages = 0.0;
        for key in [
            "queue_wait_ms",
            "prepare_ms",
            "setup_ms",
            "transfer_ms",
            "compute_ms",
            "drain_ms",
        ] {
            stages += slow.field::<f64>(key, &what)?;
        }
        // The stage split must re-sum to the latency (rendered at 1 µs
        // resolution, so allow that much slack per stage).
        if (stages - latency).abs() > 1e-2 {
            return Err(format!(
                "{what}: stages sum to {stages:.6} ms but latency is {latency:.6} ms"
            ));
        }
    }
    doc.field::<&[JsonValue]>("alerts", "report")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_validates_and_is_deterministic() {
        let report = run(Mode::Quick);
        let json = to_json(&report, Mode::Quick);
        assert_eq!(validate(&json), Ok(()));
        // Simulated time: a rerun renders byte-identically.
        let again = to_json(&run(Mode::Quick), Mode::Quick);
        assert_eq!(json, again);
        assert_eq!(
            to_text(&report, Mode::Quick),
            to_text(&run(Mode::Quick), Mode::Quick)
        );
    }

    #[test]
    fn overload_report_has_windows_alerts_and_slow_requests() {
        let report = run(Mode::Quick);
        assert!(report.series.len() >= 2, "overload spans several windows");
        assert!(
            !report.journal.alerts().is_empty(),
            "50 ms interactive SLO under FPGA overload must burn budget"
        );
        let slow = slowest(&report, 3);
        assert_eq!(slow.len(), 3);
        // Latency-descending, and the split re-sums to the latency.
        assert!(slow[0].latency >= slow[1].latency);
        for s in &slow {
            let sum = s.queue_wait + s.prepare + s.setup + s.transfer + s.compute + s.drain;
            assert!(
                (sum.as_secs() - s.latency.as_secs()).abs() < 1e-9,
                "stages {sum:?} vs latency {:?}",
                s.latency
            );
        }
        let text = to_text(&report, Mode::Quick);
        assert!(text.contains("per-class outcome"));
        assert!(text.contains("slowest 5 request(s):"));
    }

    #[test]
    fn validate_rejects_impossible_class_counts() {
        let good = to_json(&run(Mode::Quick), Mode::Quick);
        assert_eq!(validate(&good), Ok(()));
        for (key, value, expect) in [
            ("completed", "-3", "\"completed\" -3 is not a whole count"),
            ("rejected", "70.5", "\"rejected\" 70.5 is not a whole count"),
            ("shed", "7000000", "shed 7000000 differs from rejected"),
        ] {
            let bad = set_class_field(&good, key, value);
            assert_ne!(bad, good, "{key} not found");
            let err = validate(&bad).unwrap_err();
            assert!(err.contains(expect), "{key}: {err}");
        }
    }

    /// Rewrites `"key": v` to `"key": value` in the first class block of a
    /// pretty run report.
    fn set_class_field(doc: &str, key: &str, value: &str) -> String {
        let at = doc.find("\"classes\": [").expect("classes present");
        let key_tag = format!("\"{key}\": ");
        let k = at + doc[at..].find(&key_tag).expect("key present") + key_tag.len();
        let end = k + doc[k..].find([',', '}']).expect("value ends");
        format!("{}{value}{}", &doc[..k], &doc[end..])
    }
}

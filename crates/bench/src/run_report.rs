//! The serving run report (`repro report`).
//!
//! Runs the FPGA-only overload workload — the point of the serving study
//! where queueing and shed decisions actually bite — and renders what the
//! observability layer captured: the windowed time series, per-class SLO
//! attainment (with shed counts alongside completions, so shed load keeps
//! its class attribution), the SLO budget-burn alerts, and the top-N
//! slowest requests with their full stage breakdowns reconstructed from
//! the request-lifecycle journal.
//!
//! Everything runs in simulated time, so both renderings are pure
//! functions of `(seed, options)`: the JSON document is byte-identical
//! across reruns — CI regenerates it twice and compares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mlscore_serve::{
    ArrivalProcess, ClassSlo, CoalesceConfig, JournalKind, ModelCatalog, QueueConfig, ServeConfig,
    ServeEngine, ServingReport, WorkloadSpec,
};
use mlscore_sim::SimDuration;
use mlscore_telemetry::json::{self, JsonValue};
use mlscore_telemetry::Tracer;

use crate::serve_bench::{fpga_roster, CPU_SEATS, GPU_STREAMS, SEED};

/// Offered Poisson rate of the report workload, queries/second.
pub const RATE_QPS: f64 = 2_000.0;

/// Options for one report run.
#[derive(Debug, Clone, Copy)]
pub struct RunReportOptions {
    /// Shrink the workload to a CI smoke run.
    pub quick: bool,
    /// How many slowest requests to break down.
    pub top_n: usize,
}

impl Default for RunReportOptions {
    fn default() -> Self {
        Self {
            quick: false,
            top_n: 5,
        }
    }
}

impl RunReportOptions {
    /// Queries offered.
    pub fn queries(&self) -> usize {
        if self.quick {
            150
        } else {
            500
        }
    }
}

/// The engine configuration the report runs: FPGA-only, bounded queue,
/// coalescing on, the same latency SLOs as the serving benchmark, and the
/// default observability windows/thresholds.
pub fn config() -> ServeConfig {
    ServeConfig {
        queue: QueueConfig {
            capacity: Some(32),
            interactive: ClassSlo {
                latency_slo: Some(SimDuration::from_millis(50.0)),
                ..ClassSlo::default()
            },
            analytical: ClassSlo {
                latency_slo: Some(SimDuration::from_secs(2.0)),
                ..ClassSlo::default()
            },
            ..QueueConfig::default()
        },
        coalesce: CoalesceConfig::default(),
        cpu_seats: CPU_SEATS,
        gpu_streams: GPU_STREAMS,
        ..ServeConfig::default()
    }
}

/// Runs the report workload.
pub fn run(opts: &RunReportOptions) -> ServingReport {
    let engine = ServeEngine::new(fpga_roster(), ModelCatalog::paper_mix(), config());
    let spec = WorkloadSpec {
        queries: opts.queries(),
        seed: SEED,
        arrivals: ArrivalProcess::OpenPoisson { rate_qps: RATE_QPS },
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

fn push_ms(out: &mut String, v: SimDuration) {
    let _ = write!(out, "{:.6}", v.as_secs() * 1e3);
}

/// Serializes the run report to its JSON document
/// (`mlscore/run-report/v1`). Validated with [`validate`] before being
/// returned.
///
/// # Panics
///
/// Panics if the writer produced a document [`validate`] rejects — a bug
/// in this module, not a runtime condition.
pub fn to_json(report: &ServingReport, opts: &RunReportOptions) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mlscore/run-report/v1\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    let _ = write!(
        out,
        "  \"mode\": \"{}\",\n  \"seed\": {SEED},\n  \"rate_qps\": {RATE_QPS:.3},\n  \
         \"queries\": {},\n  \"window_secs\": {:.6},\n  \"makespan_secs\": {:.9},\n",
        if opts.quick { "quick" } else { "full" },
        opts.queries(),
        report.series.window_len().as_secs(),
        report.makespan.as_secs(),
    );
    let _ = writeln!(
        out,
        "  \"completed\": {}, \"shed\": {}, \"unservable\": {},",
        report.completed,
        report.shed(),
        report.unservable,
    );

    // Per-class slices: completions AND shed counts, attributed.
    out.push_str("  \"classes\": [");
    for (i, class) in report.classes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"class\": \"{}\", \"completed\": {}, \"rejected\": {}, \
             \"dropped\": {}, \"timed_out\": {}, \"shed\": {}, \"slo_violations\": {}, \
             \"attainment\": {:.6}, \"p50_ms\": ",
            class.class.name(),
            class.completed,
            class.rejected,
            class.dropped,
            class.timed_out,
            class.shed(),
            class.slo_violations,
            class.attainment(),
        );
        let quantile_ms = |q: f64| {
            if class.latency.count() == 0 {
                SimDuration::ZERO
            } else {
                class.latency.quantile(q)
            }
        };
        push_ms(&mut out, quantile_ms(0.50));
        out.push_str(", \"p99_ms\": ");
        push_ms(&mut out, quantile_ms(0.99));
        out.push('}');
    }
    out.push_str("\n  ],\n");

    // The windowed series.
    out.push_str("  \"windows\": [");
    let mut first = true;
    for (index, window) in report.series.windows() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"index\": {index}, \"start_secs\": {:.9}, \"arrivals\": {}, \
             \"completions\": {}, \"shed\": {}, \"queue_depth_peak\": {}, \"classes\": {{",
            report.series.window_start(index).as_secs(),
            window.arrivals,
            window.completions(),
            window.shed(),
            window.queue_depth_peak,
        );
        for (i, (class, slice)) in window.classes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{class}\": {{\"completions\": {}, \"shed\": {}, \"violations\": {}, \
                 \"attainment\": {:.6}}}",
                slice.completions,
                slice.shed,
                slice.violations,
                slice.attainment(),
            );
        }
        out.push_str("}, \"busy_secs\": {");
        for (i, (device, busy)) in window.busy.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{device}\": {:.9}", busy.as_secs());
        }
        out.push_str("}}");
    }
    out.push_str("\n  ],\n");

    // Budget-burn alerts.
    out.push_str("  \"alerts\": [");
    for (i, alert) in report.alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"window\": {}, \"start_secs\": {:.9}, \"class\": \"{}\", \
             \"attainment\": {:.6}, \"burn_rate\": {:.6}}}",
            alert.window,
            alert.at.as_secs(),
            alert.class,
            alert.attainment,
            alert.burn_rate,
        );
    }
    out.push_str("\n  ],\n");

    // Slowest requests with stage breakdowns.
    out.push_str("  \"slowest\": [");
    for (i, slow) in slowest(report, opts.top_n).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": {}, \"class\": \"{}\", \"model\": {}, \"records\": {},\n     ",
            slow.id, slow.class, slow.model, slow.records,
        );
        for (j, (key, v)) in [
            ("latency_ms", slow.latency),
            ("queue_wait_ms", slow.queue_wait),
            ("prepare_ms", slow.prepare),
            ("setup_ms", slow.setup),
            ("transfer_ms", slow.transfer),
            ("compute_ms", slow.compute),
            ("drain_ms", slow.drain),
        ]
        .into_iter()
        .enumerate()
        {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{key}\": ");
            push_ms(&mut out, v);
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    validate(&out).expect("harness emitted an invalid run report");
    out
}

/// Renders the human-readable summary.
pub fn to_text(report: &ServingReport, opts: &RunReportOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run report: {} queries @ {RATE_QPS:.0} qps (seed {SEED}, FPGA-only, queue 32)",
        opts.queries(),
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
            "  {:<12} completed {:>5}  shed {:>5} (rejected {}, dropped {}, timed out {})  \
             attainment {:>7.3}%",
            class.class.name(),
            class.completed,
            class.shed(),
            class.rejected,
            class.dropped,
            class.timed_out,
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
    if report.alerts.is_empty() {
        out.push_str("\nno SLO budget-burn alerts\n");
    } else {
        let _ = writeln!(out, "\nSLO budget-burn alerts ({}):", report.alerts.len());
        for alert in &report.alerts {
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
    let slow = slowest(report, opts.top_n);
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

fn req_f64(v: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what}: missing numeric \"{key}\""))
}

/// Checks that `text` is a well-formed run report with the content the
/// acceptance gate requires: at least two time windows, an attainment
/// number for every class, and at least one slowest-request breakdown.
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
    let classes = doc
        .get("classes")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"classes\" array")?;
    if classes.len() < 2 {
        return Err(format!("expected both classes, got {}", classes.len()));
    }
    for (i, class) in classes.iter().enumerate() {
        let what = format!("class {i}");
        let attainment = req_f64(class, "attainment", &what)?;
        if !(0.0..=1.0).contains(&attainment) {
            return Err(format!("{what}: attainment {attainment} outside [0, 1]"));
        }
        for key in ["completed", "rejected", "dropped", "timed_out", "shed"] {
            req_f64(class, key, &what)?;
        }
    }
    let windows = doc
        .get("windows")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"windows\" array")?;
    if windows.len() < 2 {
        return Err(format!("expected >= 2 time windows, got {}", windows.len()));
    }
    let slowest = doc
        .get("slowest")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"slowest\" array")?;
    if slowest.is_empty() {
        return Err("no slowest-request breakdown".to_string());
    }
    for (i, slow) in slowest.iter().enumerate() {
        let what = format!("slowest {i}");
        let latency = req_f64(slow, "latency_ms", &what)?;
        let mut stages = 0.0;
        for key in [
            "queue_wait_ms",
            "prepare_ms",
            "setup_ms",
            "transfer_ms",
            "compute_ms",
            "drain_ms",
        ] {
            stages += req_f64(slow, key, &what)?;
        }
        // The stage split must re-sum to the latency (rendered at 1 µs
        // resolution, so allow that much slack per stage).
        if (stages - latency).abs() > 1e-2 {
            return Err(format!(
                "{what}: stages sum to {stages:.6} ms but latency is {latency:.6} ms"
            ));
        }
    }
    doc.get("alerts")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"alerts\" array")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_validates_and_is_deterministic() {
        let opts = RunReportOptions {
            quick: true,
            top_n: 5,
        };
        let report = run(&opts);
        let json = to_json(&report, &opts);
        assert_eq!(validate(&json), Ok(()));
        // Simulated time: a rerun renders byte-identically.
        let again = to_json(&run(&opts), &opts);
        assert_eq!(json, again);
        assert_eq!(to_text(&report, &opts), to_text(&run(&opts), &opts));
    }

    #[test]
    fn overload_report_has_windows_alerts_and_slow_requests() {
        let opts = RunReportOptions {
            quick: true,
            top_n: 3,
        };
        let report = run(&opts);
        assert!(report.series.len() >= 2, "overload spans several windows");
        assert!(
            !report.alerts.is_empty(),
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
        let text = to_text(&report, &opts);
        assert!(text.contains("per-class outcome"));
        assert!(text.contains("slowest 3 request(s):"));
    }
}

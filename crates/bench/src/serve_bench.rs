//! Serving-engine benchmark (`repro serve`).
//!
//! Sweeps offered load through [`mlscore_serve::ServeEngine`] — the same
//! Poisson workload at each rate, once with micro-batch coalescing on and
//! once with it off — and renders the throughput–latency curves as the
//! serving report (`repro serve --out`, which regenerates
//! `BENCH_serving.json`). A second experiment pins the
//! roster to the FPGA alone and overloads it, demonstrating the headline
//! effect: merging queued same-model requests into one device pass
//! amortizes the accelerator's fixed per-call overheads, so coalescing
//! raises FPGA throughput at the same offered load.
//!
//! Everything here runs in *simulated* time, so the report is a pure
//! function of `(seed, configuration)`: the same invocation produces a
//! byte-identical file on any host. The emitted JSON is round-tripped
//! through [`mlscore_telemetry::json::parse`] before it is handed back.

use mlscore_backend::ScoringBackend;
use mlscore_fpga::FpgaBackend;
use mlscore_sched::paper_backends;
use mlscore_serve::{
    ModelCatalog, QueryClass, ServeConfig, ServeEngine, ServingReport, WorkloadSpec,
};
use mlscore_sim::SimDuration;
use mlscore_telemetry::json::{self, JsonValue, JsonWriter};
use mlscore_telemetry::{Trace, Tracer};

use crate::Mode;

/// Workload seed shared by every experiment in the report.
pub const SEED: u64 = 42;

/// Executor seats the serving CPU device models (the paper host's 52
/// hardware threads) — pinned so the report does not depend on the
/// machine that generated it.
pub const CPU_SEATS: usize = 52;

/// Concurrent streams on the serving GPU device.
pub const GPU_STREAMS: usize = 4;

/// Offered Poisson rate of the FPGA overload runs, queries/second.
pub(crate) const OVERLOAD_RATE_QPS: f64 = 2_000.0;

/// Queries per sweep point.
fn sweep_queries(mode: Mode) -> usize {
    match mode {
        Mode::Quick => 150,
        Mode::Full => 600,
    }
}

/// Queries in the FPGA overload experiment (and the run report, which
/// replays its coalescing-on run).
pub(crate) fn overload_queries(mode: Mode) -> usize {
    match mode {
        Mode::Quick => 150,
        Mode::Full => 500,
    }
}

/// Offered Poisson rates for the sweep, queries/second.
fn rates(mode: Mode) -> Vec<f64> {
    match mode {
        Mode::Quick => vec![50.0, 2_000.0],
        Mode::Full => vec![10.0, 50.0, 200.0, 1_000.0, 5_000.0],
    }
}

/// The measurements kept from one engine run.
#[derive(Debug, Clone)]
pub struct PointMetrics {
    /// Completed queries per second of makespan.
    pub throughput_qps: f64,
    /// Scored records per second of makespan.
    pub records_per_sec: f64,
    /// Median sojourn latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sojourn latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sojourn latency, milliseconds.
    pub p99_ms: f64,
    /// Completed requests.
    pub completed: u64,
    /// Requests shed (rejected at a full queue).
    pub shed: u64,
    /// Device passes executed.
    pub batches: u64,
    /// Passes that merged more than one request.
    pub coalesced_batches: u64,
    /// Largest merge.
    pub max_batch: usize,
    /// Mean requests per pass.
    pub mean_batch: f64,
    /// `(device name, busy fraction)` in roster order.
    pub utilization: Vec<(String, f64)>,
    /// Interactive-class latency-SLO attainment, in `[0, 1]`.
    pub interactive_attainment: f64,
    /// Analytical-class latency-SLO attainment, in `[0, 1]`.
    pub analytical_attainment: f64,
    /// Largest queue depth any metrics window observed.
    pub peak_queue_depth: u64,
}

impl PointMetrics {
    /// Folds a [`ServingReport`] down to the numbers the report keeps.
    pub fn of(report: &ServingReport) -> Self {
        let ms = |q: f64| {
            if report.latency.count() == 0 {
                0.0
            } else {
                report.latency.quantile(q).as_secs() * 1e3
            }
        };
        Self {
            throughput_qps: report.throughput_qps(),
            records_per_sec: report.records_per_sec(),
            p50_ms: ms(0.50),
            p95_ms: ms(0.95),
            p99_ms: ms(0.99),
            completed: report.completed,
            shed: report.shed(),
            batches: report.batches,
            coalesced_batches: report.coalesced_batches,
            max_batch: report.max_batch(),
            mean_batch: report.mean_batch(),
            utilization: report
                .devices
                .iter()
                .map(|d| (d.name.clone(), d.utilization))
                .collect(),
            interactive_attainment: report.class(QueryClass::Interactive).attainment(),
            analytical_attainment: report.class(QueryClass::Analytical).attainment(),
            peak_queue_depth: report.series.peak_queue_depth(),
        }
    }
}

/// One offered-load point: the same workload with coalescing on and off.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered Poisson rate, queries/second.
    pub rate_qps: f64,
    /// Metrics with coalescing enabled.
    pub on: PointMetrics,
    /// Metrics with coalescing disabled.
    pub off: PointMetrics,
}

/// The FPGA overload experiment.
#[derive(Debug, Clone)]
pub struct FpgaOverload {
    /// Offered Poisson rate, queries/second.
    pub rate_qps: f64,
    /// Queries offered.
    pub queries: usize,
    /// Metrics with coalescing enabled.
    pub on: PointMetrics,
    /// Metrics with coalescing disabled.
    pub off: PointMetrics,
}

/// A full `repro serve` result.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The load sweep over the full paper roster.
    pub sweep: Vec<SweepPoint>,
    /// The FPGA-only overload comparison.
    pub fpga_overload: FpgaOverload,
    /// Queries per sweep point.
    pub sweep_queries: usize,
}

/// The benchmark's engine configuration at one queue capacity, with
/// coalescing on or off.
pub(crate) fn serve_config(coalesce: bool, capacity: usize) -> ServeConfig {
    ServeConfig {
        capacity: Some(capacity),
        // Latency SLOs so the report's attainment columns measure
        // something: 50 ms for point lookups, 2 s for full scans.
        // Violations are counted, never enforced — adding the SLOs does
        // not perturb scheduling.
        interactive_slo: Some(SimDuration::from_millis(50.0)),
        analytical_slo: Some(SimDuration::from_secs(2.0)),
        coalesce,
        cpu_seats: CPU_SEATS,
        gpu_streams: GPU_STREAMS,
    }
}

/// The FPGA-only roster of the overload runs (`repro serve`'s comparison
/// and trace, `repro report`): the paper's FPGA engine, alone.
pub fn fpga_roster() -> Vec<Box<dyn ScoringBackend>> {
    vec![Box::new(FpgaBackend::paper_default())]
}

/// Runs one Poisson workload with coalescing on, then off, at queue
/// `capacity`; both runs must account for every request.
fn run_point(
    roster: fn() -> Vec<Box<dyn ScoringBackend>>,
    capacity: usize,
    rate_qps: f64,
    queries: usize,
) -> [ServingReport; 2] {
    let spec = WorkloadSpec {
        queries,
        seed: SEED,
        rate_qps,
    };
    let pair = [true, false].map(|coalesce| {
        let config = serve_config(coalesce, capacity);
        ServeEngine::new(roster(), ModelCatalog::paper_mix(), config)
            .run(&spec, &Tracer::disabled())
            .expect("sweep workloads are validated by construction")
    });
    assert!(pair.iter().all(|r| r.is_conserved()), "lost requests");
    pair
}

/// Runs the sweep and the FPGA overload experiment, printing one progress
/// line per point.
pub fn run(mode: Mode) -> ServeBenchReport {
    let queries = sweep_queries(mode);
    let mut sweep = Vec::new();
    for rate_qps in rates(mode) {
        let [on, off] = run_point(paper_backends, 128, rate_qps, queries);
        println!(
            "{rate_qps:>7.0} qps | coalesced: {:>7.1} qps p99 {:>9.1} ms (merged {:>3}) | \
             solo: {:>7.1} qps p99 {:>9.1} ms | shed {}/{}",
            on.throughput_qps(),
            PointMetrics::of(&on).p99_ms,
            on.coalesced_batches,
            off.throughput_qps(),
            PointMetrics::of(&off).p99_ms,
            on.shed(),
            off.shed(),
        );
        sweep.push(SweepPoint {
            rate_qps,
            on: PointMetrics::of(&on),
            off: PointMetrics::of(&off),
        });
    }

    let overload_queries = overload_queries(mode);
    let [on, off] = run_point(fpga_roster, 32, OVERLOAD_RATE_QPS, overload_queries);
    println!(
        "FPGA overload @ {OVERLOAD_RATE_QPS:.0} qps | coalesced {:>7.1} qps ({} merged passes, \
         max batch {}) | solo {:>7.1} qps",
        on.throughput_qps(),
        on.coalesced_batches,
        on.max_batch(),
        off.throughput_qps(),
    );
    ServeBenchReport {
        sweep,
        fpga_overload: FpgaOverload {
            rate_qps: OVERLOAD_RATE_QPS,
            queries: overload_queries,
            on: PointMetrics::of(&on),
            off: PointMetrics::of(&off),
        },
        sweep_queries: queries,
    }
}

/// Reruns the FPGA overload point with coalescing on and no latency SLOs,
/// recording spans: the timeline `repro serve --trace-out` exports (queue
/// build-up, merged passes, shed requests).
pub fn overload_trace(mode: Mode) -> Trace {
    let engine = ServeEngine::new(
        fpga_roster(),
        ModelCatalog::paper_mix(),
        ServeConfig {
            capacity: Some(32),
            cpu_seats: CPU_SEATS,
            gpu_streams: GPU_STREAMS,
            ..ServeConfig::default()
        },
    );
    let spec = WorkloadSpec {
        queries: overload_queries(mode),
        seed: SEED,
        rate_qps: OVERLOAD_RATE_QPS,
    };
    let tracer = Tracer::new();
    engine
        .run(&spec, &tracer)
        .expect("the overload trace workload is a fixed valid spec");
    tracer.take()
}

/// Writes one metrics block. Rates, latencies and utilizations carry
/// three decimals; attainments carry six, since against a 99% target
/// three would round every near-miss to 0.990.
fn write_metrics(w: &mut JsonWriter, m: &PointMetrics) {
    w.begin_object();
    w.key("throughput_qps").fixed(m.throughput_qps, 3);
    w.key("records_per_sec").fixed(m.records_per_sec, 3);
    w.key("p50_ms").fixed(m.p50_ms, 3);
    w.key("p95_ms").fixed(m.p95_ms, 3);
    w.key("p99_ms").fixed(m.p99_ms, 3);
    w.key("completed").uint(m.completed);
    w.key("shed").uint(m.shed);
    w.key("batches").uint(m.batches);
    w.key("coalesced_batches").uint(m.coalesced_batches);
    w.key("max_batch").uint(m.max_batch as u64);
    w.key("mean_batch").fixed(m.mean_batch, 3);
    w.key("interactive_attainment")
        .fixed(m.interactive_attainment, 6);
    w.key("analytical_attainment")
        .fixed(m.analytical_attainment, 6);
    w.key("peak_queue_depth").uint(m.peak_queue_depth);
    w.key("utilization").begin_object();
    for (name, u) in &m.utilization {
        w.key(name).fixed(*u, 3);
    }
    w.end().end();
}

/// Writes a `coalesce_on` / `coalesce_off` pair of metrics blocks.
fn write_pair(w: &mut JsonWriter, on: &PointMetrics, off: &PointMetrics) {
    w.key("coalesce_on");
    write_metrics(w, on);
    w.key("coalesce_off");
    write_metrics(w, off);
}

/// Serializes the report to the `BENCH_serving.json` document (schema
/// version 4). The output is validated with [`validate`] before being
/// returned.
///
/// # Panics
///
/// Panics if the writer produced a document [`validate`] rejects — a bug
/// in this module, not a runtime condition.
pub fn to_json(report: &ServeBenchReport, mode: Mode) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("schema").str("mlscore/bench-serving/v1");
    w.key("schema_version").uint(4);
    w.key("mode").str(mode.name());
    w.key("seed").uint(SEED);
    w.key("cpu_seats").uint(CPU_SEATS as u64);
    w.key("gpu_streams").uint(GPU_STREAMS as u64);
    w.key("sweep_queries").uint(report.sweep_queries as u64);
    w.key("sweep").begin_array();
    for point in &report.sweep {
        w.begin_object().key("rate_qps").fixed(point.rate_qps, 3);
        write_pair(&mut w, &point.on, &point.off);
        w.end();
    }
    w.end();
    let fo = &report.fpga_overload;
    w.key("fpga_overload").begin_object();
    w.key("rate_qps").fixed(fo.rate_qps, 3);
    w.key("queries").uint(fo.queries as u64);
    write_pair(&mut w, &fo.on, &fo.off);
    w.end();
    w.end();
    let out = w.finish();
    validate(&out).expect("harness emitted invalid JSON");
    out
}

/// Checks one metrics block (a sweep or overload side): its counts, rates
/// and peak queue depth are non-negative and its per-class attainments lie
/// in `[0, 1]`. Returns the block's `(shed, coalesced_batches)`.
fn validate_side(block: &JsonValue, what: &str) -> Result<(f64, f64), String> {
    for key in [
        "throughput_qps",
        "p99_ms",
        "completed",
        "shed",
        "coalesced_batches",
        "peak_queue_depth",
    ] {
        let v: f64 = block.field(key, what)?;
        if v < 0.0 {
            return Err(format!("{what}: negative \"{key}\" {v}"));
        }
    }
    for key in ["interactive_attainment", "analytical_attainment"] {
        let v: f64 = block.field(key, what)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{what}: \"{key}\" {v} outside [0, 1]"));
        }
    }
    Ok((
        block.field("shed", what)?,
        block.field("coalesced_batches", what)?,
    ))
}

/// Checks that `text` is a well-formed serving report with the effects the
/// experiment exists to demonstrate: coalescing-off sides never merge, at
/// least one coalesced batch, at least one shed request under overload,
/// and FPGA throughput with coalescing on no worse than off at the same
/// offered load.
///
/// Used both as the harness's own self-check and by `repro serve --check`
/// (the CI smoke gate). Returns the sweep point count.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("mlscore/bench-serving/v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    match doc.get("schema_version").and_then(JsonValue::as_f64) {
        Some(v) if v >= 2.0 => {}
        other => return Err(format!("missing or stale schema_version {other:?}")),
    }
    let sweep: &[JsonValue] = doc.field("sweep", "report")?;
    if sweep.is_empty() {
        return Err("\"sweep\" is empty".to_string());
    }
    let fo: &JsonValue = doc.field("fpga_overload", "report")?;
    let mut pairs = vec![(fo, "fpga_overload".to_string())];
    for (i, point) in sweep.iter().enumerate() {
        let what = format!("sweep point {i}");
        point.field::<f64>("rate_qps", &what)?;
        pairs.push((point, what));
    }
    let mut coalesced = 0.0;
    let mut shed = 0.0;
    for (pair, what) in &pairs {
        for side in ["coalesce_on", "coalesce_off"] {
            let block: &JsonValue = pair.field(side, what)?;
            let what = format!("{what} {side}");
            let (side_shed, merged) = validate_side(block, &what)?;
            shed += side_shed;
            if side == "coalesce_on" {
                coalesced += merged;
            } else if merged > 0.0 {
                return Err(format!("{what}: merged batches with coalescing off"));
            }
        }
    }
    let t_on: f64 = fo
        .field::<&JsonValue>("coalesce_on", "fpga_overload")?
        .field("throughput_qps", "fpga_overload on")?;
    let t_off: f64 = fo
        .field::<&JsonValue>("coalesce_off", "fpga_overload")?
        .field("throughput_qps", "fpga_overload off")?;
    if t_on < t_off {
        return Err(format!(
            "fpga_overload: coalescing lowered throughput ({t_on:.3} < {t_off:.3} qps)"
        ));
    }
    if coalesced < 1.0 {
        return Err("no coalesced batch anywhere in the report".to_string());
    }
    if shed < 1.0 {
        return Err(
            "no request was ever shed — the overload points are not overloaded".to_string(),
        );
    }
    Ok(sweep.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_serializes_validates_and_is_deterministic() {
        let report = run(Mode::Quick);
        let json = to_json(&report, Mode::Quick);
        assert_eq!(validate(&json), Ok(2));
        assert!(json.contains("\"schema_version\": 4"));
        // Simulated time: a second run is byte-identical.
        let again = to_json(&run(Mode::Quick), Mode::Quick);
        assert_eq!(json, again);
    }

    #[test]
    fn fpga_overload_shows_the_coalescing_win() {
        let report = run(Mode::Quick);
        let fo = &report.fpga_overload;
        assert!(fo.on.coalesced_batches > 0, "overload must merge batches");
        assert!(fo.on.throughput_qps >= fo.off.throughput_qps);
        assert!(fo.on.shed + fo.off.shed > 0, "overload must shed");
    }

    #[test]
    fn validate_rejects_garbage_and_missing_effects() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"schema\": \"wrong\"}").is_err());
        assert!(
            validate("{\"schema\": \"mlscore/bench-serving/v1\", \"schema_version\": 1}").is_err()
        );
    }

    #[test]
    fn validate_rejects_negative_counts_and_rates_on_every_side() {
        let good = to_json(&run(Mode::Quick), Mode::Quick);
        for key in [
            "throughput_qps",
            "p99_ms",
            "completed",
            "shed",
            "coalesced_batches",
        ] {
            for side in ["coalesce_on", "coalesce_off"] {
                // The first block of a side is a sweep point's, the last
                // the FPGA overload's.
                for last in [false, true] {
                    let bad = negate(&good, side, key, last);
                    assert_ne!(bad, good, "{side} {key} not found");
                    let err = validate(&bad).unwrap_err();
                    assert!(err.contains(&format!("negative \"{key}\"")), "{err}");
                }
            }
        }
    }

    /// Rewrites `"key": v` to `"key": -3` inside the first or last `side`
    /// block of a pretty serving report.
    fn negate(doc: &str, side: &str, key: &str, last: bool) -> String {
        let tag = format!("\"{side}\": {{");
        let at = if last {
            doc.rfind(&tag)
        } else {
            doc.find(&tag)
        };
        let at = at.expect("side block present");
        let key_tag = format!("\"{key}\": ");
        let k = at + doc[at..].find(&key_tag).expect("key present") + key_tag.len();
        let end = k + doc[k..].find([',', '}']).expect("value ends");
        format!("{}-3{}", &doc[..k], &doc[end..])
    }
}

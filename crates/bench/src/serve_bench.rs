//! Serving-engine benchmark (`repro serve`).
//!
//! Sweeps offered load through [`mlscore_serve::ServeEngine`] — the same
//! Poisson workload at each rate, once with micro-batch coalescing on and
//! once with it off — and renders the throughput–latency curves as the
//! serving report (`repro serve --out`; `repro fleet` appends the fleet
//! block and writes `BENCH_serving.json`). A second experiment pins the
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
    ArrivalProcess, ClassSlo, CoalesceConfig, ModelCatalog, QueryClass, QueueConfig, ServeConfig,
    ServeEngine, ServingReport, WorkloadSpec,
};
use mlscore_sim::SimDuration;
use mlscore_telemetry::json::{self, JsonValue, JsonWriter};
use mlscore_telemetry::Tracer;

/// Workload seed shared by every experiment in the report.
pub const SEED: u64 = 42;

/// Executor seats the serving CPU device models (the paper host's 52
/// hardware threads) — pinned so the report does not depend on the
/// machine that generated it.
pub const CPU_SEATS: usize = 52;

/// Concurrent streams on the serving GPU device.
pub const GPU_STREAMS: usize = 4;

/// Options for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchOptions {
    /// Shrink query counts to a CI smoke run.
    pub quick: bool,
}

impl ServeBenchOptions {
    /// Queries per sweep point.
    fn sweep_queries(&self) -> usize {
        if self.quick {
            150
        } else {
            600
        }
    }

    /// Queries in the FPGA overload experiment.
    fn overload_queries(&self) -> usize {
        if self.quick {
            150
        } else {
            500
        }
    }

    /// Offered Poisson rates for the sweep, queries/second.
    fn rates(&self) -> Vec<f64> {
        if self.quick {
            vec![50.0, 2_000.0]
        } else {
            vec![10.0, 50.0, 200.0, 1_000.0, 5_000.0]
        }
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
    /// Requests shed (rejected + dropped + timed out).
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

fn serve_config(coalesce_on: bool, capacity: usize) -> ServeConfig {
    ServeConfig {
        queue: QueueConfig {
            capacity: Some(capacity),
            // Latency SLOs so the report's attainment columns measure
            // something: 50 ms for point lookups, 2 s for full scans.
            // Violations are counted, never enforced — adding the SLOs
            // does not perturb scheduling.
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
        coalesce: if coalesce_on {
            CoalesceConfig::default()
        } else {
            CoalesceConfig::disabled()
        },
        cpu_seats: CPU_SEATS,
        gpu_streams: GPU_STREAMS,
        ..ServeConfig::default()
    }
}

/// The FPGA-only roster of the overload runs (`repro serve`'s comparison
/// and trace, `repro report`): the paper's FPGA engine, alone.
pub fn fpga_roster() -> Vec<Box<dyn ScoringBackend>> {
    vec![Box::new(FpgaBackend::paper_default())]
}

/// Runs one engine configuration against one Poisson workload.
fn run_point(
    backends: Vec<Box<dyn ScoringBackend>>,
    config: ServeConfig,
    rate_qps: f64,
    queries: usize,
) -> ServingReport {
    let engine = ServeEngine::new(backends, ModelCatalog::paper_mix(), config);
    let spec = WorkloadSpec {
        queries,
        seed: SEED,
        arrivals: ArrivalProcess::OpenPoisson { rate_qps },
    };
    engine
        .run(&spec, &Tracer::disabled())
        .expect("sweep workloads are validated by construction")
}

/// Runs the sweep and the FPGA overload experiment, printing one progress
/// line per point.
pub fn run(opts: &ServeBenchOptions) -> ServeBenchReport {
    let queries = opts.sweep_queries();
    let mut sweep = Vec::new();
    for rate_qps in opts.rates() {
        let on = run_point(paper_backends(), serve_config(true, 128), rate_qps, queries);
        let off = run_point(
            paper_backends(),
            serve_config(false, 128),
            rate_qps,
            queries,
        );
        assert!(on.is_conserved() && off.is_conserved(), "lost requests");
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

    let overload_rate = 2_000.0;
    let overload_queries = opts.overload_queries();
    let on = run_point(
        fpga_roster(),
        serve_config(true, 32),
        overload_rate,
        overload_queries,
    );
    let off = run_point(
        fpga_roster(),
        serve_config(false, 32),
        overload_rate,
        overload_queries,
    );
    assert!(on.is_conserved() && off.is_conserved(), "lost requests");
    println!(
        "FPGA overload @ {overload_rate:.0} qps | coalesced {:>7.1} qps ({} merged passes, \
         max batch {}) | solo {:>7.1} qps",
        on.throughput_qps(),
        on.coalesced_batches,
        on.max_batch(),
        off.throughput_qps(),
    );
    ServeBenchReport {
        sweep,
        fpga_overload: FpgaOverload {
            rate_qps: overload_rate,
            queries: overload_queries,
            on: PointMetrics::of(&on),
            off: PointMetrics::of(&off),
        },
        sweep_queries: queries,
    }
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

/// Serializes the report to the `BENCH_serving.json` document.
///
/// With `fleet` present the document is schema v3 and carries the
/// fleet-scale shmoo in a `"fleet"` block; without it the output is the
/// schema-v2 document unchanged, so single-node consumers keep working.
/// The output is validated with [`validate`] before being returned.
///
/// # Panics
///
/// Panics if the writer produced a document [`validate`] rejects — a bug
/// in this module, not a runtime condition.
pub fn to_json(
    report: &ServeBenchReport,
    opts: &ServeBenchOptions,
    fleet: Option<&crate::fleet_bench::FleetBenchReport>,
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("schema").str("mlscore/bench-serving/v1");
    w.key("schema_version")
        .uint(if fleet.is_some() { 3 } else { 2 });
    w.key("mode").str(if opts.quick { "quick" } else { "full" });
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
    if let Some(fleet) = fleet {
        w.key("fleet");
        crate::fleet_bench::write_json(&mut w, fleet);
    }
    w.end();
    let out = w.finish();
    validate(&out).expect("harness emitted invalid JSON");
    out
}

/// Checks the schema-v2 observability block of one metrics object:
/// per-class attainments in `[0, 1]` and a non-negative peak queue depth.
fn validate_observability(block: &JsonValue, what: &str) -> Result<(), String> {
    for key in ["interactive_attainment", "analytical_attainment"] {
        let v: f64 = block.field(key, what)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{what}: \"{key}\" {v} outside [0, 1]"));
        }
    }
    let depth: f64 = block.field("peak_queue_depth", what)?;
    if depth < 0.0 {
        return Err(format!("{what}: negative \"peak_queue_depth\" {depth}"));
    }
    Ok(())
}

/// Checks that `text` is a well-formed serving report with the effects the
/// experiment exists to demonstrate: at least one coalesced batch, at
/// least one shed request under overload, and FPGA throughput with
/// coalescing on no worse than off at the same offered load.
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
    let mut coalesced = 0.0;
    let mut shed = 0.0;
    for (i, point) in sweep.iter().enumerate() {
        point.field::<f64>("rate_qps", &format!("sweep point {i}"))?;
        for side in ["coalesce_on", "coalesce_off"] {
            let block: &JsonValue = point.field(side, &format!("sweep point {i}"))?;
            let what = format!("sweep point {i} {side}");
            block.field::<f64>("throughput_qps", &what)?;
            block.field::<f64>("p99_ms", &what)?;
            block.field::<f64>("completed", &what)?;
            validate_observability(block, &what)?;
            shed += block.field::<f64>("shed", &what)?;
            let merged: f64 = block.field("coalesced_batches", &what)?;
            if side == "coalesce_on" {
                coalesced += merged;
            } else if merged > 0.0 {
                return Err(format!("{what}: merged batches with coalescing off"));
            }
        }
    }
    let fo: &JsonValue = doc.field("fpga_overload", "report")?;
    let on: &JsonValue = fo.field("coalesce_on", "fpga_overload")?;
    let off: &JsonValue = fo.field("coalesce_off", "fpga_overload")?;
    coalesced += on.field::<f64>("coalesced_batches", "fpga_overload on")?;
    validate_observability(on, "fpga_overload on")?;
    validate_observability(off, "fpga_overload off")?;
    shed += on.field::<f64>("shed", "fpga_overload on")?;
    shed += off.field::<f64>("shed", "fpga_overload off")?;
    let t_on: f64 = on.field("throughput_qps", "fpga_overload on")?;
    let t_off: f64 = off.field("throughput_qps", "fpga_overload off")?;
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
    if let Some(fleet) = doc.get("fleet") {
        validate_fleet(fleet)?;
    }
    Ok(sweep.len())
}

/// Checks the schema-v3 `"fleet"` block: a shmoo over at least three
/// router policies × three scenarios, plus the two effects the block
/// exists to demonstrate — consistent-hash routing beats least-loaded on
/// warm-cache interactive attainment and hit rate under a model-release
/// storm, and the autoscaler holds diurnal attainment at or above the
/// static fleet for fewer device-seconds.
fn validate_fleet(fleet: &JsonValue) -> Result<(), String> {
    let cells: &[JsonValue] = fleet.field("cells", "fleet")?;
    let mut policies = std::collections::BTreeSet::new();
    let mut scenarios = std::collections::BTreeSet::new();
    let mut indexed: Vec<(&str, &str, &str, &JsonValue)> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let what = format!("fleet cell {i}");
        let policy: &str = cell.field("policy", &what)?;
        let scale: &str = cell.field("scale", &what)?;
        let scenario: &str = cell.field("scenario", &what)?;
        for key in ["interactive_attainment", "cache_hit_rate"] {
            let v: f64 = cell.field(key, &what)?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{what}: \"{key}\" {v} outside [0, 1]"));
            }
        }
        cell.field::<f64>("throughput_qps", &what)?;
        cell.field::<f64>("device_seconds", &what)?;
        policies.insert(policy);
        scenarios.insert(scenario);
        indexed.push((policy, scale, scenario, cell));
    }
    if policies.len() < 3 || scenarios.len() < 3 {
        return Err(format!(
            "fleet: shmoo too small ({} policies x {} scenarios, need >= 3 x 3)",
            policies.len(),
            scenarios.len()
        ));
    }
    let cell = |policy: &str, scale: &str, scenario: &str| {
        indexed
            .iter()
            .find(|&&(p, s, c, _)| p == policy && s == scale && c == scenario)
            .map(|&(_, _, _, v)| v)
            .ok_or_else(|| format!("fleet: missing cell {policy}/{scale}/{scenario}"))
    };
    let ch = cell("consistent-hash", "static", "model-release-storm")?;
    let ll = cell("least-loaded", "static", "model-release-storm")?;
    let (ch_att, ll_att): (f64, f64) = (
        ch.field("interactive_attainment", "fleet storm ch")?,
        ll.field("interactive_attainment", "fleet storm ll")?,
    );
    let (ch_hit, ll_hit): (f64, f64) = (
        ch.field("cache_hit_rate", "fleet storm ch")?,
        ll.field("cache_hit_rate", "fleet storm ll")?,
    );
    if ch_att < ll_att || ch_hit <= ll_hit {
        return Err(format!(
            "fleet: consistent-hash does not beat least-loaded under the storm \
             (attainment {ch_att:.6} vs {ll_att:.6}, hit rate {ch_hit:.6} vs {ll_hit:.6})"
        ));
    }
    let fixed = cell("consistent-hash", "static", "diurnal")?;
    let scaled = indexed
        .iter()
        .find(|&&(p, s, c, _)| p == "consistent-hash" && s != "static" && c == "diurnal")
        .map(|&(_, _, _, v)| v)
        .ok_or("fleet: missing autoscaled diurnal cell")?;
    let (f_att, s_att): (f64, f64) = (
        fixed.field("interactive_attainment", "fleet diurnal static")?,
        scaled.field("interactive_attainment", "fleet diurnal scaled")?,
    );
    let (f_cost, s_cost): (f64, f64) = (
        fixed.field("device_seconds", "fleet diurnal static")?,
        scaled.field("device_seconds", "fleet diurnal scaled")?,
    );
    if s_att < f_att || s_cost >= f_cost {
        return Err(format!(
            "fleet: autoscaler does not hold the diurnal SLO cheaper than static \
             (attainment {s_att:.6} vs {f_att:.6}, cost {s_cost:.3} vs {f_cost:.3} device-s)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_serializes_validates_and_is_deterministic() {
        let opts = ServeBenchOptions { quick: true };
        let report = run(&opts);
        let json = to_json(&report, &opts, None);
        assert_eq!(validate(&json), Ok(2));
        assert!(json.contains("\"schema_version\": 2"), "no fleet, v2");
        assert!(!json.contains("\"fleet\""));
        // Simulated time: a second run is byte-identical.
        let again = to_json(&run(&opts), &opts, None);
        assert_eq!(json, again);
    }

    #[test]
    fn fpga_overload_shows_the_coalescing_win() {
        let report = run(&ServeBenchOptions { quick: true });
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

    /// A handcrafted fleet block covering 3 policies x 4 scenarios with
    /// tunable effect numbers.
    fn fleet_block(ch_att: f64, ll_att: f64, scaled_att: f64, scaled_cost: f64) -> String {
        let cell = |policy: &str, scale: &str, scenario: &str, att: f64, hit: f64, cost: f64| {
            format!(
                "{{\"policy\": \"{policy}\", \"scale\": \"{scale}\", \"scenario\": \"{scenario}\", \
                 \"interactive_attainment\": {att:.6}, \"cache_hit_rate\": {hit:.6}, \
                 \"throughput_qps\": 800.0, \"device_seconds\": {cost:.3}}}"
            )
        };
        format!(
            "{{\"nodes\": 3, \"cells\": [{}]}}",
            [
                cell(
                    "consistent-hash",
                    "static",
                    "model-release-storm",
                    ch_att,
                    0.9,
                    40.0
                ),
                cell(
                    "least-loaded",
                    "static",
                    "model-release-storm",
                    ll_att,
                    0.5,
                    40.0
                ),
                cell("round-robin", "static", "steady", 0.99, 0.6, 40.0),
                cell("consistent-hash", "static", "flash-crowd", 0.97, 0.8, 40.0),
                cell("consistent-hash", "static", "diurnal", 0.95, 0.8, 60.0),
                cell(
                    "consistent-hash",
                    "queue-depth",
                    "diurnal",
                    scaled_att,
                    0.8,
                    scaled_cost
                ),
            ]
            .join(", ")
        )
    }

    /// Splices a fleet block into a real v2 document, producing a v3 one.
    fn splice_fleet(v2: &str, fleet: &str) -> String {
        let body = v2
            .trim_end()
            .strip_suffix('}')
            .expect("v2 doc ends with the root close")
            .to_string();
        format!(
            "{},\n  \"fleet\": {fleet}\n}}\n",
            body.replace("\"schema_version\": 2", "\"schema_version\": 3")
        )
    }

    #[test]
    fn validate_accepts_v3_fleet_blocks_and_rejects_broken_effects() {
        let opts = ServeBenchOptions { quick: true };
        let v2 = to_json(&run(&opts), &opts, None);

        // Both effects present: valid.
        let good = splice_fleet(&v2, &fleet_block(0.95, 0.80, 0.95, 30.0));
        assert_eq!(validate(&good), Ok(2), "{:?}", validate(&good));

        // Storm effect inverted: consistent-hash loses to least-loaded.
        let bad_storm = splice_fleet(&v2, &fleet_block(0.70, 0.90, 0.95, 30.0));
        let err = validate(&bad_storm).unwrap_err();
        assert!(err.contains("consistent-hash"), "{err}");

        // Autoscaler costs more device-seconds than static provisioning.
        let bad_scale = splice_fleet(&v2, &fleet_block(0.95, 0.80, 0.95, 90.0));
        let err = validate(&bad_scale).unwrap_err();
        assert!(err.contains("autoscaler"), "{err}");

        // Autoscaler drops attainment below the static fleet.
        let bad_att = splice_fleet(&v2, &fleet_block(0.95, 0.80, 0.60, 30.0));
        assert!(validate(&bad_att).is_err());
    }
}

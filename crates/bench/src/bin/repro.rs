//! Regenerates every table and figure from the paper's evaluation section,
//! and exports Perfetto traces of simulated queries.
//!
//! Run `repro --help` for the full target list.

use std::collections::BTreeMap;
use std::process::exit;

use mlscore_backend::{OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_core::{ablations, figures, headline::HeadlineReport, report, shmoo::ShmooTable};
use mlscore_data::DatasetSpec;
use mlscore_forest::{ModelBundle, ModelStats};
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_pipeline::{QueryPipeline, QueryPlan};
use mlscore_sched::{
    evaluate_policy, paper_backends, replay, AffineFitPolicy, HeuristicPolicy, OraclePolicy,
    QueryTrace,
};
use mlscore_sim::SimInstant;
use mlscore_telemetry::{perfetto, Tracer};

use mlscore_bench::Mode;

fn fig1() {
    println!("== Fig. 1: best-performing hardware by model complexity x data size ==");
    for dataset in DatasetSpec::all() {
        let table = ShmooTable::paper_grid(dataset);
        println!();
        for (i, &n) in table.record_counts.iter().enumerate() {
            let row: Vec<String> = table.cells[i]
                .iter()
                .map(|c| format!("{:>4}", c.family()))
                .collect();
            println!("{} {:>9}: {}", dataset.name(), n, row.join(" "));
        }
    }
    println!();
}

fn fig7(label: &str, records: u64, panel: &[figures::Fig7Result]) {
    println!("== Fig. {label}: FPGA scoring-time breakdown ({records} record(s)) ==");
    println!("{}", report::render_fig7(panel));
}

fn fig8() {
    println!("== Fig. 8: best backend + speedup over CPU (depth 10) ==");
    for dataset in DatasetSpec::all() {
        println!("{}", report::render_shmoo(&ShmooTable::paper_grid(dataset)));
    }
}

fn fig9() {
    println!("== Fig. 9: scoring latency ==");
    for panel in figures::fig9_all() {
        println!("{}", report::render_latency(&panel));
    }
}

fn fig10() {
    println!("== Fig. 10: scoring throughput ==");
    for panel in figures::fig9_all() {
        println!("{}", report::render_throughput(&panel));
    }
}

fn fig11() {
    println!("== Fig. 11: end-to-end T-SQL query breakdown ==");
    for (dataset, trees, records) in [
        (DatasetSpec::Iris, 1, 1u64),
        (DatasetSpec::Iris, 128, 1_000_000),
        (DatasetSpec::Higgs, 128, 1_000_000),
    ] {
        println!(
            "{} — {} trees, 10 levels, {} records",
            dataset.name(),
            trees,
            records
        );
        println!(
            "{}",
            report::render_fig11(&figures::fig11(dataset, trees, 10, records))
        );
    }
}

fn headlines() {
    println!("== §IV headline ratios ==");
    println!("{}", HeadlineReport::compute());
    println!();
}

fn scheduler() {
    println!("== Scheduler policy regret (extension A4) ==");
    let backends = paper_backends();
    let mut grid = Vec::new();
    for dataset in DatasetSpec::all() {
        for &trees in &mlscore_core::calibration::TREE_SWEEP {
            let stats = ModelStats::of(&mlscore_core::calibration::paper_model(dataset, trees, 10));
            for &n in &mlscore_core::calibration::RECORD_SWEEP {
                grid.push((stats, n));
            }
        }
    }
    for report in [
        evaluate_policy(&OraclePolicy, &grid, &backends),
        evaluate_policy(&HeuristicPolicy::default(), &grid, &backends),
        evaluate_policy(&AffineFitPolicy::default(), &grid, &backends),
    ] {
        println!(
            "  {:<16} points {:>3}  mispicks {:>3}  agreement {:>5.1}%  worst {:>6.2}x  mean {:>5.2}x",
            report.policy,
            report.points,
            report.mispicks,
            report.agreement() * 100.0,
            report.worst_factor,
            report.mean_factor
        );
    }
    println!();

    // Per-policy latency distributions from a synthetic mixed trace, folded
    // through the shared telemetry histograms (p50/p95/p99 come from the
    // same log-bucketed type every layer records into).
    println!("== Trace replay: latency percentiles (200-query synthetic mix) ==");
    let trace = QueryTrace::synthetic(200, 42);
    let mut picks = BTreeMap::new();
    let mut latencies = BTreeMap::new();
    for outcome in [
        replay(&mut OraclePolicy, &trace, &backends),
        replay(&mut HeuristicPolicy::default(), &trace, &backends),
        replay(&mut AffineFitPolicy::default(), &trace, &backends),
    ] {
        for (backend, n) in &outcome.picks {
            picks.insert(format!("picks.{}.{backend}", outcome.policy), *n);
        }
        latencies.insert(
            format!("latency.{}", outcome.policy),
            outcome.latency_histogram(),
        );
    }
    for (name, n) in &picks {
        println!("counter   {name:<32} {n}");
    }
    for (name, h) in &latencies {
        println!("histogram {name:<32} {h}");
    }
    println!();
}

fn ablations() {
    let or_never = |n: Option<u64>| n.map_or_else(|| "never".to_string(), |n| n.to_string());

    println!("\n--- Ablation A1: PCIe generation sweep (HIGGS, 128 trees, depth 10) ---");
    println!(
        "{:<10} {:>14} {:>14} {:>18}",
        "link", "FPGA @1M", "speedup vs CPU", "crossover (records)"
    );
    for r in ablations::pcie_sweep() {
        println!(
            "{:<10} {:>14} {:>13.1}x {:>18}",
            r.link,
            r.fpga_1m.to_string(),
            r.speedup_vs_cpu,
            or_never(r.crossover)
        );
    }

    println!("\n--- Ablation A2: BRAM vs DDR tree memories ---");
    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "memory", "IRIS 128t", "HIGGS 128t", "HIGGS 1t"
    );
    for r in ablations::fpga_memory() {
        println!(
            "{:<8} {:>12} {:>12} {:>12}",
            r.memory,
            r.iris_128t.to_string(),
            r.higgs_128t.to_string(),
            r.higgs_1t.to_string()
        );
    }
    let q = ablations::quantized_capacity();
    println!("\n    quantized (16-bit) layout vs the Fig. 4b f32 layout:");
    println!(
        "      f32 image {} KiB (padded), quantized {} KiB (live), mismatch rate {:.4}%",
        q.f32_bytes / 1024,
        q.quantized_bytes / 1024,
        q.mismatch_rate * 100.0
    );
    println!("      -> the same 28.6 MB BRAM holds ~2x the trees (or one more tree level)");

    println!("\n--- Ablation A3: GPU mechanism knobs (HIGGS, 128 trees, 1M records) ---");
    let g = ablations::gpu_mechanisms();
    let (rapids, rapids_free) = (g.rapids.total(), g.rapids_divergence_free.total());
    println!(
        "  RAPIDS with divergence {rapids}, divergence-free {rapids_free} ({:.2}x)",
        rapids.ratio(rapids_free)
    );
    println!(
        "  HB with gather-tensor traffic {}, lean {}",
        g.hummingbird.total(),
        g.hummingbird_lean.total()
    );
    println!(
        "  measured lane activity (IRIS capped trees): {:.3}; analytic warp_efficiency(10) = {:.3}",
        g.measured_lane_activity, g.analytic_warp_efficiency
    );

    println!("\n--- Ablation A5: split execution (FPGA first 10 levels + CPU rest) ---");
    println!(
        "{:>6} {:>18} {:>14}",
        "depth", "finished on FPGA", "CPU visits"
    );
    for r in ablations::split_depth() {
        assert!(r.bit_exact, "split scoring diverged at depth {}", r.depth);
        println!(
            "{:>6} {:>17.1}% {:>14}",
            r.depth,
            r.fpga_fraction * 100.0,
            r.cpu_visits
        );
    }

    println!("\n--- Ablation A6: GPU generations (HIGGS, 128 trees, depth 10) ---");
    println!(
        "{:<6} {:>14} {:>14} {:>16} {:>20}",
        "GPU", "HB @1M", "RAPIDS @1M", "best-GPU speedup", "GPU crossover (rec)"
    );
    for r in ablations::gpu_generations() {
        println!(
            "{:<6} {:>14} {:>14} {:>15.1}x {:>20}",
            r.gpu,
            r.hummingbird_1m.to_string(),
            r.rapids_1m.to_string(),
            r.best_speedup,
            or_never(r.crossover)
        );
    }

    println!(
        "\n--- Ablation A7: integration modes (HIGGS, 128 trees, 1M records, FPGA scoring) ---"
    );
    println!(
        "{:<18} {:>14} {:>18} {:>24}",
        "mode", "query total", "scoring fraction", "speedup vs external"
    );
    for r in ablations::integration_modes() {
        println!(
            "{:<18} {:>14} {:>17.1}% {:>23.1}x",
            r.mode,
            r.total.to_string(),
            r.scoring_fraction * 100.0,
            r.speedup_vs_external
        );
    }
}

/// Builds the backend a `repro trace` argument names.
fn backend_by_name(name: &str) -> Option<Box<dyn ScoringBackend>> {
    Some(match name {
        "cpu" | "onnx" => Box::new(OnnxCpu::paper_52th()),
        "onnx1" => Box::new(OnnxCpu::single_thread()),
        "sklearn" => Box::new(SklearnCpu::paper_default()),
        "gpu" | "gpu-hb" | "hummingbird" => Box::new(HummingbirdGpu::p100()),
        "gpu-rapids" | "rapids" | "fil" => Box::new(RapidsFil::p100()),
        "fpga" => Box::new(FpgaBackend::paper_default()),
        _ => return None,
    })
}

/// Parses a record count with optional `k`/`m` suffix (`"250k"`, `"1m"`).
fn parse_count(text: &str) -> Option<u64> {
    let lower = text.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm']) {
        Some(d) if lower.ends_with('k') => (d, 1_000),
        Some(d) => (d, 1_000_000),
        None => (lower.as_str(), 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// One subcommand's command line: what [`Args::parse`] accepts.
struct Grammar {
    /// The synopsis after `usage: repro`, also shown by `repro help`.
    usage: &'static str,
    /// Every flag with how many values it takes (0 for a switch).
    flags: &'static [(&'static str, usize)],
    /// Whether bare arguments are allowed.
    positionals: bool,
}

impl Grammar {
    /// Parses `args`, or prints the error and this usage line and exits 2.
    fn parse(&self, args: &[String]) -> Args {
        Args::parse(self, args).unwrap_or_else(|e| self.fail(&e))
    }

    /// Prints `msg` and this subcommand's usage line, then exits 2.
    fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!("usage: repro {}", self.usage);
        exit(2)
    }
}

/// A parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Each flag given, with its values, in the order given.
    flags: Vec<(&'static str, Vec<String>)>,
    /// Bare arguments in the order given.
    positionals: Vec<String>,
}

impl Args {
    /// Parses `args` against `grammar`. A flag's values are the arguments
    /// that follow it, whatever they look like.
    ///
    /// # Errors
    ///
    /// Returns the message for an unknown flag, a flag short of values, or
    /// a bare argument the grammar does not allow.
    fn parse(grammar: &Grammar, args: &[String]) -> Result<Self, String> {
        let mut parsed = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&(flag, n)) = grammar.flags.iter().find(|(f, _)| f == arg) {
                let values: Vec<String> = it.by_ref().take(n).cloned().collect();
                if values.len() < n {
                    let plural = if n == 1 { "" } else { "s" };
                    return Err(format!("{flag} needs {n} value{plural}"));
                }
                parsed.flags.push((flag, values));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag '{arg}'"));
            } else if grammar.positionals {
                parsed.positionals.push(arg.clone());
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        Ok(parsed)
    }

    /// Where `flag` last appeared, if it did.
    fn last(&self, flag: &str) -> Option<usize> {
        self.flags.iter().rposition(|(f, _)| *f == flag)
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.last(flag).is_some()
    }

    /// The values `flag` took when it last appeared, if it did.
    fn values(&self, flag: &str) -> Option<&[String]> {
        let (_, values) = self.flags.iter().rev().find(|(f, _)| *f == flag)?;
        Some(values)
    }

    /// The value of a one-value `flag`, if it was given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag)?.first().map(String::as_str)
    }

    /// `--quick` picks the CI smoke run.
    fn mode(&self) -> Mode {
        if self.has("--quick") {
            Mode::Quick
        } else {
            Mode::Full
        }
    }
}

/// Reads `path`, or prints why not and exits 1.
fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    })
}

/// Writes `contents` to `path`, or prints why not and exits 1.
fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    });
}

/// Validates the report at `path` as a `kind` report, printing how many
/// `unit`s it holds; an invalid report exits 1.
fn check(path: &str, kind: &str, unit: &str, validate: fn(&str) -> Result<usize, String>) {
    match validate(&read_file(path)) {
        Ok(n) => println!("{path}: valid {kind} report, {n} {unit}"),
        Err(e) => {
            eprintln!("{path}: invalid {kind} report: {e}");
            exit(1);
        }
    }
}

const TRACE: Grammar = Grammar {
    usage: "trace [--out FILE] [--warm|--cold] [--fused] [iris|higgs] [trees] [records] [backend]",
    flags: &[("--out", 1), ("--warm", 0), ("--cold", 0), ("--fused", 0)],
    positionals: true,
};

/// Exports a Perfetto trace of one simulated query (see [`TRACE`]).
fn trace(args: &[String]) {
    let args = TRACE.parse(args);
    let pos =
        |i: usize, default: &'static str| args.positionals.get(i).map_or(default, String::as_str);
    let warm = args.last("--warm") > args.last("--cold");
    let fused = args.has("--fused");
    let dataset = match pos(0, "higgs") {
        "higgs" => DatasetSpec::Higgs,
        "iris" => DatasetSpec::Iris,
        other => TRACE.fail(&format!("unknown dataset '{other}'")),
    };
    let Some(trees) = pos(1, "128").parse().ok().filter(|&t: &usize| t >= 1) else {
        TRACE.fail(&format!("bad tree count '{}' (need >= 1)", pos(1, "")))
    };
    let Some(records) = parse_count(pos(2, "1m")) else {
        TRACE.fail(&format!("bad record count '{}'", pos(2, "")))
    };
    let backend_name = pos(3, "fpga");
    let Some(backend) = backend_by_name(backend_name) else {
        TRACE.fail(&format!(
            "unknown backend '{backend_name}' (backends: cpu sklearn onnx1 gpu gpu-rapids fpga)"
        ))
    };

    let forest = mlscore_core::calibration::paper_model(dataset, trees, 10);
    let stats = ModelStats::of(&forest);
    if let Err(e) = backend.supports(&stats) {
        TRACE.fail(&format!("backend rejects this model: {e}"));
    }
    let bundle = ModelBundle::serialize(&forest);
    let pipeline = QueryPipeline::new(backend);
    let tracer = Tracer::new();
    // Warm queries replay the artifact-cache hit path: no bundle marshal,
    // model pre-processing collapsed to a cache probe, no compile spans.
    // Fused queries replay the in-process streaming path: no Python launch,
    // no marshal, no separate pre-processing — the Fig. 11 breakdown
    // collapses to model prep + per-chunk handoff + scoring + post.
    let plan = if fused {
        QueryPlan::Fused {
            chunk_rows: mlscore_data::DEFAULT_CHUNK_ROWS,
            warm,
        }
    } else {
        QueryPlan::Staged { warm }
    };
    let breakdown = pipeline.estimate(
        plan,
        &stats,
        bundle.len() as u64,
        records,
        &tracer,
        SimInstant::ZERO,
    );
    let span_trace = tracer.take();
    let json = perfetto::to_json(&span_trace);
    let Some(path) = args.value("--out") else {
        println!("{json}");
        return;
    };
    write_file(path, &json);
    println!(
        "wrote {path}: {} spans, {} bytes (open at ui.perfetto.dev)",
        span_trace.len(),
        json.len()
    );
    println!(
        "{} x{} trees, {} records on {} ({}{}): total {}",
        dataset.name(),
        trees,
        records,
        pipeline.backend().name(),
        if warm { "warm" } else { "cold" },
        if fused { ", fused" } else { "" },
        breakdown.total()
    );
    for (stage, d) in breakdown.iter() {
        println!("  {stage:<20} {d}");
    }
}

const BENCH: Grammar = Grammar {
    usage: "bench [--quick] [--out FILE] [--check FILE] [--diff OLD NEW]",
    flags: &[("--quick", 0), ("--out", 1), ("--check", 1), ("--diff", 2)],
    positionals: false,
};

/// Runs the measured CPU scoring sweep ([`mlscore_bench::cpu_bench`]) and
/// writes `BENCH_cpu_scoring.json`. With `--check` it validates an
/// existing report file (the CI smoke gate), and with `--diff` it compares
/// two report files cell by cell and exits 1 when any throughput number
/// regressed beyond [`mlscore_bench::diff::TOLERANCE`].
fn bench(args: &[String]) {
    use mlscore_bench::cpu_bench::{self, CaseResult};
    use mlscore_bench::diff;
    use mlscore_exec::SimdLevel;

    let args = BENCH.parse(args);
    if let Some([old_path, new_path]) = args.values("--diff") {
        let regressions =
            diff::diff(&read_file(old_path), &read_file(new_path)).unwrap_or_else(|e| {
                eprintln!("cannot diff: {e}");
                exit(1)
            });
        if regressions.is_empty() {
            let tolerance = diff::TOLERANCE * 100.0;
            println!("{new_path}: no regressions vs {old_path} (tolerance {tolerance:.0}%)");
            return;
        }
        eprintln!(
            "{new_path}: {} regression(s) vs {old_path}:",
            regressions.len()
        );
        for line in &regressions {
            eprintln!("  {line}");
        }
        exit(1);
    }
    if let Some(path) = args.value("--check") {
        check(path, "benchmark", "case(s)", cpu_bench::validate);
        return;
    }

    let mode = args.mode();
    let out_path = args.value("--out").unwrap_or("BENCH_cpu_scoring.json");
    println!(
        "== Measured CPU scoring sweep ({} mode, simd tier {}) ==",
        mode.name(),
        SimdLevel::detect().name()
    );
    let cases = cpu_bench::run(mode);
    let cache = cpu_bench::run_cache_pair(mode);
    println!(
        "cache {:>5} x{:<3} trees, {:>6} records | cold {:.3}s warm {:.3}s ({:.3}x) | \
         compile {:.2}ms | {} hit(s) {} miss(es)",
        "higgs",
        cache.trees,
        cache.records,
        cache.cold_total_secs,
        cache.warm_total_secs,
        cache.warm_speedup(),
        cache.compile_ms,
        cache.hits,
        cache.misses
    );
    println!("== Fused vs. staged marshaling-tax shmoo ==");
    let fused = cpu_bench::run_fused(mode);
    write_file(out_path, &cpu_bench::to_json(&cases, &cache, &fused, mode));
    let worst = cases
        .iter()
        .map(CaseResult::best_speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "wrote {out_path}: {} cases, worst best-thread speedup {worst:.2}x vs the naive seed path",
        cases.len()
    );
}

const SERVE: Grammar = Grammar {
    usage: "serve [--quick] [--out FILE] [--check FILE] [--trace-out FILE]",
    flags: &[
        ("--quick", 0),
        ("--out", 1),
        ("--check", 1),
        ("--trace-out", 1),
    ],
    positionals: false,
};

/// Runs the serving-engine load sweep ([`mlscore_bench::serve_bench`]) and
/// writes the report to `--out`, if given — `repro serve --out
/// BENCH_serving.json` regenerates the committed file. With `--check` it
/// validates an existing report instead, and `--trace-out` additionally
/// exports a Perfetto timeline of the FPGA overload run (per-device lanes
/// with queue-wait, coalesce, compile, setup/transfer/compute/drain spans).
fn serve(args: &[String]) {
    use mlscore_bench::serve_bench;

    let args = SERVE.parse(args);
    if let Some(path) = args.value("--check") {
        check(path, "serving", "sweep point(s)", serve_bench::validate);
        return;
    }

    let mode = args.mode();
    println!("== Serving-engine load sweep ({} mode) ==", mode.name());
    let report = serve_bench::run(mode);
    if let Some(path) = args.value("--out") {
        write_file(path, &serve_bench::to_json(&report, mode));
        println!(
            "wrote {path}: {} sweep point(s) + FPGA overload comparison",
            report.sweep.len()
        );
    }
    if let Some(path) = args.value("--trace-out") {
        let span_trace = serve_bench::overload_trace(mode);
        write_file(path, &perfetto::to_json(&span_trace));
        println!(
            "wrote {path}: {} spans (open at ui.perfetto.dev)",
            span_trace.len()
        );
    }
}

const REPORT: Grammar = Grammar {
    usage: "report [--quick] [--out FILE]",
    flags: &[("--quick", 0), ("--out", 1)],
    positionals: false,
};

/// Runs the observed FPGA overload workload ([`mlscore_bench::run_report`])
/// and prints the human-readable run report; `--out` additionally writes
/// the JSON document (`mlscore/run-report/v1`), which is byte-identical
/// across reruns — CI regenerates it twice and compares. The document is
/// validated before it is written; an invalid one exits 1 unwritten.
fn report(args: &[String]) {
    use mlscore_bench::run_report::{self, TOP_N};

    let args = REPORT.parse(args);
    let mode = args.mode();
    println!("== Serving run report ({} mode) ==", mode.name());
    let report = run_report::run(mode);
    print!("{}", run_report::to_text(&report, mode));
    if let Some(path) = args.value("--out") {
        let json = run_report::to_json(&report, mode);
        if let Err(e) = run_report::validate(&json) {
            eprintln!("refusing to write {path}: invalid run report: {e}");
            exit(1);
        }
        write_file(path, &json);
        println!(
            "\nwrote {path}: {} window(s), {} alert(s), top-{TOP_N} slowest",
            report.series.len(),
            report.journal.alerts().len(),
        );
    }
}

/// Writes every figure as CSV into the directory named (`figures_out` by
/// default).
fn csv(args: &[String]) {
    let dir = args.first().map_or("figures_out", String::as_str);
    let written =
        mlscore_core::export::save_all(std::path::Path::new(dir)).expect("writing figure CSVs");
    println!("wrote {} CSV files to {dir}/", written.len());
}

/// One `repro` target: `main` runs it with the arguments after its name,
/// and `repro help` prints its synopsis (its name, when it takes no
/// arguments) and help text.
struct Target {
    name: &'static str,
    /// Whether `repro all` runs it: the nine figure targets do.
    in_all: bool,
    synopsis: Option<&'static str>,
    run: fn(&[String]),
    help: &'static str,
}

/// Every target, in `repro help` order.
#[rustfmt::skip]
const TARGETS: &[Target] = &[
    Target { name: "all", in_all: false, synopsis: None,
             run: |_| TARGETS.iter().filter(|t| t.in_all).for_each(|t| (t.run)(&[])),
             help: "every figure, table, and the scheduler study (default)" },
    Target { name: "fig1", in_all: true, synopsis: None, run: |_| fig1(),
             help: "best backend by model complexity x data size" },
    Target { name: "fig7a", in_all: true, synopsis: None,
             run: |_| fig7("7a", 1, &figures::fig7a()),
             help: "FPGA scoring-time breakdown, 1 record" },
    Target { name: "fig7b", in_all: true, synopsis: None,
             run: |_| fig7("7b", 1_000_000, &figures::fig7b()),
             help: "FPGA scoring-time breakdown, 1M records" },
    Target { name: "fig8", in_all: true, synopsis: None, run: |_| fig8(),
             help: "best backend + speedup over CPU (depth 10)" },
    Target { name: "fig9", in_all: true, synopsis: None, run: |_| fig9(),
             help: "scoring latency curves" },
    Target { name: "fig10", in_all: true, synopsis: None, run: |_| fig10(),
             help: "scoring throughput curves" },
    Target { name: "fig11", in_all: true, synopsis: None, run: |_| fig11(),
             help: "end-to-end T-SQL query breakdown" },
    Target { name: "headlines", in_all: true, synopsis: None, run: |_| headlines(),
             help: "headline ratios from the paper's section IV" },
    Target { name: "scheduler", in_all: true, synopsis: None, run: |_| scheduler(),
             help: "policy regret + latency percentiles (telemetry histograms)" },
    Target { name: "ablations", in_all: false, synopsis: None, run: |_| ablations(),
             help: "ablation tables A1-A3, A5-A7 and A10 (PCIe generation,\n\
                    BRAM vs DDR, GPU mechanisms, split execution, GPU\n\
                    generations, integration modes, quantized layout)" },
    Target { name: "trace", in_all: false, synopsis: Some(TRACE.usage), run: trace,
             help: "export a Perfetto trace of one simulated query\n\
                    (defaults: higgs 128 1m fpga, cold; records accept k/m\n\
                    suffixes; backends: cpu sklearn onnx1 gpu gpu-rapids fpga;\n\
                    --warm replays an artifact-cache hit: no bundle marshal,\n\
                    model pre-processing collapsed to a cache probe;\n\
                    --fused replays the pull-based RecordStream path: no\n\
                    inbound marshal or data pre-processing stages, only\n\
                    per-chunk handoff, with per-chunk detail spans)" },
    Target { name: "bench", in_all: false, synopsis: Some(BENCH.usage), run: bench,
             help: "measure real CPU kernel throughput (naive seed path vs\n\
                    the pointer-tree and SIMD flat-image kernels) plus a\n\
                    warm/cold artifact-cache pair and a fused-vs-staged shmoo,\n\
                    and write BENCH_cpu_scoring.json; --check validates an\n\
                    existing report instead; --diff compares two reports\n\
                    cell by cell and exits non-zero on any throughput\n\
                    regression beyond the relative tolerance (25%)" },
    Target { name: "serve", in_all: false, synopsis: Some(SERVE.usage), run: serve,
             help: "sweep offered load through the discrete-event serving\n\
                    engine (admission control, micro-batch coalescing,\n\
                    device contention) with coalescing on vs off, plus an\n\
                    FPGA-only overload comparison; --out writes the\n\
                    report (nothing is written without it; `--out\n\
                    BENCH_serving.json` regenerates the committed file);\n\
                    --check validates an existing report; --trace-out\n\
                    exports a Perfetto timeline of the FPGA overload run\n\
                    (per-device lanes, request flow arrows from queue\n\
                    wait to device pass)" },
    Target { name: "report", in_all: false, synopsis: Some(REPORT.usage), run: report,
             help: "run the observed FPGA overload workload and render\n\
                    the serving run report: windowed metrics, per-class\n\
                    SLO attainment, budget-burn alerts, and the top-N\n\
                    slowest requests with journal stage breakdowns;\n\
                    --out writes the deterministic JSON document" },
    Target { name: "analyze", in_all: false,
             synopsis: Some("analyze [--json] [--callgraph FILE] [--dot FILE] [--root DIR] [--list-lints] [--help]"),
             run: |args| exit(mlscore_analysis::cli::run(args)),
             help: "run the workspace determinism & hot-path lints\n\
                    (mlscore-analyze; see DESIGN.md section 10)" },
    Target { name: "csv", in_all: false, synopsis: Some("csv [dir]"), run: csv,
             help: "write every figure as CSV (default dir: figures_out)" },
    Target { name: "help", in_all: false, synopsis: None, run: |_| println!("{}", usage()),
             help: "this message" },
];

/// The `repro help` text, rendered from [`TARGETS`].
fn usage() -> String {
    let mut text = "usage: repro [target]\ntargets:".to_string();
    for target in TARGETS {
        let synopsis = target.synopsis.unwrap_or(target.name);
        if synopsis.len() < 17 {
            text += &format!("\n{synopsis:<17}{}", target.help);
        } else {
            text += &format!("\n{synopsis}\n{}", target.help);
        }
    }
    text
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = match args.get(1).map_or("all", String::as_str) {
        "--help" | "-h" => "help",
        name => name,
    };
    let Some(target) = TARGETS.iter().find(|t| t.name == name) else {
        eprintln!("unknown target '{name}'");
        eprintln!("{}", usage());
        exit(2)
    };
    (target.run)(args.get(2..).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(grammar: &Grammar, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(grammar, &args)
    }

    #[test]
    fn unknown_flags_are_refused() {
        for grammar in [&TRACE, &BENCH, &SERVE, &REPORT] {
            assert_eq!(
                parse(grammar, &["--bogus"]),
                Err("unknown flag '--bogus'".to_string())
            );
        }
        assert!(parse(&BENCH, &["--tolerance", "0.1"]).is_err());
        assert!(parse(&REPORT, &["--top", "3"]).is_err());
    }

    #[test]
    fn valued_flags_need_every_value() {
        assert_eq!(
            parse(&SERVE, &["--quick", "--out"]),
            Err("--out needs 1 value".to_string())
        );
        assert_eq!(
            parse(&BENCH, &["--diff", "old.json"]),
            Err("--diff needs 2 values".to_string())
        );
        let args = parse(&BENCH, &["--diff", "old.json", "new.json"]).unwrap();
        assert_eq!(
            args.values("--diff"),
            Some(&["old.json".to_string(), "new.json".to_string()][..])
        );
        // A value is taken as given, even when it looks like a flag.
        let args = parse(&TRACE, &["--out", "--warm"]).unwrap();
        assert_eq!(args.value("--out"), Some("--warm"));
        assert!(!args.has("--warm"));
    }

    #[test]
    fn positionals_only_where_the_grammar_allows_them() {
        for grammar in [&BENCH, &SERVE, &REPORT] {
            assert_eq!(
                parse(grammar, &["--quick", "extra"]),
                Err("unexpected argument 'extra'".to_string())
            );
        }
        let args = parse(&TRACE, &["iris", "--fused", "8", "1k"]).unwrap();
        assert_eq!(args.positionals, ["iris", "8", "1k"]);
        assert!(args.has("--fused"));
    }

    #[test]
    fn the_last_of_warm_and_cold_wins() {
        let warm = |args: &[&str]| {
            let args = parse(&TRACE, args).unwrap();
            args.last("--warm") > args.last("--cold")
        };
        assert!(!warm(&[]));
        assert!(warm(&["--warm"]));
        assert!(!warm(&["--cold"]));
        assert!(!warm(&["--warm", "--cold"]));
        assert!(warm(&["--cold", "--warm"]));
    }

    #[test]
    fn a_repeated_valued_flag_keeps_its_last_value() {
        let args = parse(&REPORT, &["--out", "a.json", "--quick", "--out", "b.json"]).unwrap();
        assert_eq!(args.value("--out"), Some("b.json"));
        assert_eq!(args.mode(), Mode::Quick);
        assert_eq!(parse(&REPORT, &[]).unwrap().mode(), Mode::Full);
    }

    #[test]
    fn every_target_name_is_unique_and_all_runs_the_nine_figures() {
        let mut names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TARGETS.len());
        let in_all: Vec<&str> = TARGETS
            .iter()
            .filter(|t| t.in_all)
            .map(|t| t.name)
            .collect();
        assert_eq!(
            in_all,
            [
                "fig1",
                "fig7a",
                "fig7b",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "headlines",
                "scheduler"
            ]
        );
    }
}

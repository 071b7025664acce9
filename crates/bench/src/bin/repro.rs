//! Regenerates every table and figure from the paper's evaluation section,
//! and exports Perfetto traces of simulated queries.
//!
//! Run `repro --help` for the full target list.

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
use mlscore_telemetry::{perfetto, MetricsRegistry, Tracer};

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

fn fig7(records: u64, label: &str) {
    println!("== Fig. {label}: FPGA scoring-time breakdown ({records} record(s)) ==");
    let panel = if records == 1 {
        figures::fig7a()
    } else {
        figures::fig7b()
    };
    println!("{}", report::render_fig7(&panel));
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
    let registry = MetricsRegistry::new();
    for outcome in [
        replay(&mut OraclePolicy, &trace, &backends),
        replay(&mut HeuristicPolicy::default(), &trace, &backends),
        replay(&mut AffineFitPolicy::default(), &trace, &backends),
    ] {
        let name = format!("latency.{}", outcome.policy);
        for &latency in &outcome.latencies {
            registry.record(&name, latency);
        }
        for (backend, n) in &outcome.picks {
            registry.inc_counter(&format!("picks.{}.{backend}", outcome.policy), *n as u64);
        }
    }
    print!("{}", registry.render());
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

/// `repro trace [--out FILE] [--warm|--cold] [--fused] [dataset] [trees] [records] [backend]`
fn trace(args: &[String]) {
    let mut out_path: Option<String> = None;
    let mut warm = false;
    let mut fused = false;
    let mut pos: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            match it.next() {
                Some(path) => out_path = Some(path.clone()),
                None => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            }
        } else if arg == "--warm" {
            warm = true;
        } else if arg == "--cold" {
            warm = false;
        } else if arg == "--fused" {
            fused = true;
        } else {
            pos.push(arg.clone());
        }
    }
    fn fail(msg: String) -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: repro trace [--out FILE] [--warm|--cold] [--fused] [iris|higgs] [trees] [records] [backend]"
        );
        eprintln!("backends: cpu sklearn onnx1 gpu gpu-rapids fpga");
        std::process::exit(2);
    }
    let dataset = match pos.first().map(String::as_str).unwrap_or("higgs") {
        "higgs" => DatasetSpec::Higgs,
        "iris" => DatasetSpec::Iris,
        other => fail(format!("unknown dataset '{other}'")),
    };
    let trees: usize = match pos.get(1).map(String::as_str).unwrap_or("128").parse() {
        Ok(t) if t >= 1 => t,
        _ => fail(format!("bad tree count '{}' (need >= 1)", pos[1])),
    };
    let records = match parse_count(pos.get(2).map(String::as_str).unwrap_or("1m")) {
        Some(n) => n,
        None => fail(format!("bad record count '{}'", pos[2])),
    };
    let backend_name = pos.get(3).map(String::as_str).unwrap_or("fpga");
    let backend = match backend_by_name(backend_name) {
        Some(b) => b,
        None => fail(format!("unknown backend '{backend_name}'")),
    };

    let forest = mlscore_core::calibration::paper_model(dataset, trees, 10);
    let stats = ModelStats::of(&forest);
    if let Err(e) = backend.supports(&stats) {
        fail(format!("backend rejects this model: {e}"));
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
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
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
        None => println!("{json}"),
    }
}

/// `repro bench [--quick] [--out FILE] [--check FILE]
///              [--diff OLD NEW [--tolerance T]]`
///
/// Runs the measured CPU scoring sweep ([`mlscore_bench::cpu_bench`]) and
/// writes `BENCH_cpu_scoring.json`. With `--check` it validates an existing report file (the CI smoke gate),
/// and with `--diff` it compares two report files cell by cell and exits
/// non-zero when any throughput number regressed beyond the relative
/// tolerance.
fn bench(args: &[String]) {
    use mlscore_bench::cpu_bench::{self, BenchOptions, CaseResult};
    use mlscore_bench::diff;
    use mlscore_exec::SimdLevel;

    let mut quick = false;
    let mut out_path = "BENCH_cpu_scoring.json".to_string();
    let mut check: Option<String> = None;
    let mut diff_paths: Option<(String, String)> = None;
    let mut tolerance = diff::DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) => out_path = path.clone(),
                None => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            },
            "--check" => match it.next() {
                Some(path) => check = Some(path.clone()),
                None => {
                    eprintln!("--check needs a file path");
                    std::process::exit(2);
                }
            },
            "--diff" => match (it.next(), it.next()) {
                (Some(old), Some(new)) => diff_paths = Some((old.clone(), new.clone())),
                _ => {
                    eprintln!("--diff needs two file paths (old new)");
                    std::process::exit(2);
                }
            },
            "--tolerance" => match it.next().map(|t| t.parse::<f64>()) {
                Some(Ok(t)) => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a fraction in [0, 1)");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown bench flag '{other}'");
                eprintln!(
                    "usage: repro bench [--quick] \
                     [--out FILE] [--check FILE] [--diff OLD NEW [--tolerance T]]"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some((old_path, new_path)) = diff_paths {
        let read = |path: &str| {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            })
        };
        let (old_text, new_text) = (read(&old_path), read(&new_path));
        match diff::diff(&old_text, &new_text, tolerance) {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "{new_path}: no regressions vs {old_path} \
                     (tolerance {:.0}%)",
                    tolerance * 100.0
                );
            }
            Ok(regressions) => {
                eprintln!(
                    "{new_path}: {} regression(s) vs {old_path}:",
                    regressions.len()
                );
                for line in &regressions {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("cannot diff: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        match cpu_bench::validate(&text) {
            Ok(n) => println!("{path}: valid benchmark report, {n} case(s)"),
            Err(e) => {
                eprintln!("{path}: invalid benchmark report: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let opts = BenchOptions { quick };
    println!(
        "== Measured CPU scoring sweep ({} mode, simd tier {}) ==",
        if quick { "quick" } else { "full" },
        SimdLevel::detect().name()
    );
    let cases = cpu_bench::run(&opts);
    let cache = cpu_bench::run_cache_pair(&opts);
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
    let fused = cpu_bench::run_fused(&opts);
    let json = cpu_bench::to_json(&cases, &cache, &fused, &opts);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    let worst = cases
        .iter()
        .map(CaseResult::best_speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "wrote {out_path}: {} cases, worst best-thread speedup {worst:.2}x vs the naive seed path",
        cases.len()
    );
}

/// `repro serve [--quick] [--out FILE] [--check FILE] [--trace-out FILE]`
///
/// Runs the serving-engine load sweep ([`mlscore_bench::serve_bench`]) and
/// writes the report to `--out`, if given — `repro serve --out
/// BENCH_serving.json` regenerates the committed file. With `--check` it
/// validates an existing report instead, and
/// `--trace-out` additionally exports a Perfetto timeline of the FPGA
/// overload run (per-device lanes with queue-wait, coalesce, compile,
/// setup/transfer/compute/drain spans).
fn serve(args: &[String]) {
    use mlscore_bench::serve_bench::{self, ServeBenchOptions};
    use mlscore_serve::{
        ArrivalProcess, CoalesceConfig, ModelCatalog, QueueConfig, ServeConfig, ServeEngine,
        WorkloadSpec,
    };

    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut check: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) => out_path = Some(path.clone()),
                None => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            },
            "--check" => match it.next() {
                Some(path) => check = Some(path.clone()),
                None => {
                    eprintln!("--check needs a file path");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path.clone()),
                None => {
                    eprintln!("--trace-out needs a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown serve flag '{other}'");
                eprintln!(
                    "usage: repro serve [--quick] [--out FILE] [--check FILE] [--trace-out FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        match serve_bench::validate(&text) {
            Ok(n) => println!("{path}: valid serving report, {n} sweep point(s)"),
            Err(e) => {
                eprintln!("{path}: invalid serving report: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "== Serving-engine load sweep ({} mode) ==",
        if quick { "quick" } else { "full" }
    );
    let opts = ServeBenchOptions { quick };
    let report = serve_bench::run(&opts);
    let json = serve_bench::to_json(&report, &opts);
    if let Some(out_path) = out_path {
        std::fs::write(&out_path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        });
        println!(
            "wrote {out_path}: {} sweep point(s) + FPGA overload comparison",
            report.sweep.len()
        );
    }

    if let Some(path) = trace_out {
        // A traced rerun of the FPGA overload point: the interesting
        // timeline (queue build-up, merged passes, shed requests).
        let engine = ServeEngine::new(
            serve_bench::fpga_roster(),
            ModelCatalog::paper_mix(),
            ServeConfig {
                queue: QueueConfig {
                    capacity: Some(32),
                    ..QueueConfig::default()
                },
                coalesce: CoalesceConfig::default(),
                cpu_seats: serve_bench::CPU_SEATS,
                gpu_streams: serve_bench::GPU_STREAMS,
                ..ServeConfig::default()
            },
        );
        let tracer = Tracer::new();
        engine
            .run(
                &WorkloadSpec {
                    queries: if quick { 150 } else { 500 },
                    seed: serve_bench::SEED,
                    arrivals: ArrivalProcess::OpenPoisson { rate_qps: 2_000.0 },
                },
                &tracer,
            )
            .expect("the overload trace workload is a fixed valid spec");
        let span_trace = tracer.take();
        let trace_json = perfetto::to_json(&span_trace);
        std::fs::write(&path, &trace_json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "wrote {path}: {} spans (open at ui.perfetto.dev)",
            span_trace.len()
        );
    }
}

/// `repro report [--quick] [--out FILE] [--top N]`
///
/// Runs the observed FPGA overload workload ([`mlscore_bench::run_report`])
/// and prints the human-readable run report; `--out` additionally writes
/// the JSON document (`mlscore/run-report/v1`), which is byte-identical
/// across reruns — CI regenerates it twice and compares.
fn report(args: &[String]) {
    use mlscore_bench::run_report::{self, RunReportOptions};

    let mut opts = RunReportOptions::default();
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => match it.next() {
                Some(path) => out_path = Some(path.clone()),
                None => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            },
            "--top" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.top_n = n,
                _ => {
                    eprintln!("--top needs a positive integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown report flag '{other}'");
                eprintln!("usage: repro report [--quick] [--out FILE] [--top N]");
                std::process::exit(2);
            }
        }
    }

    println!(
        "== Serving run report ({} mode) ==",
        if opts.quick { "quick" } else { "full" }
    );
    let report = run_report::run(&opts);
    print!("{}", run_report::to_text(&report, &opts));
    if let Some(path) = out_path {
        let json = run_report::to_json(&report, &opts);
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "\nwrote {path}: {} window(s), {} alert(s), top-{} slowest",
            report.series.len(),
            report.alerts.len(),
            opts.top_n
        );
    }
}

fn usage() -> String {
    "usage: repro [target]\n\
     targets:\n\
       all              every figure, table, and the scheduler study (default)\n\
       fig1             best backend by model complexity x data size\n\
       fig7a            FPGA scoring-time breakdown, 1 record\n\
       fig7b            FPGA scoring-time breakdown, 1M records\n\
       fig8             best backend + speedup over CPU (depth 10)\n\
       fig9             scoring latency curves\n\
       fig10            scoring throughput curves\n\
       fig11            end-to-end T-SQL query breakdown\n\
       headlines        headline ratios from the paper's section IV\n\
       scheduler        policy regret + latency percentiles (telemetry histograms)\n\
       ablations        ablation tables A1-A3, A5-A7 and A10 (PCIe generation,\n\
                        BRAM vs DDR, GPU mechanisms, split execution, GPU\n\
                        generations, integration modes, quantized layout)\n\
       trace [--out FILE] [--warm|--cold] [--fused] [iris|higgs] [trees] [records] [backend]\n\
                        export a Perfetto trace of one simulated query\n\
                        (defaults: higgs 128 1m fpga, cold; records accept k/m\n\
                         suffixes; backends: cpu sklearn onnx1 gpu gpu-rapids fpga;\n\
                         --warm replays an artifact-cache hit: no bundle marshal,\n\
                         model pre-processing collapsed to a cache probe;\n\
                         --fused replays the pull-based RecordStream path: no\n\
                         inbound marshal or data pre-processing stages, only\n\
                         per-chunk handoff, with per-chunk detail spans)\n\
       bench [--quick] [--out FILE] [--check FILE] [--diff OLD NEW [--tolerance T]]\n\
                        measure real CPU kernel throughput (naive seed path vs\n\
                        the pointer-tree and SIMD flat-image kernels) plus a\n\
                        warm/cold artifact-cache pair and a fused-vs-staged shmoo,\n\
                        and write BENCH_cpu_scoring.json; --check validates an\n\
                        existing report instead; --diff compares two reports\n\
                        cell by cell and exits non-zero on any throughput\n\
                        regression beyond the relative tolerance (default 25%)\n\
       serve [--quick] [--out FILE] [--check FILE] [--trace-out FILE]\n\
                        sweep offered load through the discrete-event serving\n\
                        engine (admission control, micro-batch coalescing,\n\
                        device contention) with coalescing on vs off, plus an\n\
                        FPGA-only overload comparison; --out writes the\n\
                        report (nothing is written without it; `--out\n\
                        BENCH_serving.json` regenerates the committed file);\n\
                        --check validates an existing report; --trace-out\n\
                        exports a Perfetto timeline of the FPGA overload run\n\
                        (per-device lanes, request flow arrows from queue\n\
                        wait to device pass)\n\
       report [--quick] [--out FILE] [--top N]\n\
                        run the observed FPGA overload workload and render\n\
                        the serving run report: windowed metrics, per-class\n\
                        SLO attainment, budget-burn alerts, and the top-N\n\
                        slowest requests with journal stage breakdowns;\n\
                        --out writes the deterministic JSON document\n\
       analyze [--json] [--check-baseline] [--write-baseline]\n\
                        run the workspace determinism & hot-path lints\n\
                        (mlscore-analyze; see DESIGN.md section 10)\n\
       csv [dir]        write every figure as CSV (default dir: figures_out)\n\
       help             this message"
        .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let what = args.get(1).map(String::as_str).unwrap_or("all");
    match what {
        "fig1" => fig1(),
        "fig7a" => fig7(1, "7a"),
        "fig7b" => fig7(1_000_000, "7b"),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "headlines" => headlines(),
        "scheduler" => scheduler(),
        "ablations" => ablations(),
        "trace" => trace(&args[2..]),
        "bench" => bench(&args[2..]),
        "serve" => serve(&args[2..]),
        "report" => report(&args[2..]),
        "analyze" => std::process::exit(mlscore_analysis::cli::run(&args[2..])),
        "csv" => {
            let dir = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| "figures_out".to_string());
            let written = mlscore_core::export::save_all(std::path::Path::new(&dir))
                .expect("writing figure CSVs");
            println!("wrote {} CSV files to {dir}/", written.len());
        }
        "all" => {
            fig1();
            fig7(1, "7a");
            fig7(1_000_000, "7b");
            fig8();
            fig9();
            fig10();
            fig11();
            headlines();
            scheduler();
        }
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => {
            eprintln!("unknown target '{other}'");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

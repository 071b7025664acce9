//! Wall-clock CPU scoring benchmark trajectory (`repro bench`).
//!
//! Unlike the figure targets, which replay the *modelled* timing, this
//! harness measures the library's real execution engines with
//! `std::time::Instant` and writes the results to `BENCH_cpu_scoring.json`
//! so every future PR has a throughput trajectory to beat.
//!
//! The sweep covers {iris, higgs-like} × {8, 128 trees} × {10k, 100k
//! records} × {1, 4, host threads}, comparing executions of the same model
//! over the same frame:
//!
//! * **naive** — [`RandomForest::predict_batch`], the growth seed's
//!   per-record path: record-major pointer-tree traversal with a fresh
//!   vote buffer allocated for every record.
//! * **forest** — the blocked pointer-tree kernel
//!   ([`score_forest_batch`], what the scikit-learn-like backend runs).
//! * **simd** — the SIMD lane walker over a [`FlatImage`]
//!   ([`score_simd_batch`], what the ONNX-like backend runs) at the
//!   detected [`SimdLevel`].
//!
//! Both executor kernels run on the block-cursor [`ExecPool`], tiling
//! records × trees with per-thread reusable scratch, and every measurement
//! is asserted bit-exact against the naive reference before its
//! throughput is reported. The emitted JSON is
//! round-tripped through [`mlscore_telemetry::json::parse`] before it is
//! handed back, so a malformed report can never be written to disk.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mlscore_backend::{compile, ArtifactCache, CacheOutcome, OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_data::{Dataset, FrameScanner, NormParams, NormalizeStream, RecordStream};
use mlscore_exec::{
    kernel, pool::default_threads, score_forest_batch, score_simd_batch, ExecPool, FlatImage,
    RunConfig, SimdLevel,
};
use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};
use mlscore_pipeline::{QueryPipeline, QueryPlan, Records};
use mlscore_sim::{SimInstant, Stage};
use mlscore_telemetry::json::{self, JsonValue, JsonWriter};
use mlscore_telemetry::Tracer;

use crate::Mode;

/// Tree depth used throughout the sweep (the paper's evaluation depth).
pub const SWEEP_DEPTH: usize = 10;

/// Record counts for the sweep.
fn record_counts(mode: Mode) -> [usize; 2] {
    match mode {
        Mode::Quick => [500, 2_000],
        Mode::Full => [10_000, 100_000],
    }
}

/// Timed iterations per measurement (the minimum is kept).
fn iters(mode: Mode) -> usize {
    match mode {
        Mode::Quick => 1,
        Mode::Full => 3,
    }
}

/// Per-kernel throughput at one worker count.
#[derive(Debug, Clone, Copy)]
pub struct ThreadRun {
    /// Worker count the executor ran with.
    pub threads: usize,
    /// Blocked pointer-tree kernel throughput, records/second.
    pub forest_rps: f64,
    /// Explicit-SIMD lane walker throughput at the detected tier,
    /// records/second.
    pub simd_rps: f64,
    /// Best measured kernel over the naive seed path:
    /// `max(forest, simd) / naive_rps`.
    pub speedup: f64,
    /// Whether every measured kernel reproduced the naive predictions
    /// exactly.
    pub bit_exact: bool,
}

/// One (dataset, forest size, record count) cell of the sweep.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Dataset name (`"iris"` / `"higgs"`).
    pub dataset: String,
    /// Trees in the forest.
    pub trees: usize,
    /// Tree depth.
    pub depth: usize,
    /// Records scored per call.
    pub records: usize,
    /// Seed-style per-record path throughput, records/second.
    pub naive_rps: f64,
    /// Per-kernel results, one per thread count.
    pub runs: Vec<ThreadRun>,
}

impl CaseResult {
    /// The best measured speedup over the naive path across thread counts.
    pub fn best_speedup(&self) -> f64 {
        self.runs.iter().map(|r| r.speedup).fold(0.0, f64::max)
    }
}

/// Warm-vs-cold artifact-cache measurement over the end-to-end pipeline:
/// the same HIGGS-scale bundle executed twice through a cached
/// [`QueryPipeline`], once compiling (miss) and once cache-resident (hit).
#[derive(Debug, Clone)]
pub struct CacheBench {
    /// Backend the pair ran on.
    pub backend: String,
    /// Trees in the model.
    pub trees: usize,
    /// Tree depth.
    pub depth: usize,
    /// Records per query.
    pub records: usize,
    /// Simulated end-to-end total of the cold (cache-miss) query, seconds.
    pub cold_total_secs: f64,
    /// Simulated end-to-end total of the warm (cache-hit) query, seconds.
    pub warm_total_secs: f64,
    /// Measured wall-clock of one compile pass (deserialize + lower), ms.
    pub compile_ms: f64,
    /// Cache hit count after the pair.
    pub hits: u64,
    /// Cache miss count after the pair.
    pub misses: u64,
}

impl CacheBench {
    /// End-to-end warm speedup: cold total over warm total.
    pub fn warm_speedup(&self) -> f64 {
        self.cold_total_secs / self.warm_total_secs.max(1e-12)
    }
}

/// Runs the warm/cold pair: one cold query that compiles and caches the
/// model, one warm query that hits the artifact cache, both checked for
/// identical predictions.
///
/// # Panics
///
/// Panics if the cold query is not a miss, the warm query is not a hit, or
/// the two disagree on predictions — any of which is a cache bug.
pub fn run_cache_pair(mode: Mode) -> CacheBench {
    let records = record_counts(mode)[1];
    let data = Dataset::higgs(records, 3).normalized();
    let forest = RandomForest::synthetic_full(
        &ForestConfig::classification(128, 28, 2).with_depth(SWEEP_DEPTH),
        7,
    );
    let bundle = ModelBundle::serialize(&forest);
    let backend = OnnxCpu::single_thread();
    // Measure the compile wall-clock on its own, so the number is not
    // entangled with the pipeline's scoring work.
    let (_, timing) = mlscore_backend::compile_timed(&backend, &bundle).expect("compile");
    let compile_ms = (timing.deserialize + timing.lower).as_millis();

    let cache = Arc::new(ArtifactCache::new(4));
    let pipeline = QueryPipeline::new(backend).with_cache(Arc::clone(&cache));
    let query = || {
        let records = Records::Staged(data.frame());
        pipeline.execute(&bundle, records, &Tracer::disabled(), SimInstant::ZERO)
    };
    let cold = query().expect("cold query");
    let warm = query().expect("warm query");
    assert_eq!(cold.cache, CacheOutcome::Miss, "first query must compile");
    assert_eq!(warm.cache, CacheOutcome::Hit, "second query must hit");
    assert_eq!(
        warm.predictions, cold.predictions,
        "warm path changed results"
    );
    let stats = cache.stats();
    CacheBench {
        backend: pipeline.backend().name().to_string(),
        trees: 128,
        depth: SWEEP_DEPTH,
        records,
        cold_total_secs: cold.total().as_secs(),
        warm_total_secs: warm.total().as_secs(),
        compile_ms,
        hits: stats.hits,
        misses: stats.misses,
    }
}

/// Chunk sizes (rows) the fused shmoo sweeps: the L2-sized default and an
/// L3-sized variant that shows the handoff tax shrinking with chunk count.
pub const FUSED_CHUNK_SWEEP: [usize; 2] = [512, 4_096];

/// One cell of the fused-vs-staged marshaling-tax shmoo: the same raw
/// HIGGS-scale frame scored twice on a warm (cache-resident) model — once
/// over the staged path (materialize a normalized copy, hand the whole
/// batch over) and once over the fused [`RecordStream`] path
/// ([`NormalizeStream`] over a [`FrameScanner`] feeding
/// [`ScoringBackend::score`]).
///
/// [`RecordStream`]: mlscore_data::RecordStream
#[derive(Debug, Clone)]
pub struct FusedCell {
    /// Backend the pair ran on.
    pub backend: String,
    /// Trees in the model.
    pub trees: usize,
    /// Tree depth.
    pub depth: usize,
    /// Records scored per query.
    pub records: usize,
    /// Rows per pulled chunk.
    pub chunk_rows: usize,
    /// Chunks the fused pass actually pulled.
    pub n_chunks: usize,
    /// Modelled staged marshal tax (warm): inbound data transfer plus the
    /// separate data-pre-processing stage, seconds.
    pub staged_tax_secs: f64,
    /// Modelled fused tax (warm): per-chunk handoff only, seconds.
    pub fused_tax_secs: f64,
    /// Fraction of the staged tax the fused path eliminates,
    /// `1 - fused/staged`.
    pub eliminated_frac: f64,
    /// Measured wall-clock of the staged path (fit + materialize the
    /// normalized copy, then one whole-batch scoring call), seconds.
    pub staged_wall_secs: f64,
    /// Measured wall-clock of the fused path (fit, then stream normalized
    /// chunks straight into the kernel), seconds.
    pub fused_wall_secs: f64,
    /// Whether the fused predictions matched the staged predictions
    /// exactly.
    pub bit_exact: bool,
}

/// Runs `f` once as warmup, then `iters` timed passes, keeping the
/// fastest. Returns seconds.
fn measure_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = Duration::MAX;
    for _ in 0..iters.max(1) {
        // analyze: allow(D001, reason="this IS the benchmark: measuring host scoring wall clock is the point")
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best.as_secs_f64()
}

/// Measures the fused-vs-staged cells for one backend: every record count
/// in `record_counts` crossed with [`FUSED_CHUNK_SWEEP`], on the sweep's
/// 128-tree depth-10 HIGGS model, checked bit-exact before timing.
fn fused_cells_for<B: ScoringBackend>(
    backend: B,
    bundle: &ModelBundle,
    record_counts: &[usize],
    iters: usize,
) -> Vec<FusedCell> {
    let pipeline = QueryPipeline::new(backend);
    let model = compile(pipeline.backend(), bundle).expect("compile");
    let model_bytes = model.model_bytes() as u64;
    let score = |stream: &mut dyn RecordStream| {
        let bound = model
            .bind(pipeline.backend().name(), stream.n_features())
            .expect("compiled for this backend");
        pipeline
            .backend()
            .score(bound, stream, &Tracer::disabled(), SimInstant::ZERO)
            .expect("scoring")
    };
    let mut cells = Vec::new();
    for &records in record_counts {
        let raw = Dataset::higgs(records, 3);
        let frame = raw.frame();
        // The staged reference: fit + materialize the normalized copy,
        // then score the whole batch as one chunk.
        let staged_preds = score(&mut FrameScanner::whole(&frame.normalized())).predictions;
        for chunk_rows in FUSED_CHUNK_SWEEP {
            let mut stream =
                NormalizeStream::new(FrameScanner::new(frame, chunk_rows), NormParams::fit(frame));
            let out = score(&mut stream);
            let bit_exact = out.predictions == staged_preds && out.rows == records;
            let n_chunks = out.chunks.len();

            let staged_wall = measure_secs(iters, || {
                let out = score(&mut FrameScanner::whole(&frame.normalized()));
                std::hint::black_box(&out);
            });
            let fused_wall = measure_secs(iters, || {
                let mut stream = NormalizeStream::new(
                    FrameScanner::new(frame, chunk_rows),
                    NormParams::fit(frame),
                );
                let out = score(&mut stream);
                std::hint::black_box(&out);
            });

            // Modelled warm-path tax on each side: the model is
            // cache-resident in both, so the difference is pure data
            // movement (Fig. 11's marshal + pre-processing stages).
            let estimate = |plan| {
                let (stats, n) = (model.stats(), records as u64);
                pipeline.estimate(
                    plan,
                    stats,
                    model_bytes,
                    n,
                    &Tracer::disabled(),
                    SimInstant::ZERO,
                )
            };
            let staged = estimate(QueryPlan::Staged { warm: true });
            let fused = estimate(QueryPlan::Fused {
                chunk_rows,
                warm: true,
            });
            let staged_tax =
                (staged.get(Stage::DataTransfer) + staged.get(Stage::DataPreprocessing)).as_secs();
            let fused_tax =
                (fused.get(Stage::DataTransfer) + fused.get(Stage::DataPreprocessing)).as_secs();
            cells.push(FusedCell {
                backend: pipeline.backend().name().to_string(),
                trees: 128,
                depth: SWEEP_DEPTH,
                records,
                chunk_rows,
                n_chunks,
                staged_tax_secs: staged_tax,
                fused_tax_secs: fused_tax,
                eliminated_frac: 1.0 - fused_tax / staged_tax.max(1e-12),
                staged_wall_secs: staged_wall,
                fused_wall_secs: fused_wall,
                bit_exact,
            });
        }
    }
    cells
}

/// Runs the fused-vs-staged shmoo across both CPU backends, printing one
/// progress line per cell.
pub fn run_fused(mode: Mode) -> Vec<FusedCell> {
    let forest = RandomForest::synthetic_full(
        &ForestConfig::classification(128, 28, 2).with_depth(SWEEP_DEPTH),
        7,
    );
    let bundle = ModelBundle::serialize(&forest);
    let counts = record_counts(mode);
    let iters = iters(mode);
    let mut cells = fused_cells_for(
        SklearnCpu::with_threads(default_threads()),
        &bundle,
        &counts,
        iters,
    );
    cells.extend(fused_cells_for(
        OnnxCpu::with_threads(default_threads()),
        &bundle,
        &counts,
        iters,
    ));
    for cell in &cells {
        println!(
            "fused {:>16} | {:>6} records / {:>4}-row chunks ({:>3} pulls) | \
             tax {:>9.3}ms -> {:>7.3}ms ({:.2}% eliminated) | \
             wall {:>8.3}ms -> {:>8.3}ms{}",
            cell.backend,
            cell.records,
            cell.chunk_rows,
            cell.n_chunks,
            cell.staged_tax_secs * 1e3,
            cell.fused_tax_secs * 1e3,
            cell.eliminated_frac * 100.0,
            cell.staged_wall_secs * 1e3,
            cell.fused_wall_secs * 1e3,
            if cell.bit_exact { "" } else { "  MISMATCH" }
        );
    }
    cells
}

/// Runs `f` once as warmup, then `iters` timed passes, keeping the
/// fastest. Returns records/second.
fn measure_rps(records: usize, iters: usize, f: impl FnMut()) -> f64 {
    records as f64 / measure_secs(iters, f).max(1e-12)
}

/// Thread counts for the sweep: `{1, 4, host}` with duplicates removed.
fn thread_sweep() -> Vec<usize> {
    let mut counts = vec![1, 4, default_threads()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Measures one sweep cell.
fn run_case(name: &str, trees: usize, records: usize, mode: Mode) -> CaseResult {
    let (data, n_features, n_classes) = match name {
        "iris" => (Dataset::iris(records, 3).normalized(), 4, 3),
        _ => (Dataset::higgs(records, 3).normalized(), 28, 2),
    };
    let forest = RandomForest::synthetic_full(
        &ForestConfig::classification(trees, n_features, n_classes).with_depth(SWEEP_DEPTH),
        7,
    );
    let image = FlatImage::from_forest(&forest, forest.max_depth()).expect("flat image");
    let frame = data.frame();
    let iters = iters(mode);
    let level = SimdLevel::detect();

    let reference = forest.predict_batch(frame.as_slice());
    let naive_rps = measure_rps(records, iters, || {
        let preds = forest.predict_batch(frame.as_slice());
        std::hint::black_box(&preds);
    });

    let mut runs = Vec::new();
    for threads in thread_sweep() {
        // A dedicated pool sized to the requested width, so the sharding is
        // real even when the host has fewer cores than the sweep point.
        let pool = ExecPool::new(threads);
        let cfg = RunConfig::for_threads(threads);
        let (forest_preds, _) = score_forest_batch(&forest, frame, &pool, &cfg);
        let (simd_preds, _) = score_simd_batch(&image, frame, &pool, &cfg, level);
        let bit_exact = forest_preds == reference && simd_preds == reference;
        let forest_rps = measure_rps(records, iters, || {
            let out = score_forest_batch(&forest, frame, &pool, &cfg);
            std::hint::black_box(&out);
        });
        let simd_rps = measure_rps(records, iters, || {
            let out = score_simd_batch(&image, frame, &pool, &cfg, level);
            std::hint::black_box(&out);
        });
        runs.push(ThreadRun {
            threads,
            forest_rps,
            simd_rps,
            speedup: forest_rps.max(simd_rps) / naive_rps,
            bit_exact,
        });
    }

    CaseResult {
        dataset: name.to_string(),
        trees,
        depth: SWEEP_DEPTH,
        records,
        naive_rps,
        runs,
    }
}

/// Runs the full sweep, printing one progress line per cell.
pub fn run(mode: Mode) -> Vec<CaseResult> {
    let mut cases = Vec::new();
    for dataset in ["iris", "higgs"] {
        for trees in [8usize, 128] {
            for records in record_counts(mode) {
                let case = run_case(dataset, trees, records, mode);
                let best = case
                    .runs
                    .iter()
                    .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
                    .expect("at least one thread count");
                println!(
                    "{:>5} x{:<3} trees, {:>6} records | naive {:>10.0} rec/s | \
                     best {:>10.0} rec/s ({}th, {:.2}x){}",
                    case.dataset,
                    case.trees,
                    case.records,
                    case.naive_rps,
                    best.forest_rps.max(best.simd_rps),
                    best.threads,
                    best.speedup,
                    if case.runs.iter().all(|r| r.bit_exact) {
                        ""
                    } else {
                        "  MISMATCH"
                    }
                );
                cases.push(case);
            }
        }
    }
    cases
}

/// Serializes sweep results to the `BENCH_cpu_scoring.json` document.
///
/// Throughputs and cache-pair numbers carry three decimals; the fused
/// cells' seconds carry nine, since their handoff taxes are hundreds of
/// microseconds. The output is validated with [`validate`] before being
/// returned.
///
/// # Panics
///
/// Panics if the writer produced a document the shared JSON parser
/// rejects — that would be a bug in this module, not a runtime condition.
pub fn to_json(
    cases: &[CaseResult],
    cache: &CacheBench,
    fused: &[FusedCell],
    mode: Mode,
) -> String {
    let cfg = RunConfig::default();
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("schema").str("mlscore/bench-cpu-scoring/v1");
    w.key("schema_version").uint(5);
    w.key("mode").str(mode.name());
    w.key("simd_level").str(SimdLevel::detect().name());
    w.key("host_threads").uint(default_threads() as u64);
    w.key("record_block").uint(cfg.record_block as u64);
    w.key("tree_block").uint(cfg.tree_block as u64);
    w.key("lanes").uint(kernel::LANES as u64);
    w.key("cache").begin_object();
    w.key("backend").str(&cache.backend);
    w.key("trees").uint(cache.trees as u64);
    w.key("depth").uint(cache.depth as u64);
    w.key("records").uint(cache.records as u64);
    w.key("cold_total_secs").fixed(cache.cold_total_secs, 3);
    w.key("warm_total_secs").fixed(cache.warm_total_secs, 3);
    w.key("warm_speedup").fixed(cache.warm_speedup(), 3);
    w.key("compile_ms").fixed(cache.compile_ms, 3);
    w.key("hits").uint(cache.hits);
    w.key("misses").uint(cache.misses);
    w.end();
    w.key("fused").begin_object().key("cells").begin_array();
    for cell in fused {
        w.begin_object();
        w.key("backend").str(&cell.backend);
        w.key("trees").uint(cell.trees as u64);
        w.key("depth").uint(cell.depth as u64);
        w.key("records").uint(cell.records as u64);
        w.key("chunk_rows").uint(cell.chunk_rows as u64);
        w.key("n_chunks").uint(cell.n_chunks as u64);
        w.key("staged_tax_secs").fixed(cell.staged_tax_secs, 9);
        w.key("fused_tax_secs").fixed(cell.fused_tax_secs, 9);
        w.key("eliminated_frac").fixed(cell.eliminated_frac, 9);
        w.key("staged_wall_secs").fixed(cell.staged_wall_secs, 9);
        w.key("fused_wall_secs").fixed(cell.fused_wall_secs, 9);
        w.key("bit_exact").bool(cell.bit_exact);
        w.end();
    }
    w.end().end();
    w.key("cases").begin_array();
    for case in cases {
        w.begin_object();
        w.key("dataset").str(&case.dataset);
        w.key("trees").uint(case.trees as u64);
        w.key("depth").uint(case.depth as u64);
        w.key("records").uint(case.records as u64);
        w.key("naive_records_per_sec").fixed(case.naive_rps, 3);
        w.key("runs").begin_array();
        for run in &case.runs {
            w.begin_object();
            w.key("threads").uint(run.threads as u64);
            w.key("forest_records_per_sec").fixed(run.forest_rps, 3);
            w.key("simd_records_per_sec").fixed(run.simd_rps, 3);
            w.key("speedup_vs_naive").fixed(run.speedup, 3);
            w.key("bit_exact").bool(run.bit_exact);
            w.end();
        }
        w.end().end();
    }
    w.end().end();
    let out = w.finish();
    validate(&out).expect("harness emitted invalid JSON");
    out
}

/// Checks that `text` is a well-formed, non-empty benchmark report.
///
/// Used both as the harness's own self-check and by `repro bench --check`
/// (the CI smoke gate) against a file on disk. Returns the case count.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("mlscore/bench-cpu-scoring/v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let version = match doc.get("schema_version").and_then(JsonValue::as_f64) {
        Some(v) if v >= 2.0 => v,
        other => return Err(format!("missing or stale schema_version {other:?}")),
    };
    let cache: &JsonValue = doc.field("cache", "report")?;
    let hits: f64 = cache.field("hits", "cache block")?;
    if hits < 1.0 {
        return Err(format!("cache block: expected at least 1 hit, got {hits}"));
    }
    let cold: f64 = cache.field("cold_total_secs", "cache block")?;
    let warm: f64 = cache.field("warm_total_secs", "cache block")?;
    if cold < warm {
        return Err(format!(
            "cache block: cold total {cold}s is cheaper than warm total {warm}s"
        ));
    }
    if version >= 4.0 {
        // v4 reports must carry the fused-vs-staged shmoo, every cell
        // bit-exact and eliminating at least 80% of the staged marshal +
        // data-pre-processing tax (the fused path's acceptance bar).
        let fused: &JsonValue = doc.field("fused", "report (v4)")?;
        let cells: &[JsonValue] = fused.field("cells", "fused block")?;
        if cells.is_empty() {
            return Err("fused block: \"cells\" is empty".to_string());
        }
        for (i, cell) in cells.iter().enumerate() {
            let what = format!("fused cell {i}");
            for key in [
                "records",
                "chunk_rows",
                "n_chunks",
                "staged_wall_secs",
                "fused_wall_secs",
            ] {
                cell.field::<f64>(key, &what)?;
            }
            let staged_tax: f64 = cell.field("staged_tax_secs", &what)?;
            let fused_tax: f64 = cell.field("fused_tax_secs", &what)?;
            let eliminated: f64 = cell.field("eliminated_frac", &what)?;
            if cell.get("bit_exact") != Some(&JsonValue::Bool(true)) {
                return Err(format!("{what}: not bit-exact"));
            }
            if fused_tax > 0.2 * staged_tax {
                return Err(format!(
                    "{what}: handoff tax {fused_tax}s exceeds 20% of the \
                     staged marshal tax {staged_tax}s"
                ));
            }
            if eliminated < 0.8 {
                return Err(format!(
                    "{what}: eliminated fraction {eliminated} is below the 80% bar"
                ));
            }
        }
    }
    let cases: &[JsonValue] = doc.field("cases", "report")?;
    if cases.is_empty() {
        return Err("\"cases\" is empty".to_string());
    }
    for (i, case) in cases.iter().enumerate() {
        let what = format!("case {i}");
        for key in ["trees", "records", "naive_records_per_sec"] {
            case.field::<f64>(key, &what)?;
        }
        let runs: &[JsonValue] = case.field("runs", &what)?;
        if runs.is_empty() {
            return Err(format!("{what}: \"runs\" is empty"));
        }
        for (j, run) in runs.iter().enumerate() {
            let what = format!("case {i} run {j}");
            run.field::<f64>("simd_records_per_sec", &what)?;
            if run.get("bit_exact") != Some(&JsonValue::Bool(true)) {
                return Err(format!("{what}: not bit-exact"));
            }
        }
    }
    Ok(cases.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_is_bit_exact_and_serializes() {
        let case = run_case("iris", 8, 200, Mode::Quick);
        assert!(case.runs.iter().all(|r| r.bit_exact));
        assert!(case.naive_rps > 0.0);
        assert!(case
            .runs
            .iter()
            .all(|r| r.simd_rps > 0.0 && r.forest_rps > 0.0));
        let cache = run_cache_pair(Mode::Quick);
        let fused = fused_cells_for(SklearnCpu::with_threads(2), &higgs_bundle(), &[300], 1);
        let json = to_json(std::slice::from_ref(&case), &cache, &fused, Mode::Quick);
        assert_eq!(validate(&json), Ok(1));
        assert!(json.contains("\"schema_version\": 5"));
        assert!(json.contains("\"simd_records_per_sec\""));
        assert!(json.contains("\"fused\""));
    }

    fn higgs_bundle() -> ModelBundle {
        ModelBundle::serialize(&RandomForest::synthetic_full(
            &ForestConfig::classification(128, 28, 2).with_depth(SWEEP_DEPTH),
            7,
        ))
    }

    #[test]
    fn fused_cells_are_bit_exact_and_eliminate_the_tax() {
        let cells = fused_cells_for(SklearnCpu::with_threads(2), &higgs_bundle(), &[777], 1);
        assert_eq!(cells.len(), FUSED_CHUNK_SWEEP.len());
        for cell in &cells {
            assert!(cell.bit_exact, "fused diverged at {} rows", cell.chunk_rows);
            assert_eq!(cell.n_chunks, 777usize.div_ceil(cell.chunk_rows));
            assert!(
                cell.eliminated_frac >= 0.8,
                "handoff tax {}s barely below staged tax {}s",
                cell.fused_tax_secs,
                cell.staged_tax_secs
            );
            assert!(cell.staged_wall_secs > 0.0 && cell.fused_wall_secs > 0.0);
        }
    }

    #[test]
    fn cache_pair_hits_and_warm_is_cheaper() {
        let cache = run_cache_pair(Mode::Quick);
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        assert!(cache.cold_total_secs >= cache.warm_total_secs);
        assert!(cache.warm_speedup() >= 1.0);
        assert!(cache.compile_ms > 0.0);
    }

    #[test]
    fn validate_rejects_garbage_and_empty() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"schema\": \"wrong\"}").is_err());
        // v1 documents (no schema_version, no cache block) are stale.
        assert!(validate("{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"cases\": []}").is_err());
        // A hitless cache block is a broken warm path.
        let hitless = "{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"schema_version\": 2, \
                       \"cache\": {\"hits\": 0, \"cold_total_secs\": 2.0, \"warm_total_secs\": 1.0}, \
                       \"cases\": [1]}";
        assert!(validate(hitless).unwrap_err().contains("hit"));
        // Warm costing more than cold means the split is wired backwards.
        let inverted = "{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"schema_version\": 2, \
                        \"cache\": {\"hits\": 1, \"cold_total_secs\": 1.0, \"warm_total_secs\": 2.0}, \
                        \"cases\": [1]}";
        assert!(validate(inverted).unwrap_err().contains("cheaper"));
    }

    #[test]
    fn validate_enforces_the_v4_fused_bar() {
        let doc = |fused: &str| {
            format!(
                "{{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"schema_version\": 5, \
                 \"cache\": {{\"hits\": 1, \"cold_total_secs\": 2.0, \"warm_total_secs\": 1.0}}, \
                 {fused}\
                 \"cases\": [{{\"trees\": 8, \"records\": 10, \"naive_records_per_sec\": 1.0, \
                 \"runs\": [{{\"threads\": 1, \"simd_records_per_sec\": 1.0, \
                 \"bit_exact\": true}}]}}]}}"
            )
        };
        let cell = |tax: f64, frac: f64, exact: bool| {
            format!(
                "\"fused\": {{\"cells\": [{{\"records\": 100, \"chunk_rows\": 512, \
                 \"n_chunks\": 1, \"staged_tax_secs\": 1.0, \"fused_tax_secs\": {tax}, \
                 \"eliminated_frac\": {frac}, \"staged_wall_secs\": 0.5, \
                 \"fused_wall_secs\": 0.4, \"bit_exact\": {exact}}}]}}, "
            )
        };
        // v4 without the fused block is stale.
        assert!(validate(&doc("")).unwrap_err().contains("fused"));
        // A healthy cell passes.
        assert_eq!(validate(&doc(&cell(0.001, 0.999, true))), Ok(1));
        // Handoff tax above 20% of the staged tax fails the bar.
        assert!(validate(&doc(&cell(0.5, 0.5, true)))
            .unwrap_err()
            .contains("20%"));
        // A non-bit-exact fused pass can never be published.
        assert!(validate(&doc(&cell(0.001, 0.999, false)))
            .unwrap_err()
            .contains("bit-exact"));
        // Every run must carry the SIMD kernel's throughput.
        let healthy = doc(&cell(0.001, 0.999, true));
        let no_simd = healthy.replace("simd_records_per_sec", "forest_records_per_sec");
        assert!(validate(&no_simd)
            .unwrap_err()
            .contains("simd_records_per_sec"));
    }

    /// A fixed synthetic sweep: two cases (one with an infinite speedup,
    /// which must render as `null`), the cache pair and two fused cells.
    fn synthetic() -> (Vec<CaseResult>, CacheBench, Vec<FusedCell>) {
        let run = |threads, forest_rps, simd_rps, speedup| ThreadRun {
            threads,
            forest_rps,
            simd_rps,
            speedup,
            bit_exact: true,
        };
        let case = |dataset: &str, trees, records, naive_rps, runs| CaseResult {
            dataset: dataset.into(),
            trees,
            depth: 10,
            records,
            naive_rps,
            runs,
        };
        let cases = vec![
            case(
                "iris",
                8,
                500,
                123456.789,
                vec![
                    run(1, 2.5e6, 4.0625e6, 32.9),
                    run(4, 9.75e6, 1.5e7, f64::INFINITY),
                ],
            ),
            case(
                "higgs",
                128,
                2000,
                0.0004,
                vec![run(2, 1e5, 3.33333e5, 2.7)],
            ),
        ];
        let cache = CacheBench {
            backend: "CPU_ONNX".into(),
            trees: 128,
            depth: 10,
            records: 2000,
            cold_total_secs: 4.6125,
            warm_total_secs: 4.5,
            compile_ms: 10.3615,
            hits: 1,
            misses: 1,
        };
        let cell = |backend: &str, chunk_rows, n_chunks, fused_tax_secs: f64| FusedCell {
            backend: backend.into(),
            trees: 128,
            depth: 10,
            records: 2000,
            chunk_rows,
            n_chunks,
            staged_tax_secs: 0.14688,
            fused_tax_secs,
            eliminated_frac: 1.0 - fused_tax_secs / 0.14688,
            staged_wall_secs: 0.045672351,
            fused_wall_secs: 1.25e-10,
            bit_exact: true,
        };
        let fused = vec![
            cell("CPU_SKLearn_1th", 512, 4, 0.00004),
            cell("CPU_ONNX", 4096, 1, 0.000006),
        ];
        (cases, cache, fused)
    }

    #[test]
    fn rendering_matches_the_pinned_document_up_to_whitespace() {
        // Captured from the hand-written serializer this writer replaced;
        // only the host-dependent SIMD tier and thread count are filled in.
        let (cases, cache, fused) = synthetic();
        for mode in [Mode::Quick, Mode::Full] {
            let json = to_json(&cases, &cache, &fused, mode);
            let stripped: String = json.chars().filter(|c| !matches!(c, ' ' | '\n')).collect();
            let (simd, threads) = (SimdLevel::detect().name(), default_threads());
            let golden = format!(
                concat!(
                    r#"{{"schema":"mlscore/bench-cpu-scoring/v1","schema_version":5,"mode":"{mode}","#,
                    r#""simd_level":"{simd}","host_threads":{threads},"record_block":64,"tree_block":16,"#,
                    r#""lanes":8,"cache":{{"backend":"CPU_ONNX","trees":128,"depth":10,"records":2000,"#,
                    r#""cold_total_secs":4.612,"warm_total_secs":4.500,"warm_speedup":1.025,"compile_ms":10.361,"#,
                    r#""hits":1,"misses":1}},"fused":{{"cells":[{{"backend":"CPU_SKLearn_1th","trees":128,"#,
                    r#""depth":10,"records":2000,"chunk_rows":512,"n_chunks":4,"staged_tax_secs":0.146880000,"#,
                    r#""fused_tax_secs":0.000040000,"eliminated_frac":0.999727669,"staged_wall_secs":0.045672351,"#,
                    r#""fused_wall_secs":0.000000000,"bit_exact":true}},{{"backend":"CPU_ONNX","trees":128,"#,
                    r#""depth":10,"records":2000,"chunk_rows":4096,"n_chunks":1,"staged_tax_secs":0.146880000,"#,
                    r#""fused_tax_secs":0.000006000,"eliminated_frac":0.999959150,"staged_wall_secs":0.045672351,"#,
                    r#""fused_wall_secs":0.000000000,"bit_exact":true}}]}},"cases":[{{"dataset":"iris","#,
                    r#""trees":8,"depth":10,"records":500,"naive_records_per_sec":123456.789,"runs":[{{"threads":1,"#,
                    r#""forest_records_per_sec":2500000.000,"simd_records_per_sec":4062500.000,"speedup_vs_naive":32.900,"#,
                    r#""bit_exact":true}},{{"threads":4,"forest_records_per_sec":9750000.000,"simd_records_per_sec":15000000.000,"#,
                    r#""speedup_vs_naive":null,"bit_exact":true}}]}},{{"dataset":"higgs","trees":128,"#,
                    r#""depth":10,"records":2000,"naive_records_per_sec":0.000,"runs":[{{"threads":2,"#,
                    r#""forest_records_per_sec":100000.000,"simd_records_per_sec":333333.000,"speedup_vs_naive":2.700,"#,
                    r#""bit_exact":true}}]}}]}}"#,
                ),
                mode = mode.name(),
                simd = simd,
                threads = threads,
            );
            assert_eq!(stripped, golden);
        }
    }

    #[test]
    fn thread_sweep_is_deduped_and_sorted() {
        let sweep = thread_sweep();
        assert!(!sweep.is_empty());
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert!(sweep.contains(&1) && sweep.contains(&4));
    }
}

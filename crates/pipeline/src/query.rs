//! The query pipeline: functional execution plus the Fig. 11 breakdown.

use std::sync::Arc;

use mlscore_backend::{
    ArtifactCache, BackendError, CacheOutcome, PrepareTiming, ScoringBackend, StreamChunk,
};
use mlscore_data::{FrameScanner, RecordStream, TabularFrame};
use mlscore_forest::{ModelBundle, ModelStats};
use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::{Scope, Tracer};

use crate::error::PipelineError;
use crate::params::PipelineParams;

/// Result of running one T-SQL scoring query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// The class ids returned to the DBMS, one per record.
    pub predictions: Vec<u32>,
    /// End-to-end breakdown in Fig. 11's stages. The entire backend-side
    /// scoring path (offload overheads included) is folded into
    /// [`Stage::Scoring`].
    pub breakdown: TimingBreakdown,
    /// The backend's own scoring-time breakdown (the Fig. 7 quantity).
    pub scoring_breakdown: TimingBreakdown,
    /// Whether the compiled model came from the artifact cache
    /// ([`CacheOutcome::Bypass`] when the pipeline has no cache).
    pub cache: CacheOutcome,
}

impl QueryRun {
    /// Total end-to-end query time.
    pub fn total(&self) -> SimDuration {
        self.breakdown.total()
    }
}

/// How an estimated query runs: which path, and whether its model is
/// already compiled and cache-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPlan {
    /// The paper's path: launch Python, marshal the whole batch (plus the
    /// model bundle when cold), pre-process it, score, marshal the
    /// predictions back.
    Staged {
        /// The model is cache-resident: no bundle marshal, and model
        /// pre-processing is a cache probe.
        warm: bool,
    },
    /// The fused scan→featurize→score path: the backend pulls
    /// `chunk_rows`-row chunks in process, so there is no Python
    /// invocation, no marshal and no separate data pre-processing — only a
    /// per-chunk handoff under [`Stage::DataTransfer`].
    Fused {
        /// Rows per pulled chunk; must be positive.
        chunk_rows: usize,
        /// As for [`QueryPlan::Staged`].
        warm: bool,
    },
}

/// The records an executed query scores; the variant picks the path.
pub enum Records<'a> {
    /// The whole batch as one frame, on the staged path.
    Staged(&'a TabularFrame),
    /// A stream the backend pulls chunk by chunk, on the fused path.
    /// Predictions are bit-exact with the staged path over the equivalent
    /// materialized frame.
    Fused(&'a mut dyn RecordStream),
}

/// A T-SQL analytics query with ML scoring over a pluggable backend.
#[derive(Debug, Clone)]
pub struct QueryPipeline<B> {
    backend: B,
    params: PipelineParams,
    cache: Option<Arc<ArtifactCache>>,
}

impl<B: ScoringBackend> QueryPipeline<B> {
    /// A pipeline with default (paper-calibrated) stage costs.
    pub fn new(backend: B) -> Self {
        Self::with_params(backend, PipelineParams::default())
    }

    /// A pipeline with explicit stage costs.
    pub fn with_params(backend: B, params: PipelineParams) -> Self {
        Self {
            backend,
            params,
            cache: None,
        }
    }

    /// Attaches an artifact cache: repeated queries against byte-identical
    /// bundles skip deserialize + lower (the warm path). Without a cache
    /// every execution compiles inline and behaves exactly as before.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The scoring backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The stage-cost parameters.
    pub fn params(&self) -> &PipelineParams {
        &self.params
    }

    /// The attached artifact cache, if any.
    pub fn cache(&self) -> Option<&Arc<ArtifactCache>> {
        self.cache.as_ref()
    }

    /// Runs the query for real: compiles the model bundle (or fetches it
    /// from the artifact cache), scores `records` on the backend, and
    /// assembles the Fig. 11 end-to-end breakdown from the modelled stage
    /// costs. `records` picks the path; a cache hit makes the query warm.
    ///
    /// On `tracer` it records one [`Scope::Query`] span per charged stage
    /// on the pipeline's query lane (their fold is `breakdown`, exactly),
    /// the backend's [`Scope::Offload`] spans inside the scoring interval
    /// (their fold is `scoring_breakdown`), the measured compile spans on a
    /// cold query, and, on the fused path, one `"fused chunk"`
    /// [`Scope::Detail`] span per pulled chunk. CPU backends also record
    /// measured `exec worker` Detail spans; untraced callers pass
    /// `&Tracer::disabled(), SimInstant::ZERO`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Model`] for an unparseable bundle and
    /// [`PipelineError::Backend`] when the backend rejects the request
    /// (unsupported model) or the record width mismatches.
    pub fn execute(
        &self,
        bundle: &ModelBundle,
        records: Records<'_>,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<QueryRun, PipelineError> {
        // Compile (or fetch): deserialize + supports + lower, skipped
        // entirely on an artifact-cache hit.
        let (model, outcome, timing) = match &self.cache {
            Some(cache) => cache.get_or_prepare(&self.backend, bundle).map_err(lift)?,
            None => {
                let (model, timing) =
                    mlscore_backend::compile_timed(&self.backend, bundle).map_err(lift)?;
                (model, CacheOutcome::Bypass, timing)
            }
        };
        let warm = outcome == CacheOutcome::Hit;
        let stats = *model.stats();
        let model_bytes = model.model_bytes() as u64;
        let row_bytes = stats.row_bytes() as u64;
        // Score for real. Measured worker spans start where the chain
        // reaches scoring with what is known up front: the whole staged
        // batch, or a stream that has handed off no chunk yet (the end of
        // model pre-processing).
        let mut whole;
        let (stream, path, known): (&mut dyn RecordStream, _, _) = match records {
            Records::Staged(frame) => {
                whole = FrameScanner::whole(frame);
                let n = frame.n_rows() as u64;
                (&mut whole, Path::Staged { row_bytes }, n)
            }
            Records::Fused(stream) => (stream, Path::Fused { n_chunks: 0 }, 0),
        };
        let t_stream = start_of(
            &self.steps(path, warm, model_bytes, known),
            Stage::Scoring,
            start,
        );
        let bound = model.bind(self.backend.name(), stream.n_features())?;
        let out = self.backend.score(bound, stream, tracer, t_stream)?;
        let (path, n_records, chunks) = match path {
            Path::Staged { .. } => (path, known, &[][..]),
            Path::Fused { .. } => (
                Path::Fused {
                    n_chunks: out.chunks.len(),
                },
                out.rows as u64,
                &out.chunks[..],
            ),
        };
        let mut steps = self.steps(path, warm, model_bytes, n_records);
        let scoring_breakdown = self.charge_scoring(&mut steps, &stats, n_records, tracer, start);
        if tracer.is_enabled() {
            if !warm {
                let t_compile = start_of(&steps, Stage::ModelPreprocessing, start);
                self.record_compile_spans(tracer, t_compile, model_bytes, timing);
            }
            record_spans(tracer, &steps, start, n_records, chunks);
        }
        Ok(QueryRun {
            breakdown: steps.iter().map(|s| (s.stage, s.dur)).collect(),
            predictions: out.predictions,
            scoring_breakdown,
            cache: outcome,
        })
    }

    /// Estimates the end-to-end breakdown of a query over `n_records`
    /// without running it — used for sweeps at record counts too large to
    /// score for real. Records the same `Query` and `Offload` spans as
    /// [`QueryPipeline::execute`] (fused plans get synthesized
    /// `"fused chunk"` detail), but no measured ones.
    ///
    /// # Panics
    ///
    /// Panics if a fused plan's `chunk_rows` is zero.
    pub fn estimate(
        &self,
        plan: QueryPlan,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        let (path, warm, chunk_rows) = match plan {
            QueryPlan::Staged { warm } => (
                Path::Staged {
                    row_bytes: stats.row_bytes() as u64,
                },
                warm,
                None,
            ),
            QueryPlan::Fused { chunk_rows, warm } => {
                assert!(chunk_rows > 0, "chunk_rows must be positive");
                let n_chunks = (n_records as usize).div_ceil(chunk_rows);
                (Path::Fused { n_chunks }, warm, Some(chunk_rows))
            }
        };
        let mut steps = self.steps(path, warm, model_bytes, n_records);
        self.charge_scoring(&mut steps, stats, n_records, tracer, start);
        if tracer.is_enabled() {
            let chunks =
                chunk_rows.map_or_else(Vec::new, |rows| synth_chunks(n_records as usize, rows));
            record_spans(tracer, &steps, start, n_records, &chunks);
        }
        steps.iter().map(|s| (s.stage, s.dur)).collect()
    }

    /// The ordered steps of one query: the one statement of Fig. 11's
    /// stage chain. The breakdown is their fold, every anchor instant is a
    /// running sum over them ([`start_of`]), and the `Query` spans are the
    /// same steps recorded in order. The scoring step is charged zero here;
    /// [`QueryPipeline::charge_scoring`] fills in the backend's time.
    fn steps(&self, path: Path, warm: bool, model_bytes: u64, n_records: u64) -> Vec<Step> {
        let p = &self.params;
        // A warm query's model is compiled and cache-resident: model
        // pre-processing collapses to a cache probe.
        let model_prep = if warm {
            Step::new(
                Stage::ModelPreprocessing,
                "artifact cache hit",
                p.cache_lookup,
            )
        } else {
            Step::new(
                Stage::ModelPreprocessing,
                "model deserialization",
                p.model_preprocess_time(model_bytes),
            )
        }
        .meta("model_bytes", model_bytes);
        let scoring = Step::new(Stage::Scoring, "scoring", SimDuration::ZERO)
            .meta("backend", self.backend.name())
            .meta("records", n_records);
        let post = Step::new(
            Stage::PostProcessing,
            "post-processing",
            p.postprocess_per_record * n_records as f64,
        );
        match path {
            // SQL -> Python: the records, plus the model bundle when cold;
            // Python -> SQL: one prediction per record, after scoring.
            Path::Staged { row_bytes } => {
                let data_bytes = n_records * row_bytes;
                let (marshal, inbound_bytes) = if warm {
                    ("marshal records", data_bytes)
                } else {
                    ("marshal model + records", data_bytes + model_bytes)
                };
                vec![
                    Step::new(
                        Stage::PythonInvocation,
                        "python invocation",
                        p.python_invocation,
                    ),
                    Step::new(
                        Stage::DataTransfer,
                        marshal,
                        p.marshal_time(n_records, inbound_bytes),
                    )
                    .meta("bytes", inbound_bytes),
                    model_prep,
                    Step::new(
                        Stage::DataPreprocessing,
                        "data preprocessing",
                        p.data_preprocess_per_byte * data_bytes as f64,
                    ),
                    scoring,
                    Step::new(
                        Stage::DataTransfer,
                        "marshal results",
                        p.marshal_results_time(n_records),
                    ),
                    post,
                ]
            }
            // In process: no Python launch, no marshal, no separate
            // pre-processing pass. `DataTransfer` carries only the
            // per-chunk handoff.
            Path::Fused { n_chunks } => vec![
                model_prep,
                Step::new(
                    Stage::DataTransfer,
                    "chunk handoff",
                    p.chunk_handoff * n_chunks as f64,
                )
                .meta("chunks", n_chunks),
                scoring.meta("path", "fused"),
                post,
            ],
        }
    }

    /// Charges the backend's modelled scoring at the instant the chain
    /// reaches it (its `Offload` spans land there) into the scoring step,
    /// and returns the backend's own breakdown.
    fn charge_scoring(
        &self,
        steps: &mut [Step],
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        let t_scoring = start_of(steps, Stage::Scoring, start);
        let scoring = self.backend.estimate(stats, n_records, tracer, t_scoring);
        for step in steps.iter_mut().filter(|s| s.stage == Stage::Scoring) {
            step.dur = scoring.total();
        }
        scoring
    }

    /// Records the cold-path compile spans ([`Scope::Compile`]): the
    /// *measured* wall-clock of deserialize + lower, mapped 1 ns ↦ 1 ns
    /// onto the simulated timeline alongside the modelled
    /// model-pre-processing stage, anchored at `t` (the instant model
    /// pre-processing begins on the caller's timeline). A separate scope
    /// keeps them out of the `Query` fold, so cold breakdowns stay
    /// bit-identical with or without tracing.
    fn record_compile_spans(
        &self,
        tracer: &Tracer,
        t: SimInstant,
        model_bytes: u64,
        timing: PrepareTiming,
    ) {
        let t = tracer
            .span("deserialize bundle", t)
            .stage(Stage::ModelPreprocessing)
            .scope(Scope::Compile)
            .track("pipeline", "compile")
            .meta("model_bytes", model_bytes)
            .finish_after(timing.deserialize);
        tracer
            .span("lower model", t)
            .stage(Stage::ModelPreprocessing)
            .scope(Scope::Compile)
            .track("pipeline", "compile")
            .meta("backend", self.backend.name())
            .finish_after(timing.lower);
    }
}

/// The path as the stage chain sees it, with the size only that path
/// charges for.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// Marshalled whole: data movement scales with the row width.
    Staged { row_bytes: u64 },
    /// Streamed: data movement scales with the number of chunk handoffs.
    Fused { n_chunks: usize },
}

/// One charged step of a query: a Fig. 11 stage, the name and metadata of
/// the `Query` span that shows it, and its modelled duration.
#[derive(Debug)]
struct Step {
    stage: Stage,
    name: &'static str,
    dur: SimDuration,
    meta: Vec<(&'static str, String)>,
}

impl Step {
    fn new(stage: Stage, name: &'static str, dur: SimDuration) -> Self {
        Self {
            stage,
            name,
            dur,
            meta: Vec::new(),
        }
    }

    fn meta(mut self, key: &'static str, value: impl ToString) -> Self {
        self.meta.push((key, value.to_string()));
        self
    }
}

/// `start` plus every step charged before the first `stage` step.
fn start_of(steps: &[Step], stage: Stage, start: SimInstant) -> SimInstant {
    steps
        .iter()
        .take_while(|s| s.stage != stage)
        .fold(start, |t, s| t + s.dur)
}

/// Records `steps` as back-to-back [`Scope::Query`] spans from `start`, then
/// one `"fused chunk"` [`Scope::Detail`] span per entry of `chunks` (none on
/// the staged path), laid across the scoring interval in proportion to each
/// chunk's row count.
fn record_spans(
    tracer: &Tracer,
    steps: &[Step],
    start: SimInstant,
    n_records: u64,
    chunks: &[StreamChunk],
) {
    let mut t = start;
    let (mut t_score, mut scoring) = (start, SimDuration::ZERO);
    for step in steps {
        if step.stage == Stage::Scoring {
            (t_score, scoring) = (t, step.dur);
        }
        let mut span = tracer
            .span(step.name, t)
            .stage(step.stage)
            .scope(Scope::Query)
            .track("pipeline", "query");
        for (key, value) in &step.meta {
            span = span.meta(key, value.as_str());
        }
        t = span.finish_after(step.dur);
    }
    if n_records == 0 {
        return;
    }
    let mut done = 0u64;
    for (i, c) in chunks.iter().enumerate() {
        let at = t_score + scoring * (done as f64 / n_records as f64);
        let dur = scoring * (c.rows as f64 / n_records as f64);
        tracer
            .span("fused chunk", at)
            .scope(Scope::Detail)
            .track("pipeline", "chunks")
            .meta("chunk", i)
            .meta("rows", c.rows)
            .finish_after(dur);
        done += c.rows as u64;
    }
}

/// Synthesizes the chunk layout a scanner over `n_records` rows pulled
/// `chunk_rows` at a time would produce: full chunks plus a possibly short
/// tail. Used by the modelled (estimate-only) fused path.
fn synth_chunks(n_records: usize, chunk_rows: usize) -> Vec<StreamChunk> {
    let mut chunks = Vec::with_capacity(n_records.div_ceil(chunk_rows));
    let mut left = n_records;
    while left > 0 {
        let rows = left.min(chunk_rows);
        chunks.push(StreamChunk { rows });
        left -= rows;
    }
    chunks
}

/// Routes a compile-phase [`BackendError`] to the pipeline error that the
/// pre-artifact code paths produced: deserialization failures were
/// [`PipelineError::Model`] (they happened before the backend was involved),
/// everything else is the backend's fault.
fn lift(e: BackendError) -> PipelineError {
    match e {
        BackendError::Forest(e) => PipelineError::Model(e),
        other => PipelineError::Backend(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_backend::{OnnxCpu, SklearnCpu};
    use mlscore_data::Dataset;
    use mlscore_forest::{ForestConfig, RandomForest};

    fn setup(n_trees: usize, depth: usize) -> (ModelBundle, Dataset, RandomForest) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(n_trees, 4, 3).with_depth(depth),
            7,
        );
        let bundle = ModelBundle::serialize(&forest);
        (bundle, Dataset::iris(300, 2).normalized(), forest)
    }

    /// An untraced staged execution over the whole frame.
    fn staged<B: ScoringBackend>(
        pipeline: &QueryPipeline<B>,
        bundle: &ModelBundle,
        frame: &TabularFrame,
    ) -> Result<QueryRun, PipelineError> {
        pipeline.execute(
            bundle,
            Records::Staged(frame),
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    /// An untraced estimate.
    fn estimate<B: ScoringBackend>(
        pipeline: &QueryPipeline<B>,
        plan: QueryPlan,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
    ) -> TimingBreakdown {
        pipeline.estimate(
            plan,
            stats,
            model_bytes,
            n_records,
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    #[test]
    fn functional_execution_returns_reference_predictions() {
        let (bundle, data, forest) = setup(10, 6);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
        let run = staged(&pipeline, &bundle, data.frame()).unwrap();
        assert_eq!(
            run.predictions,
            forest.predict_batch(data.frame().as_slice())
        );
    }

    #[test]
    fn breakdown_contains_all_fig11_stages() {
        let (bundle, data, _) = setup(4, 5);
        let pipeline = QueryPipeline::new(OnnxCpu::single_thread());
        let run = staged(&pipeline, &bundle, data.frame()).unwrap();
        for stage in Stage::query_breakdown_order() {
            assert!(
                !run.breakdown.get(stage).is_zero(),
                "stage {stage} missing from breakdown"
            );
        }
        assert!(run.total() > run.scoring_breakdown.total());
    }

    #[test]
    fn small_queries_are_dominated_by_python_invocation() {
        // Fig. 11: for one record and a one-tree model, Python invocation
        // and model pre-processing dominate.
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 3).with_depth(6), 1);
        let stats = ModelStats::of(&forest);
        let bundle = ModelBundle::serialize(&forest);
        let pipeline = QueryPipeline::new(OnnxCpu::single_thread());
        let cold = QueryPlan::Staged { warm: false };
        let b = estimate(&pipeline, cold, &stats, bundle.len() as u64, 1);
        assert_eq!(b.dominant().unwrap().0, Stage::PythonInvocation);
    }

    #[test]
    fn corrupt_bundle_fails_in_model_preprocessing() {
        let (_, data, _) = setup(1, 3);
        let bundle = ModelBundle::from_bytes(&b"garbage"[..]);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(2));
        assert!(matches!(
            staged(&pipeline, &bundle, data.frame()),
            Err(PipelineError::Model(_))
        ));
    }

    #[test]
    fn width_mismatch_fails_in_backend() {
        let (bundle, _, _) = setup(1, 3);
        let wrong = TabularFrame::from_rows(vec![0.0; 6], 2).unwrap();
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(2));
        assert!(matches!(
            staged(&pipeline, &bundle, &wrong),
            Err(PipelineError::Backend(_))
        ));
    }

    #[test]
    fn traced_execute_reconstructs_both_scopes() {
        let (bundle, data, _) = setup(6, 5);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
        let tracer = Tracer::new();
        let run = pipeline
            .execute(
                &bundle,
                Records::Staged(data.frame()),
                &tracer,
                SimInstant::ZERO,
            )
            .unwrap();
        assert_eq!(run, staged(&pipeline, &bundle, data.frame()).unwrap());
        let trace = tracer.take();
        assert_eq!(trace.breakdown(Scope::Query), run.breakdown);
        assert_eq!(trace.breakdown(Scope::Offload), run.scoring_breakdown);
    }

    #[test]
    fn traced_offload_spans_nest_inside_scoring_span() {
        let (bundle, data, _) = setup(6, 5);
        let pipeline = QueryPipeline::new(OnnxCpu::paper_52th());
        let tracer = Tracer::new();
        pipeline
            .execute(
                &bundle,
                Records::Staged(data.frame()),
                &tracer,
                SimInstant::ZERO,
            )
            .unwrap();
        let trace = tracer.take();
        let scoring = trace
            .events()
            .iter()
            .find(|e| e.scope == Scope::Query && e.name == "scoring")
            .unwrap();
        // Bit-exactness is promised for breakdown folds, not instants: the
        // chained span ends can drift from `start + total()` by an ulp, so
        // nesting is asserted to a 1 ns tolerance.
        let slack = SimDuration::from_nanos(1.0);
        for ev in trace.events() {
            if ev.scope == Scope::Offload {
                assert!(
                    ev.start + slack >= scoring.start,
                    "{} starts early",
                    ev.name
                );
                assert!(ev.end() <= scoring.end() + slack, "{} ends late", ev.name);
            }
        }
    }

    /// Measured `exec worker` spans recorded by one staged and one fused
    /// traced execution (the stream pulls `chunk_rows` at a time).
    fn worker_spans<B: ScoringBackend>(
        pipeline: &QueryPipeline<B>,
        bundle: &ModelBundle,
        frame: &TabularFrame,
        chunk_rows: usize,
    ) -> (usize, usize) {
        let workers = |tracer: &Tracer| {
            tracer
                .take()
                .events()
                .iter()
                .filter(|e| e.scope == Scope::Detail && e.name.starts_with("exec worker"))
                .count()
        };
        let tracer = Tracer::new();
        pipeline
            .execute(bundle, Records::Staged(frame), &tracer, SimInstant::ZERO)
            .unwrap();
        let staged = workers(&tracer);
        let mut stream = FrameScanner::new(frame, chunk_rows);
        pipeline
            .execute(
                bundle,
                Records::Fused(&mut stream),
                &tracer,
                SimInstant::ZERO,
            )
            .unwrap();
        (staged, workers(&tracer))
    }

    #[test]
    fn staged_and_fused_traces_record_measured_worker_detail() {
        let (bundle, data, _) = setup(6, 5);
        // 300 rows in chunks of 64: five measured executor runs when fused.
        for (staged, fused) in [
            worker_spans(
                &QueryPipeline::new(SklearnCpu::with_threads(4)),
                &bundle,
                data.frame(),
                64,
            ),
            worker_spans(
                &QueryPipeline::new(OnnxCpu::with_threads(4)),
                &bundle,
                data.frame(),
                64,
            ),
        ] {
            assert!(staged >= 1, "expected measured pool-worker spans");
            assert!(fused >= 5, "expected worker spans for every chunk");
        }
    }

    #[test]
    fn traced_estimate_matches_untraced() {
        let (bundle, _, forest) = setup(4, 6);
        let stats = ModelStats::of(&forest);
        let pipeline = QueryPipeline::new(SklearnCpu::paper_default());
        let cold = QueryPlan::Staged { warm: false };
        let tracer = Tracer::new();
        let traced = pipeline.estimate(
            cold,
            &stats,
            bundle.len() as u64,
            1_000_000,
            &tracer,
            SimInstant::ZERO,
        );
        assert_eq!(
            traced,
            estimate(&pipeline, cold, &stats, bundle.len() as u64, 1_000_000)
        );
        assert_eq!(tracer.take().breakdown(Scope::Query), traced);
    }

    #[test]
    fn cached_execute_hits_and_scores_identically() {
        let (bundle, data, forest) = setup(8, 6);
        let cache = Arc::new(ArtifactCache::new(4));
        let pipeline = QueryPipeline::new(OnnxCpu::single_thread()).with_cache(Arc::clone(&cache));
        let cold = staged(&pipeline, &bundle, data.frame()).unwrap();
        let warm = staged(&pipeline, &bundle, data.frame()).unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(warm.predictions, cold.predictions);
        assert_eq!(
            warm.predictions,
            forest.predict_batch(data.frame().as_slice())
        );
        // The backend-side scoring breakdown is unaffected by the cache...
        assert_eq!(warm.scoring_breakdown, cold.scoring_breakdown);
        // ...but the end-to-end path skips the bundle marshal and collapses
        // model pre-processing to a cache probe.
        assert!(warm.total() < cold.total());
        assert_eq!(
            warm.breakdown.get(Stage::ModelPreprocessing),
            pipeline.params().cache_lookup
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn cold_miss_breakdown_is_bit_identical_to_bypass() {
        let (bundle, data, _) = setup(6, 5);
        let uncached = QueryPipeline::new(OnnxCpu::single_thread());
        let cached = QueryPipeline::new(OnnxCpu::single_thread())
            .with_cache(Arc::new(ArtifactCache::new(4)));
        let bypass = staged(&uncached, &bundle, data.frame()).unwrap();
        let miss = staged(&cached, &bundle, data.frame()).unwrap();
        assert_eq!(bypass.cache, CacheOutcome::Bypass);
        assert_eq!(miss.cache, CacheOutcome::Miss);
        assert_eq!(miss.breakdown, bypass.breakdown);
        assert_eq!(miss.scoring_breakdown, bypass.scoring_breakdown);
        assert_eq!(miss.predictions, bypass.predictions);
    }

    #[test]
    fn compile_spans_are_recorded_cold_only() {
        let (bundle, data, _) = setup(6, 5);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(2))
            .with_cache(Arc::new(ArtifactCache::new(4)));

        let tracer = Tracer::new();
        pipeline
            .execute(
                &bundle,
                Records::Staged(data.frame()),
                &tracer,
                SimInstant::ZERO,
            )
            .unwrap();
        let cold = tracer.take();
        let compile_names: Vec<_> = cold
            .events()
            .iter()
            .filter(|e| e.scope == Scope::Compile)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(compile_names, ["deserialize bundle", "lower model"]);
        assert!(cold
            .events()
            .iter()
            .any(|e| e.name == "marshal model + records"));

        let tracer = Tracer::new();
        let warm = pipeline
            .execute(
                &bundle,
                Records::Staged(data.frame()),
                &tracer,
                SimInstant::ZERO,
            )
            .unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        let trace = tracer.take();
        assert!(
            !trace.events().iter().any(|e| e.scope == Scope::Compile),
            "warm queries must not re-compile"
        );
        assert!(trace
            .events()
            .iter()
            .any(|e| e.name == "artifact cache hit"));
        assert!(trace.events().iter().any(|e| e.name == "marshal records"));
        assert!(!trace
            .events()
            .iter()
            .any(|e| e.name == "model deserialization"));
        // The warm Query fold still reconstructs the warm breakdown exactly.
        assert_eq!(trace.breakdown(Scope::Query), warm.breakdown);
        assert_eq!(trace.breakdown(Scope::Offload), warm.scoring_breakdown);
    }

    #[test]
    fn fused_execute_matches_staged_predictions() {
        use mlscore_data::{NormParams, NormalizeStream};
        let (bundle, data, forest) = setup(10, 6);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
        let staged = staged(&pipeline, &bundle, data.frame()).unwrap();
        // Fused featurization: normalize per chunk off the raw frame, with
        // the params the staged path's whole-frame normalize would fit.
        let raw = Dataset::iris(300, 2);
        let params = NormParams::fit(raw.frame());
        let mut stream = NormalizeStream::new(FrameScanner::new(raw.frame(), 64), params);
        let fused = pipeline
            .execute(
                &bundle,
                Records::Fused(&mut stream),
                &Tracer::disabled(),
                SimInstant::ZERO,
            )
            .unwrap();
        assert_eq!(fused.predictions, staged.predictions);
        assert_eq!(
            fused.predictions,
            forest.predict_batch(data.frame().as_slice())
        );
        // The fused breakdown charges no Python launch and no marshal-sized
        // transfer — only per-chunk handoff.
        assert!(fused.breakdown.get(Stage::PythonInvocation).is_zero());
        assert!(fused.breakdown.get(Stage::DataPreprocessing).is_zero());
        // 300 rows in 64-row chunks = 5 pulls.
        assert_eq!(
            fused.breakdown.get(Stage::DataTransfer),
            pipeline.params().chunk_handoff * 5.0
        );
        assert!(fused.total() < staged.total());
    }

    #[test]
    fn fused_traced_folds_to_breakdown_and_records_chunk_detail() {
        let (bundle, data, _) = setup(8, 6);
        let cache = Arc::new(ArtifactCache::new(4));
        let pipeline = QueryPipeline::new(OnnxCpu::with_threads(4)).with_cache(Arc::clone(&cache));
        // Warm the cache so the fused query runs the cache-resident path.
        staged(&pipeline, &bundle, data.frame()).unwrap();

        let tracer = Tracer::new();
        let mut stream = FrameScanner::new(data.frame(), 64);
        let run = pipeline
            .execute(
                &bundle,
                Records::Fused(&mut stream),
                &tracer,
                SimInstant::ZERO,
            )
            .unwrap();
        assert_eq!(run.cache, CacheOutcome::Hit);
        let trace = tracer.take();
        // Query fold reproduces the fused breakdown; Offload fold the
        // backend's own scoring breakdown.
        assert_eq!(trace.breakdown(Scope::Query), run.breakdown);
        assert_eq!(trace.breakdown(Scope::Offload), run.scoring_breakdown);
        // One Detail span per pulled chunk, covering every record.
        let chunk_spans: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.scope == Scope::Detail && e.name == "fused chunk")
            .collect();
        assert_eq!(chunk_spans.len(), 300usize.div_ceil(64));
        let scoring = trace
            .events()
            .iter()
            .find(|e| e.scope == Scope::Query && e.name == "scoring")
            .unwrap();
        assert!(
            scoring
                .metadata
                .iter()
                .any(|(k, v)| k == "path" && v == "fused"),
            "scoring span must be tagged with the fused path"
        );
        assert!(trace.events().iter().any(|e| e.name == "chunk handoff"));
        assert!(
            !trace.events().iter().any(|e| e.name.contains("marshal")),
            "fused path must not record marshal spans"
        );
    }

    /// For every plan, the estimate equals the breakdown of the same query
    /// executed for real: warm after one priming query, fused over 64-row
    /// chunks.
    #[test]
    fn estimate_matches_execute_for_every_plan() {
        let (bundle, data, forest) = setup(6, 5);
        let stats = ModelStats::of(&forest);
        let (model_bytes, n) = (bundle.len() as u64, data.frame().n_rows() as u64);
        let backends: [fn() -> Box<dyn ScoringBackend>; 2] = [
            || Box::new(SklearnCpu::with_threads(4)),
            || Box::new(OnnxCpu::single_thread()),
        ];
        for backend in backends {
            let mut totals = Vec::new();
            for plan in [
                QueryPlan::Staged { warm: false },
                QueryPlan::Staged { warm: true },
                QueryPlan::Fused {
                    chunk_rows: 64,
                    warm: false,
                },
                QueryPlan::Fused {
                    chunk_rows: 64,
                    warm: true,
                },
            ] {
                let pipeline =
                    QueryPipeline::new(backend()).with_cache(Arc::new(ArtifactCache::new(4)));
                let (QueryPlan::Staged { warm } | QueryPlan::Fused { warm, .. }) = plan;
                if warm {
                    staged(&pipeline, &bundle, data.frame()).unwrap();
                }
                let mut stream = FrameScanner::new(data.frame(), 64);
                let records = match plan {
                    QueryPlan::Staged { .. } => Records::Staged(data.frame()),
                    QueryPlan::Fused { .. } => Records::Fused(&mut stream),
                };
                let run = pipeline
                    .execute(&bundle, records, &Tracer::disabled(), SimInstant::ZERO)
                    .unwrap();
                assert_eq!(run.cache == CacheOutcome::Hit, warm, "{plan:?}");
                let est = estimate(&pipeline, plan, &stats, model_bytes, n);
                assert_eq!(est, run.breakdown, "{plan:?}");
                totals.push(est.total());
            }
            let [staged_cold, staged_warm, fused_cold, fused_warm] = totals[..] else {
                unreachable!()
            };
            assert!(staged_warm < staged_cold);
            assert!(fused_warm < fused_cold);
            // Fused warm < staged warm: the handoff never exceeds the marshal.
            assert!(fused_warm < staged_warm);
        }
    }
}

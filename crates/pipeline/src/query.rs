//! The query pipeline: functional execution plus the Fig. 11 breakdown.

use std::sync::Arc;

use mlscore_backend::{
    ArtifactCache, BackendError, CacheOutcome, PrepareTiming, ScoringBackend, StreamChunk,
};
use mlscore_data::{FrameScanner, RecordStream, TabularFrame};
use mlscore_forest::{ModelBundle, ModelStats, Predictions};
use mlscore_sim::{SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::{Scope, Tracer};

use crate::error::PipelineError;
use crate::params::PipelineParams;

/// Result of running one T-SQL scoring query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// The predictions returned to the DBMS.
    pub predictions: Predictions,
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
    pub fn total(&self) -> mlscore_sim::SimDuration {
        self.breakdown.total()
    }
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

    /// Executes the query: deserializes the model bundle (really), scores
    /// the records on the backend (really), and assembles the Fig. 11
    /// end-to-end breakdown (modelled).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Model`] for an unparseable bundle and
    /// [`PipelineError::Backend`] when the backend rejects the request
    /// (unsupported model) or the frame width mismatches.
    pub fn execute(
        &self,
        bundle: &ModelBundle,
        frame: &TabularFrame,
    ) -> Result<QueryRun, PipelineError> {
        self.execute_traced(bundle, frame, &Tracer::disabled(), SimInstant::ZERO)
    }

    /// Like [`QueryPipeline::execute`], but also records the end-to-end
    /// timeline on `tracer`: one [`Scope::Query`] span per Fig. 11 stage on
    /// the pipeline's query lane, with the backend's [`Scope::Offload`]
    /// spans nested inside the `Scoring` span's interval. Folding the
    /// recorded `Query` spans reproduces `breakdown` exactly; folding the
    /// `Offload` spans reproduces `scoring_breakdown` exactly. CPU backends
    /// additionally record measured per-worker `Detail` spans (ignored by
    /// both folds) showing real executor-pool occupancy.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`QueryPipeline::execute`].
    pub fn execute_traced(
        &self,
        bundle: &ModelBundle,
        frame: &TabularFrame,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<QueryRun, PipelineError> {
        // Phase 1 — compile (or fetch): deserialize + supports + lower,
        // skipped entirely on an artifact-cache hit.
        let (model, outcome, timing) = match &self.cache {
            Some(cache) => cache
                .get_or_prepare_timed(&self.backend, bundle)
                .map_err(lift)?,
            None => {
                let (model, timing) =
                    mlscore_backend::compile_timed(&self.backend, bundle).map_err(lift)?;
                (model, CacheOutcome::Bypass, timing)
            }
        };
        let stats = *model.stats();
        let model_bytes = model.model_bytes() as u64;
        let n_records = frame.n_rows() as u64;
        let warm = outcome == CacheOutcome::Hit;
        let t_scoring = self.scoring_start(&stats, model_bytes, n_records, start, warm);
        // Phase 2 — score the prepared model. Real execution: worker
        // occupancy is recorded as Detail spans anchored at the scoring
        // span's simulated start, so the Perfetto view shows measured pool
        // activity under the modelled timeline.
        let bound = model.bind(self.backend.name(), frame.n_features())?;
        let predictions = self
            .backend
            .score(bound, &mut FrameScanner::whole(frame), tracer, t_scoring)?
            .predictions;
        let scoring_breakdown = self.backend.estimate(&stats, n_records, tracer, t_scoring);
        let breakdown =
            self.assemble_sized(&stats, model_bytes, n_records, &scoring_breakdown, warm);
        if tracer.is_enabled() {
            if !warm {
                let data_bytes = n_records * stats.row_bytes() as u64;
                let t_compile = start
                    + self.params.python_invocation
                    + self
                        .params
                        .marshal_time(n_records, data_bytes + model_bytes);
                self.record_compile_spans(tracer, t_compile, model_bytes, timing);
            }
            self.record_query_spans(
                tracer,
                start,
                &stats,
                model_bytes,
                n_records,
                &scoring_breakdown,
                warm,
            );
        }
        Ok(QueryRun {
            predictions,
            breakdown,
            scoring_breakdown,
            cache: outcome,
        })
    }

    /// Estimates the end-to-end breakdown without functional execution —
    /// used for sweeps at record counts too large to score for real.
    pub fn estimate(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
    ) -> TimingBreakdown {
        self.estimate_traced(
            stats,
            model_bytes,
            n_records,
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    /// Like [`QueryPipeline::estimate`], but records the same spans as
    /// [`QueryPipeline::execute_traced`].
    pub fn estimate_traced(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        self.estimate_inner(stats, model_bytes, n_records, tracer, start, false)
    }

    /// Estimates the *warm* end-to-end breakdown: the model is already
    /// compiled and cache-resident, so the bundle is not marshalled and
    /// model pre-processing collapses to a cache lookup.
    pub fn estimate_warm(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
    ) -> TimingBreakdown {
        self.estimate_warm_traced(
            stats,
            model_bytes,
            n_records,
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    /// Like [`QueryPipeline::estimate_warm`], but records the warm-path
    /// `Query` spans.
    pub fn estimate_warm_traced(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        self.estimate_inner(stats, model_bytes, n_records, tracer, start, true)
    }

    /// Executes the query over the *fused* scan→featurize→score path: the
    /// backend pulls cache-sized chunks straight off `stream` (scoring each
    /// one as it lands) instead of receiving a marshalled, pre-processed
    /// copy of the whole batch.
    ///
    /// The returned breakdown therefore charges **no** Python invocation,
    /// no inbound/outbound marshal, and no separate data-pre-processing
    /// stage — only model pre-processing (a cache probe when warm), a small
    /// per-chunk handoff under [`Stage::DataTransfer`], scoring, and
    /// post-processing. Predictions are bit-exact with
    /// [`QueryPipeline::execute`] over the equivalent materialized frame.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`QueryPipeline::execute`].
    pub fn execute_fused(
        &self,
        bundle: &ModelBundle,
        stream: &mut dyn RecordStream,
    ) -> Result<QueryRun, PipelineError> {
        self.execute_fused_traced(bundle, stream, &Tracer::disabled(), SimInstant::ZERO)
    }

    /// Like [`QueryPipeline::execute_fused`], but records the fused
    /// timeline on `tracer`: one [`Scope::Query`] span per charged stage
    /// (folding them reproduces `breakdown` exactly), the backend's
    /// [`Scope::Offload`] spans nested inside the scoring interval, and one
    /// `"fused chunk"` [`Scope::Detail`] span per pulled chunk (ignored by
    /// both folds) showing how rows streamed through the kernel.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`QueryPipeline::execute`].
    pub fn execute_fused_traced(
        &self,
        bundle: &ModelBundle,
        stream: &mut dyn RecordStream,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<QueryRun, PipelineError> {
        // Phase 1 — compile (or fetch), exactly as on the staged path.
        let (model, outcome, timing) = match &self.cache {
            Some(cache) => cache
                .get_or_prepare_timed(&self.backend, bundle)
                .map_err(lift)?,
            None => {
                let (model, timing) =
                    mlscore_backend::compile_timed(&self.backend, bundle).map_err(lift)?;
                (model, CacheOutcome::Bypass, timing)
            }
        };
        let warm = outcome == CacheOutcome::Hit;
        let model_bytes = model.model_bytes() as u64;
        // Phase 2 — drain the stream through the backend's chunked scorer.
        // Measured worker spans start where the stream does: right after
        // model pre-processing, before any chunk handoff is charged.
        let bound = model.bind(self.backend.name(), stream.n_features())?;
        let t_stream = self.fused_scoring_start(start, 0, model_bytes, warm);
        let out = self.backend.score(bound, stream, tracer, t_stream)?;
        let n_records = out.rows as u64;
        let t_scoring = self.fused_scoring_start(start, out.chunks.len(), model_bytes, warm);
        let scoring_breakdown = self
            .backend
            .estimate(model.stats(), n_records, tracer, t_scoring);
        let breakdown = self.assemble_fused(
            model_bytes,
            n_records,
            out.chunks.len(),
            &scoring_breakdown,
            warm,
        );
        if tracer.is_enabled() {
            if !warm {
                // The fused path has no Python launch or inbound marshal:
                // compile starts immediately.
                self.record_compile_spans(tracer, start, model_bytes, timing);
            }
            self.record_fused_query_spans(
                tracer,
                start,
                model_bytes,
                n_records,
                &out.chunks,
                &scoring_breakdown,
                warm,
            );
        }
        Ok(QueryRun {
            predictions: out.predictions,
            breakdown,
            scoring_breakdown,
            cache: outcome,
        })
    }

    /// Estimates the cold fused breakdown without functional execution,
    /// for a stream of `n_records` pulled in chunks of `chunk_rows`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows` is zero.
    pub fn estimate_fused(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        chunk_rows: usize,
    ) -> TimingBreakdown {
        self.estimate_fused_traced(
            stats,
            model_bytes,
            n_records,
            chunk_rows,
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    /// Like [`QueryPipeline::estimate_fused`], but records the fused
    /// `Query` spans plus synthesized per-chunk `"fused chunk"` detail.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows` is zero.
    pub fn estimate_fused_traced(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        chunk_rows: usize,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        self.estimate_fused_inner(
            stats,
            model_bytes,
            n_records,
            chunk_rows,
            tracer,
            start,
            false,
        )
    }

    /// Estimates the *warm* fused breakdown: the model is cache-resident,
    /// so model pre-processing collapses to a cache probe and the query is
    /// pure handoff + scoring + post-processing.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows` is zero.
    pub fn estimate_fused_warm(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        chunk_rows: usize,
    ) -> TimingBreakdown {
        self.estimate_fused_warm_traced(
            stats,
            model_bytes,
            n_records,
            chunk_rows,
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    /// Like [`QueryPipeline::estimate_fused_warm`], but records the warm
    /// fused `Query` spans plus synthesized per-chunk detail.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows` is zero.
    pub fn estimate_fused_warm_traced(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        chunk_rows: usize,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        self.estimate_fused_inner(
            stats,
            model_bytes,
            n_records,
            chunk_rows,
            tracer,
            start,
            true,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn estimate_fused_inner(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        chunk_rows: usize,
        tracer: &Tracer,
        start: SimInstant,
        warm: bool,
    ) -> TimingBreakdown {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let n_chunks = (n_records as usize).div_ceil(chunk_rows);
        let t_scoring = self.fused_scoring_start(start, n_chunks, model_bytes, warm);
        let scoring = self.backend.estimate(stats, n_records, tracer, t_scoring);
        let b = self.assemble_fused(model_bytes, n_records, n_chunks, &scoring, warm);
        if tracer.is_enabled() {
            let chunks = synth_chunks(n_records as usize, chunk_rows);
            self.record_fused_query_spans(
                tracer,
                start,
                model_bytes,
                n_records,
                &chunks,
                &scoring,
                warm,
            );
        }
        b
    }

    fn estimate_inner(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
        warm: bool,
    ) -> TimingBreakdown {
        let t_scoring = self.scoring_start(stats, model_bytes, n_records, start, warm);
        let scoring = self.backend.estimate(stats, n_records, tracer, t_scoring);
        let b = self.assemble_sized(stats, model_bytes, n_records, &scoring, warm);
        if tracer.is_enabled() {
            self.record_query_spans(tracer, start, stats, model_bytes, n_records, &scoring, warm);
        }
        b
    }

    /// The simulated instant at which the backend scoring call begins:
    /// after Python invocation, inbound marshalling, and both
    /// pre-processing stages. The chained additions here mirror the span
    /// chain in `record_query_spans`, so the two stay bit-identical. On the
    /// warm path the bundle is not marshalled and model pre-processing is a
    /// cache probe.
    fn scoring_start(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        start: SimInstant,
        warm: bool,
    ) -> SimInstant {
        let p = &self.params;
        let data_bytes = n_records * stats.row_bytes() as u64;
        let inbound_bytes = if warm {
            data_bytes
        } else {
            data_bytes + model_bytes
        };
        let model_prep = if warm {
            p.cache_lookup
        } else {
            p.model_preprocess_time(model_bytes)
        };
        start
            + p.python_invocation
            + p.marshal_time(n_records, inbound_bytes)
            + model_prep
            + p.data_preprocess_per_byte * data_bytes as f64
    }

    /// The simulated instant at which fused scoring begins: after model
    /// pre-processing (a cache probe when warm) and the per-chunk handoffs.
    /// Mirrors the span chain in `record_fused_query_spans` so the two stay
    /// bit-identical.
    fn fused_scoring_start(
        &self,
        start: SimInstant,
        n_chunks: usize,
        model_bytes: u64,
        warm: bool,
    ) -> SimInstant {
        let p = &self.params;
        let model_prep = if warm {
            p.cache_lookup
        } else {
            p.model_preprocess_time(model_bytes)
        };
        start + model_prep + p.chunk_handoff * n_chunks as f64
    }

    /// Assembles the fused breakdown: no Python invocation, no marshal, no
    /// separate data-pre-processing pass. `DataTransfer` carries only the
    /// per-chunk handoff cost.
    fn assemble_fused(
        &self,
        model_bytes: u64,
        n_records: u64,
        n_chunks: usize,
        scoring: &TimingBreakdown,
        warm: bool,
    ) -> TimingBreakdown {
        let p = &self.params;
        let model_prep = if warm {
            p.cache_lookup
        } else {
            p.model_preprocess_time(model_bytes)
        };
        let mut b = TimingBreakdown::new();
        b.add(Stage::ModelPreprocessing, model_prep);
        b.add(Stage::DataTransfer, p.chunk_handoff * n_chunks as f64);
        b.add(Stage::Scoring, scoring.total());
        b.add(
            Stage::PostProcessing,
            p.postprocess_per_record * n_records as f64,
        );
        b
    }

    /// Records the fused-path `Query` spans (their fold reproduces the
    /// fused breakdown exactly) plus one `"fused chunk"` [`Scope::Detail`]
    /// span per chunk, laid across the scoring interval proportionally to
    /// each chunk's row count.
    #[allow(clippy::too_many_arguments)]
    fn record_fused_query_spans(
        &self,
        tracer: &Tracer,
        start: SimInstant,
        model_bytes: u64,
        n_records: u64,
        chunks: &[StreamChunk],
        scoring: &TimingBreakdown,
        warm: bool,
    ) {
        let p = &self.params;
        let t = if warm {
            tracer
                .span("artifact cache hit", start)
                .stage(Stage::ModelPreprocessing)
                .scope(Scope::Query)
                .track("pipeline", "query")
                .meta("model_bytes", model_bytes.to_string())
                .finish_after(p.cache_lookup)
        } else {
            tracer
                .span("model deserialization", start)
                .stage(Stage::ModelPreprocessing)
                .scope(Scope::Query)
                .track("pipeline", "query")
                .meta("model_bytes", model_bytes.to_string())
                .finish_after(p.model_preprocess_time(model_bytes))
        };
        let t = tracer
            .span("chunk handoff", t)
            .stage(Stage::DataTransfer)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .meta("chunks", chunks.len().to_string())
            .finish_after(p.chunk_handoff * chunks.len() as f64);
        let t_score = t;
        let t = tracer
            .span("scoring", t)
            .stage(Stage::Scoring)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .meta("backend", self.backend.name())
            .meta("records", n_records.to_string())
            .meta("path", "fused")
            .finish_after(scoring.total());
        tracer
            .span("post-processing", t)
            .stage(Stage::PostProcessing)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .finish_after(p.postprocess_per_record * n_records as f64);
        if n_records == 0 {
            return;
        }
        let mut done = 0u64;
        for (i, c) in chunks.iter().enumerate() {
            let at = t_score + scoring.total() * (done as f64 / n_records as f64);
            let dur = scoring.total() * (c.rows as f64 / n_records as f64);
            let mut span = tracer
                .span("fused chunk", at)
                .scope(Scope::Detail)
                .track("pipeline", "chunks")
                .meta("chunk", i.to_string())
                .meta("rows", c.rows.to_string());
            if let Some(kernel) = c.kernel {
                span = span.meta("kernel", kernel);
            }
            span.finish_after(dur);
            done += c.rows as u64;
        }
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
            .meta("model_bytes", model_bytes.to_string())
            .finish_after(timing.deserialize);
        tracer
            .span("lower model", t)
            .stage(Stage::ModelPreprocessing)
            .scope(Scope::Compile)
            .track("pipeline", "compile")
            .meta("backend", self.backend.name())
            .finish_after(timing.lower);
    }

    /// Records one `Query` span per Fig. 11 stage. The outbound marshalling
    /// span is recorded *after* the scoring span (it happens later on the
    /// timeline), which still folds `DataTransfer` in the same
    /// inbound-then-outbound order as `assemble_sized`'s single add.
    #[allow(clippy::too_many_arguments)]
    fn record_query_spans(
        &self,
        tracer: &Tracer,
        start: SimInstant,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        scoring: &TimingBreakdown,
        warm: bool,
    ) {
        let p = &self.params;
        let data_bytes = n_records * stats.row_bytes() as u64;
        let inbound_bytes = if warm {
            data_bytes
        } else {
            data_bytes + model_bytes
        };
        let t = tracer
            .span("python invocation", start)
            .stage(Stage::PythonInvocation)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .finish_after(p.python_invocation);
        let t = tracer
            .span(
                if warm {
                    "marshal records"
                } else {
                    "marshal model + records"
                },
                t,
            )
            .stage(Stage::DataTransfer)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .meta("bytes", inbound_bytes.to_string())
            .finish_after(p.marshal_time(n_records, inbound_bytes));
        let t = if warm {
            tracer
                .span("artifact cache hit", t)
                .stage(Stage::ModelPreprocessing)
                .scope(Scope::Query)
                .track("pipeline", "query")
                .meta("model_bytes", model_bytes.to_string())
                .finish_after(p.cache_lookup)
        } else {
            tracer
                .span("model deserialization", t)
                .stage(Stage::ModelPreprocessing)
                .scope(Scope::Query)
                .track("pipeline", "query")
                .meta("model_bytes", model_bytes.to_string())
                .finish_after(p.model_preprocess_time(model_bytes))
        };
        let t = tracer
            .span("data preprocessing", t)
            .stage(Stage::DataPreprocessing)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .finish_after(p.data_preprocess_per_byte * data_bytes as f64);
        let t = tracer
            .span("scoring", t)
            .stage(Stage::Scoring)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .meta("backend", self.backend.name())
            .meta("records", n_records.to_string())
            .finish_after(scoring.total());
        let t = tracer
            .span("marshal results", t)
            .stage(Stage::DataTransfer)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .finish_after(p.marshal_results_time(n_records));
        tracer
            .span("post-processing", t)
            .stage(Stage::PostProcessing)
            .scope(Scope::Query)
            .track("pipeline", "query")
            .finish_after(p.postprocess_per_record * n_records as f64);
    }

    fn assemble_sized(
        &self,
        stats: &ModelStats,
        model_bytes: u64,
        n_records: u64,
        scoring: &TimingBreakdown,
        warm: bool,
    ) -> TimingBreakdown {
        let p = &self.params;
        let data_bytes = n_records * stats.row_bytes() as u64;
        // SQL -> Python: records, plus the model bundle on the cold path;
        // Python -> SQL: one prediction per record (4 bytes each).
        let inbound_bytes = if warm {
            data_bytes
        } else {
            data_bytes + model_bytes
        };
        let model_prep = if warm {
            p.cache_lookup
        } else {
            p.model_preprocess_time(model_bytes)
        };
        let mut b = TimingBreakdown::new();
        b.add(Stage::PythonInvocation, p.python_invocation);
        b.add(
            Stage::DataTransfer,
            p.marshal_time(n_records, inbound_bytes) + p.marshal_results_time(n_records),
        );
        b.add(Stage::ModelPreprocessing, model_prep);
        b.add(
            Stage::DataPreprocessing,
            p.data_preprocess_per_byte * data_bytes as f64,
        );
        b.add(Stage::Scoring, scoring.total());
        b.add(
            Stage::PostProcessing,
            p.postprocess_per_record * n_records as f64,
        );
        b
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
        chunks.push(StreamChunk { rows, kernel: None });
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

    #[test]
    fn functional_execution_returns_reference_predictions() {
        let (bundle, data, forest) = setup(10, 6);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
        let run = pipeline.execute(&bundle, data.frame()).unwrap();
        assert_eq!(
            run.predictions,
            forest.predict_batch(data.frame().as_slice())
        );
    }

    #[test]
    fn breakdown_contains_all_fig11_stages() {
        let (bundle, data, _) = setup(4, 5);
        let pipeline = QueryPipeline::new(OnnxCpu::single_thread());
        let run = pipeline.execute(&bundle, data.frame()).unwrap();
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
        let b = pipeline.estimate(&stats, bundle.len() as u64, 1);
        assert_eq!(b.dominant().unwrap().0, Stage::PythonInvocation);
    }

    #[test]
    fn corrupt_bundle_fails_in_model_preprocessing() {
        let (_, data, _) = setup(1, 3);
        let bundle = ModelBundle::from_bytes(bytes::Bytes::from_static(b"garbage"));
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(2));
        assert!(matches!(
            pipeline.execute(&bundle, data.frame()),
            Err(PipelineError::Model(_))
        ));
    }

    #[test]
    fn width_mismatch_fails_in_backend() {
        let (bundle, _, _) = setup(1, 3);
        let wrong = TabularFrame::from_rows(vec![0.0; 6], 2).unwrap();
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(2));
        assert!(matches!(
            pipeline.execute(&bundle, &wrong),
            Err(PipelineError::Backend(_))
        ));
    }

    #[test]
    fn traced_execute_reconstructs_both_scopes() {
        let (bundle, data, _) = setup(6, 5);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
        let tracer = Tracer::new();
        let run = pipeline
            .execute_traced(&bundle, data.frame(), &tracer, SimInstant::ZERO)
            .unwrap();
        assert_eq!(run, pipeline.execute(&bundle, data.frame()).unwrap());
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
            .execute_traced(&bundle, data.frame(), &tracer, SimInstant::ZERO)
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
        let slack = mlscore_sim::SimDuration::from_nanos(1.0);
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
            .execute_traced(bundle, frame, &tracer, SimInstant::ZERO)
            .unwrap();
        let staged = workers(&tracer);
        let mut stream = mlscore_data::FrameScanner::new(frame, chunk_rows);
        pipeline
            .execute_fused_traced(bundle, &mut stream, &tracer, SimInstant::ZERO)
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
        let tracer = Tracer::new();
        let traced = pipeline.estimate_traced(
            &stats,
            bundle.len() as u64,
            1_000_000,
            &tracer,
            SimInstant::ZERO,
        );
        assert_eq!(
            traced,
            pipeline.estimate(&stats, bundle.len() as u64, 1_000_000)
        );
        assert_eq!(tracer.take().breakdown(Scope::Query), traced);
    }

    #[test]
    fn cached_execute_hits_and_scores_identically() {
        let (bundle, data, forest) = setup(8, 6);
        let cache = Arc::new(mlscore_backend::ArtifactCache::new(4));
        let pipeline = QueryPipeline::new(OnnxCpu::single_thread()).with_cache(Arc::clone(&cache));
        let cold = pipeline.execute(&bundle, data.frame()).unwrap();
        let warm = pipeline.execute(&bundle, data.frame()).unwrap();
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
            .with_cache(Arc::new(mlscore_backend::ArtifactCache::new(4)));
        let bypass = uncached.execute(&bundle, data.frame()).unwrap();
        let miss = cached.execute(&bundle, data.frame()).unwrap();
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
            .with_cache(Arc::new(mlscore_backend::ArtifactCache::new(4)));

        let tracer = Tracer::new();
        pipeline
            .execute_traced(&bundle, data.frame(), &tracer, SimInstant::ZERO)
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
            .execute_traced(&bundle, data.frame(), &tracer, SimInstant::ZERO)
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
    fn warm_estimate_matches_warm_execute_breakdown() {
        let (bundle, data, forest) = setup(6, 5);
        let pipeline = QueryPipeline::new(OnnxCpu::single_thread())
            .with_cache(Arc::new(mlscore_backend::ArtifactCache::new(4)));
        pipeline.execute(&bundle, data.frame()).unwrap();
        let warm = pipeline.execute(&bundle, data.frame()).unwrap();
        let est = pipeline.estimate_warm(
            &ModelStats::of(&forest),
            bundle.len() as u64,
            data.frame().n_rows() as u64,
        );
        assert_eq!(warm.breakdown, est);
        let cold_est = pipeline.estimate(
            &ModelStats::of(&forest),
            bundle.len() as u64,
            data.frame().n_rows() as u64,
        );
        assert!(est.total() < cold_est.total());
    }

    #[test]
    fn fused_execute_matches_staged_predictions() {
        use mlscore_data::{FrameScanner, NormParams, NormalizeStream};
        let (bundle, data, forest) = setup(10, 6);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
        let staged = pipeline.execute(&bundle, data.frame()).unwrap();
        // Fused featurization: normalize per chunk off the raw frame, with
        // the params the staged path's whole-frame normalize would fit.
        let raw = Dataset::iris(300, 2);
        let params = NormParams::fit(raw.frame());
        let mut stream = NormalizeStream::new(FrameScanner::new(raw.frame(), 64), params);
        let fused = pipeline.execute_fused(&bundle, &mut stream).unwrap();
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
        use mlscore_data::FrameScanner;
        let (bundle, data, _) = setup(8, 6);
        let cache = Arc::new(mlscore_backend::ArtifactCache::new(4));
        let pipeline = QueryPipeline::new(OnnxCpu::with_threads(4)).with_cache(Arc::clone(&cache));
        // Warm the cache so the fused query runs the cache-resident path.
        pipeline.execute(&bundle, data.frame()).unwrap();

        let tracer = Tracer::new();
        let mut stream = FrameScanner::new(data.frame(), 64);
        let run = pipeline
            .execute_fused_traced(&bundle, &mut stream, &tracer, SimInstant::ZERO)
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

    #[test]
    fn fused_estimate_matches_fused_execute_breakdown() {
        use mlscore_data::FrameScanner;
        let (bundle, data, forest) = setup(6, 5);
        let cache = Arc::new(mlscore_backend::ArtifactCache::new(4));
        let pipeline = QueryPipeline::new(OnnxCpu::single_thread()).with_cache(Arc::clone(&cache));
        let stats = ModelStats::of(&forest);

        let mut stream = FrameScanner::new(data.frame(), 64);
        let cold = pipeline.execute_fused(&bundle, &mut stream).unwrap();
        assert_eq!(
            cold.breakdown,
            pipeline.estimate_fused(&stats, bundle.len() as u64, 300, 64)
        );

        let mut stream = FrameScanner::new(data.frame(), 64);
        let warm = pipeline.execute_fused(&bundle, &mut stream).unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(
            warm.breakdown,
            pipeline.estimate_fused_warm(&stats, bundle.len() as u64, 300, 64)
        );
        // Fused warm ≤ staged warm: the handoff never exceeds the marshal.
        assert!(
            pipeline
                .estimate_fused_warm(&stats, bundle.len() as u64, 300, 64)
                .total()
                < pipeline
                    .estimate_warm(&stats, bundle.len() as u64, 300)
                    .total()
        );
    }

    #[test]
    fn estimate_matches_execute_breakdown() {
        let (bundle, data, forest) = setup(6, 5);
        let pipeline = QueryPipeline::new(SklearnCpu::with_threads(4));
        let run = pipeline.execute(&bundle, data.frame()).unwrap();
        let est = pipeline.estimate(
            &ModelStats::of(&forest),
            bundle.len() as u64,
            data.frame().n_rows() as u64,
        );
        assert_eq!(run.breakdown, est);
    }
}

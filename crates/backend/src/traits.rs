//! The [`ScoringBackend`] trait.

use mlscore_data::{FrameScanner, RecordStream, TabularFrame};
use mlscore_exec::RunReport;
use mlscore_forest::{ModelStats, RandomForest};
use mlscore_sim::{SimDuration, SimInstant, TimingBreakdown};
use mlscore_telemetry::Tracer;

use crate::artifact::{Lowered, ModelRef};
use crate::error::BackendError;

/// One chunk scored off a [`RecordStream`] by [`ScoringBackend::score`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamChunk {
    /// Rows in the chunk.
    pub rows: usize,
}

/// The result of scoring a [`RecordStream`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamOutcome {
    /// One class id per streamed record, in pull order.
    pub predictions: Vec<u32>,
    /// Total rows scored.
    pub rows: usize,
    /// Per-chunk accounting, in pull order.
    pub chunks: Vec<StreamChunk>,
}

/// A hardware backend that can score random forest batches.
///
/// Implementations are *functionally real* — [`ScoringBackend::score`]
/// computes actual predictions — while [`ScoringBackend::estimate`] reports
/// the backend's deterministic, calibrated timing model. Keeping the two
/// separate lets property tests assert prediction agreement across wildly
/// different execution strategies, while figure generation runs entirely on
/// modelled time.
///
/// Every backend writes its scoring once and its cost model once. Scoring
/// is split into a *compile* phase ([`ScoringBackend::lower`], run by
/// [`compile`](crate::compile) or [`score_once`]) and a *score* phase
/// ([`ScoringBackend::score`]) that pulls a [`RecordStream`]; a staged,
/// whole-batch call is a one-chunk stream ([`FrameScanner::whole`]).
/// Tracing is a parameter of both `score` and `estimate`: untraced callers
/// pass `&Tracer::disabled(), SimInstant::ZERO`.
///
/// The trait is object-safe; schedulers hold `Box<dyn ScoringBackend>`.
pub trait ScoringBackend {
    /// Short name matching the paper's figure legends (e.g.
    /// `"CPU_SKLearn"`, `"GPU-HB"`, `"FPGA"`).
    fn name(&self) -> &str;

    /// Checks whether this backend can run the given model.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Unsupported`] with the reason (e.g.
    /// GPU-RAPIDS rejects non-binary classification; the FPGA engine rejects
    /// trees deeper than its configured capacity).
    fn supports(&self, stats: &ModelStats) -> Result<(), BackendError> {
        let _ = stats;
        Ok(())
    }

    /// Fingerprint of every configuration knob that changes what
    /// [`ScoringBackend::lower`] produces — the third component of the
    /// artifact-cache key. Backends whose lowering has no knobs (the
    /// default) return an empty string.
    fn cache_config(&self) -> String {
        String::new()
    }

    /// Compiles a deserialized model into this backend's scoring
    /// representation.
    ///
    /// The default is [`Lowered::Reference`] — score the pointer trees
    /// as-is, nothing to pre-compute.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the model cannot be lowered (e.g. a
    /// tree exceeds the FPGA engine's depth capacity).
    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        let _ = forest;
        Ok(Lowered::Reference)
    }

    /// Functionally scores every chunk of `stream` against `model`, a
    /// lowered model already checked against this backend and the
    /// stream's width ([`CompiledModel::bind`](crate::CompiledModel::bind)).
    ///
    /// Predictions are bit-exact with scoring the stream's records as one
    /// frame, and `chunks` reports each pulled chunk in order. CPU backends
    /// feed chunks straight into their kernels; offload devices, whose
    /// transfer granularity is the whole batch, gather the stream first
    /// ([`score_whole_batch`]).
    ///
    /// Backends executing on the shared
    /// [`ExecPool`](mlscore_exec::ExecPool) record one measured
    /// [`Scope::Detail`](mlscore_telemetry::Scope::Detail) span per pool
    /// worker on `tracer`, anchored at `start` on the simulated timeline
    /// (1 ns measured ↦ 1 ns simulated), so a Perfetto trace shows the
    /// pool's real occupancy. Detail spans are ignored by breakdown folds,
    /// so modelled accounting is unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Artifact`] when `model`'s lowered form is
    /// not one this backend produces, or [`BackendError::Unsupported`] for
    /// models it cannot run.
    fn score(
        &self,
        model: ModelRef<'_>,
        stream: &mut dyn RecordStream,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<StreamOutcome, BackendError>;

    /// Estimates the *overall model scoring time* breakdown (the Fig. 7
    /// quantity: everything from invoking the scoring call to having results
    /// in host memory) for scoring `n_records` with a model of the given
    /// shape, recording the offload stages as
    /// [`Scope::Offload`](mlscore_telemetry::Scope::Offload) spans on
    /// `tracer` from `start` on the simulated timeline.
    ///
    /// The contract every implementation upholds: folding the recorded
    /// `Offload` spans in recording order —
    /// [`Trace::breakdown`](mlscore_telemetry::Trace::breakdown) — yields a
    /// breakdown **equal** to the returned one, stage order and `f64` sums
    /// included, and the result never depends on whether `tracer` is
    /// enabled. Every backend here gets that by construction: it opens
    /// each stage once on a
    /// [`StageRecorder`](mlscore_telemetry::StageRecorder) and returns the
    /// recorder's breakdown. Backends with internal structure worth seeing
    /// (FPGA passes, PCIe streams, CPU workers) additionally record
    /// [`Scope::Detail`](mlscore_telemetry::Scope::Detail) spans with plain
    /// [`Tracer::span`], which breakdowns ignore.
    fn estimate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown;
}

/// Lowers `forest` for `backend` and scores `frame` as one staged call —
/// the compile-on-every-call path for callers without a compiled artifact.
/// The forest is lowered in place: never cloned, never serialized.
///
/// # Errors
///
/// Propagates [`ScoringBackend::lower`] failures; a frame whose width
/// differs from the model's is [`BackendError::Artifact`], exactly as on
/// the compiled path.
pub fn score_once<B: ScoringBackend + ?Sized>(
    backend: &B,
    forest: &RandomForest,
    frame: &TabularFrame,
) -> Result<Vec<u32>, BackendError> {
    let lowered = backend.lower(forest)?;
    let model = ModelRef::bind(
        backend.name(),
        forest,
        &lowered,
        backend.name(),
        frame.n_features(),
    )?;
    let mut stream = FrameScanner::whole(frame);
    let out = backend.score(model, &mut stream, &Tracer::disabled(), SimInstant::ZERO)?;
    Ok(out.predictions)
}

/// Drains `stream` into one frame and scores it with `score_frame` — the
/// [`ScoringBackend::score`] body of offload devices, whose transfer
/// granularity is the whole batch. A stream that yields everything in one
/// chunk (a staged call) is scored in place, without a copy.
///
/// # Errors
///
/// Propagates `score_frame`'s error.
pub fn score_whole_batch(
    stream: &mut dyn RecordStream,
    score_frame: impl FnOnce(&TabularFrame) -> Result<Vec<u32>, BackendError>,
) -> Result<StreamOutcome, BackendError> {
    let total = match stream.size_hint() {
        (lower, Some(upper)) if lower == upper => Some(lower),
        _ => None,
    };
    let mut frame = TabularFrame::with_capacity(0, stream.n_features());
    let mut chunks = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        if chunks.is_empty() {
            let rows = chunk.n_rows();
            if total == Some(rows) {
                return Ok(StreamOutcome {
                    predictions: score_frame(chunk)?,
                    rows,
                    chunks: vec![StreamChunk { rows }],
                });
            }
            frame = TabularFrame::with_capacity(total.unwrap_or(rows), chunk.n_features());
        }
        frame.extend_rows(chunk.as_slice());
        chunks.push(StreamChunk {
            rows: chunk.n_rows(),
        });
    }
    Ok(StreamOutcome {
        predictions: score_frame(&frame)?,
        rows: frame.n_rows(),
        chunks,
    })
}

/// Scores `stream` chunk by chunk with `score_chunk` — the
/// [`ScoringBackend::score`] body of the CPU backends, whose kernels run on
/// the shared [`ExecPool`](mlscore_exec::ExecPool) — and records each
/// chunk's measured worker spans on `tracer` under `lane`, the chunks' runs
/// laid back to back from `start` by their measured elapsed times.
///
/// Every record is fully scored within exactly one chunk and both kernels
/// are bit-exact at any batch size, so appending chunk predictions in pull
/// order reproduces the whole-frame result bit for bit. Empty chunks are
/// skipped; a stream that yields no rows never calls `score_chunk`.
pub(crate) fn score_on_pool(
    stream: &mut dyn RecordStream,
    tracer: &Tracer,
    start: SimInstant,
    lane: &str,
    mut score_chunk: impl FnMut(&TabularFrame) -> (Vec<u32>, RunReport),
) -> StreamOutcome {
    let mut out = StreamOutcome::default();
    let mut at = start;
    while let Some(chunk) = stream.next_chunk() {
        if chunk.is_empty() {
            continue;
        }
        let (predictions, run) = score_chunk(chunk);
        run.record_spans(tracer, at, lane);
        at += SimDuration::from_secs(run.elapsed().as_secs_f64());
        out.predictions.extend_from_slice(&predictions);
        out.rows += chunk.n_rows();
        out.chunks.push(StreamChunk {
            rows: chunk.n_rows(),
        });
    }
    out
}

/// Blanket impl so `Box<dyn ScoringBackend>` works wherever a backend does.
impl<B: ScoringBackend + ?Sized> ScoringBackend for Box<B> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn supports(&self, stats: &ModelStats) -> Result<(), BackendError> {
        (**self).supports(stats)
    }

    fn cache_config(&self) -> String {
        (**self).cache_config()
    }

    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        (**self).lower(forest)
    }

    fn score(
        &self,
        model: ModelRef<'_>,
        stream: &mut dyn RecordStream,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<StreamOutcome, BackendError> {
        (**self).score(model, stream, tracer, start)
    }

    fn estimate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        (**self).estimate(stats, n_records, tracer, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::compile;
    use crate::OnnxCpu;
    use mlscore_data::Dataset;
    use mlscore_exec::{
        score_forest_batch, score_simd_batch, ExecPool, FlatImage, RunConfig, SimdLevel,
    };
    use mlscore_forest::{ForestConfig, ModelBundle};
    use mlscore_telemetry::Scope;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_b: &dyn ScoringBackend) {}
    }

    /// A backend that echoes each row's first feature, so chunk order
    /// matters, and scores through the whole-batch helper.
    struct Echo;

    impl ScoringBackend for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn score(
            &self,
            _model: ModelRef<'_>,
            stream: &mut dyn RecordStream,
            _tracer: &Tracer,
            _start: SimInstant,
        ) -> Result<StreamOutcome, BackendError> {
            score_whole_batch(stream, |frame| {
                Ok(frame.rows().map(|r| r[0] as u32).collect())
            })
        }

        fn estimate(
            &self,
            _stats: &ModelStats,
            _n_records: u64,
            _tracer: &Tracer,
            _start: SimInstant,
        ) -> TimingBreakdown {
            TimingBreakdown::new()
        }
    }

    #[test]
    fn whole_batch_helper_gathers_chunks_in_order() {
        let backend = Echo;
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(2, 4, 2).with_depth(3), 1);
        let model = compile(&backend, &ModelBundle::serialize(&forest)).unwrap();
        assert!(matches!(model.lowered(), Lowered::Reference));
        let frame = TabularFrame::from_rows((0..40).map(|i| i as f32).collect(), 4).unwrap();
        let staged = score_once(&backend, &forest, &frame).unwrap();
        for chunk_rows in [3, 10] {
            let mut scanner = FrameScanner::new(&frame, chunk_rows);
            let bound = model.bind(backend.name(), 4).unwrap();
            let outcome = backend
                .score(bound, &mut scanner, &Tracer::disabled(), SimInstant::ZERO)
                .unwrap();
            assert_eq!(outcome.rows, 10);
            assert_eq!(outcome.chunks.len(), 10usize.div_ceil(chunk_rows));
            assert_eq!(outcome.predictions, staged);
        }
        // Compiled for "echo" — another backend, or another width, is
        // refused before any pull.
        let err = model.bind("other", 4).unwrap_err();
        assert!(matches!(err, BackendError::Artifact { .. }));
        let err = model.bind(backend.name(), 3).unwrap_err();
        assert!(matches!(err, BackendError::Artifact { .. }));
    }

    #[test]
    fn boxed_backend_forwards_every_method() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(6, 4, 3).with_depth(5), 2);
        let stats = ModelStats::of(&forest);
        let data = Dataset::iris(70, 3).normalized();
        let unboxed = OnnxCpu::with_threads(2);
        let boxed: Box<dyn ScoringBackend> = Box::new(OnnxCpu::with_threads(2));

        assert_eq!(boxed.name(), unboxed.name());
        assert_eq!(boxed.supports(&stats), unboxed.supports(&stats));
        assert_eq!(boxed.cache_config(), unboxed.cache_config());
        assert_eq!(
            format!("{:?}", boxed.lower(&forest).unwrap()),
            format!("{:?}", unboxed.lower(&forest).unwrap())
        );

        let model = compile(&unboxed, &ModelBundle::serialize(&forest)).unwrap();
        let run = |b: &dyn ScoringBackend, tracer: &Tracer| {
            let bound = model.bind(b.name(), 4).unwrap();
            let mut scanner = FrameScanner::new(data.frame(), 16);
            b.score(bound, &mut scanner, tracer, SimInstant::ZERO)
                .unwrap()
        };
        let (boxed_trace, unboxed_trace) = (Tracer::new(), Tracer::new());
        assert_eq!(run(&boxed, &boxed_trace), run(&unboxed, &unboxed_trace));
        let workers = |t: &Tracer| {
            t.take()
                .events()
                .iter()
                .filter(|e| e.scope == Scope::Detail && e.name.starts_with("exec worker"))
                .count()
        };
        assert!(workers(&boxed_trace) >= 1, "boxed score records workers");
        assert!(workers(&unboxed_trace) >= 1);

        let (boxed_trace, unboxed_trace) = (Tracer::new(), Tracer::new());
        let b = boxed.estimate(&stats, 10_000, &boxed_trace, SimInstant::ZERO);
        assert_eq!(
            b,
            unboxed.estimate(&stats, 10_000, &unboxed_trace, SimInstant::ZERO)
        );
        assert_eq!(boxed_trace.take().breakdown(Scope::Offload), b);
        assert_eq!(unboxed_trace.take().breakdown(Scope::Offload), b);
    }

    fn kernel_setup() -> (RandomForest, FlatImage, Dataset) {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(16, 4, 3).with_depth(6), 7);
        let image = FlatImage::from_forest(&forest, 6).unwrap();
        (forest, image, Dataset::iris(333, 9).normalized())
    }

    #[test]
    fn pool_loop_scores_both_kernels_chunk_by_chunk() {
        let (forest, image, data) = kernel_setup();
        let want = forest.predict_batch(data.frame().as_slice());
        let cfg = RunConfig::for_threads(2);
        let level = SimdLevel::detect();
        for chunk_rows in [1, 7, 64, 1000] {
            let chunks = 333usize.div_ceil(chunk_rows);
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let out = score_on_pool(
                &mut scanner,
                &Tracer::disabled(),
                SimInstant::ZERO,
                "cpu",
                |c| score_simd_batch(&image, c, ExecPool::global(), &cfg, level),
            );
            assert_eq!(out.predictions, want, "simd chunk_rows={chunk_rows}");
            assert_eq!((out.rows, out.chunks.len()), (333, chunks));
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let out = score_on_pool(
                &mut scanner,
                &Tracer::disabled(),
                SimInstant::ZERO,
                "cpu",
                |c| score_forest_batch(&forest, c, ExecPool::global(), &cfg),
            );
            assert_eq!(out.predictions, want, "forest chunk_rows={chunk_rows}");
            assert_eq!((out.rows, out.chunks.len()), (333, chunks));
        }
    }

    #[test]
    fn pool_loop_lays_chunk_runs_back_to_back() {
        let (forest, _, data) = kernel_setup();
        let cfg = RunConfig::for_threads(2);
        let tracer = Tracer::new();
        let mut scanner = FrameScanner::new(data.frame(), 64);
        let out = score_on_pool(&mut scanner, &tracer, SimInstant::ZERO, "cpu", |c| {
            score_forest_batch(&forest, c, ExecPool::global(), &cfg)
        });
        let trace = tracer.take();
        let spans: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.scope == Scope::Detail && e.name.starts_with("exec worker"))
            .collect();
        assert!(
            spans.len() >= out.chunks.len(),
            "{} worker spans",
            spans.len()
        );
        // Each chunk's run starts where the previous one's elapsed time
        // ended, so a worker's spans never overlap across chunks.
        for (i, later) in spans.iter().enumerate() {
            for earlier in spans[..i].iter().filter(|e| e.name == later.name) {
                assert!(earlier.start + earlier.dur <= later.start, "{}", later.name);
            }
        }
    }

    #[test]
    fn pool_loop_skips_an_empty_stream() {
        let frame = TabularFrame::from_rows(vec![], 4).unwrap();
        let tracer = Tracer::new();
        let mut scanner = FrameScanner::new(&frame, 8);
        let out = score_on_pool(&mut scanner, &tracer, SimInstant::ZERO, "cpu", |_| {
            unreachable!("an empty stream has no chunk to score")
        });
        assert_eq!(out, StreamOutcome::default());
        assert!(tracer.take().is_empty());
    }
}

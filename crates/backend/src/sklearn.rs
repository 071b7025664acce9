//! The scikit-learn-like CPU backend ("CPU_SKLearn").
//!
//! Functionally, a blocked multi-threaded tree traversal on the shared
//! work-stealing [`ExecPool`] (spawned once per process, reused across
//! calls). The timing model mirrors what the paper measured for
//! scikit-learn batch scoring: a ~1 ms per-call overhead (the Python-side
//! dispatch that makes sklearn lose to ONNX below a few thousand records),
//! a fixed per-record cost (vote aggregation, output assembly), and a
//! per-node-visit cost from the cache model, divided by the effective
//! thread parallelism.

use serde::{Deserialize, Serialize};

use mlscore_data::RecordStream;
use mlscore_exec::{score_forest_batch, ExecPool, RunConfig};
use mlscore_forest::ModelStats;
use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::{Scope, Tracer};

use crate::artifact::ModelRef;
use crate::cost::{effective_parallelism, CpuSpec};
use crate::error::BackendError;
use crate::traits::{score_on_pool, ScoringBackend, StreamOutcome};

/// Timing-model constants for the sklearn-like engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SklearnCostParams {
    /// Fixed cost of one scoring call (Python dispatch, array setup).
    pub call_overhead: SimDuration,
    /// Fixed per-record cost (vote accumulation, result assembly).
    pub per_record: SimDuration,
    /// Additional per-record cost per feature column — the Python/NumPy row
    /// handling tax that makes wide HIGGS rows far more expensive per
    /// record than narrow IRIS rows (visible in the paper's 1-tree curves).
    pub per_record_per_feature: SimDuration,
}

impl Default for SklearnCostParams {
    fn default() -> Self {
        Self {
            call_overhead: SimDuration::from_millis(1.0),
            per_record: SimDuration::from_nanos(350.0),
            per_record_per_feature: SimDuration::from_nanos(100.0),
        }
    }
}

/// The "CPU_SKLearn" backend: batch-optimized, multi-threaded traversal.
///
/// # Example
///
/// ```
/// use mlscore_backend::{score_once, SklearnCpu};
/// use mlscore_data::Dataset;
/// use mlscore_forest::{ForestConfig, RandomForest};
///
/// let forest = RandomForest::synthetic_full(
///     &ForestConfig::classification(8, 4, 3).with_depth(6),
///     3,
/// );
/// let data = Dataset::iris(64, 5).normalized();
/// let backend = SklearnCpu::with_threads(4);
/// let preds = score_once(&backend, &forest, data.frame())?;
/// assert_eq!(preds.len(), 64);
/// # Ok::<(), mlscore_backend::BackendError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SklearnCpu {
    spec: CpuSpec,
    threads: usize,
    params: SklearnCostParams,
    name: String,
}

impl SklearnCpu {
    /// The paper's configuration: the Xeon 8171M with 52 threads.
    pub fn paper_default() -> Self {
        Self::with_threads(52)
    }

    /// A backend on the paper's Xeon with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(CpuSpec::xeon_8171m(), threads, SklearnCostParams::default())
    }

    /// Fully custom construction.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(spec: CpuSpec, threads: usize, params: SklearnCostParams) -> Self {
        assert!(threads > 0, "need at least one thread");
        let name = if threads == 1 {
            "CPU_SKLearn_1th".to_string()
        } else {
            format!("CPU_SKLearn_{threads}th")
        };
        Self {
            spec,
            threads,
            params,
            name,
        }
    }

    /// Executor configuration for one scoring call.
    fn run_config(&self) -> RunConfig {
        RunConfig::for_threads(self.threads)
    }
}

impl ScoringBackend for SklearnCpu {
    fn name(&self) -> &str {
        &self.name
    }

    // sklearn has no lowering step — the batch kernel walks the pointer
    // trees directly, so the default `lower` (Lowered::Reference) holds and
    // compile/warm scoring differ only in the skipped deserialize.
    //
    // Each pulled chunk is scored by the pointer-tree batch kernel and the
    // per-chunk predictions fold in pull order — bit-exact with one
    // whole-frame call since every record is fully scored within one chunk.
    fn score(
        &self,
        model: ModelRef<'_>,
        stream: &mut dyn RecordStream,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<StreamOutcome, BackendError> {
        let forest = model.forest();
        let cfg = self.run_config();
        Ok(score_on_pool(stream, tracer, start, self.name(), |chunk| {
            score_forest_batch(forest, chunk, ExecPool::global(), &cfg)
        }))
    }

    fn estimate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        let per_record = self.params.per_record
            + self.params.per_record_per_feature * stats.n_features as f64
            + self.spec.row_load_cost(stats)
            + self.spec.visit_cost(stats) * stats.visits_per_record();
        let parallel = effective_parallelism(self.threads, n_records);
        let compute = per_record * (n_records as f64 / parallel);
        let mut b = TimingBreakdown::new();
        b.add(Stage::SoftwareOverhead, self.params.call_overhead);
        b.add(Stage::Scoring, compute);

        let t = tracer
            .span("python dispatch", start)
            .stage(Stage::SoftwareOverhead)
            .scope(Scope::Offload)
            .track(self.name(), "offload")
            .meta("backend", self.name())
            .finish_after(self.params.call_overhead);
        tracer
            .span("batch traversal", t)
            .stage(Stage::Scoring)
            .scope(Scope::Offload)
            .track(self.name(), "offload")
            .meta("threads", self.threads.to_string())
            .finish_after(compute);
        if tracer.is_enabled() {
            // Worker lanes: the batch is chunked across threads that all run
            // for (modelled) the same duration.
            let workers = self
                .threads
                .min(n_records.max(1) as usize)
                .min(MAX_WORKER_LANES);
            for w in 0..workers {
                tracer
                    .span(format!("chunk {w}"), t)
                    .track(self.name(), format!("worker{w}"))
                    .meta("records", (n_records / workers as u64).to_string())
                    .finish_after(compute);
            }
        }
        b
    }
}

/// Cap on per-worker detail lanes so a 52-thread trace stays readable.
const MAX_WORKER_LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::score_once;
    use mlscore_data::{Dataset, FrameScanner};
    use mlscore_forest::{ForestConfig, RandomForest};

    fn iris_setup() -> (RandomForest, Dataset) {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(12, 4, 3).with_depth(7), 9);
        (forest, Dataset::iris(257, 4).normalized())
    }

    #[test]
    fn multithreaded_matches_reference() {
        let (forest, data) = iris_setup();
        let preds = score_once(&SklearnCpu::with_threads(8), &forest, data.frame()).unwrap();
        let reference = forest.predict_batch(data.frame().as_slice());
        assert_eq!(preds, reference);
    }

    #[test]
    fn single_thread_matches_reference() {
        let (forest, data) = iris_setup();
        let preds = score_once(&SklearnCpu::with_threads(1), &forest, data.frame()).unwrap();
        assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
    }

    #[test]
    fn regression_scoring_works() {
        let forest = RandomForest::synthetic_full(&ForestConfig::regression(6, 3).with_depth(5), 2);
        let frame = mlscore_data::TabularFrame::from_rows(
            (0..60).map(|i| (i as f32 * 0.31) % 1.0).collect(),
            3,
        )
        .unwrap();
        let preds = score_once(&SklearnCpu::with_threads(3), &forest, &frame).unwrap();
        assert_eq!(preds, forest.predict_batch(frame.as_slice()));
    }

    #[test]
    fn stream_scoring_matches_staged() {
        use mlscore_forest::ModelBundle;
        let (forest, data) = iris_setup();
        let bundle = ModelBundle::serialize(&forest);
        let backend = SklearnCpu::with_threads(4);
        let model = crate::artifact::compile(&backend, &bundle).unwrap();
        let want = score_once(&backend, &forest, data.frame()).unwrap();
        for chunk_rows in [1, 13, 512] {
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let bound = model.bind(backend.name(), 4).unwrap();
            let out = backend
                .score(bound, &mut scanner, &Tracer::disabled(), SimInstant::ZERO)
                .unwrap();
            assert_eq!(out.predictions, want, "chunk_rows={chunk_rows}");
            assert_eq!(out.rows, data.frame().n_rows());
        }
    }

    #[test]
    fn estimate_has_call_overhead_floor() {
        let (forest, _) = iris_setup();
        let stats = ModelStats::of(&forest);
        let b =
            SklearnCpu::paper_default().estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO);
        assert!(b.total() >= SimDuration::from_millis(1.0));
        assert!(b.get(Stage::SoftwareOverhead) >= SimDuration::from_millis(1.0));
    }

    #[test]
    fn estimate_scales_roughly_linearly_at_large_n() {
        let (forest, _) = iris_setup();
        let stats = ModelStats::of(&forest);
        let backend = SklearnCpu::paper_default();
        let t1 = backend
            .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .get(Stage::Scoring);
        let t2 = backend
            .estimate(&stats, 2_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .get(Stage::Scoring);
        assert!((t2.ratio(t1) - 2.0).abs() < 0.01);
    }

    #[test]
    fn more_threads_score_faster_in_model() {
        let (forest, _) = iris_setup();
        let stats = ModelStats::of(&forest);
        let t1 = SklearnCpu::with_threads(1)
            .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let t52 = SklearnCpu::with_threads(52)
            .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        assert!(t1.ratio(t52) > 20.0);
    }

    #[test]
    fn name_reflects_threads() {
        assert_eq!(SklearnCpu::paper_default().name(), "CPU_SKLearn_52th");
        assert_eq!(SklearnCpu::with_threads(1).name(), "CPU_SKLearn_1th");
        assert_eq!(SklearnCpu::with_threads(4).name(), "CPU_SKLearn_4th");
    }

    #[test]
    fn traced_estimate_reconstructs_exactly() {
        let (forest, _) = iris_setup();
        let stats = ModelStats::of(&forest);
        let backend = SklearnCpu::with_threads(4);
        let tracer = Tracer::new();
        let traced = backend.estimate(&stats, 10_000, &tracer, SimInstant::ZERO);
        assert_eq!(
            traced,
            backend.estimate(&stats, 10_000, &Tracer::disabled(), SimInstant::ZERO)
        );
        let trace = tracer.take();
        assert_eq!(trace.breakdown(Scope::Offload), traced);
        // 2 offload spans + 4 worker detail lanes.
        assert_eq!(trace.len(), 6);
    }

    #[test]
    fn traced_score_records_worker_detail_spans() {
        let (forest, data) = iris_setup();
        let backend = SklearnCpu::with_threads(4);
        let lowered = backend.lower(&forest).unwrap();
        let model = ModelRef::bind(backend.name(), &forest, &lowered, backend.name(), 4).unwrap();
        let tracer = Tracer::new();
        let out = backend
            .score(
                model,
                &mut FrameScanner::whole(data.frame()),
                &tracer,
                SimInstant::ZERO,
            )
            .unwrap();
        assert_eq!(
            out.predictions,
            forest.predict_batch(data.frame().as_slice())
        );
        let trace = tracer.take();
        assert!(!trace.is_empty(), "expected worker spans");
        assert!(trace.events().iter().all(|e| e.scope == Scope::Detail));
        // Detail spans never perturb the modelled breakdown folds.
        assert!(trace.breakdown(Scope::Offload).total().as_secs() == 0.0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (forest, _) = iris_setup();
        let frame = mlscore_data::TabularFrame::from_rows(vec![], 4).unwrap();
        let preds = score_once(&SklearnCpu::with_threads(4), &forest, &frame).unwrap();
        assert!(preds.is_empty());
    }
}

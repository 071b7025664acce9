//! The ONNX-runtime-like CPU backend ("CPU_ONNX" / "CPU_ONNX_52th").
//!
//! Functionally, this engine first compiles the forest into the Fig. 4b
//! flat layout — the same image the FPGA consumes — re-encoded as a
//! [`FlatImage`], and scores it with the SIMD lane walker on the shared
//! [`ExecPool`]. Its timing model captures the paper's
//! observation that ONNX "is not currently optimized for batch
//! scoring": the per-call overhead is small (it wins below ~5K records),
//! but the per-record cost is higher than scikit-learn's batch path, so
//! it loses at large batches.

use std::sync::Arc;

use mlscore_data::RecordStream;
use mlscore_exec::{score_simd_batch, ExecPool, FlatImage, RunConfig, SimdLevel};
use mlscore_forest::{ModelStats, RandomForest};
use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::{Scope, StageRecorder, Tracer};

use crate::artifact::{Lowered, ModelRef};
use crate::cost::{effective_parallelism, CpuSpec};
use crate::error::BackendError;
use crate::traits::{score_on_pool, ScoringBackend, StreamOutcome};

/// Timing-model constants for the ONNX-like engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnnxCostParams {
    /// Fixed cost of one scoring call (runtime session dispatch).
    pub call_overhead: SimDuration,
    /// Fixed per-record cost (per-record graph execution, no batch
    /// amortization).
    pub per_record: SimDuration,
    /// Multiplier on the cache-model visit cost relative to sklearn's batch
    /// path (flat records are 16 B vs. pointer nodes, roughly a wash).
    pub visit_factor: f64,
    /// Per-extra-thread cost of spinning up and joining the intra-op thread
    /// pool; ONNX's batch path parallelizes poorly, so wide thread counts
    /// pay a substantial fixed dispatch cost per call.
    pub thread_spinup: SimDuration,
}

impl Default for OnnxCostParams {
    fn default() -> Self {
        Self {
            call_overhead: SimDuration::from_micros(150.0),
            per_record: SimDuration::from_nanos(180.0),
            visit_factor: 1.0,
            thread_spinup: SimDuration::from_micros(17.0),
        }
    }
}

/// The ONNX-like CPU backend scoring over the flat node layout.
///
/// # Example
///
/// ```
/// use mlscore_backend::{score_once, OnnxCpu};
/// use mlscore_data::Dataset;
/// use mlscore_forest::{ForestConfig, RandomForest};
///
/// let forest = RandomForest::synthetic_full(
///     &ForestConfig::classification(4, 28, 2).with_depth(6),
///     1,
/// );
/// let data = Dataset::higgs(32, 9).normalized();
/// let preds = score_once(&OnnxCpu::single_thread(), &forest, data.frame())?;
/// assert_eq!(preds.len(), 32);
/// # Ok::<(), mlscore_backend::BackendError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnnxCpu {
    spec: CpuSpec,
    threads: usize,
    params: OnnxCostParams,
    name: String,
}

impl OnnxCpu {
    /// The paper's "CPU_ONNX": single-threaded.
    pub fn single_thread() -> Self {
        Self::with_threads(1)
    }

    /// The paper's "CPU_ONNX_52th": 52 threads.
    pub fn paper_52th() -> Self {
        Self::with_threads(52)
    }

    /// A backend on the paper's Xeon with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(CpuSpec::xeon_8171m(), threads, OnnxCostParams::default())
    }

    /// Fully custom construction.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(spec: CpuSpec, threads: usize, params: OnnxCostParams) -> Self {
        assert!(threads > 0, "need at least one thread");
        let name = if threads == 1 {
            "CPU_ONNX".to_string()
        } else {
            format!("CPU_ONNX_{threads}th")
        };
        Self {
            spec,
            threads,
            params,
            name,
        }
    }

    /// Executor configuration for one scoring call. ONNX parallelizes
    /// across the ensemble's trees, so the worker count is additionally
    /// capped at the tree count (a single-tree model runs one thread).
    fn run_config(&self, n_trees: usize) -> RunConfig {
        RunConfig::for_threads(self.threads.min(n_trees.max(1)))
    }

    /// Extracts the flat image this backend lowers to.
    fn image_of<'a>(&self, lowered: &'a Lowered) -> Result<&'a FlatImage, BackendError> {
        match lowered {
            Lowered::Flat(image) => Ok(image),
            other => Err(BackendError::artifact(
                self.name(),
                format!("expected a flat image artifact, got {other:?}"),
            )),
        }
    }
}

impl ScoringBackend for OnnxCpu {
    fn name(&self) -> &str {
        &self.name
    }

    // Lowering compiles the forest into the pre-decoded flat image once.
    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        let image = FlatImage::from_forest(forest, forest.max_depth())?;
        Ok(Lowered::Flat(Arc::new(image)))
    }

    // Scoring pulls straight off the stream: every chunk goes to the SIMD
    // lane walker at the tier the host supports, read once per call.
    fn score(
        &self,
        model: ModelRef<'_>,
        stream: &mut dyn RecordStream,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<StreamOutcome, BackendError> {
        let image = self.image_of(model.lowered())?;
        let cfg = self.run_config(model.forest().n_trees());
        let level = SimdLevel::detect();
        Ok(score_on_pool(stream, tracer, start, self.name(), |chunk| {
            score_simd_batch(image, chunk, ExecPool::global(), &cfg, level)
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
            + self.spec.row_load_cost(stats)
            + self.spec.visit_cost(stats) * (stats.visits_per_record() * self.params.visit_factor);
        // ONNX parallelizes *within* one inference (across the ensemble's
        // trees), not across batch rows — a single-tree model gains nothing
        // from 52 threads, which is why the paper's best CPU for 1-tree
        // models is scikit-learn.
        let usable_threads = self.threads.min(stats.n_trees.max(1));
        let parallel = effective_parallelism(usable_threads, n_records);
        let compute = per_record * (n_records as f64 / parallel);
        let spinup = self.params.thread_spinup * (self.threads.saturating_sub(1)) as f64;

        let mut rec = StageRecorder::new(tracer, self.name(), Scope::Offload);
        let mut t = rec
            .span("session dispatch", Stage::SoftwareOverhead, start)
            .meta("backend", self.name())
            .finish_after(self.params.call_overhead);
        if self.threads > 1 {
            t = rec
                .span("thread-pool spinup", Stage::SoftwareOverhead, t)
                .meta("threads", self.threads)
                .finish_after(spinup);
        }
        rec.span("flat-forest traversal", Stage::Scoring, t)
            .meta("usable_threads", usable_threads)
            .finish_after(compute);
        rec.into_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::score_once;
    use mlscore_data::Dataset;
    use mlscore_forest::ForestConfig;

    fn higgs_setup() -> (RandomForest, Dataset) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(10, 28, 2).with_depth(6),
            17,
        );
        (forest, Dataset::higgs(123, 6).normalized())
    }

    #[test]
    fn flat_scoring_matches_reference() {
        let (forest, data) = higgs_setup();
        for threads in [1, 4] {
            let preds = score_once(&OnnxCpu::with_threads(threads), &forest, data.frame()).unwrap();
            assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
        }
    }

    #[test]
    fn stream_scoring_matches_staged() {
        use mlscore_data::FrameScanner;
        use mlscore_forest::ModelBundle;
        let (forest, data) = higgs_setup();
        let bundle = ModelBundle::serialize(&forest);
        let backend = OnnxCpu::with_threads(4);
        let model = crate::artifact::compile(&backend, &bundle).unwrap();
        let want = score_once(&backend, &forest, data.frame()).unwrap();
        for chunk_rows in [1, 7, 64] {
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let bound = model.bind(backend.name(), 28).unwrap();
            let out = backend
                .score(bound, &mut scanner, &Tracer::disabled(), SimInstant::ZERO)
                .unwrap();
            assert_eq!(out.predictions, want, "chunk_rows={chunk_rows}");
            assert_eq!(out.rows, data.frame().n_rows());
            assert_eq!(out.chunks.len(), data.frame().n_rows().div_ceil(chunk_rows));
        }
    }

    #[test]
    fn onnx_beats_sklearn_at_small_batches_loses_at_large() {
        // The paper's ~5K-record crossover between CPU_ONNX (1 thread) and
        // CPU_SKLearn (52 threads) on a single-tree model.
        use crate::sklearn::SklearnCpu;
        use crate::traits::ScoringBackend as _;
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 3).with_depth(10), 5);
        let stats = ModelStats::of(&forest);
        let onnx = OnnxCpu::single_thread();
        let sklearn = SklearnCpu::paper_default();
        let small = 100u64;
        let large = 1_000_000u64;
        assert!(
            onnx.estimate(&stats, small, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                < sklearn
                    .estimate(&stats, small, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
        );
        assert!(
            onnx.estimate(&stats, large, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                > sklearn
                    .estimate(&stats, large, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
        );
    }

    #[test]
    fn crossover_is_in_the_paper_band() {
        // Find where sklearn overtakes ONNX; the paper says ~5K records.
        use crate::sklearn::SklearnCpu;
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 3).with_depth(10), 5);
        let stats = ModelStats::of(&forest);
        let onnx = OnnxCpu::single_thread();
        let sklearn = SklearnCpu::paper_default();
        let mut crossover = None;
        for exp in 0..24 {
            let n = 1u64 << exp;
            if sklearn
                .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                < onnx
                    .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
            {
                crossover = Some(n);
                break;
            }
        }
        let n = crossover.expect("sklearn must eventually win");
        assert!(
            (1_000..20_000).contains(&n),
            "ONNX/sklearn crossover at {n}, expected ~5K"
        );
    }

    #[test]
    fn estimate_call_overhead_smaller_than_sklearn() {
        use crate::sklearn::SklearnCostParams;
        let onnx = OnnxCostParams::default();
        let sk = SklearnCostParams::default();
        assert!(onnx.call_overhead < sk.call_overhead);
    }

    #[test]
    fn traced_estimate_reconstructs_exactly() {
        let (forest, _) = higgs_setup();
        let stats = ModelStats::of(&forest);
        for backend in [OnnxCpu::single_thread(), OnnxCpu::paper_52th()] {
            let tracer = Tracer::new();
            let traced = backend.estimate(&stats, 50_000, &tracer, SimInstant::ZERO);
            assert_eq!(
                traced,
                backend.estimate(&stats, 50_000, &Tracer::disabled(), SimInstant::ZERO)
            );
            assert_eq!(tracer.take().breakdown(Scope::Offload), traced);
        }
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(OnnxCpu::single_thread().name(), "CPU_ONNX");
        assert_eq!(OnnxCpu::paper_52th().name(), "CPU_ONNX_52th");
    }
}

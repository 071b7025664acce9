//! The RAPIDS-FIL-like backend ("GPU-RAPIDS").

use std::sync::Arc;

use mlscore_backend::{
    score_whole_batch, BackendError, Lowered, ModelRef, ScoringBackend, StreamOutcome,
};
use mlscore_data::RecordStream;
use mlscore_forest::{FlatForest, ModelStats, RandomForest};
use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::{Scope, StageRecorder, Tracer};

use crate::device::GpuDevice;
use crate::divergence::warp_efficiency;
use crate::MAX_LAUNCH_LANES;

/// Timing-model constants for the FIL strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilCostParams {
    /// Fixed cost of the cuDF dataframe conversion (the paper measured
    /// ~120 ms at its 1M-record input size; most of it is fixed Python-side
    /// setup, the rest scales with bytes).
    pub cudf_fixed: SimDuration,
    /// Per-byte cost of the cuDF conversion.
    pub cudf_per_byte: SimDuration,
    /// Node visits retired per SM per cycle with no divergence (issue-width
    /// limited: a visit is a dependent load-compare-select chain).
    pub visits_per_sm_cycle: f64,
    /// Kernel invocations per scoring call (tree loading + inference +
    /// reduction).
    pub kernels_per_call: u32,
}

impl Default for FilCostParams {
    fn default() -> Self {
        Self {
            cudf_fixed: SimDuration::from_millis(95.0),
            cudf_per_byte: SimDuration::from_nanos(0.05),
            visits_per_sm_cycle: 2.0,
            kernels_per_call: 6,
        }
    }
}

/// The "GPU-RAPIDS" backend: cuDF conversion plus divergent per-thread tree
/// traversal on the GPU. Binary classification only, as in the paper
/// ("there are only two output classes for this dataset, thus the model is
/// ... also supported by GPU RAPIDS").
///
/// # Example
///
/// ```
/// use mlscore_backend::score_once;
/// use mlscore_data::Dataset;
/// use mlscore_forest::{ForestConfig, RandomForest};
/// use mlscore_gpu::RapidsFil;
///
/// let forest = RandomForest::synthetic_full(
///     &ForestConfig::classification(8, 28, 2).with_depth(6),
///     2,
/// );
/// let data = Dataset::higgs(40, 4).normalized();
/// let preds = score_once(&RapidsFil::p100(), &forest, data.frame())?;
/// assert_eq!(preds.len(), 40);
/// # Ok::<(), mlscore_backend::BackendError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RapidsFil {
    device: GpuDevice,
    params: FilCostParams,
}

impl RapidsFil {
    /// FIL on the paper's Tesla P100.
    pub fn p100() -> Self {
        Self::new(GpuDevice::tesla_p100(), FilCostParams::default())
    }

    /// Fully custom construction.
    pub fn new(device: GpuDevice, params: FilCostParams) -> Self {
        Self { device, params }
    }

    /// The device model.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    fn check_supported(&self, n_classes: u32) -> Result<(), BackendError> {
        if n_classes == 2 {
            return Ok(());
        }
        Err(BackendError::unsupported(
            "GPU-RAPIDS",
            format!("only binary classification is supported, model has {n_classes} classes"),
        ))
    }
}

impl ScoringBackend for RapidsFil {
    fn name(&self) -> &str {
        "GPU-RAPIDS"
    }

    fn supports(&self, stats: &ModelStats) -> Result<(), BackendError> {
        self.check_supported(stats.n_classes)
    }

    // Lowering builds the FIL device node table: the dense flat image whose
    // (total_nodes × 16 B) size is exactly what the model-h2d transfer in
    // the cost model charges for.
    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        self.check_supported(forest.n_classes())?;
        let flat = FlatForest::from_forest(forest, forest.max_depth())?;
        Ok(Lowered::Custom(Arc::new(flat)))
    }

    fn score(
        &self,
        model: ModelRef<'_>,
        stream: &mut dyn RecordStream,
        _tracer: &Tracer,
        _start: SimInstant,
    ) -> Result<StreamOutcome, BackendError> {
        self.check_supported(model.forest().n_classes())?;
        let flat = model.custom::<FlatForest>(self.name())?;
        score_whole_batch(stream, |frame| {
            // The trees vote over the FIL node table row by row. The cuDF
            // conversion the real RAPIDS path runs first reorders the batch
            // but changes no vote, so it is only charged (DataPreprocessing
            // in `estimate`), not performed.
            let mut votes = Vec::new();
            Ok(frame
                .rows()
                .map(|row| flat.score_one_with(row, &mut votes))
                .collect())
        })
    }

    fn estimate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        let d = &self.device;
        let p = &self.params;
        let name = <Self as ScoringBackend>::name(self);
        let mut rec = StageRecorder::new(tracer, name, Scope::Offload);
        let input_bytes = n_records * stats.row_bytes() as u64;
        let model_bytes = (stats.total_nodes * 16) as u64;

        // Kernel: divergent traversal, compute- or memory-bound.
        let visits = n_records as f64 * stats.visits_per_record();
        let eff = warp_efficiency(stats.max_depth);
        let visit_rate = d.sms as f64 * d.clock.hz() * p.visits_per_sm_cycle * eff;
        let compute = SimDuration::from_secs(visits / visit_rate);
        let miss = d.l2_miss_fraction((stats.total_nodes * 16) as u64);
        let traffic = visits * 16.0 * miss + (input_bytes + n_records * 4) as f64;
        let memory = d.memory_time(traffic);
        let kernel = compute.max(memory);

        // cuDF conversion (host-side pre-processing), then model + records
        // to the device.
        let t = rec
            .span("cudf conversion", Stage::DataPreprocessing, start)
            .meta("input_bytes", input_bytes)
            .finish_after(p.cudf_fixed + p.cudf_per_byte * input_bytes as f64);
        let t = rec
            .span("model h2d", Stage::InputTransfer, t)
            .meta("bytes", model_bytes)
            .finish_after(d.link.transfer(model_bytes));
        let t_kernel = rec
            .span("records h2d", Stage::InputTransfer, t)
            .meta("bytes", input_bytes)
            .finish_after(d.link.transfer(input_bytes));
        // The result copy is recorded before the kernel (the breakdown's
        // stage order) but placed after it.
        let t_results = rec
            .span("results d2h", Stage::ResultTransfer, t_kernel + kernel)
            .finish_after(d.link.transfer(n_records * 4));
        rec.span("fil inference kernel", Stage::Scoring, t_kernel)
            .meta(
                "bound",
                if memory > compute {
                    "memory"
                } else {
                    "compute"
                },
            )
            .meta("warp_efficiency", format_args!("{eff:.3}"))
            .finish_after(kernel);

        // Launch + driver costs.
        let launches = d.kernel_launch * p.kernels_per_call as f64;
        rec.span("kernel launches", Stage::SoftwareOverhead, t_results)
            .lane("host")
            .meta("kernels", p.kernels_per_call)
            .finish_after(launches);
        rec.span(
            "driver overhead",
            Stage::SoftwareOverhead,
            t_results + launches,
        )
        .lane("host")
        .finish_after(SimDuration::from_micros(200.0));
        // Detail: the individual launches inside the launch span.
        let mut tl = t_results;
        for k in 0..(p.kernels_per_call as usize).min(MAX_LAUNCH_LANES) {
            tl = tracer
                .span(format_args!("launch {k}"), tl)
                .track(name, "launches")
                .finish_after(d.kernel_launch);
        }
        rec.into_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_backend::score_once;
    use mlscore_data::Dataset;
    use mlscore_forest::ForestConfig;

    fn binary_forest(n_trees: usize, depth: usize) -> RandomForest {
        RandomForest::synthetic_full(
            &ForestConfig::classification(n_trees, 28, 2).with_depth(depth),
            11,
        )
    }

    #[test]
    fn predictions_match_reference() {
        let forest = binary_forest(16, 6);
        let data = Dataset::higgs(200, 3).normalized();
        let preds = score_once(&RapidsFil::p100(), &forest, data.frame()).unwrap();
        assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
    }

    #[test]
    fn multiclass_rejected_like_the_paper() {
        let iris_model =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 4, 3).with_depth(4), 1);
        let stats = ModelStats::of(&iris_model);
        let err = RapidsFil::p100().supports(&stats).unwrap_err();
        assert!(matches!(err, BackendError::Unsupported { .. }));
        let data = Dataset::iris(10, 1).normalized();
        assert!(score_once(&RapidsFil::p100(), &iris_model, data.frame()).is_err());
    }

    #[test]
    fn small_batches_pay_the_cudf_floor() {
        let stats = ModelStats::of(&binary_forest(1, 6));
        let b = RapidsFil::p100().estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO);
        // Fig. 9e: RAPIDS latency is very high (~120 ms) at tiny batches.
        assert!(b.total().as_millis() > 80.0, "total {}", b.total());
        let (stage, _) = b.dominant().unwrap();
        assert_eq!(stage, Stage::DataPreprocessing);
    }

    #[test]
    fn estimate_grows_with_records_and_model() {
        let fil = RapidsFil::p100();
        let small = ModelStats::of(&binary_forest(1, 6));
        let big = ModelStats::of(&binary_forest(128, 10));
        assert!(
            fil.estimate(&big, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                > fil
                    .estimate(&small, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
        );
        assert!(
            fil.estimate(&big, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                > fil
                    .estimate(&big, 1_000, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
        );
    }

    #[test]
    fn traced_estimate_reconstructs_exactly() {
        let fil = RapidsFil::p100();
        for (s, n) in [
            (ModelStats::of(&binary_forest(1, 6)), 1u64),
            (ModelStats::of(&binary_forest(128, 10)), 1_000_000),
        ] {
            let tracer = Tracer::new();
            let traced = fil.estimate(&s, n, &tracer, SimInstant::ZERO);
            assert_eq!(
                traced,
                fil.estimate(&s, n, &Tracer::disabled(), SimInstant::ZERO)
            );
            let trace = tracer.take();
            assert_eq!(trace.breakdown(Scope::Offload), traced);
        }
    }

    #[test]
    fn traced_result_transfer_placed_after_kernel() {
        // Recording order preserves the breakdown's stage order
        // (ResultTransfer before Scoring), but the timeline places the
        // result copy after the kernel finishes.
        let fil = RapidsFil::p100();
        let tracer = Tracer::new();
        let s = ModelStats::of(&binary_forest(16, 8));
        fil.estimate(&s, 50_000, &tracer, SimInstant::ZERO);
        let trace = tracer.take();
        let events = trace.events();
        let kernel = events
            .iter()
            .find(|e| e.name == "fil inference kernel")
            .unwrap();
        let results = events.iter().find(|e| e.name == "results d2h").unwrap();
        assert_eq!(results.start, kernel.end());
        let result_pos = events.iter().position(|e| e.name == "results d2h").unwrap();
        let kernel_pos = events
            .iter()
            .position(|e| e.name == "fil inference kernel")
            .unwrap();
        assert!(result_pos < kernel_pos, "recording order follows add order");
    }

    #[test]
    fn deeper_trees_hurt_via_divergence() {
        let fil = RapidsFil::p100();
        let d6 = ModelStats::of(&binary_forest(64, 6));
        let d10 = ModelStats::of(&binary_forest(64, 10));
        let t6 = fil
            .estimate(&d6, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .get(Stage::Scoring);
        let t10 = fil
            .estimate(&d10, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .get(Stage::Scoring);
        // Visits grow 11/7 = 1.57x; divergence makes scoring grow faster.
        assert!(t10.ratio(t6) > 1.6, "ratio {}", t10.ratio(t6));
    }
}

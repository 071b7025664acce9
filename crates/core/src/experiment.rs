//! Sweeping backends over model/batch grids.

use mlscore_backend::ScoringBackend;
use mlscore_data::DatasetSpec;
use mlscore_forest::ModelStats;
use mlscore_sched::paper_backends;
use mlscore_sim::{SimDuration, SimInstant, TimingBreakdown};

use crate::calibration::paper_model;
use mlscore_telemetry::Tracer;

/// One backend's modelled result at a sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendResult {
    /// Backend name (figure legend).
    pub backend: String,
    /// The modelled scoring-time breakdown.
    pub breakdown: TimingBreakdown,
}

impl BackendResult {
    /// Total scoring time.
    pub fn total(&self) -> SimDuration {
        self.breakdown.total()
    }

    /// Throughput in scorings per second for `n_records`.
    pub fn throughput(&self, n_records: u64) -> f64 {
        self.total().throughput(n_records)
    }
}

/// All supported backends evaluated at one (dataset, model, batch) point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Dataset family.
    pub dataset: DatasetSpec,
    /// Ensemble size.
    pub n_trees: usize,
    /// Tree depth in levels.
    pub depth: usize,
    /// Batch size.
    pub n_records: u64,
    /// Per-backend results (unsupported backends are absent).
    pub results: Vec<BackendResult>,
}

impl SweepPoint {
    /// Evaluates the paper's backend roster at one point.
    pub fn evaluate(dataset: DatasetSpec, n_trees: usize, depth: usize, n_records: u64) -> Self {
        let model = paper_model(dataset, n_trees, depth);
        let stats = ModelStats::of(&model);
        Self::evaluate_with(
            &paper_backends(),
            &stats,
            dataset,
            n_trees,
            depth,
            n_records,
        )
    }

    /// Evaluates an explicit backend set at one point.
    pub fn evaluate_with(
        backends: &[Box<dyn ScoringBackend>],
        stats: &ModelStats,
        dataset: DatasetSpec,
        n_trees: usize,
        depth: usize,
        n_records: u64,
    ) -> Self {
        let results = backends
            .iter()
            .filter(|b| b.supports(stats).is_ok())
            .map(|b| BackendResult {
                backend: b.name().to_string(),
                breakdown: b.estimate(stats, n_records, &Tracer::disabled(), SimInstant::ZERO),
            })
            .collect();
        Self {
            dataset,
            n_trees,
            depth,
            n_records,
            results,
        }
    }

    /// The result for a named backend, if present.
    pub fn result(&self, backend: &str) -> Option<&BackendResult> {
        self.results.iter().find(|r| r.backend == backend)
    }

    /// The fastest backend overall.
    ///
    /// # Panics
    ///
    /// Panics if the point has no results.
    pub fn best(&self) -> &BackendResult {
        self.results
            .iter()
            .min_by(|a, b| a.total().cmp(&b.total()))
            .expect("sweep point has at least one backend")
    }

    /// The fastest CPU backend — the paper's comparison baseline ("for each
    /// number of records, we select the model with the best performance for
    /// the CPU").
    ///
    /// # Panics
    ///
    /// Panics if no CPU backend was evaluated.
    pub fn best_cpu(&self) -> &BackendResult {
        self.results
            .iter()
            .filter(|r| r.backend.starts_with("CPU"))
            .min_by(|a, b| a.total().cmp(&b.total()))
            .expect("sweep point includes a CPU backend")
    }

    /// The fastest GPU backend, if any GPU supports the model.
    pub fn best_gpu(&self) -> Option<&BackendResult> {
        self.results
            .iter()
            .filter(|r| r.backend.starts_with("GPU"))
            .min_by(|a, b| a.total().cmp(&b.total()))
    }

    /// Best overall speedup relative to the best CPU (1.0 when the CPU
    /// wins).
    pub fn best_speedup_vs_cpu(&self) -> f64 {
        self.best_cpu().total().ratio(self.best().total())
    }
}

/// Finds the crossover record count: the first batch size in `sweep` where
/// `contender` beats `baseline` at the given model shape, scanning a dense
/// decade grid. Returns `None` when the contender never wins.
pub fn crossover_records(
    dataset: DatasetSpec,
    n_trees: usize,
    depth: usize,
    baseline: &str,
    contender: &str,
    sweep: &[u64],
) -> Option<u64> {
    for &n in sweep {
        let point = SweepPoint::evaluate(dataset, n_trees, depth, n);
        match (point.result(baseline), point.result(contender)) {
            (Some(base), Some(cont)) if cont.total() < base.total() => return Some(n),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_includes_cpu_backends_everywhere() {
        let p = SweepPoint::evaluate(DatasetSpec::Iris, 16, 10, 1_000);
        assert!(p.result("CPU_SKLearn_52th").is_some());
        assert!(p.result("CPU_ONNX").is_some());
        assert!(p.result("FPGA").is_some());
        // IRIS is 3-class: RAPIDS absent.
        assert!(p.result("GPU-RAPIDS").is_none());
    }

    #[test]
    fn higgs_points_include_rapids() {
        let p = SweepPoint::evaluate(DatasetSpec::Higgs, 16, 10, 1_000);
        assert!(p.result("GPU-RAPIDS").is_some());
    }

    #[test]
    fn best_cpu_is_cpu() {
        let p = SweepPoint::evaluate(DatasetSpec::Higgs, 128, 10, 1_000_000);
        assert!(p.best_cpu().backend.starts_with("CPU"));
        assert!(p.best_speedup_vs_cpu() >= 1.0);
    }

    #[test]
    fn tiny_batches_favor_cpu() {
        let p = SweepPoint::evaluate(DatasetSpec::Iris, 128, 10, 1);
        assert!(
            p.best().backend.starts_with("CPU"),
            "best {}",
            p.best().backend
        );
        assert_eq!(p.best_speedup_vs_cpu(), 1.0);
    }

    #[test]
    fn crossover_exists_for_heavy_models() {
        let xover = crossover_records(
            DatasetSpec::Higgs,
            128,
            10,
            "CPU_ONNX_52th",
            "FPGA",
            &crate::calibration::RECORD_SWEEP,
        );
        let n = xover.expect("FPGA must eventually beat the CPU");
        assert!(n <= 10_000, "crossover at {n}");
    }
}

//! Generators for the paper's figures. Each returns a structured table the
//! `repro` binary renders; nothing here prints.

use mlscore_backend::{OnnxCpu, ScoringBackend};
use mlscore_data::DatasetSpec;
use mlscore_forest::{ModelBundle, ModelStats};
use mlscore_fpga::FpgaBackend;
use mlscore_pipeline::{QueryPipeline, QueryPlan};
use mlscore_sim::{SimDuration, SimInstant, TimingBreakdown};

use crate::calibration::{paper_model, RECORD_SWEEP};
use crate::experiment::SweepPoint;
use mlscore_telemetry::Tracer;

/// One bar of Fig. 7: the FPGA scoring-time breakdown at a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Dataset family.
    pub dataset: DatasetSpec,
    /// Ensemble size.
    pub n_trees: usize,
    /// Tree depth.
    pub depth: usize,
    /// Batch size.
    pub n_records: u64,
    /// The six-component FPGA breakdown.
    pub breakdown: TimingBreakdown,
}

/// Fig. 7 for one configuration.
pub fn fig7(dataset: DatasetSpec, n_trees: usize, depth: usize, n_records: u64) -> Fig7Result {
    let stats = ModelStats::of(&paper_model(dataset, n_trees, depth));
    let breakdown = FpgaBackend::paper_default().estimate(
        &stats,
        n_records,
        &Tracer::disabled(),
        SimInstant::ZERO,
    );
    Fig7Result {
        dataset,
        n_trees,
        depth,
        n_records,
        breakdown,
    }
}

/// Fig. 7a: all four 1-record bars ({IRIS, HIGGS} × {1, 128} trees).
pub fn fig7a() -> Vec<Fig7Result> {
    fig7_panel(1)
}

/// Fig. 7b: all four 1M-record bars.
pub fn fig7b() -> Vec<Fig7Result> {
    fig7_panel(1_000_000)
}

fn fig7_panel(n_records: u64) -> Vec<Fig7Result> {
    let mut out = Vec::new();
    for dataset in DatasetSpec::all() {
        for n_trees in [1usize, 128] {
            out.push(fig7(dataset, n_trees, 10, n_records));
        }
    }
    out
}

/// One latency/throughput series of Figs. 9–10.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Backend legend name.
    pub name: String,
    /// Total scoring time per record count (aligned with the curve set's
    /// `records`).
    pub totals: Vec<SimDuration>,
}

/// A Fig. 9 panel: scoring latency vs. record count for every supported
/// backend at one (dataset, trees, depth).
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSet {
    /// Dataset family.
    pub dataset: DatasetSpec,
    /// Ensemble size.
    pub n_trees: usize,
    /// Tree depth.
    pub depth: usize,
    /// The record-count axis.
    pub records: Vec<u64>,
    /// One series per backend.
    pub series: Vec<Series>,
}

impl CurveSet {
    /// The series for a named backend.
    pub fn series_for(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Latency of `backend` at `n_records`, if both are present.
    pub fn latency(&self, backend: &str, n_records: u64) -> Option<SimDuration> {
        let idx = self.records.iter().position(|&r| r == n_records)?;
        Some(self.series_for(backend)?.totals[idx])
    }

    /// Throughput (scorings per second) of `backend` at `n_records` —
    /// the Fig. 10 quantity.
    pub fn throughput(&self, backend: &str, n_records: u64) -> Option<f64> {
        Some(self.latency(backend, n_records)?.throughput(n_records))
    }
}

/// Fig. 9 panel (and the data for the matching Fig. 10 panel) at one
/// configuration, over the paper's record sweep.
pub fn fig9(dataset: DatasetSpec, n_trees: usize, depth: usize) -> CurveSet {
    fig9_over(dataset, n_trees, depth, &RECORD_SWEEP)
}

/// Fig. 9 panel over an explicit record axis.
pub fn fig9_over(dataset: DatasetSpec, n_trees: usize, depth: usize, records: &[u64]) -> CurveSet {
    let mut series: Vec<Series> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let points: Vec<SweepPoint> = records
        .iter()
        .map(|&n| SweepPoint::evaluate(dataset, n_trees, depth, n))
        .collect();
    if let Some(first) = points.first() {
        names = first.results.iter().map(|r| r.backend.clone()).collect();
    }
    for name in names {
        let totals = points
            .iter()
            .map(|p| {
                p.result(&name)
                    .expect("backend support is record-count independent")
                    .total()
            })
            .collect();
        series.push(Series {
            name: name.clone(),
            totals,
        });
    }
    CurveSet {
        dataset,
        n_trees,
        depth,
        records: records.to_vec(),
        series,
    }
}

/// All eight Fig. 9 panels (a–h): {IRIS, HIGGS} × {1, 128} trees × {6, 10}
/// levels.
pub fn fig9_all() -> Vec<CurveSet> {
    let mut out = Vec::new();
    for dataset in DatasetSpec::all() {
        for n_trees in [1usize, 128] {
            for depth in [6usize, 10] {
                out.push(fig9(dataset, n_trees, depth));
            }
        }
    }
    out
}

/// One row of Fig. 11: a backend's end-to-end query breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Scoring backend used inside the query ("CPU", "GPU", "FPGA"
    /// families, with the concrete engine in parentheses).
    pub backend: String,
    /// The Fig. 11 stage breakdown.
    pub breakdown: TimingBreakdown,
}

/// Fig. 11: end-to-end T-SQL query breakdowns at one configuration for a
/// single-threaded CPU (as the figure assumes), the best GPU, and the FPGA.
pub fn fig11(dataset: DatasetSpec, n_trees: usize, depth: usize, n_records: u64) -> Vec<Fig11Row> {
    let model = paper_model(dataset, n_trees, depth);
    let stats = ModelStats::of(&model);
    let model_bytes = ModelBundle::serialize(&model).len() as u64;
    let mut rows = Vec::new();
    let cold = |backend: Box<dyn ScoringBackend>| {
        QueryPipeline::new(backend).estimate(
            QueryPlan::Staged { warm: false },
            &stats,
            model_bytes,
            n_records,
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    };

    rows.push(Fig11Row {
        backend: "CPU (ONNX, 1 thread)".to_string(),
        breakdown: cold(Box::new(OnnxCpu::single_thread())),
    });

    // Best GPU for this model: RAPIDS only handles binary classification.
    let gpu_point = SweepPoint::evaluate(dataset, n_trees, depth, n_records);
    if let Some(best_gpu) = gpu_point.best_gpu() {
        let breakdown = if best_gpu.backend == "GPU-RAPIDS" {
            cold(Box::new(mlscore_gpu::RapidsFil::p100()))
        } else {
            cold(Box::new(mlscore_gpu::HummingbirdGpu::p100()))
        };
        rows.push(Fig11Row {
            backend: format!("GPU ({})", best_gpu.backend),
            breakdown,
        });
    }

    rows.push(Fig11Row {
        backend: "FPGA".to_string(),
        breakdown: cold(Box::new(FpgaBackend::paper_default())),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_sim::Stage;

    #[test]
    fn fig7_panels_have_four_bars_each() {
        assert_eq!(fig7a().len(), 4);
        assert_eq!(fig7b().len(), 4);
    }

    #[test]
    fn fig7_breakdowns_use_the_six_components() {
        let r = fig7(DatasetSpec::Higgs, 128, 10, 1_000_000);
        for stage in Stage::fpga_breakdown_order() {
            assert!(!r.breakdown.get(stage).is_zero(), "missing {stage}");
        }
    }

    #[test]
    fn fig9_series_align_with_record_axis() {
        let c = fig9_over(DatasetSpec::Iris, 1, 6, &[1, 100, 10_000]);
        assert_eq!(c.records.len(), 3);
        for s in &c.series {
            assert_eq!(s.totals.len(), 3);
        }
        assert!(c.series_for("FPGA").is_some());
        assert!(c.series_for("CPU_SKLearn_52th").is_some());
        assert!(c.series_for("GPU-RAPIDS").is_none(), "IRIS is 3-class");
    }

    #[test]
    fn fig9_higgs_includes_rapids() {
        let c = fig9_over(DatasetSpec::Higgs, 1, 6, &[1, 100]);
        assert!(c.series_for("GPU-RAPIDS").is_some());
    }

    #[test]
    fn latency_and_throughput_lookups() {
        let c = fig9_over(DatasetSpec::Higgs, 16, 10, &[1_000]);
        let lat = c.latency("FPGA", 1_000).unwrap();
        let thr = c.throughput("FPGA", 1_000).unwrap();
        assert!((thr - 1_000.0 / lat.as_secs()).abs() < 1e-6 * thr);
        assert!(c.latency("FPGA", 5).is_none());
        assert!(c.latency("nope", 1_000).is_none());
    }

    #[test]
    fn fig9_all_has_eight_panels() {
        // Use a tiny record axis via fig9_over for speed elsewhere; the full
        // fig9_all is the real protocol and must enumerate 8 panels.
        let panels = fig9_all();
        assert_eq!(panels.len(), 8);
    }

    #[test]
    fn fig11_has_cpu_gpu_fpga_rows() {
        let rows = fig11(DatasetSpec::Higgs, 128, 10, 1_000_000);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].backend.starts_with("CPU"));
        assert!(rows[1].backend.starts_with("GPU"));
        assert_eq!(rows[2].backend, "FPGA");
        for row in &rows {
            assert!(!row.breakdown.get(Stage::PythonInvocation).is_zero());
            assert!(!row.breakdown.get(Stage::DataTransfer).is_zero());
        }
    }

    #[test]
    fn fig11_offload_makes_data_transfer_dominant() {
        // The paper: offloading scoring makes data transfer the dominant
        // component of the query.
        let rows = fig11(DatasetSpec::Higgs, 128, 10, 1_000_000);
        let fpga = &rows[2];
        assert_eq!(fpga.breakdown.dominant().unwrap().0, Stage::DataTransfer);
        // While the single-threaded CPU query is scoring-dominated.
        let cpu = &rows[0];
        assert_eq!(cpu.breakdown.dominant().unwrap().0, Stage::Scoring);
    }
}

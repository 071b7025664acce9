//! Generators for the ablation studies beyond the paper (EXPERIMENTS.md
//! A1–A3, A5–A7 and A10). Each returns the rows `repro ablations` renders;
//! nothing here prints. A4 is `repro scheduler`.

use mlscore_backend::{OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_data::{Dataset, DatasetSpec};
use mlscore_forest::{
    FlatForest, ForestConfig, ModelBundle, ModelStats, QuantScheme, QuantizedForest, RandomForest,
};
use mlscore_fpga::{
    split_score, EngineConfig, FpgaBackend, FpgaDevice, InferenceEngine, MemoryBackend,
};
use mlscore_gpu::{
    measured_divergence, warp_efficiency, FilCostParams, GpuDevice, HummingbirdCostParams,
    HummingbirdGpu, RapidsFil,
};
use mlscore_offload::PcieLink;
use mlscore_pipeline::{IntegrationMode, QueryPipeline, QueryPlan};
use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::Tracer;

use crate::calibration::paper_model;
use crate::headline::DENSE_SWEEP;

/// Batch size every ablation's headline column is taken at.
const MILLION: u64 = 1_000_000;

fn breakdown(backend: &dyn ScoringBackend, stats: &ModelStats, n_records: u64) -> TimingBreakdown {
    backend.estimate(stats, n_records, &Tracer::disabled(), SimInstant::ZERO)
}

fn total(backend: &dyn ScoringBackend, stats: &ModelStats, n_records: u64) -> SimDuration {
    breakdown(backend, stats, n_records).total()
}

/// The first batch size on the dense sweep where `wins` holds.
fn crossover(wins: impl Fn(u64) -> bool) -> Option<u64> {
    DENSE_SWEEP.iter().copied().find(|&n| wins(n))
}

fn higgs_128x10() -> ModelStats {
    ModelStats::of(&paper_model(DatasetSpec::Higgs, 128, 10))
}

/// One row of A1: the FPGA behind a given PCIe link.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieRow {
    /// Link label ("gen3 x16", ...).
    pub link: &'static str,
    /// FPGA scoring time at 1M records.
    pub fpga_1m: SimDuration,
    /// 52-thread ONNX time over FPGA time at 1M records.
    pub speedup_vs_cpu: f64,
    /// First dense-sweep batch where the FPGA beats the CPU.
    pub crossover: Option<u64>,
}

/// A1: PCIe generation sweep at HIGGS, 128 trees, depth 10. The paper
/// (§IV-E) flags link bandwidth as an intrinsic hardware limit.
pub fn pcie_sweep() -> Vec<PcieRow> {
    let stats = higgs_128x10();
    let cpu = OnnxCpu::paper_52th();
    [
        ("gen3 x16", PcieLink::gen3_x16()),
        ("gen4 x16", PcieLink::gen4_x16()),
        ("gen5 x16", PcieLink::gen5_x16()),
    ]
    .into_iter()
    .map(|(link_name, link)| {
        let device = FpgaDevice {
            link,
            ..FpgaDevice::stratix10_gx2800()
        };
        let fpga = FpgaBackend::with_config(device, EngineConfig::default());
        let fpga_1m = total(&fpga, &stats, MILLION);
        PcieRow {
            link: link_name,
            fpga_1m,
            speedup_vs_cpu: total(&cpu, &stats, MILLION).ratio(fpga_1m),
            crossover: crossover(|n| total(&fpga, &stats, n) < total(&cpu, &stats, n)),
        }
    })
    .collect()
}

/// One row of A2: the FPGA with its tree memories in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRow {
    /// Memory label ("BRAM" or "DDR").
    pub memory: &'static str,
    /// IRIS, 128 trees, depth 10, 1M records.
    pub iris_128t: SimDuration,
    /// HIGGS, 128 trees, depth 10, 1M records.
    pub higgs_128t: SimDuration,
    /// HIGGS, 1 tree, depth 10, 1M records.
    pub higgs_1t: SimDuration,
}

/// A2: BRAM-resident vs DDR-backed tree memories. The paper keeps every
/// tree on chip; this re-runs the engine with a DDR initiation interval.
pub fn fpga_memory() -> Vec<MemoryRow> {
    [("BRAM", MemoryBackend::Bram), ("DDR", MemoryBackend::Ddr)]
        .into_iter()
        .map(|(memory_name, memory)| {
            let fpga = FpgaBackend::with_config(
                FpgaDevice::stratix10_gx2800(),
                EngineConfig {
                    memory,
                    ..EngineConfig::default()
                },
            );
            let cell = |dataset, trees| {
                total(
                    &fpga,
                    &ModelStats::of(&paper_model(dataset, trees, 10)),
                    MILLION,
                )
            };
            MemoryRow {
                memory: memory_name,
                iris_128t: cell(DatasetSpec::Iris, 128),
                higgs_128t: cell(DatasetSpec::Higgs, 128),
                higgs_1t: cell(DatasetSpec::Higgs, 1),
            }
        })
        .collect()
}

/// A10: the 16-bit quantized node layout against the Fig. 4b f32 layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedCapacity {
    /// Padded f32 flat image of the 128-tree, depth-10 HIGGS-shaped model.
    pub f32_bytes: usize,
    /// Live quantized image of the same model.
    pub quantized_bytes: usize,
    /// Fraction of 2 000 HIGGS records whose prediction changes.
    pub mismatch_rate: f64,
}

/// A10: how much tree memory quantization frees, and at what accuracy.
pub fn quantized_capacity() -> QuantizedCapacity {
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(128, 28, 2).with_depth(10), 3);
    let flat = FlatForest::from_forest(&forest, 10).expect("depth-10 forest fits the flat layout");
    let quant = QuantizedForest::from_forest(&forest, QuantScheme::unit(28))
        .expect("unit scheme covers every feature");
    let data = Dataset::higgs(2_000, 9).normalized();
    QuantizedCapacity {
        f32_bytes: flat.footprint_bytes(),
        quantized_bytes: quant.footprint_bytes(),
        mismatch_rate: quant.mismatch_rate(&forest, data.frame().as_slice()),
    }
}

/// A3: the GPU mechanisms the paper blames, switched off one at a time
/// (HIGGS, 128 trees, depth 10, 1M records on the P100).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuMechanisms {
    /// RAPIDS-FIL as calibrated.
    pub rapids: TimingBreakdown,
    /// RAPIDS-FIL with the depth-10 warp-divergence factor cancelled.
    pub rapids_divergence_free: TimingBreakdown,
    /// Hummingbird as calibrated (gather-tensor traffic factor 1.5).
    pub hummingbird: TimingBreakdown,
    /// Hummingbird with traffic factor 1.0.
    pub hummingbird_lean: TimingBreakdown,
    /// Measured lane activity of leaf-capped IRIS trees.
    pub measured_lane_activity: f64,
    /// The analytic `warp_efficiency(10)` it validates.
    pub analytic_warp_efficiency: f64,
}

impl GpuMechanisms {
    /// How much the divergence penalty slows the RAPIDS kernel alone.
    pub fn divergence_kernel_ratio(&self) -> f64 {
        self.rapids
            .get(Stage::Scoring)
            .ratio(self.rapids_divergence_free.get(Stage::Scoring))
    }
}

/// A3: GPU mechanism knobs.
pub fn gpu_mechanisms() -> GpuMechanisms {
    let stats = higgs_128x10();
    let divergence_free = RapidsFil::new(
        GpuDevice::tesla_p100(),
        FilCostParams {
            visits_per_sm_cycle: FilCostParams::default().visits_per_sm_cycle
                / warp_efficiency(stats.max_depth),
            ..FilCostParams::default()
        },
    );
    let lean = HummingbirdGpu::new(
        GpuDevice::tesla_p100(),
        HummingbirdCostParams {
            traffic_factor: 1.0,
            ..HummingbirdCostParams::default()
        },
    );
    let iris_model = paper_model(DatasetSpec::Iris, 16, 10);
    let data = Dataset::iris(256, 3).normalized();
    GpuMechanisms {
        rapids: breakdown(&RapidsFil::p100(), &stats, MILLION),
        rapids_divergence_free: breakdown(&divergence_free, &stats, MILLION),
        hummingbird: breakdown(&HummingbirdGpu::p100(), &stats, MILLION),
        hummingbird_lean: breakdown(&lean, &stats, MILLION),
        measured_lane_activity: measured_divergence(&iris_model, data.frame()),
        analytic_warp_efficiency: warp_efficiency(10),
    }
}

/// One row of A5: split execution at one tree depth.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitRow {
    /// Tree depth.
    pub depth: usize,
    /// Fraction of traversals that reach a leaf on the FPGA.
    pub fpga_fraction: f64,
    /// Node visits left to the CPU.
    pub cpu_visits: u64,
    /// Split predictions equal the tree-walk predictions.
    pub bit_exact: bool,
}

/// A5: split execution for trees deeper than the engine's 10 levels
/// (§III-B's proposed extension), on 1 000 IRIS records.
pub fn split_depth() -> Vec<SplitRow> {
    let engine = InferenceEngine::paper_default();
    let data = Dataset::iris(1_000, 5).normalized();
    [8usize, 10, 12, 14, 16]
        .into_iter()
        .map(|depth| {
            let forest = RandomForest::synthetic_capped(
                &ForestConfig::classification(16, 4, 3).with_depth(depth),
                600,
                7,
            );
            let (preds, report) = split_score(&engine, &forest, data.frame());
            SplitRow {
                depth,
                fpga_fraction: report.fpga_fraction(),
                cpu_visits: report.cpu_visits,
                bit_exact: preds == forest.predict_batch(data.frame().as_slice()),
            }
        })
        .collect()
}

/// One row of A6: one GPU generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuGenerationRow {
    /// Device label ("P100", "V100", "A100").
    pub gpu: &'static str,
    /// Hummingbird at 1M records.
    pub hummingbird_1m: SimDuration,
    /// RAPIDS-FIL at 1M records.
    pub rapids_1m: SimDuration,
    /// Best CPU over best GPU at 1M records.
    pub best_speedup: f64,
    /// First dense-sweep batch where the best GPU beats the best CPU.
    pub crossover: Option<u64>,
}

/// A6: GPU generations at HIGGS, 128 trees, depth 10 — the paper's
/// "GPUs with larger caches ... shift the crossover points".
pub fn gpu_generations() -> Vec<GpuGenerationRow> {
    let stats = higgs_128x10();
    let sklearn = SklearnCpu::paper_default();
    let onnx52 = OnnxCpu::paper_52th();
    let best_cpu = |n| total(&sklearn, &stats, n).min(total(&onnx52, &stats, n));
    [
        ("P100", GpuDevice::tesla_p100()),
        ("V100", GpuDevice::tesla_v100()),
        ("A100", GpuDevice::a100()),
    ]
    .into_iter()
    .map(|(gpu, device)| {
        let hb = HummingbirdGpu::new(device.clone(), HummingbirdCostParams::default());
        let fil = RapidsFil::new(device, FilCostParams::default());
        let best_gpu = |n| total(&hb, &stats, n).min(total(&fil, &stats, n));
        GpuGenerationRow {
            gpu,
            hummingbird_1m: total(&hb, &stats, MILLION),
            rapids_1m: total(&fil, &stats, MILLION),
            best_speedup: best_cpu(MILLION).ratio(best_gpu(MILLION)),
            crossover: crossover(|n| best_gpu(n) < best_cpu(n)),
        }
    })
    .collect()
}

/// One row of A7: the end-to-end query under one integration mode.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrationRow {
    /// Integration mode name.
    pub mode: &'static str,
    /// Cold end-to-end query time.
    pub total: SimDuration,
    /// Share of the query spent scoring.
    pub scoring_fraction: f64,
    /// External-process query time over this mode's.
    pub speedup_vs_external: f64,
}

/// A7: DBMS↔ML integration tightness (§IV-E) with FPGA scoring, HIGGS,
/// 128 trees, 1M records.
pub fn integration_modes() -> Vec<IntegrationRow> {
    let model = paper_model(DatasetSpec::Higgs, 128, 10);
    let stats = ModelStats::of(&model);
    let model_bytes = ModelBundle::serialize(&model).len() as u64;
    let mut external = None;
    IntegrationMode::all()
        .into_iter()
        .map(|mode| {
            let b = QueryPipeline::with_params(FpgaBackend::paper_default(), mode.params())
                .estimate(
                    QueryPlan::Staged { warm: false },
                    &stats,
                    model_bytes,
                    MILLION,
                    &Tracer::disabled(),
                    SimInstant::ZERO,
                );
            let total = b.total();
            IntegrationRow {
                mode: mode.name(),
                total,
                scoring_fraction: b.fraction(Stage::Scoring),
                speedup_vs_external: external.get_or_insert(total).ratio(total),
            }
        })
        .collect()
}

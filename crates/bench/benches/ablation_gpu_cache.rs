//! Ablation A6: GPU generations. The paper: "GPUs with larger caches can
//! improve the slopes of the GPU performance curves and shift the
//! crossover points in Figures 9 and 10." We re-run the heavy HIGGS
//! configuration on P100/V100/A100 device models and report the GPU-vs-CPU
//! crossover motion.

use criterion::{criterion_group, Criterion};
use mlscore_backend::{OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_data::DatasetSpec;
use mlscore_forest::ModelStats;
use mlscore_gpu::{FilCostParams, GpuDevice, HummingbirdCostParams, HummingbirdGpu, RapidsFil};
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

fn devices() -> [(&'static str, GpuDevice); 3] {
    [
        ("P100", GpuDevice::tesla_p100()),
        ("V100", GpuDevice::tesla_v100()),
        ("A100", GpuDevice::a100()),
    ]
}

fn print_ablation() {
    println!("\n--- Ablation A6: GPU generations (HIGGS, 128 trees, depth 10) ---");
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Higgs,
        128,
        10,
    ));
    let sklearn = SklearnCpu::paper_default();
    let onnx52 = OnnxCpu::paper_52th();
    let best_cpu = |n: u64| {
        sklearn
            .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
            .total()
            .min(
                onnx52
                    .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                    .total(),
            )
    };
    println!(
        "{:<6} {:>14} {:>14} {:>16} {:>20}",
        "GPU", "HB @1M", "RAPIDS @1M", "best-GPU speedup", "GPU crossover (rec)"
    );
    for (name, device) in devices() {
        let hb = HummingbirdGpu::new(device.clone(), HummingbirdCostParams::default());
        let fil = RapidsFil::new(device, FilCostParams::default());
        let hb_t = hb
            .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let fil_t = fil
            .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let best = hb_t.min(fil_t);
        let crossover = mlscore_core::headline::DENSE_SWEEP
            .iter()
            .copied()
            .find(|&n| {
                hb.estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
                    .min(
                        fil.estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                            .total(),
                    )
                    < best_cpu(n)
            });
        println!(
            "{:<6} {:>14} {:>14} {:>15.1}x {:>20}",
            name,
            hb_t.to_string(),
            fil_t.to_string(),
            best_cpu(1_000_000).ratio(best),
            crossover
                .map(|n| n.to_string())
                .unwrap_or_else(|| "never".into())
        );
    }
}

fn bench(c: &mut Criterion) {
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Higgs,
        128,
        10,
    ));
    let mut g = c.benchmark_group("ablation_gpu_cache");
    for (name, device) in devices() {
        let hb = HummingbirdGpu::new(device, HummingbirdCostParams::default());
        g.bench_function(name, |b| {
            b.iter(|| {
                hb.estimate(
                    std::hint::black_box(&stats),
                    1_000_000,
                    &Tracer::disabled(),
                    SimInstant::ZERO,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_ablation();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}

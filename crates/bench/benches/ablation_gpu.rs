//! Ablation A3: GPU mechanism knobs — warp divergence for RAPIDS-FIL and
//! the redundant-traffic factor for Hummingbird. Shows how much of each
//! strategy's cost comes from the mechanism the paper blames.

use criterion::{criterion_group, Criterion};
use mlscore_backend::ScoringBackend;
use mlscore_data::{Dataset, DatasetSpec};
use mlscore_forest::ModelStats;
use mlscore_gpu::{
    measured_divergence, warp_efficiency, FilCostParams, HummingbirdCostParams, HummingbirdGpu,
    RapidsFil,
};
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

fn print_ablation() {
    println!("\n--- Ablation A3: GPU mechanism knobs (HIGGS, 128 trees, 1M records) ---");
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Higgs,
        128,
        10,
    ));
    // FIL: with and without the divergence penalty.
    let with_div = RapidsFil::p100()
        .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
        .total();
    let no_div = RapidsFil::new(
        mlscore_gpu::GpuDevice::tesla_p100(),
        FilCostParams {
            // Counteract the depth-10 divergence factor exactly.
            visits_per_sm_cycle: FilCostParams::default().visits_per_sm_cycle
                / warp_efficiency(stats.max_depth),
            ..FilCostParams::default()
        },
    )
    .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
    .total();
    println!(
        "  RAPIDS with divergence {with_div}, divergence-free {no_div} ({:.2}x)",
        with_div.ratio(no_div)
    );

    // HB: traffic factor 1.5 vs 1.0.
    let hb_default = HummingbirdGpu::p100()
        .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
        .total();
    let hb_lean = HummingbirdGpu::new(
        mlscore_gpu::GpuDevice::tesla_p100(),
        HummingbirdCostParams {
            traffic_factor: 1.0,
            ..HummingbirdCostParams::default()
        },
    )
    .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
    .total();
    println!("  HB with gather-tensor traffic {hb_default}, lean {hb_lean}");

    // Empirical divergence on leaf-capped (IRIS-like) trees vs the analytic
    // curve.
    let iris_model = mlscore_core::calibration::paper_model(DatasetSpec::Iris, 16, 10);
    let data = Dataset::iris(256, 3).normalized();
    println!(
        "  measured lane activity (IRIS capped trees): {:.3}; analytic warp_efficiency(10) = {:.3}",
        measured_divergence(&iris_model, data.frame()),
        warp_efficiency(10)
    );
}

fn bench(c: &mut Criterion) {
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Higgs,
        128,
        10,
    ));
    let mut g = c.benchmark_group("ablation_gpu");
    let fil = RapidsFil::p100();
    let hb = HummingbirdGpu::p100();
    g.bench_function("fil_estimate", |b| {
        b.iter(|| {
            fil.estimate(
                std::hint::black_box(&stats),
                1_000_000,
                &Tracer::disabled(),
                SimInstant::ZERO,
            )
        })
    });
    g.bench_function("hb_estimate", |b| {
        b.iter(|| {
            hb.estimate(
                std::hint::black_box(&stats),
                1_000_000,
                &Tracer::disabled(),
                SimInstant::ZERO,
            )
        })
    });
    let iris_model = mlscore_core::calibration::paper_model(DatasetSpec::Iris, 8, 10);
    let data = Dataset::iris(128, 3).normalized();
    g.bench_function("measured_divergence", |b| {
        b.iter(|| measured_divergence(&iris_model, data.frame()))
    });
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
